"""One declaration per run knob.

A run-config key is declared by its settings field (type, default,
validation) and, if it has a flag, by one :data:`CONFIG_FLAGS` entry.
These guards keep the copies that used to drift from coming back: a
flag's own ``default=``, a second flag declaration under ``cli/``, a
flat alias read inside the package, a parser that gains or loses an
option, a README table that disagrees with the fields, and a runtime
object whose own default for a knob drifts from its field's.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import types
from pathlib import Path

from repro.cli import build_parser
from repro.cli._common import CONFIG_FLAGS, config_field
from repro.core import config
from tests.invariants.source import sources, terminal_name, walk

README = Path(__file__).resolve().parents[2] / "README.md"

#: Every parser's option strings, as the flag table found them.
OPTION_STRINGS = {
    "repro-extract": ["--help", "--seed", "--version", "-h"],
    "generate": [
        "--flows-per-interval",
        "--help",
        "--intervals",
        "--out",
        "--scale",
        "--with-anomalies",
        "-h",
    ],
    "extract": [
        "--alarms-only",
        "--bins",
        "--chunk-rows",
        "--clones",
        "--config",
        "--features",
        "--format",
        "--help",
        "--interval-seconds",
        "--keep-extractions",
        "--max-delay",
        "--max-pending",
        "--metrics",
        "--metrics-format",
        "--min-support",
        "--miner",
        "--origin",
        "--prefilter",
        "--store",
        "--trace",
        "--trace-format",
        "--training",
        "--votes",
        "--window",
        "-h",
    ],
    "fleet": [
        "--bins",
        "--chunk-rows",
        "--clones",
        "--config",
        "--features",
        "--format",
        "--help",
        "--interval-seconds",
        "--keep-extractions",
        "--metrics",
        "--metrics-format",
        "--min-support",
        "--miner",
        "--origin",
        "--pipelines",
        "--prefilter",
        "--profile",
        "--route",
        "--store-dir",
        "--top",
        "--trace",
        "--trace-format",
        "--training",
        "--votes",
        "-h",
    ],
    "serve": [
        "--bins",
        "--checkpoint",
        "--checkpoint-every",
        "--checkpoint-sync",
        "--clones",
        "--config",
        "--features",
        "--help",
        "--host",
        "--ingest-port",
        "--interval-seconds",
        "--min-support",
        "--miner",
        "--origin",
        "--pipelines",
        "--port",
        "--prefilter",
        "--resume",
        "--route",
        "--store-dir",
        "--training",
        "--votes",
        "-h",
    ],
    "federate": ["--help", "-h"],
    "federate collect": [
        "--bins",
        "--clones",
        "--config",
        "--features",
        "--help",
        "--interval-seconds",
        "--origin",
        "--out",
        "--site",
        "--training",
        "--votes",
        "-h",
    ],
    "federate merge": [
        "--bins",
        "--clones",
        "--config",
        "--features",
        "--format",
        "--grace",
        "--help",
        "--interval-seconds",
        "--min-support",
        "--origin",
        "--profile",
        "--store",
        "--top",
        "--training",
        "--votes",
        "-h",
    ],
    "incidents": [
        "--config",
        "--format",
        "--help",
        "--jaccard",
        "--profile",
        "--quiet-gap",
        "--top",
        "-h",
    ],
    "table2": ["--help", "--min-support", "--scale", "-h"],
}

#: ``(module, flag)`` pairs whose literal flag shares a config flag's
#: spelling without setting the key: table2's ``--min-support`` is the
#: Table II example's own scaled support.
NOT_CONFIG_KEYS = {("cli/table2.py", "--min-support")}


def _parsers(parser=None, name="repro-extract"):
    """``(name, parser)`` for the root parser and every subparser."""
    parser = parser or build_parser()
    yield name, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for verb, sub in action.choices.items():
                prefix = "" if name == "repro-extract" else f"{name} "
                yield from _parsers(sub, f"{prefix}{verb}")


def test_every_parser_keeps_its_option_strings():
    found = {
        name: sorted(s for a in parser._actions for s in a.option_strings)
        for name, parser in _parsers()
    }
    assert found == OPTION_STRINGS


def test_every_config_flag_is_unset_by_default():
    """An unset flag is ``None``: the ``--config`` file or the field
    default decides, so no flag carries a second default."""
    seen = set()
    for _name, parser in _parsers():
        for action in parser._actions:
            if action.dest in CONFIG_FLAGS:
                seen.add(action.dest)
                assert action.default is None, action.dest
                assert action.option_strings == [CONFIG_FLAGS[action.dest][0]]
    assert seen == set(CONFIG_FLAGS)


def test_every_config_flag_names_a_settings_field():
    for name in CONFIG_FLAGS:
        section, key = name.split(".")
        fields = {f.name for f in dataclasses.fields(config.TABLE_TYPES[section])}
        # [detector] features builds ExtractionConfig.features.
        assert key in fields or name == "detector.features", name


def _literal_arguments(path: str):
    """Every string literal - a flag or a ``dest`` - that an
    ``add_argument`` call outside ``add_config_flags`` passes."""
    skip = set()
    for node in walk(sources()[path]):
        if isinstance(node, ast.FunctionDef) and node.name == "add_config_flags":
            skip.update(ast.walk(node))
    for node in walk(sources()[path]):
        if (
            isinstance(node, ast.Call)
            and terminal_name(node.func) == "add_argument"
            and node not in skip
        ):
            values = [*node.args, *(k.value for k in node.keywords if k.arg == "dest")]
            for value in values:
                if isinstance(value, ast.Constant) and isinstance(value.value, str):
                    yield value.value


def test_no_config_flag_is_declared_outside_the_table():
    flags = {flag for flag, _help in CONFIG_FLAGS.values()}
    found = [
        (path, literal)
        for path in sources()
        if path.startswith("cli/")
        for literal in _literal_arguments(path)
        if (literal in flags or literal in CONFIG_FLAGS)
        and (path, literal) not in NOT_CONFIG_KEYS
    ]
    assert found == []


#: Flat aliases spelled differently from the field they read
#: (``incident_jaccard`` -> ``[incidents] jaccard``): only an
#: ``ExtractionConfig`` has them.
RENAMED = {alias for alias, (_, key) in config._FLAT_FIELDS.items() if alias != key}


def _reads_a_config(value: ast.AST) -> bool:
    """Whether ``value`` is what the package calls an
    ``ExtractionConfig``: ``config`` / ``x.config`` / ``base`` /
    ``x.base``."""
    return terminal_name(value) in ("config", "base")


def test_the_package_reads_the_nested_spelling():
    """The flat aliases are a compatibility layer for callers; inside
    the package a knob is read as ``config.mining.min_support``, so
    removing the aliases touches ``core/config.py`` alone."""
    found = [
        f"{path}:{node.lineno}: .{node.attr}"
        for path, text in sources().items()
        if path != "core/config.py"
        for node in walk(text)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and node.attr in config._FLAT_FIELDS
        and (node.attr in RENAMED or _reads_a_config(node.value))
    ]
    assert found == []


def _default(value: object) -> str:
    if value is None:
        return "unset"
    if isinstance(value, bool):
        return f"`{str(value).lower()}`"
    return f"`{value}`"


def test_the_readme_table_is_the_flag_table():
    """README's flag table lists every config flag once, with the key
    it sets and the field's own default."""
    expected = [
        f"| `{flag}` | `[{name.split('.')[0]}] {name.split('.')[1]}` | "
        f"{_default(config_field(name)[1])} |"
        for name, (flag, _help) in CONFIG_FLAGS.items()
    ]
    block = re.search(
        r"<!-- config-flags -->\n\| Flag .*?\n\|[-| ]+\|\n(.*?)\n\n",
        README.read_text(),
        re.S,
    )
    assert block is not None, "README has no <!-- config-flags --> table"
    assert block[1].splitlines() == expected


#: The tables whose knobs the objects below ``core`` run, and the
#: packages of those objects.  The :mod:`repro.api` verbs are not here:
#: their ``None`` means "the run config's value" (``RunConfig.load``).
RUNTIME_TABLES = (
    config.ServiceSettings,
    config.StreamingSettings,
    config.FederationSettings,
)
RUNTIME_PACKAGES = ("streaming", "federation", "fleet", "service")


def default_drift(tables, modules) -> list[str]:
    """Every constructor parameter of a class in ``modules`` that is
    named after a field of one of ``tables`` but defaults to another
    value than the field's."""
    fields = {}
    for table in tables:
        defaults = table()
        for field in dataclasses.fields(table):
            value = getattr(defaults, field.name)
            fields.setdefault(field.name, []).append((table.__name__, value))
    classes = [
        cls
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls) and cls.__module__ == module.__name__
    ]
    found = []
    for cls in classes:
        for param in inspect.signature(cls.__init__).parameters.values():
            for table, value in fields.get(param.name, ()):
                if param.default not in (param.empty, value):
                    got = f"{param.name}={param.default!r}"
                    found.append(f"{cls.__name__}({got}): {table} has {value!r}")
    return found


def _runtime_modules():
    for package in RUNTIME_PACKAGES:
        root = importlib.import_module(f"repro.{package}")
        yield root
        for info in pkgutil.iter_modules(root.__path__, f"{root.__name__}."):
            yield importlib.import_module(info.name)


def test_runtime_defaults_are_the_table_defaults():
    """A runtime parameter that mirrors a ``[service]``, ``[streaming]``
    or ``[federation]`` field defaults to that field's value."""
    assert default_drift(RUNTIME_TABLES, list(_runtime_modules())) == []


def test_the_default_checker():
    class App:
        def __init__(self, checkpoint_every=1, chunk_rows=4096, sequence=0):
            pass

    module = types.ModuleType("fake")
    App.__module__ = "fake"
    module.App = App
    drift = default_drift([config.ServiceSettings], [module])
    assert drift == ["App(checkpoint_every=1): ServiceSettings has 4"]
