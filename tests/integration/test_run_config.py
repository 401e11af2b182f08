"""One run config for every verb.

A deployment file - pipeline sections plus ``[fleet]``, ``[service]``
and ``[federation]`` - is read by one loader
(:meth:`repro.core.config.RunConfig.load`): every verb accepts the
whole file, validates all four parts, and uses its own.
"""

from __future__ import annotations

import dataclasses
import tomllib

import pytest

import repro.api as api
from repro.anomalies import DDoSInjector, EventSchedule
from repro.cli import build_parser, main
from repro.cli._common import run_config
from repro.core.config import RunConfig
from repro.errors import ConfigError
from repro.flows import write_csv, write_npz
from repro.traffic import TraceGenerator, small_test

BASE = """
[detector]
bins = 128
training_intervals = 8

[mining]
min_support = 60
"""
FLEET = """
[fleet]
route = "dst_ip%2"

[fleet.pipelines.a]

[fleet.pipelines.b.mining]
min_support = 50
"""
SERVICE = """
[service]
port = 0
checkpoint_every = 2
"""
FEDERATION = """
[federation]
sites = ["east", "west"]
route = "dst_ip%2"
min_support = 60
straggler_grace = 3
"""
COMBINED = BASE + FLEET + SERVICE + FEDERATION


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A 16-interval trace with one DDoS after the training horizon."""
    profile = small_test(600)
    schedule = EventSchedule()
    schedule.add_at_interval(
        DDoSInjector(
            victim_ip=profile.internal_base + 5, flows=800, sources=180
        ),
        12, 900.0, duration=880.0,
    )
    flows = TraceGenerator(profile, seed=3).generate(
        16, schedule=schedule
    ).flows
    tmp = tmp_path_factory.mktemp("run_config")
    write_npz(flows, str(tmp / "t.npz"))
    write_csv(flows, str(tmp / "t.csv"))
    return flows, str(tmp / "t.npz"), str(tmp / "t.csv")


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ----------------------------------------------------------------------
# (a) every verb accepts the combined file and behaves as with its own
# ----------------------------------------------------------------------
class TestCombinedFileEqualsOwnTables:
    @pytest.mark.parametrize("verb, source, own", [
        ("extract", 1, BASE),
        ("extract", 2, BASE),
        ("fleet", 2, BASE + FLEET),
    ], ids=["extract-npz", "extract-csv", "fleet"])
    def test_cli_output(self, verb, source, own, trace, tmp_path, capsys):
        source = trace[source]  # the .npz or the .csv path
        outputs = []
        for text in (own, COMBINED):
            config = _write(tmp_path, "run.toml", text)
            assert main([verb, source, "--config", config]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "130.59.0.5" in outputs[0]  # the victim is extracted

    def test_cli_federate_collect(self, trace, tmp_path):
        _, npz, _ = trace
        digests = []
        for name, text in (("own", BASE + FEDERATION), ("all", COMBINED)):
            out = tmp_path / f"{name}.jsonl"
            assert main([
                "federate", "collect", npz, "--site", "east",
                "--out", str(out),
                "--config", _write(tmp_path, "run.toml", text),
            ]) == 0
            digests.append(out.read_bytes())
        assert digests[0] == digests[1]
        # The digests carry value counts, not a count-min geometry.
        assert b'"counts":' in digests[0]
        assert b"cm_width" not in digests[0]

    def test_api_extract_and_stream(self, trace, tmp_path):
        flows, _, csv = trace
        own = _write(tmp_path, "own.toml", BASE)
        combined = _write(tmp_path, "all.toml", COMBINED)
        batch = [
            [e.render() for e in api.extract(flows, config).extractions]
            for config in (own, combined)
        ]
        assert batch[0] == batch[1] and batch[0]
        streamed = [
            [e.render() for e in api.stream(csv, config).extractions]
            for config in (own, combined, tomllib.loads(COMBINED))
        ]
        assert streamed[0] == streamed[1] == streamed[2] == batch[0]

    def test_api_open_fleet(self, trace, tmp_path):
        flows, _, _ = trace
        ranked = []
        for name, text in (("own", BASE + FLEET), ("all", COMBINED)):
            with api.open_fleet(_write(tmp_path, f"{name}.toml", text)) as f:
                assert f.names == ("a", "b")
                f.feed(flows)
                f.finish()
                ranked.append([i.to_dict() for i in f.incidents()])
        assert ranked[0] == ranked[1] and ranked[0]

    def test_api_federate(self, trace, tmp_path):
        flows, _, _ = trace
        results = [
            api.federate(flows, _write(tmp_path, f"{name}.toml", text))
            for name, text in (("own", BASE + FEDERATION), ("all", COMBINED))
        ]
        assert results[0].sites == results[1].sites == ("east", "west")
        assert results[0].alarm_intervals() == results[1].alarm_intervals()
        assert [r.to_dict() for r in results[0].incidents] == [
            r.to_dict() for r in results[1].incidents
        ]
        assert results[0].incidents


# ----------------------------------------------------------------------
# (b) a mistake in any part is refused by every verb, naming the file
# ----------------------------------------------------------------------
MISTAKES = {
    "mining-typo": ("[mining]\nmin_suport = 3\n", "did you mean 'min_support'"),
    "fleet-typo": ("[fleet]\nstore_dri = 'x'\n", "did you mean 'store_dir'"),
    "service-typo": ("[service]\nprt = 1\n", "did you mean 'port'"),
    "federation-typo": (
        "[federation]\nsits = ['a']\n", "did you mean 'sites'"
    ),
    "port-type": ('[service]\nport = "x"\n', "port must be an integer"),
    "sync-type": (
        "[service]\ncheckpoint_sync = 8\n",
        "checkpoint_sync must be a boolean",
    ),
    "grace-type": (
        "[federation]\nstraggler_grace = true\n",
        "straggler_grace must be an integer",
    ),
    # Digests carry exact value counts: the count-min geometry is gone.
    "cm-width-removed": (
        "[federation]\ncm_width = 1024\n", "unknown key 'cm_width'"
    ),
    "cm-depth-removed": (
        "[federation]\ncm_depth = 4\n", "unknown key 'cm_depth'"
    ),
    "sites-type": (
        '[federation]\nsites = "a"\n', "sites must be a list of names"
    ),
    "pipeline-type": (
        "[fleet.pipelines.a.mining]\nmin_support = true\n",
        "[fleet.pipelines.a]: [mining] min_support must be int",
    ),
    # Numbers that parse but cannot score: refused at load, not one
    # interval into the run (or, for a NaN alarm level, never).
    "pseudocount-negative": (
        "[detector]\npseudocount = -1\n",
        "pseudocount must be finite and > 0: -1",
    ),
    "pseudocount-nan": (
        "[detector]\npseudocount = nan\n",
        "pseudocount must be finite and > 0: nan",
    ),
    "multiplier-nan": (
        "[detector]\nmultiplier = nan\n",
        "multiplier must be finite and > 0: nan",
    ),
    # No KL difference exists before the third interval to calibrate on.
    "training-too-short": (
        "[detector]\ntraining_intervals = 2\n",
        "need >= 3 training intervals: 2",
    ),
    # The parallel engine is gone: its table is refused, not ignored.
    "parallel-removed": (
        "[parallel]\njobs = 2\n", "unknown config section 'parallel'"
    ),
    "pipeline-parallel-removed": (
        "[fleet.pipelines.a.parallel]\njobs = 2\n",
        "[fleet.pipelines.a]: unknown config section 'parallel'",
    ),
}

CLI_VERBS = {
    "alarms-only": lambda t: ["extract", t[1], "--alarms-only"],
    "extract": lambda t: ["extract", t[1]],
    "extract-csv": lambda t: ["extract", t[2]],
    "fleet": lambda t: ["fleet", t[2]],
    "serve": lambda t: ["serve"],
    "collect": lambda t: [
        "federate", "collect", t[1], "--site", "s", "--out", "-",
    ],
    "merge": lambda t: ["federate", "merge", "absent.jsonl"],
    "incidents": lambda t: ["incidents", "absent.db"],
}

API_VERBS = {
    "resolve_config": lambda t, c: api.resolve_config(c),
    "session": lambda t, c: api.session(c),
    "extract": lambda t, c: api.extract(t[0], c),
    "stream": lambda t, c: api.stream(t[2], c),
    "open_fleet": lambda t, c: api.open_fleet(c),
    "serve": lambda t, c: api.serve(c),
    "federate": lambda t, c: api.federate(t[0], c),
}


@pytest.mark.parametrize("mistake", MISTAKES)
class TestEveryVerbRefusesEveryPart:
    @pytest.mark.parametrize("verb", CLI_VERBS)
    def test_cli(self, verb, mistake, trace, tmp_path, capsys):
        text, wording = MISTAKES[mistake]
        config = _write(tmp_path, "bad.toml", text)
        assert main([*CLI_VERBS[verb](trace), "--config", config]) == 2
        err = capsys.readouterr().err
        assert f"error: {config}: " in err
        assert wording in err

    @pytest.mark.parametrize("verb", API_VERBS)
    def test_api(self, verb, mistake, trace, tmp_path):
        text, wording = MISTAKES[mistake]
        config = _write(tmp_path, "bad.toml", text)
        with pytest.raises(ConfigError) as refusal:
            API_VERBS[verb](trace, config)
        assert str(refusal.value).startswith(f"{config}: ")
        assert wording in str(refusal.value)

    def test_mapping_config_is_refused_without_a_path(self, mistake, trace):
        text, wording = MISTAKES[mistake]
        with pytest.raises(ConfigError) as refusal:
            api.extract(trace[0], tomllib.loads(text))
        assert wording in str(refusal.value)
        assert ".toml" not in str(refusal.value)


# ----------------------------------------------------------------------
# (c) a path and its parsed mapping load alike
# ----------------------------------------------------------------------
def test_path_and_mapping_load_the_same(tmp_path):
    path = _write(tmp_path, "run.toml", COMBINED)
    from_path = RunConfig.load(path)
    from_data = RunConfig.load(tomllib.loads(COMBINED))
    assert from_path.path == path and from_data.path is None
    assert dataclasses.replace(from_path, path=None) == from_data
    assert from_path.service.checkpoint_every == 2
    assert from_path.federation.sites == ("east", "west")
    assert from_path.sets("fleet", "pipelines", "b", "mining", "min_support")
    assert not from_path.sets("streaming", "keep_extractions")
    # A ready config or None carries no tables and nothing "as written".
    bare = RunConfig.load(from_path.base)
    assert bare.base is from_path.base and not bare.sections
    assert RunConfig.load(None).fleet.pipelines == ()


def test_plain_extraction_config_still_refuses_run_tables(tmp_path):
    path = _write(tmp_path, "run.toml", COMBINED)
    with pytest.raises(ConfigError, match="open_fleet"):
        api.ExtractionConfig.from_toml(path)
    with pytest.raises(ConfigError, match="api.serve"):
        api.ExtractionConfig.from_dict({"service": {}})


# ----------------------------------------------------------------------
# (d) file -> typed flags / keyword overrides -> pipeline overrides
# ----------------------------------------------------------------------
LAYERED = """
[mining]
min_support = 300

[fleet.pipelines.a]

[fleet.pipelines.b.mining]
min_support = 150
"""


class TestLayeringOrder:
    def _supports(self, run: RunConfig) -> dict[str, int]:
        return {
            name: config.min_support
            for name, config in run.fleet.pipelines
        }

    def test_cli_flags(self, tmp_path):
        path = _write(tmp_path, "run.toml", LAYERED)
        parse = build_parser().parse_args
        plain = run_config(parse(["fleet", "-", "--config", path]))
        assert plain.base.min_support == 300
        assert self._supports(plain) == {"a": 300, "b": 150}
        flagged = run_config(parse(
            ["fleet", "-", "--config", path, "--min-support", "200"]
        ))
        assert flagged.base.min_support == 200
        assert self._supports(flagged) == {"a": 200, "b": 150}
        # Without --config an unset flag leaves the field default.
        assert run_config(parse(["fleet", "-"])).base.min_support == 5000

    def test_api_overrides(self, tmp_path):
        path = _write(tmp_path, "run.toml", LAYERED)
        assert self._supports(RunConfig.load(path, min_support=200)) == {
            "a": 200, "b": 150,
        }
        with api.open_fleet(path, min_support=200, route="dst_ip%2") as f:
            assert f.session("a").config.min_support == 200
            assert f.session("b").config.min_support == 150

    def test_a_flag_refusal_is_not_blamed_on_the_file(self, tmp_path):
        path = _write(tmp_path, "run.toml", LAYERED)
        with pytest.raises(ConfigError) as refusal:
            RunConfig.load(path, min_support=0)
        assert path not in str(refusal.value)


# ----------------------------------------------------------------------
# (e) the removed parallel and count-min knobs are refused by the
# strict readers
# ----------------------------------------------------------------------
#: Every verb that took a parallel or count-min flag, and the flags it
#: took.
REMOVED_FLAGS = [
    (verb, flag)
    for verb in ("alarms-only", "extract", "fleet", "serve")
    for flag in (["--jobs", "2"], ["--backend", "thread"])
] + [("extract", ["--partitions", "2"])] + [
    (verb, flag)
    for verb in ("collect", "merge")
    for flag in (["--cm-width", "512"], ["--cm-depth", "4"])
]


@pytest.mark.parametrize("verb, flag", REMOVED_FLAGS)
def test_removed_flag_exits_2(verb, flag, trace, capsys):
    # The parser alone: were a flag accepted again, main() would run the
    # verb (serve would bind a port and block) instead of failing here.
    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args([*CLI_VERBS[verb](trace), *flag])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert "Traceback" not in err


def test_too_short_training_flag_exits_2(trace, capsys):
    assert main(["extract", trace[1], "--training", "2"]) == 2
    err = capsys.readouterr().err
    assert "error: need >= 3 training intervals: 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("knob", ["jobs", "backend", "partitions"])
def test_removed_keyword_is_refused(knob, trace):
    with pytest.raises(ConfigError, match=f"unknown config field '{knob}'"):
        api.extract(trace[0], **{knob: 4})
