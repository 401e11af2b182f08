"""The CLI smoke checks, run in-process through ``repro.cli.main``.

Each test is one former CI smoke step, assertion for assertion: the
exit codes, the refusal wording and the absence of a traceback (a
traceback in-process is an exception escaping ``main``).
"""

from pathlib import Path

import pytest

import repro
from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def test_run_config_smoke(tmp_path, capsys):
    """``--version``; ``generate``; ``extract --config examples/run.toml``;
    an unknown key refused; an unknown miner refused with the hint."""
    with pytest.raises(SystemExit) as version:
        main(["--version"])
    assert version.value.code == 0
    assert repro.__version__ in capsys.readouterr().out

    trace = str(tmp_path / "config-smoke.npz")
    generate = [
        "generate", "--intervals", "6", "--flows-per-interval", "300",
        "--out", trace,
    ]
    assert main(generate) == 0
    run = str(EXAMPLES / "run.toml")
    assert main(
        ["extract", trace, "--config", run, "--training", "3", "--bins", "64"]
    ) == 0
    capsys.readouterr()

    # Unknown keys must fail with a hint, not a traceback.
    bad = tmp_path / "bad.toml"
    bad.write_text("[mining]\nmin_suport = 50\n")
    assert main(["extract", trace, "--config", str(bad)]) != 0
    capsys.readouterr()

    # An unknown miner is refused naming the closest one: exit 2, no
    # traceback.
    miner = tmp_path / "miner.toml"
    miner.write_text('[mining]\nminer = "aprioro"\n')
    assert main(["extract", trace, "--config", str(miner)]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'apriori'" in err
    assert "Traceback" not in err
