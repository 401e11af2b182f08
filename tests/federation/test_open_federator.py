"""``open_federator``: the one place a run config becomes a Federator."""

from __future__ import annotations

import dataclasses

import pytest

import repro.api as api
from repro.core.config import RunConfig
from repro.errors import ConfigError, IncidentError
from repro.federation.tier import open_federator
from repro.incidents.store import IncidentStore


def _run(**federation) -> RunConfig:
    return RunConfig.load({
        "detector": {"bins": 128, "training_intervals": 4},
        "mining": {"min_support": 300},
        "incidents": {"jaccard": 0.8},
        "federation": {"sites": ["east", "west"], **federation},
    })


def test_mining_min_support_does_not_reach_the_federator():
    """``[federation] min_support`` is its own key: a run config with
    ``[mining] min_support = 300`` and no federation floor federates at
    the table's own 5,000, whichever verb builds it."""
    run = _run()
    assert run.base.min_support == 300
    assert run.federation.min_support == 5_000
    with open_federator(run.base, run.federation) as federator:
        assert federator.min_support == 5_000
    empty = api.FlowTable.empty()
    result = api.federate({"east": empty, "west": empty}, run.sections)
    assert result.sites == ("east", "west")


def test_table_then_keyword_decide_each_knob():
    run = _run(min_support=70, straggler_grace=3)
    with open_federator(run.base, run.federation) as federator:
        assert federator.sites == ("east", "west")
        assert federator.min_support == 70
        assert federator.straggler_grace == 3
        assert federator.schema.bins == 128  # the base detector geometry
        assert federator.store.jaccard == 0.8  # the base [incidents] knobs
    settings = dataclasses.replace(
        run.federation, min_support=9, straggler_grace=1
    )
    with open_federator(
        run.base, settings, sites=["solo"], seed=4
    ) as federator:
        assert federator.sites == ("solo",)
        assert federator.min_support == 9
        assert federator.straggler_grace == 1
        assert federator.schema.seed == 4


@pytest.mark.parametrize("knob", ["cm_width", "cm_depth"])
def test_removed_count_min_knobs_are_refused(knob):
    """Digests carry exact value counts, so the count-min geometry is
    gone from ``[federation]``: the strict reader names the key."""
    with pytest.raises(ConfigError, match=f"unknown key '{knob}'"):
        _run(**{knob: 512})
    with pytest.raises(TypeError, match=knob):
        open_federator(_run().base, _run().federation, **{knob: 512})
    empty = api.FlowTable.empty()
    with pytest.raises(ConfigError, match=f"unknown config field '{knob}'"):
        api.federate({"east": empty}, **{knob: 512})


def test_a_path_store_is_opened_and_closed_here(tmp_path):
    path = tmp_path / "fed.db"
    run = _run(store_path=str(path))
    with open_federator(run.base, run.federation) as federator:
        store = federator._extractor.sink
        assert isinstance(store, IncidentStore) and store.path == str(path)
        assert store.reports() == []  # open
    assert path.exists()
    with pytest.raises(IncidentError, match="closed"):
        store.reports()


def test_an_open_store_stays_the_callers(tmp_path):
    run = _run(store_path=str(tmp_path / "unused.db"))
    with IncidentStore(":memory:") as mine:
        with open_federator(
            run.base, run.federation, store=mine
        ) as federator:
            assert federator._extractor.sink is mine
        assert mine.reports() == []  # still open
    assert not (tmp_path / "unused.db").exists()
