"""Kill-anywhere resume equivalence - the service's hard invariant.

A daemon checkpointed mid-stream, killed without warning (no flush, no
final checkpoint - ``FleetManager.close`` releases resources but emits
nothing), rebuilt from the durable checkpoint, and replayed from
``checkpointed_sequence`` must end with a merged incident ranking and
per-store report log *byte-identical* to an uninterrupted run over the
same stream.  Hypothesis drives the kill point across every chunk
boundary and the checkpoint cadence across 1-3 batches (cadence > 1
forces the resumed fleet to re-process already-covered intervals, which
is exactly what the session resume floor must absorb without
re-appending to the stores).  A third axis makes the *last* periodic
checkpoint before the kill fail (disk full on the rename): the batch
stays applied and acknowledged, the previous checkpoint stays the
newest, and the resume rolls back one cadence further.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet.manager import FleetManager
from repro.service.app import ServiceApp
from repro.service.checkpoint import read_checkpoint, restore_fleet

#: Mirrors conftest.N_CHUNKS (the test dir is not a package, so the
#: constant cannot be imported); the guard below keeps them in sync.
N_CHUNKS = 16


def build_fleet(config, store_dir):
    return FleetManager(
        {"linkA": config, "linkB": config},
        route="dst_ip%2",
        interval_seconds=10.0,
        store_dir=store_dir,
    )


def snapshot(fleet):
    """Everything resume must reproduce: the merged ranking plus each
    store's full report log, canonically serialized."""
    ranking = [entry.to_dict() for entry in fleet.incidents()]
    stores = {
        name: [
            report.to_json()
            for report in fleet.session(name).store.reports()
        ]
        for name in fleet.names
    }
    return json.dumps(
        {"ranking": ranking, "stores": stores}, sort_keys=True
    )


@pytest.fixture(scope="module")
def uninterrupted(service_config, service_chunks, tmp_path_factory):
    """The reference run: same stream, never killed, never finished
    (a daemon is perpetually mid-stream)."""
    fleet = build_fleet(
        service_config, tmp_path_factory.mktemp("baseline") / "stores"
    )
    try:
        for chunk in service_chunks:
            fleet.feed(chunk)
        return snapshot(fleet)
    finally:
        fleet.close()


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    kill_after=st.integers(min_value=1, max_value=N_CHUNKS - 1),
    checkpoint_every=st.integers(min_value=1, max_value=3),
    last_checkpoint_fails=st.booleans(),
)
def test_kill_then_resume_is_byte_identical(
    service_config, service_chunks, uninterrupted,
    kill_after, checkpoint_every, last_checkpoint_fails,
):
    assert len(service_chunks) == N_CHUNKS
    with tempfile.TemporaryDirectory() as tmp:
        stores = os.path.join(tmp, "stores")
        ckpt = os.path.join(tmp, "fleet.ckpt")

        # First life: ingest, checkpoint periodically, die abruptly.
        first = build_fleet(service_config, stores)
        app = ServiceApp(
            first, checkpoint_path=ckpt,
            checkpoint_every=checkpoint_every,
        )
        last_write = kill_after - kill_after % checkpoint_every
        disk_full = mock.patch(
            "repro.service.checkpoint.os.replace",
            side_effect=OSError(errno.ENOSPC, "No space left on device"),
        )
        try:
            for n, chunk in enumerate(service_chunks[:kill_after], 1):
                first.feed(chunk)
                with (
                    disk_full
                    if last_checkpoint_fails and n == last_write
                    else contextlib.nullcontext()
                ):
                    assert app.batch_accepted(len(chunk)) == n
            if last_checkpoint_fails and last_write:
                assert app.checkpointed_sequence == (
                    last_write - checkpoint_every
                )
                assert app.checkpoint_error is not None
        finally:
            first.close()  # kill -9: no flush, no final checkpoint
        assert not os.path.exists(ckpt + ".tmp")

        if not os.path.exists(ckpt):
            # Died before the first periodic checkpoint: cold start.
            # "Fresh" means fresh stores too - the re-ingest guard
            # would (correctly) refuse replaying interval 0 into
            # stores that already cover it.
            shutil.rmtree(stores, ignore_errors=True)
            replay_from = 0
            second = build_fleet(service_config, stores)
        else:
            second = build_fleet(service_config, stores)
            doc = read_checkpoint(ckpt)
            replay_from = restore_fleet(second, doc)
            assert replay_from <= kill_after

        try:
            # The client replays everything after the checkpointed
            # sequence; batches the daemon processed but never
            # checkpointed arrive again, and the resume floor must
            # swallow their store appends instead of refusing them.
            for chunk in service_chunks[replay_from:]:
                second.feed(chunk)
            assert snapshot(second) == uninterrupted
        finally:
            second.close()
