"""Checkpoint document mechanics: versioning, atomicity, validation."""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.fleet.manager import FleetManager
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    fleet_checkpoint,
    read_checkpoint,
    restore_fleet,
    write_checkpoint,
)
from repro.state import pack_array, unpack_array


@pytest.fixture()
def fed_fleet(service_config, service_chunks, tmp_path):
    """A two-link fleet mid-stream (half the chunks fed, still open)."""
    fleet = FleetManager(
        {"linkA": service_config, "linkB": service_config},
        route="dst_ip%2",
        interval_seconds=10.0,
        store_dir=tmp_path / "stores",
    )
    for chunk in service_chunks[:8]:
        fleet.feed(chunk)
    yield fleet
    fleet.close()


class TestDocument:
    def test_round_trip(self, fed_fleet, tmp_path):
        path = tmp_path / "fleet.ckpt"
        doc = fleet_checkpoint(fed_fleet, sequence=8)
        assert doc["version"] == CHECKPOINT_VERSION
        size = write_checkpoint(path, doc)
        assert size == path.stat().st_size
        loaded = read_checkpoint(path)
        assert loaded == json.loads(json.dumps(doc))
        assert loaded["sequence"] == 8

    def test_canonical_and_deterministic(self, fed_fleet, tmp_path):
        """Identical state serializes to byte-identical files - the
        property the resume-equivalence tests lean on."""
        doc = fleet_checkpoint(fed_fleet, sequence=3)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        write_checkpoint(a, doc)
        write_checkpoint(b, fleet_checkpoint(fed_fleet, sequence=3))
        assert a.read_bytes() == b.read_bytes()

    def test_sync_opt_in_controls_fsync(
        self, fed_fleet, tmp_path, monkeypatch
    ):
        """Default writes skip fsync (kill-safety only needs the
        atomic rename); sync=True forces it for power-loss setups."""
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            "repro.service.checkpoint.os.fsync",
            lambda fd: (calls.append(fd), real_fsync(fd))[1],
        )
        doc = fleet_checkpoint(fed_fleet, sequence=8)
        write_checkpoint(tmp_path / "plain.ckpt", doc)
        assert not calls
        write_checkpoint(tmp_path / "synced.ckpt", doc, sync=True)
        assert len(calls) == 1
        assert (
            (tmp_path / "plain.ckpt").read_bytes()
            == (tmp_path / "synced.ckpt").read_bytes()
        )

    def test_negative_sequence_rejected(self, fed_fleet):
        with pytest.raises(CheckpointError, match="sequence"):
            fleet_checkpoint(fed_fleet, sequence=-1)

    def test_unserializable_state_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="JSON-serializable"):
            write_checkpoint(tmp_path / "x.ckpt", {"version": 1,
                                                   "bad": object()})


class TestAtomicity:
    def test_no_temp_file_left_behind(self, fed_fleet, tmp_path):
        path = tmp_path / "fleet.ckpt"
        write_checkpoint(path, fleet_checkpoint(fed_fleet, sequence=1))
        assert os.listdir(tmp_path) == ["fleet.ckpt"] or sorted(
            os.listdir(tmp_path)
        ) == ["fleet.ckpt", "stores"]

    def test_failed_write_keeps_previous_checkpoint(
        self, fed_fleet, tmp_path
    ):
        path = tmp_path / "fleet.ckpt"
        doc = fleet_checkpoint(fed_fleet, sequence=1)
        write_checkpoint(path, doc)
        before = path.read_bytes()
        # A directory squatting on the temp name makes the staged
        # write fail before os.replace - the previous checkpoint must
        # survive untouched.
        os.mkdir(f"{path}.tmp")
        try:
            with pytest.raises(CheckpointError, match="cannot write"):
                write_checkpoint(path, fleet_checkpoint(fed_fleet, 2))
        finally:
            os.rmdir(f"{path}.tmp")
        assert path.read_bytes() == before

    def test_unwritable_target_raises(self, fed_fleet, tmp_path):
        with pytest.raises(CheckpointError, match="cannot write"):
            write_checkpoint(
                tmp_path / "missing" / "fleet.ckpt",
                fleet_checkpoint(fed_fleet, sequence=0),
            )


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "absent.ckpt")

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b'{"version": 1, "seq')
        with pytest.raises(CheckpointError, match="invalid JSON"):
            read_checkpoint(path)

    def test_non_object_payload(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="JSON object"):
            read_checkpoint(path)

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 6, "5", None])
    def test_schema_version_mismatch_rejected(self, tmp_path, version):
        """Any version other than CHECKPOINT_VERSION is refused up
        front - resume state is replayed into live detectors, and a
        silently migrated schema would corrupt the run."""
        path = tmp_path / "x.ckpt"
        path.write_text(json.dumps(
            {"version": version, "sequence": 0, "fleet": {}}
        ))
        refused = f"schema version {version!r} != {CHECKPOINT_VERSION}"
        with pytest.raises(CheckpointError, match=re.escape(refused)):
            read_checkpoint(path)

    @pytest.mark.parametrize("missing", ["sequence", "fleet"])
    def test_missing_keys_rejected(self, tmp_path, missing):
        doc = {"version": CHECKPOINT_VERSION, "sequence": 0, "fleet": {}}
        del doc[missing]
        path = tmp_path / "x.ckpt"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=missing):
            read_checkpoint(path)

    @pytest.mark.parametrize("sequence", [-1, 1.5, "3", True])
    def test_bad_sequence_rejected(self, tmp_path, sequence):
        path = tmp_path / "x.ckpt"
        path.write_text(json.dumps(
            {"version": CHECKPOINT_VERSION, "sequence": sequence,
             "fleet": {}}
        ))
        with pytest.raises(CheckpointError, match="sequence"):
            read_checkpoint(path)


class TestRestoreValidation:
    def test_pipeline_name_mismatch(
        self, fed_fleet, service_config, tmp_path
    ):
        doc = fleet_checkpoint(fed_fleet, sequence=4)
        other = FleetManager(
            {"east": service_config, "west": service_config},
            route="dst_ip%2",
            interval_seconds=10.0,
            store_dir=tmp_path / "other-stores",
        )
        try:
            with pytest.raises(CheckpointError, match="pipelines"):
                restore_fleet(other, doc)
        finally:
            other.close()

    def test_pipelines_need_not_be_declared_alphabetically(
        self, service_config, service_chunks, tmp_path
    ):
        """The canonical file sorts the ``pipelines`` object; the
        restore used to compare key *lists*, so a fleet declared
        ``west, east`` could never resume its own checkpoint."""

        def build():
            return FleetManager(
                {"west": service_config, "east": service_config},
                route="dst_ip%2",
                interval_seconds=10.0,
                store_dir=tmp_path / "stores",
            )

        path = tmp_path / "fleet.ckpt"
        first = build()
        try:
            for chunk in service_chunks[:5]:
                first.feed(chunk)
            write_checkpoint(path, fleet_checkpoint(first, sequence=5))
        finally:
            first.close()
        second = build()
        try:
            assert restore_fleet(second, read_checkpoint(path)) == 5
            write_checkpoint(
                tmp_path / "again.ckpt", fleet_checkpoint(second, 5)
            )
        finally:
            second.close()
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()

    def test_checkpoint_ahead_of_store_rejected(
        self, fed_fleet, service_config, tmp_path
    ):
        """A checkpoint whose cursor is past the store's actual marker
        belongs to *different* store files; restoring it would replay
        intervals the store never saw and duplicate reports later."""
        doc = fleet_checkpoint(fed_fleet, sequence=8)
        fresh = FleetManager(
            {"linkA": service_config, "linkB": service_config},
            route="dst_ip%2",
            interval_seconds=10.0,
            store_dir=tmp_path / "fresh-stores",
        )
        try:
            with pytest.raises(CheckpointError, match="store"):
                restore_fleet(fresh, doc)
        finally:
            fresh.close()

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_corrupt_reference_histogram_rejected(
        self, fed_fleet, service_config, tmp_path, bad
    ):
        """One packed array of the checkpoint file holds a NaN, a
        negative or inf: the restore refuses, naming the clone, instead
        of resuming into a run whose next interval fails inside the KL
        (for inf, after a numpy divide warning)."""
        doc = fleet_checkpoint(fed_fleet, sequence=8)
        detector = doc["fleet"]["pipelines"]["linkA"]["session"][
            "detectors"
        ]["detectors"]["dstPort"]
        counts = unpack_array(detector["prev"][2]).astype(np.float64)
        counts[3] = bad
        detector["prev"][2] = pack_array(counts)
        path = tmp_path / "corrupt.ckpt"
        write_checkpoint(path, doc)
        fresh = FleetManager(
            {"linkA": service_config, "linkB": service_config},
            route="dst_ip%2",
            interval_seconds=10.0,
            store_dir=tmp_path / "stores",
        )
        try:
            with pytest.raises(
                CheckpointError, match="clone 2 .*non-negative"
            ):
                restore_fleet(fresh, read_checkpoint(path))
        finally:
            fresh.close()
