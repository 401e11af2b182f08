"""Tests for the stable `repro.api` facade."""

import pytest

import repro.api as api

_DETECTOR = {"bins": 256, "training_intervals": 16}


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory, ddos_trace):
    from repro.flows import write_csv, write_npz

    tmp = tmp_path_factory.mktemp("api")
    npz, csv = tmp / "t.npz", tmp / "t.csv"
    write_npz(ddos_trace.flows, str(npz))
    write_csv(ddos_trace.flows, str(csv))
    return str(npz), str(csv)


class TestExtract:
    def test_matches_pipeline_class(self, ddos_trace):
        from repro import ExtractionConfig
        from repro.core.session import ExtractionSession, run_session

        config = ExtractionConfig(
            detector=_DETECTOR, min_support=300, features="paper"
        )
        with ExtractionSession(
            config, seed=1, interval_seconds=900.0,
        ) as session:
            expected = run_session(session, [ddos_trace.flows])
        got = api.extract(
            ddos_trace.flows,
            detector=_DETECTOR,
            min_support=300,
            seed=1,
            interval_seconds=900.0,
        )
        assert got.flagged_intervals == expected.flagged_intervals
        assert [e.render() for e in got.extractions] == [
            e.render() for e in expected.extractions
        ]

    def test_accepts_paths_via_reader_registry(self, trace_files):
        npz, csv = trace_files
        from_npz = api.extract(
            npz, detector=_DETECTOR, min_support=300, seed=1,
            interval_seconds=900.0,
        )
        from_csv = api.extract(
            csv, detector=_DETECTOR, min_support=300, seed=1,
            interval_seconds=900.0,
        )
        assert from_npz.flagged_intervals == from_csv.flagged_intervals
        assert 24 in from_npz.flagged_intervals

    def test_config_file_plus_overrides(self, trace_files, tmp_path):
        npz, _ = trace_files
        run = tmp_path / "run.toml"
        run.write_text(
            "[detector]\nbins = 256\ntraining_intervals = 16\n"
            "[mining]\nmin_support = 300\n"
        )
        base = api.extract(npz, config=str(run), seed=1,
                           interval_seconds=900.0)
        assert 24 in base.flagged_intervals
        # Flat overrides act like explicit CLI flags over the file.
        tightened = api.extract(
            npz, config=str(run), min_support=10_000, seed=1,
            interval_seconds=900.0,
        )
        for extraction in tightened.extractions:
            assert extraction.mining.min_support == 10_000

    def test_bad_config_type(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="config must be"):
            api.resolve_config(42)


class TestStream:
    def test_stream_matches_extract(self, trace_files, ddos_trace):
        _, csv = trace_files
        batch = api.extract(
            ddos_trace.flows, detector=_DETECTOR, min_support=300,
            seed=1, interval_seconds=900.0,
        )
        streamed = api.stream(
            csv, detector=_DETECTOR, min_support=300, seed=1,
            interval_seconds=900.0, chunk_rows=700,
        )
        assert streamed.flagged_intervals == batch.flagged_intervals
        assert streamed.extraction_count == len(batch.extractions)
        assert streamed.late_dropped == 0

    @pytest.mark.parametrize("name", ["T.CSV", "t.npz"])
    def test_stream_reads_every_cli_source(self, ddos_trace, tmp_path, name):
        """``api.stream`` reads a path the way ``repro extract`` does:
        any case of ``.csv`` chunked, a ``.npz`` fed interval by
        interval."""
        from repro.flows import write_csv, write_npz

        path = tmp_path / name
        write = write_npz if name.endswith(".npz") else write_csv
        write(ddos_trace.flows, str(path))
        knobs = {"detector": _DETECTOR, "min_support": 300, "seed": 1}
        batch = api.extract(ddos_trace.flows, **knobs)
        streamed = api.stream(str(path), chunk_rows=700, **knobs)
        assert streamed.flagged_intervals == batch.flagged_intervals
        assert [e.render() for e in streamed.extractions] == [
            e.render() for e in batch.extractions
        ]

    def test_stream_refuses_unknown_formats(self, tmp_path):
        from repro.errors import TraceFormatError

        path = tmp_path / "t.pcap"
        path.write_text("x")
        with pytest.raises(TraceFormatError, match="unknown trace format"):
            api.stream(str(path), store_path=str(tmp_path / "s.db"))
        # Refused before the session opened its store.
        assert not (tmp_path / "s.db").exists()

    def test_stream_accepts_chunk_iterables(self, ddos_trace):
        chunks = [ddos_trace.flows]
        result = api.stream(
            chunks, detector=_DETECTOR, min_support=300, seed=1,
            interval_seconds=900.0,
        )
        assert 24 in result.flagged_intervals


class TestStoreAndRank:
    def test_extract_store_rank_workflow(self, trace_files, tmp_path):
        npz, _ = trace_files
        db = str(tmp_path / "incidents.db")
        api.extract(
            npz, detector=_DETECTOR, min_support=300, seed=1,
            interval_seconds=900.0, store_path=db,
        )
        ranked = api.rank(db)
        assert ranked
        assert ranked[0].score >= ranked[-1].score
        top = api.rank(db, top=1)
        assert len(top) == 1

    def test_rank_accepts_open_store(self, trace_files, tmp_path):
        npz, _ = trace_files
        db = str(tmp_path / "incidents2.db")
        api.extract(
            npz, detector=_DETECTOR, min_support=300, seed=1,
            interval_seconds=900.0, store_path=db,
        )
        with api.open_store(db, must_exist=True) as store:
            assert api.rank(store)

    def test_open_store_missing(self, tmp_path):
        from repro.errors import IncidentError

        with pytest.raises(IncidentError):
            api.open_store(str(tmp_path / "nope.db"), must_exist=True)


class TestCuratedSurface:
    def test_registries_reachable(self):
        assert "apriori" in api.miners
        assert "paper" in api.feature_sets
        assert ".csv" in api.readers
        assert "hash" in api.routers
