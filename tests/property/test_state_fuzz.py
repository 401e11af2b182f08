"""One-leaf mutation fuzz of every plain-data state edge.

Three documents cross a boundary this build did not necessarily write:
the service checkpoint (``read_checkpoint`` -> ``restore_fleet`` ->
``Federator.from_state``), a collector's digest line
(``IntervalDigest.from_json``) and a stored report row
(``IncidentStore`` reads).  One detector's state is also swept on its
own, mid-training and calibrated, so each leaf of the per-clone state
(``prev`` counts, ``prev_kl``, ``training_diffs``, ``thresholds``) is
hit in both phases.  For each, every scalar leaf is replaced, one
at a time, by every value of :data:`ALPHABET` (exhaustively - the run
is deterministic) and by leaves hypothesis draws.  A mutation must end

* in the boundary's single typed error, or
* in an object that holds the mutated leaf *as the document said it*
  (no ``true`` read as ``1``, no ``0.5`` as an index, no string as a
  number, no ``NaN`` / ``inf`` anywhere, no negative counter), whose
  own ``to_state()`` restores to identical bytes, and whose next
  interval raises nothing outside ``ReproError``.

Anything else - a raw ``TypeError``, a foreign error type, a silently
altered value - fails the test naming the leaf.  The fixed-point half
(``state -> bytes -> state -> bytes``) is also asserted once per
stateful class on unmutated state, in place of per-class round-trip
tests.
"""

from __future__ import annotations

import copy
import json
import math
import sqlite3
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import resolve_config
from repro.core.report import ExtractionReport, TriagedItemset
from repro.core.session import ExtractionSession
from repro.detection.detector import DetectorConfig, HistogramDetector
from repro.detection.features import Feature
from repro.detection.manager import DetectorBank
from repro.errors import (
    CheckpointError,
    FederationError,
    IncidentError,
    ReproError,
)
from repro.federation import Collector, Federator
from repro.federation.digest import DigestSchema, IntervalDigest
from repro.fleet.manager import FleetManager
from repro.flows.table import FlowTable
from repro.incidents.store import IncidentStore
from repro.mining.streaming import SlidingWindowMiner
from repro.service.checkpoint import (
    fleet_checkpoint,
    read_checkpoint,
    restore_fleet,
)
from repro.state import canonical_json, unpack_array
from repro.streaming.assembler import IntervalAssembler

#: The eight replacement leaves.  ``inf`` is what the JSON text
#: ``1e400`` parses to; ``-1`` doubles as the negative counter.
ALPHABET = ("x", None, -1, float("nan"), [], {}, float("inf"), True)

#: Arbitrary JSON leaves for the hypothesis pass.  Integers stay near
#: the document's own or go far past every cursor: an interval index in
#: the 10^3..10^5 band is *legal* and merely slow (the federator
#: releases that many empty intervals before it catches up).
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=2**31, max_value=2**70).map(
        lambda n: n if n % 2 else -n
    ),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(["<f8", "<u8", "|u1", "AAAA", "stream", "1"]),
    st.just([]),
    st.just({}),
)

def minus_one_is_legal(path) -> bool:
    """The integer fields where ``-1`` means "none yet": the two
    high-water marks and a detector's interval cursor.  Everything
    else that holds an integer is a counter or an index."""
    return path[-1] in ("highest_seen", "max_seen") or (
        path[-1] == "interval" and "detectors" in path[-3:]
    )


#: Fields a reader recomputes instead of holding: the rendering of an
#: item-set, and the store marker (read back from the attached store).
DERIVED = ("rendered", "store_last_interval")

INTERVAL_SECONDS = 10.0
ROWS = 160
N_CHUNKS = 6
ATTACKS = frozenset({3, 4})
SITES = ("east", "west")
FEATURES = ("dstPort",)
DETECTOR = DetectorConfig(
    training_intervals=3, vote_threshold=2, clones=2, bins=64
)


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def make_chunk(rng: np.random.Generator, index: int) -> FlowTable:
    """One interval of noise; in an attack interval half the flows
    come from one source to one port."""
    n, t0 = ROWS, INTERVAL_SECONDS * index
    src = rng.integers(0, 2**32, n, dtype=np.uint64)
    dport = rng.integers(0, 65536, n, dtype=np.uint64)
    if index in ATTACKS:
        src[: n // 2] = 123456789
        dport[: n // 2] = 1433
    return FlowTable({
        "start": np.sort(rng.uniform(t0, t0 + INTERVAL_SECONDS, n)),
        "src_ip": src,
        "dst_ip": rng.integers(0, 2**32, n, dtype=np.uint64),
        "src_port": rng.integers(0, 65536, n, dtype=np.uint64),
        "dst_port": dport,
        "protocol": np.full(n, 6, dtype=np.uint64),
        "packets": rng.integers(1, 100, n, dtype=np.uint64),
        "bytes": rng.integers(40, 1500, n, dtype=np.uint64),
        "label": np.zeros(n, dtype=np.uint64),
    })


@pytest.fixture(scope="module")
def chunks():
    rng = np.random.default_rng(11)
    return [make_chunk(rng, i) for i in range(N_CHUNKS)]


@pytest.fixture(scope="module")
def config():
    return resolve_config(
        None,
        min_support=30,
        window_intervals=3,
        features=FEATURES,
        detector=DETECTOR,
    )


@pytest.fixture(scope="module")
def wires(chunks):
    """Each site's digest lines: the stream split by ``dst_ip % 2``."""
    lines = {}
    for k, site in enumerate(SITES):
        collector = Collector(
            site, config=DETECTOR, features=FEATURES, seed=0
        )
        lines[site] = [
            collector.summarize(
                chunk.select(chunk.dst_ip % 2 == k), i
            ).to_json()
            for i, chunk in enumerate(chunks)
        ]
    return lines


def build_fleet(config, store_dir) -> FleetManager:
    return FleetManager(
        {"linkA": config, "linkB": config},
        route="dst_ip%2",
        interval_seconds=INTERVAL_SECONDS,
        store_dir=store_dir,
    )


def build_federator() -> Federator:
    return Federator(
        SITES, config=DETECTOR, features=FEATURES, seed=0,
        interval_seconds=INTERVAL_SECONDS, min_support=30,
    )


def json_round_trip(doc):
    return json.loads(canonical_json(doc))


# ----------------------------------------------------------------------
# Mutation mechanics
# ----------------------------------------------------------------------
def leaf_paths(doc, path=()):
    """Paths of every scalar (and empty container) in ``doc``."""
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from leaf_paths(value, (*path, key))
    elif isinstance(doc, list) and doc:
        for index, value in enumerate(doc):
            yield from leaf_paths(value, (*path, index))
    else:
        yield path


def get_at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@contextmanager
def mutated(doc, path, value):
    """``doc`` with the leaf at ``path`` replaced, for the block."""
    parent, original = get_at(doc, path[:-1]), get_at(doc, path)
    parent[path[-1]] = copy.deepcopy(value)
    try:
        yield doc
    finally:
        parent[path[-1]] = original


def same_leaf(a, b) -> bool:
    """Identical JSON leaves: same type, same value (NaN is itself)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def dotted(path) -> str:
    return ".".join(str(step) for step in path)


def coercion(doc, path, value, held_doc) -> str | None:
    """How an *accepted* mutation was altered on the way in, or
    ``None``: ``held_doc`` is the accepting object's own state
    document, and it must hold the leaf as the mutated document said."""
    if any(step in DERIVED for step in path):
        return None
    if isinstance(value, float) and not math.isfinite(value):
        return f"non-finite {value!r} accepted"
    if (
        type(value) is int
        and type(get_at(doc, path)) is int
        and value < 0
        and not (value == -1 and minus_one_is_legal(path))
    ):
        return f"negative {value} accepted into a counter"
    try:
        held = get_at(held_doc, path)
    except (KeyError, IndexError, TypeError):
        return f"{value!r} accepted, then dropped"
    if same_leaf(held, value):
        return None
    if type(value) is int and type(held) is float and held == value:
        return None  # an integer where a float is read: widened
    if path[-1] in ("dtype", "data"):
        # A packed array is held re-encoded (narrowed to its values):
        # what must survive is the array the document described.
        said = unpack_array({**get_at(doc, path[:-1]), path[-1]: value})
        if np.array_equal(said, unpack_array(get_at(held_doc, path[:-1]))):
            return None
    return f"{value!r} accepted but held as {held!r}"


class Boundary:
    """One state edge: how a document is restored, what the restored
    object says its state is, and how it is driven one more step."""

    error: type[ReproError]

    def __init__(self):
        #: Outcome -> count, over every mutation tried.
        self.tally = Counter()

    def restore(self, doc):
        """The live object ``doc`` restores to (raises ``error``)."""
        raise NotImplementedError

    def state_of(self, live):
        raise NotImplementedError

    def advance(self, live) -> None:
        """One more interval through ``live``."""

    def release(self, live) -> None:
        """Free whatever ``restore`` opened."""

    def outcome(self, doc, path, value) -> str:
        """Apply one mutation: ``no-op`` / ``refused`` / ``accepted``,
        or a failure worded ``<kind>: <leaf>=<value>: <what>``."""
        if same_leaf(get_at(doc, path), value):
            return "no-op"
        try:
            with mutated(doc, path, value) as mutation:
                live = self.restore(mutation)
        except self.error:
            return "refused"
        except ReproError as exc:
            return f"foreign: {type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - the point of the fuzz
            return f"raw: {type(exc).__name__}: {exc}"
        try:
            held = json_round_trip(self.state_of(live))
            altered = coercion(doc, path, value, held)
            if altered is not None:
                return f"coerced: {altered}"
            again = self.restore(held)
            try:
                if canonical_json(self.state_of(again)) != canonical_json(
                    held
                ):
                    return "unstable: to_state() is not a fixed point"
            finally:
                self.release(again)
            try:
                self.advance(live)
            except ReproError:
                pass
            return "accepted"
        except Exception as exc:  # noqa: BLE001
            return f"raw: accepted, then {type(exc).__name__}: {exc}"
        finally:
            self.release(live)

    def check(self, doc, path, value) -> str | None:
        """The failure of one mutation (naming the leaf), or ``None``."""
        result = self.outcome(doc, path, value)
        self.tally[result.split(":")[0]] += 1
        if ":" not in result:
            return None
        return f"{dotted(path)}={value!r} {result}"

    def sweep(self, doc) -> list[str]:
        """Every leaf x every alphabet value; the failures."""
        return [
            failure
            for path in leaf_paths(doc)
            for value in ALPHABET
            if (failure := self.check(doc, path, value)) is not None
        ]


# ----------------------------------------------------------------------
# (a) the checkpoint document
# ----------------------------------------------------------------------
class CheckpointBoundary(Boundary):
    error = CheckpointError

    def __init__(self, config, tmp, chunks, wires):
        super().__init__()
        self.config = config
        self.stores = tmp / "stores"
        self.path = tmp / "fuzz.ckpt"
        self.next_chunk = chunks[-1]
        self.next_lines = [wires[site][-1] for site in SITES]

    def restore(self, doc):
        # Through the file, as the daemon reads it (json.dumps spells
        # the non-finite leaves NaN / Infinity; json.loads reads them).
        self.path.write_text(json.dumps(doc))
        fleet = build_fleet(self.config, self.stores)
        try:
            loaded = read_checkpoint(self.path)
            sequence = restore_fleet(fleet, loaded)
            federator = build_federator()
            federator.from_state(loaded.get("federation"))
        except BaseException:
            fleet.close()
            raise
        return fleet, federator, sequence

    def state_of(self, live):
        fleet, federator, sequence = live
        return fleet_checkpoint(
            fleet, sequence, federation=federator.to_state()
        )

    def advance(self, live) -> None:
        fleet, federator, _ = live
        fleet.feed(self.next_chunk)
        for line in self.next_lines:
            federator.add(IntervalDigest.from_json(line))

    def release(self, live) -> None:
        live[0].close()


@pytest.fixture(scope="module")
def checkpoint_case(config, chunks, wires, tmp_path_factory):
    """A 2-pipeline, windowed, federated daemon stopped mid-stream:
    the last fed interval is still pending in the assemblers, west's
    digest of it is still missing (east's is buffered), and both tiers
    hold reports.  Also returns the federation store's first report
    document (the checkpoint carries none)."""
    tmp = tmp_path_factory.mktemp("fuzz")
    boundary = CheckpointBoundary(config, tmp, chunks, wires)
    fleet = build_fleet(config, boundary.stores)
    federator = build_federator()
    try:
        for chunk in chunks[:-1]:
            fleet.feed(chunk)
        for i in range(N_CHUNKS - 1):
            for site in SITES[: 1 if i == N_CHUNKS - 2 else 2]:
                federator.add(IntervalDigest.from_json(wires[site][i]))
        doc = json_round_trip(
            fleet_checkpoint(fleet, 5, federation=federator.to_state())
        )
        reports = [report.to_dict() for report in federator.reports]
    finally:
        fleet.close()
    session = doc["fleet"]["pipelines"]["linkA"]["session"]
    assert session["assembler"]["pending"], "no pending chunk"
    assert session["window_miner"]["batches"], "no window batches"
    assert doc["federation"]["pending"], "no buffered digest"
    assert reports, "no federated report"
    # Detector state holds reference counts only; an observed set rides
    # the checkpoint only inside a buffered digest.
    for state in (doc["fleet"], doc["federation"]["bank"]):
        text = canonical_json(state)
        for dropped in ('"observed"', '"kl_series"', '"diff_series"'):
            assert dropped not in text
    return boundary, doc, json_round_trip(reports[0])


def test_checkpoint_document_sweep(checkpoint_case):
    boundary, doc, _ = checkpoint_case
    assert boundary.check(doc, ("sequence",), 5) is None  # the no-op
    failures = boundary.sweep(doc)
    assert not failures, "\n".join(failures)


@settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_checkpoint_document_arbitrary_leaves(checkpoint_case, data):
    boundary, doc, _ = checkpoint_case
    path = data.draw(st.sampled_from(sorted(leaf_paths(doc), key=dotted)))
    failure = boundary.check(doc, path, data.draw(LEAVES))
    assert failure is None, failure


# ----------------------------------------------------------------------
# (b) one collector digest line
# ----------------------------------------------------------------------
class DigestBoundary(Boundary):
    error = FederationError

    def restore(self, doc):
        return IntervalDigest.from_json(json.dumps(doc))

    def state_of(self, live):
        return live.to_dict()

    def advance(self, live) -> None:
        build_federator().add(live)


@pytest.fixture(scope="module")
def digest_doc(wires):
    return json.loads(wires["east"][0])


def test_digest_line_sweep(digest_doc):
    failures = DigestBoundary().sweep(digest_doc)
    assert not failures, "\n".join(failures)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_digest_line_arbitrary_leaves(digest_doc, data):
    path = data.draw(
        st.sampled_from(sorted(leaf_paths(digest_doc), key=dotted))
    )
    failure = DigestBoundary().check(digest_doc, path, data.draw(LEAVES))
    assert failure is None, failure


def test_digest_sweep_covers_every_feature_leaf(digest_doc):
    """The feature document is the observed values and their counts:
    the sweep mutates each leaf of both, and nothing else is left in
    it (no clone histograms, no count-min)."""
    leaves = {dotted(path) for path in leaf_paths(digest_doc)}
    feature = f"features.{FEATURES[0]}"
    assert {
        leaf for leaf in leaves if leaf.startswith(f"{feature}.")
    } == {
        f"{feature}.{array}.{part}"
        for array in ("observed", "counts")
        for part in ("dtype", "data")
    }


# ----------------------------------------------------------------------
# (c) one detector's state, in training and calibrated
# ----------------------------------------------------------------------
class DetectorStateBoundary(Boundary):
    error = CheckpointError

    def __init__(self, config, next_chunk):
        super().__init__()
        self.config = config
        self.next_chunk = next_chunk

    def restore(self, doc):
        detector = HistogramDetector(Feature.DST_PORT, self.config, seed=1)
        detector.from_state(doc)
        return detector

    def state_of(self, live):
        return live.to_state()

    def advance(self, live) -> None:
        live.observe(self.next_chunk)


#: Five training intervals: four fed chunks leave two diffs per clone.
TRAINING = DetectorConfig(
    training_intervals=5, vote_threshold=2, clones=2, bins=64
)


@pytest.fixture(scope="module", params=["training", "calibrated"])
def detector_case(request, chunks):
    config = TRAINING if request.param == "training" else DETECTOR
    detector = HistogramDetector(Feature.DST_PORT, config, seed=1)
    for chunk in chunks[:4]:
        detector.observe(chunk)
    doc = json_round_trip(detector.to_state())
    assert set(doc) == {
        "interval", "prev", "prev_kl", "training_diffs", "thresholds",
    }
    if request.param == "training":
        assert [len(d) for d in doc["training_diffs"]] == [2, 2]
    else:
        assert doc["training_diffs"] == [[], []]
    return DetectorStateBoundary(config, chunks[4]), doc


def test_detector_state_sweep(detector_case):
    boundary, doc = detector_case
    failures = boundary.sweep(doc)
    assert not failures, "\n".join(failures)
    assert boundary.tally["refused"] > 0


# ----------------------------------------------------------------------
# (d) one stored report row
# ----------------------------------------------------------------------
class StoreRowBoundary(Boundary):
    error = IncidentError

    def __init__(self, path):
        super().__init__()
        self.path = str(path)

    def restore(self, doc):
        with sqlite3.connect(self.path) as conn:
            conn.execute("UPDATE reports SET json = ?", (json.dumps(doc),))
        conn.close()
        with IncidentStore(self.path) as store:
            (report,) = store.reports()
            assert list(store.iter_reports()) == [report]
        return report

    def state_of(self, live):
        return live.to_dict()


@pytest.fixture(scope="module")
def row_case(checkpoint_case, tmp_path_factory):
    _, _, report_doc = checkpoint_case
    report = ExtractionReport.from_dict(report_doc)
    path = tmp_path_factory.mktemp("row") / "row.db"
    with IncidentStore(str(path)) as store:
        store.append(report)
    return StoreRowBoundary(path), json.loads(report.to_json())


def test_report_row_sweep(row_case):
    boundary, doc = row_case
    failures = boundary.sweep(doc)
    assert not failures, "\n".join(failures)


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_report_row_arbitrary_leaves(row_case, data):
    boundary, doc = row_case
    path = data.draw(st.sampled_from(sorted(leaf_paths(doc), key=dotted)))
    failure = boundary.check(doc, path, data.draw(LEAVES))
    assert failure is None, failure


# ----------------------------------------------------------------------
# state -> bytes -> state -> bytes, once per stateful class
# ----------------------------------------------------------------------
def _session(config):
    return ExtractionSession(config, interval_seconds=INTERVAL_SECONDS)


def _detector():
    return HistogramDetector(Feature.DST_PORT, DETECTOR, seed=1)


def _bank():
    return DetectorBank(DETECTOR, features=FEATURES, seed=1)


def _assembler():
    return IntervalAssembler(INTERVAL_SECONDS, max_delay_seconds=5.0)


def _miner():
    return SlidingWindowMiner(window=3, min_support=30)


def _fed(live, chunks, wires):
    """Drive ``live`` to a mid-stream state (in place)."""
    if isinstance(live, (HistogramDetector, DetectorBank)):
        for chunk in chunks[:5]:
            live.observe(chunk)
    elif isinstance(live, (SlidingWindowMiner, IntervalAssembler)):
        for chunk in chunks[:4]:
            live.push(chunk)
    elif isinstance(live, Federator):
        for i in range(5):
            for site in SITES[: 1 if i == 4 else 2]:
                live.add(IntervalDigest.from_json(wires[site][i]))
    else:  # sessions and fleets
        for chunk in chunks[:5]:
            live.feed(chunk)
    return live


STATEFUL = {
    "ExtractionSession": lambda config, tmp: _session(config),
    "HistogramDetector": lambda config, tmp: _detector(),
    "DetectorBank": lambda config, tmp: _bank(),
    "Federator": lambda config, tmp: build_federator(),
    "FleetManager": lambda config, tmp: build_fleet(config, tmp / "s"),
    "SlidingWindowMiner": lambda config, tmp: _miner(),
    "IntervalAssembler": lambda config, tmp: _assembler(),
}


@pytest.mark.parametrize("name", sorted(STATEFUL))
def test_from_state_is_a_fixed_point(
    name, config, chunks, wires, tmp_path
):
    build = STATEFUL[name]
    live = _fed(build(config, tmp_path), chunks, wires)
    first = canonical_json(live.to_state())
    restored = build(config, tmp_path)
    restored.from_state(json.loads(first))
    second = canonical_json(restored.to_state())
    assert second == first
    for closable in (live, restored):
        if hasattr(closable, "close"):
            closable.close()


def _documents(checkpoint_case, digest_doc):
    """One real document per ``from_dict`` / classmethod decoder."""
    _, doc, report = checkpoint_case
    pending = doc["fleet"]["pipelines"]["linkA"]["session"]["assembler"]
    return {
        DigestSchema: (digest_doc["schema"], DigestSchema.to_dict),
        IntervalDigest: (digest_doc, IntervalDigest.to_dict),
        TriagedItemset: (report["itemsets"][0], TriagedItemset.to_dict),
        ExtractionReport: (report, ExtractionReport.to_dict),
        FlowTable: (pending["pending"][0][1][0], FlowTable.to_state),
    }


@pytest.mark.parametrize(
    "cls",
    [
        DigestSchema, IntervalDigest, TriagedItemset, ExtractionReport,
        FlowTable,
    ],
    ids=lambda cls: cls.__name__,
)
def test_from_dict_is_a_fixed_point(cls, checkpoint_case, digest_doc):
    doc, render = _documents(checkpoint_case, digest_doc)[cls]
    decode = getattr(cls, "from_dict", None) or cls.from_state
    first = canonical_json(render(decode(doc)))
    assert first == canonical_json(doc)
    assert canonical_json(render(decode(json.loads(first)))) == first
