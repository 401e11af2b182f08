"""The five ledger workloads: inputs, the timed run, the oracle, the replay.

Every workload offers the same four steps to the harness:

* ``setup(seed, scale, workdir)`` - generate the inputs from the seed
  (the program only ever sees generated inputs);
* ``run(inputs, rundir, metrics=None, tracer=None)`` - one untraced
  repetition through the public verbs, construction to final ranking,
  returning per-op latencies and the program's output;
* ``verify(inputs, output, rundir)`` - the oracle: compare the output
  with an independent path (the repo's equivalence contracts, not
  golden files) and return one message per mismatch;
* ``replay(inputs, output, rundir, log, counts)`` - the traced run:
  replay the same inputs through each layer's public functions with
  the harness's own spans, and return one message per disagreement
  between the replay and the program.

Sizes are the largest that keep one invocation (set-up x3, a warm-up,
``--seconds`` of repetitions, the oracle) near 20 s on 2 cores; the
README records what that cap cost against the issue's sizing.
"""

import contextlib
import io
import json
import os
import time
from types import SimpleNamespace

import numpy as np

import repro.api as api
from repro.core.prefilter import prefilter
from repro.detection.detector import clone_seed
from repro.detection.features import Feature
from repro.detection.manager import DetectorBank
from repro.detection.metadata import Metadata
from repro.federation import split_trace
from repro.federation.digest import (
    DEFAULT_CM_DEPTH,
    DEFAULT_CM_WIDTH,
    countmin_seed,
)
from repro.flows.io import iter_csv_handle, write_csv
from repro.flows.stream import iter_intervals
from repro.mining import TransactionSet
from repro.obs.instruments import STAGES, catalogued
from repro.service.app import ServiceApp
from repro.service.checkpoint import read_checkpoint, restore_fleet
from repro.service.protocol import HttpRequest
from repro.sketch.cloning import CloneSet
from repro.sketch.countmin import CountMinSketch
from repro.streaming.assembler import IntervalAssembler
from repro.traffic.generator import TraceGenerator
from repro.traffic.profiles import switch_like
from repro.traffic.scenarios import (
    table2_interval,
    two_week_trace,
    worm_outbreak_trace,
)

INTERVAL = 900.0
#: Detector hash seed: program configuration, not workload input, so
#: ``--seed`` does not move it.
DETECTOR_SEED = 1
#: Rows per streamed chunk and per POST body (the
#: ``bench_service_ingest`` shape), shared so ``csv_stream`` and
#: ``service_http`` differ only by the request plumbing.
CHUNK_ROWS = 2048
#: The worm workloads: the ``bench_service_ingest`` shape (24 intervals
#: x 20k flows, outbreak past the 16-interval training horizon).
WORM_INTERVALS = 24
WORM_OUTBREAK = 20
WORM_TRAINING = 16


def new_obs():
    """A live metrics registry and tracer for the obs-enabled run."""
    return api.metrics(), api.tracer()


def stage_seconds(registry):
    """``repro_stage_seconds`` sums by stage, over every pipeline."""
    totals = dict.fromkeys(STAGES, 0.0)
    family = catalogued(registry, "repro_stage_seconds")
    for (_pipeline, stage), child in family.samples():
        totals[stage] += child.sum
    return totals


class Ops:
    """The ops of one repetition: latency (seconds), whether the op
    returned an extraction, and when it ended - in op order, which is
    the same in every repetition of a workload."""

    def __init__(self):
        self.latencies = []
        self.alarmed = []
        self.ended = []
        self.failed = 0

    def add(self, seconds, alarmed=False, failed=False):
        self.ended.append(time.perf_counter())
        self.latencies.append(seconds)
        self.alarmed.append(alarmed)
        if failed:
            self.failed += 1


def _detector(bins, training):
    return api.DetectorConfig(
        clones=3, bins=bins, vote_threshold=3, training_intervals=training
    )


def _signature(extractions):
    """What the equivalence contracts compare: interval, item-sets,
    supports."""
    return [
        (e.interval, [(s.items, s.support) for s in e.itemsets])
        for e in extractions
    ]


def _worm(seed, scale):
    return worm_outbreak_trace(
        flows_per_interval=max(1250, round(20_000 * scale)),
        seed=seed,
        n_intervals=WORM_INTERVALS,
        outbreak_interval=WORM_OUTBREAK,
    )


def _worm_config(scale):
    return api.ExtractionConfig(
        detector=_detector(256, WORM_TRAINING),
        min_support=max(20, round(500 * scale)),
    )


class PipelineReplay:
    """One pipeline's per-interval work, replayed layer by layer.

    Mirrors what a stream-mode session does with a chunk - assemble,
    observe, and on alarm prefilter, encode, mine, build the report,
    append it - through the layers' public functions, each inside a
    span.  Next to the whole ``DetectorBank.observe`` call it replays
    the same interval split into ``CloneSet`` updates and
    ``observe_snapshots`` (under an ``attribution`` span, so the split
    is never summed on top of the whole); the two banks must agree.
    """

    def __init__(self, log, counts, config, sink=None):
        self.log = log
        self.counts = counts
        self.config = config
        self.sink = sink
        self._note = getattr(sink, "note_interval", None)
        det = config.detector
        self.bank = DetectorBank(det, config.features, seed=DETECTOR_SEED)
        self.split_bank = DetectorBank(
            det, config.features, seed=DETECTOR_SEED
        )
        self.clones = {
            feature: CloneSet(
                det.clones, det.bins, seed=clone_seed(DETECTOR_SEED, feature)
            )
            for feature in self.bank.features
        }
        self.assembler = IntervalAssembler(
            INTERVAL,
            origin=0.0,
            max_delay_seconds=config.max_delay_seconds,
            max_pending_intervals=config.max_pending_intervals,
        )
        self.miner = api.miners.get(config.miner)
        self.results = []
        self.mismatches = []

    def push(self, chunk):
        with self.log.span("streaming.assemble"):
            views = self.assembler.push(chunk)
        self._process(views)

    def flush(self):
        with self.log.span("streaming.assemble"):
            views = self.assembler.flush()
        self._process(views)

    def _process(self, views):
        last = None
        for view in views:
            last = view.index
            self.interval(view.flows)
        if self._note is not None and last is not None:
            with self.log.span("incidents.note"):
                self._note(last)

    def interval(self, flows):
        log, counts, config = self.log, self.counts, self.config
        with log.span("detection.observe"):
            report = self.bank.observe(flows)
        with log.span("attribution"):
            snapshots = {}
            for feature, clones in self.clones.items():
                with log.span("sketch.update"):
                    clones.reset()
                    clones.update(feature.extract(flows))
                    snapshots[feature] = clones.snapshots()
            with log.span("detection.score"):
                split = self.split_bank.observe_snapshots(
                    snapshots, flow_count=len(flows)
                )
        if split.alarmed_features != report.alarmed_features:
            self.mismatches.append(
                f"interval {report.interval}: split replay alarmed on "
                f"{split.alarmed_features}, whole call on "
                f"{report.alarmed_features}"
            )
        counts["detection.intervals"] += 1
        if not report.alarm:
            return
        counts["detection.alarms"] += 1
        metadata = report.metadata()
        if metadata.is_empty():
            return
        with log.span("core.prefilter"):
            selected = prefilter(flows, metadata, config.prefilter_mode)
        with log.span("mining.encode"):
            transactions = TransactionSet.from_flows(selected.flows)
        with log.span("mining.mine"):
            mining = self.miner(
                transactions,
                max(1, config.min_support),
                maximal_only=config.maximal_only,
            )
        counts["core.prefilter_in"] += selected.input_flows
        counts["core.prefilter_out"] += selected.selected_flows
        counts["mining.transactions"] += len(transactions)
        counts["mining.mine_calls"] += 1
        counts["mining.itemsets"] += len(mining.itemsets)
        result = api.ExtractionResult(
            interval=report.interval,
            metadata=metadata,
            prefilter=selected,
            mining=mining,
            alarmed_features=report.alarmed_features,
        )
        self.results.append(result)
        if self.sink is not None:
            with log.span("core.triage"):
                document = api.ExtractionReport.from_result(
                    result, INTERVAL, 0.0
                )
            with log.span("incidents.append"):
                self.sink.append(document)
            counts["incidents.reports"] += 1

    def count_streaming(self):
        self.counts["streaming.intervals_out"] += (
            self.assembler.intervals_emitted
        )
        self.counts["streaming.late_dropped"] += self.assembler.late_dropped


# ----------------------------------------------------------------------
# paper_two_week
# ----------------------------------------------------------------------
class PaperTwoWeek:
    """The Table IV shape: one interval per ``session.feed()``.

    A quarter of the paper's two weeks (336 intervals of 1,500 flows,
    all 36 events) - the interval count, not the flows per interval,
    is what the per-invocation cap shrank.
    """

    name = "paper_two_week"

    def setup(self, seed, scale, workdir):
        per_interval = max(200, round(1500 * scale))
        ratio = per_interval / 1500
        trace = two_week_trace(
            flows_per_interval=per_interval,
            scale=0.02 * ratio,
            seed=seed,
            n_intervals=max(144, round(336 * scale)),
        )
        config = api.ExtractionConfig(
            detector=_detector(1024, 96),
            min_support=max(4, round(60 * ratio)),
        )
        return SimpleNamespace(
            flows=trace.flows, n_flows=len(trace.flows), config=config
        )

    def run(self, inputs, rundir, metrics=None, tracer=None):
        ops = Ops()
        store = os.path.join(rundir, "incidents.db")
        with api.session(
            inputs.config,
            mode="stream",
            seed=DETECTOR_SEED,
            store_path=store,
            metrics=metrics,
            tracer=tracer,
        ) as session:
            for view in iter_intervals(inputs.flows, INTERVAL, origin=0.0):
                start = time.perf_counter()
                out = session.feed(view.flows)
                ops.add(time.perf_counter() - start, alarmed=bool(out))
            summary = session.finish()
        ranked = api.rank(store, top=10)
        ops.failed += summary.late_dropped
        return SimpleNamespace(
            ops=ops, summary=summary, ranked=ranked, store=store
        )

    def verify(self, inputs, output, rundir):
        mismatches = []
        streamed = _signature(output.summary.extractions)
        batch = api.extract(inputs.flows, inputs.config, seed=DETECTOR_SEED)
        if streamed != _signature(batch.extractions):
            mismatches.append("stream session != api.extract batch")
        with api.open_store(output.store, must_exist=True) as store:
            stored = [
                (r.interval,
                 [(t.itemset.items, t.itemset.support) for t in r.itemsets])
                for r in store.iter_reports()
            ]
            everything = store.incidents()
        if stored != streamed:
            mismatches.append("incident store log != session extractions")
        if not streamed or output.ranked != everything[:10]:
            mismatches.append("api.rank(top=10) != head of the full ranking")
        return mismatches

    def replay(self, inputs, output, rundir, log, counts):
        path = os.path.join(rundir, "replay.db")
        config = inputs.config
        store = api.IncidentStore(
            path,
            jaccard=config.incident_jaccard,
            quiet_gap=config.incident_quiet_gap,
        )
        pipeline = PipelineReplay(log, counts, config, sink=store)
        with log.span("replay"):
            try:
                views = iter_intervals(inputs.flows, INTERVAL, origin=0.0)
                for view in log.timed_iter("flows.window", views):
                    pipeline.push(view.flows)
                pipeline.flush()
                with log.span("attribution"), log.span("incidents.read"):
                    list(store.iter_reports())
            finally:
                with log.span("incidents.close"):
                    store.close()
            with log.span("incidents.rank"):
                ranked = api.rank(path, top=10)
        pipeline.count_streaming()
        mismatches = pipeline.mismatches
        if _signature(pipeline.results) != _signature(
            output.summary.extractions
        ):
            mismatches.append("layer replay != session extractions")
        if ranked != output.ranked:
            mismatches.append("layer replay ranking != api.rank")
        return mismatches


# ----------------------------------------------------------------------
# csv_stream
# ----------------------------------------------------------------------
class CloseProbe:
    """Report sink that times interval closes from outside.

    ``api.stream`` is one blocking verb; the only op boundary it shows
    a caller is its sink: ``note_interval`` fires after every feed that
    closed an interval, ``append`` before it when that interval
    alarmed.  One op = one interval closed; its latency is the time
    since the previous close (parse + assemble + detect, + mining when
    it alarmed).
    """

    def __init__(self):
        self.ops = Ops()
        self.reports = []
        self._last = time.perf_counter()
        self._closed = -1
        self._alarmed = False

    def append(self, report):
        self.reports.append(report)
        self._alarmed = True

    def note_interval(self, interval):
        closed = interval - self._closed
        if closed <= 0:
            return
        now = time.perf_counter()
        for _ in range(closed):
            self.ops.add((now - self._last) / closed, alarmed=self._alarmed)
        self._last = now
        self._closed = interval
        self._alarmed = False


class CsvStream:
    """The text edge: ``api.stream`` over a CSV file."""

    name = "csv_stream"

    def setup(self, seed, scale, workdir):
        trace = _worm(seed, scale)
        path = os.path.join(workdir, "trace.csv")
        start = time.perf_counter()
        write_csv(trace.flows, path)
        return SimpleNamespace(
            flows=trace.flows,
            n_flows=len(trace.flows),
            path=path,
            config=_worm_config(scale),
            layers={"flows.write_csv_s": time.perf_counter() - start},
        )

    def run(self, inputs, rundir, metrics=None, tracer=None):
        probe = CloseProbe()
        summary = api.stream(
            inputs.path,
            inputs.config,
            seed=DETECTOR_SEED,
            sink=probe,
            chunk_rows=CHUNK_ROWS,
            metrics=metrics,
            tracer=tracer,
        )
        probe.ops.failed += summary.late_dropped
        return SimpleNamespace(ops=probe.ops, summary=summary, probe=probe)

    def verify(self, inputs, output, rundir):
        mismatches = []
        streamed = _signature(output.summary.extractions)
        batch = api.extract(inputs.flows, inputs.config, seed=DETECTOR_SEED)
        if not streamed or streamed != _signature(batch.extractions):
            mismatches.append("api.stream(csv) != api.extract(FlowTable)")
        if output.summary.flows != inputs.n_flows:
            mismatches.append(
                f"streamed {output.summary.flows} of {inputs.n_flows} flows"
            )
        if len(output.probe.reports) != len(streamed):
            mismatches.append("sink saw a different number of reports")
        return mismatches

    def replay(self, inputs, output, rundir, log, counts):
        pipeline = PipelineReplay(log, counts, inputs.config, sink=[])
        with log.span("replay"):
            chunks = api.iter_csv(inputs.path, chunk_rows=CHUNK_ROWS)
            for chunk in log.timed_iter("flows.parse", chunks):
                counts["flows.parse_rows"] += len(chunk)
                pipeline.push(chunk)
            pipeline.flush()
        pipeline.count_streaming()
        mismatches = pipeline.mismatches
        if _signature(pipeline.results) != _signature(
            output.summary.extractions
        ):
            mismatches.append("layer replay != api.stream extractions")
        return mismatches


# ----------------------------------------------------------------------
# forensic_sweep
# ----------------------------------------------------------------------
#: The paper's Table II supports; scaled with the interval.
PAPER_SUPPORTS = (10_000, 3_000, 1_000)
#: Table II at a quarter of the paper's counts (87,713 flows) plus one
#: baseline interval: the four-miner comparison in the traced run is
#: what capped it.
TABLE2_SCALE = 0.25
MINER_NAMES = ("apriori", "eclat", "fpgrowth", "son")


class ForensicSweep:
    """The "adjust the support in 2-3 trials" loop on one interval."""

    name = "forensic_sweep"

    def setup(self, seed, scale, workdir):
        table2_scale = TABLE2_SCALE * scale
        scenario = table2_interval(scale=table2_scale, seed=seed)
        baseline = TraceGenerator(
            switch_like(len(scenario.flows)), seed=seed
        ).generate(1).flows
        flows = api.FlowTable.concat([scenario.flows, baseline])
        # The paper's input set: dstPort 7000 was the flagged value,
        # the three most popular ports were added to force
        # false-positive item-sets.
        metadata = Metadata()
        metadata.add(
            Feature.DST_PORT,
            np.array([7000, 80, 9022, 25], dtype=np.uint64),
        )
        return SimpleNamespace(
            flows=flows,
            n_flows=len(flows),
            metadata=metadata,
            supports=tuple(
                max(2, int(s * table2_scale)) for s in PAPER_SUPPORTS
            ),
            victim=scenario.flooding_victim,
            config=api.ExtractionConfig(),
        )

    def run(self, inputs, rundir, metrics=None, tracer=None):
        ops = Ops()
        results = []
        with api.AnomalyExtractor(
            inputs.config, seed=DETECTOR_SEED, metrics=metrics, tracer=tracer
        ) as extractor:
            for support in inputs.supports:
                start = time.perf_counter()
                result = extractor.extract_with_metadata(
                    inputs.flows, inputs.metadata, min_support=support
                )
                ops.add(time.perf_counter() - start, alarmed=True)
                results.append(result)
        return SimpleNamespace(ops=ops, results=results)

    def _transactions(self, inputs):
        selected = prefilter(
            inputs.flows, inputs.metadata, inputs.config.prefilter_mode
        )
        return TransactionSet.from_flows(selected.flows)

    def verify(self, inputs, output, rundir):
        mismatches = []
        other = api.miners.get(
            "eclat" if inputs.config.miner != "eclat" else "apriori"
        )
        transactions = self._transactions(inputs)
        for support, result in zip(
            inputs.supports, output.results, strict=True
        ):
            reference = other(transactions, support, maximal_only=True)
            if result.mining.all_frequent != reference.all_frequent:
                mismatches.append(
                    f"support {support}: {result.mining.algorithm} != "
                    f"{reference.algorithm} item-set -> support map"
                )
            flood = {Feature.DST_IP: inputs.victim, Feature.DST_PORT: 7000}
            if not any(
                flood.items() <= s.as_dict().items() for s in result.itemsets
            ):
                mismatches.append(
                    f"support {support}: flooding victim item-set missing"
                )
        return mismatches

    def replay(self, inputs, output, rundir, log, counts):
        config = inputs.config
        miner = api.miners.get(config.miner)
        mismatches = []
        with log.span("replay"):
            for support, result in zip(
                inputs.supports, output.results, strict=True
            ):
                with log.span("core.prefilter"):
                    selected = prefilter(
                        inputs.flows, inputs.metadata, config.prefilter_mode
                    )
                with log.span("mining.encode"):
                    transactions = TransactionSet.from_flows(selected.flows)
                with log.span("mining.mine"):
                    mining = miner(
                        transactions, support,
                        maximal_only=config.maximal_only,
                    )
                counts["core.prefilter_in"] += selected.input_flows
                counts["core.prefilter_out"] += selected.selected_flows
                counts["mining.transactions"] += len(transactions)
                counts["mining.mine_calls"] += 1
                counts["mining.itemsets"] += len(mining.itemsets)
                if mining.all_frequent != result.mining.all_frequent:
                    mismatches.append(
                        f"support {support}: layer replay != extractor"
                    )
            # The evidence a miner cull will need: all four registered
            # miners over the same transactions and supports.
            with log.span("attribution"):
                for name in MINER_NAMES:
                    other = api.miners.get(name)
                    for support, result in zip(
                        inputs.supports, output.results, strict=True
                    ):
                        with log.span(f"mining.{name}"):
                            mined = other(
                                transactions, support, maximal_only=True
                            )
                        if mined.all_frequent != result.mining.all_frequent:
                            mismatches.append(
                                f"support {support}: {name} disagrees"
                            )
        return mismatches


# ----------------------------------------------------------------------
# service_http
# ----------------------------------------------------------------------
def _request(method, path, body=b""):
    return HttpRequest(
        method=method, target=path, path=path, query={}, headers={},
        body=body,
    )


def _incidents_payload(fleet):
    """What ``GET /incidents`` must answer, built from the fleet."""
    payload = []
    for entry in fleet.incidents():
        data = entry.to_dict()
        data["id"] = f"{entry.pipeline}:{entry.incident.incident_id}"
        payload.append(data)
    return json.loads(json.dumps(payload, sort_keys=True))


class ServiceHttp:
    """The daemon shape: ``ServiceApp.handle`` over a 2-pipeline fleet,
    checkpoint every two intervals, dropped and resumed half-way."""

    name = "service_http"
    pipelines = 2

    def setup(self, seed, scale, workdir):
        trace = _worm(seed, scale)
        path = os.path.join(workdir, "trace.csv")
        start = time.perf_counter()
        write_csv(trace.flows, path)
        written = time.perf_counter() - start
        with open(path) as handle:
            header, *rows = handle.read().splitlines()
        bodies = [
            ("\n".join([header, *rows[i:i + CHUNK_ROWS]]) + "\n").encode()
            for i in range(0, len(rows), CHUNK_ROWS)
        ]
        per_interval = max(1, round(len(rows) / WORM_INTERVALS / CHUNK_ROWS))
        every = 2 * per_interval
        return SimpleNamespace(
            flows=trace.flows,
            n_flows=len(trace.flows),
            bodies=bodies,
            every=every,
            # The checkpoint nearest the middle: the app is dropped
            # right after it, so the resumed client replays nothing.
            half=max(every, len(bodies) // 2 // every * every),
            config=_worm_config(scale),
            layers={"flows.write_csv_s": written},
        )

    def _fleet(self, inputs, store_dir, metrics=None, tracer=None):
        return api.FleetManager(
            {f"link{i}": inputs.config for i in range(self.pipelines)},
            route=f"dst_ip%{self.pipelines}",
            interval_seconds=INTERVAL,
            seed=DETECTOR_SEED,
            store_dir=store_dir,
            metrics=metrics,
            tracer=tracer,
        )

    @staticmethod
    def _post_all(app, fleet, bodies, ops, span):
        sessions = [fleet.session(name) for name in fleet.names]
        seen = sum(s.extraction_count for s in sessions)
        for body in bodies:
            request = _request("POST", "/ingest", body)
            start = time.perf_counter()
            with span("service.handle"):
                status, _, _ = app.handle(request)
            elapsed = time.perf_counter() - start
            now = sum(s.extraction_count for s in sessions)
            ops.add(elapsed, alarmed=now > seen, failed=status != 200)
            seen = now
        ops.failed += sum(s.assembler.late_dropped for s in sessions)

    def run(
        self, inputs, rundir, metrics=None, tracer=None,
        span=lambda name: contextlib.nullcontext(),
    ):
        ops = Ops()
        stores = os.path.join(rundir, "stores")
        checkpoint = os.path.join(rundir, "fleet.ckpt")
        with self._fleet(inputs, stores, metrics, tracer) as fleet:
            app = ServiceApp(
                fleet, checkpoint_path=checkpoint,
                checkpoint_every=inputs.every,
            )
            self._post_all(app, fleet, inputs.bodies[:inputs.half], ops, span)
        with self._fleet(inputs, stores, metrics, tracer) as fleet:
            sequence = restore_fleet(fleet, read_checkpoint(checkpoint))
            if sequence != inputs.half:
                ops.failed += 1
            app = ServiceApp(
                fleet, checkpoint_path=checkpoint,
                checkpoint_every=inputs.every, sequence=sequence,
            )
            self._post_all(app, fleet, inputs.bodies[sequence:], ops, span)
            status, body, _ = app.handle(_request("GET", "/incidents"))
            if status != 200:
                ops.failed += 1
        return SimpleNamespace(
            ops=ops, incidents=json.loads(body)["incidents"]
        )

    def verify(self, inputs, output, rundir):
        # The independent path: the in-memory table sliced into the
        # same row ranges (no CSV, no parser), fed straight to a fleet
        # that is never checkpointed or resumed.
        n = inputs.n_flows
        with self._fleet(inputs, os.path.join(rundir, "direct")) as fleet:
            for i in range(0, n, CHUNK_ROWS):
                fleet.feed(
                    inputs.flows.select(np.arange(i, min(i + CHUNK_ROWS, n)))
                )
            expected = _incidents_payload(fleet)
        if not expected or output.incidents != expected:
            return ["GET /incidents != direct FleetManager.feed, no resume"]
        return []

    def replay(self, inputs, output, rundir, log, counts):
        mismatches = []
        parsed = []
        stores = os.path.join(rundir, "replay-stores")
        checkpoint = os.path.join(rundir, "replay.ckpt")
        # Checkpoints are explicit here, at the end-to-end cadence.
        never = len(inputs.bodies) + 1
        fleet = self._fleet(inputs, stores)
        try:
            app = ServiceApp(
                fleet, checkpoint_path=checkpoint, checkpoint_every=never
            )
            with log.span("replay"):
                for i, body in enumerate(inputs.bodies, start=1):
                    with log.span("flows.parse_body"):
                        chunks = list(
                            iter_csv_handle(
                                io.StringIO(body.decode("utf-8")),
                                chunk_rows=app.chunk_rows,
                                name="ingest",
                            )
                        )
                    for chunk in chunks:
                        with log.span("fleet.feed"):
                            fleet.feed(chunk)
                    parsed.extend(chunks)
                    if i % inputs.every == 0:
                        with log.span("service.checkpoint"):
                            size = app.checkpoint()
                        counts["service.checkpoint_writes"] += 1
                        counts["service.checkpoint_bytes"] = size
                    if i == inputs.half:
                        with log.span("service.resume"):
                            fleet.close()
                            fleet = self._fleet(inputs, stores)
                            restore_fleet(fleet, read_checkpoint(checkpoint))
                            app = ServiceApp(
                                fleet, checkpoint_path=checkpoint,
                                checkpoint_every=never,
                            )
                with log.span("service.query"):
                    _, body, _ = app.handle(_request("GET", "/incidents"))
        finally:
            fleet.close()
        if json.loads(body)["incidents"] != output.incidents:
            mismatches.append("layer replay /incidents != service run")
        # The same HTTP run again with a span around every request.
        with log.span("service.run"):
            again = self.run(
                inputs, os.path.join(rundir, "handled"), span=log.span
            )
        if again.incidents != output.incidents:
            mismatches.append("spanned service run != service run")
        counts["service.requests"] += log.count("service.handle")
        # What fleet.feed did inside, per layer.
        with log.span("attribution"), contextlib.ExitStack() as stack:
            router = stack.enter_context(
                self._fleet(inputs, os.path.join(rundir, "router"))
            )
            pipelines = {
                name: PipelineReplay(
                    log, counts, inputs.config,
                    sink=stack.enter_context(
                        api.IncidentStore(
                            os.path.join(rundir, f"attribution-{name}.db")
                        )
                    ),
                )
                for name in router.names
            }
            for chunk in parsed:
                with log.span("fleet.route"):
                    parts = router.route_chunk(chunk)
                for name, part in parts.items():
                    pipelines[name].push(part)
        for pipeline in pipelines.values():
            pipeline.count_streaming()
            mismatches.extend(pipeline.mismatches)
        return mismatches


# ----------------------------------------------------------------------
# federation_4site
# ----------------------------------------------------------------------
class Federation4Site:
    """Digests only: summarize, JSON wire, decode, merge, detect."""

    name = "federation_4site"
    sites = ("pop0", "pop1", "pop2", "pop3")

    def setup(self, seed, scale, workdir):
        trace = _worm(seed, scale)
        parts = split_trace(
            trace.flows, self.sites, f"src_ip%{len(self.sites)}"
        )
        config = _worm_config(scale)
        return SimpleNamespace(
            flows=trace.flows,
            n_flows=len(trace.flows),
            per_site={
                site: [
                    view.flows
                    for view in iter_intervals(parts[site], INTERVAL, origin=0.0)
                ]
                for site in self.sites
            },
            detector=config.detector,
            min_support=config.min_support,
        )

    def _collectors(self, inputs, tracer=None):
        return {
            site: api.Collector(
                site=site, config=inputs.detector, seed=DETECTOR_SEED,
                tracer=tracer,
            )
            for site in self.sites
        }

    def _federator(self, inputs, metrics=None, tracer=None):
        return api.Federator(
            sites=self.sites,
            config=inputs.detector,
            seed=DETECTOR_SEED,
            interval_seconds=INTERVAL,
            min_support=inputs.min_support,
            metrics=metrics,
            tracer=tracer,
        )

    def _deliveries(self, inputs):
        """(interval, site, flows), interval-major: every site's
        interval ``i`` before anyone's ``i + 1``."""
        depth = max(len(views) for views in inputs.per_site.values())
        for i in range(depth):
            for site in self.sites:
                if i < len(inputs.per_site[site]):
                    yield i, site, inputs.per_site[site][i]

    def run(self, inputs, rundir, metrics=None, tracer=None):
        ops = Ops()
        collectors = self._collectors(inputs, tracer)
        federator = self._federator(inputs, metrics, tracer)
        released = []
        wire_bytes = 0
        for i, site, flows in self._deliveries(inputs):
            wire = collectors[site].summarize(flows, i).to_json().encode()
            wire_bytes += len(wire)
            start = time.perf_counter()
            try:
                out = federator.add(
                    api.IntervalDigest.from_json(wire), wire_bytes=len(wire)
                )
            except (api.FederationError, api.SketchError):
                out = None
            ops.add(
                time.perf_counter() - start,
                alarmed=any(fi.report is not None for fi in out or ()),
                failed=out is None,
            )
            released.extend(out or ())
        released.extend(federator.finish())
        ops.failed += sum(len(fi.stragglers) for fi in released)
        return SimpleNamespace(
            ops=ops,
            released=released,
            incidents=federator.incidents(),
            wire_bytes=wire_bytes,
        )

    def verify(self, inputs, output, rundir):
        mismatches = []
        single = DetectorBank(inputs.detector, seed=DETECTOR_SEED).run(
            inputs.flows, INTERVAL, origin=0.0
        )
        alarms = [fi.interval for fi in output.released if fi.alarm]
        if not alarms or alarms != single.alarm_intervals():
            mismatches.append(
                "federated alarm intervals != single-site detection"
            )
        if len(output.released) != single.n_intervals:
            mismatches.append("federator released a different interval count")
        if not output.incidents:
            mismatches.append("federation ranked no incident")
        return mismatches

    def replay(self, inputs, output, rundir, log, counts):
        collectors = self._collectors(inputs)
        federator = self._federator(inputs)
        delivered = {}
        released = []
        with log.span("replay"):
            for i, site, flows in self._deliveries(inputs):
                with log.span("federation.summarize"):
                    digest = collectors[site].summarize(flows, i)
                with log.span("federation.encode"):
                    wire = digest.to_json().encode()
                with log.span("federation.decode"):
                    decoded = api.IntervalDigest.from_json(wire)
                with log.span("federation.add"):
                    try:
                        released.extend(
                            federator.add(decoded, wire_bytes=len(wire))
                        )
                    except (api.FederationError, api.SketchError):
                        counts["federation.refused"] += 1
                counts["federation.wire_bytes"] += len(wire)
                delivered.setdefault(i, []).append(decoded)
            with log.span("federation.finish"):
                released.extend(federator.finish())
            with log.span("incidents.rank"):
                federator.incidents()
            with log.span("attribution"):
                split_alarms = self._attribute(inputs, delivered, log, counts)
        counts["federation.released"] += len(released)
        counts["federation.stragglers"] += sum(
            len(fi.stragglers) for fi in released
        )
        mismatches = []
        alarms = [fi.interval for fi in released if fi.alarm]
        if alarms != [fi.interval for fi in output.released if fi.alarm]:
            mismatches.append("layer replay alarms != federation run")
        if split_alarms != alarms:
            mismatches.append("standalone merge + score alarms != federator")
        return mismatches

    def _attribute(self, inputs, delivered, log, counts):
        """The sketch, merge and scoring shares of the digest path,
        each replayed standalone; returns the alarmed intervals."""
        det = inputs.detector
        bank = DetectorBank(det, seed=DETECTOR_SEED)
        clones = {
            feature: CloneSet(
                det.clones, det.bins, seed=clone_seed(DETECTOR_SEED, feature)
            )
            for feature in bank.features
        }
        for _, _, flows in self._deliveries(inputs):
            for feature, clone_set in clones.items():
                with log.span("sketch.update"):
                    values = feature.extract(flows)
                    clone_set.reset()
                    clone_set.update(values)
                    clone_set.snapshots()
                    CountMinSketch(
                        width=DEFAULT_CM_WIDTH,
                        depth=DEFAULT_CM_DEPTH,
                        seed=countmin_seed(DETECTOR_SEED, feature),
                    ).update_array(values)
        alarms = []
        for interval in sorted(delivered):
            digests = delivered[interval]
            with log.span("federation.merge"):
                merged = digests[0]
                for digest in digests[1:]:
                    merged = merged.merge(digest)
            with log.span("detection.score"):
                report = bank.observe_snapshots(
                    merged.snapshots_by_feature(bank.features),
                    flow_count=merged.flow_count,
                )
            counts["detection.intervals"] += 1
            if report.alarm:
                counts["detection.alarms"] += 1
                alarms.append(interval)
        return alarms


WORKLOADS = {
    workload.name: workload
    for workload in (
        PaperTwoWeek(),
        CsvStream(),
        ForensicSweep(),
        ServiceHttp(),
        Federation4Site(),
    )
}
