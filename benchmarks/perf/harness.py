"""One workload in one process: set-up, repetitions, oracle, traced replay.

The load model is a closed loop - one client, one process, one thread,
``jobs=1``.  Inputs are generated from the seed before anything is
timed; after one untimed warm-up repetition the workload repeats for
about ``--seconds``.  The oracle runs after timing.

**Steadiness.**  On a shared sandbox the same code reads 10-30 % slower
for seconds to minutes at a time, and never faster.  Two things keep
the gated time metrics comparable between runs minutes apart:

* *Pointwise best over the repetitions.*  Every repetition performs
  the identical op sequence on identical inputs, so each op (and the
  stretch of work before it) is timed once per repetition and keeps its
  fastest reading (the warm-up's included); the wall of the workload
  is the sum of those.  A
  cost the program itself causes (an interval close, a checkpoint, a
  store commit) is in every repetition and survives; a neighbour's
  burst does not.
* *Calibration.*  Between repetitions a fixed kernel of the harness's
  own (a CSV-like parse loop in Python bytecode plus numpy
  ``add.at``/``union1d``, the two kinds of code the program is made
  of) is timed a few times; its fastest reading against
  :data:`CALIBRATION_REFERENCE` says how fast the machine is right
  now, and every reported end-to-end time is scaled to the reference
  machine.  A change to the program cannot move the kernel.

Raw readings travel in the detail record beside the calibrated ones.

End-to-end numbers come from these untraced repetitions only.  With
``trace`` on, half the time goes to untraced repetitions (their median
raw wall is the base of every ratio) and the rest to one replay of the
same inputs through each layer's public functions under the harness's
own spans, plus one repetition with the program's own metrics and
tracer switched on.  Layer numbers are raw seconds of that one pass.
"""

import functools
import itertools
import os
import resource
import shutil
import sys
import time
from collections import defaultdict

import numpy as np
import spans
import spec
import stats
import workloads

#: Set-ups per untraced invocation; ``setup_s`` reports their median.
SETUP_REPS = 3
#: ``--smoke``: the same code paths and oracle at 1/16 of the inputs.
SMOKE_SCALE = 1 / 16
#: Kernel readings taken before every repetition and after the last.
CALIBRATION_SAMPLES = 3
#: Fastest kernel reading on the machine the baseline was taken on
#: (2 cores, Xeon 2.1 GHz, Python 3.11, numpy 2.4): the unit of
#: "reference-machine seconds".
CALIBRATION_REFERENCE = 0.0386

@functools.cache
def _kernel_inputs():
    """Built on the first reading, so the harness's own preparation
    stays out of ``setup_s``."""
    values = np.random.default_rng(0).integers(
        0, 1 << 32, size=100_000, dtype=np.uint64
    )
    text = "\n".join(
        ",".join(str(int(v)) for v in values[i:i + 9])
        for i in range(0, 99_000, 9)
    )
    return values, text


def kernel_seconds():
    """One timed pass of the calibration kernel."""
    values, text = _kernel_inputs()
    start = time.perf_counter()
    for line in text.split("\n"):
        for cell in line.split(","):
            int(cell)
    counts = np.zeros(1024)
    bins = (values * np.uint64(2654435761) % np.uint64(1024)).astype(np.int64)
    np.add.at(counts, bins, 1.0)
    np.union1d(values[:50_000], values[50_000:])
    return time.perf_counter() - start


def _fresh_dir(workdir, tag):
    path = os.path.join(workdir, tag)
    os.makedirs(path)
    return path


def _best(per_repetition):
    """Fastest reading of each op across the repetitions; refuses
    repetitions that did not perform the same op sequence."""
    return [min(column) for column in zip(*per_repetition, strict=True)]


class Repetitions:
    """What the repetitions of one invocation measured."""

    def __init__(self):
        #: Raw wall of each timed repetition (the warm-up is not one).
        self.walls = []
        #: Per repetition, warm-up included: seconds between consecutive
        #: op ends, from the start of the run to its end (one more than
        #: the ops), and the op latencies.
        self.segments = []
        self.latencies = []
        self.kernel = []
        self.failed = 0
        #: The last repetition's output and directory, kept for the
        #: oracle and the replay.
        self.output = None
        self.rundir = None

    @property
    def wall(self):
        """The typical raw repetition: base of the traced ratios."""
        return stats.median(self.walls)

    @property
    def best_wall(self):
        return sum(_best(self.segments))

    @property
    def speed(self):
        """Machine speed against the reference (1.0 = as fast)."""
        return CALIBRATION_REFERENCE / min(self.kernel)

    def calibrate(self):
        self.kernel.extend(
            kernel_seconds() for _ in range(CALIBRATION_SAMPLES)
        )

    def run(self, workload, inputs, workdir, timed):
        """One repetition.  The untimed warm-up still gives every op
        one more reading to take its fastest from."""
        rundir = _fresh_dir(workdir, f"rep-{len(self.segments)}")
        self.calibrate()
        start = time.perf_counter()
        output = workload.run(inputs, rundir)
        end = time.perf_counter()
        marks = [start, *output.ops.ended, end]
        self.segments.append(
            [after - before for before, after in itertools.pairwise(marks)]
        )
        self.latencies.append(output.ops.latencies)
        if timed:
            self.walls.append(end - start)
            self.failed += output.ops.failed
        if self.rundir is not None:
            shutil.rmtree(self.rundir)
        self.output, self.rundir = output, rundir


def repeat(workload, inputs, workdir, budget, warm_up, reps):
    """One warm-up, then repetitions for about ``budget`` seconds.

    A repetition starts only while half of one more still fits, so the
    measured time lands within half a repetition of the budget.
    """
    if warm_up:
        reps.run(workload, inputs, workdir, timed=False)
    began = time.perf_counter()
    while True:
        reps.run(workload, inputs, workdir, timed=True)
        elapsed = time.perf_counter() - began
        if elapsed + 0.5 * reps.wall > budget:
            reps.calibrate()
            return


def end_to_end(name, inputs, reps, setup_s, peak_rss_mib):
    """Every ledger end-to-end metric defined on this workload, as
    ``{name: (value, samples)}``, times in reference-machine units; a
    percentile the samples do not support is left out, never 0."""
    defined = {m.name for m in spec.END_TO_END if name in m.workloads}
    speed = reps.speed
    best = _best(reps.latencies)
    timed = reps.latencies[-len(reps.walls):]
    pooled = [x for latencies in timed for x in latencies]
    alarmed = [
        x for x, hit in zip(best, reps.output.ops.alarmed, strict=True) if hit
    ]
    found = {
        "setup_s": (setup_s * speed, 1),
        "flows_per_s": (
            inputs.n_flows / (reps.best_wall * speed), len(reps.walls)
        ),
        "op_ms_p50": (stats.median(best) * speed * 1e3, len(best)),
        "peak_rss_mib": (peak_rss_mib, 1),
    }
    if stats.supports_percentile(len(pooled), 0.95):
        found["op_ms_p95"] = (
            stats.percentile(pooled, 0.95) * speed * 1e3, len(pooled)
        )
    if alarmed:
        found["alarm_ms_p50"] = (
            stats.median(alarmed) * speed * 1e3, len(alarmed)
        )
    if hasattr(reps.output, "wire_bytes"):
        found["wire_bytes_per_flow"] = (
            reps.output.wire_bytes / inputs.n_flows, 1
        )
    return {k: v for k, v in found.items() if k in defined}


def per_layer(workload, inputs, reps, workdir, mismatches):
    """The traced run: replay + obs-enabled repetition -> every
    ``spec.PER_LAYER`` metric (0 where the layer is not on this
    workload's path), and the span log."""
    log = spans.SpanLog()
    counts = defaultdict(int)
    start = time.perf_counter()
    mismatches.extend(
        workload.replay(
            inputs, reps.output, _fresh_dir(workdir, "replay"), log, counts
        )
    )
    replay_wall = time.perf_counter() - start

    registry, tracer = workloads.new_obs()
    start = time.perf_counter()
    workload.run(
        inputs, _fresh_dir(workdir, "obs"), metrics=registry, tracer=tracer
    )
    obs_wall = time.perf_counter() - start

    unknown = set(counts) - set(spec.PER_LAYER_NAMES)
    if unknown:
        raise KeyError(f"replay counted unnamed metrics: {sorted(unknown)}")
    wall = reps.wall
    layers = dict.fromkeys(spec.PER_LAYER_NAMES, 0.0)
    for name in spec.PER_LAYER_NAMES:
        if name.endswith("_s"):
            layers[name] = log.busy(name[: -len("_s")])
    layers.update(counts)
    layers.update(getattr(inputs, "layers", {}))
    layers["sketch.update_calls"] = log.count("sketch.update")
    layers["core.spine_overhead_s"] = wall - log.children_busy("replay")
    layers["service.request_overhead_s"] = (
        layers["service.handle_s"]
        - layers["flows.parse_body_s"]
        - layers["fleet.feed_s"]
        - layers["service.checkpoint_s"]
    )
    if layers["fleet.feed_s"]:
        layers["fleet.http_cost_factor"] = wall / layers["fleet.feed_s"]
    for stage, seconds in workloads.stage_seconds(registry).items():
        layers[f"obs.stage_{stage}_s"] = seconds
    layers["obs.enabled_overhead_ratio"] = obs_wall / wall
    layers["trace.untraced_wall_s"] = wall
    layers["trace.replay_wall_s"] = replay_wall
    layers["trace.harness_overhead_ratio"] = replay_wall / wall
    layers["trace.machine_speed"] = reps.speed
    return layers, log


def run_workload(name, seed, seconds, trace, smoke, workdir, import_s):
    """Measure one workload; returns ``(payload, detail)``.

    ``payload`` is the driver's result object (``correct``,
    ``attempted``, ``failed``, ``metrics``: the gated end-to-end
    metrics untraced, every per-layer metric traced).  ``detail``
    carries everything the ledger prints beside it.
    """
    workload = workloads.WORKLOADS[name]
    scale = SMOKE_SCALE if smoke else 1.0
    reps = Repetitions()
    generate = []
    for _ in range(1 if trace or smoke else SETUP_REPS):
        reps.calibrate()
        start = time.perf_counter()
        inputs = workload.setup(seed, scale, workdir)
        generate.append(time.perf_counter() - start)
    generate_s = stats.median(generate)

    repeat(
        workload, inputs, workdir, seconds / 2 if trace else seconds,
        warm_up=not smoke, reps=reps,
    )
    # Linux reports KiB.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    measured = end_to_end(
        name, inputs, reps, import_s + generate_s, peak_rss_mib
    )
    mismatches = workload.verify(inputs, reps.output, reps.rundir)

    detail = {
        "workload": name,
        "seed": seed,
        "flows": inputs.n_flows,
        "repetitions": len(reps.walls),
        "machine_speed": reps.speed,
        "raw": {
            "walls_s": reps.walls,
            "best_wall_s": reps.best_wall,
            "setup_s": import_s + generate_s,
        },
        "end_to_end": {
            k: {"value": v, "samples": n} for k, (v, n) in measured.items()
        },
    }
    units = {m.name: m.unit for m in (*spec.END_TO_END, *spec.PER_LAYER)}
    if trace:
        layers, log = per_layer(workload, inputs, reps, workdir, mismatches)
        layers["setup.import_s"] = import_s
        layers["setup.generate_s"] = generate_s
        for demoted in ("op_ms_p95", "alarm_ms_p50", "wire_bytes_per_flow"):
            layers[demoted] = measured.get(demoted, (0.0, 0))[0]
        log.write(os.path.join(os.path.dirname(workdir), f"spans-{name}.json"))
        reported = layers
    else:
        reported = {m.name: measured[m.name][0] for m in spec.GATED}
    for message in mismatches:
        print(f"{name}: MISMATCH {message}", file=sys.stderr)
    failed = reps.failed + len(mismatches)
    detail["mismatches"] = mismatches
    ops = len(reps.walls) * len(reps.latencies[-1])
    payload = {
        "correct": failed == 0,
        # Every op of every timed repetition plus the oracle pass.
        "attempted": ops + max(1, len(mismatches)),
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in reported.items()
        },
    }
    return payload, detail
