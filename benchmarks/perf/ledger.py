"""The ledger form of the benchmark: run, print, compare.

Each workload runs in a fresh child process (the driver form of
``run.py``), so ``peak_rss_mib`` is per workload and no cache leaks
between them.  A result file holds, per workload and end-to-end
metric, one value per untraced run (run ``i`` uses seed ``seed + i``)
plus the per-layer numbers of one traced run; ``--compare`` and
``--aa`` judge two such files by the bounds in :mod:`spec`.
"""

import json
import os
import platform
import subprocess
import sys

import spec
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _child(workload, seed, args, trace):
    """One driver-form run in a child process -> (payload, detail)."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--detail", *(["--smoke"] if args.smoke else []),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("DETAIL "):
        raise RuntimeError(
            f"{workload}: child exited {done.returncode} without a result"
        )
    return json.loads(lines[-1]), json.loads(lines[-2][len("DETAIL "):])


def _commit():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def _meta(args):
    import numpy

    return {
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def measure(args):
    """Run every workload: ``args.runs`` untraced runs, one traced.

    With ``args.runs == 0`` (smoke) the traced run's own untraced
    repetitions stand in for the end-to-end numbers.
    """
    doc = {"meta": _meta(args), "workloads": {}}
    for workload in spec.WORKLOADS:
        print(f"# {workload}: {args.runs} untraced run(s) + 1 traced")
        runs = [
            _child(workload, args.seed + i, args, trace=0)
            for i in range(args.runs)
        ]
        traced = _child(workload, args.seed, args, trace=1)
        attempted = sum(p["attempted"] for p, _ in (*runs, traced))
        failed = sum(p["failed"] for p, _ in (*runs, traced))
        details = [detail for _, detail in runs or [traced]]
        end_to_end = {}
        for detail in details:
            for name, found in detail["end_to_end"].items():
                slot = end_to_end.setdefault(
                    name,
                    {"unit": spec.END_TO_END_BY_NAME[name].unit,
                     "values": [], "samples": []},
                )
                slot["values"].append(found["value"])
                slot["samples"].append(found["samples"])
        end_to_end["op_fail_ratio"] = {
            "unit": "ratio",
            "values": [failed / attempted],
            "samples": [attempted],
        }
        doc["workloads"][workload] = {
            "flows": [detail["flows"] for detail in details],
            "repetitions": [detail["repetitions"] for detail in details],
            "machine_speed": [detail["machine_speed"] for detail in details],
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": traced[0]["metrics"],
        }
    return doc


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _share(part, whole):
    return f"{100 * part / whole:5.1f}%" if whole else "     -"


def render(doc):
    """Every metric by name and unit, one block per workload."""
    meta = doc["meta"]
    lines = [
        f"perf ledger: seed {meta['seed']}, {meta['runs']} run(s) x "
        f"{meta['seconds']} s{', SMOKE scale' if meta['smoke'] else ''}, "
        f"{meta['nproc']} cores, python {meta['python']}, numpy "
        f"{meta['numpy']}, commit {meta['commit'][:12]}",
    ]
    for workload, entry in doc["workloads"].items():
        lines.append("")
        speeds = ", ".join(f"{s:.2f}" for s in entry["machine_speed"])
        lines.append(
            f"== {workload}: {entry['flows'][0]} flows, "
            f"{entry['repetitions']} repetitions per run, "
            f"machine speed {speeds}"
        )
        lines.append(
            f"  {'end-to-end':<26} {'median':>14} {'unit':<8} "
            f"{'spread':>7} {'bound':>6}  samples"
        )
        for name, slot in entry["end_to_end"].items():
            bound = spec.END_TO_END_BY_NAME[name].bound
            lines.append(
                f"  {name:<26} {stats.median(slot['values']):>14.4f} "
                f"{slot['unit']:<8} {stats.spread(slot['values']):>7.1%} "
                f"{bound:>6.0%}  {slot['samples']}"
            )
        layers = {k: v["value"] for k, v in entry["per_layer"].items()}
        wall = layers["trace.untraced_wall_s"]
        lines.append(
            f"  {'per-layer (traced run)':<34} {'value':>14} unit   of wall"
        )
        for name, found in entry["per_layer"].items():
            if not found["value"]:
                continue
            share = (
                _share(found["value"], wall)
                if found["unit"] == "s" and not name.startswith("setup.")
                else ""
            )
            lines.append(
                f"  {name:<34} {found['value']:>14.4f} "
                f"{found['unit']:<6} {share}"
            )
        lines.extend(_cross_check(layers))
    return "\n".join(lines)


#: Where ``core.spine_overhead_s`` / wall sits when the replay and the
#: untraced repetitions ran under the same conditions.
SPINE_BAND = (-0.05, 0.25)


def _cross_check(layers):
    """Outside (harness spans) beside inside (``repro_stage_seconds``)
    with the gap, where the program timed the stage at all."""
    outside = {
        "detection": layers["detection.observe_s"],
        "mining": (
            layers["core.prefilter_s"] + layers["mining.encode_s"]
            + layers["mining.mine_s"]
        ),
    }
    lines = []
    spine = layers["core.spine_overhead_s"] / layers["trace.untraced_wall_s"]
    if not SPINE_BAND[0] <= spine <= SPINE_BAND[1]:
        lines.append(
            f"  NOTE core.spine_overhead_s is {spine:+.1%} of the wall, "
            f"outside {SPINE_BAND[0]:+.0%}..{SPINE_BAND[1]:+.0%}: the one "
            f"traced pass and the untraced repetitions saw different "
            f"machine conditions; re-run before reading shares"
        )
    for stage, seconds in outside.items():
        inside = layers[f"obs.stage_{stage}_s"]
        if inside and seconds:
            lines.append(
                f"  cross-check {stage}: outside {seconds:.4f} s, inside "
                f"{inside:.4f} s, gap {(seconds - inside) / inside:+.1%} "
                f"of inside"
            )
    return lines


# ----------------------------------------------------------------------
# Judging two result files
# ----------------------------------------------------------------------
#: Fewer pairs than this cannot show a spread.
MIN_RUNS = 3


def _rows(before, after):
    """One row per workload x end-to-end metric present in both."""
    for workload, entry in before["workloads"].items():
        other = after["workloads"].get(workload)
        if other is None:
            continue
        for name, slot in entry["end_to_end"].items():
            if name in other["end_to_end"]:
                yield (
                    workload, spec.END_TO_END_BY_NAME[name],
                    slot["values"], other["end_to_end"][name]["values"],
                )


def _worsening(metric, base, value):
    """Signed share of ``base`` by which ``value`` is worse (> 0)."""
    if not base:
        return float(value > base)
    change = (value - base) / base
    return change if metric.better == "lower" else -change


def _paired(metric, a_values, b_values):
    """Per-seed worsening of B over A, or None without enough pairs.

    Run ``i`` of both files used seed ``seed + i``, so what the seed
    does to the input cancels inside each pair.
    """
    if len(a_values) != len(b_values) or len(a_values) < MIN_RUNS:
        return None
    return [
        _worsening(metric, a, b)
        for a, b in zip(a_values, b_values, strict=True)
    ]


def _verdict(metric, a_values, b_values):
    if metric.name == "op_fail_ratio":
        return "regressed" if b_values[0] > a_values[0] else "unchanged"
    shares = _paired(metric, a_values, b_values)
    if shares is None:
        return f"unresolved (needs the same >= {MIN_RUNS} seeds on both sides)"
    q1, worse, q3 = stats.quartiles(shares)
    if q3 - q1 > metric.bound:
        return "unresolved (spread wider than the bound)"
    if worse > metric.bound:
        return "regressed"
    # A gain: B wins nine pairs in ten, by more than the pairs' spread.
    wins = sum(share < 0 for share in shares)
    losses = sum(share > 0 for share in shares)
    if wins and wins >= 0.9 * (wins + losses) and -worse > q3 - q1:
        return "improved"
    return "unchanged"


def _aa_verdict(metric, a_values, b_values):
    """A/A: the same code on the same seeds, so a paired median that
    moves by more than the bound, either way, cannot gate anything."""
    shares = _paired(metric, a_values, b_values) or [
        _worsening(metric, a_values[0], b_values[0])
    ]
    moved = abs(stats.median(shares))
    return "outside-bound" if moved > metric.bound else "within-bound"


def _describe(values, unit):
    q1, median, q3 = stats.quartiles(values)
    return f"{median:.4f} [{q1:.4f}, {q3:.4f}] {unit}"


def compare(before, after, verdict=_verdict):
    """Print one row per workload x metric; returns the bad rows."""
    if before["meta"]["seed"] != after["meta"]["seed"]:
        print("WARNING: the two files used different seeds", file=sys.stderr)
    bad = []
    for workload, metric, a_values, b_values in _rows(before, after):
        outcome = verdict(metric, a_values, b_values)
        base = stats.median(a_values)
        median = stats.median(b_values)
        ratio = f"{median / base:.3f}x" if base else "-"
        print(
            f"{workload:<17} {metric.name:<20} "
            f"A {_describe(a_values, metric.unit)}  "
            f"B {_describe(b_values, metric.unit)}  "
            f"B/A {ratio} of {base:.4f}  bound {metric.bound:.0%}  "
            f"{outcome}"
        )
        if outcome in ("regressed", "outside-bound"):
            bad.append((workload, metric.name))
    return bad


def compare_files(path_a, path_b):
    with open(path_a) as a, open(path_b) as b:
        bad = compare(json.load(a), json.load(b))
    for workload, name in bad:
        print(f"REGRESSED {name} on {workload}", file=sys.stderr)
    return 1 if bad else 0


def aa(args):
    first = measure(args)
    second = measure(args)
    bad = compare(first, second, verdict=_aa_verdict)
    for workload, name in bad:
        print(f"OUTSIDE-BOUND {name} on {workload}", file=sys.stderr)
    return 1 if bad or _failed(first) or _failed(second) else 0


def _failed(doc):
    return any(entry["failed"] for entry in doc["workloads"].values())


def run(args):
    doc = measure(args)
    print(render(doc))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1)
            handle.write("\n")
    return 1 if _failed(doc) else 0
