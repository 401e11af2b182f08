"""Fig. 5: iterative identification of anomalous bins.

Paper: the cleaning simulation resets, per round, the bin with the
largest absolute difference; the KL distance converges toward zero and
"already after the first round, the KL distance decreases
significantly".  We drive the algorithm with a flooding interval and
check the per-round KL trace.
"""

import numpy as np

from repro.anomalies import FloodingInjector
from repro.detection.binid import identify_anomalous_bins
from repro.detection.threshold import AlarmThreshold
from repro.sketch.hashing import HashFamily
from repro.traffic import TraceGenerator, switch_like


def _histograms():
    """Clean reference, clean previous-KL baseline, and flooded current
    dstIP histograms.

    The detector's alert condition is on the KL *first difference*, so
    the cleaning simulation targets the previous interval's KL level -
    the natural noise floor between two clean intervals - rather than
    zero.
    """
    profile = switch_like(20_000)
    generator = TraceGenerator(profile, seed=13)
    clean0 = generator.generate_interval(index=0, flow_count=20_000)
    clean1 = generator.generate_interval(index=1, flow_count=20_000)
    current_base = generator.generate_interval(index=2, flow_count=20_000)
    flood = FloodingInjector(
        victim_ip=profile.internal_base + 42,
        attacker_ips=[0x0C000001, 0x0C000002, 0x0C000003],
        target_port=7000,
        flows=5_000,
    ).generate(np.random.default_rng(4), 900.0, 900.0, label=0)

    hash_fn = HashFamily(bins=1024, seed=2).fresh()

    def hist(values):
        counts = np.zeros(1024)
        np.add.at(counts, hash_fn.hash_array(values), 1.0)
        return counts

    from repro.detection.kl import kl_from_counts

    reference = hist(clean1.dst_ip)
    previous_kl = kl_from_counts(reference, hist(clean0.dst_ip))
    current = hist(np.concatenate([current_base.dst_ip, flood.dst_ip]))
    victim_bin = hash_fn(profile.internal_base + 42)
    return current, reference, previous_kl, victim_bin


def test_fig5_iterative_cleaning():
    current, reference, previous_kl, victim_bin = _histograms()
    threshold = AlarmThreshold(sigma=0.005, multiplier=4.0)

    result = identify_anomalous_bins(
        current, reference, threshold, previous_kl
    )

    trace = np.array(result.kl_trace)
    drops = -np.diff(trace)
    rounds = f"KL per round: {' -> '.join(f'{v:.4f}' for v in trace)}"

    assert result.converged
    assert result.bins[0] == victim_bin
    # Convergence is fast: a concentrated anomaly needs few rounds.
    assert result.rounds <= 10, rounds
    # The Fig. 5 shape: the first round removes most of the distance
    # (tiny non-monotonic wiggles from renormalization are tolerated).
    assert drops[0] == drops.max(), rounds
    assert drops[0] > 0.9 * (trace[0] - trace[-1]), rounds
    assert (np.diff(trace) <= 1e-3).all(), rounds
