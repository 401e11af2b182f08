"""Fixture: instruments built strictly from the catalog."""


def instrument(registry):
    flows = registry.counter(
        "repro_flows_processed_total",
        "Flows observed by the detector bank (late drops excluded).",
        ("pipeline",),
    )
    late = registry.counter(
        "repro_assembler_late_dropped_total",
        "Flows dropped by the assembler, split by reason.",
        ("pipeline", "reason"),
    )
    pending = registry.gauge(
        "repro_assembler_pending_intervals",
        "Intervals currently held open by the assembler.",
        ("pipeline",),
    )
    return flows, late, pending
