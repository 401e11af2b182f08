"""``repro-extract generate`` - synthesize a labelled trace."""

from __future__ import annotations

import argparse

from repro.flows.io import trace_format, writers
from repro.traffic import TraceGenerator, switch_like


def add_parser(sub: argparse._SubParsersAction) -> None:
    gen = sub.add_parser("generate", help="synthesize a labelled trace")
    gen.add_argument("--intervals", type=int, default=8)
    gen.add_argument("--flows-per-interval", type=int, default=5000)
    gen.add_argument("--with-anomalies", action="store_true")
    gen.add_argument("--scale", type=float, default=0.05)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.traffic.scenarios import two_week_schedule

    write = writers[trace_format(args.out)]
    profile = switch_like(args.flows_per_interval)
    generator = TraceGenerator(profile, seed=args.seed)
    schedule = None
    if args.with_anomalies:
        schedule = two_week_schedule(
            profile,
            scale=args.scale,
            seed=args.seed,
            n_intervals=args.intervals,
        )
    trace = generator.generate(args.intervals, schedule=schedule)
    write(trace.flows, args.out)
    print(
        f"wrote {len(trace.flows)} flows over {args.intervals} intervals "
        f"to {args.out}"
    )
    for event in trace.events:
        print(f"  event {event.event_id}: {event.description}")
    return 0
