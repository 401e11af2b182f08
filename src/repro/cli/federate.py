"""``repro-extract federate`` - multi-vantage-point sketch federation.

Two actions mirror the deployment's two roles:

* ``federate collect`` runs a per-site collector over one trace and
  writes its interval digests as JSONL (one canonical digest document
  per line) - the exact bytes a live collector would ``POST /digest``
  to a federated daemon;
* ``federate merge`` is the argv shell over :func:`repro.api.federate`
  on digest files: it replays them through a federator - aligning
  intervals across sites, merging the sketches, running the detector
  bank over the merged view - and prints the released intervals plus
  the global incident ranking.

Digest files collected under different sketch parameters (seed,
clone geometry, features) are refused with exit code 2: merging
them would bin the counts by different hash functions.

Examples:
    repro-extract federate collect east.npz --site pop-east \\
        --out east.jsonl
    repro-extract federate collect west.npz --site pop-west \\
        --out west.jsonl
    repro-extract federate merge east.jsonl west.jsonl --top 5
"""

from __future__ import annotations

import argparse
import json

from repro.cli._common import (
    add_config_arg,
    add_config_flags,
    add_detector_args,
    add_format_arg,
    positive_int,
    run_config,
)


def add_parser(sub: argparse._SubParsersAction) -> None:
    fed = sub.add_parser(
        "federate",
        help="summarize per-site traces into sketch digests and merge "
        "them into one global detection and incident ranking",
    )
    fed_sub = fed.add_subparsers(dest="federate_command", required=True)

    collect = fed_sub.add_parser(
        "collect",
        help="digest one site's trace into interval digests (JSONL)",
    )
    collect.add_argument("trace", help="the site's trace (.npz/.csv)")
    collect.add_argument("--site", required=True,
                         help="this vantage point's name (must be "
                         "unique across the federation)")
    collect.add_argument("--out", required=True, metavar="FILE",
                         help="digest JSONL output path ('-' for "
                         "stdout)")
    add_config_arg(collect)
    add_detector_args(collect)
    collect.set_defaults(func=run_collect)

    merge = fed_sub.add_parser(
        "merge",
        help="merge digest files from N sites and rank the federated "
        "incidents",
    )
    merge.add_argument("digests", nargs="+", metavar="DIGESTS.JSONL",
                       help="digest files written by 'federate "
                       "collect', one or more sites")
    add_config_arg(merge)
    add_detector_args(merge)
    # Federated extraction has its own support floor (and store), and
    # no miner to configure: [federation] flags, not [mining] ones.
    add_config_flags(merge, "federation")
    merge.add_argument("--profile", default="balanced",
                       help="ranking weight profile "
                       "(balanced, volume, campaign)")
    merge.add_argument("--top", type=positive_int, default=None,
                       help="only the k best-ranked incidents")
    add_format_arg(merge, json_help="a single JSON document with the "
                   "released intervals and the ranked incidents")
    merge.set_defaults(func=run_merge)


def run_collect(args: argparse.Namespace) -> int:
    import sys

    from repro.federation import Collector
    from repro.flows import read_trace

    run = run_config(args)
    collector = Collector(
        site=args.site,
        config=run.base.detector,
        features=run.base.features,
        seed=args.seed,
    )
    trace = read_trace(args.trace)
    digests = collector.run(
        trace, args.interval_seconds, origin=args.origin
    )
    lines = [digest.to_json() for digest in digests]
    if args.out == "-":
        for line in lines:
            sys.stdout.write(line + "\n")
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    wire = sum(len(line.encode("utf-8")) + 1 for line in lines)
    print(
        f"site {args.site}: {len(digests)} digests over "
        f"{len(trace)} flows -> {args.out} ({wire} bytes)"
    )
    return 0


def run_merge(args: argparse.Namespace) -> int:
    from repro import api

    result = api.federate(
        args.digests,
        run_config(args),
        seed=args.seed,
        interval_seconds=args.interval_seconds,
        origin=args.origin,
        profile=args.profile,
        top=args.top,
    )
    sites, released = result.sites, result.intervals
    incidents = result.incidents
    if args.format == "json":
        print(json.dumps(
            {
                "sites": list(sites),
                "digests": result.digests,
                "intervals": [
                    {
                        "interval": fi.interval,
                        "sites": list(fi.sites),
                        "stragglers": list(fi.stragglers),
                        "flow_count": fi.flow_count,
                        "alarmed_features": list(fi.alarmed_features),
                        "report": (
                            fi.report.to_dict()
                            if fi.report is not None
                            else None
                        ),
                    }
                    for fi in released
                ],
                "incidents": [r.to_dict() for r in incidents],
            },
            sort_keys=True,
        ))
        return 0
    alarmed = [fi for fi in released if fi.alarm]
    stragglers = [fi for fi in released if fi.stragglers]
    print(
        f"{result.digests} digests from {len(sites)} sites "
        f"({', '.join(sites)}): {len(released)} intervals merged, "
        f"{len(alarmed)} alarmed, {len(stragglers)} with stragglers"
    )
    for fi in alarmed:
        extra = (
            f" (missing: {', '.join(fi.stragglers)})"
            if fi.stragglers else ""
        )
        print(
            f"  interval {fi.interval}: "
            f"{', '.join(fi.alarmed_features)} over "
            f"{fi.flow_count} flows{extra}"
        )
        if fi.report is not None:
            from repro.mining.items import format_item

            for triaged in fi.report.itemsets:
                rendered = " ".join(
                    format_item(i) for i in triaged.itemset.items
                )
                print(
                    f"    {rendered} support={triaged.itemset.support} "
                    f"[{triaged.hint}]"
                )
    if incidents:
        print(f"{len(incidents)} incidents (profile: {args.profile})")
        for entry in incidents:
            print(f"  {entry.render()}")
    return 0
