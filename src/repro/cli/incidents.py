"""``repro-extract incidents`` - query a persisted incident store."""

from __future__ import annotations

import argparse
import json

from repro.cli._common import (
    add_config_arg,
    add_config_flags,
    add_format_arg,
    positive_int,
    run_config,
)


def add_parser(sub: argparse._SubParsersAction) -> None:
    inc = sub.add_parser(
        "incidents",
        help="correlate and rank the reports of a --store database",
    )
    inc.add_argument("db", help="path to an incident store "
                     "(written by extract/stream --store)")
    inc.add_argument("action", nargs="?", choices=["explain"],
                     default=None,
                     help="'explain' renders the full provenance "
                     "narrative of one ranked incident (contributing "
                     "intervals, per-feature detector votes, "
                     "extraction context)")
    inc.add_argument("incident_id", nargs="?", type=int, default=None,
                     metavar="ID",
                     help="the incident to explain (see the ranked "
                     "listing for ids)")
    add_config_arg(inc)
    inc.add_argument("--top", type=positive_int, default=None,
                     help="only the k best-ranked incidents")
    inc.add_argument("--show", type=int, default=None, metavar="ID",
                     help="detail view of one incident (score "
                     "components + per-interval history)")
    inc.add_argument("--profile", default="balanced",
                     help="ranking weight profile "
                     "(balanced, volume, campaign)")
    add_config_flags(inc, "incidents.jaccard", "incidents.quiet_gap")
    add_format_arg(inc, json_help="a single JSON array of incidents "
                   "(one JSON object with --show or explain)")
    inc.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    from repro.errors import IncidentError
    from repro.incidents import open_store

    if args.action == "explain" and args.incident_id is None:
        raise IncidentError(
            "explain needs an incident id: incidents <db> explain <id>"
        )
    # Unset [incidents] knobs (None) defer to the store's own values.
    knobs = run_config(args).base.incidents
    with open_store(args.db, must_exist=True) as store:
        ranked = store.incidents(
            jaccard=knobs.jaccard,
            quiet_gap=knobs.quiet_gap,
            profile=args.profile,
        )
        if args.action == "explain":
            return _explain_incident(store, ranked, args)
        if args.show is not None:
            return _show_incident(store, ranked, args)
        total = len(ranked)
        if args.top is not None:
            ranked = ranked[: args.top]
        if args.format == "json":
            print(json.dumps(
                [r.to_dict() for r in ranked], sort_keys=True
            ))
            return 0
        if not ranked:
            if len(store) == 0:
                print("no incidents (store holds no reports)")
            else:
                print(
                    f"no incidents ({len(store)} reports stored, but "
                    "none carried item-sets to correlate)"
                )
            return 0
        shown = (
            f"top {len(ranked)} of {total} incidents"
            if len(ranked) < total else f"{total} incidents"
        )
        print(
            f"{len(store)} reports over intervals "
            f"{store.intervals()[0]}..{store.intervals()[-1]}, "
            f"{shown} (profile: {args.profile})"
        )
        for entry in ranked:
            print(f"  {entry.render()}")
        return 0


def _lookup(ranked, incident_id: int):
    """One ranked incident by id, or an IncidentError naming what the
    store does have (the exit-2 contract for unknown ids)."""
    from repro.errors import IncidentError

    by_id = {r.incident.incident_id: r for r in ranked}
    entry = by_id.get(incident_id)
    if entry is None:
        have = (
            f"{len(by_id)} incidents (ids {min(by_id)}..{max(by_id)})"
            if by_id else "no incidents"
        )
        raise IncidentError(f"no incident #{incident_id}; store has {have}")
    return entry


def _show_incident(store, ranked, args: argparse.Namespace) -> int:
    from repro.incidents import (
        explain_incident,
        render_vote_breakdown,
    )

    entry = _lookup(ranked, args.show)
    # Bound to this incident's own span: a closed predecessor may share
    # the same item-set key and its activity is not ours to show.
    history = store.itemset_history(
        entry.incident.key,
        since=entry.incident.first_seen,
        until=entry.incident.last_seen,
    )
    provenance = explain_incident(store, entry)
    if args.format == "json":
        data = entry.to_dict()
        data["history"] = [
            {"interval": i, "support": s, "hint": h}
            for i, s, h in history
        ]
        data["vote_breakdown"] = provenance.vote_breakdown()
        print(json.dumps(data, sort_keys=True))
        return 0
    print(entry.render())
    for name, value in sorted(entry.components.items()):
        print(f"  {name}: {value:.3f}")
    for line in render_vote_breakdown(
        provenance.vote_breakdown(), len(provenance.intervals)
    ):
        print(line)
    print("  key item-set history:")
    for interval, support, hint in history:
        print(f"    interval {interval}: support {support} ({hint})")
    return 0


def _explain_incident(store, ranked, args: argparse.Namespace) -> int:
    from repro.incidents import explain_incident

    entry = _lookup(ranked, args.incident_id)
    provenance = explain_incident(store, entry)
    if args.format == "json":
        print(json.dumps(provenance.to_dict(), sort_keys=True))
        return 0
    print(provenance.render())
    return 0
