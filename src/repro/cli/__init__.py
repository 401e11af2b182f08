"""Command-line interface.

Subcommands mirror the workflow of the paper, one module per
subcommand:

* ``generate`` - synthesize a labelled trace to a CSV/NPZ file;
* ``extract`` - run the full online pipeline over a ``.npz``/``.csv``
  trace or stdin with bounded memory and print the item-set report for
  every flagged interval as it completes (``--alarms-only``: list the
  detector bank's alarmed intervals instead);
* ``fleet`` - N named per-link pipelines behind one record router;
  prints per-pipeline summaries and the merged fleet-wide incident
  ranking;
* ``serve`` - run the fleet as a long-lived daemon: ``POST /ingest``
  and an optional TCP line socket feed it, ``GET /incidents`` serves
  the merged ranking, ``GET /metrics`` the Prometheus export, and a
  durable checkpoint file makes ``--resume`` continue a killed run
  mid-stream without re-ingesting;
* ``federate`` - multi-vantage-point aggregation over sketch digests:
  ``federate collect`` summarizes one site's trace as mergeable
  interval digests (JSONL), ``federate merge`` aligns and merges N
  sites' digest files, runs detection over the combined view, and
  prints the global incident ranking (incompatible sketch parameters
  are refused with exit 2);
* ``incidents`` - correlate and rank the reports persisted by
  ``--store`` into cross-interval incidents; ``incidents <db>
  explain <id>`` renders one ranked incident's full provenance
  (contributing intervals, per-feature detector votes, extraction
  context);
* ``table2`` - regenerate the Table II running example at any scale.

Every subcommand that runs or queries a pipeline accepts ``--config
run.toml``, one declarative :class:`~repro.core.config.RunConfig` file
for every verb; the flags typed override file values (each flag is
one entry of :data:`repro.cli._common.CONFIG_FLAGS`).

``extract`` accepts ``--format json`` for machine-readable output (one
JSON document per alarmed interval).

Examples:
    repro-extract generate --intervals 8 --out trace.npz
    repro-extract extract trace.npz --alarms-only
    repro-extract extract trace.npz --min-support 500
    repro-extract extract trace.npz --config run.toml
    cat trace.csv | repro-extract extract - --window 4
    repro-extract extract trace.csv --store incidents.db
    repro-extract fleet trace.csv --pipelines 2 --route "dst_ip%2"
    repro-extract serve --config fleet.toml --resume
    repro-extract federate collect east.npz --site east --out east.jsonl
    repro-extract federate merge east.jsonl west.jsonl --top 5
    repro-extract incidents incidents.db --top 5 --format json
    repro-extract incidents incidents.db explain 1
    repro-extract extract trace.csv --trace spans.jsonl
    repro-extract table2 --scale 0.05
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    extract,
    federate,
    fleet,
    generate,
    incidents,
    serve,
    table2,
)
from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-extract",
        description="Anomaly extraction with association rules "
        "(Brauckhoff et al. reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    for module in (generate, extract, fleet, serve, federate, incidents,
                   table2):
        module.add_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
