"""``repro-extract detect`` - run the histogram detector bank: the
argv shell over the bank a :func:`repro.api.session` builds."""

from __future__ import annotations

import argparse
import json

from repro import api
from repro.cli._common import (
    add_config_arg,
    add_detector_args,
    add_format_arg,
    run_config,
)
from repro.core.config import IncidentSettings, ObsSettings


def add_parser(sub: argparse._SubParsersAction) -> None:
    det = sub.add_parser("detect", help="run the detector bank")
    det.add_argument("trace")
    add_config_arg(det)
    add_detector_args(det)
    add_format_arg(det)
    det.set_defaults(func=run)


def run(args: argparse.Namespace) -> int:
    flows = api.read_trace(args.trace)
    # Detection persists nothing: no store, telemetry file or tracer is
    # opened, whatever the run config's [incidents]/[obs] tables say.
    with api.session(
        run_config(args), seed=args.seed,
        incidents=IncidentSettings(), obs=ObsSettings(),
    ) as session:
        run_ = session.extractor.detector_bank.run(
            flows, args.interval_seconds, origin=0.0
        )
    alarms = run_.alarm_intervals()
    if args.format == "json":
        for interval in alarms:
            report = run_.report(interval)
            print(json.dumps({
                "interval": interval,
                "start": interval * args.interval_seconds,
                "end": (interval + 1) * args.interval_seconds,
                "flow_count": report.flow_count,
                "alarmed_features": [
                    f.short_name for f in report.alarmed_features
                ],
            }, sort_keys=True))
        return 0
    print(f"{run_.n_intervals} intervals, {len(alarms)} alarms")
    for interval in alarms:
        report = run_.report(interval)
        features = ", ".join(f.short_name for f in report.alarmed_features)
        print(f"  interval {interval}: {features}")
    return 0
