"""Batch scenario runner: `vfblock verify <scenario.json> ...`.

The batch exits with the code (`verifier.EXIT_CODE`) of its worst verdict; a
file that cannot be read, parsed or run is an error.  VFBLOCK_MAX_DEPTH in the
environment (or --max-depth, which sets it for the length of the call) caps
subdivision depth globally; it must be an integer >= 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ENV_MAX_DEPTH, default_max_depth
from .errors import ScenarioSchemaError, VfblockError
from .scenario import Scenario, parse_scenario, run_scenario
from .verifier import ERROR, EXIT_CODE, worst


def _plot_for(report_json: dict, scenario: Scenario, out_path: str):
    from .certify import zero_enclosure
    from .svgplot import emit_plot

    if not scenario.plot:
        return False
    field = scenario.fields[scenario.plot["field"]]
    region = scenario.regions[scenario.plot["region"]]
    enclosure = zero_enclosure(field, region, scenario.resolution)
    emit_plot(report_json, region, field, enclosure, out_path)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vfblock")
    sub = parser.add_subparsers(dest="command", required=True)
    ver = sub.add_parser("verify", help="run scenario files and report verdicts")
    ver.add_argument("scenarios", nargs="+", help="scenario JSON files")
    ver.add_argument("--report", help="write the aggregate JSON report here")
    ver.add_argument("--plot", help="write an SVG figure (uses the scenario's plot block)")
    ver.add_argument("--tol", type=float, help="override the scenario tolerance")
    ver.add_argument("--max-depth", type=int, help="subdivision depth cap")
    args = parser.parse_args(argv)

    if args.max_depth is None:
        return _verify(args)
    if args.max_depth < 1:
        print(f"error: --max-depth must be at least 1, got {args.max_depth}",
              file=sys.stderr)
        return EXIT_CODE[ERROR]
    saved = os.environ.get(ENV_MAX_DEPTH)
    os.environ[ENV_MAX_DEPTH] = str(args.max_depth)
    try:
        return _verify(args)
    finally:    # the cap holds for this call only
        if saved is None:
            os.environ.pop(ENV_MAX_DEPTH, None)
        else:
            os.environ[ENV_MAX_DEPTH] = saved


def _verify(args) -> int:
    try:
        default_max_depth()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CODE[ERROR]

    sources = []
    for path in args.scenarios:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            return EXIT_CODE[ERROR]
        except json.JSONDecodeError as e:
            print(f"error: {path}: malformed JSON at line {e.lineno}, "
                  f"column {e.colno}: {e.msg}", file=sys.stderr)
            return EXIT_CODE[ERROR]
        if args.tol is not None and isinstance(data, dict):
            tolerances = data.setdefault("tolerances", {})
            if isinstance(tolerances, dict):    # other shapes fail the schema check
                tolerances["tol"] = args.tol
        sources.append((path, data))

    def run_one(item):
        path, data = item
        try:
            scenario = parse_scenario(data)
            return scenario, run_scenario(scenario), None
        except ScenarioSchemaError as e:
            return None, None, f"{path}: {e}"
        except Exception as e:  # any crash is an ERROR, never a FAIL
            return None, None, f"{path}: {type(e).__name__}: {e}"

    verdicts = []
    scenarios = []
    reports = []
    for scenario, report, err in map(run_one, sources):
        if err is not None:
            print(f"error: {err}", file=sys.stderr)
            verdicts.append(ERROR)
            continue
        scenarios.append(scenario)
        reports.append(report.to_json())
        verdicts.append(report.verdict)
        for check in report.checks:
            print(f"{report.name}: {check.name}: {check.verdict}")

    if args.report and reports:
        payload = reports[0] if len(reports) == 1 else {"reports": reports}
        try:
            with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        except OSError as e:
            print(f"error: cannot write {args.report}: {e}", file=sys.stderr)
            verdicts.append(ERROR)

    if args.plot and reports:
        try:
            if not _plot_for(reports[0], scenarios[0], args.plot):
                print("warning: first scenario has no plot block; no SVG written",
                      file=sys.stderr)
        except VfblockError as e:
            print(f"error: plotting failed: {e}", file=sys.stderr)
            verdicts.append(ERROR)
        except OSError as e:
            print(f"error: cannot write {args.plot}: {e}", file=sys.stderr)
            verdicts.append(ERROR)

    return EXIT_CODE[worst(verdicts)]


if __name__ == "__main__":
    sys.exit(main())
