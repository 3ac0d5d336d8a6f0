"""Batch scenario runner: `vfblock verify <scenario.json> ...`.

Exit codes: 0 all checks pass, 1 any failure, 2 schema, certification or any
other error, 3 inconclusive.  VFBLOCK_MAX_DEPTH in the environment (or
--max-depth, which sets it) caps subdivision depth globally.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from .config import ENV_MAX_DEPTH
from .errors import ScenarioSchemaError, VfblockError
from .scenario import run_scenario

_EXIT_RANK = {0: 0, 3: 1, 1: 2, 2: 3}


def _worst_exit(codes) -> int:
    return max(codes, key=lambda c: _EXIT_RANK.get(c, 3), default=0)


def _plot_for(report_json: dict, scenario_data: dict, out_path: str):
    from fractions import Fraction

    from .certify import zero_enclosure
    from .fields import PlanarField
    from .regions import Region
    from .svgplot import emit_plot

    plot = scenario_data.get("plot")
    if not plot:
        return False
    surface = scenario_data.get("surface", "plane")
    fd = dict(scenario_data["fields"][plot["field"]])
    fd.setdefault("surface", surface)
    field = PlanarField.from_json(fd)
    region = Region.from_json(scenario_data["regions"][plot["region"]])
    resolution = Fraction(scenario_data.get("tolerances", {})
                          .get("resolution", "1/64"))
    enclosure = zero_enclosure(field, region, resolution)
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
    ver.add_argument("--jobs", type=int, default=1, help="parallel scenarios")
    args = parser.parse_args(argv)

    if args.max_depth is not None:
        os.environ[ENV_MAX_DEPTH] = str(args.max_depth)

    sources = []
    for path in args.scenarios:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as e:
            print(f"error: {path}: malformed JSON at line {e.lineno}, "
                  f"column {e.colno}: {e.msg}", file=sys.stderr)
            return 2
        if args.tol is not None:
            data.setdefault("tolerances", {})["tol"] = args.tol
        sources.append((path, data))

    def run_one(item):
        path, data = item
        try:
            return run_scenario(data).to_json(), None
        except ScenarioSchemaError as e:
            return None, f"{path}: {e}"
        except Exception as e:  # any crash is an error (2), never "failed" (1)
            return None, f"{path}: {type(e).__name__}: {e}"

    if args.jobs > 1 and len(sources) > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(run_one, sources))
    else:
        results = [run_one(s) for s in sources]

    codes = []
    reports = []
    for (path, data), (report, err) in zip(sources, results):
        if err is not None:
            print(f"error: {err}", file=sys.stderr)
            codes.append(2)
            continue
        reports.append(report)
        codes.append(report["exit_code"])
        for check in report["checks"]:
            print(f"{report['scenario']}: {check['name']}: {check['verdict']}")

    if args.report and reports:
        payload = reports[0] if len(reports) == 1 else {"reports": reports}
        with open(args.report, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    if args.plot and reports:
        try:
            done = _plot_for(reports[0], sources[0][1], args.plot)
            if not done:
                print("warning: first scenario has no plot block; no SVG written",
                      file=sys.stderr)
        except VfblockError as e:
            print(f"error: plotting failed: {e}", file=sys.stderr)
            codes.append(2)

    return _worst_exit(codes)


if __name__ == "__main__":
    sys.exit(main())
