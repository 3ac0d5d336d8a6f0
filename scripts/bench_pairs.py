"""Alternating benchmark pairs: this checkout against an earlier revision.

    python scripts/bench_pairs.py PARENT_REV --workload annulus --pairs 10

The revision is checked out into a temporary `git worktree`, removed again at
the end.  Pair k runs `benchmark/run.py --workload W --seed SEED+k --trace 0`
once on each side, the parent first in even pairs and this checkout first in
odd ones, so a drift of the machine's speed does not favour one side.  This
checkout runs as it stands, uncommitted edits included.

For every end-to-end metric of BENCHMARK.json the script prints both medians,
the parent's quartiles and their spread, and in how many pairs this checkout
was better.  Then it runs `--trace 1` once on each side, at the first seed,
and prints every count-valued metric (cells, boxes, calls, samples) that
differs between the two, or "counts identical".  It writes nothing outside
the temporary worktree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(root: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The metrics {name: {"value", "unit"}} of one benchmark run in the
    checkout at `root`."""
    out = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["failed"]:
        print(f"  {root}: {result['failed']} of {result['attempted']} cases failed",
              file=sys.stderr)
    return result["metrics"]


def count_changes(parent: dict, change: dict) -> list[str]:
    """One line per count-valued metric whose value differs between two
    traced runs' metrics, or that only one of them reports."""
    names = [n for n in {**parent, **change}
             if (parent.get(n) or change[n])["unit"] == "count"]
    return [f"{name}: {parent.get(name, {}).get('value')} -> "
            f"{change.get(name, {}).get('value')}"
            for name in names if parent.get(name) != change.get(name)]


def summary(metrics, runs: dict[str, list[dict]]) -> list[str]:
    """One line per metric: medians, parent quartiles and spread, wins."""
    lines = [f"{'metric':14s} {'parent':>11s} {'change':>11s} "
             f"{'parent q1..q3':>23s} {'spread':>10s} {'wins':>6s}"]
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else (old[0],) * 3
        wins = sum((b > a) if higher else (b < a) for a, b in zip(old, new))
        lines.append(f"{name:14s} {statistics.median(old):11.5g} "
                     f"{statistics.median(new):11.5g} {q1:11.5g} {q3:11.5g} "
                     f"{q3 - q1:10.3g} {wins:3d}/{len(old)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", metavar="PARENT_REV", help="revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_root = Path(tmp) / "parent"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(parent_root),
                        args.parent], cwd=ROOT, check=True)
        try:
            for k in range(args.pairs):
                seed = args.seed + k
                order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
                for side in order:
                    root = parent_root if side == "parent" else ROOT
                    measured = run_side(root, args.workload, seed, args.seconds)
                    runs[side].append({n: m["value"] for n, m in measured.items()})
                print(f"pair {k + 1}/{args.pairs} seed {seed}: " + ", ".join(
                    f"{side} {runs[side][-1]['cases_per_s']:.4g}" for side in order)
                    + " cases_per_s", flush=True)
            traced = [run_side(root, args.workload, args.seed, args.seconds, trace=1)
                      for root in (parent_root, ROOT)]
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(parent_root)],
                           cwd=ROOT, check=False)
    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}, parent {args.parent}:")
    print("\n".join(summary(metrics, runs)))
    print(f"\ntraced counts at seed {args.seed}, parent -> change:")
    print("\n".join(count_changes(*traced)) or "counts identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
