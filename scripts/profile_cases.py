"""cProfile over the first seeded cases of one benchmark workload.

    python scripts/profile_cases.py --workload algebra --cases 200
    python scripts/profile_cases.py --workload annulus --cases 4 --sort tottime
    python scripts/profile_cases.py --workload algebra --cases 40 --callers bracket

The cases are those `benchmark/run.py` times at seed 1: `benchmark/workloads.py`
builds the pool, and its first N cases run in order under one profiler (past
the end of the pool, it starts again from the first, as the benchmark's rounds
do).  The table shows the 40 heaviest functions.  Each case's guaranteed
result is checked outside the profile; a case whose check fails is reported
and makes the exit status nonzero.  The script prints to stdout and writes
nothing, no bytecode cache included.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
ROWS = 40


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--cases", type=int, required=True, help="profile the first N cases")
    parser.add_argument("--sort", choices=("cumulative", "tottime"), default="cumulative")
    parser.add_argument("--callers", metavar="PATTERN",
                        help="print the callers of the functions matching PATTERN")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.cases < 1:
        parser.error("--cases must be at least 1")
    pool = workloads.WORKLOADS[args.workload].build(SEED)
    cases = [pool[k % len(pool)] for k in range(args.cases)]
    profiler = cProfile.Profile()
    failed = 0
    for case in cases:
        result = profiler.runcall(case.run)
        problem = case.check(result)
        if problem is not None:
            failed += 1
            print(f"{case.kind}: {problem}", file=sys.stderr)
    print(f"{args.workload}, seed {SEED}: {len(cases)} cases, {failed} failed checks")
    stats = pstats.Stats(profiler, stream=sys.stdout).strip_dirs().sort_stats(args.sort)
    stats.print_stats(ROWS)
    if args.callers:
        stats.print_callers(args.callers)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
