"""Falsification harness: randomized tracking scenarios through the MAIN
verifier.  A ConclusionFailed verdict with all hypotheses certified would
contradict the theorem; the run exits nonzero and dumps diagnostics."""

import argparse
import json
import pathlib
import sys
import time

# run from a plain checkout: import vfblock from this checkout's src/
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from vfblock.corpus import falsification_run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resolution", default="1/16")
    parser.add_argument("--dump", help="write failing scenarios to this JSON file")
    args = parser.parse_args()

    t0 = time.time()
    summary = falsification_run(args.count, args.seed, args.resolution)
    dt = time.time() - t0
    print(json.dumps(summary.to_json(), indent=2))
    print(f"elapsed: {dt:.2f}s")
    if summary.conclusion_failures:
        if args.dump:
            with open(args.dump, "w", encoding="utf-8") as fh:
                json.dump(summary.failures, fh, indent=2)
        print("CONCLUSION FAILURES FOUND", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
