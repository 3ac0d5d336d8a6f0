"""vfblock benchmark: certified theorem verdicts per second, end to end and per layer.

    python3 benchmark/run.py --workload annulus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; vfblock is imported from its `src/`.  With
`--trace 0` the run times whole cases for `--seconds` and reports the
end-to-end metrics.  With `--trace 1` it runs a fixed number of rounds with
layer spans installed, then the same cases again without them, and reports
the per-layer metrics and the tracing overhead.  Every case is checked
against the verdict its construction guarantees.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Times are reference-scaled seconds: wall seconds multiplied by
REFERENCE_S / (duration of a fixed pure-Python reference loop, probed every
quarter second while the cases run).  On a shared machine whose speed drifts
by a fifth within a minute, the reference loop slows in step with vfblock, so
the scaled times of one program stay put while a slower program still reads
slower.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 4              # extra fresh processes timing import + input build
REFERENCE_S = 0.003           # the reference loop's duration that scaled times assume
PROBE_INTERVAL_S = 0.25       # wall seconds between reference probes during a pass
TRACE_COST_FACTOR = 2.5       # traced pass plus untraced pass, relative to one round
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"cases_per_s": "1/s", "case_p50_s": "s", "case_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: (metric, span, field) with field one of calls/s/self_s,
# plus counters and ratios computed in `layer_metrics`.
_SPAN_METRICS = [
    ("certify.enclosure", ("calls", "s", "self_s")),
    ("certify.margin", ("calls", "s")),
    ("certify.certify_block", ("self_s",)),
    ("certify.restrict_block", ("s",)),
    ("certify.components", ("s",)),
    ("regions.box_intersects_closure", ("calls", "s")),
    ("regions.box_clears_boundary", ("calls", "s")),
    ("regions.box_dist_sq", ("calls", "s")),
    ("poly.eval_interval", ("calls", "s")),
    ("trig.eval_interval", ("calls", "s")),
    ("fields.lie_bracket", ("calls", "s")),
    ("index.winding", ("calls", "s")),
    ("index.lipschitz", ("calls", "s")),
    ("index.double_cover", ("s",)),
    ("flows.integrate", ("calls", "s")),
    ("flows.flowbox_build", ("calls", "s")),
    ("linefield.flowbox_line_field", ("s",)),
    ("tracking.tracks_symbolic", ("calls", "s")),
    ("tracking.polish_zero", ("calls", "s")),
    ("liealg.structure_constants", ("s",)),
    ("liealg.supersolvable_flag", ("calls", "s")),
    ("liealg.common_zero_set", ("s",)),
    ("exactlin.kernel", ("calls", "s")),
    ("exactlin.intersect_subspaces", ("calls",)),
    ("upoly.rational_roots", ("calls", "s")),
    ("verifier.theorem", ("s",)),
    ("scenario.parse", ("s",)),
    ("corpus.generate", ("s",)),
]
_COUNTERS = ("certify.cells_examined", "certify.boxes_kept",
             "certify.discarded_interval", "certify.discarded_geometry",
             "index.winding_samples")

# Spans each workload must enter at least once in a traced run; a zero means a
# binding was missed by the tracer or the workload stopped reaching the layer.
REQUIRED_SPANS = {
    "annulus": ("certify.enclosure", "certify.margin", "certify.certify_block",
                "certify.restrict_block", "certify.components",
                "regions.box_intersects_closure", "regions.box_clears_boundary",
                "regions.box_dist_sq", "poly.eval_interval", "index.winding",
                "flows.integrate", "flows.flowbox_build",
                "linefield.flowbox_line_field", "tracking.tracks_symbolic",
                "tracking.polish_zero", "verifier.theorem", "scenario.parse"),
    "falsify": ("certify.enclosure", "certify.margin", "certify.certify_block",
                "regions.box_intersects_closure", "regions.box_clears_boundary",
                "regions.box_dist_sq", "poly.eval_interval", "fields.lie_bracket",
                "index.winding", "tracking.tracks_symbolic", "verifier.theorem",
                "corpus.generate"),
    "boundary": ("certify.margin", "poly.eval_interval", "trig.eval_interval",
                 "index.winding", "index.lipschitz", "index.double_cover"),
    "algebra": ("fields.lie_bracket", "liealg.structure_constants",
                "liealg.supersolvable_flag", "liealg.common_zero_set",
                "exactlin.kernel", "exactlin.intersect_subspaces",
                "upoly.rational_roots", "verifier.theorem"),
}
REQUIRED_COUNTERS = {
    "annulus": ("certify.cells_examined", "certify.boxes_kept",
                "certify.discarded_interval", "certify.discarded_geometry"),
    "boundary": ("index.winding_samples",),
}


class BenchmarkError(Exception):
    """The benchmark cannot run or its checks fail; exits nonzero, no result."""


def import_workloads():
    if not (SRC / "vfblock" / "__init__.py").is_file():
        raise BenchmarkError(f"no vfblock sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vfblock
    if Path(vfblock.__file__).resolve().parent != SRC / "vfblock":
        raise BenchmarkError(f"imported vfblock from {vfblock.__file__}, not {SRC}")
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    return workloads


def _reference_work():
    """A fixed mix of what vfblock spends its time on: Fraction arithmetic and
    comparisons, tuples and dicts, float math."""
    acc = Fraction(0)
    boxes = {}
    for i in range(400):
        a = Fraction(i % 97, 64)
        b = a * Fraction(3, 8) + Fraction(1, 3)
        boxes[i % 31] = (a, b)
        if b > acc:
            acc = b - a
    x = 0.0
    for i in range(3000):
        x += math.sqrt(i + 0.5) * 1.0000001
    return acc, x


def reference_seconds() -> float:
    """Median duration of three runs of the reference loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def build_cases(workload: str, seed: int):
    """Import vfblock and build the workload's cases; returns (module, cases,
    reference-scaled set-up seconds)."""
    before = reference_seconds()
    start = time.perf_counter()
    wl = import_workloads()
    cases = wl.WORKLOADS[workload].build(seed)
    wall = time.perf_counter() - start
    return wl, cases, wall * 2 * REFERENCE_S / (before + reference_seconds())


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: import plus input build."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    if out.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {out.stderr.strip()}")
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Reference-scaled case times and the cases that broke their guarantee.

    While a pass runs, a SIGALRM interval timer probes the reference loop
    every PROBE_INTERVAL_S wall seconds, also in the middle of a case.  The
    probes' own time is taken out of the case, and each case is scaled by the
    mean probe during it and on either side of it, so speed changes inside a
    long case are seen too.
    """

    def __init__(self):
        self.failures: list[str] = []
        self._cases: list[tuple[float, float, float]] = []   # start, end, own seconds
        self._probes: list[tuple[float, float]] = []         # time, reference seconds
        self._excluded = 0.0

    def __enter__(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self._probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def _probe(self):
        start = time.perf_counter()
        self._probes.append((start, reference_seconds()))
        self._excluded += time.perf_counter() - start

    def run(self, case, call=None):
        excluded = self._excluded
        start = time.perf_counter()
        try:
            result = (call or case.run)()
        except Exception as e:   # a raising case is a failed case, not a crash
            problem = f"raised {type(e).__name__}: {e}"
        else:
            problem = case.check(result)
        end = time.perf_counter()
        self._cases.append((start, end, end - start - (self._excluded - excluded)))
        if problem is not None:
            self.failures.append(f"{case.kind}: {problem}")

    @property
    def count(self) -> int:
        return len(self._cases)

    @property
    def raw_seconds(self) -> float:
        return sum(end - start for start, end, _ in self._cases)

    def scaled_times(self) -> list[float]:
        at = [t for t, _ in self._probes]
        out = []
        for start, end, own in self._cases:
            lo = max(bisect.bisect_right(at, start) - 1, 0)
            hi = bisect.bisect_left(at, end) + 1
            refs = [ref for _, ref in self._probes[lo:hi]]
            out.append(own * REFERENCE_S * len(refs) / sum(refs))
        return out


def rounds(cases, round_size: int):
    """Round after round of the pool, wrapping around when it runs out."""
    i = 0
    while True:
        yield [cases[(i + k) % len(cases)] for k in range(round_size)]
        i += round_size


def timed_run(cases, round_size: int, seconds: float) -> Tally:
    with Tally() as tally:
        start = time.perf_counter()
        for batch in rounds(cases, round_size):
            for case in batch:
                tally.run(case)
            if time.perf_counter() - start >= seconds:
                break
    return tally


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, seed: int, seconds: float):
    wl, cases, own_setup = build_cases(workload, seed)
    setups = [own_setup] + [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    tally = timed_run(cases, wl.WORKLOADS[workload].round_size, seconds)
    times = tally.scaled_times()
    metrics = {
        "cases_per_s": len(times) / sum(times),
        "case_p50_s": statistics.median(times),
        "case_p90_s": percentile(times, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return tally.count, tally.failures, metrics, {n: END_TO_END_UNITS[n] for n in metrics}


def traced_cases(workload, cases, seconds: float) -> list:
    """The cases of the traced pass: a number of rounds that depends on the
    arguments only, so two traced runs with the same arguments do the same
    work and counters."""
    batches = rounds(cases, workload.round_size)
    count = max(1, int(seconds / (TRACE_COST_FACTOR * workload.nominal_round_s)))
    return [case for _ in range(count) for case in next(batches)]


def traced(workload: str, seed: int, seconds: float):
    wl = import_workloads()
    from tracer import Tracer

    spec = wl.WORKLOADS[workload]
    tracer = Tracer()
    tracer.install()
    try:
        cases = spec.build(seed)
        chosen = traced_cases(spec, cases, seconds)
        case_span = tracer.wrap("case", lambda c: c.run())
        with Tally() as tally:
            for case in chosen:
                tally.run(case, lambda: case_span(case))
    finally:
        tracer.uninstall()
    # fresh objects from the same seed, so neither pass finds the caches warm
    with Tally() as plain:
        for case in traced_cases(spec, spec.build(seed), seconds):
            plain.run(case)

    missing = [s for s in REQUIRED_SPANS[workload] if not tracer.stats[s][0]]
    missing += [c for c in REQUIRED_COUNTERS.get(workload, ()) if not tracer.counters[c]]
    if missing:
        raise BenchmarkError(f"traced {workload} run never reached {missing}")
    traced_s = sum(tally.scaled_times())
    metrics, units = layer_metrics(tracer, traced_s / sum(plain.scaled_times()) - 1,
                                   traced_s / tally.raw_seconds)
    return tally.count + plain.count, tally.failures + plain.failures, metrics, units


def layer_metrics(tracer, overhead_frac: float, scale: float = 1.0):
    """Per-layer metrics; span seconds are multiplied by the traced pass's
    reference scale."""
    metrics, units = {}, {}
    for span, fields in _SPAN_METRICS:
        calls, incl, self_s = tracer.stats[span]
        for field in fields:
            name = f"{span}.{field}"
            metrics[name] = {"calls": calls, "s": incl * scale, "self_s": self_s * scale}[field]
            units[name] = "count" if field == "calls" else "s"
    for name in _COUNTERS:
        metrics[name] = tracer.counters[name]
        units[name] = "count"
    examined = tracer.counters["certify.cells_examined"]
    metrics["certify.keep_ratio"] = (
        tracer.counters["certify.boxes_kept"] / examined if examined else 0.0)
    units["certify.keep_ratio"] = "ratio"
    metrics["verifier.self_s"] = tracer.stats["verifier.theorem"][2] * scale
    units["verifier.self_s"] = "s"
    _, case_s, case_self = tracer.stats["case"]
    # time inside cases that no layer span below the theorem root accounts for
    metrics["trace.unattributed_frac"] = (
        (case_self + tracer.stats["verifier.theorem"][2]) / case_s if case_s else 0.0)
    units["trace.unattributed_frac"] = "ratio"
    metrics["trace.overhead_frac"] = overhead_frac
    units["trace.overhead_frac"] = "ratio"
    return metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REQUIRED_SPANS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(build_cases(args.workload, args.seed)[2])
            return 0
        run = traced if args.trace else end_to_end
        attempted, failures, metrics, units = run(args.workload, args.seed, args.seconds)
    except BenchmarkError as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 2
    except ImportError as e:
        print(f"benchmark: cannot import vfblock: {e}", file=sys.stderr)
        return 2
    failed = len(failures)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cases={attempted} failed={failed} failed_frac={failed / attempted:.4f}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
