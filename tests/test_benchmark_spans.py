"""Every span the traced benchmark requires must still be reached.

benchmark/run.py raises BenchmarkError when a traced workload never enters
one of its REQUIRED_SPANS, e.g. once the quadtree or the boundary pass stops
calling `Poly2.eval_interval`.  One traced round of every workload shows
such a move in the ordinary test run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "benchmark" / "run.py"


@pytest.fixture(scope="module")
def bench_run():
    spec = importlib.util.spec_from_file_location("_benchmark_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["annulus", "falsify", "boundary", "algebra"])
def test_traced_round_reaches_required_spans(bench_run, workload, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # run.py prepends src/ and benchmark/
    _, failures, _, _ = bench_run.traced(workload, 0, 0.0)   # BenchmarkError if a span is missed
    assert failures == []
