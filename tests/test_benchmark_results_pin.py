"""Bit-for-bit pin of benchmark case results.

For seeds 0 and 1, the first cases of the falsify, boundary, algebra and
annulus workloads in `benchmark/workloads.py` are run, and the JSON of every
result is hashed into one SHA-256 per workload.  The digests were recorded
before `Poly2` moved to integer numerators (the annulus ones before the
block-wise region tests and the generated variational right-hand side), so a
change of representation that moves any verdict, index, margin, witness or
sample count in these cases fails here.  Annulus seed 0 is the centred
scenario; its seed-1 cases are off-centre, and their (iii) `max_deviation`
pins the flowbox floats.  A double-cover case returns
`(lifted, IndexResult)`; its `IndexResult` is hashed, whose margin and
sample count pin the lift's floats.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "benchmark" / "workloads.py"

# workload -> number of leading cases run per seed
CASES = {"falsify": 100, "boundary": 64, "algebra": 10, "annulus": 2}

DIGESTS = {
    ('algebra', 0): 'e576b472ce1b5c491c36249a4e633ef070a398ab750895e3cf2537d9b357dd87',
    ('algebra', 1): 'f9e0b0b3769edf8b94891ceba488927f84f8178573b5126eccb13e1cdc33f8e2',
    ('annulus', 0): '761133248ffe4a99f5ea270454abe6e3bd33c89b0e5579d0c5d6ddcd0b67efd7',
    ('annulus', 1): '82ae56401ee61b13f71e33cc4d366a8f5250523bb89308538159ee2577dc2e49',
    ('boundary', 0): '9359d33d9586d22a04d279fcafcb8cbe0619a32834df9d6eb71c1f33707c20c2',
    ('boundary', 1): 'd4379580542a2b78353654f3a2c2a0978a4e5d100d0c305e2f788ece75343af6',
    ('falsify', 0): '8ce35082851dcc0eff69c7dbfddd1071a11ae7998c46de20ccd5442d3530c704',
    ('falsify', 1): '1c622671b02e758c3e90669d7b6a203c792868b22e334600c14ce5d887467d7f',
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _payload(result):
    if isinstance(result, tuple):       # double cover: (lifted evaluator, IndexResult)
        result = result[1]
    out = result.to_json()
    if isinstance(out, dict):
        out.pop("timing", None)
    return out


def _digest(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(json.dumps(_payload(case.run()), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", sorted(CASES))
def test_case_results_are_pinned(workloads, workload, seed):
    cases = workloads.WORKLOADS[workload].build(seed)[:CASES[workload]]
    assert _digest(cases) == DIGESTS[(workload, seed)]
