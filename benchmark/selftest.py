"""Checks of the benchmark itself (about a minute):

    python3 -m pytest benchmark/selftest.py -q

Not named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402
from vfblock import certify, index, scenario  # noqa: E402
from vfblock.certify import certify_block  # noqa: E402
from vfblock.corpus import falsification_run  # noqa: E402

COUNTED = [n for n in run.layer_metrics(Tracer(), 0.0)[1]
           if n.endswith(".calls") or n in run._COUNTERS]


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_counters_repeat_exactly(workload):
    first = run.traced(workload, 5, 1.0)
    second = run.traced(workload, 5, 1.0)
    assert not first[1] and not second[1]
    assert {n: first[2][n] for n in COUNTED} == {n: second[2][n] for n in COUNTED}


def test_tracer_patches_every_binding_and_restores():
    original = certify.min_norm_on_boundary
    assert index.min_norm_on_boundary is original
    tracer = Tracer()
    tracer.install()
    try:
        assert certify.min_norm_on_boundary is not original
        assert index.min_norm_on_boundary is certify.min_norm_on_boundary
    finally:
        tracer.uninstall()
    assert certify.min_norm_on_boundary is original
    assert index.min_norm_on_boundary is original


def test_annulus_seed0_is_the_shipped_scenario():
    path = ROOT / "scenarios" / "annulus_mainbis.json"
    shipped = json.loads(path.read_text())
    (center, r), = wl.annulus_params(0)
    ours = wl.annulus_scenario(center, r)
    a, b = scenario.parse_scenario(shipped), scenario.parse_scenario(ours)
    assert (a.fields, a.regions, a.points, a.resolution, a.tol) == \
        (b.fields, b.regions, b.points, b.resolution, b.tol)
    shipped_report = next(c for c in scenario.run_scenario(str(path)).checks
                          if c.op == "verify_mainbis").data["report"]
    case, = wl.build_annulus(0)
    report = case.run()
    assert case.check(report) is None
    assert report.to_json() == shipped_report
    block = certify_block(b.fields["X"], b.regions["U"], b.resolution)
    assert len(block.enclosure.boxes) == 2552


def test_falsify_tallies_match_falsification_run():
    count, seed = 40, 3
    tallies = {"Pass": 0, "HypothesisFailed": 0, "Inconclusive": 0, "ConclusionFailed": 0}
    for case in wl.build_falsify(seed)[:count]:
        report = case.run()
        assert case.check(report) is None
        tallies[report.overall["status"]] += 1
    summary = falsification_run(count, seed).to_json()
    assert (tallies["Pass"], tallies["HypothesisFailed"], tallies["Inconclusive"],
            tallies["ConclusionFailed"]) == (summary["passes"],
                                             summary["hypothesis_failures"],
                                             summary["inconclusive"],
                                             summary["conclusion_failures"])


class _Record:
    def __init__(self, name, verdict):
        self.name, self.verdict = name, verdict


class _Report:
    theorem = "MAIN"

    def __init__(self, status, hypothesis_verdict):
        self.overall = {"status": status}
        self.hypothesis_checks = [_Record("Y tracks X", hypothesis_verdict)]

    def to_json(self):
        return {}


def test_certified_conclusion_failure_aborts():
    check = wl._theorem_check("Pass", {"Y tracks X": "pass"})
    with pytest.raises(wl.TheoremContradiction):
        check(_Report("ConclusionFailed", "pass"))
    assert "expected Pass" in check(_Report("ConclusionFailed", "inconclusive"))
    assert check(_Report("Pass", "pass")) is None


def test_checkout_without_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "boundary",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_case_times_and_units():
    attempted, failures, metrics, units = run.end_to_end("boundary", 2, 1.0)
    assert not failures and attempted % 8 == 0
    assert set(metrics) == set(run.END_TO_END_UNITS) and units == run.END_TO_END_UNITS
    assert all(v > 0 for v in metrics.values())
    assert metrics["case_p50_s"] <= metrics["case_p90_s"]


def test_pools_are_seeded():
    assert wl.annulus_params(4) == wl.annulus_params(4)
    assert wl.annulus_params(4) != wl.annulus_params(5)
    assert all(r == Fraction(1) for _, r in wl.annulus_params(4))
