"""Scenario schema, report determinism, CLI exit codes, SVG emission."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from vfblock.errors import ScenarioSchemaError
from vfblock.scenario import SCENARIO_SCHEMA, run_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def _cli(*args, env=None):
    full_env = dict(os.environ)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), full_env.get("PYTHONPATH"))))
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "vfblock.cli", *args],
                          capture_output=True, text=True, env=full_env)


def test_source_disk_scenario():
    report = run_scenario(str(SCENARIOS / "source_disk.json"))
    assert report.exit_code == 0
    check = report.checks[0]
    assert check.verdict == "pass"
    assert check.data["index"]["index"] == 1
    assert check.expected_ok is True


def test_annulus_mainbis_scenario():
    report = run_scenario(str(SCENARIOS / "annulus_mainbis.json"))
    assert report.exit_code == 0
    by_name = {c.name: c for c in report.checks}
    assert by_name["mainbis"].data["report"]["overall"]["status"] == "Pass"


def test_torus_scenario():
    report = run_scenario(str(SCENARIOS / "torus_four_blocks.json"))
    assert report.exit_code == 0
    indices = [c.data["index"]["index"] for c in report.checks]
    assert sorted(indices) == [-1, -1, 1, 1]
    assert sum(indices) == 0


def test_liealg_scenario():
    report = run_scenario(str(SCENARIOS / "liealg_uppertri.json"))
    assert report.exit_code == 0


def test_double_cover_scenario():
    report = run_scenario(str(SCENARIOS / "double_cover_annulus.json"))
    assert report.exit_code == 0


def test_malformed_json_raises_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioSchemaError) as exc:
        run_scenario(str(bad))
    assert "line" in str(exc.value)


def test_schema_violation_has_path():
    with pytest.raises(ScenarioSchemaError) as exc:
        run_scenario({"name": "x", "checks": [{"args": {}}]})
    assert "op" in str(exc.value)


def test_unknown_reference_is_schema_error():
    with pytest.raises(ScenarioSchemaError):
        run_scenario({"name": "x",
                      "checks": [{"op": "block_index",
                                  "args": {"X": "nope", "U": "nope"}}]})


def test_expectation_mismatch_fails():
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["checks"][0]["expect"] = {"index.index": 7}
    report = run_scenario(data)
    assert report.checks[0].expected_ok is False
    assert report.exit_code == 1


def test_certification_error_maps_to_exit_2():
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    # a disk whose boundary passes through the zero: BoundaryZero -> error
    data["regions"]["U"] = {"type": "disk", "center": ["1", "0"], "r": "1"}
    del data["checks"][0]["expect"]
    report = run_scenario(data)
    assert report.checks[0].verdict == "error"
    assert report.exit_code == 2


def test_report_determinism_bytes():
    a = run_scenario(str(SCENARIOS / "annulus_mainbis.json")).dumps()
    b = run_scenario(str(SCENARIOS / "annulus_mainbis.json")).dumps()
    assert a == b


def test_report_roundtrip():
    report = run_scenario(str(SCENARIOS / "source_disk.json"))
    parsed = json.loads(report.dumps())
    assert parsed["scenario"] == "source_disk"
    assert parsed["exit_code"] == 0


def test_cli_verify_and_report(tmp_path):
    out = tmp_path / "report.json"
    proc = _cli("verify", str(SCENARIOS / "source_disk.json"),
                "--report", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "source_index: pass" in proc.stdout
    data = json.loads(out.read_text())
    assert data["exit_code"] == 0


def test_cli_malformed_json_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    proc = _cli("verify", str(bad))
    assert proc.returncode == 2
    assert "malformed JSON" in proc.stderr


def test_cli_missing_file_exit_2():
    proc = _cli("verify", "/nonexistent/scenario.json")
    assert proc.returncode == 2


def test_cli_unexpected_exception_exit_2(tmp_path):
    # a 400-digit coefficient overflows float(): an error, not a failed check
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["fields"]["X"]["P"][0]["c"] = "1" + "0" * 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: OverflowError: " \
        "integer division result too large for a float\n"


def test_cli_max_depth_env_forces_depth_error(tmp_path):
    proc = _cli("verify", str(SCENARIOS / "source_disk.json"),
                env={"VFBLOCK_MAX_DEPTH": "2"})
    assert proc.returncode == 2


def test_cli_jobs_parallel(tmp_path):
    proc = _cli("verify", str(SCENARIOS / "source_disk.json"),
                str(SCENARIOS / "liealg_uppertri.json"), "--jobs", "2",
                "--report", str(tmp_path / "agg.json"))
    assert proc.returncode == 0
    agg = json.loads((tmp_path / "agg.json").read_text())
    assert len(agg["reports"]) == 2


def test_cli_plot_deterministic(tmp_path):
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    for out in (svg1, svg2):
        proc = _cli("verify", str(SCENARIOS / "source_disk.json"),
                    "--plot", str(out))
        assert proc.returncode == 0, proc.stderr
    b1, b2 = svg1.read_bytes(), svg2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert text.startswith("<?xml")
    assert "<circle" in text and "<rect" in text and "<path" in text


def test_plot_empty_enclosure(tmp_path):
    from vfblock.fields import plane_field
    from vfblock.poly import Poly2
    from vfblock.regions import disk
    from vfblock.certify import zero_enclosure
    from vfblock.svgplot import emit_plot
    from fractions import Fraction

    field = plane_field(Poly2.const(1), Poly2.zero())
    region = disk((0, 0), 1)
    enc = zero_enclosure(field, region, Fraction(1, 16))
    out = tmp_path / "empty.svg"
    svg = emit_plot(None, region, field, enc, str(out))
    assert 'fill="#e4572e"' not in svg  # no enclosure boxes drawn


def test_torus_plot_has_labels(tmp_path):
    data = json.loads((SCENARIOS / "torus_four_blocks.json").read_text())
    report = run_scenario(data)
    from vfblock.cli import _plot_for
    out = tmp_path / "torus.svg"
    assert _plot_for(report.to_json(), data, str(out))
    text = out.read_text()
    assert text.count("<text") == 4
    assert "1" in text and "-1" in text


def test_schema_is_published_and_valid():
    import jsonschema
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)
    published = json.loads((ROOT / "scenarios" / "scenario.schema.json").read_text())
    assert published == SCENARIO_SCHEMA
