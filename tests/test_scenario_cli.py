"""Scenario schema, report determinism, CLI exit codes, SVG emission."""

import ast
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from vfblock.corpus import falsification_run
from vfblock.errors import ScenarioSchemaError
from vfblock.scenario import CHECK_OPS, SCENARIO_SCHEMA, parse_scenario, run_scenario
from vfblock.verifier import EXIT_CODE

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


def _verdicts(report):
    """Every check's verdict, and those inside a theorem report, in order."""
    out = []
    for check in report.checks:
        out.append(check.verdict)
        inner = check.data.get("report", {})
        out += [c["verdict"] for key in ("hypotheses", "conclusions") for c in inner.get(key, ())]
    return out


def test_annulus_mainbis_with_a_huge_k_finishes_with_k3_verdicts():
    # a polynomial's partials past its degree are zero, so the k-flat locus
    # stops there instead of building O(k^2) zero polynomials
    data = json.loads((SCENARIOS / "annulus_mainbis.json").read_text())
    reports = []
    for k in (3, 10 ** 6):
        data["checks"][1]["args"]["k"] = k
        reports.append(run_scenario(json.loads(json.dumps(data))))
    assert _verdicts(reports[0]) == _verdicts(reports[1])
    assert reports[1].exit_code == 0


def test_torus_scenario():
    report = run_scenario(str(SCENARIOS / "torus_four_blocks.json"))
    assert report.exit_code == 0
    indices = [c.data["index"]["index"] for c in report.checks]
    assert sorted(indices) == [-1, -1, 1, 1]
    assert sum(indices) == 0


def test_liealg_scenario():
    report = run_scenario(str(SCENARIOS / "liealg_uppertri.json"))
    assert report.exit_code == 0


_SL2_LINE = {f"x{i}": {"P": [{"i": i, "j": 0, "c": "1"}], "Q": []} for i in range(3)}
_UPPERTRI = {"x": {"P": [{"i": 1, "j": 0, "c": "1"}], "Q": []},
             "y": {"P": [{"i": 0, "j": 1, "c": "1"}], "Q": []},
             "ydy": {"P": [], "Q": [{"i": 0, "j": 1, "c": "1"}]}}
_EUCLIDEAN = {"rot": {"P": [{"i": 0, "j": 1, "c": "-1"}], "Q": [{"i": 1, "j": 0, "c": "1"}]},
              "dx": {"P": [{"i": 0, "j": 0, "c": "1"}], "Q": []},
              "dy": {"P": [], "Q": [{"i": 0, "j": 0, "c": "1"}]}}


@pytest.mark.parametrize("fields, want, verdict", [
    (_SL2_LINE, '{"flag": {"status": "not_solvable", "chain": []}}', "fail"),
    (_EUCLIDEAN, '{"flag": {"status": "no_real_flag", "chain": []}}', "fail"),
    (_UPPERTRI, '"status": "flag"', "pass"),
], ids=["sl2_line", "euclidean", "uppertri"])
def test_supersolvable_op_runs_the_derived_series_once(monkeypatch, fields, want, verdict):
    # the op reads not_solvable off the flag search's own derived series, so
    # it runs once: for 1, x and x^2 times d/dx, which span sl(2) and report
    # no chain, and for a solvable algebra alike.  It fails, exit 1, unless
    # there is a flag: sl(2) has none, nor has the rotation with d/dx and
    # d/dy, whose ad(rotation) turns the translations by +-i
    import vfblock.liealg as liealg
    calls = []

    def counted(g):
        calls.append(g)
        return solvability(g)

    solvability = liealg.solvability
    monkeypatch.setattr(liealg, "solvability", counted)
    report = run_scenario({"name": "flag", "fields": fields,
                           "algebras": {"g": {"basis": list(fields)}},
                           "checks": [{"op": "supersolvable", "args": {"g": "g"}}]})
    assert want in json.dumps(report.checks[0].data)
    assert (report.checks[0].verdict, report.exit_code) == (verdict, EXIT_CODE[verdict])
    assert len(calls) == 1


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


def test_cli_marks_an_unmet_expectation(tmp_path, capsys):
    # the check itself passes, but not with the expected index: exit 1, and
    # the line says why
    from vfblock.cli import main
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["checks"][0]["expect"] = {"index.index": 2}
    path = tmp_path / "unmet.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == "source_disk: source_index: pass (expectation not met)\n"


@pytest.mark.parametrize("region, message", [
    ({"type": "disk", "center": ["0", "0", "0"], "r": "1"},
     "at $['regions']['U']['center']: ['0', '0', '0'] is too long"),
    ({"type": "disk", "center": ["0", "0"], "r": "1", "r_in": "1/2"},
     "at $['regions']['U']: Additional properties are not allowed ('r_in' was unexpected)"),
    ({"type": "annulus", "center": ["0", "0"], "r_in": "1/2"},
     "at $['regions']['U']: 'r_out' is a required property"),
    ({"type": "disk", "center": ["0"], "r": "1"},
     "at $['regions']['U']['center']: ['0'] is too short"),
    ({"type": "rect", "corners": [["-1", "-1"], ["1"]]},
     "at $['regions']['U']['corners'][1]: ['1'] is too short"),
])
def test_cli_region_schema_names_the_key(tmp_path, capsys, region, message):
    from vfblock.cli import main
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["regions"]["U"] = region
    path = tmp_path / "region.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: schema violation {message}\n"


def test_certification_error_maps_to_exit_2():
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    # a disk whose boundary passes through the zero: BoundaryZero -> error
    data["regions"]["U"] = {"type": "disk", "center": ["1", "0"], "r": "1"}
    del data["checks"][0]["expect"]
    report = run_scenario(data)
    assert report.checks[0].verdict == "error"
    assert report.exit_code == 2


def _inconclusive_scenario():
    """verify_main on a disk whose boundary passes through the zero of X:
    no block can be certified, so the theorem comes back inconclusive."""
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["name"] = "no_block"
    data["regions"]["U"] = {"type": "disk", "center": ["1", "0"], "r": "1"}
    data["checks"] = [{"op": "verify_main", "name": "main",
                       "args": {"X": "X", "Y": "X", "U": "U"}}]
    return data


def test_inconclusive_check_exits_3():
    report = run_scenario(_inconclusive_scenario())
    assert report.checks[0].verdict == "inconclusive"
    assert report.exit_code == 3


def test_expectation_mismatch_on_inconclusive_check_exits_1():
    data = _inconclusive_scenario()
    data["checks"][0]["expect"] = {"report.overall.status": "Pass"}
    report = run_scenario(data)
    assert report.checks[0].verdict == "inconclusive"
    assert report.checks[0].expected_ok is False
    assert report.exit_code == 1


def test_cli_batch_exits_with_worst_verdict(tmp_path, capsys):
    from vfblock.cli import main
    inconclusive = tmp_path / "inconclusive.json"
    inconclusive.write_text(json.dumps(_inconclusive_scenario()), encoding="utf-8")
    batch = ["verify", str(SCENARIOS / "source_disk.json"), str(inconclusive)]
    assert main(batch) == 3
    assert capsys.readouterr().out == ("source_disk: source_index: pass\n"
                                       "no_block: main: inconclusive\n")
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"name": "malformed", "checks": []}),
                         encoding="utf-8")
    assert main(batch + [str(malformed)]) == 2
    out, err = capsys.readouterr()
    assert out.splitlines() == ["source_disk: source_index: pass",
                                "no_block: main: inconclusive"]
    assert err.startswith(f"error: {malformed}: schema violation")


@pytest.mark.parametrize("points", [[], None])
def test_cli_component_orders_without_points_is_that_checks_error(tmp_path, points):
    # an empty or missing point list errs in its own check, after the pass line
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    args = {"X": "X", "k": 1}
    if points is not None:
        args["points"] = points
    data["checks"].append({"op": "component_orders", "name": "orders", "args": args})
    path = tmp_path / "two_checks.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert proc.stdout == "source_disk: source_index: pass\nsource_disk: orders: error\n"
    assert run_scenario(data).checks[1].data == {
        "error": "PreconditionFailed", "message": "need at least one point"}


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


_OVERFLOW = {"error": "OverflowError",
             "message": "integer division result too large for a float"}


def test_cli_unexpected_exception_exit_2(tmp_path):
    # a 400-digit coefficient overflows float(): that check's error, not a failure
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["fields"]["X"]["P"][0]["c"] = "1" + "0" * 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("source_disk: source_index: error\n", "")
    assert run_scenario(data).checks[0].data == _OVERFLOW


def test_cli_crashing_check_keeps_the_other_checks(tmp_path):
    # a check that raises a non-vfblock exception errs alone, after the pass line
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["fields"]["H"] = {"P": [{"i": 1, "j": 0, "c": "1" + "0" * 400}],
                           "Q": [{"i": 0, "j": 1, "c": "1"}], "k": 1}
    data["checks"].append({"op": "block_index", "name": "huge",
                           "args": {"X": "H", "U": "U"}})
    path = tmp_path / "two_checks.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert proc.stdout == "source_disk: source_index: pass\nsource_disk: huge: error\n"
    assert proc.stderr == ""
    report = run_scenario(data)
    assert [c.verdict for c in report.checks] == ["pass", "error"]
    assert report.checks[1].data == _OVERFLOW


def test_schema_error_inside_a_check_still_ends_the_scenario(monkeypatch):
    from vfblock import scenario

    def broken(**args):
        raise ScenarioSchemaError("bad argument")

    _, kinds, keys = scenario.CHECK_OPS["block_index"]
    monkeypatch.setitem(scenario.CHECK_OPS, "block_index", (broken, kinds, keys))
    with pytest.raises(ScenarioSchemaError, match="bad argument"):
        run_scenario(json.loads((SCENARIOS / "source_disk.json").read_text()))


@pytest.mark.parametrize("term, where", [
    ({"i": -1, "j": 0, "c": "1"}, "['P'][0]['i']"),   # negative exponent
    ({"i": 1, "j": 0, "c": 0.5}, "['P'][0]['c']"),    # float coefficient
    ({"i": 1, "c": "1"}, "['P'][0]"),                 # missing exponent
    ({"i": 1, "j": 0, "c": "1", "m": 2}, "['P'][0]"),  # mixed term shapes
])
def test_cli_malformed_term_exit_2(tmp_path, term, where):
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["fields"]["X"]["P"][0] = term
    path = tmp_path / "term.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert f"schema violation at $['fields']['X']{where}:" in proc.stderr


# ops deleted because the exact tracking certificate proves what three of them
# sampled and the fourth, orientability, could only pass; then four that only
# re-exposed a step the theorem verifiers certify in their reports, and passed
# whatever they found (solvability on sl(2), common_zero_set on an empty Z(g))
_REMOVED_OPS = ("tracking_residual", "orientability_of_field", "zero_invariance",
                "order_invariance", "certify_block", "perturbation_bound", "solvability",
                "common_zero_set")


@pytest.mark.parametrize("op", _REMOVED_OPS)
def test_cli_removed_op_exit_2(tmp_path, op):
    data = json.loads((SCENARIOS / "annulus_mainbis.json").read_text())
    data["checks"] = [{"op": op, "name": op, "args": {"X": "X", "Y": "Y", "U": "U"}}]
    path = tmp_path / "removed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    prefix = f"error: {path}: unknown op {op!r}; known: "
    assert proc.stderr.startswith(prefix) and proc.stderr.endswith("]\n")
    known = ast.literal_eval(proc.stderr[len(prefix):])
    assert known == sorted(CHECK_OPS)
    assert not set(known) & set(_REMOVED_OPS)


@pytest.mark.parametrize("op, args, key, value", [
    ("homotopy", {"X0": "X", "X1": "X", "U": "U"}, "steps", 2.9),
    ("homotopy", {"X0": "X", "X1": "X", "U": "U"}, "steps", "3"),
    ("homotopy", {"X0": "X", "X1": "X", "U": "U"}, "steps", True),
    ("jet_order", {"X": "X", "p": "origin"}, "k", 1.5),
])
def test_cli_non_integer_count_exit_2(tmp_path, op, args, key, value):
    # int() would run 2.9 steps as 2, and k = 1.5 as k = 1, and pass
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["points"] = {"origin": ["0", "0"]}
    data["checks"] = [{"op": op, "name": op, "args": {**args, key: value}}]
    message = (f"schema violation at $['checks'][0]['args'][{key!r}]: "
               f"{value!r} is not of type 'integer'")
    with pytest.raises(ScenarioSchemaError) as caught:
        run_scenario(data)
    assert str(caught.value) == message
    path = tmp_path / "count.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("op, args, key, value, minimum", [
    ("verify_mainbis", {"X": "X", "Y": "X", "U": "U"}, "k", 0, 1),
    ("jet_order", {"X": "X", "p": "origin"}, "k", -1, 1),
    ("component_orders", {"X": "X", "points": ["origin"]}, "k", 0, 1),
    ("factor_y_power", {"F": "X"}, "l", 0, 1),
    ("homotopy", {"X0": "X", "X1": "X", "U": "U"}, "steps", 1, 2),
])
def test_count_below_minimum_is_schema_error(tmp_path, op, args, key, value, minimum):
    # verify_mainbis with k = 0 used to report a crashed check ("k must be >= 1")
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["points"] = {"origin": ["0", "0"]}
    data["checks"] = [{"op": op, "name": op, "args": {**args, key: value}}]
    message = (f"schema violation at $['checks'][0]['args'][{key!r}]: "
               f"{value!r} is less than the minimum of {minimum}")
    with pytest.raises(ScenarioSchemaError) as caught:
        run_scenario(data)
    assert str(caught.value) == message
    path = tmp_path / "count.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_cli_non_finite_tol_exit_2(tol):
    # NaN or infinity would make the flowbox control check fail or pass vacuously
    path = SCENARIOS / "annulus_mainbis.json"
    proc = _cli("verify", str(path), "--tol", tol)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: tolerance 'tol' must be finite and " \
        f"positive, got {tol}\n"


@pytest.mark.parametrize("shape, message", [
    ("top", "schema violation at $: [] is not of type 'object'"),
    ("tolerances", "schema violation at $['tolerances']: 5 is not of type 'object'"),
])
def test_cli_tol_override_on_malformed_scenario_exit_2(tmp_path, shape, message):
    # --tol writes into the scenario before the schema check sees it
    data = json.loads((SCENARIOS / "annulus_mainbis.json").read_text())
    if shape == "top":
        data = []
    else:
        data["tolerances"] = 5
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path), "--tol", "1e-6")
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: {message}\n"


@pytest.mark.parametrize("where", ["file", "check"])
def test_non_finite_tol_in_scenario_is_schema_error(tmp_path, where):
    data = json.loads((SCENARIOS / "annulus_mainbis.json").read_text())
    if where == "file":
        data["tolerances"]["tol"] = math.nan
    else:
        next(c for c in data["checks"] if c["op"] == "verify_mainbis")["args"]["tol"] = math.nan
    with pytest.raises(ScenarioSchemaError, match="'tol' must be finite and positive"):
        run_scenario(data)
    path = tmp_path / "nan_tol.json"
    path.write_text(json.dumps(data), encoding="utf-8")   # json writes a bare NaN
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert proc.stderr.count("error:") == 1


@pytest.mark.parametrize("resolution", ["abc", "nan", "1/0"])
def test_malformed_resolution_is_schema_error(tmp_path, resolution):
    # Fraction() raises ValueError or ZeroDivisionError on these
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data.setdefault("tolerances", {})["resolution"] = resolution
    message = f"resolution {resolution!r} is not a rational number"
    with pytest.raises(ScenarioSchemaError, match=message):
        run_scenario(data)
    path = tmp_path / "resolution.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("resolution, problem", [
    ("abc", "'abc' is not a rational number"), ("nan", "'nan' is not a rational number"),
    ("1/0", "'1/0' is not a rational number"), ("0", "must be positive, got '0'"),
    ("-1/8", "must be positive, got '-1/8'")])
def test_malformed_check_resolution_is_schema_error(tmp_path, resolution, problem):
    # a check's own resolution gets the schema message, not a crashed check
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["checks"][0]["args"]["resolution"] = resolution
    message = f"check argument 'resolution' {problem}"
    with pytest.raises(ScenarioSchemaError) as caught:
        run_scenario(data)
    assert str(caught.value) == message
    path = tmp_path / "check_resolution.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("base, edit, message", [
    ("source_disk", lambda d: d["fields"]["X"]["P"][0].update(c="1/0"),
     "field 'X': coefficient '1/0' is not a rational number"),
    ("torus_four_blocks", lambda d: d["fields"]["X"]["Q"][0].update(c={"pi1": "2/0"}),
     "field 'X': coefficient '2/0' is not a rational number"),
    ("source_disk", lambda d: d["regions"]["U"].update(center=["1/0", "0"]),
     "region 'U': center '1/0' is not a rational number"),
    ("source_disk", lambda d: d["regions"]["U"].update(r="one"),
     "region 'U': r 'one' is not a rational number"),
    ("source_disk", lambda d: d.update(points={"p": ["0", "1/0"]}),
     "point 'p': coordinate '1/0' is not a rational number")],
    ids=["coefficient", "torus-coefficient", "center", "radius", "point"])
def test_malformed_rational_names_key_and_value(tmp_path, base, edit, message):
    # each rational of the file goes through one parser, which names what is bad
    data = json.loads((SCENARIOS / f"{base}.json").read_text())
    edit(data)
    with pytest.raises(ScenarioSchemaError) as caught:
        run_scenario(data)
    assert str(caught.value) == message
    path = tmp_path / "rational.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path))
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"error: {path}: {message}\n")


_OVER_EXPONENT = "has a decimal exponent over 4300 in magnitude"


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["fields"]["X"]["P"][0].update(c="1e100000000"),
     f"field 'X': coefficient '1e100000000' {_OVER_EXPONENT}"),
    (lambda d: d["fields"]["X"]["Q"][0].update(c="-2.5E-4_301"),
     f"field 'X': coefficient '-2.5E-4_301' {_OVER_EXPONENT}"),
    (lambda d: d["regions"]["U"].update(r="1e04301"), f"region 'U': r '1e04301' {_OVER_EXPONENT}"),
    (lambda d: d.setdefault("tolerances", {}).update(resolution="1e-100000000"),
     f"resolution '1e-100000000' {_OVER_EXPONENT}"),
    (lambda d: d["regions"]["U"].update(r="0." + "1" * 4301),
     f"region 'U': r '0.{'1' * 4301}' has over 4300 digits after the point")],
    ids=["coefficient", "negative-exponent", "radius", "resolution", "fraction-digits"])
def test_huge_decimal_exponent_exits_2_naming_the_key(tmp_path, capsys, edit, message):
    # Fraction() would take minutes on these, or on a longer fraction; the parse
    # refuses them at once
    from vfblock.cli import main
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    edit(data)
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {path}: {message}\n")


def test_decimal_exponent_of_4300_parses():
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["fields"]["X"]["P"][0]["c"] = "1e4300"
    data["fields"]["X"]["Q"][0]["c"] = "-1E-4_300"
    field = parse_scenario(data).fields["X"]
    assert field.p.monomials() == {(1, 0): Fraction(10) ** 4300}
    assert field.q.monomials() == {(0, 1): -Fraction(1, 10 ** 4300)}


@pytest.mark.parametrize("op, key, value", [
    ("component_orders", "points", "origin"), ("component_orders", "points", 5),
    ("component_orders", "points", "oo"), ("verify_main", "known_zeros", "origin"),
    ("verify_main", "known_zeros", 5), ("verify_main", "known_zeros", "oo"),
    ("component_orders", "points", [["o"]])])
def test_point_list_argument_must_be_a_list_of_names(tmp_path, op, key, value):
    # a string was read letter by letter: "oo" meant [o, o] and "origin" failed
    # on point 'o'; an int crashed the check with a TypeError
    data = json.loads((SCENARIOS / "main_euler_rotation.json").read_text())
    data["points"]["o"] = ["0", "0"]
    args = {"X": "X", key: value} if op == "component_orders" else \
        {"X": "X", "Y": "Y", "U": "U", key: value}
    data["checks"] = [{"op": op, "args": args}]
    where, bad, kind = (f"[{key!r}][0]", value[0], "string") if isinstance(value, list) \
        else (f"[{key!r}]", value, "array")
    message = f"schema violation at $['checks'][0]['args']{where}: {bad!r} is not of type {kind!r}"
    with pytest.raises(ScenarioSchemaError) as caught:
        run_scenario(data)
    assert str(caught.value) == message
    if value == "origin":
        path = tmp_path / "points.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        proc = _cli("verify", str(path))
        assert proc.returncode == 2
        assert (proc.stdout, proc.stderr) == ("", f"error: {path}: {message}\n")


@pytest.mark.parametrize("value", [["origin"], 5, None])
def test_point_argument_must_be_a_name(value):
    data = json.loads((SCENARIOS / "main_euler_rotation.json").read_text())
    args = {"X": "X"} if value is None else {"X": "X", "p": value}
    data["checks"] = [{"op": "jet_order", "args": args}]
    with pytest.raises(ScenarioSchemaError) as caught:
        run_scenario(data)
    assert str(caught.value) == "schema violation at $['checks'][0]['args']" + (
        ": 'p' is a required property" if value is None else
        f"['p']: {value!r} is not of type 'string'")
    data["checks"][0]["args"]["p"] = "origin"
    assert run_scenario(data).checks[0].verdict == "pass"


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_cli_max_depth_below_one_exit_2(depth):
    proc = _cli("verify", str(SCENARIOS / "annulus_mainbis.json"), "--max-depth", depth)
    assert proc.returncode == 2
    assert proc.stderr == f"error: --max-depth must be at least 1, got {depth}\n"


def test_cli_max_depth_env_forces_depth_error(tmp_path):
    proc = _cli("verify", str(SCENARIOS / "source_disk.json"),
                env={"VFBLOCK_MAX_DEPTH": "2"})
    assert proc.returncode == 2


def test_cli_max_depth_lasts_one_call(monkeypatch, capsys):
    from vfblock.cli import main
    source = str(SCENARIOS / "source_disk.json")
    monkeypatch.delenv("VFBLOCK_MAX_DEPTH", raising=False)
    assert main(["verify", source, "--max-depth", "2"]) == 2     # depth cap reached
    assert "VFBLOCK_MAX_DEPTH" not in os.environ
    assert main(["verify", source]) == 0                        # default cap again
    monkeypatch.setenv("VFBLOCK_MAX_DEPTH", "29")
    assert main(["verify", source, "--max-depth", "30"]) == 0
    assert os.environ["VFBLOCK_MAX_DEPTH"] == "29"


@pytest.mark.parametrize("depth", ["abc", "0", "-3"])
def test_cli_invalid_max_depth_env_exit_2(depth):
    proc = _cli("verify", str(SCENARIOS / "source_disk.json"),
                env={"VFBLOCK_MAX_DEPTH": depth})
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: VFBLOCK_MAX_DEPTH must be an integer >= 1, got '{depth}'\n"


def test_cli_two_scenarios_aggregate(tmp_path):
    proc = _cli("verify", str(SCENARIOS / "source_disk.json"),
                str(SCENARIOS / "liealg_uppertri.json"),
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


@pytest.mark.parametrize("key", ["field", "region"])
def test_cli_plot_unknown_reference_exit_2(tmp_path, key):
    data = json.loads((SCENARIOS / "source_disk.json").read_text())
    data["plot"][key] = "nope"
    path = tmp_path / "plot.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = _cli("verify", str(path), "--plot", str(tmp_path / "out.svg"))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {path}: plot {key} 'nope' is not declared\n"
    assert not (tmp_path / "out.svg").exists()


@pytest.mark.parametrize("flag", ["--report", "--plot"])
def test_cli_unwritable_output_exit_2(tmp_path, flag):
    out = tmp_path / "missing" / "out"
    proc = _cli("verify", str(SCENARIOS / "source_disk.json"), flag, str(out))
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in proc.stderr


def test_torus_plot_has_labels(tmp_path):
    scenario = parse_scenario(json.loads((SCENARIOS / "torus_four_blocks.json").read_text()))
    report = run_scenario(scenario)
    from vfblock.cli import _plot_for
    out = tmp_path / "torus.svg"
    assert _plot_for(report.to_json(), scenario, str(out))
    text = out.read_text()
    assert text.count("<text") == 4
    assert "1" in text and "-1" in text


def test_schema_is_published_and_valid():
    import jsonschema
    jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)
    published = json.loads((ROOT / "schemas" / "scenario.schema.json").read_text())
    assert published == SCENARIO_SCHEMA, "run scripts/write_schema.py to regenerate it"


def test_falsification_script_runs_from_plain_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_falsification.py"), "--count", "2"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_profile_script_profiles_algebra_cases(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    before = sorted(ROOT.rglob("*"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_cases.py"), "--workload", "algebra",
         "--cases", "2", "--sort", "tottime", "--callers", "_bracket_int"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("algebra, seed 1: 2 cases, 0 failed checks\n")
    assert "function calls" in proc.stdout and "_bracket_int" in proc.stdout
    assert sorted(ROOT.rglob("*")) == before and not any(tmp_path.iterdir())


def test_profile_script_keeps_one_kind(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = [sys.executable, str(ROOT / "scripts" / "profile_cases.py"), "--workload",
              "boundary", "--cases", "2", "--kind"]
    proc = subprocess.run(script + ["double_cover"], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("boundary double_cover, seed 1: 2 cases, 0 failed checks\n")
    assert "lift_double_cover" in proc.stdout and "wedge_check" not in proc.stdout
    proc = subprocess.run(script + ["lift"], capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith("error: unknown kind 'lift' for workload boundary; "
                                "choose from homotopy, wedge, double_cover\n")


GOLDEN_REPORTS = ROOT / "tests" / "data" / "scenario_reports"


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_scenario_report_matches_golden(name):
    # every shipped scenario's report, byte for byte
    assert run_scenario(str(SCENARIOS / name)).dumps() == \
        (GOLDEN_REPORTS / name).read_text(encoding="utf-8")


def test_falsification_run_is_pinned():
    summary = falsification_run(200, 0).to_json()
    assert hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest() == \
        "f22fb9c81d8e66fd263b444a6c2dd8ee8b4ba6e5e1e1cbc0cbddaad12e4c96de"
