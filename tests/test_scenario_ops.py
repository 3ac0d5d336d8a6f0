"""Typed scenario ops: every check's arguments are read at parse by the kinds
`CHECK_OPS` declares, unknown keys exit 2, and one mutation of a shipped
scenario either exits 2 naming the mutated key or runs with no check ending
in a Python builtin exception."""

import builtins
import copy
import json
import math
import pathlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from vfblock.errors import ScenarioSchemaError
from vfblock.scenario import CHECK_OPS, parse_scenario, run_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = {p.stem: json.loads(p.read_text(encoding="utf-8"))
           for p in sorted(SCENARIOS.glob("*.json"))}


def _at(data, path):
    for part in path:
        data = data[part]
    return data


def _set(data, path, key, value):
    _at(data, path)[key] = value


def _schema(path, message):
    return "schema violation at $" + "".join(f"[{p!r}]" for p in path) + ": " + message


@pytest.mark.parametrize("base, edit, message", [
    ("source_disk", lambda d: _set(d, ("checks", 0, "args"), "reslution", "1/0"),
     _schema(("checks", 0, "args"),
             "Additional properties are not allowed ('reslution' was unexpected)")),
    ("source_disk", lambda d: _set(d, ("checks", 0, "args"), "U", ["U"]),
     _schema(("checks", 0, "args", "U"), "['U'] is not of type 'string'")),
    ("source_disk", lambda d: _set(d, ("checks", 0, "args"), "X", {"a": 1}),
     _schema(("checks", 0, "args", "X"), "{'a': 1} is not of type 'string'")),
    ("annulus_mainbis", lambda d: _set(d, ("checks", 1, "args"), "tol", "abc"),
     _schema(("checks", 1, "args", "tol"), "'abc' is not of type 'number'")),
    ("source_disk", lambda d: _set(d, ("checks", 0), "expects", {"index.index": 7}),
     _schema(("checks", 0), "Additional properties are not allowed ('expects' was unexpected)")),
    ("source_disk", lambda d: _set(d, ("checks", 0), "expect", {"index.indx": 1}),
     "check 'source_index': expect path 'index.indx' is not in the data of block_index: "
     "['boundary_margin', 'components', 'index.index', 'index.margin', 'index.samples', "
     "'index.essential', 'index.certified']"),
    ("liealg_uppertri", lambda d: _set(d, ("checks", 1), "expect", {"flags.status": "flag"}),
     "check 'flag': expect path 'flags.status' is not in the data of supersolvable: "
     "['flag.status', 'flag.chain']"),
    ("main_euler_rotation",
     lambda d: _set(d, ("checks", 0), "expect", {"report.overall.statuss": "Pass"}),
     "check 'main_theorem': expect path 'report.overall.statuss' is not in the data of "
     "verify_main: ['report.theorem', 'report.hypotheses', 'report.conclusions', "
     "'report.overall.status', 'report.overall.name']"),
    ("annulus_mainbis", lambda d: _set(d, ("checks", 1, "args"), "k", 2.0),
     "check argument 'k' must be an integer, got 2.0"),
    ("annulus_mainbis", lambda d: _set(d, ("checks", 1, "args"), "tol", math.nan),
     "check argument 'tol' must be finite and positive, got nan"),
    ("source_disk", lambda d: _set(d, ("checks", 0, "args"), "resolution", True),
     _schema(("checks", 0, "args", "resolution"), "True is not of type 'string', 'integer'")),
    ("source_disk", lambda d: _set(d, ("tolerances",), "resolutoin", "1/8"),
     _schema(("tolerances",),
             "Additional properties are not allowed ('resolutoin' was unexpected)")),
    ("source_disk", lambda d: _set(d, ("fields", "X"), "K", 1),
     _schema(("fields", "X"), "Additional properties are not allowed ('K' was unexpected)")),
    ("source_disk", lambda d: _set(d, ("plot",), "colour", "red"),
     _schema(("plot",), "Additional properties are not allowed ('colour' was unexpected)")),
    ("liealg_uppertri", lambda d: _set(d, ("algebras", "g"), "dim", 3),
     _schema(("algebras", "g"), "Additional properties are not allowed ('dim' was unexpected)")),
    ("source_disk", lambda d: _set(d, (), "seeds", {"corpus": 1}),
     _schema((), "Additional properties are not allowed ('seeds' was unexpected)")),
    ("double_cover_annulus", lambda d: _set(d, ("checks", 0, "args"), "A", "U"),
     "check argument 'A' -> region 'U' is not an origin-centred annulus"),
    ("double_cover_annulus", lambda d: d["regions"]["A"].update(center=["1/8", "0"]),
     "check argument 'A' -> region 'A' is not an origin-centred annulus"),
    ("source_disk", lambda d: d["fields"]["X"]["P"][0].update(i=1000000),
     _schema(("fields", "X", "P", 0, "i"), "1000000 is greater than the maximum of 64")),
    ("source_disk", lambda d: d.setdefault("tolerances", {}).update(tol=10 ** 400),
     f"tolerance 'tol' must be finite and positive, got {10 ** 400!r}"),
], ids=["unknown-argument", "list-name", "dict-name", "tol-string", "expects",
        "index.indx", "flags.status", "overall.statuss", "k-2.0", "tol-nan",
        "resolution-true", "tolerances-key", "field-key", "plot-key",
        "algebra-key", "seeds", "double-cover-disk", "double-cover-off-centre",
        "exponent-1e6", "tol-overflow"])
def test_malformed_argument_exits_2_naming_the_key(tmp_path, capsys, base, edit, message):
    # each of these passed, or ended a check in a builtin exception, or read
    # as a certified failure, before the op table typed every argument; an
    # exponent of a million ran for minutes, and a tol beyond float range
    # ended in OverflowError
    from vfblock.cli import main
    data = copy.deepcopy(SHIPPED[base])
    edit(data)
    with pytest.raises(ScenarioSchemaError) as caught:
        parse_scenario(data)
    assert str(caught.value) == message
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


def test_points_and_resolution_take_every_rational_shape():
    # a point and the file's resolution are rationals like a region centre
    data = copy.deepcopy(SHIPPED["main_euler_rotation"])
    data["points"]["origin"] = [0, 0]
    data["tolerances"]["resolution"] = 1
    data["checks"][0]["args"]["resolution"] = "1/32"
    s = parse_scenario(data)
    assert s.points["origin"] == (0, 0) and s.resolution == 1
    assert run_scenario(s).dumps() == run_scenario(SHIPPED["main_euler_rotation"]).dumps()


def test_unknown_op_in_check_2_exits_before_check_1_runs(monkeypatch):
    calls = []
    handler, kinds, keys = CHECK_OPS["block_index"]
    monkeypatch.setitem(CHECK_OPS, "block_index",
                        (lambda **args: calls.append(args) or handler(**args), kinds, keys))
    data = copy.deepcopy(SHIPPED["source_disk"])
    data["checks"].append({"op": "tracking_residual", "args": {"X": "X"}})
    with pytest.raises(ScenarioSchemaError, match="^unknown op 'tracking_residual'; known: "):
        run_scenario(data)
    assert calls == []
    del data["checks"][1]
    assert run_scenario(data).exit_code == 0 and len(calls) == 1


_E = {"P": [{"i": 1, "j": 0, "c": "1"}], "Q": [{"i": 0, "j": 1, "c": "1"}]}
_EVERY_OP = {
    "name": "every_op",
    "fields": {"E": _E, "R": {"P": [{"i": 0, "j": 1, "c": "-1"}], "Q": [{"i": 1, "j": 0, "c": "1"}]},
               "D": SHIPPED["double_cover_annulus"]["fields"]["X"],
               "yR": {"P": [{"i": 0, "j": 1, "c": "1"}], "Q": [{"i": 1, "j": 1, "c": "1"}]},
               **SHIPPED["liealg_uppertri"]["fields"]},
    "algebras": SHIPPED["liealg_uppertri"]["algebras"],
    "regions": {"U": {"type": "disk", "center": ["0", "0"], "r": "1"},
                "A": {"type": "annulus", "center": ["0", "0"], "r_in": "1/2", "r_out": "3/2"}},
    "points": {"origin": ["0", "0"]},
    "tolerances": {"resolution": "1/16"},
    "checks": [{"op": op, "args": args} for op, args in [
        ("block_index", {"X": "E", "U": "U"}),
        ("jet_order", {"X": "E", "p": "origin"}), ("tracks", {"Y": "R", "X": "E"}),
        ("wedge", {"Y": "E", "Yp": "E", "U": "U"}),
        ("homotopy", {"X0": "E", "X1": "E", "U": "U", "steps": 2}),
        ("double_cover", {"X": "D", "A": "A"}),
        ("component_orders", {"X": "E", "points": ["origin"]}),
        ("factor_y_power", {"F": "yR", "l": 1}), ("structure_constants", {"g": "g"}),
        ("supersolvable", {"g": "g"}), ("algebra_tracks", {"g": "g", "X": "E"}),
        ("verify_main", {"X": "E", "Y": "R", "U": "U", "known_zeros": ["origin"]}),
        ("verify_mainbis", {"X": "E", "Y": "R", "U": "U"}),
        ("verify_liealg", {"g": "g", "X": "E", "U": "U", "known_zeros": ["origin"]})]],
}


def _leaves(data, prefix=""):
    """The dotted paths of the non-dict values under `data`."""
    out = set()
    for key, value in data.items():
        path = prefix + key
        out |= _leaves(value, path + ".") if isinstance(value, dict) else {path}
    return out


def test_every_op_returns_its_declared_data_keys():
    # `expect` paths are checked against the declared leaves: each leaf a
    # handler returns is declared, so any path that can match is accepted, and
    # each declared leaf hangs off returned data (a few, like `wedge.witness`,
    # only on some outcomes)
    report = run_scenario(copy.deepcopy(_EVERY_OP))
    assert [c.op for c in report.checks] == list(CHECK_OPS)
    for check in report.checks:
        keys = CHECK_OPS[check.op][2]
        assert check.verdict != "error", check.data
        assert set(check.data) == {k.split(".")[0] for k in keys}
        assert _leaves(check.data) <= set(keys), _leaves(check.data) - set(keys)
        for key in keys:
            assert isinstance(_at(check.data, key.split(".")[:-1]), dict), key


# Fuzzer.  A mutant is (scenario, path of a JSON object, key or None, new key or
# None, value): it removes `key` and, unless the new key is None, sets it to
# `value`.  So a drop has no new key, a rename a new key and the old value, a
# retype the same key and a value of another JSON type, and an addition no key.

_OTHER_TYPES = (None, True, 0, 0.5, "x", ["x"], {"x": 1})


def _json_type(value) -> str:
    return "number" if type(value) in (int, float) else type(value).__name__


def _entries(data) -> list:
    """(path, key) of each argument, region parameter, term key, point,
    tolerance, check key and expect entry."""
    out = [(("tolerances",), k) for k in data.get("tolerances", {})]
    out += [(("points",), k) for k in data.get("points", {})]
    out += [(("regions", name), k) for name, region in data["regions"].items() for k in region]
    out += [(("fields", name, side, j), k) for name, fd in data["fields"].items()
            for side in ("P", "Q") for j, term in enumerate(fd[side]) for k in term]
    for i, check in enumerate(data["checks"]):
        out += [(("checks", i), k) for k in check]
        out += [(("checks", i, part), k) for part in ("args", "expect") for k in check.get(part, {})]
    return out


_ENTRIES = {name: _entries(data) for name, data in SHIPPED.items()}


@st.composite
def _mutants(draw):
    name = draw(st.sampled_from(sorted(SHIPPED)))
    path, key = draw(st.sampled_from(_ENTRIES[name]))
    old = _at(SHIPPED[name], path)[key]
    action = draw(st.sampled_from(["drop", "rename", "retype"]))
    if action == "drop":
        return name, path, key, None, None
    if action == "rename":
        return name, path, key, draw(st.sampled_from([key + "s", "x" + key])), old
    others = [v for v in _OTHER_TYPES if _json_type(v) != _json_type(old)]
    return name, path, key, key, draw(st.sampled_from(others))


def _must_refuse(data, path, key, new_key) -> bool:
    """A new key is unknown, unless it names a point that nothing references."""
    if new_key is None or new_key == key:
        return False
    if path == ("points",):
        named = [v for check in data["checks"] for v in check.get("args", {}).values()]
        return any(key == v or isinstance(v, list) and key in v for v in named)
    return True


def _names(message: str, key) -> bool:
    return key is not None and re.search(rf"(?<![\w.]){re.escape(key)}(?!\w)", message)


@settings(max_examples=800, deadline=None)
@given(_mutants())
@example(("source_disk", ("checks", 0, "args"), None, "reslution", "1/0"))
@example(("source_disk", ("checks", 0, "args"), "U", "U", ["U"]))
@example(("source_disk", ("checks", 0, "args"), "X", "X", {"a": 1}))
@example(("annulus_mainbis", ("checks", 1, "args"), None, "tol", "abc"))
@example(("source_disk", ("checks", 0), "expect", "expects", {"index.index": 7}))
@example(("source_disk", ("checks", 0, "expect"), "index.index", "index.indx", 1))
@example(("source_disk", ("tolerances",), "resolution", "resolutoin", "1/32"))
@example(("source_disk", ("fields", "X"), None, "K", 1))
@example(("source_disk", ("plot",), None, "colour", "red"))
@example(("source_disk", (), None, "seeds", {"corpus": 1}))
@example(("double_cover_annulus", ("checks", 0, "args"), "A", "A", "U"))
@example(("annulus_mainbis", ("checks", 1, "args"), "k", "k", 2.0))
@example(("annulus_mainbis", ("checks", 1, "args"), None, "tol", math.nan))
@example(("annulus_mainbis", ("checks", 1), "op", "op", "tracking_residual"))
@example(("torus_four_blocks", ("checks", 2, "expect"), "index.index", "index.index.sign", -1))
def test_one_mutation_exits_2_naming_the_key_or_runs_clean(mutant):
    name, path, key, new_key, value = mutant
    data = copy.deepcopy(SHIPPED[name])
    _at(data, path).pop(key, None)
    if new_key is not None:
        _at(data, path)[new_key] = value
    try:
        report = run_scenario(data)
    except ScenarioSchemaError as e:      # the CLI's exit 2
        assert _names(str(e), key) or _names(str(e), new_key), str(e)
        return
    assert not _must_refuse(SHIPPED[name], path, key, new_key), report.dumps()
    for check in report.checks:
        if check.verdict == "error":
            assert not isinstance(getattr(builtins, check.data["error"], None), type), check.data
