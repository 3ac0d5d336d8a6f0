"""Scenario files: schema validation, check dispatch, deterministic reports.

A scenario declares named fields, regions, points and algebras, then a list of
checks referencing them by name.  `CHECK_OPS` declares each op once: its
handler, the kind of each argument and the dotted paths of its data's leaves,
which an `expect` path must be at or above.  The schema's per-op branches are
generated from it, and `parse_scenario` resolves every check's arguments
before any check runs.  A report exits with the code of its worst check on
the verdict ladder, `verifier.EXIT_CODE`; an expectation mismatch counts as
at least a failure.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, NamedTuple

from .certify import certify_block, components
from .config import DEFAULT_RESOLUTION, DEFAULT_TOL
from .errors import ScenarioSchemaError
from .fields import PlanarField, jet_order
from .index import (IndexResult, block_index, homotopy_invariance_check, lift_double_cover,
                    wedge_check)
from .liealg import algebra_tracks, structure_constants, supersolvable_flag
from .linefield import factor_y_power
from .poly import _frac_str
from .regions import ANNULUS, Region
from .tracking import component_order_check, tracks_symbolic
from .verifier import (ERROR, EXIT_CODE, FAIL, PASS, verify_liealg, verify_main,
                       verify_mainbis, worst)

_RATIONAL = {"type": ["string", "integer"]}
_EXPONENT = {"type": "integer", "minimum": 0}
_NAME = {"type": "string"}
_POINT = {"type": "array", "minItems": 2, "maxItems": 2, "items": _RATIONAL}
_REGION_KEY = {"center": _POINT, "r": _RATIONAL, "r_in": _RATIONAL, "r_out": _RATIONAL,
               "corners": {"type": "array", "minItems": 2, "maxItems": 2, "items": _POINT}}
_REGION_KEYS = {"disk": ("center", "r"), "annulus": ("center", "r_in", "r_out"),
                "rect": ("corners",), "torus": ()}


@dataclass
class Scenario:
    name: str
    fields: dict
    regions: dict
    points: dict
    algebras: dict
    tol: float
    resolution: Fraction
    checks: list
    plot: dict | None = None


class _Check(NamedTuple):
    name: str
    op: str
    args: dict          # argument -> resolved value, defaults filled in
    expect: dict | None


def _positive_tol(value, what: str) -> float:
    """`value` as a float; NaN and infinity pass the schema's minimum."""
    tol = float(value)
    if not (math.isfinite(tol) and tol > 0):
        raise ScenarioSchemaError(f"{what} must be finite and positive, got {value!r}")
    return tol


_MAX_EXPONENT = 4300    # sys.get_int_max_str_digits()'s default


def _rational(value, what: str):
    """`value`, a string or integer by the schema, as a Fraction; Fraction()
    raises ValueError or ZeroDivisionError on a malformed string.  A decimal
    exponent over `_MAX_EXPONENT` in magnitude, or more digits after the point,
    is refused first: Fraction('1e1000000') alone takes 0.2 s, and Fraction()
    refuses that many digits after the point only once it has raised 10 to
    their count.
    A list (a point, a rectangle's corners) or a dict (a torus coefficient
    {"pi1": "3", ...}) is parsed entry by entry."""
    if isinstance(value, list):
        return [_rational(v, what) for v in value]
    if isinstance(value, dict):
        return {k: _rational(v, what) for k, v in value.items()}
    literal = value if isinstance(value, str) else ""
    exponent = re.search(r"[eE][-+]?([\d_]+)\s*\Z", literal)
    digits = exponent[1].replace("_", "") if exponent else "0"
    if len(digits) > _MAX_EXPONENT or int(digits) > _MAX_EXPONENT:
        raise ScenarioSchemaError(f"{what} {value!r} has a decimal exponent over "
                                  f"{_MAX_EXPONENT} in magnitude")
    decimals = re.search(r"\.([\d_]*)", literal)
    if decimals and len(decimals[1].replace("_", "")) > _MAX_EXPONENT:
        raise ScenarioSchemaError(f"{what} {value!r} has over {_MAX_EXPONENT} digits "
                                  "after the point")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise ScenarioSchemaError(f"{what} {value!r} is not a rational number") from e


def _positive_resolution(value, what: str) -> Fraction:
    """`value` as a positive Fraction."""
    resolution = _rational(value, what)
    if resolution <= 0:
        raise ScenarioSchemaError(f"{what} must be positive, got {value!r}")
    return resolution


class _Kind(NamedTuple):
    """The type of a check argument: its name in the README's op table, with
    any default in parentheses; its JSON schema; `read(scenario, key, value)`,
    which resolves a schema-valid value and checks what the schema cannot; and
    `default(scenario)`, None for a required argument."""
    name: str
    schema: dict
    read: Callable
    default: Callable | None = None


def _declared(table: str, noun: str):
    """A reader of names declared in the scenario's `table`."""
    def read(s: Scenario, key: str, name: str):
        declared = getattr(s, table)
        if name not in declared:
            raise ScenarioSchemaError(f"check argument {key!r} -> unknown {noun} {name!r}")
        return declared[name]
    return read


def _origin_annulus(s: Scenario, key: str, name: str) -> Region:
    """A region name; the double-cover lift needs an annulus about 0."""
    region = _REGION.read(s, key, name)
    if region.kind != ANNULUS or region.center != (0, 0):
        raise ScenarioSchemaError(
            f"check argument {key!r} -> region {name!r} is not an origin-centred annulus")
    return region


def _integer(s: Scenario, key: str, value) -> int:
    """jsonschema counts 2.0 as an integer; a count must be a JSON integer."""
    if not isinstance(value, int):
        raise ScenarioSchemaError(f"check argument {key!r} must be an integer, got {value!r}")
    return value


def _count(minimum: int, default: int) -> _Kind:
    return _Kind(f"count >= {minimum} ({default})", {"type": "integer", "minimum": minimum},
                 _integer, lambda s: default)


_FIELD = _Kind("field", _NAME, _declared("fields", "field"))
_REGION = _Kind("region", _NAME, _declared("regions", "region"))
_ALGEBRA = _Kind("algebra", _NAME, _declared("algebras", "algebra"))
_POINT_NAME = _Kind("point", _NAME, _declared("points", "point"))
_POINT_NAMES = _Kind("points ([])", {"type": "array", "items": _NAME},
                     lambda s, key, names: [_POINT_NAME.read(s, key, n) for n in names],
                     lambda s: [])
_TOL = _Kind("tol (the scenario's)", {"type": "number", "exclusiveMinimum": 0},
             lambda s, key, value: _positive_tol(value, f"check argument {key!r}"),
             lambda s: s.tol)
_RESOLUTION = _Kind("resolution (the scenario's)", _RATIONAL,
                    lambda s, key, value: _positive_resolution(value, f"check argument {key!r}"),
                    lambda s: s.resolution)


def _op_block_index(X, U, resolution):
    block = certify_block(X, U, resolution)
    result = block_index(block)
    comps = components(block.enclosure)
    data = {"index": result.to_json(),
            "boundary_margin": _frac_str(block.boundary.margin),
            "components": [c.to_json() for c in comps]}
    return data, PASS


def _op_jet_order(X, p, k):
    jo = jet_order(X, p, k)
    return {"jet": jo.to_json()}, FAIL if jo.is_flat else PASS


def _op_tracks(Y, X):
    cert = tracks_symbolic(Y, X)
    return {"certificate": cert.to_json()}, PASS if cert.verdict else FAIL


def _op_wedge(Y, Yp, U):
    verdict = wedge_check(Y, Yp, U)
    return {"wedge": verdict.to_json()}, PASS if verdict.status == "equal" else FAIL


def _op_homotopy(X0, X1, U, steps):
    verdict = homotopy_invariance_check(X0, X1, U, steps)
    return {"homotopy": verdict.to_json()}, PASS if verdict.status == "invariant" else FAIL


def _op_double_cover(X, A, resolution):
    block = certify_block(X, A, resolution)
    base = block_index(block)
    _, lifted = lift_double_cover(X, A, block)
    return ({"base_index": base.to_json(), "lifted_index": lifted.to_json()},
            PASS if lifted.index == 2 * base.index else FAIL)


def _op_component_orders(X, points, k):
    rep = component_order_check(X, points, k)
    return {"component_orders": rep.to_json()}, PASS if rep.verdict else FAIL


def _op_factor_y_power(F, l):
    g1, g2 = factor_y_power(F, l)
    return {"g": {"P": g1.to_json(), "Q": g2.to_json()}}, PASS


def _op_structure_constants(g):
    algebra = structure_constants(g)
    data = {"algebra": algebra.to_json(), "antisymmetry": algebra.antisymmetry_holds(),
            "jacobi": algebra.jacobi_holds()}
    return data, PASS if algebra.closed else FAIL


def _op_supersolvable(g):
    r = supersolvable_flag(structure_constants(g))
    return {"flag": r.to_json()}, PASS if r.status == "flag" else FAIL


def _op_algebra_tracks(g, X):
    r = algebra_tracks(structure_constants(g), X)
    return {"algebra_tracking": r.to_json()}, PASS if r.verdict else FAIL


def _op_verify_main(X, Y, U, k, resolution, known_zeros):
    report = verify_main(X, Y, U, k=k, resolution=resolution, known_zeros=known_zeros)
    return {"report": report.to_json()}, report.verdict


def _op_verify_mainbis(X, Y, U, k, resolution, tol, known_zeros):
    report = verify_mainbis(X, Y, U, k=k, resolution=resolution, tol=tol,
                            known_zeros=known_zeros)
    return {"report": report.to_json()}, report.verdict


def _op_verify_liealg(g, X, U, k, resolution, known_zeros):
    report = verify_liealg(g, X, U, k=k, resolution=resolution, known_zeros=known_zeros)
    return {"report": report.to_json()}, report.verdict


_BLOCK = {"X": _FIELD, "U": _REGION, "resolution": _RESOLUTION}
_THEOREM = {**_BLOCK, "k": _count(1, 1), "known_zeros": _POINT_NAMES}
_ORIGIN_ANNULUS = _Kind("annulus about 0", _NAME, _origin_annulus)


def _under(top: str, *keys: str) -> tuple:
    """`top.{keys}`, as the README's op table writes it."""
    return tuple(f"{top}.{k}" for k in keys)


_INDEX_KEYS = tuple(IndexResult(0, Fraction(0), 0, False, False).to_json())
_REPORT_KEYS = _under("report", "theorem", "hypotheses", "conclusions",
                      "overall.status", "overall.name")

# op -> (handler, {argument: kind}, the dotted paths of its data's leaves)
CHECK_OPS = {
    "block_index": (_op_block_index, _BLOCK, ("boundary_margin", "components",
                                              *_under("index", *_INDEX_KEYS))),
    "jet_order": (_op_jet_order, {"X": _FIELD, "p": _POINT_NAME, "k": _count(1, 1)},
                  _under("jet", "order", "k", "k_flat")),
    "tracks": (_op_tracks, {"Y": _FIELD, "X": _FIELD},
               _under("certificate", "mode", "verdict", "residual")),
    "wedge": (_op_wedge, {"Y": _FIELD, "Yp": _FIELD, "U": _REGION},
              _under("wedge", "status", "index", "witness")),
    "homotopy": (_op_homotopy, {"X0": _FIELD, "X1": _FIELD, "U": _REGION, "steps": _count(2, 10)},
                 _under("homotopy", "status", "index", "t")),
    "double_cover": (_op_double_cover, {"X": _FIELD, "A": _ORIGIN_ANNULUS,
                                        "resolution": _RESOLUTION},
                     _under("base_index", *_INDEX_KEYS) + _under("lifted_index", *_INDEX_KEYS)),
    "component_orders": (_op_component_orders, {"X": _FIELD, "points": _POINT_NAMES,
                                                "k": _count(1, 1)},
                         _under("component_orders", "verdict", "orders")),
    "factor_y_power": (_op_factor_y_power, {"F": _FIELD, "l": _count(1, 1)},
                       _under("g", "P", "Q")),
    "structure_constants": (_op_structure_constants, {"g": _ALGEBRA},
                            (*_under("algebra", "dim", "closed", "witness", "structure_constants"),
                             "antisymmetry", "jacobi")),
    "supersolvable": (_op_supersolvable, {"g": _ALGEBRA}, _under("flag", "status", "chain")),
    "algebra_tracks": (_op_algebra_tracks, {"g": _ALGEBRA, "X": _FIELD},
                       _under("algebra_tracking", "verdict", "per_basis")),
    "verify_main": (_op_verify_main, {"X": _FIELD, "Y": _FIELD, **_THEOREM}, _REPORT_KEYS),
    "verify_mainbis": (_op_verify_mainbis, {"X": _FIELD, "Y": _FIELD, **_THEOREM, "tol": _TOL},
                       _REPORT_KEYS),
    "verify_liealg": (_op_verify_liealg, {"g": _ALGEBRA, **_THEOREM}, _REPORT_KEYS),
}


def _op_branch(op: str, kinds: dict) -> dict:
    """The schema of a check whose op is `op`: exactly its arguments, each of its kind."""
    required = [key for key, kind in kinds.items() if kind.default is None]
    args = {"type": "object", "required": required, "additionalProperties": False,
            "properties": {key: kind.schema for key, kind in kinds.items()}}
    return {"if": {"required": ["op"], "properties": {"op": {"const": op}}},
            "then": {"required": ["args"] if required else [], "properties": {"args": args}}}


SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "vfblock scenario",
    "type": "object",
    "required": ["name", "checks"],
    "additionalProperties": False,
    "$defs": {
        # c * x^i y^j on the plane; c * f(2 pi m x) g(2 pi n y) on the torus,
        # where a torus coefficient may carry powers of pi: {"pi1": "3", ...}.
        # A term with m, n or basis is a torus term, so an error names its key.
        "term": {
            "type": "object",
            "if": {"anyOf": [{"required": [k]} for k in ("m", "n", "basis")]},
            "then": {"required": ["m", "n", "basis", "c"], "additionalProperties": False,
                     "properties": {
                         "m": _EXPONENT, "n": _EXPONENT,
                         "basis": {"enum": ["cc", "cs", "sc", "ss"]},
                         "c": {"anyOf": [_RATIONAL, {
                             "type": "object", "minProperties": 1,
                             "propertyNames": {"pattern": "^pi[0-9]+$"},
                             "additionalProperties": _RATIONAL}]}}},
            "else": {"required": ["i", "j", "c"], "additionalProperties": False,
                     "properties": {"i": _EXPONENT, "j": _EXPONENT, "c": _RATIONAL}},
        },
        # per region type exactly its keys; a point is two rationals
        "region": {
            "type": "object", "required": ["type"],
            "properties": {"type": {"enum": list(_REGION_KEYS)}},
            "allOf": [{"if": {"required": ["type"], "properties": {"type": {"const": kind}}},
                       "then": {"required": list(keys), "additionalProperties": False,
                                "properties": {"type": True, **{k: _REGION_KEY[k] for k in keys}}}}
                      for kind, keys in _REGION_KEYS.items()],
        },
    },
    "properties": {
        "name": {"type": "string"},
        "surface": {"enum": ["plane", "torus"]},
        "fields": {"type": "object", "additionalProperties": {
            "type": "object", "required": ["P", "Q"], "additionalProperties": False,
            "properties": {"P": {"type": "array", "items": {"$ref": "#/$defs/term"}},
                           "Q": {"type": "array", "items": {"$ref": "#/$defs/term"}},
                           "k": {"type": "integer", "minimum": 1},
                           "surface": {"enum": ["plane", "torus"]}}}},
        "algebras": {"type": "object", "additionalProperties": {
            "type": "object", "required": ["basis"], "additionalProperties": False,
            "properties": {"basis": {"type": "array", "items": _NAME, "minItems": 1}}}},
        "regions": {"type": "object", "additionalProperties": {"$ref": "#/$defs/region"}},
        "points": {"type": "object", "additionalProperties": _POINT},
        "tolerances": {"type": "object", "additionalProperties": False,
                       "properties": {"tol": _TOL.schema, "resolution": _RESOLUTION.schema}},
        "plot": {"type": "object", "required": ["field", "region"], "additionalProperties": False,
                 "properties": {"field": _NAME, "region": _NAME}},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object", "required": ["op"], "additionalProperties": False,
                "properties": {"op": _NAME, "name": _NAME, "args": {"type": "object"},
                               "expect": {"type": "object"}},
                # one branch per op; an unknown op is refused by parse_scenario
                "allOf": [_op_branch(op, kinds) for op, (_, kinds, _) in CHECK_OPS.items()],
            },
        },
    },
}


@functools.cache
def _validator():
    """Built on the first parse, so a run that parses no scenario never imports jsonschema."""
    from jsonschema import Draft202012Validator
    return Draft202012Validator(SCENARIO_SCHEMA)


def _resolve(s: Scenario, i: int, check: dict) -> _Check:
    """Check `i` with each argument read by its kind, or defaulted, and its
    `expect` paths checked against its op's data keys."""
    op = check["op"]
    if op not in CHECK_OPS:
        raise ScenarioSchemaError(f"unknown op {op!r}; known: {sorted(CHECK_OPS)}")
    _, kinds, keys = CHECK_OPS[op]
    name, expect = check.get("name", f"{op}#{i}"), check.get("expect")
    given = check.get("args", {})
    args = {key: kind.read(s, key, given[key]) if key in given else kind.default(s)
            for key, kind in kinds.items()}
    for path in expect or ():   # at or above a declared leaf
        if not any(f"{k}.".startswith(f"{path}.") for k in keys):
            raise ScenarioSchemaError(
                f"check {name!r}: expect path {path!r} is not in the data of {op}: {list(keys)}")
    return _Check(name, op, args, expect)


def parse_scenario(data: dict) -> Scenario:
    from jsonschema.exceptions import best_match
    e = best_match(_validator().iter_errors(data))
    if e is not None:
        path = "$" + "".join(f"[{p!r}]" for p in e.absolute_path)
        raise ScenarioSchemaError(f"schema violation at {path}: {e.message}")
    surface = data.get("surface", "plane")
    fields = {}
    for name, fd in data.get("fields", {}).items():
        fd = {"surface": surface, **fd}
        for key in ("P", "Q"):
            fd[key] = [{**t, "c": _rational(t["c"], f"field {name!r}: coefficient")}
                       for t in fd[key]]
        try:
            fields[name] = PlanarField.from_json(fd)
        except Exception as e:
            raise ScenarioSchemaError(f"field {name!r}: {e}") from e
    regions = {}
    for name, rd in data.get("regions", {}).items():
        rd = {k: v if k == "type" else _rational(v, f"region {name!r}: {k}")
              for k, v in rd.items()}
        try:
            regions[name] = Region.from_json(rd)
        except Exception as e:
            raise ScenarioSchemaError(f"region {name!r}: {e}") from e
    points = {name: tuple(_rational(pd, f"point {name!r}: coordinate"))
              for name, pd in data.get("points", {}).items()}
    algebras = {}
    for name, ad in data.get("algebras", {}).items():
        missing = [b for b in ad["basis"] if b not in fields]
        if missing:
            raise ScenarioSchemaError(f"algebra {name!r} references unknown fields {missing}")
        algebras[name] = [fields[b] for b in ad["basis"]]
    tols = data.get("tolerances", {})
    tol = _positive_tol(tols.get("tol", DEFAULT_TOL), "tolerance 'tol'")
    resolution = _positive_resolution(tols.get("resolution", DEFAULT_RESOLUTION), "resolution")
    plot = data.get("plot")
    for key, known in (("field", fields), ("region", regions)):
        if plot and plot[key] not in known:
            raise ScenarioSchemaError(f"plot {key} {plot[key]!r} is not declared")
    s = Scenario(data["name"], fields, regions, points, algebras, tol, resolution, [], plot)
    s.checks = [_resolve(s, i, check) for i, check in enumerate(data["checks"])]
    return s


def _match_expectation(expect: dict, data: dict) -> bool:
    """Shallow dotted-path comparison against the check's data."""
    for path, wanted in expect.items():
        node = data
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                return False
            node = node[part]
        if isinstance(wanted, float):
            if not isinstance(node, (int, float)) or abs(node - wanted) > 1e-9:
                return False
        elif node != wanted:
            return False
    return True


@dataclass
class CheckOutcome:
    name: str
    op: str
    verdict: str
    data: dict = dc_field(default_factory=dict)
    expected_ok: bool | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "op": self.op, "verdict": self.verdict,
               "data": self.data}
        if self.expected_ok is not None:
            out["expectation_matched"] = self.expected_ok
        return out

    @property
    def severity(self) -> str:
        """The verdict, raised to at least FAIL by an expectation mismatch."""
        return worst((self.verdict, FAIL)) if self.expected_ok is False else self.verdict


@dataclass
class ScenarioReport:
    name: str
    checks: list

    @property
    def verdict(self) -> str:
        return worst(c.severity for c in self.checks)

    @property
    def exit_code(self) -> int:
        return EXIT_CODE[self.verdict]

    def to_json(self) -> dict:
        return {"scenario": self.name,
                "checks": [c.to_json() for c in self.checks],
                "exit_code": self.exit_code}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2) + "\n"


def run_scenario(source) -> ScenarioReport:
    """Execute a scenario from a path, JSON string, dict or parsed Scenario."""
    if isinstance(source, (Scenario, dict)):
        data = source
    else:
        try:
            if str(source).lstrip().startswith("{"):
                text = str(source)
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    text = fh.read()
            data = json.loads(text)
        except OSError as e:
            raise ScenarioSchemaError(f"cannot read scenario: {e}") from e
        except json.JSONDecodeError as e:
            raise ScenarioSchemaError(
                f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}"
            ) from e
    scenario = data if isinstance(data, Scenario) else parse_scenario(data)
    outcomes = []
    for check in scenario.checks:
        try:
            data_out, verdict = CHECK_OPS[check.op][0](**check.args)
        except ScenarioSchemaError:
            raise
        except Exception as e:      # a crashing check is that check's error
            outcomes.append(CheckOutcome(check.name, check.op, ERROR,
                                         {"error": type(e).__name__,
                                          "message": str(e)}))
            continue
        expected_ok = None
        if check.expect is not None:
            expected_ok = _match_expectation(check.expect, data_out)
        outcomes.append(CheckOutcome(check.name, check.op, verdict, data_out, expected_ok))
    return ScenarioReport(scenario.name, outcomes)
