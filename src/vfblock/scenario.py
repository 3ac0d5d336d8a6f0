"""Scenario files: schema validation, check dispatch, deterministic reports.

A scenario declares named fields, regions, points and algebras, then a list of
checks referencing them by name.  A report exits with the code of its worst
check on the verdict ladder, `verifier.EXIT_CODE`; an expectation mismatch
counts as at least a failure.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .certify import certify_block, components
from .errors import ScenarioSchemaError
from .fields import PlanarField, jet_order
from .index import (block_index, homotopy_invariance_check, lift_double_cover,
                    perturbation_bound, wedge_check)
from .liealg import (algebra_tracks, common_zero_set, solvability,
                     structure_constants, supersolvable_flag)
from .linefield import factor_y_power
from .poly import _frac_str
from .regions import Region
from .tracking import component_order_check, tracks_symbolic
from .verifier import (ERROR, EXIT_CODE, FAIL, PASS, verify_liealg, verify_main,
                       verify_mainbis, worst)

_RATIONAL = {"type": ["string", "integer"]}
_EXPONENT = {"type": "integer", "minimum": 0}
_POINT = {"type": "array", "minItems": 2, "maxItems": 2, "items": _RATIONAL}
_REGION_KEY = {"center": _POINT, "r": _RATIONAL, "r_in": _RATIONAL, "r_out": _RATIONAL,
               "corners": {"type": "array", "minItems": 2, "maxItems": 2, "items": _POINT}}
_REGION_KEYS = {"disk": ("center", "r"), "annulus": ("center", "r_in", "r_out"),
                "rect": ("corners",), "torus": ()}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "vfblock scenario",
    "type": "object",
    "required": ["name", "checks"],
    "additionalProperties": False,
    "$defs": {
        # c * x^i y^j on the plane; c * f(2 pi m x) g(2 pi n y) on the torus,
        # where a torus coefficient may carry powers of pi: {"pi1": "3", ...}
        "term": {"anyOf": [
            {"type": "object", "required": ["i", "j", "c"], "additionalProperties": False,
             "properties": {"i": _EXPONENT, "j": _EXPONENT, "c": _RATIONAL}},
            {"type": "object", "required": ["m", "n", "basis", "c"],
             "additionalProperties": False,
             "properties": {
                 "m": _EXPONENT, "n": _EXPONENT,
                 "basis": {"enum": ["cc", "cs", "sc", "ss"]},
                 "c": {"anyOf": [_RATIONAL, {
                     "type": "object", "minProperties": 1,
                     "propertyNames": {"pattern": "^pi[0-9]+$"},
                     "additionalProperties": _RATIONAL}]}}},
        ]},
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
        "fields": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["P", "Q"],
                "properties": {
                    "P": {"type": "array", "items": {"$ref": "#/$defs/term"}},
                    "Q": {"type": "array", "items": {"$ref": "#/$defs/term"}},
                    "k": {"type": "integer", "minimum": 1},
                    "surface": {"enum": ["plane", "torus"]},
                },
            },
        },
        "algebras": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["basis"],
                "properties": {
                    "basis": {"type": "array", "items": {"type": "string"},
                              "minItems": 1},
                },
            },
        },
        "regions": {"type": "object", "additionalProperties": {"$ref": "#/$defs/region"}},
        "points": {
            "type": "object",
            "additionalProperties": {
                "type": "array", "minItems": 2, "maxItems": 2,
                "items": {"type": "string"},
            },
        },
        "tolerances": {
            "type": "object",
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "resolution": {"type": "string"},
            },
        },
        "seeds": {"type": "object", "additionalProperties": {"type": "integer"}},
        "plot": {
            "type": "object",
            "required": ["field", "region"],
            "properties": {
                "field": {"type": "string"},
                "region": {"type": "string"},
            },
        },
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["op"],
                "properties": {
                    "op": {"type": "string"},
                    "name": {"type": "string"},
                    "args": {"type": "object"},
                    "expect": {"type": "object"},
                },
            },
        },
    },
}

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


def _positive_tol(value, what: str) -> float:
    """`value` as a float; NaN and infinity pass the schema's minimum."""
    tol = float(value)
    if not (math.isfinite(tol) and tol > 0):
        raise ScenarioSchemaError(f"{what} must be finite and positive, got {value!r}")
    return tol


def _rational(value, what: str):
    """`value` as a Fraction; Fraction() raises ValueError, ZeroDivisionError,
    OverflowError or TypeError on malformed ones, and would take a JSON true
    for 1.  A list (a point, a rectangle's corners) or a dict (a torus
    coefficient {"pi1": "3", ...}) is parsed entry by entry."""
    if isinstance(value, list):
        return [_rational(v, what) for v in value]
    if isinstance(value, dict):
        return {k: _rational(v, what) for k, v in value.items()}
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError, TypeError) as e:
        raise ScenarioSchemaError(f"{what} {value!r} is not a rational number") from e


def _positive_resolution(value, what: str) -> Fraction:
    """`value` as a positive Fraction."""
    resolution = _rational(value, what)
    if resolution <= 0:
        raise ScenarioSchemaError(f"{what} must be positive, got {value!r}")
    return resolution


@functools.cache
def _validator():
    """Built on the first parse, so a run that parses no scenario never imports jsonschema."""
    from jsonschema import Draft202012Validator
    return Draft202012Validator(SCENARIO_SCHEMA)


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
    tol = _positive_tol(tols.get("tol", 1e-6), "tolerance 'tol'")
    resolution = _positive_resolution(tols.get("resolution", "1/64"), "resolution")
    plot = data.get("plot")
    for key, known in (("field", fields), ("region", regions)):
        if plot and plot[key] not in known:
            raise ScenarioSchemaError(f"plot {key} {plot[key]!r} is not declared")
    return Scenario(data["name"], fields, regions, points, algebras, tol,
                    resolution, list(data["checks"]), plot)


class _Ctx:
    def __init__(self, scenario: Scenario, args: dict):
        self.s = scenario
        self.args = args

    def _named(self, table: dict, noun: str, key):
        name = self.args.get(key)
        if name is None or name not in table:
            raise ScenarioSchemaError(f"check argument {key!r} -> unknown {noun} {name!r}")
        return table[name]

    def field(self, key):
        return self._named(self.s.fields, "field", key)

    def region(self, key):
        return self._named(self.s.regions, "region", key)

    def algebra(self, key):
        return self._named(self.s.algebras, "algebra", key)

    def _point(self, n):
        if n not in self.s.points:
            raise ScenarioSchemaError(f"unknown point {n!r}")
        return self.s.points[n]

    def point_list(self, key):
        """A JSON list of point names; a string would be read letter by letter."""
        names = self.args.get(key, [])
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ScenarioSchemaError(
                f"check argument {key!r} must be a list of point names, got {names!r}")
        return [self._point(n) for n in names]

    def point_list_single(self, key):
        n = self.args.get(key)
        if not isinstance(n, str):
            raise ScenarioSchemaError(f"check argument {key!r} must be a point name, got {n!r}")
        return self._point(n)

    def tol(self, default):
        return _positive_tol(self.args.get("tol", default), "check argument 'tol'")

    @property
    def resolution(self):
        return _positive_resolution(self.args.get("resolution", self.s.resolution),
                                    "check argument 'resolution'")

    def int_arg(self, key, default, minimum=1):
        """A JSON integer of at least `minimum`; 2.9, "3" or true would be
        truncated or coerced."""
        value = self.args.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioSchemaError(
                f"check argument {key!r} must be an integer, got {value!r}")
        if value < minimum:
            raise ScenarioSchemaError(
                f"check argument {key!r} must be at least {minimum}, got {value!r}")
        return value


def _op_block_index(ctx: _Ctx):
    block = certify_block(ctx.field("X"), ctx.region("U"), ctx.resolution)
    result = block_index(block)
    comps = components(block.enclosure)
    data = {"index": result.to_json(),
            "boundary_margin": _frac_str(block.boundary_margin),
            "components": [c.to_json() for c in comps]}
    return data, PASS


def _op_certify_block(ctx: _Ctx):
    block = certify_block(ctx.field("X"), ctx.region("U"), ctx.resolution)
    return {"block": {"boundary_margin": _frac_str(block.boundary_margin),
                      "enclosure_boxes": len(block.enclosure.cells)}}, PASS


def _op_jet_order(ctx: _Ctx):
    jo = jet_order(ctx.field("X"), ctx.point_list_single("p"),
                   ctx.int_arg("k", 1))
    return {"jet": jo.to_json()}, FAIL if jo.is_flat else PASS


def _op_tracks(ctx: _Ctx):
    cert = tracks_symbolic(ctx.field("Y"), ctx.field("X"))
    return {"certificate": cert.to_json()}, PASS if cert.verdict else FAIL


def _op_wedge(ctx: _Ctx):
    verdict = wedge_check(ctx.field("Y"), ctx.field("Yp"), ctx.region("U"))
    return {"wedge": verdict.to_json()}, PASS if verdict.status == "equal" else FAIL


def _op_homotopy(ctx: _Ctx):
    verdict = homotopy_invariance_check(ctx.field("X0"), ctx.field("X1"),
                                        ctx.region("U"), ctx.int_arg("steps", 10, 2))
    return {"homotopy": verdict.to_json()}, PASS if verdict.status == "invariant" else FAIL


def _op_perturbation_bound(ctx: _Ctx):
    block = certify_block(ctx.field("X"), ctx.region("U"), ctx.resolution,
                          tol=Fraction(1, 200))
    delta = perturbation_bound(block)
    return {"delta": _frac_str(delta), "delta_float": float(delta)}, PASS


def _op_double_cover(ctx: _Ctx):
    field = ctx.field("X")
    region = ctx.region("A")
    block = certify_block(field, region, ctx.resolution)
    base = block_index(block)
    _, lifted = lift_double_cover(field, region, block)
    return ({"base_index": base.to_json(), "lifted_index": lifted.to_json()},
            PASS if lifted.index == 2 * base.index else FAIL)


def _op_component_orders(ctx: _Ctx):
    rep = component_order_check(ctx.field("X"), ctx.point_list("points"),
                                ctx.int_arg("k", 1))
    return {"component_orders": rep.to_json()}, PASS if rep.verdict else FAIL


def _op_factor_y_power(ctx: _Ctx):
    g1, g2 = factor_y_power(ctx.field("F"), ctx.int_arg("l", 1))
    return {"g": {"P": g1.to_json(), "Q": g2.to_json()}}, PASS


def _op_structure_constants(ctx: _Ctx):
    g = structure_constants(ctx.algebra("g"))
    data = {"algebra": g.to_json(), "antisymmetry": g.antisymmetry_holds(),
            "jacobi": g.jacobi_holds()}
    return data, PASS if g.closed else FAIL


def _op_solvability(ctx: _Ctx):
    g = structure_constants(ctx.algebra("g"))
    r = solvability(g)
    return {"solvability": r.to_json()}, PASS


def _op_supersolvable(ctx: _Ctx):
    r = supersolvable_flag(structure_constants(ctx.algebra("g")))
    if r.status == "not_solvable":
        return {"flag": {"status": "not_solvable"}}, PASS
    return {"flag": r.to_json()}, PASS


def _op_algebra_tracks(ctx: _Ctx):
    g = structure_constants(ctx.algebra("g"))
    r = algebra_tracks(g, ctx.field("X"))
    return {"algebra_tracking": r.to_json()}, PASS if r.verdict else FAIL


def _op_common_zero_set(ctx: _Ctx):
    g = structure_constants(ctx.algebra("g"))
    enc = common_zero_set(g, ctx.region("U"), ctx.resolution)
    return {"common_zeros": enc.to_json()}, PASS


def _op_verify_main(ctx: _Ctx):
    report = verify_main(ctx.field("X"), ctx.field("Y"), ctx.region("U"),
                         k=ctx.int_arg("k", 1), resolution=ctx.resolution,
                         known_zeros=ctx.point_list("known_zeros"))
    return {"report": report.to_json()}, report.verdict


def _op_verify_mainbis(ctx: _Ctx):
    report = verify_mainbis(ctx.field("X"), ctx.field("Y"), ctx.region("U"),
                            k=ctx.int_arg("k", 1), resolution=ctx.resolution,
                            tol=ctx.tol(ctx.s.tol), known_zeros=ctx.point_list("known_zeros"))
    return {"report": report.to_json()}, report.verdict


def _op_verify_liealg(ctx: _Ctx):
    report = verify_liealg(ctx.algebra("g"), ctx.field("X"), ctx.region("U"),
                           k=ctx.int_arg("k", 1), resolution=ctx.resolution,
                           known_zeros=ctx.point_list("known_zeros"))
    return {"report": report.to_json()}, report.verdict


CHECK_OPS = {
    "certify_block": _op_certify_block,
    "block_index": _op_block_index,
    "jet_order": _op_jet_order,
    "tracks": _op_tracks,
    "wedge": _op_wedge,
    "homotopy": _op_homotopy,
    "perturbation_bound": _op_perturbation_bound,
    "double_cover": _op_double_cover,
    "component_orders": _op_component_orders,
    "factor_y_power": _op_factor_y_power,
    "structure_constants": _op_structure_constants,
    "solvability": _op_solvability,
    "supersolvable": _op_supersolvable,
    "algebra_tracks": _op_algebra_tracks,
    "common_zero_set": _op_common_zero_set,
    "verify_main": _op_verify_main,
    "verify_mainbis": _op_verify_mainbis,
    "verify_liealg": _op_verify_liealg,
}


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
    for i, check in enumerate(scenario.checks):
        op = check["op"]
        name = check.get("name", f"{op}#{i}")
        handler = CHECK_OPS.get(op)
        if handler is None:
            raise ScenarioSchemaError(
                f"unknown op {op!r}; known: {sorted(CHECK_OPS)}")
        ctx = _Ctx(scenario, check.get("args", {}))
        try:
            data_out, verdict = handler(ctx)
        except ScenarioSchemaError:
            raise
        except Exception as e:      # a crashing check is that check's error
            outcomes.append(CheckOutcome(name, op, ERROR,
                                         {"error": type(e).__name__,
                                          "message": str(e)}))
            continue
        expected_ok = None
        if "expect" in check:
            expected_ok = _match_expectation(check["expect"], data_out)
        outcomes.append(CheckOutcome(name, op, verdict, data_out, expected_ok))
    return ScenarioReport(scenario.name, outcomes)
