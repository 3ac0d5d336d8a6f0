"""The scenario validator against jsonschema, its reference: on every shipped
scenario, every malformed case the scenario tests pin and Hypothesis
mutations of the shipped scenarios, `vfblock.scenario` accepts or refuses as
`best_match(Draft202012Validator(SCENARIO_SCHEMA).iter_errors(data))` does,
and names the same path with the same message.  And every keyword of
`SCENARIO_SCHEMA` is one the validator implements."""

import copy

import pytest
from hypothesis import example, given, settings, strategies as st
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

import test_scenario_cli as cli
import test_scenario_ops as ops
from test_scenario_ops import SHIPPED, _at, _mutants
from vfblock import scenario
from vfblock.scenario import CHECK_OPS, SCENARIO_SCHEMA

REFERENCE = Draft202012Validator(SCENARIO_SCHEMA)


def _reference(data):
    e = best_match(REFERENCE.iter_errors(data))
    return None if e is None else (tuple(e.absolute_path), e.message)


def _agrees(data):
    assert scenario._best_match(data) == _reference(data)


def _params(module, test: str) -> list:
    """The argument tuples of one parametrized test of `module`."""
    mark, = (m for m in getattr(module, test).pytestmark if m.name == "parametrize")
    return mark.args[1]


def _edited(base: str, edit) -> dict:
    data = copy.deepcopy(SHIPPED[base])
    edit(data)
    return data


def _check(base: str, op: str, args: dict) -> dict:
    data = copy.deepcopy(SHIPPED[base])
    data.setdefault("points", {}).update(origin=["0", "0"], o=["0", "0"])
    data["checks"] = [{"op": op, "name": op, "args": args}]
    return data


def _pinned() -> list:
    """The data of every malformed case pinned in the scenario tests."""
    cases = [_edited(base, edit) for base, edit, _ in
             _params(ops, "test_malformed_argument_exits_2_naming_the_key")
             + _params(cli, "test_malformed_rational_names_key_and_value")]
    cases += [_edited("source_disk", edit) for edit, _ in
              _params(cli, "test_huge_decimal_exponent_exits_2_naming_the_key")]
    for region, _ in _params(cli, "test_cli_region_schema_names_the_key"):
        cases.append(_edited("source_disk", lambda d: d["regions"].update(U=region)))
    for term, _ in _params(cli, "test_cli_malformed_term_exit_2"):
        cases.append(_edited("source_disk", lambda d: d["fields"]["X"]["P"].__setitem__(0, term)))
    cases += [_check("annulus_mainbis", op, {"X": "X", "Y": "Y", "U": "U"})
              for op in cli._REMOVED_OPS]
    cases += [_check("source_disk", op, {**args, key: value}) for op, args, key, value, *_ in
              _params(cli, "test_cli_non_integer_count_exit_2")
              + _params(cli, "test_count_below_minimum_is_schema_error")]
    euler = {"X": "X", "Y": "Y", "U": "U"}
    cases += [_check("main_euler_rotation", op, {**(euler if op == "verify_main" else {"X": "X"}),
                                                 key: value})
              for op, key, value in _params(cli, "test_point_list_argument_must_be_a_list_of_names")]
    cases += [_check("main_euler_rotation", "jet_order", {"X": "X"} if value is None else
                     {"X": "X", "p": value})
              for value in _params(cli, "test_point_argument_must_be_a_name")]
    for resolution in _params(cli, "test_malformed_resolution_is_schema_error"):
        cases.append(_edited("source_disk", lambda d: d.update(tolerances={"resolution": resolution})))
    for resolution, _ in _params(cli, "test_malformed_check_resolution_is_schema_error"):
        cases.append(_edited("source_disk",
                             lambda d: d["checks"][0]["args"].update(resolution=resolution)))
    cases += [_edited("annulus_mainbis", lambda d: d["tolerances"].update(tol=float("nan"))),
              _edited("annulus_mainbis", lambda d: d.update(tolerances=5)), [], [1, 2],
              {"name": "x", "checks": [{"args": {}}]},
              {"name": "x", "checks": [{"op": "block_index", "args": {"X": "nope", "U": "nope"}}]}]
    return cases


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_scenarios_pass_both(name):
    assert _reference(SHIPPED[name]) is None
    _agrees(SHIPPED[name])


def test_every_pinned_malformed_case_agrees():
    cases = _pinned()
    refused = [case for case in cases if _reference(case) is not None]
    assert len(cases) > 60 and len(refused) > 40
    for case in cases:
        _agrees(case)


_TORUS_TERM = ("fields", "X", "P", 0)


@settings(max_examples=300, deadline=None)
@given(_mutants())
# a torus coefficient refused by both branches of its anyOf: a tie names the
# anyOf itself, else best_match descends to the deepest error, then to one
# whose instance has its schema's type
@example(("torus_four_blocks", _TORUS_TERM, "c", "c", 0.5))
@example(("torus_four_blocks", _TORUS_TERM, "c", "c", {"x": 1}))
@example(("torus_four_blocks", _TORUS_TERM, "c", "c", {}))
@example(("torus_four_blocks", _TORUS_TERM, "c", "c", {"pi1": 0.5}))
def test_a_fuzzer_mutation_agrees(mutant):
    name, path, key, new_key, value = mutant
    data = copy.deepcopy(SHIPPED[name])
    _at(data, path).pop(key, None)
    if new_key is not None:
        _at(data, path)[new_key] = value
    _agrees(data)


def test_an_anyof_ranks_below_a_sibling_error(monkeypatch):
    # no two errors of SCENARIO_SCHEMA tie but for the anyOf rank, so a
    # schema of its own holds the rule
    schema = {"anyOf": [{"type": "string"}, {"type": "object"}], "minItems": 2}
    monkeypatch.setattr(scenario, "SCENARIO_SCHEMA", schema)
    e = best_match(Draft202012Validator(schema).iter_errors([1]))
    assert scenario._best_match([1]) == ((), e.message) == ((), "[1] is too short")


# words of the schema, so that random values reach its branches
_WORDS = sorted({*CHECK_OPS, "disk", "annulus", "rect", "torus", "plane", "cc", "ss", "pi1",
                 "op", "args", "name", "expect", "type", "center", "r", "r_in", "corners",
                 "P", "Q", "i", "j", "c", "m", "n", "basis", "k", "X", "U", "1/2", "0"})
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def _containers(data, path=()) -> list:
    """The path of every list and dict in `data`."""
    found = [path] if isinstance(data, (dict, list)) else []
    items = data.items() if isinstance(data, dict) else \
        enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        found += _containers(value, path + (key,))
    return found


@st.composite
def _planted(draw):
    """A shipped scenario with one to three random JSON values set, added or
    dropped at random places."""
    data = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    for _ in range(draw(st.integers(1, 3))):
        node = _at(data, draw(st.sampled_from(_containers(data))))
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node) + _WORDS))
        else:
            key = draw(st.integers(0, len(node)))
        if draw(st.booleans()) and key in (node if isinstance(node, dict) else range(len(node))):
            del node[key]
        elif isinstance(node, list) and key == len(node):
            node.append(draw(_JSON))
        else:
            node[key] = draw(_JSON)
    return data


@settings(max_examples=500, deadline=None)
@given(_planted())
def test_a_random_value_at_a_random_place_agrees(data):
    _agrees(data)


# keywords whose value is one subschema, a list of them, or a map to them
_SUBSCHEMA = {"items", "additionalProperties", "propertyNames", "if", "then", "else"}
_SUBSCHEMA_LIST = {"anyOf", "allOf"}
_SUBSCHEMA_MAP = {"properties", "$defs"}
# read with the keyword that holds them, or annotations only
_NOT_READ_ALONE = {"then", "else", "$defs", "$schema", "title"}


def _unsupported(schema, where="#") -> list:
    """Where `schema` uses what the validator does not implement: a keyword
    outside `_KEYWORDS`, a `$ref` outside `#/$defs/`, an `enum` or `const`
    value other than a string (the validator compares with ==), a type name
    it does not know, or a boolean subschema other than true (and false as
    `additionalProperties`)."""
    if schema is True:
        return []
    if not isinstance(schema, dict):
        return [f"{where}: {schema!r} is not a schema"]
    found = []
    for key, value in schema.items():
        at = f"{where}/{key}"
        if key not in scenario._KEYWORDS and key not in _NOT_READ_ALONE:
            found.append(f"{at}: keyword not implemented")
        elif key == "$ref" and not value.startswith("#/$defs/"):
            found.append(f"{at}: {value!r}")
        elif key in ("enum", "const") and not all(
                isinstance(v, str) for v in (value if key == "enum" else [value])):
            found.append(f"{at}: {value!r} holds a value other than a string")
        elif key == "type" and not set([value] if isinstance(value, str) else value) \
                <= set(scenario._TYPES):
            found.append(f"{at}: {value!r}")
        elif key in _SUBSCHEMA and not (key == "additionalProperties" and value is False):
            found += _unsupported(value, at)
        elif key in _SUBSCHEMA_LIST:
            found += [f for i, sub in enumerate(value) for f in _unsupported(sub, f"{at}/{i}")]
        elif key in _SUBSCHEMA_MAP:
            found += [f for name, sub in value.items() for f in _unsupported(sub, f"{at}/{name}")]
    return found


def test_every_schema_keyword_is_implemented():
    assert _unsupported(SCENARIO_SCHEMA) == []


def test_the_guard_sees_what_the_validator_lacks():
    schema = {"type": "object", "properties": {
        "a": {"oneOf": [{"type": "string"}, {"type": "decimal"}]},
        "b": {"items": False, "const": 1}, "c": {"$ref": "other.json"},
        "d": {"allOf": [{"enum": ["x", 2]}, True]}, "e": {"type": ["string", "decimal"]}},
        "additionalProperties": False}
    assert _unsupported(schema) == [
        "#/properties/a/oneOf: keyword not implemented",
        "#/properties/b/items: False is not a schema",
        "#/properties/b/const: 1 holds a value other than a string",
        "#/properties/c/$ref: 'other.json'",
        "#/properties/d/allOf/0/enum: ['x', 2] holds a value other than a string",
        "#/properties/e/type: ['string', 'decimal']"]
