"""The CLI's config validator against jsonschema, the oracle it replaced.

``cli._errors`` handles only the JSON Schema keywords ``cli.SCHEMAS`` uses.
Mutated valid configs for every command must be rejected by it exactly when
a draft 2020-12 validator rejects them. The oracle counts only a real int as
an ``integer``: JSON Schema also counts 3.0, which the CLI rejects on purpose.
It counts only a finite value as a ``number``: JSON Schema also counts
infinities and NaN, which Python's json reads and the CLI rejects on purpose.
"""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, validators

from latticeflow.cli import SCHEMAS, _check_schema, _errors

StrictValidator = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda _, v: isinstance(v, int) and not isinstance(v, bool)
        or isinstance(v, float) and math.isfinite(v),
    }),
)

LAWS = [
    {"kind": "bernoulli", "p": "0.9", "lo": 0, "hi": 1},
    {"kind": "finite_discrete", "atoms": [["0", "1/4"], ["1", "3/4"]]},
    {"kind": "uniform", "a": 0, "b": "1/2"},
    {"kind": "exponential", "rate": 1.5},
    {"kind": "half_normal", "sigma": 2},
]

LAW = LAWS[0]
VALID = {
    "sample": {"seed": 1, "distribution": LAW, "n": 2, "height": 2},
    "flow": {"seed": 1, "distribution": LAW, "n": 2, "height": 3, "k_disc": "R", "d": 3},
    "tau": {"seed": 1, "distribution": LAW, "n": 3, "k_slab": 2, "resolution": 8},
    "nu": {"seed": 1, "distribution": LAW, "n_list": [2, 4], "k_slab": "n", "replications": 3,
           "workers": 2},
    "psi": {"seed": 1, "distribution": LAW, "n": 2, "height": {"rule": "log", "coeff": 0.5},
            "k_disc": 4, "lambdas": ["0.5", 1, 0.25], "samples": 5},
    "oracle": {"seed": 1, "distribution": LAW, "n": 2, "height": 1, "lam": "1/2", "budget": 100},
    "verify": {"seed": 2**64 - 1, "scale": 0.5, "out": "v.csv"},
    "report": {"inputs": ["a.csv", "b.csv"]},
}

# Values that sit on the edges of the schemas: bools where ints go, integral
# floats, seeds past 64 bits, zero scales, the oneOf strings, and the shapes
# of heights, atoms and laws.
ODD = [
    True, False, None, 0, 1, 2, -1, 0.0, 0.5, 1.0, 2.0, 3.0, -0.5, float("inf"), float("-inf"),
    2**63, 2**64 - 1, 2**64, "R", "n", "x", "", "1/2", "log", "const", "bernoulli",
    [], [1], [1.0], [True], ["0.5"], [[0, 1]], [["0", "1/2"], ["1", "1/2"]], [[0, 1, 2]],
    {}, {"rule": "log", "coeff": 1}, {"rule": "cubic", "coeff": 1}, {"rule": "linear"},
    {"coeff": True, "rule": "const"}, {"kind": "bernoulli"}, *LAWS,
]
KEYS = sorted({k for schema in SCHEMAS.values() for k in schema["properties"]}
              | {"p", "lo", "hi", "atoms", "a", "b", "rate", "sigma", "kind", "rule", "coeff"})

# oneOf schemas whose branches overlap, so that some values match two of them
OVERLAPS = {
    "k_disc": {"oneOf": [{"type": "integer", "minimum": 1}, {"type": "integer", "maximum": 4},
                         {"const": "R"}]},
    "k_slab": {"oneOf": [{"type": "integer", "minimum": 1}, {"type": "number", "maximum": 2},
                         {"const": "n"}]},
    "height": {"oneOf": [{"type": "integer", "minimum": 1}, {"type": "integer", "maximum": 3},
                         {"type": "object", "required": ["rule"]}]},
}

# (command, overlapping field or None) -> (schema, oracle), built once
VARIANTS = {}
for _command, _schema in SCHEMAS.items():
    for _field in [None, *OVERLAPS]:
        if _field is None or _field in _schema["properties"]:
            _variant = copy.deepcopy(_schema)
            if _field is not None:
                _variant["properties"][_field] = OVERLAPS[_field]
            VARIANTS[_command, _field] = (_variant, StrictValidator(_variant))


def _paths(value, path=()):
    """Every (container, key) position inside a config."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, sub in items:
        yield path + (key,)
        if isinstance(sub, (dict, list)):
            yield from _paths(sub, path + (key,))


def _at(config, path):
    for key in path:
        config = config[key]
    return config


@st.composite
def cases(draw):
    command, field = draw(st.sampled_from(sorted(VARIANTS, key=str)))
    config = copy.deepcopy(VALID[command])
    if "distribution" in config:
        config["distribution"] = copy.deepcopy(draw(st.sampled_from(LAWS)))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(config))
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "add" or not paths:
            dicts = [()] + [p for p in paths if isinstance(_at(config, p), dict)]
            container = _at(config, draw(st.sampled_from(dicts)))
            container[draw(st.sampled_from(KEYS))] = copy.deepcopy(draw(st.sampled_from(ODD)))
            continue
        *parent, key = draw(st.sampled_from(paths))
        if op == "delete":
            del _at(config, parent)[key]
        else:
            _at(config, parent)[key] = copy.deepcopy(
                draw(st.one_of(st.sampled_from(ODD), st.integers(), st.floats()))
            )
    return command, field, config


@given(cases())
@settings(max_examples=1500, deadline=None, derandomize=True)
def test_validator_agrees_with_jsonschema(case):
    command, field, config = case
    schema, oracle = VARIANTS[command, field]
    assert (not any(_errors(schema, config))) == oracle.is_valid(config)


def test_valid_configs_pass_and_messages_name_the_field():
    for command, config in VALID.items():
        assert list(_errors(SCHEMAS[command], config)) == []
    (msg,) = _errors(SCHEMAS["psi"], {**VALID["psi"], "samples": True})
    assert "config.samples" in msg


@pytest.mark.parametrize("schema", [
    {"enum": [1, "R"]}, {"const": 0}, {"const": 1.0}, {"oneOf": [{"const": True}, {"type": "integer"}]},
    {"type": "number"}, {"exclusiveMinimum": 0}, {"minimum": 1, "maximum": 2**64 - 1},
])
@pytest.mark.parametrize("value", [True, False, 0, 1, 1.0, "R", 2**64, -math.inf, math.inf, math.nan])
def test_scalar_keywords_agree_with_jsonschema(schema, value):
    """true is not 1, and infinities and NaN are no numbers, so no bound
    applies to them; no schema of the CLI puts a number or a bool in ``enum``
    or ``const`` yet."""
    assert (not any(_errors(schema, value))) == StrictValidator(schema).is_valid(value)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"n": {"type": "integer", "multipleOf": 2}}},
    {"oneOf": [{"type": "integer"}, {"anyOf": []}]},
    {"items": {"type": "null"}},
])
def test_unknown_keyword_or_type_raises(schema):
    with pytest.raises(ValueError, match="unsupported"):
        _check_schema(schema)
