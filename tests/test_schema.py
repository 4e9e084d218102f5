"""The built-in report schema check (`validate_report`, `validate_json`).

jsonschema is the reference: the checker must give its draft-07 verdict on
every document, including values that only an in-memory report can hold
(tuples, numpy scalars, NaN). The package itself does not import jsonschema.
"""

import copy
import functools
import math
import operator
import typing
from collections import Counter
from typing import Literal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktmap.errors import ReportSchemaError
from ktmap.hubs import HubConfig
from ktmap.report import (PipelineConfig, load_report_schema, run_pipeline,
                          validate_json, validate_report)
from test_golden import config_for

try:
    import jsonschema
except ImportError:  # the reference is a test extra
    jsonschema = None

needs_jsonschema = pytest.mark.skipif(jsonschema is None,
                                      reason="jsonschema not installed")

SUPPORTED = {"$schema", "title", "type", "required", "properties", "items",
             "minItems", "minimum", "maximum", "exclusiveMinimum", "const",
             "enum", "pattern"}
JSON_TYPES = {"object", "array", "string", "number", "integer", "boolean", "null"}

# the edge cases of jsonschema's draft-07 semantics, and values of every
# JSON type, container or not, that a report field could wrongly hold
EDGE_VALUES = [
    True, False, np.bool_(True), 0, 1, 2, -1, 1.0, 2.0, 0.5, 1.5, -0.5,
    math.nan, math.inf, -math.inf, 1e300, -1e300, np.int64(3), np.float64(1.0),
    np.float64(0.25), np.float64(math.nan), None, "", "1\n", "1.2", "x",
    np.str_("basic"), "ktmap", "citation", "cocitation", "basic", "other",
    [], {}, (), ("m00", "m01"), ["m00"], ["m00", "m01"], [1, 2], [True],
    (1, 2), {"a": 1}, {"slope": 1.0, "intercept": 0.0, "r2": 1.0, "n_bins": 3},
]


def is_valid(instance, schema=None) -> bool:
    """The built-in checker's verdict; the shipped report schema by default."""
    try:
        if schema is None:
            validate_report(instance)
        else:
            validate_json(instance, schema)
    except ReportSchemaError:
        return False
    return True


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> list[dict]:
    """In-memory report documents: the toy corpus in citation and
    co-citation mode, and a small planted citation corpus."""
    return [run_pipeline(config_for(case, tmp_path_factory.mktemp(case)))
            for case in ("toy-citation", "toy-cocitation", "planted")]


def locations(node, path=()):
    """The path of every value below `node`, through dicts and lists."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from locations(child, path + (key,))


def places(doc) -> dict:
    """{place: paths}: the paths in `doc` grouped by their place in the
    schema, list indices written as []."""
    groups: dict = {}
    for path in locations(doc):
        place = tuple("[]" if isinstance(k, int) else k for k in path)
        groups.setdefault(place, []).append(path)
    return groups


def at(doc, path):
    return functools.reduce(operator.getitem, path, doc)


def edit(doc, path, action, value) -> None:
    """Delete or replace the value at `path` in `doc`, or append a copy of
    `value` to the list there."""
    parent = at(doc, path[:-1])
    if action == "delete":
        del parent[path[-1]]
    elif action == "replace":
        parent[path[-1]] = copy.deepcopy(value)
    else:
        parent[path[-1]].append(copy.deepcopy(value))


values = st.one_of(st.sampled_from(EDGE_VALUES), st.integers(-3, 5),
                   st.floats(), st.text(max_size=3),
                   st.lists(st.sampled_from(EDGE_VALUES), max_size=3),
                   st.tuples(st.sampled_from(EDGE_VALUES)))


def mutate(data, doc) -> None:
    """One random edit of `doc`. The path is drawn by its place first, so a
    long list weighs no more than a single field; an appended item is a
    drawn value or a copy of an item already in the list."""
    groups = places(doc)
    path = data.draw(st.sampled_from(groups[data.draw(st.sampled_from(list(groups)))]))
    target = at(doc, path)
    action = data.draw(st.sampled_from(
        ["replace", "delete"] + (["append"] if isinstance(target, list) else [])))
    if action == "delete":
        value = None
    elif action == "append" and target and data.draw(st.booleans()):
        value = data.draw(st.sampled_from(target))
    else:
        value = data.draw(values)
    edit(doc, path, action, value)


@needs_jsonschema
def test_same_verdict_as_jsonschema(reports):
    reference = jsonschema.Draft7Validator(load_report_schema())
    seen: Counter = Counter()

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def check(data):
        doc = copy.deepcopy(data.draw(st.sampled_from(reports)))
        for _ in range(data.draw(st.integers(0, 3))):
            mutate(data, doc)
        ours = is_valid(doc)
        assert ours == reference.is_valid(doc)
        seen[ours] += 1

    check()
    assert seen[True] and seen[False], seen


@needs_jsonschema
def test_every_edge_value_at_every_place(reports):
    # one edit at a time, so no other violation hides the one under test:
    # at one path of each place in the toy report, the value deleted, each
    # edge value put there and, for a list, each edge value appended
    # the value of every place is pinned: some edge value fails there
    reference = jsonschema.Draft7Validator(load_report_schema())
    seen: Counter = Counter()
    unpinned = []
    for place, (path, *_) in places(reports[0]).items():
        edits = [("delete", None)] + [("replace", v) for v in EDGE_VALUES]
        if isinstance(at(reports[0], path), list):
            edits += [("append", v) for v in EDGE_VALUES]
        rejected = False
        for action, value in edits:
            doc = copy.deepcopy(reports[0])
            edit(doc, path, action, value)
            ours = is_valid(doc)
            assert ours == reference.is_valid(doc), (path, action, value)
            seen[ours] += 1
            rejected |= action == "replace" and not ours
        if not rejected:
            unpinned.append(place)
    assert seen[True] and seen[False], seen
    assert not unpinned


NAN = math.nan


@pytest.mark.parametrize("schema, instance, valid", [
    # a bool is neither integer nor number; an integral float is an integer
    ({"type": "integer"}, True, False),
    ({"type": "number"}, False, False),
    ({"type": "integer"}, 1.0, True),
    ({"type": "integer"}, np.float64(2.0), True),
    ({"type": "integer"}, 1e300, True),
    ({"type": "integer"}, 1.5, False),
    ({"type": "integer"}, math.inf, False),
    ({"type": "integer"}, np.int64(2), False),
    ({"type": "number"}, np.int64(2), True),
    ({"type": "boolean"}, np.bool_(True), False),
    ({"type": "string"}, np.str_("x"), True),
    # a keyword constrains only instances of its own type
    ({"type": ["object", "null"], "required": ["slope"]}, None, True),
    ({"required": ["slope"]}, ["slope"], True),
    ({"minimum": 0}, "-1", True),
    ({"pattern": "^a$"}, 5, True),
    ({"minItems": 2}, {}, True),
    # NaN passes every bound: they fail only on <, > and <=
    ({"minimum": 0, "maximum": 1}, NAN, True),
    ({"exclusiveMinimum": 1}, NAN, True),
    ({"exclusiveMinimum": 1}, np.float64(NAN), True),
    ({"exclusiveMinimum": 1}, 1, False),
    ({"exclusiveMinimum": 1}, 1.0000001, True),
    ({"minimum": 0}, -math.inf, False),
    ({"maximum": 1}, 1e300, False),
    # only a list is an array
    ({"type": "array"}, (), False),
    ({"type": "array"}, ["a"], True),
    ({"items": {"type": "string"}}, (1, 2), True),
    ({"items": {"type": "string"}}, ["a", 2], False),
    ({"minItems": 2}, ("a",), True),
    ({"minItems": 2}, ["a"], False),
    # re.search: $ matches before a final newline
    ({"pattern": "^[0-9]+(\\.[0-9]+)*$"}, "1\n", True),
    ({"pattern": "^[0-9]+(\\.[0-9]+)*$"}, "1.x", False),
    ({"pattern": "[0-9]"}, "a1", True),
    # const and enum tell True from 1, also inside containers
    ({"const": 1}, True, False),
    ({"const": True}, 1, False),
    ({"const": True}, True, True),
    ({"const": 1}, 1.0, True),
    ({"const": "ktmap"}, np.str_("ktmap"), True),
    ({"enum": [1, 2]}, True, False),
    ({"enum": [0]}, False, False),
    ({"enum": [[1]]}, [True], False),
    ({"enum": [[1]]}, (1,), True),
    ({"const": {"a": 1}}, {"a": True}, False),
    ({"const": {"a": 1}}, {"a": 1.0}, True),
])
def test_edge_cases(schema, instance, valid):
    assert is_valid(instance, schema) == valid
    if jsonschema is not None:
        assert jsonschema.Draft7Validator(schema).is_valid(instance) == valid


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.pop("main_path"), r"^\$: required property 'main_path' is missing$"),
    (lambda d: d["fronts"]["table"][0].update(level=1),
     r"^\$\.fronts\.table\[0\]\.level: 1 fails minimum 2$"),
    (lambda d: d["fronts"]["table"][-1].update(stratum="other"),
     r"^\$\.fronts\.table\[\d+\]\.stratum: 'other' fails enum \["),
    (lambda d: d["power_law"].update(alpha=1),
     r"^\$\.power_law\.alpha: 1 fails exclusiveMinimum 1$"),
    (lambda d: d.update(seed=True), r"^\$\.seed: True fails type 'integer'$"),
    (lambda d: d["main_path"].update(nodes=["m00"]),
     r"^\$\.main_path\.nodes: \['m00'\] fails minItems 2$"),
], ids=["no-main-path", "level-1", "stratum-other", "alpha-1", "bool-seed",
        "one-node-path"])
def test_named_rejections(reports, edit, message):
    doc = copy.deepcopy(reports[0])
    validate_report(doc)
    edit(doc)
    with pytest.raises(ReportSchemaError, match=message):
        validate_report(doc)


@pytest.mark.parametrize("schema, instance", [
    ({"multipleOf": 2}, 4),
    ({"type": "integer", "maxItems": 1}, 3),  # raised although inapplicable
    ({"properties": {"a": {"format": "date"}}}, {"a": "x"}),
    ({"items": [{"type": "string"}]}, ["a"]),  # tuple-form items
    ({"properties": {"a": True}}, {"a": 1}),  # boolean schema
])
def test_unsupported_keyword_raises(schema, instance):
    with pytest.raises(ReportSchemaError, match="unsupported schema"):
        validate_json(instance, schema)


def subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


def test_shipped_schema_uses_supported_keywords():
    schema = load_report_schema()
    assert schema["$schema"] == "http://json-schema.org/draft-07/schema#"
    for sub in subschemas(schema):
        assert isinstance(sub, dict) and set(sub) <= SUPPORTED, sub
        types = sub.get("type", [])
        types = types if isinstance(types, list) else [types]
        assert set(types) <= JSON_TYPES
        # every value is constrained, down to the config and thresholds
        assert {"type", "enum", "const"} & set(sub), sub
        if "object" in types:
            assert set(sub["properties"]) >= set(sub["required"]), sub


_JSON_TYPE_OF = {str: "string", bool: "boolean", int: "integer", float: "number"}


@pytest.mark.parametrize("place, config_class", [
    ("config", PipelineConfig), ("thresholds", HubConfig)])
def test_config_values_typed_by_their_annotations(place, config_class):
    """report.config and report.hubs.thresholds have a property for each
    field, typed as its annotation says: a Literal is an enum of its
    values, and a field that takes None has "null" among its types."""
    schema = load_report_schema()["properties"]
    if place == "thresholds":
        schema = schema["hubs"]["properties"]
    properties = schema[place]["properties"]
    expected = {}
    for name, hint in typing.get_type_hints(config_class).items():
        if typing.get_origin(hint) is Literal:
            expected[name] = {"enum": list(typing.get_args(hint))}
            continue
        args = typing.get_args(hint) or (hint,)  # T | None gives (T, NoneType)
        kind = _JSON_TYPE_OF[args[0]]
        expected[name] = {"type": [kind, "null"] if type(None) in args else kind}
    assert properties == expected
