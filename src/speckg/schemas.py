"""Registry of structured-output schemas enforced at the gateway boundary.

A reply tagged with a schema id must validate before it reaches any
downstream module; "freeform" replies bypass validation and stay text.

At import each schema is checked against its meta-schema by jsonschema and
compiled twice: into a jsonschema validator, and into a plain-Python
predicate (``compile_predicate``) that decides validity without building a
validator per subschema. A reply the predicate accepts is valid; only a
rejected reply goes to jsonschema, which words the error. The predicate
knows only the keywords the registry uses (``type``, ``enum``, ``const``,
``minLength``, ``minimum``, ``required``, ``properties``,
``additionalProperties: false``, ``items``, ``not``, ``anyOf`` and
``if``/``then``/``else``), each with jsonschema's rule; any other keyword is
refused when the schema is compiled.
"""

from __future__ import annotations

import numbers
from typing import Callable

import jsonschema
from jsonschema._utils import equal

FREEFORM = "freeform"

_ANCHOR = {
    "type": "object",
    "required": ["anchor_type", "entity"],
    "properties": {
        "anchor_type": {"enum": ["declarative", "procedural"]},
        "entity": {"type": "string", "minLength": 1},
    },
    "additionalProperties": False,
}

# The three semantic-ir reply shapes exclude each other (a skip has no kind,
# and each parse names its own kind), so the schema checks one of them: a
# reply is a skip if it carries "skip", a procedural parse if its kind says
# so, and a declarative parse otherwise.
_SKIP = {
    "required": ["skip"],
    "properties": {
        "skip": {"const": True},
        "reason": {"type": "string"},
    },
    "additionalProperties": False,
}

_DECLARATIVE = {
    "required": ["kind", "central_entity", "attributes"],
    "properties": {
        "kind": {"const": "declarative"},
        "central_entity": {"type": "string", "minLength": 1},
        "attributes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "value"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "value": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

_PROCEDURAL = {
    "required": ["kind", "trigger", "condition", "action"],
    "properties": {
        "kind": {"const": "procedural"},
        "trigger": {"type": "string", "minLength": 1},
        "condition": {"type": "string"},
        "action": {
            "type": "object",
            "required": ["subject", "verb", "object"],
            "properties": {
                "subject": {"type": "string", "minLength": 1},
                "verb": {"type": "string", "minLength": 1},
                "object": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

_SEMANTIC_IR = {
    "type": "object",
    "if": {"required": ["skip"]},
    "then": _SKIP,
    "else": {
        "if": {"required": ["kind"], "properties": {"kind": {"const": "procedural"}}},
        "then": _PROCEDURAL,
        "else": _DECLARATIVE,
    },
}

SCHEMAS: dict[str, dict] = {
    "semantic-ir": _SEMANTIC_IR,
    # One ir-extract reply: a semantic-ir entry per sentence of the request.
    # The entry schema is inlined, not a $ref, so no reference is resolved
    # per entry; the entry count is checked against the request by ingest.
    "semantic-ir-list": {
        "type": "object",
        "required": ["sentences"],
        "properties": {
            "sentences": {"type": "array", "items": _SEMANTIC_IR},
        },
        "additionalProperties": False,
    },
    "gap-assess": {
        "type": "object",
        "required": ["thought", "status"],
        "properties": {
            "thought": {"type": "string"},
            "status": {"enum": ["sufficient", "gap"]},
            "gap_description": {"type": "string", "minLength": 1},
            "sub_query": {"type": "string", "minLength": 1},
            "target_anchor": _ANCHOR,
            "answer": {"type": "string", "minLength": 1},
        },
        "additionalProperties": False,
        # A gap names what is missing; a sufficient verdict carries the answer.
        "if": {"properties": {"status": {"const": "gap"}}},
        "then": {
            "required": ["gap_description", "sub_query", "target_anchor"],
            "not": {"required": ["answer"]},
        },
        "else": {
            "required": ["answer"],
            "not": {
                "anyOf": [
                    {"required": ["gap_description"]},
                    {"required": ["sub_query"]},
                    {"required": ["target_anchor"]},
                ]
            },
        },
    },
    # One summarize reply: a summary per cut of the request, in order; the
    # count is checked against the request by retrieval.
    "summary-list": {
        "type": "object",
        "required": ["summaries"],
        "properties": {
            "summaries": {"type": "array", "items": {"type": "string", "minLength": 1}},
        },
        "additionalProperties": False,
    },
    "atom-list": {
        "type": "object",
        "required": ["atoms"],
        "properties": {
            "atoms": {"type": "array", "items": {"type": "string", "minLength": 1}},
        },
        "additionalProperties": False,
    },
    "match-verdict": {
        "type": "object",
        "required": ["match_index"],
        "properties": {
            "match_index": {"type": ["integer", "null"], "minimum": 0},
        },
        "additionalProperties": False,
    },
}


def compile_schema(schema: dict) -> jsonschema.protocols.Validator:
    """Check ``schema`` against its draft's meta-schema and build its validator.

    Raises jsonschema.SchemaError when the schema itself is invalid.
    """
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


Predicate = Callable[[object], bool]

_COMPILED_KEYWORDS = frozenset({
    "type", "enum", "const", "minLength", "minimum", "required", "properties",
    "additionalProperties", "items", "not", "anyOf", "if", "then", "else",
})


def _is_integer(x) -> bool:
    # Draft 6 on: a float with no fractional part is an integer; bool is not.
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def _is_number(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, numbers.Number)


_TYPES: dict[str, Predicate] = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "boolean": lambda x: isinstance(x, bool),
    "integer": _is_integer,
    "number": _is_number,
}


def _accept(x) -> bool:
    return True


def _all_of(checks: list[Predicate]) -> Predicate:
    if not checks:
        return _accept
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for each in checks:
            if not each(x):
                return False
        return True
    return check


def _object_check(required: list, properties: dict[str, Predicate],
                  closed: bool) -> Predicate:
    """``required``, ``properties`` and ``additionalProperties: false`` in one
    pass; like each of them, it accepts any value that is not an object."""
    def check(x):
        if not isinstance(x, dict):
            return True
        for key in required:
            if key not in x:
                return False
        if closed:
            for key in x:
                if key not in properties:
                    return False
        for key, accepts in properties.items():
            if key in x and not accepts(x[key]):
                return False
        return True
    return check


def compile_predicate(schema: dict) -> Predicate:
    """Compile ``schema`` into a predicate that is true exactly when
    jsonschema finds the value valid.

    Each keyword follows its rule in jsonschema's ``_keywords``: a keyword
    for one type passes values of any other type, ``bool`` is neither an
    ``integer`` nor a number, ``enum`` and ``const`` compare with
    jsonschema's bool-aware ``equal``, and ``minimum`` fails only when
    ``x < minimum``. Raises jsonschema.SchemaError on a keyword outside
    ``_COMPILED_KEYWORDS`` or an ``additionalProperties`` other than false,
    so no rule is skipped silently.
    """
    if not isinstance(schema, dict):
        raise jsonschema.SchemaError(f"cannot compile non-object schema {schema!r}")
    unknown = sorted(set(schema) - _COMPILED_KEYWORDS)
    if unknown:
        raise jsonschema.SchemaError(f"cannot compile schema keywords {unknown}")
    if schema.get("additionalProperties", False) is not False:
        raise jsonschema.SchemaError("cannot compile additionalProperties other than false")

    checks: list[Predicate] = []
    if "type" in schema:
        types = schema["type"]
        names = [types] if isinstance(types, str) else types
        if not set(names) <= set(_TYPES):
            raise jsonschema.SchemaError(f"cannot compile type {types!r}")
        preds = [_TYPES[name] for name in names]
        checks.append(preds[0] if len(preds) == 1
                      else lambda x: any(pred(x) for pred in preds))
    if "enum" in schema:
        members = schema["enum"]
        checks.append(lambda x: any(equal(each, x) for each in members))
    if "const" in schema:
        const = schema["const"]
        checks.append(lambda x: equal(x, const))
    if "minLength" in schema:
        min_length = schema["minLength"]
        checks.append(lambda x: not isinstance(x, str) or len(x) >= min_length)
    if "minimum" in schema:
        minimum = schema["minimum"]
        checks.append(lambda x: not _is_number(x) or not x < minimum)
    if {"required", "properties", "additionalProperties"} & set(schema):
        properties = {key: compile_predicate(sub)
                      for key, sub in schema.get("properties", {}).items()}
        checks.append(_object_check(schema.get("required", []), properties,
                                    "additionalProperties" in schema))
    if "items" in schema:
        item = compile_predicate(schema["items"])
        checks.append(lambda x: not isinstance(x, list) or all(map(item, x)))
    if "not" in schema:
        negated = compile_predicate(schema["not"])
        checks.append(lambda x: not negated(x))
    if "anyOf" in schema:
        branches = [compile_predicate(sub) for sub in schema["anyOf"]]
        checks.append(lambda x: any(branch(x) for branch in branches))
    if "if" in schema:
        # As in jsonschema, "then" and "else" are read only beside "if".
        condition = compile_predicate(schema["if"])
        then = compile_predicate(schema["then"]) if "then" in schema else _accept
        else_ = compile_predicate(schema["else"]) if "else" in schema else _accept
        checks.append(lambda x: then(x) if condition(x) else else_(x))
    return _all_of(checks)


VALIDATORS: dict[str, jsonschema.protocols.Validator] = {
    schema_id: compile_schema(schema) for schema_id, schema in SCHEMAS.items()
}

PREDICATES: dict[str, Predicate] = {
    schema_id: compile_predicate(schema) for schema_id, schema in SCHEMAS.items()
}


def validate_reply(schema_id: str, reply: object) -> None:
    """Raise jsonschema.ValidationError when the reply violates its schema.

    The compiled predicate decides; a rejected reply is explained by
    jsonschema, so the error is the one ``jsonschema.validate`` would raise:
    the best match among all violations.
    """
    if schema_id == FREEFORM:
        return
    accepts = PREDICATES.get(schema_id)
    if accepts is None:
        raise KeyError(f"unknown response schema id: {schema_id!r}")
    if accepts(reply):
        return
    error = jsonschema.exceptions.best_match(VALIDATORS[schema_id].iter_errors(reply))
    if error is not None:
        raise error
