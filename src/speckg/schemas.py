"""Registry of structured-output schemas enforced at the gateway boundary.

A reply tagged with a schema id must validate before it reaches any
downstream module; "freeform" replies bypass validation and stay text.

Each schema is compiled once, at import, into a plain-Python predicate
(``compile_predicate``) that decides validity. The predicate knows only the
keywords the registry uses (``type``, ``enum`` and ``const`` over scalars,
``minLength``, ``minimum``, ``required``, ``properties``,
``additionalProperties: false``, ``items``, ``not``, ``anyOf`` and
``if``/``then``/``else``), each with jsonschema's rule; any other keyword is
refused when the schema is compiled. jsonschema is imported only when a
reply is rejected, to word the error; the schemas themselves are checked
against their meta-schema by the tests.
"""

from __future__ import annotations

import numbers
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from jsonschema import ValidationError

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

# The three shapes of a semantic-ir entry exclude each other (a skip has no
# kind, and each parse names its own kind), so the schema checks one of them:
# an entry is a skip if it carries "skip", a procedural parse if its kind says
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
    # One atom-match reply: per candidate, in order, the index of its matching
    # reference or null; the count, the range and that no index repeats are
    # checked against the request by evaluation.
    "match-list": {
        "type": "object",
        "required": ["matches"],
        "properties": {
            "matches": {"type": "array", "items": {"type": ["integer", "null"], "minimum": 0}},
        },
        "additionalProperties": False,
    },
}


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


def _equal(member, value) -> bool:
    """jsonschema's ``equal`` for a scalar ``member``: True is not 1."""
    if member is value:
        return True
    return not isinstance(member, bool) and not isinstance(value, bool) and member == value


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
    ``integer`` nor a number, ``enum`` and ``const`` compare as jsonschema's
    ``equal`` does (``True`` is not ``1``), and ``minimum`` fails only when
    ``x < minimum``. Raises ValueError on a keyword outside
    ``_COMPILED_KEYWORDS``, an ``additionalProperties`` other than false, or
    an ``enum`` or ``const`` member that is not a string, bool, number or
    null, so no rule is skipped silently.
    """
    if not isinstance(schema, dict):
        raise ValueError(f"cannot compile non-object schema {schema!r}")
    unknown = sorted(set(schema) - _COMPILED_KEYWORDS)
    if unknown:
        raise ValueError(f"cannot compile schema keywords {unknown}")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError("cannot compile additionalProperties other than false")
    constants = schema.get("enum", []) + ([schema["const"]] if "const" in schema else [])
    if not all(c is None or isinstance(c, (str, int, float)) for c in constants):
        raise ValueError(f"cannot compile enum or const members {constants!r}")

    checks: list[Predicate] = []
    if "type" in schema:
        types = schema["type"]
        names = [types] if isinstance(types, str) else types
        if not set(names) <= set(_TYPES):
            raise ValueError(f"cannot compile type {types!r}")
        preds = [_TYPES[name] for name in names]
        checks.append(preds[0] if len(preds) == 1
                      else lambda x: any(pred(x) for pred in preds))
    if "enum" in schema:
        members = schema["enum"]
        checks.append(lambda x: any(_equal(each, x) for each in members))
    if "const" in schema:
        const = schema["const"]
        checks.append(lambda x: _equal(const, x))
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


PREDICATES: dict[str, Predicate] = {
    schema_id: compile_predicate(schema) for schema_id, schema in SCHEMAS.items()
}


def validate_reply(schema_id: str, reply: object) -> ValidationError | None:
    """None when the reply satisfies its schema; else jsonschema's error.

    The compiled predicate decides. Only a rejected reply imports jsonschema
    and builds a validator, which words the error ``jsonschema.validate``
    would raise: the best match among all violations. Raises KeyError on an
    unknown schema id.
    """
    if schema_id == FREEFORM:
        return None
    accepts = PREDICATES.get(schema_id)
    if accepts is None:
        raise KeyError(f"unknown response schema id: {schema_id!r}")
    if accepts(reply):
        return None
    from jsonschema import exceptions, validators

    schema = SCHEMAS[schema_id]
    validator = validators.validator_for(schema)(schema)
    return exceptions.best_match(validator.iter_errors(reply))
