"""Registry of structured-output schemas enforced at the gateway boundary.

A reply tagged with a schema id must validate before it reaches any
downstream module; "freeform" replies bypass validation and stay text.
Each schema is checked against its meta-schema and compiled once, at import.
"""

from __future__ import annotations

import jsonschema

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


VALIDATORS: dict[str, jsonschema.protocols.Validator] = {
    schema_id: compile_schema(schema) for schema_id, schema in SCHEMAS.items()
}


def validate_reply(schema_id: str, reply: object) -> None:
    """Raise jsonschema.ValidationError when the reply violates its schema.

    The error is the one ``jsonschema.validate`` would raise: the best match
    among all violations.
    """
    if schema_id == FREEFORM:
        return
    validator = VALIDATORS.get(schema_id)
    if validator is None:
        raise KeyError(f"unknown response schema id: {schema_id!r}")
    error = jsonschema.exceptions.best_match(validator.iter_errors(reply))
    if error is not None:
        raise error
