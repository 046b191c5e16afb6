import jsonschema
import pytest

from speckg import schemas

_ANCHOR = {"anchor_type": "declarative", "entity": "ctrl register"}

# Valid and invalid replies per schema id. Several invalid replies break more
# than one rule at once, including under semantic-ir's oneOf and gap-assess's
# if/then/else, so best_match has to choose among the errors.
REPLIES = {
    "sentence-kind": [
        {"kind": "declarative"},
        {"kind": "procedural"},
        {"kind": "other"},
        {},
        {"kind": "declarative", "extra": 1},
        {"kind": 3, "extra": 1},
        "declarative",
        None,
    ],
    "semantic-ir": [
        {"skip": True},
        {"skip": True, "reason": "heading"},
        {"kind": "declarative", "central_entity": "ctrl register",
         "attributes": [{"name": "width", "value": "32"}]},
        {"kind": "procedural", "trigger": "reset asserted", "condition": "",
         "action": {"subject": "fsm", "verb": "returns to", "object": "idle"}},
        {"skip": False},
        {"skip": True, "kind": "declarative"},
        {},
        [],
        {"kind": "declarative", "central_entity": "", "attributes": [{"name": ""}]},
        {"kind": "declarative", "central_entity": "x",
         "attributes": [{"name": "a", "value": 1, "unit": "ns"}, "b"]},
        {"kind": "procedural", "trigger": "", "condition": 1, "action": {}},
        {"kind": "procedural", "trigger": "t", "condition": "c",
         "action": {"subject": "", "verb": 2}, "skip": True},
        {"kind": "other", "central_entity": "x", "attributes": []},
    ],
    "gap-assess": [
        {"thought": "enough", "status": "sufficient"},
        {"thought": "missing", "status": "gap", "gap_description": "default",
         "sub_query": "default of ctrl?", "target_anchor": _ANCHOR},
        {"thought": "missing", "status": "gap"},
        {"thought": "missing", "status": "gap", "sub_query": ""},
        {"thought": 1, "status": "gap", "sub_query": "", "target_anchor": {}},
        {"thought": "enough", "status": "sufficient", "sub_query": "q"},
        {"thought": "enough", "status": "sufficient", "gap_description": "",
         "target_anchor": {"anchor_type": "other"}, "extra": True},
        {"status": "unknown"},
        {"thought": "x", "status": "gap", "gap_description": "d", "sub_query": "q",
         "target_anchor": {"anchor_type": "procedural", "entity": "", "x": 1}},
        "gap",
    ],
    "atom-list": [
        {"atoms": []},
        {"atoms": ["the fifo is 16 deep"]},
        {"atoms": [""]},
        {"atoms": "one"},
        {"atoms": ["a", 1, ""], "extra": 0},
        {},
    ],
    "match-verdict": [
        {"match_index": 0},
        {"match_index": None},
        {"match_index": -1},
        {"match_index": 1.5},
        {"match_index": True},
        {"match_index": "0", "other": 1},
        {},
    ],
}


def _outcome(check, schema_id, reply):
    try:
        check(schema_id, reply)
    except jsonschema.ValidationError as error:
        return (error.message, list(error.path), error.validator)
    return None


def test_replies_cover_every_schema():
    assert set(REPLIES) == set(schemas.SCHEMAS)


@pytest.mark.parametrize("schema_id", sorted(schemas.SCHEMAS))
def test_validate_reply_matches_jsonschema_validate(schema_id):
    def oracle(sid, reply):
        jsonschema.validate(reply, schemas.SCHEMAS[sid])

    outcomes = []
    for reply in REPLIES[schema_id]:
        expected = _outcome(oracle, schema_id, reply)
        assert _outcome(schemas.validate_reply, schema_id, reply) == expected, reply
        outcomes.append(expected is None)
    assert True in outcomes and False in outcomes


def test_unknown_id_raises_and_freeform_bypasses():
    with pytest.raises(KeyError):
        schemas.validate_reply("no-such-schema", {})
    schemas.validate_reply(schemas.FREEFORM, object())


class TestCompiledAtImport:
    def test_every_schema_id_has_a_compiled_validator(self):
        assert set(schemas.VALIDATORS) == set(schemas.SCHEMAS)
        for schema_id, validator in schemas.VALIDATORS.items():
            assert validator.schema is schemas.SCHEMAS[schema_id]

    def test_invalid_schema_rejected_when_compiled(self):
        with pytest.raises(jsonschema.SchemaError):
            schemas.compile_schema({"type": "object", "required": "kind"})

    def test_replies_make_no_schema_checks(self, monkeypatch):
        calls = []
        for cls in {jsonschema.validators.validator_for(s) for s in schemas.SCHEMAS.values()}:
            original = cls.check_schema

            def counting(schema, *args, _original=original, **kwargs):
                calls.append(schema)
                return _original(schema, *args, **kwargs)

            monkeypatch.setattr(cls, "check_schema", staticmethod(counting))
        replies = [("sentence-kind", {"kind": "declarative"}),
                   ("atom-list", {"atoms": ["x"]}),
                   ("match-verdict", {"match_index": None}),
                   ("gap-assess", {"thought": "t", "status": "sufficient"})]
        for i in range(100):
            schemas.validate_reply(*replies[i % len(replies)])
        assert calls == []
