import copy
import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckg import kg as kgmod
from speckg import schemas
from speckg.gateway import FixtureStore, Gateway
from speckg.ingest import ingest_document
from speckg.offline import OfflineModel

_ANCHOR = {"anchor_type": "declarative", "entity": "ctrl register"}

# Valid and invalid replies per schema id. Several invalid replies break more
# than one rule at once, including under semantic-ir's and gap-assess's
# if/then/else, so best_match has to choose among the errors.
REPLIES = {
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
        {"kind": "procedural", "central_entity": "x", "attributes": []},
        {"kind": "declarative", "trigger": "t", "condition": "",
         "action": {"subject": "s", "verb": "v", "object": ""}},
        {"central_entity": "x", "attributes": []},
        {"reason": "no skip"},
        {"skip": True, "reason": 3},
        "skip",
        None,
    ],
    "semantic-ir-list": [
        {"sentences": []},
        {"sentences": [{"skip": True},
                       {"kind": "declarative", "central_entity": "ctrl register",
                        "attributes": [{"name": "width", "value": "32"}]}]},
        {"sentences": [{"skip": True}, {"kind": "procedural", "trigger": ""}]},
        {"sentences": {"skip": True}},
        {"sentences": [{"skip": True}], "extra": 1},
        {"sentences": [None, {"kind": "declarative", "central_entity": ""}], "n": 2},
        {"skip": True},
        {},
        [],
    ],
    "gap-assess": [
        {"thought": "enough", "status": "sufficient", "answer": "It is 0x0."},
        {"thought": "missing", "status": "gap", "gap_description": "default",
         "sub_query": "default of ctrl?", "target_anchor": _ANCHOR},
        {"thought": "enough", "status": "sufficient"},
        {"thought": "enough", "status": "sufficient", "answer": ""},
        {"thought": "enough", "status": "sufficient", "answer": ["It is 0x0."]},
        {"thought": "missing", "status": "gap", "gap_description": "default",
         "sub_query": "default of ctrl?", "target_anchor": _ANCHOR, "answer": "a"},
        {"thought": "missing", "status": "gap", "answer": ""},
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
    "summary-list": [
        {"summaries": []},
        {"summaries": ["Evidence for: q\nThe CTRL register holds the mode.",
                       "No evidence relevant to: q"]},
        {"summaries": [""]},
        {"summaries": "one"},
        {"summaries": ["a", 1, None], "extra": 0},
        {"summary": ["a"]},
        {},
        ["a"],
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


class TestGapAssessAnswer:
    """A sufficient verdict carries a non-empty answer; a gap carries none."""

    GAP = {"thought": "t", "status": "gap", "gap_description": "d",
           "sub_query": "q", "target_anchor": _ANCHOR}

    @staticmethod
    def valid(reply) -> bool:
        return schemas.VALIDATORS["gap-assess"].is_valid(reply)

    def test_sufficient_with_answer_is_valid(self):
        assert self.valid({"thought": "t", "status": "sufficient", "answer": "a"})

    @pytest.mark.parametrize("extra", [{}, {"answer": ""}, {"answer": None}])
    def test_sufficient_without_a_non_empty_answer_is_invalid(self, extra):
        reply = {"thought": "t", "status": "sufficient", **extra}
        assert not self.valid(reply)
        with pytest.raises(jsonschema.ValidationError):
            schemas.validate_reply("gap-assess", reply)

    def test_gap_without_answer_is_valid(self):
        assert self.valid(self.GAP)

    @pytest.mark.parametrize("answer", ["a", ""])
    def test_gap_with_answer_is_invalid(self, answer):
        reply = {**self.GAP, "answer": answer}
        assert not self.valid(reply)
        with pytest.raises(jsonschema.ValidationError):
            schemas.validate_reply("gap-assess", reply)


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
        replies = [("semantic-ir", {"skip": True}),
                   ("atom-list", {"atoms": ["x"]}),
                   ("match-verdict", {"match_index": None}),
                   ("summary-list", {"summaries": ["s"]}),
                   ("gap-assess", {"thought": "t", "status": "sufficient", "answer": "a"})]
        for i in range(100):
            schemas.validate_reply(*replies[i % len(replies)])
        assert calls == []


def test_semantic_ir_list_items_are_the_semantic_ir_schema_inlined():
    items = schemas.SCHEMAS["semantic-ir-list"]["properties"]["sentences"]["items"]
    assert items is schemas.SCHEMAS["semantic-ir"]
    assert "$ref" not in json.dumps(schemas.SCHEMAS)


# The semantic-ir schema as its three reply shapes under oneOf, which checks
# every shape against each reply. The schema in use checks one shape, chosen
# by "skip" and "kind"; the shapes exclude each other, so both must accept
# exactly the same replies.
ONE_OF_SEMANTIC_IR = {
    "type": "object",
    "oneOf": [
        {
            "required": ["skip"],
            "properties": {
                "skip": {"const": True},
                "reason": {"type": "string"},
            },
            "additionalProperties": False,
        },
        {
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
        },
        {
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
        },
    ],
}

ONE_OF_VALIDATOR = schemas.compile_schema(ONE_OF_SEMANTIC_IR)

_scalar = st.sampled_from(["", "x", 0, 1.5, True, False, None])
_text = st.sampled_from(["", "x"])
_attribute = st.fixed_dictionaries({"name": _text, "value": _text})
_action = st.fixed_dictionaries({"subject": _text, "verb": _text, "object": _text})
_shapes = st.one_of(
    st.fixed_dictionaries({"skip": st.just(True)}, optional={"reason": _text}),
    st.fixed_dictionaries({"kind": st.just("declarative"), "central_entity": _text,
                           "attributes": st.lists(_attribute, max_size=2)}),
    st.fixed_dictionaries({"kind": st.just("procedural"), "trigger": _text,
                           "condition": _text, "action": _action}),
)
_KEYS = ("skip", "reason", "kind", "central_entity", "attributes", "trigger",
         "condition", "action", "extra")
_values = st.one_of(_scalar, st.sampled_from(["declarative", "procedural", "other"]),
                    st.lists(st.one_of(_attribute, _scalar), max_size=2),
                    st.dictionaries(st.sampled_from(["subject", "verb", "object", "x"]),
                                    st.one_of(_text, _scalar), max_size=4))


@st.composite
def semantic_ir_replies(draw):
    """A well-formed reply of one shape, with up to three keys dropped, added
    or replaced by a value of any type; or a reply that is not an object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(_scalar, st.lists(_scalar, max_size=2)))
    reply = draw(_shapes)
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(_KEYS))
        if key in reply and draw(st.booleans()):
            del reply[key]
        else:
            reply[key] = draw(_values)
    return reply


@pytest.mark.parametrize("reply", REPLIES["semantic-ir"])
def test_semantic_ir_accepts_what_one_of_accepts(reply):
    assert (schemas.VALIDATORS["semantic-ir"].is_valid(reply)
            == ONE_OF_VALIDATOR.is_valid(reply))


@settings(max_examples=600, deadline=None)
@given(semantic_ir_replies())
def test_semantic_ir_accepts_what_one_of_accepts_on_drawn_replies(reply):
    accepted = schemas.VALIDATORS["semantic-ir"].is_valid(reply)
    assert accepted == ONE_OF_VALIDATOR.is_valid(reply)
    if not accepted:
        with pytest.raises(jsonschema.ValidationError):
            schemas.validate_reply("semantic-ir", reply)


@settings(max_examples=200, deadline=None)
@given(st.lists(semantic_ir_replies(), max_size=4))
def test_semantic_ir_list_accepts_lists_of_what_one_of_accepts(entries):
    accepted = schemas.VALIDATORS["semantic-ir-list"].is_valid({"sentences": entries})
    assert accepted == all(ONE_OF_VALIDATOR.is_valid(entry) for entry in entries)


# The compiled predicates against jsonschema's own decision.

def _schema_words(schema, names: set, constants: set) -> None:
    """Collect every property name and every string enum/const value of
    ``schema``, at any depth."""
    if isinstance(schema, dict):
        names.update(schema.get("properties", {}))
        names.update(schema.get("required", []))
        constants.update(v for v in schema.get("enum", []) if isinstance(v, str))
        if isinstance(schema.get("const"), str):
            constants.add(schema["const"])
        for value in schema.values():
            _schema_words(value, names, constants)
    elif isinstance(schema, list):
        for value in schema:
            _schema_words(value, names, constants)


def drawn_replies(schema_id):
    """Objects keyed by the schema's property names plus a stray key, with
    values drawn from edge scalars, lists and nested objects; and the valid
    ``REPLIES`` of the schema with up to three keys or items, at any depth,
    dropped, added or replaced by such a value."""
    names, constants = set(), set()
    _schema_words(schemas.SCHEMAS[schema_id], names, constants)
    keys = st.sampled_from(sorted(names) + ["stray"])
    leaves = st.sampled_from(["", "x", *sorted(constants), 0, -1, 1.0, 1.5,
                              True, False, None, float("nan")])
    values = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=4),
        max_leaves=12,
    )
    valid = [r for r in REPLIES[schema_id] if schemas.VALIDATORS[schema_id].is_valid(r)]

    @st.composite
    def replies(draw):
        if draw(st.integers(0, 3)) == 0:
            return draw(st.dictionaries(keys, values, max_size=6) | values)
        reply = copy.deepcopy(draw(st.sampled_from(valid)))
        for _ in range(draw(st.integers(0, 3))):
            node = reply
            while True:
                inner = [v for v in (node.values() if isinstance(node, dict) else node)
                         if isinstance(v, (dict, list))]
                if not inner or draw(st.booleans()):
                    break
                node = draw(st.sampled_from(inner))
            if isinstance(node, dict):
                key = draw(st.sampled_from(sorted(node)) if node and draw(st.booleans())
                           else keys)
                if key in node and draw(st.booleans()):
                    del node[key]
                else:
                    node[key] = draw(leaves | values)
            elif node and draw(st.booleans()):
                node[draw(st.integers(0, len(node) - 1))] = draw(leaves | values)
            else:
                node.append(draw(leaves | values))
        return reply

    return replies()


def assert_predicate_agrees(schema_id, reply):
    accepted = schemas.PREDICATES[schema_id](reply)
    assert accepted == schemas.VALIDATORS[schema_id].is_valid(reply), reply
    assert (_outcome(schemas.validate_reply, schema_id, reply) is None) == accepted


def test_every_schema_id_has_a_predicate():
    assert set(schemas.PREDICATES) == set(schemas.SCHEMAS)


@pytest.mark.parametrize("schema_id, reply",
                         [(sid, reply) for sid in sorted(REPLIES) for reply in REPLIES[sid]])
def test_predicate_agrees_with_jsonschema_on_fixed_replies(schema_id, reply):
    assert_predicate_agrees(schema_id, reply)


@pytest.mark.parametrize("schema_id", sorted(schemas.SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_predicate_agrees_with_jsonschema_on_drawn_replies(schema_id, data):
    assert_predicate_agrees(schema_id, data.draw(drawn_replies(schema_id)))


EDGE_VALUES = [0, 1, 2, 3, -1, 1.0, 2.5, True, False, None, float("nan"), "", "a", "ab",
               [], [1], [True], ["a"], [1, {"a": False}], {}, {"a": 1}, {"a": "x"},
               {"b": 1}]


@pytest.mark.parametrize("schema", [
    {"minimum": 2},
    {"minLength": 1},
    {"const": True},
    {"const": 1},
    {"const": [1, {"a": False}]},
    {"enum": [0, "a", None]},
    {"type": "integer"},
    {"type": ["integer", "null"]},
    {"type": "number"},
    {"type": ["boolean", "array"]},
    {"required": ["a"]},
    {"properties": {"a": {"type": "string"}}},
    {"properties": {"a": {}}, "additionalProperties": False},
    {"items": {"type": "string"}},
    {"not": {"type": "string"}},
    {"anyOf": [{"type": "string"}, {"minimum": 3}]},
    {"if": {"type": "string"}, "then": {"minLength": 2}},
    {"if": {"type": "array"}, "else": {"const": 1}},
    {"then": {"type": "string"}, "else": {"type": "null"}},
])
def test_each_keyword_follows_jsonschema(schema):
    # each keyword alone, on values of every type: a keyword for one type
    # passes the others, bool is no number, 1.0 is an integer, and enum and
    # const tell True from 1
    predicate = schemas.compile_predicate(schema)
    validator = schemas.compile_schema(schema)
    for value in EDGE_VALUES:
        assert predicate(value) == validator.is_valid(value), value


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^x"},
    {"$ref": "#/$defs/x"},
    {"oneOf": [{"type": "string"}, {"type": "null"}]},
    {"type": "object", "additionalProperties": {"type": "string"}},
    {"type": "object", "additionalProperties": True},
    {"properties": {"a": {"items": {"pattern": "^x"}}}},
    {"type": "tuple"},
])
def test_compiler_refuses_keywords_it_does_not_implement(schema):
    with pytest.raises(jsonschema.SchemaError):
        schemas.compile_predicate(schema)


class TestJsonschemaOnlyExplainsRejections:
    @staticmethod
    def count_iter_errors(monkeypatch) -> list:
        """Patch every registry validator class to record the validator each
        ``iter_errors`` call is made on, nested calls included."""
        calls = []
        for cls in {type(v) for v in schemas.VALIDATORS.values()}:
            def counting(self, *args, _original=cls.iter_errors, **kwargs):
                calls.append(self)
                return _original(self, *args, **kwargs)
            monkeypatch.setattr(cls, "iter_errors", counting)
        return calls

    def test_valid_replies_of_a_record_build_make_no_iter_errors_call(
            self, monkeypatch, tmp_path, fixture_document):
        validated = []
        original = schemas.validate_reply
        monkeypatch.setattr(schemas, "validate_reply",
                            lambda sid, reply: (validated.append(sid), original(sid, reply)))
        calls = self.count_iter_errors(monkeypatch)
        gateway = Gateway(provider=OfflineModel(), mode="record",
                          fixtures=FixtureStore(tmp_path / "replies.jsonl"),
                          chat_model="offline-chat", embedding_model="offline-embed")
        corpus = ingest_document(gateway, fixture_document, "serial_link_spec")
        kgmod.build_from_corpus(corpus, gateway)
        assert validated and set(validated) == {"semantic-ir-list"}
        assert calls == []

    def test_one_invalid_reply_makes_one_iter_errors_call(self, monkeypatch):
        calls = self.count_iter_errors(monkeypatch)
        reply = {"sentences": [{"skip": True}, {"kind": "procedural", "trigger": ""}]}
        with pytest.raises(jsonschema.ValidationError):
            schemas.validate_reply("semantic-ir-list", reply)
        top_level = [v for v in calls if v is schemas.VALIDATORS["semantic-ir-list"]]
        assert len(top_level) == 1
