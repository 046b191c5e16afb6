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

# The semantic-ir entry schema has no registry id: it is inlined as the items
# of semantic-ir-list. Its cases are kept under this case id and each is
# checked as a one-entry semantic-ir-list reply.
ENTRY = "semantic-ir"
ENTRY_SCHEMA = schemas.SCHEMAS["semantic-ir-list"]["properties"]["sentences"]["items"]

# The per-atom match-verdict reply gave way to one match-list reply per judge
# pass. Its cases are kept under their case id, each re-expressed as a
# one-entry match-list reply.
VERDICT = "match-verdict"

# The registry id each case id that is not one is checked as.
CHECKED_AS = {ENTRY: "semantic-ir-list", VERDICT: "match-list"}


def as_reply(case_id, reply):
    """The registry id and the reply a case is checked as."""
    if case_id == ENTRY:
        return "semantic-ir-list", {"sentences": [reply]}
    return CHECKED_AS.get(case_id, case_id), reply


def build_validator(schema):
    """jsonschema's validator for ``schema``, once the schema passes its
    draft's meta-schema."""
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


# Valid and invalid replies per case id: each schema id but match-list, ENTRY
# and VERDICT. Several
# invalid replies break more than one rule at once, including under the
# entry's and gap-assess's if/then/else, so best_match has to choose among
# the errors.
REPLIES = {
    ENTRY: [
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
    VERDICT: [
        {"matches": [0]},
        {"matches": [None]},
        {"matches": [-1]},
        {"matches": [1.5]},
        {"matches": [True]},
        {"matches": ["0"], "other": 1},
        {},
    ],
}


CASE_SCHEMAS = {**schemas.SCHEMAS, ENTRY: ENTRY_SCHEMA, VERDICT: schemas.SCHEMAS["match-list"]}
VALIDATORS = {case_id: build_validator(schema) for case_id, schema in CASE_SCHEMAS.items()}


def _outcome(error):
    return None if error is None else (error.message, list(error.path), error.validator)


def oracle_error(schema_id, reply):
    """The error ``jsonschema.validate`` raises on the reply, or None."""
    try:
        jsonschema.validate(reply, schemas.SCHEMAS[schema_id])
    except jsonschema.ValidationError as error:
        return error
    return None


def test_replies_cover_every_schema():
    assert {CHECKED_AS.get(case_id, case_id) for case_id in REPLIES} == set(schemas.SCHEMAS)
    assert set(CHECKED_AS) <= set(REPLIES)


@pytest.mark.parametrize("case_id", sorted(REPLIES))
def test_validate_reply_matches_jsonschema_validate(case_id):
    outcomes = []
    for case in REPLIES[case_id]:
        schema_id, reply = as_reply(case_id, case)
        expected = _outcome(oracle_error(schema_id, reply))
        assert _outcome(schemas.validate_reply(schema_id, reply)) == expected, reply
        outcomes.append(expected is None)
    assert True in outcomes and False in outcomes


class TestGapAssessAnswer:
    """A sufficient verdict carries a non-empty answer; a gap carries none."""

    GAP = {"thought": "t", "status": "gap", "gap_description": "d",
           "sub_query": "q", "target_anchor": _ANCHOR}

    @staticmethod
    def valid(reply) -> bool:
        return VALIDATORS["gap-assess"].is_valid(reply)

    def test_sufficient_with_answer_is_valid(self):
        assert self.valid({"thought": "t", "status": "sufficient", "answer": "a"})

    @pytest.mark.parametrize("extra", [{}, {"answer": ""}, {"answer": None}])
    def test_sufficient_without_a_non_empty_answer_is_invalid(self, extra):
        reply = {"thought": "t", "status": "sufficient", **extra}
        assert not self.valid(reply)
        assert isinstance(schemas.validate_reply("gap-assess", reply), jsonschema.ValidationError)

    def test_gap_without_answer_is_valid(self):
        assert self.valid(self.GAP)

    @pytest.mark.parametrize("answer", ["a", ""])
    def test_gap_with_answer_is_invalid(self, answer):
        reply = {**self.GAP, "answer": answer}
        assert not self.valid(reply)
        assert isinstance(schemas.validate_reply("gap-assess", reply), jsonschema.ValidationError)


def test_unknown_id_raises_and_freeform_bypasses():
    for unknown in ("no-such-schema", ENTRY, VERDICT):
        with pytest.raises(KeyError):
            schemas.validate_reply(unknown, {})
    assert schemas.validate_reply(schemas.FREEFORM, object()) is None


class TestCompiledAtImport:
    def test_every_schema_passes_its_meta_schema(self):
        for schema in schemas.SCHEMAS.values():
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_meta_schema_check_rejects_an_invalid_schema(self):
        with pytest.raises(jsonschema.SchemaError):
            build_validator({"type": "object", "required": "kind"})

    def test_replies_make_no_schema_checks(self, monkeypatch):
        calls = []
        for cls in {jsonschema.validators.validator_for(s) for s in schemas.SCHEMAS.values()}:
            original = cls.check_schema

            def counting(schema, *args, _original=original, **kwargs):
                calls.append(schema)
                return _original(schema, *args, **kwargs)

            monkeypatch.setattr(cls, "check_schema", staticmethod(counting))
        replies = [("semantic-ir-list", {"sentences": [{"skip": True}]}),
                   ("atom-list", {"atoms": ["x"]}),
                   ("atom-list", {"atoms": [1]}),
                   ("match-list", {"matches": [None]}),
                   ("summary-list", {"summaries": ["s"]}),
                   ("gap-assess", {"thought": "t", "status": "sufficient", "answer": "a"})]
        for i in range(100):
            schemas.validate_reply(*replies[i % len(replies)])
        assert calls == []


def test_semantic_ir_list_items_are_the_semantic_ir_schema_inlined():
    # the entry schema has no registry id of its own, and no $ref names it
    assert ENTRY not in schemas.SCHEMAS
    assert ENTRY_SCHEMA["type"] == "object" and "if" in ENTRY_SCHEMA
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

ONE_OF_VALIDATOR = build_validator(ONE_OF_SEMANTIC_IR)

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


@pytest.mark.parametrize("reply", REPLIES[ENTRY])
def test_semantic_ir_accepts_what_one_of_accepts(reply):
    assert VALIDATORS[ENTRY].is_valid(reply) == ONE_OF_VALIDATOR.is_valid(reply)


@settings(max_examples=600, deadline=None)
@given(semantic_ir_replies())
def test_semantic_ir_accepts_what_one_of_accepts_on_drawn_replies(reply):
    accepted = VALIDATORS[ENTRY].is_valid(reply)
    assert accepted == ONE_OF_VALIDATOR.is_valid(reply)
    assert (schemas.validate_reply(*as_reply(ENTRY, reply)) is None) == accepted


@settings(max_examples=200, deadline=None)
@given(st.lists(semantic_ir_replies(), max_size=4))
def test_semantic_ir_list_accepts_lists_of_what_one_of_accepts(entries):
    accepted = VALIDATORS["semantic-ir-list"].is_valid({"sentences": entries})
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


def drawn_replies(case_id):
    """Objects keyed by the case's property names plus a stray key, with
    values drawn from edge scalars, lists and nested objects; and the valid
    ``REPLIES`` of the case with up to three keys or items, at any depth,
    dropped, added or replaced by such a value."""
    names, constants = set(), set()
    _schema_words(CASE_SCHEMAS[case_id], names, constants)
    keys = st.sampled_from(sorted(names) + ["stray"])
    leaves = st.sampled_from(["", "x", *sorted(constants), 0, -1, 1.0, 1.5,
                              True, False, None, float("nan")])
    values = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=4),
        max_leaves=12,
    )
    valid = [r for r in REPLIES[case_id] if VALIDATORS[case_id].is_valid(r)]

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


def assert_predicate_agrees(case_id, case):
    """The predicate's verdict is jsonschema's, and a rejection is worded as
    ``jsonschema.validate`` words it."""
    schema_id, reply = as_reply(case_id, case)
    accepted = schemas.PREDICATES[schema_id](reply)
    assert accepted == VALIDATORS[schema_id].is_valid(reply), reply
    outcome = _outcome(schemas.validate_reply(schema_id, reply))
    assert (outcome is None) == accepted
    if not accepted:
        assert outcome == _outcome(oracle_error(schema_id, reply)), reply


def test_every_schema_id_has_a_predicate():
    assert set(schemas.PREDICATES) == set(schemas.SCHEMAS)


@pytest.mark.parametrize("case_id, reply",
                         [(cid, reply) for cid in sorted(REPLIES) for reply in REPLIES[cid]])
def test_predicate_agrees_with_jsonschema_on_fixed_replies(case_id, reply):
    assert_predicate_agrees(case_id, reply)


@pytest.mark.parametrize("reply", [
    {"matches": []},
    {"matches": [2, None, 0, 2.0]},
    {"matches": [0, -1, "1", None, 0.5]},
    {"matches": [[0], {"index": 0}], "extra": 0},
    {"matches": 0},
])
def test_predicate_agrees_with_jsonschema_on_match_lists(reply):
    # replies of several entries or none, which VERDICT's cases do not hold
    assert_predicate_agrees("match-list", reply)


@pytest.mark.parametrize("case_id", sorted(REPLIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_predicate_agrees_with_jsonschema_on_drawn_replies(case_id, data):
    assert_predicate_agrees(case_id, data.draw(drawn_replies(case_id)))


EDGE_VALUES = [0, 1, 2, 3, -1, 1.0, 2.5, True, False, None, float("nan"), "", "a", "ab",
               [], [1], [True], ["a"], [1, {"a": False}], {}, {"a": 1}, {"a": "x"},
               {"b": 1}]


@pytest.mark.parametrize("schema", [
    {"minimum": 2},
    {"minLength": 1},
    {"const": True},
    {"const": 1},
    {"enum": [False, 1.0, ""]},
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
    validator = build_validator(schema)
    for value in EDGE_VALUES:
        assert predicate(value) == validator.is_valid(value), value


@pytest.mark.parametrize("member", [0, 1, -1, 1.0, 2.5, True, False, None, "", "a",
                                    float("nan")])
def test_enum_and_const_compare_as_jsonschema_does(member):
    # the predicate's own equality against jsonschema's, on every edge value
    # and on the member object itself
    for schema in ({"const": member}, {"enum": [member]}, {"enum": ["z", member]}):
        predicate = schemas.compile_predicate(schema)
        validator = build_validator(schema)
        for value in [*EDGE_VALUES, member]:
            assert predicate(value) == validator.is_valid(value), (schema, value)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^x"},
    {"$ref": "#/$defs/x"},
    {"oneOf": [{"type": "string"}, {"type": "null"}]},
    {"type": "object", "additionalProperties": {"type": "string"}},
    {"type": "object", "additionalProperties": True},
    {"properties": {"a": {"items": {"pattern": "^x"}}}},
    {"type": "tuple"},
    {"const": [1, {"a": False}]},
    {"properties": {"a": {"enum": ["x", {"a": 1}]}}},
])
def test_compiler_refuses_keywords_it_does_not_implement(schema):
    with pytest.raises(ValueError):
        schemas.compile_predicate(schema)


class TestJsonschemaOnlyExplainsRejections:
    @staticmethod
    def count_iter_errors(monkeypatch) -> list:
        """Patch every registry validator class to record the validator each
        ``iter_errors`` call is made on, nested calls included."""
        calls = []
        for cls in {type(v) for v in VALIDATORS.values()}:
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
                            lambda sid, reply: (validated.append(sid), original(sid, reply))[1])
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
        error = schemas.validate_reply("semantic-ir-list", reply)
        assert isinstance(error, jsonschema.ValidationError)
        top_level = [v for v in calls if v.schema is schemas.SCHEMAS["semantic-ir-list"]]
        assert len(top_level) == 1
