import copy
import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckg import schemas

# The five reply shapes as JSON Schema: the oracle whose verdict each check
# in speckg.schemas must reach.
_ANCHOR_SCHEMA = {
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

SCHEMAS = {
    "semantic-ir-list": {
        "type": "object",
        "required": ["sentences"],
        "properties": {
            "sentences": {"type": "array", "items": {
                "type": "object",
                "if": {"required": ["skip"]},
                "then": _SKIP,
                "else": {
                    "if": {"required": ["kind"],
                           "properties": {"kind": {"const": "procedural"}}},
                    "then": _PROCEDURAL,
                    "else": _DECLARATIVE,
                },
            }},
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
            "target_anchor": _ANCHOR_SCHEMA,
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
    "match-list": {
        "type": "object",
        "required": ["matches"],
        "properties": {
            "matches": {"type": "array", "items": {"type": ["integer", "null"], "minimum": 0}},
        },
        "additionalProperties": False,
    },
}

_ANCHOR = {"anchor_type": "declarative", "entity": "ctrl register"}

# The semantic-ir entry has no schema id: it is the items of
# semantic-ir-list. Its cases are kept under this case id and each is
# checked as a one-entry semantic-ir-list reply.
ENTRY = "semantic-ir"
ENTRY_SCHEMA = SCHEMAS["semantic-ir-list"]["properties"]["sentences"]["items"]

# The per-atom match-verdict reply gave way to one match-list reply per judge
# pass. Its cases are kept under their case id, each re-expressed as a
# one-entry match-list reply.
VERDICT = "match-verdict"

# The schema id each case id that is not one is checked as.
CHECKED_AS = {ENTRY: "semantic-ir-list", VERDICT: "match-list"}


def as_reply(case_id, reply):
    """The schema id and the reply a case is checked as."""
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
# and VERDICT. Several invalid replies break more than one rule at once,
# including under the entry's and gap-assess's if/then/else.
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


CASE_SCHEMAS = {**SCHEMAS, ENTRY: ENTRY_SCHEMA, VERDICT: SCHEMAS["match-list"]}
VALIDATORS = {case_id: build_validator(schema) for case_id, schema in CASE_SCHEMAS.items()}


def assert_one_line_message(message):
    assert isinstance(message, str) and message.startswith("reply"), message
    assert "\n" not in message, message


def test_replies_cover_every_schema():
    assert {CHECKED_AS.get(case_id, case_id) for case_id in REPLIES} == set(SCHEMAS)
    assert set(CHECKED_AS) <= set(REPLIES)


@pytest.mark.parametrize("case_id", sorted(REPLIES))
def test_validate_reply_matches_jsonschema_validate(case_id):
    outcomes = []
    for case in REPLIES[case_id]:
        schema_id, reply = as_reply(case_id, case)
        try:
            jsonschema.validate(reply, SCHEMAS[schema_id])
        except jsonschema.ValidationError:
            assert_one_line_message(schemas.validate_reply(schema_id, reply))
            outcomes.append(False)
        else:
            assert schemas.validate_reply(schema_id, reply) is None, reply
            outcomes.append(True)
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
        assert_one_line_message(schemas.validate_reply("gap-assess", reply))

    def test_gap_without_answer_is_valid(self):
        assert self.valid(self.GAP)

    @pytest.mark.parametrize("answer", ["a", ""])
    def test_gap_with_answer_is_invalid(self, answer):
        reply = {**self.GAP, "answer": answer}
        assert not self.valid(reply)
        assert_one_line_message(schemas.validate_reply("gap-assess", reply))


def test_unknown_id_raises_and_freeform_bypasses():
    for unknown in ("no-such-schema", ENTRY, VERDICT):
        with pytest.raises(KeyError):
            schemas.validate_reply(unknown, {})
    assert schemas.validate_reply(schemas.FREEFORM, object()) is None


class TestCompiledAtImport:
    """The oracle schemas, each built into its jsonschema validator when this
    module is imported."""

    def test_every_schema_passes_its_meta_schema(self):
        for schema in SCHEMAS.values():
            jsonschema.validators.validator_for(schema).check_schema(schema)

    def test_meta_schema_check_rejects_an_invalid_schema(self):
        with pytest.raises(jsonschema.SchemaError):
            build_validator({"type": "object", "required": "kind"})


def test_semantic_ir_list_items_are_the_semantic_ir_schema_inlined():
    # the entry schema has no schema id of its own, and no $ref names it
    assert ENTRY not in SCHEMAS and ENTRY not in schemas.CHECKS
    assert ENTRY_SCHEMA["type"] == "object" and "if" in ENTRY_SCHEMA
    assert "$ref" not in json.dumps(SCHEMAS)


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


# The checks against jsonschema's own decision.

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
    """The check's verdict is jsonschema's, and a rejection is one line that
    starts at the reply."""
    schema_id, reply = as_reply(case_id, case)
    message = schemas.validate_reply(schema_id, reply)
    assert (message is None) == VALIDATORS[schema_id].is_valid(reply), (reply, message)
    if message is not None:
        assert_one_line_message(message)


def test_every_schema_id_has_a_check():
    assert set(schemas.CHECKS) == set(SCHEMAS)


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


@pytest.mark.parametrize("schema_id, reply, message", [
    ("semantic-ir-list", {"sentences": [{"skip": True}, {"kind": "procedural", "trigger": ""}]},
     "reply.sentences[1].condition is missing"),
    ("semantic-ir-list",
     {"sentences": [{"kind": "procedural", "trigger": "", "condition": "", "action": {}}]},
     "reply.sentences[0].trigger is empty"),
    ("semantic-ir-list",
     {"sentences": [{"kind": "declarative", "central_entity": "x",
                     "attributes": [{"name": "a", "value": "1"}, {"name": "", "value": ""}]}]},
     "reply.sentences[0].attributes[1].name is empty"),
    ("semantic-ir-list", {"sentences": [{"skip": False}]}, "reply.sentences[0].skip is not true"),
    ("semantic-ir-list", {"sentences": [{"kind": "other", "central_entity": "x",
                                         "attributes": []}]},
     "reply.sentences[0].kind is not one of 'declarative', 'procedural'"),
    ("gap-assess", {"thought": "t", "status": "gap", "gap_description": "d", "sub_query": "q",
                    "target_anchor": {"anchor_type": "procedural", "entity": "", "x": 1}},
     "reply.target_anchor.x is not allowed"),
    ("gap-assess", {"thought": "t", "status": "gap", "sub_query": "q"},
     "reply.gap_description is missing from a gap"),
    ("gap-assess", {"thought": "t", "status": "sufficient", "answer": "a", "sub_query": "q"},
     "reply.sub_query is not allowed in a sufficient verdict"),
    ("summary-list", {"summaries": ["a", 1]}, "reply.summaries[1] is not a string"),
    ("atom-list", {"atoms": "one"}, "reply.atoms is not an array"),
    ("atom-list", {"atoms": [1]}, "reply.atoms[0] is not a string"),
    ("match-list", {"matches": [0, True]}, "reply.matches[1] is neither an integer nor null"),
    ("match-list", {"matches": [2.0, -1]}, "reply.matches[1] is negative"),
    ("match-list", [], "reply is not an object"),
])
def test_rejection_names_the_path(schema_id, reply, message):
    assert schemas.validate_reply(schema_id, reply) == message
