"""The checks a structured reply must pass at the gateway boundary.

A chat request names the schema id its reply must meet; ``validate_reply``
runs that id's check before the reply reaches any downstream module, and a
``freeform`` reply bypasses it and stays text. Each check is plain Python,
written out for its one reply shape, and returns ``None`` for a valid reply
or a one-line message naming the JSON path of the first value that breaks a
rule, such as ``reply.sentences[1].trigger is empty``. The rules are JSON
Schema's: an integer may be written ``2.0``, a bool is no number, and an
object holds no key its shape does not name. The tests hold each shape as a
JSON Schema and check that jsonschema reaches the same verdict.
"""

from __future__ import annotations

from typing import Callable

FREEFORM = "freeform"


def _object(value, path: str, required: tuple, optional: tuple = ()) -> str | None:
    """``value`` is an object with every ``required`` key and no key outside
    ``required`` and ``optional``."""
    if not isinstance(value, dict):
        return f"{path} is not an object"
    for key in required:
        if key not in value:
            return f"{path}.{key} is missing"
    for key in value:
        if key not in required and key not in optional:
            return f"{path}.{key} is not allowed"
    return None


def _strings(obj: dict, path: str, keys: tuple, may_be_empty: bool = False) -> str | None:
    """Each of ``keys`` that ``obj`` holds is a string, and a non-empty one
    unless ``may_be_empty``."""
    for key in keys:
        if key in obj:
            value = obj[key]
            if not isinstance(value, str):
                return f"{path}.{key} is not a string"
            if not value and not may_be_empty:
                return f"{path}.{key} is empty"
    return None


def _one_of(obj: dict, path: str, key: str, allowed: tuple) -> str | None:
    """``obj[key]`` is one of the strings ``allowed``."""
    if obj[key] in allowed:
        return None
    return f"{path}.{key} is not one of {', '.join(map(repr, allowed))}"


def _items(items, path: str, check_item: Callable[[object, str], str | None]) -> str | None:
    """``items`` is an array and every item passes ``check_item``."""
    if not isinstance(items, list):
        return f"{path} is not an array"
    for i, item in enumerate(items):
        fault = check_item(item, f"{path}[{i}]")
        if fault:
            return fault
    return None


def _list_reply(reply, key: str, check_item: Callable[[object, str], str | None]) -> str | None:
    """``reply`` is ``{key: [item, ...]}`` and every item passes ``check_item``."""
    return _object(reply, "reply", (key,)) or _items(reply[key], f"reply.{key}", check_item)


def _text(item, path: str) -> str | None:
    if not isinstance(item, str):
        return f"{path} is not a string"
    return None if item else f"{path} is empty"


def _semantic_ir(entry, path: str) -> str | None:
    """One sentence's parse. The three shapes exclude each other: an entry is a
    skip if it carries ``skip``, a procedural parse if its kind says so, and a
    declarative parse otherwise."""
    if not isinstance(entry, dict):
        return f"{path} is not an object"
    if "skip" in entry:
        return (_object(entry, path, ("skip",), ("reason",))
                or (None if entry["skip"] is True else f"{path}.skip is not true")
                or _strings(entry, path, ("reason",), may_be_empty=True))
    if entry.get("kind") == "procedural":
        action = f"{path}.action"
        return (_object(entry, path, ("kind", "trigger", "condition", "action"))
                or _strings(entry, path, ("trigger",))
                or _strings(entry, path, ("condition",), may_be_empty=True)
                or _object(entry["action"], action, ("subject", "verb", "object"))
                or _strings(entry["action"], action, ("subject", "verb"))
                or _strings(entry["action"], action, ("object",), may_be_empty=True))
    return (_object(entry, path, ("kind", "central_entity", "attributes"))
            or _one_of(entry, path, "kind", ("declarative", "procedural"))
            or _strings(entry, path, ("central_entity",))
            or _items(entry["attributes"], f"{path}.attributes", _attribute))


def _attribute(attribute, path: str) -> str | None:
    return (_object(attribute, path, ("name", "value"))
            or _strings(attribute, path, ("name",))
            or _strings(attribute, path, ("value",), may_be_empty=True))


def _anchor(anchor, path: str) -> str | None:
    return (_object(anchor, path, ("anchor_type", "entity"))
            or _one_of(anchor, path, "anchor_type", ("declarative", "procedural"))
            or _strings(anchor, path, ("entity",)))


# A gap names what is missing; a sufficient verdict carries the answer.
_GAP_KEYS = ("gap_description", "sub_query", "target_anchor")


def _gap_assess(reply) -> str | None:
    fault = (_object(reply, "reply", ("thought", "status"), (*_GAP_KEYS, "answer"))
             or _strings(reply, "reply", ("thought",), may_be_empty=True)
             or _one_of(reply, "reply", "status", ("sufficient", "gap"))
             or _strings(reply, "reply", ("gap_description", "sub_query", "answer"))
             or ("target_anchor" in reply
                 and _anchor(reply["target_anchor"], "reply.target_anchor")))
    if fault:
        return fault
    if reply["status"] == "gap":
        for key in _GAP_KEYS:
            if key not in reply:
                return f"reply.{key} is missing from a gap"
        if "answer" in reply:
            return "reply.answer is not allowed in a gap"
        return None
    if "answer" not in reply:
        return "reply.answer is missing from a sufficient verdict"
    for key in _GAP_KEYS:
        if key in reply:
            return f"reply.{key} is not allowed in a sufficient verdict"
    return None


def _match(item, path: str) -> str | None:
    """A reference index or null; ``2.0`` is an integer, ``True`` is not."""
    if item is None:
        return None
    if isinstance(item, bool) or not (isinstance(item, int)
                                      or isinstance(item, float) and item.is_integer()):
        return f"{path} is neither an integer nor null"
    return f"{path} is negative" if item < 0 else None


CHECKS: dict[str, Callable[[object], str | None]] = {
    # One ir-extract reply: a semantic-ir entry per sentence of the request;
    # the entry count is checked against the request by ingest.
    "semantic-ir-list": lambda reply: _list_reply(reply, "sentences", _semantic_ir),
    "gap-assess": _gap_assess,
    # One summarize reply: a summary per cut of the request, in order; the
    # count is checked against the request by retrieval.
    "summary-list": lambda reply: _list_reply(reply, "summaries", _text),
    "atom-list": lambda reply: _list_reply(reply, "atoms", _text),
    # One atom-match reply: per candidate, in order, the index of its matching
    # reference or null; the count, the range and that no index repeats are
    # checked against the request by evaluation.
    "match-list": lambda reply: _list_reply(reply, "matches", _match),
}


def validate_reply(schema_id: str, reply: object) -> str | None:
    """None when the reply passes the check of ``schema_id``; else the check's
    one-line message. Raises KeyError on an unknown schema id."""
    if schema_id == FREEFORM:
        return None
    check = CHECKS.get(schema_id)
    if check is None:
        raise KeyError(f"unknown response schema id: {schema_id!r}")
    return check(reply)
