"""Deterministic offline provider: a rule-based stand-in model.

Serves every task the pipeline needs (per-passage extraction, which
classifies and parses each sentence in one reply; summarization; gap-driven
reasoning, whose sufficient verdict carries the answer; answer synthesis for
the loop's other exits; atomic-fact decomposition; equivalence judging) plus
hashing-trick bag-of-words embeddings, with no network, keys, or RNG. It
exists so record/replay fixtures can be produced hermetically; hosted models
replace it in real deployments via the gateway without touching any
downstream module.

The grammar is a shallow clause parser tuned to specification prose
(subordinate trigger clauses, passives, attribute statements). It is a model
implementation, not pipeline logic: the modules under test never see it
directly, only gateway replies.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gateway import ChatRequest
from .prompts import extract_payload
from .text import canonical_entity, split_sentences, strip_articles, tokenize

EMBED_DIM = 256

STOPWORDS = {
    "the", "a", "an", "is", "are", "was", "were", "be", "been", "being",
    "to", "of", "in", "at", "on", "by", "for", "with", "from", "into",
    "it", "its", "and", "or", "that", "this", "does", "do", "what",
    "which", "where", "when", "how", "why", "any",
}

SUBORDINATORS = ("when", "whenever", "if", "upon", "once", "until", "while",
                 "after", "before")

_CUE_RE = re.compile(r"\b(when|whenever|if|upon|once|until|while|then)\b", re.IGNORECASE)

PROC_VERBS = {
    "returns", "enters", "moves", "transitions", "asserts", "deasserts",
    "sets", "clears", "resets", "reverts", "begins", "starts", "stops",
    "loads", "pushes", "forwards", "signals", "routes", "generates",
    "produces", "drives", "goes", "stays", "remains", "validates", "raises",
    "triggers", "initiates", "samples", "latches", "shifts", "serializes",
    "switches", "advances", "captures", "drains", "issues", "increments",
    "decrements", "writes", "reads", "arrives", "fires", "expires",
    "completes", "toggles", "gates", "unmasks",
}

DECL_VERBS = {
    "contains", "holds", "stores", "provides", "specifies", "selects",
    "defaults", "occupies", "controls", "consists", "supports", "indicates",
    "reports", "includes", "defines", "uses", "exposes", "carries", "names",
    "lists", "measures", "counts", "tracks", "enables", "disables", "masks",
    "has", "is", "are",
}

PARTICIPLES = {
    "asserted", "deasserted", "cleared", "set", "detected", "generated",
    "produced", "driven", "shifted", "pushed", "loaded", "forwarded",
    "written", "read", "sampled", "latched", "mirrored", "controlled",
    "enabled", "disabled", "selected", "raised", "triggered", "initiated",
    "released", "reached", "updated", "captured", "drained", "gated",
    "issued", "masked", "qualified",
}

CLAUSE_VERBS = PROC_VERBS | PARTICIPLES

PARTICLES = {"to", "into", "in", "of", "at", "on", "from", "back"}

MULTI_VALUE_PREDICATES = {"reports", "contains", "includes", "provides", "holds"}

_SKIP_RE = re.compile(r"^(see |refer to |figure |table |cf\.)", re.IGNORECASE)

INSUFFICIENT = "The retrieved evidence is insufficient to answer the question fully."

# --- judge normalization -----------------------------------------------------

JUDGE_STOPWORDS = STOPWORDS | {"then", "therefore", "so"}

VERB_SYNONYMS = {
    "returns": "resets", "return": "resets", "reverts": "resets",
    "revert": "resets",
    "reaches": "enters", "reach": "enters", "moves": "enters",
    "move": "enters", "advances": "enters", "advance": "enters",
    "transitions": "enters", "transition": "enters",
    "begins": "starts", "begin": "starts", "commences": "starts",
    "produces": "generates", "produce": "generates",
    "feeds": "drives", "feed": "drives",
}

TYPE_NAMERS = {"state", "signal", "flag", "pulse", "bit", "register",
               "field", "strobe", "line"}

IRREGULAR_STEMS = {"driven": "drive", "goes": "go", "gone": "go",
                   "written": "write", "wrote": "write"}


@dataclass(frozen=True)
class ClauseParse:
    """Shallow parse of one sentence; immutable, since the model shares one
    parse of a passage among every request that sends that passage."""

    kind: str
    sentence: str
    central_entity: str = ""
    attributes: tuple[tuple[str, str], ...] = ()
    trigger: str = ""
    condition: str = ""
    action: tuple[str, str, str] | None = None  # subject, verb, object
    direct: bool = False  # "<participle> directly by <agent>" root marker

    @cached_property
    def entity_key(self) -> str:
        """The canonical entity the parse is about: its action's subject, or
        its central entity. Computed on first lookup, so a memoized parse
        computes it once."""
        return canonical_entity(self.action[0] if self.action else self.central_entity)


def _normalize_clause(clause: str) -> str:
    """Drop articles and auxiliary verbs, keep everything else verbatim."""
    drop = {"a", "an", "the", "is", "are", "was", "were", "be", "been", "being"}
    words = [w for w in clause.split() if w.lower().strip(",.;") not in drop]
    return " ".join(w.strip(",.;") for w in words)


def _split_clauses(sentence: str) -> tuple[list[str], str]:
    """Return (subordinate clauses, main clause) of a procedural sentence."""
    s = sentence.strip().rstrip(".!?")
    pieces = [p.strip() for p in re.split(r",\s*", s) if p.strip()]
    subs: list[str] = []
    mains: list[str] = []
    for piece in pieces:
        m = re.match(rf"(?i)^({'|'.join(SUBORDINATORS)})\s+(.+)$", piece)
        if m and not mains:
            subs.append(m.group(2))
        else:
            mains.append(piece)
    main = ", ".join(mains)
    if not subs and main:
        m = re.search(rf"(?i)\s+({'|'.join(SUBORDINATORS)})\s+(.+)$", main)
        if m:
            subs.append(m.group(2))
            main = main[: m.start()].strip()
    return subs, main


_PASSIVE_BY_RE = re.compile(
    r"(?i)^(?P<subj>.+?)\s+(?:is|are)\s+(?P<part>\w+)\s+(?P<direct>directly\s+)?by\s+(?P<agent>.+)$"
)
_PASSIVE_RE = re.compile(r"(?i)^(?P<subj>.+?)\s+(?:is|are)\s+(?P<part>\w+)(?P<rest>\s+.+)?$")


def _passive(clause: str) -> tuple[str, str, str | None, bool, str] | None:
    """Split "<subject> is|are <participle> [directly] by <agent>", else
    "<subject> is|are <participle> <rest>", for a known participle.

    Returns (subject, participle, agent or None, "directly" marker, rest);
    the subject and agent lose their articles, the rest keeps them.
    """
    m = _PASSIVE_BY_RE.match(clause)
    if m and m.group("part").lower() in PARTICIPLES:
        return (strip_articles(m.group("subj")), m.group("part").lower(),
                strip_articles(m.group("agent")), bool(m.group("direct")), "")
    m = _PASSIVE_RE.match(clause)
    if m and m.group("part").lower() in PARTICIPLES:
        return (strip_articles(m.group("subj")), m.group("part").lower(),
                None, False, (m.group("rest") or "").strip())
    return None


def _parse_action(main: str) -> tuple[tuple[str, str, str], bool] | None:
    passive = _passive(main)
    if passive:
        subject, part, agent, direct, rest = passive
        if agent is not None:
            return (subject, f"{part}-by", agent), direct
        return (subject, part, strip_articles(rest)), False

    words = main.split()
    for i, word in enumerate(words):
        lw = word.lower().strip(",.;")
        if lw in PROC_VERBS and i > 0:
            subject = strip_articles(" ".join(words[:i]))
            verb = lw
            j = i + 1
            if j < len(words) and words[j].lower() in PARTICLES:
                verb = f"{lw} {words[j].lower()}"
                j += 1
            obj = strip_articles(" ".join(words[j:])).rstrip(".")
            if subject:
                return (subject, verb, obj), False
    return None


def _parse_declarative(sentence: str) -> tuple[str, list[tuple[str, str]]]:
    s = sentence.strip().rstrip(".!?")
    passive = _passive(s)
    if passive:
        entity, name, agent, _, rest = passive
        if agent is not None:
            return entity, [(f"{name} by", agent)]
        rest_words = rest.split()
        if rest_words and rest_words[0].lower() in PARTICLES:
            name = f"{name} {rest_words[0].lower()}"
            rest = " ".join(rest_words[1:])
        return entity, [(name, strip_articles(rest))]

    words = s.split()
    for i, word in enumerate(words):
        lw = word.lower().strip(",.;")
        if lw in DECL_VERBS | PROC_VERBS and i > 0:
            entity = strip_articles(" ".join(words[:i]))
            name = lw
            j = i + 1
            if j < len(words) and words[j].lower() in PARTICLES:
                name = f"{lw} {words[j].lower()}"
                j += 1
            value = strip_articles(" ".join(words[j:])).rstrip(".")
            if not entity:
                continue
            if lw in MULTI_VALUE_PREDICATES and " and " in value:
                parts = [p.strip() for p in value.split(" and ") if p.strip()]
                return entity, [(name, p) for p in parts]
            return entity, [(name, value)]
    # Low-content: keep a best-effort entity with no attributes.
    entity = strip_articles(" ".join(words[:4]))
    return entity, []


def classify(sentence: str) -> str:
    return "procedural" if _CUE_RE.search(sentence) else "declarative"


def _parse_table_row(row: str) -> ClauseParse | None:
    cells = [c.strip() for c in row.strip("|").split("|") if c.strip()]
    if len(cells) < 2:
        return None
    if len(cells) == 2:
        attrs = [("is", cells[1])]
    else:
        attrs = [(cells[1], " ".join(cells[2:]))]
    return ClauseParse(kind="declarative", sentence=row.strip(),
                       central_entity=cells[0], attributes=tuple(attrs))


def parse_sentence(sentence: str) -> ClauseParse | None:
    """Full shallow parse; None means the sentence carries no usable content."""
    stripped = re.sub(r"\s+", " ", sentence).strip()
    if stripped.startswith("|"):
        return _parse_table_row(stripped)
    stripped = re.sub(r"^([-*+]|\d+[.)])\s+", "", stripped)
    if not stripped or _SKIP_RE.match(stripped) or len(tokenize(stripped)) < 3:
        return None
    kind = classify(stripped)
    if kind == "procedural":
        subs, main = _split_clauses(stripped)
        parsed = _parse_action(main) if main else None
        if not subs or parsed is None:
            return None
        action, direct = parsed
        return ClauseParse(
            kind="procedural",
            sentence=stripped,
            trigger=_normalize_clause(subs[0]),
            condition=_normalize_clause(subs[1]) if len(subs) > 1 else "",
            action=action,
            direct=direct,
        )
    entity, attrs = _parse_declarative(stripped)
    if not entity:
        return None
    return ClauseParse(kind="declarative", sentence=stripped,
                       central_entity=entity, attributes=tuple(attrs))


def clause_entity(clause: str) -> str:
    """Entity named by a normalized trigger/condition clause."""
    words = clause.split()
    for i, word in enumerate(words):
        if word.lower() in CLAUSE_VERBS:
            if i > 0:
                return " ".join(words[:i])
            break
    return clause


# --- judge -------------------------------------------------------------------

def _identifier_like(token: str) -> bool:
    return "_" in token or (len(token) >= 2 and token.isupper())


def _stem(token: str) -> str:
    if token in IRREGULAR_STEMS:
        return IRREGULAR_STEMS[token]
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    for suffix in ("ing", "ed", "s"):
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    return token


def judge_normalize(text: str) -> tuple[str, ...]:
    """Order-free normalized token profile used for equivalence verdicts."""
    raw = re.findall(r"[A-Za-z0-9_]+", text)
    out = []
    for i, tok in enumerate(raw):
        low = tok.lower()
        if low in JUDGE_STOPWORDS:
            continue
        if low in TYPE_NAMERS and i > 0 and _identifier_like(raw[i - 1]):
            continue
        low = VERB_SYNONYMS.get(low, low)
        out.append(_stem(low))
    return tuple(sorted(out))


# --- question analysis for reasoning ------------------------------------------

_CHAIN_Q = re.compile(
    r"(?i)\bwhich\s+(?:source\s+)?(?:signal|event|input)?\s*ultimately\s+"
    r"(?:drives|controls|produces|feeds)\s+(?:the\s+)?(?P<target>[^?]+?)\s*\?"
)
_ATTR_Q = re.compile(
    r"(?i)\bwhat is the\s+(?P<attr>default value|reset value|width|address|size|"
    r"bit position|position|divisor)\s+of\s+(?:the\s+)?(?P<ent>[^?]+?)\s*\?"
)
_LOCATE_Q = re.compile(
    r"(?i)\bwhere is the\s+(?P<desc>.+?)\s+located\s*\?"
)
_DESC_FN = re.compile(
    r"(?i)^(?:bit|field|signal)\s+that\s+(?:controls|enables|selects)\s+(?:the\s+)?(?P<fn>.+)$"
)
_PROCESS_Q = re.compile(
    r"(?i)\b(?:describe|trace) the chain of events from\s+(?P<start>.+?)\s+until\s+(?P<terminal>[^?.]+)"
)
_TRANSITION_Q = re.compile(
    r"(?i)\bwhich state does\s+(?:the\s+)?(?P<fsm>.+?)\s+"
    r"(?:reach|enter|return to|settle in|end up in)\s+when\s+(?P<cond>[^?]+?)\s*\?"
)
_QUOTE_Q = re.compile(r'(?i)according to the (?:line|statement)\s+"(?P<quote>[^"]+)"')
_LAST_ARTICLE_Q = re.compile(
    r"(?i)^(?P<head>.*)\b(?:the|a|an)\s+(?P<phrase>[A-Za-z0-9_ ]+?)\s*\?\s*$"
)

DO_SUPPORT = {"do", "does", "did", "can", "could", "will", "would", "should", "must"}
TEMPORAL_PREPOSITIONS = {"after", "before", "during", "until", "upon"}
PREPOSITIONS = PARTICLES | TEMPORAL_PREPOSITIONS | {"for", "with", "by"}

ATTR_SYNONYMS = {
    "default value": {"default", "defaults", "reset"},
    "reset value": {"default", "defaults", "reset"},
    "width": {"width", "wide"},
    "address": {"address", "offset"},
    "size": {"size", "depth"},
    "bit position": {"occupies", "position"},
    "position": {"occupies", "position"},
    "divisor": {"divisor", "holds"},
}


def _content(text: str) -> set[str]:
    return {t for t in tokenize(text) if t not in STOPWORDS and len(t) >= 2}


def _gap(thought: str, description: str, sub_query: str, anchor_type: str,
         entity: str) -> dict:
    return {
        "thought": thought,
        "status": "gap",
        "gap_description": description,
        "sub_query": sub_query,
        "target_anchor": {"anchor_type": anchor_type, "entity": entity},
    }


def _sufficient(thought: str) -> dict:
    return {"thought": thought, "status": "sufficient"}


def _answer_text(statements: list[str], incomplete: bool) -> str:
    """The answer written from the statements a question's trace found: the
    ``reason`` reply's answer on a sufficient verdict (``incomplete`` False),
    and the ``synthesize`` reply on the loop's other exits."""
    if incomplete or not statements:
        if statements:
            return INSUFFICIENT + " Known so far: " + " ".join(statements)
        return INSUFFICIENT
    return " ".join(statements)


class _Resolver:
    """Shared question-resolution engine behind the reason and synthesize
    tasks, over the parsed sentences of the context passages in order."""

    def __init__(self, question: str, parses: list[ClauseParse]):
        self.question = question
        self.parses = parses

    # lookup helpers ---------------------------------------------------------

    def _proc_by_subject(self, key: str) -> ClauseParse | None:
        """The first procedural parse whose subject has the canonical ``key``."""
        for p in self.parses:
            if p.kind == "procedural" and p.action and p.entity_key == key:
                return p
        return None

    def _decl_attr(self, entity: str, name_tokens: set[str]) -> tuple[str, str, str] | None:
        key = canonical_entity(entity)
        for p in self.parses:
            if p.kind != "declarative" or p.entity_key != key:
                continue
            for name, value in p.attributes:
                if _content(name) & name_tokens or set(tokenize(name)) & name_tokens:
                    return p.central_entity, name, value
        return None

    # question modes -----------------------------------------------------------
    # Each mode walks its trace once and returns the reasoning verdict (a
    # sufficiency verdict or the next gap) with the answer statements found.

    def resolve(self) -> tuple[dict, list[str]]:
        q = self.question
        m = _QUOTE_Q.search(q)
        if m:
            return (_sufficient("The quoted statement already contains the answer."),
                    [m.group("quote").strip().rstrip(".") + "."])
        m = _CHAIN_Q.search(q)
        if m:
            return self._chain(m.group("target").strip())
        m = _ATTR_Q.search(q)
        if m:
            return self._attr(m.group("ent").strip(), m.group("attr").lower())
        m = _LOCATE_Q.search(q)
        if m:
            return self._locate(m.group("desc").strip())
        m = _PROCESS_Q.search(q)
        if m:
            return self._process(m.group("start").strip(), m.group("terminal").strip())
        m = _TRANSITION_Q.search(q)
        if m:
            return self._transition(m.group("fsm").strip(), m.group("cond").strip())
        return self._fallback(), []

    def _chain(self, target: str) -> tuple[dict, list[str]]:
        out = []
        goal = target
        seen = set()
        while True:
            key = canonical_entity(goal)
            if key in seen:
                return _sufficient(f"Dependency loop at '{goal}'; stopping."), out
            seen.add(key)
            parse = self._proc_by_subject(key)
            if parse is None:
                return _gap(
                    f"No evidence yet for what drives '{goal}'.",
                    f"The driver of '{goal}' is unknown.",
                    f"What drives the {goal}?",
                    "procedural", goal,
                ), out
            subject, verb, obj = parse.action
            if verb.endswith("-by") and parse.direct:
                out.append(f"The {subject} is {verb.split('-')[0]} directly by the {obj}.")
                return _sufficient(f"Chain closed: '{subject}' originates from '{obj}'."), out
            goal = clause_entity(parse.trigger)
            out.append(f"The {subject} is driven by the {goal}.")

    def _attr(self, entity: str, attr: str) -> tuple[dict, list[str]]:
        hit = self._decl_attr(entity, ATTR_SYNONYMS.get(attr, _content(attr)))
        if hit is None:
            return _gap(
                f"The {attr} of '{entity}' is not in the evidence.",
                f"Missing the {attr} of '{entity}'.",
                f"What is the {attr} of the {entity}?",
                "declarative", entity,
            ), []
        ent, name, value = hit
        return _sufficient(f"Found the {attr} of '{entity}'."), [f"The {ent} {name} {value}."]

    def _locate(self, desc: str) -> tuple[dict, list[str]]:
        out = []
        entity = desc
        m = _DESC_FN.match(desc)
        if m:
            fn = m.group("fn").strip()
            control = self._decl_attr(fn, {"controlled", "enabled", "selected"})
            if control is None:
                return _gap(
                    f"The controlling bit of '{fn}' is unknown.",
                    f"Missing: which bit controls '{fn}'.",
                    f"Which bit controls the {fn}?",
                    "declarative", fn,
                ), out
            ent, name, entity = control
            out.append(f"The {ent} is {name} the {entity}.")
        loc = self._decl_attr(entity, {"occupies", "located", "resides", "sits"})
        if loc is None:
            return _gap(
                f"The location of '{entity}' is unknown.",
                f"Missing the location of '{entity}'.",
                f"Where is the {entity} located?",
                "declarative", entity,
            ), out
        ent, name, value = loc
        out.append(f"The {ent} {name} {value}.")
        return _sufficient(f"Located '{entity}'."), out

    def _process(self, start: str, terminal: str) -> tuple[dict, list[str]]:
        out = []
        event = start
        terminal_tokens = _content(terminal)
        seen = set()
        for _ in range(12):
            matched = next((p for p in self.parses
                            if p.kind == "procedural" and p.sentence not in seen
                            and len(_content(p.trigger) & _content(event)) >= 2), None)
            if matched is None:
                break
            seen.add(matched.sentence)
            subject, verb, obj = matched.action
            out.append(f"When the {matched.trigger}, the {subject} {verb.replace('-', ' ')} {obj}.")
            event = f"{subject} {verb} {obj}"
            if len(_content(event) & terminal_tokens) >= 2:
                return _sufficient(f"Event chain traced through {len(out)} steps."), out
        m = re.search(r"(?i)\b(?:in|into|to)\s+(?:the\s+)?([A-Za-z0-9_ ]+)$", event)
        locus = m.group(1).strip() if m else " ".join(strip_articles(event).split()[:3])
        return _gap(
            f"The consequence of '{event}' is unknown.",
            f"Missing: what happens when {event}.",
            f"What happens when {strip_articles(event)}?",
            "procedural", locus,
        ), out

    def _transition(self, fsm: str, cond: str) -> tuple[dict, list[str]]:
        two_stage = re.match(r"(?i)^(?P<first>.+?)\s+immediately after\s+(?:a\s+|the\s+)?reset$",
                             cond.strip())
        fsm_key = canonical_entity(fsm)
        # The reset parse is skipped by position: a passage sent twice
        # shares its parse objects, and its second copy still counts.
        reset_parse, reset_at = None, -1
        if two_stage:
            for i, p in enumerate(self.parses):
                if (p.kind == "procedural" and p.action
                        and p.entity_key == fsm_key
                        and "reset" in tokenize(p.trigger)):
                    reset_parse, reset_at = p, i
                    break
        state0 = reset_parse.action[2] if reset_parse is not None else None
        cond_tokens = _content(two_stage.group("first") if two_stage else cond)
        final_parse = None
        for i, p in enumerate(self.parses):
            if p.kind != "procedural" or not p.action:
                continue
            if p.entity_key != fsm_key or i == reset_at:
                continue
            trigger_tokens = set(tokenize(p.trigger))
            if len(cond_tokens & trigger_tokens) < 2:
                continue
            if state0 is not None:
                head = tokenize(state0)
                if head and head[0] not in trigger_tokens:
                    continue
            final_parse = p
            break
        out = [f"The {p.action[0]} {p.action[1]} the {p.action[2]} when the {p.trigger}."
               for p in (reset_parse, final_parse) if p is not None]
        if two_stage and reset_parse is None:
            return _gap(
                f"The reset state of the {fsm} is unknown.",
                f"Missing the reset state of the {fsm}.",
                f"Which state does the {fsm} return to when the reset input is asserted?",
                "procedural", fsm,
            ), out
        if final_parse is None:
            return _gap(
                f"The transition of the {fsm} under '{cond}' is unknown.",
                f"Missing the {fsm} transition for '{cond}'.",
                f"Which state does the {fsm} enter when {cond}?",
                "procedural", fsm,
            ), out
        return _sufficient(f"Transition resolved: the {fsm} ends in {final_parse.action[2]}."), out

    def _fallback(self) -> dict:
        q = self.question.strip()
        m = _LAST_ARTICLE_Q.match(q)
        # A trailing temporal adjunct ("after a reset") has its own article
        # but does not name the subject: take the phrase before it.
        while m:
            head = m.group("head").split()
            inner = (_LAST_ARTICLE_Q.match(" ".join(head[:-1]) + "?")
                     if head and head[-1].lower() in TEMPORAL_PREPOSITIONS else None)
            if inner is None:
                break
            m = inner
        if m:
            # The noun phrase after the last article ends at a preposition.
            # Under do-support ("does the UART send") its last word is the
            # main verb, not part of the subject.
            words = m.group("phrase").split()
            words = words[:next((i for i, w in enumerate(words)
                                 if i and w.lower() in PREPOSITIONS), len(words))]
            head = m.group("head").split()
            if head and head[-1].lower() in DO_SUPPORT and len(words) > 1:
                words = words[:-1]
            entity = " ".join(words)
        else:
            entity = " ".join(strip_articles(q.rstrip("? ")).split()[-2:])
        anchor_type = "procedural" if _CUE_RE.search(q) else "declarative"
        return _gap(
            "The question does not match any resolvable evidence.",
            "Unable to locate supporting evidence.",
            q, anchor_type, entity or "unknown",
        )


class OfflineModel:
    """Provider implementation backed by the rule engine above; its reply is
    a function of the request.

    The retrieval loop sends the same passages in request after request, so
    the model analyses each passage text, and hashes each token, once per
    instance: the memos grow with the distinct texts and tokens it is sent.
    Their values are immutable and a function of the key, so requests on
    several threads may share them."""

    deterministic = True

    def __init__(self) -> None:
        self._token_slots: dict[str, tuple[int, float]] = {}
        self._sentences: dict[str, tuple[tuple[str, frozenset[str]], ...]] = {}
        self._parses: dict[str, tuple[ClauseParse, ...]] = {}

    def chat(self, request: ChatRequest, model: str) -> str:
        payload = extract_payload(request.user_prompt)
        handler = {
            "ir-extract": self._extract_ir,
            "summarize": self._summarize,
            "reason": self._reason,
            "synthesize": self._synthesize,
            "atom-decompose": self._decompose,
            "atom-match": self._match,
        }.get(request.task_tag)
        if handler is None:
            raise ValueError(f"offline model has no rule for task_tag {request.task_tag!r}")
        reply = handler(payload)
        if isinstance(reply, str):
            return reply
        return json.dumps(reply, ensure_ascii=False, sort_keys=True)

    def embed(self, texts: list[str], model: str) -> np.ndarray:
        """One row per text: each content token adds ±1 at its hashed column,
        and a row left all zero gets a 1 in column 0. Every entry is a sum of
        ±1.0, exact in any order, so one ``bincount`` fills the matrix."""
        cells: list[int] = []
        signs: list[float] = []
        for row, text in enumerate(texts):
            tokens = [t for t in tokenize(text) if t not in STOPWORDS] or [text.strip().lower() or "empty"]
            for token in tokens:
                column, sign = self._token_slot(token)
                cells.append(row * EMBED_DIM + column)
                signs.append(sign)
        # bincount of no cells at all comes back as int64, hence the astype
        matrix = np.bincount(np.array(cells, dtype=np.intp), weights=np.array(signs),
                             minlength=len(texts) * EMBED_DIM).astype(np.float64, copy=False)
        matrix = matrix.reshape(len(texts), EMBED_DIM)
        matrix[~matrix.any(axis=1), 0] = 1.0
        return matrix

    def _token_slot(self, token: str) -> tuple[int, float]:
        """The column a token's hash selects and the sign it adds there."""
        slot = self._token_slots.get(token)
        if slot is None:
            h = hashlib.sha256(token.encode("utf-8")).digest()
            slot = (int.from_bytes(h[:4], "little") % EMBED_DIM, 1.0 if h[4] % 2 == 0 else -1.0)
            self._token_slots[token] = slot
        return slot

    def _sentences_of(self, text: str) -> tuple[tuple[str, frozenset[str]], ...]:
        """Each sentence of a passage (its span is trimmed already), with its
        content tokens."""
        sentences = self._sentences.get(text)
        if sentences is None:
            sentences = tuple((sentence, frozenset(_content(sentence)))
                              for sentence in (text[s:e] for s, e in split_sentences(text)))
            self._sentences[text] = sentences
        return sentences

    def _parses_of(self, context: list[dict]) -> list[ClauseParse]:
        """The parsed sentences of the context passages, in order."""
        parses: list[ClauseParse] = []
        for item in context:
            text = item["text"]
            cached = self._parses.get(text)
            if cached is None:
                cached = tuple(p for start, end in split_sentences(text)
                               if (p := parse_sentence(text[start:end])) is not None)
                self._parses[text] = cached
            parses.extend(cached)
        return parses

    # -- task handlers --------------------------------------------------------

    @staticmethod
    def _extract_ir(payload: dict) -> dict:
        return {"sentences": [OfflineModel._sentence_ir(item["text"])
                              for passage in payload["passages"]
                              for item in passage["sentences"]]}

    @staticmethod
    def _sentence_ir(sentence: str) -> dict:
        parse = parse_sentence(sentence)
        if parse is None:
            return {"skip": True, "reason": "no technical content"}
        if parse.kind == "declarative":
            return {
                "kind": "declarative",
                "central_entity": parse.central_entity,
                "attributes": [{"name": n, "value": v} for n, v in parse.attributes],
            }
        subject, verb, obj = parse.action
        return {
            "kind": "procedural",
            "trigger": parse.trigger,
            "condition": parse.condition,
            "action": {"subject": subject, "verb": verb, "object": obj},
        }

    def _summarize(self, payload: dict) -> dict:
        """Each passage's query-relevant sentences, found once; a cut's summary
        joins those of the passages before it."""
        query = payload["query"]
        query_tokens = _content(query)
        ends = [0]  # ends[n]: the number of lines from the first n passages
        lines: list[str] = []
        for passage in payload["passages"]:
            lines.extend(sentence for sentence, tokens in self._sentences_of(passage["text"])
                         if not tokens.isdisjoint(query_tokens))
            ends.append(len(lines))
        summaries = []
        for cut in payload["cuts"]:
            n = ends[cut]
            summaries.append(f"Evidence for: {query}\n" + " ".join(lines[:n]) if n
                             else f"No evidence relevant to: {query}")
        return {"summaries": summaries}

    def _reason(self, payload: dict) -> dict:
        verdict, statements = _Resolver(payload["question"],
                                        self._parses_of(payload["context"])).resolve()
        if verdict["status"] == "sufficient":
            verdict["answer"] = _answer_text(statements, incomplete=False)
        return verdict

    def _synthesize(self, payload: dict) -> str:
        _, statements = _Resolver(payload["question"],
                                  self._parses_of(payload["context"])).resolve()
        return _answer_text(statements, bool(payload.get("incomplete_evidence")))

    @staticmethod
    def _decompose(payload: dict) -> dict:
        """One atom per sentence, splitting compound predicates on 'and'."""
        text = payload["answer"]
        verbs = DECL_VERBS | PROC_VERBS
        atoms = []
        for start, end in split_sentences(text):
            sentence = re.sub(r"\s+", " ", text[start:end]).strip().rstrip(".!?")
            if not sentence:
                continue
            parts = [p.strip() for p in sentence.split(" and ") if p.strip()]
            if len(parts) > 1 and all(p.split()[0].lower() in verbs for p in parts[1:]):
                words = parts[0].split()
                subject_words = []
                for word in words:
                    if word.lower().strip(",.;") in verbs:
                        break
                    subject_words.append(word)
                subject = " ".join(subject_words)
                if subject:
                    atoms.append(parts[0])
                    atoms.extend(f"{subject} {p}" for p in parts[1:])
                    continue
            atoms.append(sentence)
        return {"atoms": atoms}

    @staticmethod
    def _match(payload: dict) -> dict:
        candidate = judge_normalize(payload["candidate"])
        for ref in payload["references"]:
            if judge_normalize(ref["text"]) == candidate:
                return {"match_index": ref["index"]}
        return {"match_index": None}
