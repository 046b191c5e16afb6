"""Document ingestion: chunking, sentence IR extraction, anchor distillation.

A document becomes passages (the retrieval granularity), the sentences of
each run of passages up to the passage budget get structured parses from one
gateway call, and every passage is distilled to a semantic anchor, a (type,
entity) tag of its functional intent, or an explicit no-anchor marker when
nothing parseable survives.
"""

from __future__ import annotations

import json
import logging
import re
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import prompts
from .errors import FixtureMiss, InvalidInput, MalformedReply, SkippedSentence
from .gateway import Gateway
from .text import canonical_entity, estimate_tokens, split_sentences

logger = logging.getLogger(__name__)

_ENCODER = json.JSONEncoder(ensure_ascii=False)  # the corpus files' record encoder

DEFAULT_MAX_PASSAGE_TOKENS = 512
BLANK_SENTENCE = "empty sentence"  # skip reason of a sentence sent to no model

DECLARATIVE = "declarative"
PROCEDURAL = "procedural"
KINDS = (DECLARATIVE, PROCEDURAL)


@dataclass(frozen=True)
class SemanticAnchor:
    """Functional-intent tag of a passage or query: (type, entity)."""

    anchor_type: str
    entity: str

    def __post_init__(self):
        if self.anchor_type not in KINDS:
            raise InvalidInput(f"anchor type must be one of {KINDS}")
        if not self.entity:
            raise InvalidInput("anchor entity must be non-empty")

    def to_dict(self) -> dict:
        return {"anchor_type": self.anchor_type, "entity": self.entity}

    @classmethod
    def from_dict(cls, data: dict) -> "SemanticAnchor":
        return cls(data["anchor_type"], data["entity"])


@dataclass(frozen=True)
class Passage:
    """A run of a document's text, built whole: ingest makes each passage
    once its anchor is known, so a graph's passages never change."""

    passage_id: str
    doc_id: str
    section_path: tuple[str, ...]
    text: str
    sentence_spans: tuple[tuple[int, int], ...]
    token_estimate: int
    anchor: SemanticAnchor | None = None

    def __post_init__(self):
        # A list the caller passes is copied into a tuple, so no one keeps a
        # handle that edits the passage.
        object.__setattr__(self, "section_path", tuple(self.section_path))
        object.__setattr__(self, "sentence_spans", tuple(map(tuple, self.sentence_spans)))

    def sentences(self) -> list[str]:
        return [self.text[s:e] for s, e in self.sentence_spans]

    def to_dict(self) -> dict:
        return {
            "passage_id": self.passage_id,
            "doc_id": self.doc_id,
            "section_path": self.section_path,
            "text": self.text,
            "sentence_spans": [list(span) for span in self.sentence_spans],
            "token_estimate": self.token_estimate,
            "anchor": self.anchor.to_dict() if self.anchor else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Passage":
        anchor = SemanticAnchor.from_dict(data["anchor"]) if data.get("anchor") else None
        return cls(
            passage_id=data["passage_id"],
            doc_id=data["doc_id"],
            section_path=data["section_path"],
            text=data["text"],
            sentence_spans=data["sentence_spans"],
            token_estimate=data["token_estimate"],
            anchor=anchor,
        )


@dataclass
class SemanticIR:
    """Per-sentence structured parse (exactly one payload, matching kind)."""

    sentence_id: str
    kind: str
    passage_id: str
    span: tuple[int, int]
    central_entity: str = ""
    attributes: list[dict] = field(default_factory=list)
    trigger: str = ""
    condition: str = ""
    action: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInput(f"IR kind must be one of {KINDS}")
        if self.kind == DECLARATIVE and not self.central_entity:
            raise InvalidInput("declarative IR needs a central entity")
        if self.kind == PROCEDURAL and not self.action.get("subject"):
            raise InvalidInput("procedural IR needs an action subject")

    def to_dict(self) -> dict:
        base = {
            "sentence_id": self.sentence_id,
            "kind": self.kind,
            "source": {"passage_id": self.passage_id, "span": list(self.span)},
        }
        if self.kind == DECLARATIVE:
            base["central_entity"] = self.central_entity
            base["attributes"] = self.attributes
        else:
            base["trigger"] = self.trigger
            base["condition"] = self.condition
            base["action"] = self.action
        return base


@dataclass
class Corpus:
    """Ingest output: passages, their IRs, and the skip log."""

    doc_id: str
    passages: list[Passage]
    irs: list[SemanticIR]
    skipped: list[dict] = field(default_factory=list)

    def save(self, out_dir: str | Path) -> None:
        """Write passages.jsonl and ir.jsonl, one JSON line per record and
        one write per file."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, records in (("passages.jsonl", self.passages), ("ir.jsonl", self.irs)):
            lines = "".join([_ENCODER.encode(r.to_dict()) + "\n" for r in records])
            (out / name).write_bytes(lines.encode("utf-8"))


# --- chunking ----------------------------------------------------------------

_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")


def _blocks(document: str):
    """Split markdown-ish text into (kind, text) blocks; kind in {heading, body}."""
    lines = document.splitlines()
    buffer: list[str] = []
    for line in lines:
        m = _HEADING_RE.match(line)
        if m:
            if buffer:
                yield "body", "\n".join(buffer).strip("\n")
                buffer = []
            yield "heading", line
        elif line.strip():
            buffer.append(line)
        else:
            if buffer:
                yield "body", "\n".join(buffer).strip("\n")
                buffer = []
    if buffer:
        yield "body", "\n".join(buffer).strip("\n")


def chunk(document: str, doc_id: str,
          max_passage_tokens: int = DEFAULT_MAX_PASSAGE_TOKENS) -> list[Passage]:
    """Split a document into passages covering all body text exactly once.

    A heading always starts a new passage and is never split from its first
    paragraph; within a section, body blocks pack greedily up to the token
    budget.
    """
    if not document or not document.strip():
        raise InvalidInput("cannot chunk an empty document")

    passages: list[Passage] = []
    section_stack: list[tuple[int, str]] = []
    pending: list[str] = []
    pending_tokens = 0
    pending_has_body = False

    def flush():
        nonlocal pending, pending_tokens, pending_has_body
        # A trailing heading with no body still becomes a passage so text
        # coverage stays lossless.
        if not pending:
            return
        text = "\n\n".join(pending)
        passage_id = f"{doc_id}#p{len(passages):04d}"
        passages.append(Passage(
            passage_id=passage_id,
            doc_id=doc_id,
            section_path=tuple(title for _, title in section_stack),
            text=text,
            sentence_spans=_passage_spans(text),
            token_estimate=estimate_tokens(text),
        ))
        pending = []
        pending_tokens = 0
        pending_has_body = False

    for kind, text in _blocks(document):
        if kind == "heading":
            flush()
            m = _HEADING_RE.match(text)
            level = len(m.group(1))
            title = m.group(2).strip()
            while section_stack and section_stack[-1][0] >= level:
                section_stack.pop()
            section_stack.append((level, title))
            pending.append(text)
            pending_tokens += estimate_tokens(text)
        else:
            for piece in _fit_block(text, max_passage_tokens):
                block_tokens = estimate_tokens(piece)
                if pending_has_body and pending_tokens + block_tokens > max_passage_tokens:
                    flush()
                pending.append(piece)
                pending_tokens += block_tokens
                pending_has_body = True
    flush()
    return passages


def _fit_block(text: str, budget: int) -> list[str]:
    """Split an oversized block at sentence boundaries; a lone sentence over
    the budget stays whole (sentences are the floor of granularity)."""
    if estimate_tokens(text) <= budget:
        return [text]
    spans = split_sentences(text)
    if not spans:
        return [text]
    pieces: list[str] = []
    start = end = None
    tokens = 0
    for s, e in spans:
        sentence_tokens = estimate_tokens(text[s:e])
        if start is not None and tokens + sentence_tokens > budget:
            pieces.append(text[start:end])
            start, tokens = None, 0
        if start is None:
            start = s
        end = e
        tokens += sentence_tokens
    if start is not None:
        pieces.append(text[start:end])
    return pieces


def _passage_spans(text: str) -> list[tuple[int, int]]:
    """Sentence spans, with anything on a heading line excluded."""
    heading_ranges = []
    pos = 0
    for line in text.splitlines(keepends=True):
        if _HEADING_RE.match(line.strip()):
            heading_ranges.append((pos, pos + len(line)))
        pos += len(line)
    spans = []
    for start, end in split_sentences(text):
        if any(h_start <= start < h_end for h_start, h_end in heading_ranges):
            continue
        spans.append((start, end))
    return spans


# --- sentence extraction -----------------------------------------------------

def extraction_batches(passages: list[Passage], max_tokens: int) -> Iterator[list[Passage]]:
    """Runs of consecutive passages, in document order, whose summed
    ``token_estimate`` stays within ``max_tokens``; a passage over the budget
    goes alone. So no request carries more text than one passage may."""
    batch: list[Passage] = []
    tokens = 0
    for passage in passages:
        if batch and tokens + passage.token_estimate > max_tokens:
            yield batch
            batch, tokens = [], 0
        batch.append(passage)
        tokens += passage.token_estimate
    if batch:
        yield batch


def batch_replies(gateway: Gateway, batch: list[Passage]) -> dict[str, dict[int, dict]]:
    """Classify and parse the non-blank sentences of a run of passages in one
    model call.

    Returns each sentence's schema-checked ``semantic-ir`` entry by passage id
    and the sentence's index in the passage. A passage with no non-blank
    sentence is left out of the request, and a run of such passages makes no
    call; a run with a single such sentence is asked through
    :func:`classify_sentence`, whose request it is. A reply is dropped with a
    warning when it is still malformed after the gateway's repair, holds the
    wrong number of entries, or, in replay, was never recorded (record mode
    stores no malformed reply). Then each passage of the request is asked
    alone, and a lone passage's unusable reply has its sentences asked one at
    a time, so one bad reply loses no other sentence.
    """
    asked = [(passage, sentences) for passage in batch
             if (sentences := {i: s for i, s in enumerate(passage.sentences()) if s.strip()})]
    if not asked:
        return {}
    count = sum(len(sentences) for _, sentences in asked)
    if count == 1:
        [(passage, sentences)] = asked
        return {passage.passage_id: {i: classify_sentence(gateway, s, passage)
                                     for i, s in sentences.items()}}
    try:
        entries = gateway.chat(prompts.extract_ir(
            [(passage.section_path, list(sentences.values())) for passage, sentences in asked]
        ))["sentences"]
        if len(entries) == count:
            replies, start = {}, 0
            for passage, sentences in asked:
                end = start + len(sentences)
                replies[passage.passage_id] = dict(zip(sentences, entries[start:end]))
                start = end
            return replies
        problem = f"{len(entries)} entries for {count} sentences"
    except (MalformedReply, FixtureMiss) as exc:
        problem = str(exc)
    if len(asked) > 1:
        logger.warning("passages %s to %s: unusable ir-extract reply (%s); asking each "
                       "of its %d passages alone", asked[0][0].passage_id,
                       asked[-1][0].passage_id, problem, len(asked))
        return {passage.passage_id: batch_replies(gateway, [passage])[passage.passage_id]
                for passage, _ in asked}
    passage, sentences = asked[0]
    logger.warning("passage %s: unusable ir-extract reply (%s); asking its %d "
                   "sentences one at a time", passage.passage_id, problem, len(sentences))
    return {passage.passage_id: {i: classify_sentence(gateway, s, passage)
                                 for i, s in sentences.items()}}


def classify_sentence(gateway: Gateway, sentence: str, passage: Passage) -> dict:
    """Classify and parse one sentence alone: a run's only sentence, or the
    fallback when a lone passage's reply is unusable.

    Sends a one-sentence ``ir-extract`` request and returns its one entry,
    the sentence's ``kind`` and that kind's fields, or a skip. A blank
    sentence is skipped without a call. A reply still malformed after repair,
    or holding other than one entry, is logged and gives a skip naming the
    problem; a replay miss propagates as :class:`FixtureMiss`.
    """
    if not sentence.strip():
        raise SkippedSentence(BLANK_SENTENCE)
    try:
        entries = gateway.chat(prompts.extract_ir([(passage.section_path, [sentence])]))["sentences"]
        if len(entries) == 1:
            return entries[0]
        problem = f"{len(entries)} entries for one sentence"
    except MalformedReply as exc:
        problem = str(exc)
    logger.warning("passage %s: unusable ir-extract reply (%s); skipping a sentence",
                   passage.passage_id, problem)
    return {"skip": True, "reason": f"unusable ir-extract reply: {problem}"}


def extract_ir(reply: dict, passage: Passage, sentence_id: str,
               span: tuple[int, int]) -> SemanticIR:
    """Turn a sentence's ``semantic-ir`` entry into its IR."""
    if reply.get("skip"):
        raise SkippedSentence(reply.get("reason", "model skipped sentence"))
    return SemanticIR(
        sentence_id=sentence_id,
        kind=reply["kind"],
        passage_id=passage.passage_id,
        span=span,
        central_entity=reply.get("central_entity", ""),
        attributes=reply.get("attributes", []),
        trigger=reply.get("trigger", ""),
        condition=reply.get("condition", ""),
        action=reply.get("action", {}),
    )


def distill_anchor(irs: list[SemanticIR]) -> SemanticAnchor | None:
    """Majority kind (tie goes procedural) + dominant canonical entity.

    Returns None (the explicit no-anchor marker) when the passage produced no
    IRs; the passage stays retrievable but cannot be filtered by type.
    """
    if not irs:
        return None
    procedural = sum(1 for ir in irs if ir.kind == PROCEDURAL)
    declarative = len(irs) - procedural
    anchor_type = PROCEDURAL if procedural >= declarative else DECLARATIVE

    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for order, ir in enumerate(irs):
        surface = ir.central_entity if ir.kind == DECLARATIVE else ir.action.get("subject", "")
        key = canonical_entity(surface)
        if not key:
            continue
        counts[key] = counts.get(key, 0) + 1
        first_seen.setdefault(key, order)
    if not counts:
        return None
    entity = min(counts, key=lambda k: (-counts[k], first_seen[k]))
    return SemanticAnchor(anchor_type, entity)


def ingest_document(gateway: Gateway, document: str, doc_id: str,
                    max_passage_tokens: int = DEFAULT_MAX_PASSAGE_TOKENS) -> Corpus:
    """Full ingest: chunk, classify and parse the sentences of each run of
    passages up to the passage budget in one model call, distill anchors.

    Runs are asked and committed one after another in document order, so
    corpus files are deterministic regardless of call scheduling; skips are
    logged in sentence order, blank sentences among them.
    """
    passages: list[Passage] = []
    irs: list[SemanticIR] = []
    skipped: list[dict] = []
    for batch in extraction_batches(chunk(document, doc_id, max_passage_tokens),
                                    max_passage_tokens):
        batch_entries = batch_replies(gateway, batch)
        for passage in batch:
            replies = batch_entries.get(passage.passage_id, {})
            passage_irs: list[SemanticIR] = []
            for index, span in enumerate(passage.sentence_spans):
                sentence_id = f"{passage.passage_id}:s{index:03d}"
                reply = replies.get(index, {"skip": True, "reason": BLANK_SENTENCE})
                try:
                    ir = extract_ir(reply, passage, sentence_id, span)
                except SkippedSentence as exc:
                    skipped.append({"sentence_id": sentence_id, "reason": str(exc)})
                    continue
                passage_irs.append(ir)
            passage = replace(passage, anchor=distill_anchor(passage_irs))
            if passage.anchor is None:
                logger.debug("passage %s has no anchor", passage.passage_id)
            passages.append(passage)
            irs.extend(passage_irs)
    return Corpus(doc_id=doc_id, passages=passages, irs=irs, skipped=skipped)
