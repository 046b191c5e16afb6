"""Iterative graph-grounded reasoning.

The loop alternates between reasoning over the current context and acquiring
evidence for self-detected knowledge gaps: each round produces a thought plus
a structured gap assessment in one model call; a gap yields a sub-query and a
target anchor, retrieval runs the full seed → pagerank → expand → filter
pipeline, and surviving passages join the context. Termination is the first
of: sufficiency, the gap-round budget, or a run of barren rounds. A sufficient
verdict carries the final answer, so that exit makes no further call; every
other exit (budget, stall, or a malformed assessment) asks for one
``synthesize`` call over the final context.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from . import prompts, retrieval
from .errors import MalformedReply, SpecKGError, SynthesisFailed
from .gateway import Gateway
from .ingest import SemanticAnchor
from .kg import SpecGraph

logger = logging.getLogger(__name__)

FLAG_INCOMPLETE = "incomplete_evidence"
FLAG_BUDGET = "budget_exhausted"
FLAG_STALL = "stall_exit"
FLAG_DEGRADED = "degraded_confidence"


@dataclass
class ContextItem:
    passage_id: str
    text: str
    section: str


@dataclass
class GapAssessment:
    status: str  # sufficient | gap
    sub_query: str = ""
    target_anchor: SemanticAnchor | None = None
    answer: str = ""  # set on a sufficient verdict that is not degraded
    degraded: bool = False


@dataclass
class ReasoningContext:
    question: str
    context_items: list[ContextItem] = field(default_factory=list)
    thoughts: list[str] = field(default_factory=list)
    retrieval_log: list[retrieval.RetrievalRound] = field(default_factory=list)
    round: int = 0  # gap rounds executed

    def has_passage(self, passage_id: str) -> bool:
        return any(item.passage_id == passage_id for item in self.context_items)

    def payload(self) -> list[dict]:
        return [
            {"passage_id": item.passage_id, "section": item.section, "text": item.text}
            for item in self.context_items
        ]


@dataclass
class AnswerRecord:
    """One question's answer and how it was reached; ``to_dict`` is where the
    retrieval rounds become dicts, for the CLI's output."""

    question: str
    answer: str
    provenance: list[str]
    retrieval_log: list[retrieval.RetrievalRound]
    rounds_used: int
    flags: list[str]
    thoughts: list[str]

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "answer": self.answer,
            "provenance": self.provenance,
            "retrieval_log": [r.to_dict() for r in self.retrieval_log],
            "rounds_used": self.rounds_used,
            "flags": self.flags,
            "thoughts": self.thoughts,
        }


def reason_step(gateway: Gateway, ctx: ReasoningContext) -> GapAssessment:
    """One thought + gap assessment, with the answer when sufficient; malformed
    replies degrade to sufficiency without an answer, so the loop synthesizes
    instead of looping blind."""
    request = prompts.reason(ctx.question, ctx.thoughts, ctx.payload())
    try:
        reply = gateway.chat(request)
    except MalformedReply as exc:
        logger.warning("gap assessment malformed, forcing synthesis: %s", exc)
        ctx.thoughts.append("assessment unavailable; proceeding to synthesis")
        return GapAssessment(status="sufficient", degraded=True)
    ctx.thoughts.append(reply["thought"])
    if reply["status"] == "sufficient":
        return GapAssessment(status="sufficient", answer=reply["answer"])
    anchor = SemanticAnchor.from_dict(reply["target_anchor"])
    return GapAssessment(
        status="gap",
        sub_query=reply["sub_query"],
        target_anchor=anchor,
    )


def acquire(gateway: Gateway, kg: SpecGraph, ctx: ReasoningContext,
            sub_query: str, target: SemanticAnchor, cfg) -> list[str]:
    """Retrieve for one sub-query and integrate new passages into the context.

    Returns the passage ids actually added (deduplicated against the context);
    an empty return marks a barren round.
    """
    round_record = retrieval.retrieve(sub_query, target, kg, gateway, cfg)
    ctx.retrieval_log.append(round_record)
    added = []
    for pid in round_record.filtered:
        if ctx.has_passage(pid):
            continue
        passage = kg.passages[pid]
        ctx.context_items.append(ContextItem(
            passage_id=pid,
            text=passage.text,
            section="/".join(passage.section_path),
        ))
        added.append(pid)
    return added


def synthesize(gateway: Gateway, ctx: ReasoningContext, incomplete: bool) -> str:
    request = prompts.synthesize(ctx.question, ctx.thoughts, ctx.payload(), incomplete)
    try:
        return gateway.chat(request)
    except SpecKGError as exc:
        raise SynthesisFailed(str(exc), context=ctx) from exc


def run(question: str, kg: SpecGraph, gateway: Gateway, cfg) -> AnswerRecord:
    """Full reasoning loop for one question."""
    ctx = ReasoningContext(question=question)
    flags: list[str] = []
    barren_streak = 0
    max_rounds = cfg.reasoning.max_rounds
    stall_limit = cfg.reasoning.stall_limit
    answer = ""

    try:
        while True:
            if ctx.round >= max_rounds:
                if max_rounds > 0:
                    logger.info("gap-round budget exhausted for %r", question)
                flags.extend([FLAG_BUDGET, FLAG_INCOMPLETE])
                break
            assessment = reason_step(gateway, ctx)
            if assessment.degraded:
                flags.append(FLAG_DEGRADED)
            if assessment.status == "sufficient":
                answer = assessment.answer
                break
            ctx.round += 1
            added = acquire(gateway, kg, ctx, assessment.sub_query,
                            assessment.target_anchor, cfg)
            if added:
                barren_streak = 0
            else:
                barren_streak += 1
                if barren_streak >= stall_limit:
                    flags.extend([FLAG_STALL, FLAG_INCOMPLETE])
                    break
        if not answer:
            answer = synthesize(gateway, ctx, incomplete=FLAG_INCOMPLETE in flags)
    except SpecKGError as exc:
        logger.error("reasoning run failed: %s", exc)
        flags.append(f"error:{type(exc).__name__}")
        answer = ""

    return AnswerRecord(
        question=question,
        answer=answer,
        provenance=[item.passage_id for item in ctx.context_items],
        retrieval_log=ctx.retrieval_log,
        rounds_used=ctx.round,
        flags=flags,
        thoughts=list(ctx.thoughts),
    )
