"""Prompt templates for every pipeline task.

Each user prompt ends with the task input rendered as a fenced JSON block.
Structured inputs keep hosted models honest and give the offline provider a
parseable payload; :func:`extract_payload` recovers it on the provider side.

Generative tasks run at temperature 0.7, evaluation tasks at 0.2.
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Sequence

from .gateway import ChatRequest

GENERATIVE_TEMPERATURE = 0.7
EVALUATION_TEMPERATURE = 0.2

_SYSTEM = {
    "ir-extract": (
        "You deconstruct each numbered sentence of one or more hardware "
        "specification passages into a compact JSON structure. First decide its "
        "kind: a declarative functional description (static properties, register "
        "fields, signal functions) or a procedural behavioral description (state "
        "transitions, conditional triggers, signal assignments). Then parse it "
        "with that kind's template, \"kind\" first. Declarative sentences become "
        "{\"kind\": \"declarative\", \"central_entity\": ..., "
        "\"attributes\": [{\"name\": ..., \"value\": ...}]}. Procedural sentences become "
        "{\"kind\": \"procedural\", \"trigger\": ..., \"condition\": ..., \"action\": "
        "{\"subject\": ..., \"verb\": ..., \"object\": ...}}. A sentence that carries no "
        "technical content (a caption or cross-reference) becomes {\"skip\": true, "
        "\"reason\": ...}. Reply with JSON only: {\"sentences\": [...]}, one entry "
        "per sentence, in order."
    ),
    "summarize": (
        "Summarize what the given passages contribute toward answering the query. "
        "Be terse and factual; mention only content relevant to the query. For each "
        "number n in cuts, summarize the first n passages alone. Reply with JSON: "
        '{"summaries": [...]}, one summary per cut, in order.'
    ),
    "reason": (
        "You answer questions about a hardware specification step by step. Given "
        "the question, your prior notes, and the evidence passages, produce one "
        "reasoning step and assess whether the evidence suffices. Reply with JSON: "
        '{"thought": ..., "status": "sufficient", "answer": ...} or {"thought": ..., '
        '"status": "gap", "gap_description": ..., "sub_query": ..., "target_anchor": '
        '{"anchor_type": "declarative"|"procedural", "entity": ...}}. The answer states '
        "each fact from the evidence as its own short sentence. The sub_query must name "
        "the single missing fact; the target_anchor captures its functional intent."
    ),
    "synthesize": (
        "Write the final answer to the question using only the evidence passages. "
        "State each fact as its own short sentence. If the evidence is flagged "
        "incomplete, say what is known and note the gap."
    ),
    "atom-decompose": (
        "Decompose the answer into minimal, self-contained factual claims. Each "
        "atom must stand alone as one declarative statement. Reply with JSON: "
        '{"atoms": [...]}.'
    ),
    "atom-match": (
        "Judge whether the candidate claim is semantically equivalent to any of "
        "the numbered reference claims. Paraphrase and wording variance do not "
        "matter; the facts must match. Reply with JSON: {\"match_index\": <number "
        "of the matching reference>} or {\"match_index\": null}."
    ),
}

# Every task the pipeline asks a chat model for; routing keys must name one.
TASK_TAGS = tuple(_SYSTEM)


def extract_payload(user_prompt: str) -> dict:
    """Recover the fenced JSON input block from a rendered user prompt."""
    blocks = re.findall(r"```json\n(.*?)\n```", user_prompt, flags=re.DOTALL)
    if not blocks:
        raise ValueError("prompt carries no JSON payload block")
    return json.loads(blocks[-1])


def _render(instruction: str, payload: dict) -> str:
    return f"{instruction}\n\nInput:\n```json\n{json.dumps(payload, ensure_ascii=False, sort_keys=True)}\n```"


def extract_ir(passages: list[tuple[Sequence[str], list[str]]]) -> ChatRequest:
    """One request for the sentences of one or more passages, each given as
    its (section path, sentences). The sentences are numbered from 1 across
    the whole request; the reply holds one ``semantic-ir`` entry per
    sentence, in order."""
    numbers = itertools.count(1)
    return ChatRequest(
        task_tag="ir-extract",
        system_prompt=_SYSTEM["ir-extract"],
        user_prompt=_render("Classify each numbered sentence, then deconstruct it "
                            "using that kind's template.",
                            {"passages": [{"section": section,
                                           "sentences": [{"number": next(numbers), "text": s}
                                                         for s in sentences]}
                                          for section, sentences in passages]}),
        temperature=GENERATIVE_TEMPERATURE,
        response_schema_id="semantic-ir-list",
    )


def summarize(query: str, passages: list[dict], cuts: list[int]) -> ChatRequest:
    """One request for the summaries of several prefixes of ``passages``; the
    reply holds one ``summary-list`` entry per cut n, the summary of the first
    n passages, in order."""
    return ChatRequest(
        task_tag="summarize",
        system_prompt=_SYSTEM["summarize"],
        user_prompt=_render("Summarize the evidence with respect to the query, once per cut.",
                            {"query": query, "passages": passages, "cuts": cuts}),
        temperature=GENERATIVE_TEMPERATURE,
        response_schema_id="summary-list",
    )


def reason(question: str, thoughts: list[str], context: list[dict]) -> ChatRequest:
    return ChatRequest(
        task_tag="reason",
        system_prompt=_SYSTEM["reason"],
        user_prompt=_render(
            "Produce the next reasoning step and assess sufficiency.",
            {"question": question, "thoughts": thoughts, "context": context},
        ),
        temperature=GENERATIVE_TEMPERATURE,
        response_schema_id="gap-assess",
    )


def synthesize(question: str, thoughts: list[str], context: list[dict],
               incomplete: bool) -> ChatRequest:
    return ChatRequest(
        task_tag="synthesize",
        system_prompt=_SYSTEM["synthesize"],
        user_prompt=_render(
            "Write the final grounded answer.",
            {"question": question, "thoughts": thoughts, "context": context,
             "incomplete_evidence": incomplete},
        ),
        temperature=GENERATIVE_TEMPERATURE,
        response_schema_id="freeform",
    )


def atom_decompose(answer: str) -> ChatRequest:
    return ChatRequest(
        task_tag="atom-decompose",
        system_prompt=_SYSTEM["atom-decompose"],
        user_prompt=_render("Decompose this answer into atomic facts.",
                            {"answer": answer}),
        temperature=EVALUATION_TEMPERATURE,
        response_schema_id="atom-list",
    )


def atom_match(candidate: str, references: list[str]) -> ChatRequest:
    return ChatRequest(
        task_tag="atom-match",
        system_prompt=_SYSTEM["atom-match"],
        user_prompt=_render(
            "Find the reference claim equivalent to the candidate, if any.",
            {"candidate": candidate,
             "references": [{"index": i, "text": t} for i, t in enumerate(references)]},
        ),
        temperature=EVALUATION_TEMPERATURE,
        response_schema_id="match-verdict",
    )
