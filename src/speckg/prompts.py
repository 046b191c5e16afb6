"""Prompt templates for every pipeline task.

``TASKS`` states each task once: its system prompt, the instruction that
opens its user prompt, its temperature and the schema its reply must meet.
Generative tasks run at temperature 0.7, evaluation tasks at 0.2. A
:class:`ChatRequest` is a task tag and its payload; the request builders below
only shape their task's payload. The task tags, the config's routing check,
the wire prompts, the request digest and the offline provider's dispatch all
read the table.

Each user prompt ends with the task input rendered as a fenced JSON block,
which keeps hosted models honest; the offline provider reads the payload
itself.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import InvalidInput
from .text import SORTED_JSON

GENERATIVE_TEMPERATURE = 0.7
EVALUATION_TEMPERATURE = 0.2


class Task(NamedTuple):
    """One task as every request for it states it, apart from its payload."""

    system: str
    instruction: str
    temperature: float
    schema_id: str


TASKS = {
    "ir-extract": Task(
        system="You deconstruct each numbered sentence of one or more hardware "
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
               "per sentence, in order.",
        instruction=("Classify each numbered sentence, then deconstruct it using that "
                     "kind's template."),
        temperature=GENERATIVE_TEMPERATURE, schema_id="semantic-ir-list"),
    "summarize": Task(
        system="Summarize what the given passages contribute toward answering the query. "
               "Be terse and factual; mention only content relevant to the query. For each "
               "number n in cuts, summarize the first n passages alone. Reply with JSON: "
               '{"summaries": [...]}, one summary per cut, in order.',
        instruction="Summarize the evidence with respect to the query, once per cut.",
        temperature=GENERATIVE_TEMPERATURE, schema_id="summary-list"),
    "reason": Task(
        system="You answer questions about a hardware specification step by step. Given "
               "the question, your prior notes, and the evidence passages, produce one "
               "reasoning step and assess whether the evidence suffices. Reply with JSON: "
               '{"thought": ..., "status": "sufficient", "answer": ...} or {"thought": ..., '
               '"status": "gap", "gap_description": ..., "sub_query": ..., "target_anchor": '
               '{"anchor_type": "declarative"|"procedural", "entity": ...}}. The answer states '
               "each fact from the evidence as its own short sentence. The sub_query must name "
               "the single missing fact; the target_anchor captures its functional intent.",
        instruction="Produce the next reasoning step and assess sufficiency.",
        temperature=GENERATIVE_TEMPERATURE, schema_id="gap-assess"),
    "synthesize": Task(
        system="Write the final answer to the question using only the evidence passages. "
               "State each fact as its own short sentence. If the evidence is flagged "
               "incomplete, say what is known and note the gap.",
        instruction="Write the final grounded answer.",
        temperature=GENERATIVE_TEMPERATURE, schema_id="freeform"),
    "atom-decompose": Task(
        system="Decompose the answer into minimal, self-contained factual claims. Each "
               "atom must stand alone as one declarative statement. Reply with JSON: "
               '{"atoms": [...]}.',
        instruction="Decompose this answer into atomic facts.",
        temperature=EVALUATION_TEMPERATURE, schema_id="atom-list"),
    "atom-match": Task(
        system="Judge each numbered candidate claim against the numbered reference "
               "claims. A candidate matches a reference that states the same facts; "
               "paraphrase and wording variance do not matter. Each reference matches "
               "at most one candidate. Reply with JSON: {\"matches\": [...]}, one entry "
               "per candidate, in order: the number of its matching reference, or null.",
        instruction="Find the reference claim equivalent to each candidate, if any.",
        temperature=EVALUATION_TEMPERATURE, schema_id="match-list"),
}

# Every task the pipeline asks a chat model for; routing keys must name one.
TASK_TAGS = tuple(TASKS)


def _render(instruction: str, payload: dict) -> str:
    return f"{instruction}\n\nInput:\n```json\n{SORTED_JSON.encode(payload)}\n```"


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request: a task of ``TASKS`` and its payload.

    The payload holds JSON types only, so a provider that reads it gets what
    the rendered prompt states. The user prompt is rendered once, here:
    the task's instruction, the payload, then ``note``, which a repair
    request uses to echo the invalid reply. The system prompt, temperature
    and reply schema are the task's."""

    task_tag: str
    payload: dict
    note: str = ""
    user_prompt: str = field(init=False, repr=False)

    def __post_init__(self):
        task = TASKS.get(self.task_tag)
        if task is None:
            raise InvalidInput(f"unknown task_tag {self.task_tag!r}; the tasks are "
                               f"{', '.join(TASKS)}")
        object.__setattr__(self, "user_prompt",
                           _render(task.instruction, self.payload) + self.note)

    @property
    def system_prompt(self) -> str:
        return TASKS[self.task_tag].system

    @property
    def temperature(self) -> float:
        return TASKS[self.task_tag].temperature

    @property
    def response_schema_id(self) -> str:
        return TASKS[self.task_tag].schema_id


def extract_ir(passages: list[tuple[Sequence[str], list[str]]]) -> ChatRequest:
    """One request for the sentences of one or more passages, each given as
    its (section path, sentences). The sentences are numbered from 1 across
    the whole request; the reply holds one ``semantic-ir`` entry per
    sentence, in order."""
    numbers = itertools.count(1)
    return ChatRequest("ir-extract", {"passages": [
        {"section": list(section),
         "sentences": [{"number": next(numbers), "text": s} for s in sentences]}
        for section, sentences in passages]})


def summarize(query: str, texts: list[str], cuts: list[int]) -> ChatRequest:
    """One request for the summaries of several prefixes of the passage
    ``texts``; the reply holds one ``summary-list`` entry per cut n, the
    summary of the first n passages, in order. The reply names a prefix by
    its length, so the passages go as their texts alone."""
    return ChatRequest("summarize", {"query": query, "passages": texts, "cuts": cuts})


def reason(question: str, thoughts: list[str], context: list[dict]) -> ChatRequest:
    return ChatRequest("reason", {"question": question, "thoughts": list(thoughts),
                                  "context": context})


def synthesize(question: str, thoughts: list[str], context: list[dict],
               incomplete: bool) -> ChatRequest:
    return ChatRequest("synthesize", {"question": question, "thoughts": list(thoughts),
                                      "context": context, "incomplete_evidence": incomplete})


def atom_decompose(answer: str) -> ChatRequest:
    return ChatRequest("atom-decompose", {"answer": answer})


def atom_match(candidates: list[str], references: list[str]) -> ChatRequest:
    """One request judging every candidate claim against the references; the
    reply holds one ``match-list`` entry per candidate, in order: the index
    of its matching reference, or null."""
    return ChatRequest("atom-match", {
        "candidates": [{"index": i, "text": t} for i, t in enumerate(candidates)],
        "references": [{"index": i, "text": t} for i, t in enumerate(references)]})
