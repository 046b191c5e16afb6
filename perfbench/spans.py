"""Counters and spans around calls into speckg's public functions.

The program is not edited: :func:`instrument` replaces module functions and
class methods with wrappers from this file. Calls made inside speckg look the
names up on their module or class at call time, so they reach the wrappers
too.

Two levels:

* counting (always on): requests into ``Gateway.chat``, texts into
  ``Gateway.embed`` and prompt tokens. These feed end-to-end metrics.
* spans (``--trace 1``): one span per wrapped call, with its name, start,
  end, parent span and operation id, kept in memory and written out when the
  run ends. A span's self time is its duration minus the durations of its
  direct children, so the self times of one operation add up to its time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from speckg import (evaluation, gateway, ingest, kg, offline, reasoning,
                    retrieval, schemas, text)

TASK_TAGS = ("classify-sentence", "ir-extract", "summarize", "reason",
             "synthesize", "atom-decompose", "atom-match")


class Tracer:
    """Per-run counters, and span records when ``spans`` is set."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.op: int | None = None  # None outside operations: nothing is recorded
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.records: list[tuple] = []
        self._stack: list[list] = []  # [span id, seconds in children, parent id]
        self._next_id = 0
        self._digests: set[str] = set()
        self._requests = 0
        self.digest_ratios: list[float] = []

    # -- operations ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._digests.clear()
        self._requests = 0
        if self.spans_on:
            self._op_start = self._open()

    def end_op(self) -> None:
        if self.spans_on:
            self._close("op", self._op_start)
            if self._requests:
                self.digest_ratios.append(len(self._digests) / self._requests)
        self.op = None

    # -- spans -----------------------------------------------------------------

    def _open(self) -> float:
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, 0.0, parent])
        self._next_id += 1
        return time.perf_counter()

    def _close(self, name: str, start: float) -> None:
        end = time.perf_counter()
        span_id, child_s, parent = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        self.records.append((span_id, name, start, end, parent, self.op))

    def wrap(self, owner, attr: str, name: str | None, after=None, before=None) -> None:
        """Replace ``owner.attr`` with a wrapper that, inside operations, runs
        the hooks and, when tracing and ``name`` is given, records span ``name``.

        ``before(args)`` runs first and its value goes to
        ``after(result, args, before_value)``.
        """
        fn = getattr(owner, attr)
        tracer = self
        span = name is not None and self.spans_on

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            seen = before(args) if before else None
            if span:
                start = tracer._open()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(name, start)
            else:
                result = fn(*args, **kwargs)
            if after:
                after(result, args, seen)
            return result

        setattr(owner, attr, wrapper)

    # -- output ------------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.records:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per operation, as {name: (value, unit)}."""
        c, s = self.counts, self.self_s

        def ms(span: str) -> tuple[float, str]:
            return s[span] * 1e3 / ops, "ms"

        def per_op(key: str) -> tuple[float, str]:
            return c[key] / ops, "count"

        def ratio(num: float, den: float, unit: str = "ratio") -> tuple[float, str]:
            return (num / den if den else 0.0), unit

        out = {
            "schemas.validate_calls": per_op("schemas.validate"),
            "schemas.validate_ms": ms("schemas.validate"),
            "gateway.chat_self_ms": ms("gateway.chat"),
        }
        for tag in TASK_TAGS:
            out[f"gateway.chat_calls.{tag}"] = per_op(f"chat.{tag}")
        ratios = self.digest_ratios
        out.update({
            "gateway.distinct_digest_ratio": ratio(sum(ratios), len(ratios)),
            "gateway.embed_texts": per_op("embed_texts"),
            "gateway.embed_self_ms": ms("gateway.embed"),
            "gateway.fixture_writes": per_op("fixture_writes"),
            "gateway.fixture_write_ms": ms("gateway.fixture_write"),
            "gateway.fixture_hits": per_op("fixture_hits"),
            "offline.chat_ms": ms("offline.chat"),
            "offline.embed_ms": ms("offline.embed"),
            "ingest.chunk_ms": ms("ingest.chunk"),
            "ingest.extract_self_ms": ms("ingest.extract"),
            "ingest.sentences": per_op("ingest.sentences"),
            "ingest.skipped": per_op("ingest.skipped"),
            "kg.extract_triples_ms": ms("kg.extract_triples"),
            "kg.alias_map_ms": ms("kg.alias_map"),
            "kg.build_graph_ms": ms("kg.build_graph"),
            "kg.normalize_ms": ms("kg.normalize"),
            "kg.embed_ms": ms("kg.embed"),
            "kg.integrity_ms": ms("kg.integrity"),
            "kg.save_ms": ms("kg.save"),
            "kg.load_ms": ms("kg.load"),
            "kg.nodes": per_op("kg.nodes"),
            "kg.edges": per_op("kg.edges"),
            "kg.top_similar_ms": ms("kg.top_similar"),
            "retrieval.retrieve_calls": per_op("retrieval.retrieve"),
            "retrieval.retrieve_self_ms": ms("retrieval.retrieve"),
            "retrieval.seed_ms": ms("retrieval.seed"),
            "retrieval.ppr_ms": ms("retrieval.ppr"),
            "retrieval.ppr_unconverged": per_op("retrieval.ppr_unconverged"),
            "retrieval.expand_self_ms": ms("retrieval.expand"),
            "retrieval.expand_rounds": per_op("retrieval.expand_rounds"),
            "retrieval.expand_accept_ratio": ratio(c["retrieval.expand_accepts"],
                                                   c["retrieval.expand_rounds"]),
            "retrieval.summarize_per_round": ratio(c["chat.summarize"],
                                                   c["retrieval.expand_rounds"]),
            "retrieval.filter_ms": ms("retrieval.filter"),
            "retrieval.filter_bypassed": per_op("retrieval.filter_bypassed"),
            "reasoning.run_self_ms": ms("reasoning.run"),
            "reasoning.rounds_per_question": ratio(c["reasoning.rounds"],
                                                   c["reasoning.runs"], "rounds"),
            "reasoning.stall_exits": per_op("reasoning.stall_exits"),
            "reasoning.reason_step_ms": ms("reasoning.reason_step"),
            "reasoning.synthesize_ms": ms("reasoning.synthesize"),
            "evaluation.item_self_ms": ms("evaluation.item"),
            "evaluation.decompose_ms": ms("evaluation.decompose"),
            "evaluation.match_ms": ms("evaluation.match"),
            "evaluation.judge_calls_per_item": ratio(c["chat.atom-match"],
                                                     c["evaluation.items"], "calls"),
            "evaluation.samples_per_item": ratio(c["evaluation.samples"],
                                                 c["evaluation.items"], "samples"),
            "op.other_ms": ms("op"),
        })
        return out


def instrument(tracer: Tracer) -> None:
    """Install the counting wrappers, and the span wrappers when tracing."""
    c = tracer.counts

    def on_chat(_result, args, _seen):
        gw, req = args
        c["chat_requests"] += 1
        c["prompt_tokens"] += (text.estimate_tokens(req.system_prompt)
                               + text.estimate_tokens(req.user_prompt))
        if tracer.spans_on:
            c[f"chat.{req.task_tag}"] += 1
            tracer._requests += 1
            model = gw.task_models.get(req.task_tag, gw.chat_model)
            tracer._digests.add(gateway.chat_digest(req, model))

    def on_embed(_result, args, _seen):
        c["embed_texts"] += len(args[1])

    w = tracer.wrap
    w(gateway.Gateway, "chat", "gateway.chat", after=on_chat)
    w(gateway.Gateway, "embed", "gateway.embed", after=on_embed)
    if not tracer.spans_on:
        return

    def bump(key):
        def after(_result, _args, _seen):
            c[key] += 1
        return after

    def on_fixture_get(result, _args, _seen):
        if result is not None:
            c["fixture_hits"] += 1

    def on_fixture_put(_result, _args, was_new):
        c["fixture_writes"] += was_new

    def on_ingest(corpus, _args, _seen):
        c["ingest.skipped"] += len(corpus.skipped)

    def on_ppr(result, _args, _seen):
        c["retrieval.ppr_unconverged"] += not result[1]

    def on_expand(state, args, _seen):
        tau = args[1]
        c["retrieval.expand_rounds"] += len(state.mig_trace)
        c["retrieval.expand_accepts"] += sum(1 for g in state.mig_trace if g > tau)

    def on_filter(result, _args, _seen):
        c["retrieval.filter_bypassed"] += result.bypassed

    def on_run(record, _args, _seen):
        c["reasoning.runs"] += 1
        c["reasoning.rounds"] += record.rounds_used
        c["reasoning.stall_exits"] += reasoning.FLAG_STALL in record.flags

    def on_item(result, _args, _seen):
        c["evaluation.items"] += 1
        c["evaluation.samples"] += result.samples

    w(schemas, "validate_reply", "schemas.validate", after=bump("schemas.validate"))
    w(gateway.FixtureStore, "put", "gateway.fixture_write",
      before=lambda args: args[1] not in args[0].entries, after=on_fixture_put)
    w(gateway.FixtureStore, "get", None, after=on_fixture_get)
    w(offline.OfflineModel, "chat", "offline.chat")
    w(offline.OfflineModel, "embed", "offline.embed")
    w(ingest, "chunk", "ingest.chunk")
    w(ingest, "ingest_document", "ingest.extract", after=on_ingest)
    w(ingest, "classify_sentence", "ingest.extract", after=bump("ingest.sentences"))
    w(ingest, "extract_ir", "ingest.extract")
    w(ingest.Corpus, "save", "kg.save")
    w(kg, "extract_corpus_triples", "kg.extract_triples")
    w(kg, "compute_alias_map", "kg.alias_map")
    w(kg, "build_graph", "kg.build_graph")
    w(kg, "apply_normalization", "kg.normalize")
    w(kg, "compute_embeddings", "kg.embed")
    w(kg, "check_integrity", "kg.integrity")
    w(kg, "save", "kg.save")
    w(kg, "load", "kg.load")
    w(kg.EmbeddingIndex, "top_similar", "kg.top_similar")
    w(retrieval, "retrieve", "retrieval.retrieve", after=bump("retrieval.retrieve"))
    w(retrieval, "seed", "retrieval.seed")
    w(retrieval, "ppr", "retrieval.ppr", after=on_ppr)
    w(retrieval, "adaptive_expand", "retrieval.expand", after=on_expand)
    w(retrieval, "csa_filter", "retrieval.filter", after=on_filter)
    w(reasoning, "run", "reasoning.run", after=on_run)
    w(reasoning, "reason_step", "reasoning.reason_step")
    w(reasoning, "synthesize", "reasoning.synthesize")
    w(evaluation, "evaluate_item", "evaluation.item", after=on_item)
    w(evaluation, "decompose", "evaluation.decompose")
    w(evaluation, "match", "evaluation.match")
