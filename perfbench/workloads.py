"""The three workloads: set-up, one round of operations, and per-operation checks.

Each workload runs in one process with one caller (a closed loop, ``jobs`` 1).
A run repeats whole rounds until ``--seconds`` have passed, so every run
attempts the same operations in the same proportions whatever its length. Each
round is sized to outlast the 10-second run, so a run is one round.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from speckg import evaluation, ingest, kg, reasoning
from speckg.config import RunConfig, build_gateway

import manual

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "fixtures" / "serial_link_spec.md"
QA = ROOT / "fixtures" / "qa_dataset.jsonl"

# query-manual keeps questions that fail on a program fault; their inputs, the
# manual included, must not depend on --seed, so that the same questions fail
# in every run and the per-question work (chat calls, tokens) repeats exactly.
# There, --seed orders the questions.
QUERY_MANUAL_SEED = 0
# The questions of that manual that fail on identifier confusion under
# similarity-only seeding: the gold passage ranks below the k0 cut, expansion
# stops and the loop ends flagged incomplete. Any other failure is a wrong
# answer.
KNOWN_FAILING = frozenset({"chain-3", "default-73", "locate-43", "locate-59"})


@dataclass
class Outcome:
    """``ok``: every check held. ``known``: the failure is the known fault, one
    of ``KNOWN_FAILING`` answered incomplete, as opposed to a wrong output."""

    ok: bool
    known: bool = False


def _config(mode: str = "live", fixtures: Path | None = None) -> RunConfig:
    cfg = RunConfig()
    cfg.gateway.mode = mode
    cfg.gateway.fixture_path = str(fixtures) if fixtures else None
    cfg.validate()
    return cfg


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _counts(graph: kg.SpecGraph) -> tuple[int, ...]:
    return (len(graph.passages), len(graph.entities), len(graph.statements),
            len(graph.triples), len(graph.edges))


def _build_store(cfg: RunConfig, document: str, doc_id: str, store: Path):
    """The build-kg pipeline: ingest, build, save corpus and graph, load back."""
    gw = build_gateway(cfg)
    corpus = ingest.ingest_document(gw, document, doc_id, cfg.ingest.max_passage_tokens)
    graph = kg.build_from_corpus(corpus, gw)
    corpus.save(store)
    kg.save(graph, store)
    return graph, kg.load(store)


class BuildManual:
    """One operation builds the store for the generated manual in record mode."""

    name = "build-manual"
    setups = 5

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.first_hash: str | None = None
        self.manual = manual.generate(seed, manual.BLOCKS)
        self.source = work / f"{manual.DOC_ID}.md"
        self.source.write_text(self.manual.text, encoding="utf-8")

    def setup(self) -> None:
        # Load the manual and lay out its passages with speckg's chunker, which
        # must match the generator's sections. Then check the whole pipeline on
        # the small fixture spec. The chunker alone takes about 20 ms, too short
        # to time steadily on a machine whose speed switches within a tenth of
        # a second (it read 11 to 22 ms between runs); the spec build takes
        # about 0.8 s.
        self.text = self.source.read_text(encoding="utf-8")
        passages = ingest.chunk(self.text, manual.DOC_ID)
        if len(passages) != len(self.manual.sections) + 1:
            raise RuntimeError(f"chunker made {len(passages)} passages, expected "
                               f"{len(self.manual.sections) + 1}")
        spec = self.work / "spec"
        shutil.rmtree(spec, ignore_errors=True)
        built, loaded = _build_store(_config("record", spec / "replies.jsonl"),
                                     SPEC.read_text(encoding="utf-8"), SPEC.stem,
                                     spec / "store")
        if _counts(built) != _counts(loaded):
            raise RuntimeError("the fixture spec's store did not load back whole")

    def round(self) -> list[int]:
        # two builds per round, so no run's median rests on one operation
        return [0, 1]

    def run(self, op: int, _item):
        op_dir = self.work / f"op{op}"
        cfg = _config("record", op_dir / "replies.jsonl")
        return _build_store(cfg, self.text, manual.DOC_ID, op_dir / "store")

    def check(self, op: int, _item, result) -> Outcome:
        built, loaded = result
        m = self.manual
        digest = _sha256(self.work / f"op{op}" / "store" / "graph.jsonl")
        if self.first_hash is None:
            self.first_hash = digest
        ok = (len(loaded.passages) == len(m.sections) + 1
              and all(loaded.resolve_entity(s) in loaded.entities for s in m.subjects)
              and _counts(loaded) == _counts(built)
              and digest == self.first_hash)
        return Outcome(ok)

    def graph_size(self, result) -> tuple[int, int]:
        loaded = result[1]
        return len(loaded.all_node_keys()), len(loaded.edges)

    def cleanup(self, op: int) -> None:
        shutil.rmtree(self.work / f"op{op}", ignore_errors=True)


class QueryManual:
    """One operation answers one question over the generated manual (live mode)."""

    name = "query-manual"
    setups = 3

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        self.manual = manual.generate(QUERY_MANUAL_SEED, manual.BLOCKS)
        self.cfg = _config()
        store = self.work / "store"
        shutil.rmtree(store, ignore_errors=True)
        _, self.graph = _build_store(self.cfg, self.manual.text, manual.DOC_ID, store)
        self.gateway = build_gateway(self.cfg)
        self.size = len(self.graph.all_node_keys()), len(self.graph.edges)

    def round(self) -> list[manual.Question]:
        # Each chain question three times, so each kind is a third of the
        # round and the median falls in the middle of the two-round questions,
        # not where one- and two-round times overlap: there it moved by a fifth
        # between runs of the same questions.
        questions = [q for q in self.manual.questions
                     for _ in range(3 if q.kind == "chain" else 1)]
        random.Random(self.seed).shuffle(questions)
        return questions

    def run(self, _op: int, question: manual.Question):
        return reasoning.run(question.question, self.graph, self.gateway, self.cfg)

    def check(self, _op: int, question: manual.Question, record) -> Outcome:
        errors = [f for f in record.flags if f.startswith("error:")]
        ok = not errors and all(fact in record.answer for fact in question.facts)
        known = (question.qid in KNOWN_FAILING and not errors
                 and reasoning.FLAG_INCOMPLETE in record.flags)
        return Outcome(ok, known)

    def graph_size(self, _result) -> tuple[int, int]:
        return self.size

    def cleanup(self, _op: int) -> None:
        pass


class EvalFixture:
    """One operation scores one fixture QA item in replay mode (5 runs x 20 judges)."""

    name = "eval-fixture"
    setups = 3

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        shutil.rmtree(self.work / "setup", ignore_errors=True)
        fixtures = self.work / "setup" / "replies.jsonl"
        record_cfg = _config("record", fixtures)
        _, self.graph = _build_store(record_cfg, SPEC.read_text(encoding="utf-8"),
                                     SPEC.stem, self.work / "setup" / "store")
        self.items = evaluation.load_dataset(QA)
        recorder = build_gateway(record_cfg)
        self.recorded = {item.qid: evaluation.evaluate_item(recorder, self.graph, item, record_cfg)
                         for item in self.items}
        self.cfg = _config("replay", fixtures)
        self.gateway = build_gateway(self.cfg)
        self.size = len(self.graph.all_node_keys()), len(self.graph.edges)

    def round(self) -> list[evaluation.QAItem]:
        # three passes over the five items: 15 operations of about 1 s, so a
        # run's median and 90th percentile come from whole passes
        items = list(self.items) * 3
        random.Random(self.seed).shuffle(items)
        return items

    def run(self, _op: int, item: evaluation.QAItem):
        return evaluation.evaluate_item(self.gateway, self.graph, item, self.cfg)

    def check(self, _op: int, item: evaluation.QAItem, result) -> Outcome:
        return Outcome(result == self.recorded[item.qid]
                       and result.error is None
                       and result.f1 == 1.0 and result.system_recall == 1.0)

    def graph_size(self, _result) -> tuple[int, int]:
        return self.size

    def cleanup(self, _op: int) -> None:
        pass


WORKLOADS = {w.name: w for w in (BuildManual, QueryManual, EvalFixture)}
