"""Shared fixtures: the offline gateway and the in-repo corpus/graph."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from speckg import evaluation, kg as kgmod, prompts, reasoning, retrieval
from speckg.config import RunConfig
from speckg.errors import EmptyGraph, InvalidInput
from speckg.gateway import Gateway
from speckg.ingest import ingest_document
from speckg.offline import OfflineModel
from speckg.retrieval import weak_components

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SPEC_DOC = FIXTURES / "serial_link_spec.md"
QA_DATASET = FIXTURES / "qa_dataset.jsonl"


def make_offline_gateway(**kwargs) -> Gateway:
    return Gateway(**{"provider": OfflineModel(), "mode": "live", **kwargs})


def one_request_per_task() -> dict:
    """One request of each task, by tag, from fixed inputs."""
    context = [{"passage_id": "spec#p0001", "section": "Registers/CTRL",
                "text": "The CTRL register holds the mode."}]
    return {
        "ir-extract": prompts.extract_ir([(["Registers", "CTRL"],
                                           ["The CTRL register holds the mode.",
                                            "Écrit à 0x1."])]),
        "summarize": prompts.summarize("What does CTRL hold?",
                                       ["The CTRL register holds the mode."], [1]),
        "reason": prompts.reason("What does CTRL hold?", ["first thought"], context),
        "synthesize": prompts.synthesize("What does CTRL hold?", [], context, True),
        "atom-decompose": prompts.atom_decompose("The CTRL register holds the mode."),
        "atom-match": prompts.atom_match(["CTRL holds the mode."],
                                         ["The CTRL register holds the mode.", "x"]),
    }


def make_config(**gateway_overrides) -> RunConfig:
    cfg = RunConfig()
    for key, value in gateway_overrides.items():
        setattr(cfg.gateway, key, value)
    return cfg


def load_manual_module():
    """The benchmark's seeded register-manual generator, ``perfbench/manual.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "manual.py"
    spec = importlib.util.spec_from_file_location("perfbench_manual", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def synthesized_answer(record, graph, gateway) -> str:
    """The answer a separate ``synthesize`` call writes over the context a
    finished run ended with, as the loop asked for it before a sufficient
    verdict carried the answer: the oracle for that answer."""
    ctx = reasoning.ReasoningContext(question=record.question,
                                     thoughts=list(record.thoughts))
    for pid in record.provenance:
        passage = graph.passages[pid]
        ctx.context_items.append(reasoning.ContextItem(
            passage_id=pid, text=passage.text,
            section="/".join(passage.section_path)))
    return reasoning.synthesize(gateway, ctx, incomplete=False)


def mention_components(graph) -> int:
    """Connected components of the entity–passage mention subgraph: every
    entity and passage is a node, every mention edge joins two."""
    keys = ([kgmod.entity_key(e) for e in sorted(graph.entities)]
            + [kgmod.passage_key(p) for p in sorted(graph.passages)])
    index = {key: i for i, key in enumerate(keys)}
    mentions = [(index[e.src], index[e.dst]) for e in graph.edges if e.kind == "mention"]
    src = np.array([i for i, _ in mentions], dtype=np.intp)
    dst = np.array([j for _, j in mentions], dtype=np.intp)
    return len(np.unique(weak_components(len(keys), src, dst)))


def dangling(walk) -> np.ndarray:
    """The indices of the walk's nodes without out-weight."""
    return np.flatnonzero(walk.out_weight == 0.0)


def walk_scores(walk, personalization, damping: float) -> np.ndarray:
    """The oracle of ``retrieval.ppr``'s passage table: the power iteration of
    ``pagerank_scores`` on a built walk, from ``x = p``, for
    ``retrieval.walk_steps(damping)`` steps. ``Walk.step`` is looked up on
    its class at each step, so a test may count or stop the steps."""
    steps = retrieval.walk_steps(damping)
    p = np.asarray(personalization, dtype=np.float64)
    if p.shape != (walk.n_nodes,) or np.any(p < 0) or not np.isclose(p.sum(), 1.0):
        raise InvalidInput("personalization must be a nonnegative distribution")
    hand_back = dangling(walk)
    x = p
    for _ in range(steps):
        x = (1.0 - damping) * p + damping * (walk.step(x) + x[hand_back].sum() * p)
    return x


def pagerank_scores(n_nodes: int, edges, personalization,
                    damping: float = 0.85) -> np.ndarray:
    """Random walk with restart on a weighted directed graph, walked over the
    whole graph.

    Fixed point of ``x = (1-d)·p + d·(Wᵀx + (dangling mass)·p)`` where W is
    the row-stochastic transition matrix; dangling nodes hand their mass back
    to the personalization vector, so scores always sum to 1. The iteration
    runs a fixed number of steps set by ``damping`` (see ``walk_scores``).
    """
    if n_nodes <= 0:
        raise EmptyGraph("pagerank needs at least one node")
    return walk_scores(retrieval.build_walk(n_nodes, edges), personalization, damping)


@pytest.fixture(scope="session")
def offline_gateway() -> Gateway:
    return make_offline_gateway()


@pytest.fixture(scope="session")
def fixture_document() -> str:
    return SPEC_DOC.read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def corpus(offline_gateway, fixture_document):
    return ingest_document(offline_gateway, fixture_document, "serial_link_spec")


@pytest.fixture(scope="session")
def graph(corpus, offline_gateway):
    return kgmod.build_from_corpus(corpus, offline_gateway)


@pytest.fixture(scope="session")
def dataset():
    return evaluation.load_dataset(QA_DATASET)


@pytest.fixture()
def run_cfg() -> RunConfig:
    return make_config()
