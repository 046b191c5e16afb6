"""Shared fixtures: the offline gateway and the in-repo corpus/graph."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from speckg import evaluation, kg as kgmod, reasoning
from speckg.config import RunConfig
from speckg.gateway import Gateway
from speckg.ingest import ingest_document
from speckg.offline import OfflineModel
from speckg.retrieval import weak_components

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SPEC_DOC = FIXTURES / "serial_link_spec.md"
QA_DATASET = FIXTURES / "qa_dataset.jsonl"


def make_offline_gateway(**kwargs) -> Gateway:
    defaults = dict(provider=OfflineModel(), mode="live",
                    chat_model="offline-chat", embedding_model="offline-embed")
    defaults.update(kwargs)
    return Gateway(**defaults)


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
