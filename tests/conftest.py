"""Shared fixtures: the offline gateway and the in-repo corpus/graph."""

from __future__ import annotations

from pathlib import Path

import pytest

from speckg import evaluation, kg as kgmod
from speckg.config import RunConfig
from speckg.gateway import Gateway
from speckg.ingest import ingest_document
from speckg.offline import OfflineModel

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
