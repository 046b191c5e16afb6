"""Smoke test at a corpus size well past the fixture document."""

import pytest

from speckg import kg as kgmod, reasoning
from speckg.ingest import ingest_document

from conftest import make_config, make_offline_gateway, synthesized_answer


def synthetic_manual(sections: int) -> str:
    parts = ["# Big Device Manual\n"]
    for i in range(sections):
        parts.append(f"## Section {i}\n")
        parts.append(
            f"The REG_{i:03d} register holds the stage {i} configuration value. "
            f"The REG_{i:03d} register defaults to 0x{i:04X}.\n")
        parts.append(
            f"When the STAGE_{i:03d} strobe fires, the UNIT_{i:03d} block "
            f"latches the stage {i} bus.\n")
    return "\n".join(parts)


@pytest.fixture(scope="module")
def sixty():
    gw = make_offline_gateway()
    corpus = ingest_document(gw, synthetic_manual(60), "big_manual")
    assert len(corpus.passages) == 61  # title passage + one per section
    return gw, kgmod.build_from_corpus(corpus, gw)


def test_sixty_section_manual_builds_and_answers(sixty):
    gw, graph = sixty
    assert len(graph.all_node_keys()) > 400

    cfg = make_config()
    record = reasoning.run("What is the default value of the REG_037 register?",
                           graph, gw, cfg)
    assert "0x0025" in record.answer  # 37 == 0x25
    assert record.rounds_used == 1
    assert record.flags == []


def test_every_answer_from_the_verdict_is_the_synthesized_one(sixty):
    gw, graph = sixty
    cfg = make_config()
    for i in range(60):
        record = reasoning.run(f"What is the default value of the REG_{i:03d} register?",
                               graph, gw, cfg)
        assert record.flags == [], i  # a sufficient exit
        assert f"0x{i:04X}" in record.answer
        assert record.answer == synthesized_answer(record, graph, gw)
