"""Tests of the benchmark's own generator: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import manual  # noqa: E402
from speckg import ingest  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_expected_facts_occur_in_gold_passages(seed):
    m = manual.generate(seed, 30)
    assert {q.kind for q in m.questions} == set(manual.KINDS)
    for q in m.questions:
        gold = " ".join(m.passage_text(pid) for pid in q.gold_passages)
        for fact in q.facts:
            assert fact in gold, (q.qid, fact)


def test_gold_passage_ids_match_the_chunker():
    m = manual.generate(3, 30)
    passages = ingest.chunk(m.text, manual.DOC_ID)
    assert len(passages) == len(m.sections) + 1
    for p in passages[1:]:
        assert p.text == m.passage_text(p.passage_id)


def test_same_seed_same_manual_and_names_fixed_across_seeds():
    a, b, c = manual.generate(5, 30), manual.generate(5, 30), manual.generate(6, 30)
    assert a.text == b.text and a.questions == b.questions
    assert a.text != c.text
    assert [q.question for q in a.questions] == [q.question for q in c.questions]
