"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import random
import time

import numpy as np
import pytest

from speckg import evaluation, kg as kgmod
from speckg.cli import main
from speckg.config import build_gateway
from speckg.evaluation import aggregate_two_sigma, score
from speckg.ingest import Passage, SemanticAnchor, ingest_document
from speckg.kg import SpecGraph
from speckg.retrieval import RetrievalRound, adaptive_expand, csa_filter, pagerank_scores

from conftest import QA_DATASET, SPEC_DOC, make_config, mention_components


class _Verdict:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    @property
    def elapsed(self):
        return time.monotonic() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[criterion {self.number}] {status} ({self.elapsed:.2f}s) {self.description}")
        return False


@pytest.fixture(scope="module")
def replay_artifacts(tmp_path_factory):
    """Record the whole pipeline once (build + bench) so replay criteria run
    against a sealed fixture store with no provider at all."""
    base = tmp_path_factory.mktemp("acceptance")
    store = base / "kg"
    fixtures = base / "replies.jsonl"
    assert main(["build-kg", "--spec", str(SPEC_DOC), "--out", str(store),
                 "--mode", "record", "--fixtures", str(fixtures)]) == 0
    assert main(["bench", "--kg", str(store), "--dataset", str(QA_DATASET),
                 "--mode", "record", "--fixtures", str(fixtures),
                 "--run-dir", str(base / "warm")]) == 0
    return {"base": base, "store": store, "fixtures": fixtures}


def test_criterion_1_metric_arithmetic():
    with _Verdict(1, "score() matches brute force on 1000 random instances, <=1e-12, <1s") as v:
        rng = random.Random(42)
        for _ in range(1000):
            g = rng.randint(0, 40)
            r = rng.randint(1, 40)
            m = rng.randint(0, min(g, r)) if g else 0
            matched = [f"a{i}" for i in range(m)]
            a_gen = [f"a{i}" for i in range(g)]
            a_ref = [f"r{i}" for i in range(r)]
            p, rec, f1 = score(matched, a_gen, a_ref)
            bp = m / g if g else 0.0
            br = m / r
            bf1 = 0.0 if bp + br == 0 else 2 * bp * br / (bp + br)
            assert abs(p - bp) <= 1e-12
            assert abs(rec - br) <= 1e-12
            assert abs(f1 - bf1) <= 1e-12
        assert v.elapsed < 1.0


def _dense_oracle(n, edges, p, damping):
    w = np.zeros((n, n))
    for i, j, weight in edges:
        w[i, j] += weight
    out = w.sum(axis=1)
    m = np.zeros((n, n))
    for i in range(n):
        if out[i] > 0:
            m[i] = w[i] / out[i]
    dangling = (out == 0).astype(float)
    google = damping * (m + np.outer(dangling, p)) + (1 - damping) * np.outer(np.ones(n), p)
    x = np.array(p, dtype=float)
    for _ in range(5000):
        nxt = google.T @ x
        if np.abs(nxt - x).sum() < 1e-13:
            return nxt
        x = nxt
    return x


def test_criterion_2_ppr_oracle_equivalence():
    with _Verdict(2, "sparse pagerank matches dense oracle on 200 graphs, 1e-6 L1, <30s") as v:
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            density = float(rng.uniform(0.0, 0.5))
            edges = [(i, j, float(rng.uniform(0.1, 3.0)))
                     for i in range(n) for j in range(n)
                     if i != j and rng.random() < density]
            p = rng.uniform(0.0, 1.0, n) + 1e-9
            p = p / p.sum()
            sparse = pagerank_scores(n, edges, p, damping=0.85)
            assert abs(sparse.sum() - 1.0) <= 1e-8, "mass not conserved"
            dense = _dense_oracle(n, edges, p, 0.85)
            assert np.abs(sparse - dense).sum() < 1e-6
        assert v.elapsed < 30.0


def _round(n):
    return RetrievalRound(sub_query="q", target_anchor=SemanticAnchor("declarative", "x"),
                          ranked=[(f"p{i:03d}", 1.0 - 0.001 * i) for i in range(n)])


def test_criterion_3_adaptive_expansion_behavior():
    with _Verdict(3, "expansion: zero-gain stops at k0; n high-gain rounds accepted; K_max hard stop"):
        # (a) identical summaries every round: gain exactly 0, terminate with S_0
        rnd = _round(40)
        unit = np.zeros(4)
        unit[0] = 1.0
        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=50,
                        summarize=lambda q, ids, cuts: ["constant summary"] * len(cuts),
                        embed=lambda texts: np.array([unit] * len(texts)))
        assert len(rnd.accepted) == 5
        assert rnd.mig_trace == [0.0]

        # (b) orthogonal-embedding summaries for 2 rounds, then identical:
        # exactly 2 accepted expansions, |S| = k0 + 2*delta_k
        basis = np.eye(8)
        table = {5: basis[0], 10: basis[1], 15: basis[2], 20: basis[2]}

        def summarize(query, ids, cuts):
            return [f"summary of {n}" for n in cuts]

        def embed(texts):
            return np.array([table[int(text.rsplit(" ", 1)[1])] for text in texts])

        rnd = _round(40)
        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=50,
                        summarize=summarize, embed=embed)
        assert len(rnd.accepted) == 5 + 2 * 5
        assert len(rnd.mig_trace) == 3
        assert rnd.mig_trace[-1] == 0.0

        # (c) K_max = k0: no expansion round at all
        rnd = _round(40)
        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=5,
                        summarize=lambda q, ids, cuts: pytest.fail("no round expected"),
                        embed=lambda texts: np.array([unit] * len(texts)))
        assert len(rnd.accepted) == 5
        assert rnd.mig_trace == []

        # K_max hard stop under permanently high gain
        counter = {"n": 0}

        def always_new(texts):
            vecs = np.zeros((len(texts), 64))
            for row in vecs:
                counter["n"] += 1
                row[counter["n"]] = 1.0
            return vecs

        rnd = _round(40)
        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=12,
                        summarize=lambda q, ids, cuts: [f"s{n}" for n in cuts],
                        embed=always_new)
        assert len(rnd.accepted) == 12


def test_criterion_4_filter_purity():
    with _Verdict(4, "filter removes 100% of incompatible candidates and 0% of compatible ones"):
        passages = {}
        target = SemanticAnchor("procedural", "TX_READY flag")
        compatible, incompatible = [], []

        def add(pid, anchor_type, entity):
            passages[pid] = Passage(
                passage_id=pid, doc_id="t", section_path=[], text=pid,
                sentence_spans=[], token_estimate=1,
                anchor=SemanticAnchor(anchor_type, entity))

        # lexically similar distractors with mismatched anchors
        for i in range(10):
            add(f"ok{i}", "procedural", "tx_ready flag")
            compatible.append(f"ok{i}")
        for i in range(10):
            add(f"type{i}", "declarative", "tx_ready flag")
            incompatible.append(f"type{i}")
        for i in range(10):
            add(f"ent{i}", "procedural", "rx_ready flag")
            incompatible.append(f"ent{i}")

        pool = compatible + incompatible
        result = csa_filter(pool, target, SpecGraph(passages=passages))
        assert set(result.removed) == set(incompatible), "must remove all incompatible"
        assert set(result.kept) == set(compatible), "must keep all compatible"
        assert not result.bypassed


def test_criterion_5_end_to_end_multihop_replay(replay_artifacts):
    with _Verdict(5, "replay bench: recall 1.0, chain rounds == hops, F1 1.0, <60s, no provider") as v:
        cfg = make_config(mode="replay",
                          fixture_path=str(replay_artifacts["fixtures"]))
        cfg.eval.n_runs = 5
        cfg.eval.n_judge = 20
        gateway = build_gateway(cfg)
        assert gateway.provider is None  # replay mode cannot reach any backend
        graph = kgmod.load(replay_artifacts["store"])
        dataset = evaluation.load_dataset(QA_DATASET)
        report = evaluation.run_benchmark(dataset, graph, gateway, cfg)

        for item in report.items:
            assert item.system_recall == 1.0, f"{item.qid} recall {item.system_recall}"
            assert item.f1 == 1.0, f"{item.qid} F1 {item.f1}"
        chain = next(i for i in report.items if i.question_type == "signal-dependency")
        assert chain.rounds_used == chain.hop_count == 3
        assert report.overall_f1 == 1.0
        assert v.elapsed < 60.0


def test_criterion_6_graph_integrity(replay_artifacts):
    with _Verdict(6, "graph integrity: no dangling, linking closure, merge monotone, round-trip, <10s") as v:
        cfg = make_config(mode="replay",
                          fixture_path=str(replay_artifacts["fixtures"]))
        gateway = build_gateway(cfg)
        document = SPEC_DOC.read_text(encoding="utf-8")
        corpus = ingest_document(gateway, document, "serial_link_spec")
        triples = kgmod.extract_corpus_triples(corpus)
        graph = kgmod.build_graph(corpus, triples)

        before_components = mention_components(graph)
        before_mentions = {(e.src, e.dst) for e in graph.edges if e.kind == "mention"}
        graph = kgmod.compute_embeddings(kgmod.apply_normalization(graph), gateway)

        # zero dangling endpoints (full scan)
        kgmod.check_integrity(graph)
        for edge in graph.edges:
            assert graph.node_exists(edge.src) and graph.node_exists(edge.dst)

        # every linking edge joins a same-sentence backbone/auxiliary pair
        for edge in graph.edges:
            if edge.kind != "link":
                continue
            tb = graph.statements[edge.src[2:]]
            ta = graph.statements[edge.dst[2:]]
            assert tb.category == "backbone" and ta.category == "auxiliary"
            assert tb.source == ta.source

        # normalization monotonicity: components never increase, mentions only rehome
        assert mention_components(graph) <= before_components
        after_mentions = {(e.src, e.dst) for e in graph.edges if e.kind == "mention"}
        rehomed = {(f"e:{graph.resolve_entity(src[2:])}", dst)
                   for src, dst in before_mentions}
        assert rehomed <= after_mentions

        # save/load round-trip isomorphic: ids, anchors, embeddings identical
        out = replay_artifacts["base"] / "integrity-store"
        kgmod.save(graph, out)
        loaded = kgmod.load(out)
        assert set(loaded.passages) == set(graph.passages)
        assert loaded.entities == graph.entities
        assert set(loaded.triples) == set(graph.triples)
        assert sorted((e.kind, e.src, e.dst) for e in loaded.edges) == \
               sorted((e.kind, e.src, e.dst) for e in graph.edges)
        for pid in graph.passages:
            a, b = graph.passages[pid].anchor, loaded.passages[pid].anchor
            assert (a is None and b is None) or a.to_dict() == b.to_dict()
        assert loaded.embeddings.keys == graph.embeddings.keys
        assert (loaded.embeddings.matrix == graph.embeddings.matrix).all()
        assert v.elapsed < 10.0


def test_criterion_7_two_sigma_aggregation():
    with _Verdict(7, "two-sigma trimming exact on hand-computed cases, idempotent on clean data"):
        assert aggregate_two_sigma([1.0] * 9 + [0.0]).mean == 1.0
        assert aggregate_two_sigma([0.8, 0.8]).mean == 0.8
        scores = [0.5, 0.6, 0.7]  # clean: no value beyond two sigma
        result = aggregate_two_sigma(scores)
        assert result.mean == sum(scores) / len(scores)
        assert result.dropped == 0


def test_criterion_8_replay_verify_byte_identical(replay_artifacts):
    with _Verdict(8, "replay-verify: two full bench runs produce byte-identical reports"):
        out = replay_artifacts["base"] / "verify"
        code = main(["replay-verify",
                     "--kg", str(replay_artifacts["store"]),
                     "--dataset", str(QA_DATASET),
                     "--mode", "replay",
                     "--fixtures", str(replay_artifacts["fixtures"]),
                     "--out", str(out)])
        assert code == 0
        run1 = (out / "run1" / "report.json").read_bytes()
        run2 = (out / "run2" / "report.json").read_bytes()
        assert run1 == run2
