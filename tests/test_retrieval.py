import gc
import json
import math
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckg import kg as kgmod
from speckg import prompts, reasoning, retrieval
from speckg.errors import EmptyGraph, FixtureMiss, InvalidInput
from speckg.ingest import Passage, SemanticAnchor, ingest_document
from speckg.kg import Edge, EmbeddingIndex, SpecGraph
from speckg.offline import OfflineModel
from speckg.retrieval import (RetrievalRound, adaptive_expand, csa_filter,
                              marginal_gain, pagerank_scores, ppr, rank_passages,
                              seed)

from conftest import SPEC_DOC, load_manual_module, make_offline_gateway


def dense_pagerank(n, edges, p, damping, iters=3000, tol=1e-13):
    """Independent oracle: explicit Google-matrix power iteration (dense)."""
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
    for _ in range(iters):
        nxt = google.T @ x
        if np.abs(nxt - x).sum() < tol:
            return nxt
        x = nxt
    return x


def walk_steps(damping):
    """The step count walk_scores runs: the least k with dᵏ <= 1e-7."""
    return math.ceil(math.log(1e-7) / math.log(damping))


def random_multigraph(rng, n, unit):
    """Weighted (or unit-weight) directed edges in shuffled order, with self
    edges, up to three parallel copies of an edge, and dangling nodes."""
    edges = [(i, j, 1.0 if unit else float(rng.uniform(0.0, 2.0)))
             for i in range(n) for j in range(n) if rng.random() < 0.2
             for _ in range(int(rng.integers(1, 4)))]
    return [edges[k] for k in rng.permutation(len(edges))]


def bidirectional_multigraph(rng, n):
    """Unit edges that go both ways among some of ``n`` nodes, with self edges,
    up to three parallel copies of an edge, and 1 to 4 isolated nodes. Returns
    the edges and the isolated nodes."""
    isolated = rng.choice(n, int(rng.integers(1, min(4, n - 1) + 1)), replace=False)
    linked = np.setdiff1d(np.arange(n), isolated)
    edges = []
    for _ in range(int(rng.integers(1, 2 * linked.size))):
        i, j = (int(v) for v in rng.choice(linked, 2))
        for _ in range(int(rng.integers(1, 4))):
            edges += [(i, j, 1.0), (j, i, 1.0)]
    return edges, isolated


def mixes_dangling(walk, nodes, weights):
    """Whether the personalization puts weight both on dangling nodes and on
    others: there the dangling hand-back makes the truncated walk differ from
    the table's closed form in its last digits (within the truncation bound)."""
    dangling = np.isin(np.asarray(list(nodes), dtype=np.intp), walk.dangling)
    weights = np.asarray(list(weights))
    return 0.0 < weights[dangling].sum() < weights.sum()


class FakeEmbedGateway:
    """Gateway double returning preset vectors for preset texts."""

    def __init__(self, table, model="fake"):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}
        self.embedding_model = model

    def embed(self, texts):
        rows = [self.table[t] for t in texts]
        return np.array([row / np.linalg.norm(row) for row in rows])


def toy_graph_with_embeddings(table):
    passages, keys, rows = {}, [], []
    for key, vec in sorted(table.items()):
        pid = key
        passages[pid] = Passage(passage_id=pid, doc_id="t", section_path=[],
                                text=f"text of {pid}", sentence_spans=[],
                                token_estimate=1)
        keys.append(f"p:{pid}")
        arr = np.asarray(vec, dtype=float)
        rows.append(arr / np.linalg.norm(arr))
    return SpecGraph(passages=passages, embeddings=EmbeddingIndex(
        keys, np.stack(rows).astype(np.float32), "fake"))


class TestSeed:
    def test_identical_query_gets_max_weight(self):
        table = {"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "c": [0.6, 0.8, 0.0]}
        graph = toy_graph_with_embeddings(table)
        gw = FakeEmbedGateway({"q": [1.0, 0.0, 0.0]})
        weights = seed("q", graph, n_seeds=3, gateway=gw)
        assert max(weights, key=weights.get) == "p:a"

    def test_n_seeds_clamped_to_node_count(self):
        graph = toy_graph_with_embeddings({"a": [1, 0], "b": [0, 1]})
        gw = FakeEmbedGateway({"q": [1, 0]})
        weights = seed("q", graph, n_seeds=99, gateway=gw)
        assert len(weights) == 2

    def test_hand_computed_normalization(self):
        # sims: a=1.0, b=0.0, c=0.6 -> min(0, 0.0)=0 shift -> weights s/sum
        table = {"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [0.6, 0.8]}
        graph = toy_graph_with_embeddings(table)
        gw = FakeEmbedGateway({"q": [1.0, 0.0]})
        weights = seed("q", graph, n_seeds=3, gateway=gw)
        total = 1.0 + 0.0 + 0.6
        assert weights["p:a"] == pytest.approx(1.0 / total, abs=1e-6)
        assert weights["p:b"] == pytest.approx(0.0, abs=1e-6)
        assert weights["p:c"] == pytest.approx(0.6 / total, abs=1e-6)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_negative_similarities_shifted_nonnegative(self):
        table = {"a": [1.0, 0.0], "b": [-1.0, 0.0]}
        graph = toy_graph_with_embeddings(table)
        gw = FakeEmbedGateway({"q": [1.0, 0.0]})
        weights = seed("q", graph, n_seeds=2, gateway=gw)
        assert all(w >= 0 for w in weights.values())
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_empty_index_rejected(self):
        graph = SpecGraph(embeddings=EmbeddingIndex([], np.zeros((0, 0), dtype=np.float32),
                                                    "fake"))
        gw = FakeEmbedGateway({"q": [1.0]})
        with pytest.raises(EmptyGraph):
            seed("q", graph, 3, gw)

    def test_other_embedding_model_rejected(self):
        # vectors of two models never compare, even at equal dimension
        graph = toy_graph_with_embeddings({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        gw = FakeEmbedGateway({"q": [1.0, 0.0]}, model="renamed")
        with pytest.raises(InvalidInput, match="'fake'.*'renamed'"):
            seed("q", graph, 2, gw)

    def test_other_dimension_rejected(self):
        graph = toy_graph_with_embeddings({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        gw = FakeEmbedGateway({"q": [1.0, 0.0, 0.0]})
        with pytest.raises(InvalidInput, match="3 dimensions, the graph's have 2"):
            seed("q", graph, 2, gw)


class TestPagerankCore:
    def test_singleton_scores_one(self):
        scores = pagerank_scores(1, [], np.array([1.0]))
        assert scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_two_node_half_half(self):
        edges = [(0, 1, 1.0), (1, 0, 1.0)]
        scores = pagerank_scores(2, edges, np.array([0.5, 0.5]))
        assert scores[0] == pytest.approx(0.5, abs=1e-9)
        assert scores[1] == pytest.approx(0.5, abs=1e-9)

    def test_mass_conserved_with_dangling_nodes(self):
        edges = [(0, 1, 1.0)]  # node 1 dangles
        p = np.array([0.7, 0.3])
        scores = pagerank_scores(2, edges, p)
        assert scores.sum() == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_oracle_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 21))
            density = rng.uniform(0.05, 0.4)
            edges = [(i, j, float(rng.uniform(0.5, 2.0)))
                     for i in range(n) for j in range(n)
                     if i != j and rng.random() < density]
            p = rng.uniform(0.0, 1.0, n)
            p = p / p.sum()
            sparse = pagerank_scores(n, edges, p, damping=0.85)
            dense = dense_pagerank(n, edges, p, 0.85)
            assert np.abs(sparse - dense).sum() < 1e-6

    @pytest.mark.parametrize("damping", [0.5, 0.85, 0.95])
    def test_truncation_within_bound_of_converged_oracle(self, damping):
        # x = p starts within L1 distance 2 of the fixed point and each step
        # contracts by d, so k steps leave at most 2·dᵏ.
        steps = walk_steps(damping)
        assert damping ** steps <= 1e-7 < damping ** (steps - 1)
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 21))
            edges = random_multigraph(rng, n, unit=False)
            p = np.zeros(n)
            p[int(rng.integers(n))] = 1.0  # a sole seed: a start far from the fixed point
            ours = pagerank_scores(n, edges, p, damping)
            converged = dense_pagerank(n, edges, p, damping)
            assert np.abs(ours - converged).sum() <= 2 * damping ** steps

    @pytest.mark.parametrize("damping, steps", [(0.85, 100), (0.5, 24), (0.95, 315)])
    def test_step_count_set_by_damping(self, monkeypatch, damping, steps):
        calls = []
        step = retrieval.Walk.step
        monkeypatch.setattr(retrieval.Walk, "step",
                            lambda walk, x: calls.append(1) or step(walk, x))
        pagerank_scores(3, [(0, 1, 1.0), (1, 2, 1.0)], np.full(3, 1 / 3), damping)
        assert len(calls) == steps == walk_steps(damping)

    def test_matches_networkx_when_available(self):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            edges = [(i, j, float(rng.uniform(0.5, 2.0)))
                     for i in range(n) for j in range(n)
                     if i != j and rng.random() < 0.3]
            p = rng.uniform(0.1, 1.0, n)
            p = p / p.sum()
            ours = pagerank_scores(n, edges, p, damping=0.85)
            g = nx.DiGraph()
            g.add_nodes_from(range(n))
            for i, j, w in edges:
                g.add_edge(i, j, weight=w)
            # networkx's Google matrix, iterated densely for as many steps
            google = nx.google_matrix(g, alpha=0.85, weight="weight",
                                      personalization={i: p[i] for i in range(n)})
            theirs = p.copy()
            for _ in range(walk_steps(0.85)):
                theirs = theirs @ google
            assert np.abs(ours - theirs).sum() < 1e-9

    def test_step_matches_scipy_matvec(self):
        # on a vector and on each column of a matrix, as the table walks them
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(13)
        for trial in range(60):
            n = int(rng.integers(1, 30))
            edges = random_multigraph(rng, n, unit=trial % 2 == 0)
            walk = retrieval.build_walk(n, edges)
            transition = sp.csr_matrix((walk.prob, (walk.src, walk.dst)), shape=(n, n))
            for shape in ((n,), (n, 1), (n, 5)):
                x = rng.uniform(0.0, 1.0, shape)
                np.testing.assert_allclose(walk.step(x), transition.T @ x,
                                           rtol=1e-13, atol=1e-15)

    def test_walk_matches_the_scipy_construction(self):
        # The transition matrix as scipy builds it: parallel edges merged by a
        # CSR conversion, rows scaled by their inverse out-weight. Unit weights,
        # as every graph walk has, add exactly in any order; other weights may
        # differ in the last bits, as the merge and the row sums add in
        # different orders.
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(1, 30))
            unit = trial % 2 == 0
            edges = random_multigraph(rng, n, unit)
            walk = retrieval.build_walk(n, edges)
            adj = sp.csr_matrix(([e[2] for e in edges],
                                 ([e[0] for e in edges], [e[1] for e in edges])),
                                shape=(n, n))
            out_weight = np.asarray(adj.sum(axis=1)).ravel()
            inv = np.zeros(n)
            inv[out_weight > 0] = 1.0 / out_weight[out_weight > 0]
            theirs = (sp.diags(inv) @ adj).toarray()
            ours = sp.csr_matrix((walk.prob, (walk.src, walk.dst)), shape=(n, n)).toarray()
            if unit:
                assert ours.tobytes() == theirs.tobytes()
            else:
                np.testing.assert_allclose(ours, theirs, rtol=1e-14, atol=0)
            assert walk.dangling.tolist() == np.flatnonzero(out_weight == 0).tolist()

    def test_invalid_personalization_rejected(self):
        with pytest.raises(InvalidInput):
            pagerank_scores(2, [], np.array([0.5, 0.2]))

    def test_ppr_weight_sum_tolerance_is_isclose(self, graph):
        # ppr's scalar test accepts exactly the sums np.isclose(total, 1.0) does
        a, b = sorted(graph.entities)[:2]
        for total, ok in [(1.0 + 9e-6, True), (1.0 - 9e-6, True), (1.0 + 2e-5, False),
                          (1.0 - 2e-5, False), (float("nan"), False),
                          (float("inf"), False)]:
            assert bool(np.isclose(total, 1.0)) is ok
            weights = {kgmod.entity_key(a): 0.5, kgmod.entity_key(b): total - 0.5}
            if ok:
                scores, _ = ppr(graph, weights, 0.85)
                assert scores.shape == (len(graph.passages),)
            else:
                with pytest.raises(InvalidInput):
                    ppr(graph, weights, 0.85)

    def test_damping_bounded_above(self, monkeypatch):
        # 0.99 (1,604 steps) is the largest damping taken; the step count grows
        # as 1 / (1 - d), so larger ones are refused before the walk starts
        assert walk_steps(retrieval.MAX_DAMPING) == 1604

        class Started(Exception):
            pass

        def step(walk, x):
            raise Started

        monkeypatch.setattr(retrieval.Walk, "step", step)
        walk = retrieval.build_walk(2, [])
        p = np.array([0.5, 0.5])
        with pytest.raises(Started):
            retrieval.walk_scores(walk, p, 0.99)
        for damping in (0.995, 1 - 1e-12):
            with pytest.raises(InvalidInput, match="damping"):
                retrieval.walk_scores(walk, p, damping)

    def test_params_validation(self):
        # damping outside (0, 0.99] and seed weights that are no distribution
        for damping in (0.0, 1.0, 1.5):
            with pytest.raises(InvalidInput):
                pagerank_scores(2, [], np.array([0.5, 0.5]), damping)
        graph = SpecGraph(passages=stub_passages("a", "b"))
        for weights in ({"p:a": 0.4, "p:b": 0.4}, {"p:a": -0.5, "p:b": 1.5}):
            with pytest.raises(InvalidInput):
                ppr(graph, weights, 0.85)


def components_oracle(n, edges):
    """Each node's weakly connected component, by breadth-first search over the
    edges taken both ways, labelled by its least node."""
    neighbours = [set() for _ in range(n)]
    for i, j, _ in edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    label = [-1] * n
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start], frontier = start, [start]
        while frontier:
            reached = {j for i in frontier for j in neighbours[i] if label[j] < 0}
            for j in reached:
                label[j] = start
            frontier = list(reached)
    return label


def isolated_seed_graph(rng):
    """Weighted directed edges among some nodes, which fall into several
    components with directed dangling nodes, and 3 to 11 isolated nodes, three
    or more of them seeded: every isolated seed adds to the dangling mass."""
    n_isolated, n_linked = int(rng.integers(3, 12)), int(rng.integers(2, 30))
    n = n_isolated + n_linked
    nodes = rng.permutation(n)
    isolated, linked = nodes[:n_isolated], nodes[n_isolated:]
    edges = [(int(i), int(j), float(rng.uniform(0.1, 2.0)))
             for i, j in (rng.choice(linked, 2) for _ in range(int(rng.integers(0, 2 * n_linked))))]
    seeds = np.concatenate([
        rng.choice(isolated, int(rng.integers(3, n_isolated + 1)), replace=False),
        rng.choice(linked, int(rng.integers(0, 3)), replace=False)])
    p = np.zeros(n)
    p[seeds] = rng.uniform(0.01, 1.0, seeds.size)
    return n, edges, p / p.sum()


class TestComponentWalk:
    """A walk's components, and the table walks that run over some of them."""

    def test_components_match_breadth_first_search(self):
        rng = np.random.default_rng(19)
        for trial in range(100):
            n, edges, _ = isolated_seed_graph(rng)
            walk = retrieval.build_walk(n, edges)
            assert walk.component.tolist() == components_oracle(n, edges)

    def test_nodes_outside_the_seeds_components_score_zero(self):
        rng = np.random.default_rng(29)
        checked = 0
        for _ in range(100):
            n, edges, p = isolated_seed_graph(rng)
            label = components_oracle(n, edges)
            seeded = {label[i] for i in np.flatnonzero(p)}
            outside = [i for i in range(n) if label[i] not in seeded]
            scores = pagerank_scores(n, edges, p, 0.85)
            assert all(scores[i] == 0.0 for i in outside)
            assert scores.sum() == pytest.approx(1.0, abs=1e-12)
            checked += len(outside)
        assert checked > 500

    @pytest.fixture
    def step_shapes(self, monkeypatch):
        """The shape of every matrix or vector ``Walk.step`` is given."""
        shapes = []
        step = retrieval.Walk.step
        monkeypatch.setattr(retrieval.Walk, "step",
                            lambda walk, x: shapes.append(x.shape) or step(walk, x))
        return shapes

    def test_steps_touch_only_the_seeds_components(self, step_shapes):
        # The table walks TABLE_CHUNK passages at a time, each chunk over the
        # components of its passages alone: here paths of 3 to 30 nodes in
        # shuffled order and isolated nodes, 70 of the 90 nodes passages.
        rng = np.random.default_rng(41)
        n, nodes, edges = 90, rng.permutation(90), []
        start = 0
        while start < n:
            size = int(rng.choice([1, 3, 30]))
            path = nodes[start:start + size].tolist()
            edges += [e for i, j in zip(path, path[1:]) for e in ((i, j, 1.0), (j, i, 1.0))]
            start += size
        walk = retrieval.build_walk(n, edges)
        retrieval.build_passage_table(walk, slice(10, 80), 0.85)
        # the columns, as the table orders them: by component, then by id
        passages = np.arange(10, 80)
        columns = passages[np.argsort(walk.component[passages], kind="stable")]
        chunks = [columns[i:i + retrieval.TABLE_CHUNK]
                  for i in range(0, columns.size, retrieval.TABLE_CHUNK)]
        expected = []
        for chunk in chunks:
            rows = int(np.isin(walk.component, walk.component[chunk]).sum())
            assert rows < n
            expected += [(rows, chunk.size)] * walk_steps(0.85)
        assert step_shapes == expected
        assert [c.size for c in chunks] == [32, 32, 6] and retrieval.TABLE_CHUNK == 32

    def test_uniform_personalization_walks_the_whole_graph(self, graph):
        # No seed weight: every node seeds with weight 1/n, isolated ones too.
        scores, _ = ppr(graph, {}, 0.85)
        assert np.all(scores > 0)
        oracle = whole_walk_ppr(graph, {}, 0.85)
        gw = retrieval.graph_walk(graph)
        if mixes_dangling(gw.walk, range(len(gw.keys)), np.ones(len(gw.keys))):
            assert np.abs(scores - oracle).sum() <= 4 * 0.85 ** walk_steps(0.85)
        else:
            assert np.abs(scores - oracle).sum() < 1e-12


class TestPassageTable:
    """The table against ``pagerank_scores``, the oracle, on random graphs
    whose every edge goes both ways."""

    @staticmethod
    def cases(seed):
        """Random graphs, each with a passage slice and personalizations as
        (nodes, weights): sole seeds everywhere, several linked seeds, the
        isolated seeds alone, and the uniform one."""
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(2, 26))
            edges, isolated = bidirectional_multigraph(rng, n)
            a = int(rng.integers(0, n))
            passages = slice(a, int(rng.integers(a + 1, n + 1)))
            linked = np.setdiff1d(np.arange(n), isolated)
            seeds = rng.choice(linked, int(rng.integers(1, linked.size + 1)), replace=False)
            personalizations = [([i], [1.0]) for i in range(n)]
            for group in (seeds, isolated):
                personalizations.append((group.tolist(),
                                         rng.dirichlet(np.ones(group.size)).tolist()))
            personalizations.append((list(range(n)), [1.0 / n] * n))
            yield n, edges, passages, personalizations

    @pytest.mark.parametrize("damping", [0.1, 0.5, 0.85])
    def test_rows_match_pagerank_scores(self, damping):
        checked = 0
        for n, edges, passages, personalizations in self.cases(31):
            walk = retrieval.build_walk(n, edges)
            table = retrieval.build_passage_table(walk, passages, damping)
            for nodes, weights in personalizations:
                p = np.zeros(n)
                p[nodes] = weights
                oracle = pagerank_scores(n, edges, p, damping)[passages]
                ours = table.scores(nodes, weights)
                if mixes_dangling(walk, nodes, weights):
                    # the hand-back's closed form against a truncated walk: both
                    # lie within 2·dᵏ of the fixed point
                    assert np.abs(ours - oracle).sum() <= 4 * damping ** walk_steps(damping)
                    converged = dense_pagerank(n, edges, p, damping)[passages]
                    assert np.abs(ours - converged).sum() <= 2 * damping ** walk_steps(damping)
                else:
                    assert np.abs(ours - oracle).sum() < 1e-12
                    checked += 1
        assert checked > 500

    def test_isolated_passages_keep_their_weight(self):
        # every seed isolated: the hand-back returns all of the mass
        walk = retrieval.build_walk(4, [(0, 1, 1.0), (1, 0, 1.0)])
        table = retrieval.build_passage_table(walk, slice(1, 4), 0.85)
        assert table.scores([2, 3], [0.25, 0.75]).tolist() == [0.0, 0.25, 0.75]

    def test_size_is_nodes_by_passages_per_component(self):
        for n, edges, passages, _ in self.cases(37):
            walk = retrieval.build_walk(n, edges)
            table = retrieval.build_passage_table(walk, passages, 0.85)
            label = walk.component
            sizes = np.bincount(label, minlength=n)
            per = np.bincount(label[passages], minlength=n)
            assert table.nbytes == 8 * int(np.sum(sizes * per))


def dict_rank_passages(ids, scores):
    """The ranking rule written as a sort of (id, score) items, by score
    rounded to 12 decimals, descending, then id: the oracle for rank_passages."""
    return sorted(zip(ids, scores.tolist()), key=lambda kv: (-round(kv[1], 12), kv[0]))


def whole_walk_ppr(kg, seed_weights, damping):
    """``ppr``'s scores the slow way: ``pagerank_scores`` over a new
    bidirectional edge list of the whole graph, at the passages, in id order."""
    keys = kg.all_node_keys()
    index = {key: i for i, key in enumerate(keys)}
    edges = []
    for edge in kg.edges:
        if edge.src in index and edge.dst in index:
            i, j = index[edge.src], index[edge.dst]
            edges += [(i, j, 1.0), (j, i, 1.0)]
    p = np.zeros(len(keys))
    for key, weight in seed_weights.items():
        p[index[key]] = weight
    if p.sum() <= 0:
        p[:] = 1.0 / len(keys)
    scores = pagerank_scores(len(keys), edges, p, damping)
    return scores[[i for i, key in enumerate(keys) if key.startswith("p:")]]


class TestPPROverGraph:
    def test_scores_come_per_passage_in_id_order(self, graph):
        keys = graph.all_node_keys()
        scores, converged = ppr(graph, {keys[0]: 1.0}, 0.85)
        assert converged is True  # always: perfbench's spans read it
        assert scores.shape == (len(graph.passages),) and scores.dtype == np.float64
        assert np.abs(scores - whole_walk_ppr(graph, {keys[0]: 1.0}, 0.85)).sum() < 1e-12

    def test_rank_passages_orders_by_score_then_id(self):
        graph = SpecGraph(passages=stub_passages("b", "a", "c", "d"), entities={"x"})
        assert retrieval.graph_walk(graph).passage_ids == ["a", "b", "c", "d"]
        # b and d differ from a only below the 12th decimal: all three tie
        scores = np.array([0.5, 0.5 + 3e-14, 0.9, 0.5 - 2e-14])
        assert rank_passages(graph, scores, 4) == [("c", 0.9), ("a", 0.5),
                                                   ("b", 0.5 + 3e-14), ("d", 0.5 - 2e-14)]
        assert rank_passages(graph, scores, 2) == [("c", 0.9), ("a", 0.5)]
        scores[1] += 1e-11  # now above the rounding: b leads the three
        assert [pid for pid, _ in rank_passages(graph, scores, 4)] == ["c", "b", "a", "d"]

    @pytest.mark.parametrize("damping", [0.5, 0.85])
    def test_ranking_matches_the_dict_sort_for_every_sole_seed(self, graph, damping, run_cfg):
        # the table's ranking, and that of pagerank_scores under the same rule
        ids = sorted(graph.passages)
        n = len(ids)
        cuts = [1, run_cfg.retrieval.k0, run_cfg.retrieval.k_max, n, n + 1]
        for key in graph.all_node_keys():
            scores, _ = ppr(graph, {key: 1.0}, damping)
            oracle = dict_rank_passages(ids, scores)
            slow = dict_rank_passages(ids, whole_walk_ppr(graph, {key: 1.0}, damping))
            for k in cuts:
                assert rank_passages(graph, scores, k) == oracle[:k]
                assert [pid for pid, _ in oracle[:k]] == [pid for pid, _ in slow[:k]]

    def test_manual_retrievals_rank_as_the_whole_walk(self, offline_gateway, run_cfg,
                                                       monkeypatch):
        # every PageRank the questions of a 30-block manual ask for: the
        # table's top k_max is that of walk_scores over the whole graph
        manual = load_manual_module().generate(0, 30)
        graph = kgmod.build_from_corpus(
            ingest_document(offline_gateway, manual.text, "regmanual"), offline_gateway)
        calls = []
        table_ppr = retrieval.ppr
        monkeypatch.setattr(retrieval, "ppr", lambda kg, weights, damping: calls.append(
            (dict(weights), damping)) or table_ppr(kg, weights, damping))
        for question in manual.questions:
            reasoning.run(question.question, graph, offline_gateway, run_cfg)
        k = run_cfg.retrieval.k_max
        for weights, damping in calls:
            scores, _ = table_ppr(graph, weights, damping)
            slow = whole_walk_ppr(graph, weights, damping)
            assert ([pid for pid, _ in rank_passages(graph, scores, k)]
                    == [pid for pid, _ in rank_passages(graph, slow, k)])
        assert len(calls) > len(manual.questions)


def stub_passages(*pids):
    """Passages whose text is their id, by id."""
    return {pid: Passage(passage_id=pid, doc_id="t", section_path=[], text=pid,
                         sentence_spans=[], token_estimate=1) for pid in pids}


@st.composite
def small_graphs(draw):
    """Graphs with isolated nodes, repeated and self edges, edges to missing
    nodes, and sometimes no edges at all."""
    entities = draw(st.lists(st.sampled_from("abcdefg"), max_size=6))
    passages = stub_passages(*draw(st.lists(st.sampled_from(["p1", "p2", "p10", "q"]),
                                            max_size=4)))
    keys = SpecGraph(passages=passages, entities=entities).all_node_keys()
    endpoints = st.sampled_from(keys + ["e:missing"]) if keys else st.just("e:missing")
    edges = draw(st.lists(st.builds(Edge, st.just("mention"), endpoints, endpoints),
                          max_size=12))
    return SpecGraph(passages=passages, entities=entities, edges=edges)


def assert_matches_whole_walk(graph, weights, damping):
    """``ppr`` against ``whole_walk_ppr``: within 1e-12, or within the
    truncation bound where the personalization mixes dangling and other nodes."""
    ours, _ = ppr(graph, weights, damping)
    oracle = whole_walk_ppr(graph, weights, damping)
    gw = retrieval.graph_walk(graph)
    nodes = [gw.index[key] for key in weights] or range(len(gw.keys))
    mass = list(weights.values()) or np.ones(len(gw.keys))
    bound = (4 * damping ** walk_steps(damping) if mixes_dangling(gw.walk, nodes, mass)
             else 1e-12)
    assert np.abs(ours - oracle).sum() <= bound
    return ours


class TestCachedWalk:
    """``ppr`` reuses the graph's walk and passage tables; its scores must be
    those of a walk over the whole graph built anew."""

    @pytest.mark.parametrize("damping", [0.1, 0.5, 0.85])
    def test_every_sole_seed_matches_uncached(self, graph, damping):
        for key in graph.all_node_keys():
            ours, _ = ppr(graph, {key: 1.0}, damping)
            assert np.abs(ours - whole_walk_ppr(graph, {key: 1.0}, damping)).sum() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(small_graphs(), st.data())
    def test_drawn_graphs_match_uncached(self, graph, data):
        keys = graph.all_node_keys()
        if not keys:
            with pytest.raises(EmptyGraph):
                ppr(graph, {}, 0.85)
            return
        seeds = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=3))
        raw = [data.draw(st.floats(0.01, 1.0)) for _ in seeds]
        weights = {key: w / sum(raw) for key, w in zip(seeds, raw)}
        for damping in (0.85, 0.1):
            first = assert_matches_whole_walk(graph, weights, damping)
            assert ppr(graph, weights, damping)[0].tobytes() == first.tobytes()

    def test_nodeless_graph_raises(self):
        graph = SpecGraph(edges=[Edge("mention", "e:a", "p:b")])
        with pytest.raises(EmptyGraph):
            ppr(graph, {}, 0.85)

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(retrieval, name)
        monkeypatch.setattr(retrieval, name, lambda *args: calls.append(args) or real(*args))
        return calls

    def test_retrievals_build_the_walk_once(self, graph, offline_gateway, run_cfg,
                                            tmp_path, monkeypatch):
        kgmod.save(graph, tmp_path)
        fresh = kgmod.load(tmp_path)
        builds = self.count_calls(monkeypatch, "build_walk")
        target = SemanticAnchor("declarative", "baud rate register")
        for query in ("What is the reset value of the baud rate register?",
                      "Which signal drives TX_READY?", "What does the FIFO do?"):
            retrieval.retrieve(query, target, fresh, offline_gateway, run_cfg)
        assert len(builds) == 1

    def test_retrievals_build_the_table_once_per_damping(self, graph, offline_gateway,
                                                         run_cfg, tmp_path, monkeypatch):
        # never when the store is built, saved or loaded: on the first PageRank
        tables = self.count_calls(monkeypatch, "build_passage_table")
        kgmod.save(graph, tmp_path)
        fresh = kgmod.load(tmp_path)
        assert tables == []
        target = SemanticAnchor("declarative", "baud rate register")
        for query in ("What is the reset value of the baud rate register?",
                      "Which signal drives TX_READY?", "What does the FIFO do?"):
            retrieval.retrieve(query, target, fresh, offline_gateway, run_cfg)
        assert [args[2] for args in tables] == [run_cfg.ppr.damping]
        for damping in (0.5, 0.85, 0.5):
            ppr(fresh, {"p:" + sorted(fresh.passages)[0]: 1.0}, damping)
        assert [args[2] for args in tables] == [run_cfg.ppr.damping, 0.5]

    def test_threads_sharing_a_graph_get_the_same_scores(self, graph, tmp_path):
        # with jobs > 1 threads share one graph: two that find no table at
        # once each build one, and every score is the one thread's
        kgmod.save(graph, tmp_path)
        fresh = kgmod.load(tmp_path)
        calls = [({key: 1.0}, damping) for key in graph.all_node_keys()[::7]
                 for damping in (0.85, 0.5)]
        expected = [ppr(graph, *call)[0].tobytes() for call in calls]
        results, errors = [], []

        def worker(shift):
            try:
                for i in range(len(calls)):
                    j = (i + shift) % len(calls)
                    results.append((j, ppr(fresh, *calls[j])[0].tobytes()))
            except Exception as exc:  # reported below, in the test's own thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k * 5,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(results) == 6 * len(calls)
        assert all(reply == expected[j] for j, reply in results)
        assert sorted(retrieval.graph_walk(fresh).tables) == [0.5, 0.85]

    def test_changed_graph_gets_a_new_walk(self, monkeypatch):
        # apply_normalization returns a new graph: it gets its own walk and
        # table, and the graph it came from keeps its own
        tables = self.count_calls(monkeypatch, "build_passage_table")
        graph = SpecGraph(passages=stub_passages("p1", "p2", "p3"),
                          entities={"ctrl reg", "ctrl register", "fsm"},
                          edges=[Edge("alias", "e:ctrl reg", "e:ctrl register"),
                                 Edge("mention", "e:ctrl reg", "p:p1"),
                                 Edge("mention", "e:ctrl register", "p:p2"),
                                 Edge("mention", "e:fsm", "p:p3")])
        params = ({"p:p1": 1.0}, 0.85)
        before = assert_matches_whole_walk(graph, *params)
        walk = retrieval.graph_walk(graph)
        assert len(tables) == 1

        merged = kgmod.apply_normalization(graph)
        after_merge = assert_matches_whole_walk(merged, *params)
        assert np.abs(after_merge - before).sum() > 1e-3
        assert retrieval.graph_walk(merged) is not walk
        assert list(retrieval.graph_walk(merged).tables) == [0.85]
        assert len(tables) == 2

        assert retrieval.graph_walk(graph) is walk and list(walk.tables) == [0.85]
        assert ppr(graph, *params)[0].tobytes() == before.tobytes()
        assert len(tables) == 2

    def test_walks_do_not_keep_graphs_alive(self):
        graph = SpecGraph(passages=stub_passages("p1", "p2"), entities={"a"},
                          edges=[Edge("mention", "e:a", "p:p1")])
        ppr(graph, {"p:p1": 1.0}, 0.85)
        alive = weakref.ref(graph)
        del graph
        gc.collect()
        assert alive() is None

    def test_interchangeable_passages_tie_exactly(self):
        # A star seeded at its centre: every passage is the same distance from
        # the seed, so their scores agree to the rounding rank_passages applies,
        # and it orders them by id.
        ids = ["7", "12", "3", "10", "1", "25", "4"]
        graph = SpecGraph(passages=stub_passages(*ids), entities={"hub", "leaf"},
                          edges=[Edge("mention", "e:hub", f"p:{pid}") for pid in ids]
                          + [Edge("mention", "e:leaf", "p:7"),
                             Edge("mention", "e:leaf", "p:12")])
        for damping in (0.5, 0.85):
            scores, _ = ppr(graph, {"e:hub": 1.0}, damping)
            ranked = rank_passages(graph, scores, len(ids))
            score = dict(zip(sorted(ids), np.round(scores, 12).tolist()))
            tied = [pid for pid in ids if pid not in ("7", "12")]
            assert len({score[pid] for pid in tied}) == 1
            assert score["7"] == score["12"] > score["1"]
            assert [pid for pid, _ in ranked] == ["12", "7"] + sorted(tied)


def test_pipeline_runs_without_scipy():
    # A fresh interpreter imports the CLI and runs one PageRank over the
    # fixture graph; no scipy module may load on the way.
    code = f"""
import sys
import speckg.cli
from speckg import kg, retrieval
from speckg.gateway import Gateway
from speckg.ingest import ingest_document
from speckg.offline import OfflineModel
gw = Gateway(provider=OfflineModel(), mode="live",
             chat_model="offline-chat", embedding_model="offline-embed")
doc = open({str(SPEC_DOC)!r}, encoding="utf-8").read()
graph = kg.build_from_corpus(ingest_document(gw, doc, "serial_link_spec"), gw)
scores, _ = retrieval.ppr(graph, {{graph.all_node_keys()[0]: 1.0}}, 0.85)
assert len(scores) == len(graph.passages)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = Path(retrieval.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestAdaptiveExpand:
    def make_round(self, n=40):
        return RetrievalRound(
            sub_query="q", target_anchor=SemanticAnchor("declarative", "x"),
            ranked=[(f"p{i:02d}", 1.0 - i * 0.01) for i in range(n)],
        )

    @staticmethod
    def scripted(summaries_gains):
        """Return (summarize, embed) where embed distances follow the script:
        summaries_gains[t] is the gain for expansion attempt t."""
        script = {"t": 0}

        def summarize(query, ids, cuts):
            return ["|".join(ids[:n]) for n in cuts]

        def embed(texts):
            return texts

        def gain(base, new):
            g = summaries_gains[script["t"]] if script["t"] < len(summaries_gains) else 0.0
            script["t"] += 1
            return g

        return summarize, embed, gain

    def run_expand(self, gains, tau=0.05, k0=5, delta_k=5, k_max=50, n=40):
        rnd = self.make_round(n)
        summarize, embed, gain = self.scripted(gains)
        real_marginal = retrieval.marginal_gain
        retrieval.marginal_gain = lambda a, b: gain(a, b)
        try:
            adaptive_expand(rnd, tau, k0, delta_k, k_max, summarize, embed)
        finally:
            retrieval.marginal_gain = real_marginal
        return rnd

    def test_identical_summaries_terminate_with_k0(self):
        rnd = self.make_round()
        summarize = lambda q, ids, cuts: ["same summary every time"] * len(cuts)
        embedded = []

        def embed(texts):
            embedded.append(texts)
            return np.array([[1.0, 0.0]] * len(texts))

        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=50,
                        summarize=summarize, embed=embed)
        assert rnd.accepted == [f"p{i:02d}" for i in range(5)]
        assert rnd.mig_trace == [0.0]
        # the base and the expanded summary are one text: nothing is embedded
        assert embedded == []

    def test_later_round_with_the_accepted_summary_embeds_nothing(self):
        rnd = self.make_round()
        # the summaries stop changing after the tenth passage
        summarize = lambda q, ids, cuts: [f"summary of {min(n, 10)}" for n in cuts]
        embedded = []

        def embed(texts):
            embedded.append(texts)
            return np.eye(2)[[int(t == "summary of 10") for t in texts]]

        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=50,
                        summarize=summarize, embed=embed)
        assert rnd.accepted == [f"p{i:02d}" for i in range(10)]
        assert rnd.mig_trace == [1.0, 0.0]
        assert embedded == [["summary of 5", "summary of 10"]]

    # A unit vector whose dot product with itself is 1 - 1.1e-16 in float64.
    NOISY = np.array([[0.4472135954999579, 0.8944271909999159]])

    @pytest.mark.parametrize("unchanged_from", [1, 2])
    def test_tau_zero_stops_on_an_unchanged_summary(self, unchanged_from):
        # Embedding an unchanged summary twice gave a gain of float noise, which
        # tau = 0 accepted; a summary equal to its base has gain 0.0 and stops.
        assert marginal_gain(self.NOISY[0], self.NOISY[0]) == 1.1102230246251565e-16
        rnd = self.make_round()
        last = 5 if unchanged_from == 1 else 10
        summarize = lambda q, ids, cuts: [f"summary of {min(n, last)}" for n in cuts]

        def embed(texts):
            # the first round's two summaries differ when unchanged_from is 2
            return np.vstack([self.NOISY if t == f"summary of {last}" else [[1.0, 0.0]]
                              for t in texts])

        adaptive_expand(rnd, tau=0.0, k0=5, delta_k=5, k_max=50,
                        summarize=summarize, embed=embed)
        assert len(rnd.accepted) == last
        assert rnd.mig_trace[-1] == 0.0
        assert len(rnd.mig_trace) == unchanged_from

    def test_exactly_n_highgain_rounds_accepted(self):
        rnd = self.run_expand([0.5, 0.5, 0.0])
        # two accepted expansions then a zero-gain round: |S| = k0 + 2*delta_k
        assert len(rnd.accepted) == 5 + 2 * 5
        assert len(rnd.mig_trace) == 3

    def test_kmax_equal_k0_returns_immediately(self):
        rnd = self.make_round()
        called = {"n": 0}

        def summarize(q, ids, cuts):
            called["n"] += 1
            return ["s"] * len(cuts)

        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=5,
                        summarize=summarize, embed=lambda texts: np.ones((len(texts), 1)))
        assert len(rnd.accepted) == 5
        assert rnd.mig_trace == []
        assert called["n"] == 0

    def test_hard_stop_never_exceeds_kmax(self):
        rnd = self.run_expand([0.5] * 100, k_max=12)
        assert len(rnd.accepted) == 12

    def test_candidates_exhausted_stops(self):
        rnd = self.run_expand([0.5] * 100, n=8)
        assert len(rnd.accepted) == 8

    def test_monotonicity_growth_iff_gain_above_tau(self):
        gains = [0.5, 0.01, 0.7]
        rnd = self.run_expand(gains, tau=0.05)
        # second attempt fails the threshold, loop stops there
        assert len(rnd.mig_trace) == 2
        assert len(rnd.accepted) == 5 + 5

    def test_round_bound(self):
        k0, delta_k, k_max = 5, 5, 50
        rnd = self.run_expand([0.5] * 100, k0=k0, delta_k=delta_k, k_max=k_max, n=100)
        import math
        assert len(rnd.mig_trace) <= math.ceil((k_max - k0) / delta_k) + 1

    def test_summarizer_failure_aborts_with_warning(self):
        rnd = self.make_round()

        def summarize(q, ids, cuts):
            raise RuntimeError("model down")

        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=50,
                        summarize=summarize, embed=lambda texts: np.ones((len(texts), 1)))
        assert len(rnd.accepted) == 5
        assert rnd.warning is not None

    def test_fixture_miss_propagates(self):
        rnd = self.make_round()

        def summarize(q, ids, cuts):
            raise FixtureMiss("no fixture for task_tag='summarize'")

        with pytest.raises(FixtureMiss):
            adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=50,
                            summarize=summarize, embed=lambda texts: np.ones((len(texts), 1)))

    def test_fixture_miss_after_an_unchanged_summary_round_propagates(self):
        # a negative tau accepts round 1's unchanged summary unembedded; the
        # next round still cuts once, and its miss is not caught
        rnd = self.make_round()
        calls = []

        def summarize(q, ids, cuts):
            calls.append(cuts)
            if len(calls) == 2:
                raise FixtureMiss("no fixture for task_tag='summarize'")
            return ["one summary"] * len(cuts)

        with pytest.raises(FixtureMiss):
            adaptive_expand(rnd, tau=-1.0, k0=5, delta_k=5, k_max=50,
                            summarize=summarize, embed=lambda texts: np.ones((len(texts), 1)))
        assert calls == [[5, 10], [15]]

    @staticmethod
    def counting_doubles(fail_on_call=None):
        """Summarize/embed doubles that count their calls and embedded texts
        and keep each summarize request's size and cuts; every summary embeds
        to a fresh orthogonal vector, so every gain is 1."""
        calls = {"summarize": 0, "embed": 0, "embedded": 0, "requests": []}

        def summarize(q, ids, cuts):
            calls["summarize"] += 1
            calls["requests"].append((len(ids), cuts))
            if calls["summarize"] == fail_on_call:
                raise RuntimeError("model down")
            return [f"summary of {n}" for n in cuts]

        def embed(texts):
            calls["embed"] += 1
            vecs = np.zeros((len(texts), 64))
            for row in vecs:
                calls["embedded"] += 1
                row[calls["embedded"]] = 1.0
            return vecs

        return summarize, embed, calls

    def test_each_round_summarizes_and_embeds_once(self):
        rnd = self.make_round()
        summarize, embed, calls = self.counting_doubles()
        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=20,
                        summarize=summarize, embed=embed)
        assert len(rnd.mig_trace) == 3
        assert len(rnd.accepted) == 20
        # one request per round; the first also cuts after the k0 base
        assert calls == {"summarize": 3, "embed": 3, "embedded": 4,
                         "requests": [(10, [5, 10]), (15, [15]), (20, [20])]}

    def test_failure_after_first_round_keeps_accepted_set(self):
        rnd = self.make_round()
        # call 1 is round 1's, for the base and the increment; call 2 is round 2's
        summarize, embed, _ = self.counting_doubles(fail_on_call=2)
        adaptive_expand(rnd, tau=0.05, k0=5, delta_k=5, k_max=50,
                        summarize=summarize, embed=embed)
        assert rnd.accepted == [f"p{i:02d}" for i in range(10)]
        assert rnd.mig_trace == [1.0]
        assert rnd.warning is not None


class CountingGateway:
    """Delegates to a real gateway and records every embedded text."""

    def __init__(self, inner):
        self.inner = inner
        self.embedding_model = inner.embedding_model
        self.embedded = []

    def embed(self, texts):
        self.embedded.extend(texts)
        return self.inner.embed(texts)

    def chat(self, request):
        return self.inner.chat(request)


def test_retrieve_embeds_sub_query_once(graph, offline_gateway, run_cfg):
    gateway = CountingGateway(offline_gateway)
    query = "What is the reset value of the baud rate register?"
    retrieval.retrieve(query, SemanticAnchor("declarative", "baud rate register"),
                       graph, gateway, run_cfg)
    assert gateway.embedded.count(query) == 1


# Two expansion rounds on the fixture spec: the first accepts the increment
# (10 passages), the second stops on the threshold.
TWO_ROUND_QUERY = "What happens when the host writes to the TX_DATA register?"


class FaultySummaries(OfflineModel):
    """The offline model, with every summarize reply from the ``from_request``-th
    on corrupted by ``fault``; it counts the summarize requests it gets."""

    FAULTS = {
        "fewer": lambda reply: json.dumps({"summaries": json.loads(reply)["summaries"][:-1]}),
        "more": lambda reply: json.dumps({"summaries": json.loads(reply)["summaries"] * 2}),
        "invalid": lambda reply: json.dumps({"summaries": "one summary"}),
    }

    def __init__(self, fault, from_request):
        super().__init__()
        self.fault, self.from_request = self.FAULTS[fault], from_request
        self.requests = 0

    def chat(self, request, model):
        reply = super().chat(request, model)
        if request.task_tag != "summarize":
            return reply
        self.requests += 1
        return self.fault(reply) if self.requests >= self.from_request else reply


class TestMalformedSummaries:
    """A summarize reply with the wrong number of summaries, or still invalid
    after the gateway's repair, aborts the round with a warning and keeps the
    set accepted so far."""

    @pytest.mark.parametrize("fault", sorted(FaultySummaries.FAULTS))
    @pytest.mark.parametrize("from_request, accepted, rounds", [(1, 5, 0), (2, 10, 1)])
    def test_round_aborts_and_keeps_the_accepted_set(self, graph, offline_gateway, run_cfg,
                                                     fault, from_request, accepted, rounds):
        target = SemanticAnchor("procedural", "TX_DATA")
        good = retrieval.retrieve(TWO_ROUND_QUERY, target, graph, offline_gateway, run_cfg)
        assert len(good.accepted) == 10 and len(good.mig_trace) == 2
        model = FaultySummaries(fault, from_request)
        result = retrieval.retrieve(TWO_ROUND_QUERY, target, graph,
                                    make_offline_gateway(provider=model), run_cfg)
        assert result.accepted == good.accepted[:accepted]
        assert result.mig_trace == good.mig_trace[:rounds]
        assert result.warning.startswith("summarization failed: ")
        # an invalid reply is asked again once, with the error: the repair
        assert model.requests == from_request + (fault == "invalid")


class TestPerCutOracle:
    """One single-cut summarize request per cut, each summary embedded alone,
    is the oracle: a round's one request must accept the same passages with
    the same gains."""

    @staticmethod
    def per_cut(gateway, graph):
        def summarize(query, ids, cuts):
            summaries = []
            for n in cuts:
                payload = [{"passage_id": pid, "text": graph.passages[pid].text}
                           for pid in ids[:n]]
                [summary] = gateway.chat(prompts.summarize(query, payload, [n]))["summaries"]
                summaries.append(summary)
            return summaries

        def embed(texts):
            return np.vstack([gateway.embed([text]) for text in texts])

        return summarize, embed

    @pytest.mark.parametrize("source", ["fixture-spec", "manual-30"])
    def test_every_retrieval_matches_one_request_per_cut(self, source, graph, dataset,
                                                         offline_gateway, run_cfg):
        if source == "fixture-spec":
            questions = [item.question for item in dataset]
        else:
            manual = load_manual_module().generate(0, 30)
            graph = kgmod.build_from_corpus(
                ingest_document(offline_gateway, manual.text, "regmanual"), offline_gateway)
            questions = [q.question for q in manual.questions]
        summarize, embed = self.per_cut(offline_gateway, graph)
        cfg = run_cfg.retrieval
        rounds = [r for question in questions
                  for r in reasoning.run(question, graph, offline_gateway, run_cfg).retrieval_log]
        for r in rounds:
            # each round holds the top k_max passages only
            assert len(r.ranked) == min(cfg.k_max, len(graph.passages))
            oracle = RetrievalRound(sub_query=r.sub_query, target_anchor=r.target_anchor,
                                    ranked=r.ranked)
            adaptive_expand(oracle, cfg.tau, cfg.k0, cfg.delta_k, cfg.k_max, summarize, embed)
            assert (oracle.accepted, oracle.mig_trace) == (r.accepted, r.mig_trace)
        # later rounds, after an accepted first one, are among those checked
        assert any(len(r.mig_trace) > 1 for r in rounds)


class TestMarginalGain:
    def test_identical_embeddings_zero_within_1e9(self):
        v = np.array([0.6, 0.8])
        assert marginal_gain(v, v) <= 1e-9

    @given(st.lists(st.floats(-1, 1), min_size=4, max_size=4),
           st.lists(st.floats(-1, 1), min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_bounded_zero_two_for_unit_vectors(self, a, b):
        va, vb = np.array(a), np.array(b)
        if np.linalg.norm(va) < 1e-6 or np.linalg.norm(vb) < 1e-6:
            return
        va, vb = va / np.linalg.norm(va), vb / np.linalg.norm(vb)
        assert 0.0 <= marginal_gain(va, vb) <= 2.0


def anchor_compatible(candidate, target, kg):
    """The anchor filter's rule for one passage anchor, resolving both
    entities on every call: the oracle for ``csa_filter``."""
    if candidate is None:
        return True
    if candidate.anchor_type != target.anchor_type:
        return False
    return kg.resolve_entity(candidate.entity) == kg.resolve_entity(target.entity)


def per_candidate_filter(candidates, target, kg):
    """``csa_filter`` decided one candidate at a time by ``anchor_compatible``:
    an unknown id is removed, and an emptied set comes back bypassed."""
    kept, removed = [], []
    for pid in candidates:
        passage = kg.passages.get(pid)
        ok = passage is not None and anchor_compatible(passage.anchor, target, kg)
        (kept if ok else removed).append(pid)
    if not kept and removed:
        return list(candidates), [], True
    return kept, removed, False


def alias_chain_graph():
    """Anchored passages over an alias chain ``ctrl`` → ``ctrl reg`` → ``ctrl
    register``, with an unanchored passage."""
    anchors = {"ctrl": SemanticAnchor("procedural", "CTRL"),
               "ctrl-reg": SemanticAnchor("declarative", "the Ctrl Reg."),
               "ctrl-register": SemanticAnchor("procedural", "ctrl register"),
               "ctrl-register-decl": SemanticAnchor("declarative", "ctrl-register"),
               "fsm": SemanticAnchor("procedural", "tx fsm"),
               "unanchored": None}
    passages = {pid: Passage(passage_id=pid, doc_id="t", section_path=[], text=pid,
                             sentence_spans=[], token_estimate=1, anchor=anchor)
                for pid, anchor in anchors.items()}
    return SpecGraph(passages=passages, entities={"ctrl register", "tx fsm"},
                     alias_map={"ctrl": "ctrl reg", "ctrl reg": "ctrl register"})


def anchored_graph():
    anchors = {"proc-fsm": SemanticAnchor("procedural", "fsm"),
               "decl-fsm": SemanticAnchor("declarative", "fsm"),
               "proc-ctrl": SemanticAnchor("procedural", "ctrl register"),
               "proc-ctrl-alias": SemanticAnchor("procedural", "ctrl reg"),
               "unanchored": None}
    passages = {pid: Passage(passage_id=pid, doc_id="t", section_path=[], text=pid,
                             sentence_spans=[], token_estimate=1, anchor=anchor)
                for pid, anchor in anchors.items()}
    return SpecGraph(passages=passages, alias_map={"ctrl reg": "ctrl register"})


class TestAnchorFilter:
    def test_casefold_match_kept(self):
        graph = anchored_graph()
        result = csa_filter(["proc-fsm"], SemanticAnchor("procedural", "FSM"), graph)
        assert result.kept == ["proc-fsm"]
        assert not result.bypassed

    def test_type_mismatch_removed(self):
        graph = anchored_graph()
        result = csa_filter(["decl-fsm", "proc-fsm", "not-in-graph"],
                            SemanticAnchor("procedural", "fsm"), graph)
        assert result.kept == ["proc-fsm"]
        assert result.removed == ["decl-fsm", "not-in-graph"]

    def test_alias_resolution_matches_variants(self):
        graph = anchored_graph()
        result = csa_filter(["proc-ctrl-alias"],
                            SemanticAnchor("procedural", "CTRL register"), graph)
        assert result.kept == ["proc-ctrl-alias"]

    def test_unanchored_always_kept(self):
        graph = anchored_graph()
        result = csa_filter(["unanchored", "proc-fsm", "decl-fsm"],
                            SemanticAnchor("procedural", "fsm"), graph)
        assert result.kept == ["unanchored", "proc-fsm"]
        assert result.removed == ["decl-fsm"]

    def test_fail_open_when_everything_mismatches(self):
        graph = anchored_graph()
        result = csa_filter(["decl-fsm", "proc-ctrl"],
                            SemanticAnchor("procedural", "baud register"), graph)
        assert result.bypassed
        assert result.kept == ["decl-fsm", "proc-ctrl"]
        assert result.removed == []

    def test_filter_soundness_removed_provably_fail(self):
        graph = anchored_graph()
        target = SemanticAnchor("procedural", "fsm")
        result = csa_filter(list(graph.passages), target, graph)
        for pid in result.removed:
            anchor = graph.passages[pid].anchor
            assert not anchor_compatible(anchor, target, graph)
        for pid in result.kept:
            anchor = graph.passages[pid].anchor
            assert anchor_compatible(anchor, target, graph)

    def test_alias_chain_resolves_to_its_end(self):
        graph = alias_chain_graph()
        result = csa_filter(sorted(graph.passages), SemanticAnchor("procedural", "Ctrl Reg"),
                            graph)
        assert result.kept == ["ctrl", "ctrl-register", "unanchored"]
        assert result.removed == ["ctrl-reg", "ctrl-register-decl", "fsm"]

    @pytest.mark.parametrize("source", ["fixture-spec", "alias-chain"])
    def test_matches_the_per_candidate_oracle(self, source, graph):
        if source == "alias-chain":
            graph = alias_chain_graph()
        elif all(p.anchor is not None for p in graph.passages.values()):
            pytest.fail("the fixture graph has no unanchored passage")
        entities = set(graph.entities) | set(graph.alias_map)
        entities |= {p.anchor.entity for p in graph.passages.values() if p.anchor}
        # every entity, each with an other surface form, and one no alias resolves
        surfaces = sorted(entities) + [f"The {e.upper()}." for e in sorted(entities)]
        surfaces.append("no such entity")
        candidates = sorted(graph.passages) + ["not-in-graph", "p:also-unknown"]
        seen = {"kept": 0, "removed": 0, "bypassed": 0}
        for surface in surfaces:
            for anchor_type in ("declarative", "procedural"):
                target = SemanticAnchor(anchor_type, surface)
                for ids in [candidates, candidates[::-1]] + [[pid] for pid in candidates]:
                    result = csa_filter(ids, target, graph)
                    assert ((result.kept, result.removed, result.bypassed)
                            == per_candidate_filter(ids, target, graph))
                    seen["kept"] += bool(result.kept) and not result.bypassed
                    seen["removed"] += bool(result.removed)
                    seen["bypassed"] += result.bypassed
        assert all(seen.values())
