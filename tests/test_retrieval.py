import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckg import kg as kgmod
from speckg import retrieval
from speckg.errors import EmptyGraph, InvalidInput
from speckg.ingest import Passage, SemanticAnchor
from speckg.kg import Edge, EmbeddingIndex, SpecGraph
from speckg.retrieval import (RetrievalState, adaptive_expand, csa_filter,
                              marginal_gain, pagerank_scores, ppr, rank_passages,
                              seed)

from conftest import SPEC_DOC


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


def formula_pagerank(n, edges, p, damping):
    """The power iteration with each step written as its formula: the
    reference that pagerank_scores' in-place steps must match bit for bit."""
    walk = retrieval.build_walk(n, edges)
    dangling = np.zeros(n, dtype=bool)
    dangling[walk.dangling] = True
    x = p.copy()
    for _ in range(walk_steps(damping)):
        mass = float(x[dangling].sum())
        x = (1.0 - damping) * p + damping * (walk.step(x) + mass * p)
    return x


def random_multigraph(rng, n, unit):
    """Weighted (or unit-weight) directed edges in shuffled order, with self
    edges, up to three parallel copies of an edge, and dangling nodes."""
    edges = [(i, j, 1.0 if unit else float(rng.uniform(0.0, 2.0)))
             for i in range(n) for j in range(n) if rng.random() < 0.2
             for _ in range(int(rng.integers(1, 4)))]
    return [edges[k] for k in rng.permutation(len(edges))]


class FakeEmbedGateway:
    """Gateway double returning preset vectors for preset texts."""

    def __init__(self, table, model="fake"):
        self.table = {k: np.asarray(v, dtype=float) for k, v in table.items()}
        self.embedding_model = model

    def embed(self, texts):
        rows = [self.table[t] for t in texts]
        return np.array([row / np.linalg.norm(row) for row in rows])


def toy_graph_with_embeddings(table):
    graph = SpecGraph()
    keys, rows = [], []
    for key, vec in sorted(table.items()):
        pid = key
        graph.passages[pid] = Passage(passage_id=pid, doc_id="t", section_path=[],
                                      text=f"text of {pid}", sentence_spans=[],
                                      token_estimate=1)
        keys.append(f"p:{pid}")
        arr = np.asarray(vec, dtype=float)
        rows.append(arr / np.linalg.norm(arr))
    graph.embeddings = EmbeddingIndex(keys, np.stack(rows).astype(np.float32), "fake")
    return graph


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
        graph = SpecGraph()
        graph.embeddings = EmbeddingIndex([], np.zeros((0, 0), dtype=np.float32), "fake")
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

    def test_in_place_steps_match_the_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(1, 25))
            edges = [] if trial % 5 == 0 else random_multigraph(rng, n, unit=False)
            p = rng.uniform(0.0, 1.0, n)
            p = p / p.sum()
            for damping in (1e-9, 0.3, 0.85):  # 1, 14 and 100 steps
                ours = pagerank_scores(n, edges, p, damping)
                assert ours.tobytes() == formula_pagerank(n, edges, p, damping).tobytes()

    def test_step_matches_scipy_matvec_bit_for_bit(self):
        sp = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(13)
        for trial in range(60):
            n = int(rng.integers(1, 30))
            edges = random_multigraph(rng, n, unit=trial % 2 == 0)
            walk = retrieval.build_walk(n, edges)
            transition = sp.csr_matrix((walk.prob, (walk.src, walk.dst)), shape=(n, n))
            for _ in range(5):
                x = rng.uniform(0.0, 1.0, n)
                assert walk.step(x).tobytes() == (transition.T @ x).tobytes()

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
        graph = SpecGraph()
        add_passage(graph, "a")
        add_passage(graph, "b")
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
    """The walk runs over the seeds' components alone; its scores must be the
    whole walk's, bit for bit."""

    def test_components_match_breadth_first_search(self):
        rng = np.random.default_rng(19)
        for trial in range(100):
            n, edges, _ = isolated_seed_graph(rng)
            walk = retrieval.build_walk(n, edges)
            assert walk.component.tolist() == components_oracle(n, edges)

    @pytest.mark.parametrize("damping", [0.5, 0.85])
    def test_matches_the_whole_walk_bit_for_bit(self, damping):
        # Summing the dangling mass over the active nodes alone, instead of
        # over every dangling node in order, fails this on several graphs.
        rng = np.random.default_rng(23)
        for _ in range(150):
            n, edges, p = isolated_seed_graph(rng)
            ours = pagerank_scores(n, edges, p, damping)
            assert ours.tobytes() == formula_pagerank(n, edges, p, damping).tobytes()

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
    def step_sizes(self, monkeypatch):
        """The length of every vector ``Walk.step`` is given."""
        sizes = []
        step = retrieval.Walk.step
        monkeypatch.setattr(retrieval.Walk, "step",
                            lambda walk, x: sizes.append(x.size) or step(walk, x))
        return sizes

    def test_steps_touch_only_the_seeds_components(self, graph, step_sizes):
        gw = retrieval.graph_walk(graph)
        component = gw.walk.component
        for key in gw.keys:
            step_sizes.clear()
            ppr(graph, {key: 1.0}, 0.85)
            active = int(np.sum(component == component[gw.index[key]]))
            assert step_sizes == [active] * walk_steps(0.85)
            assert active < len(gw.keys)  # the fixture graph is not connected

    def test_uniform_personalization_walks_the_whole_graph(self, graph, step_sizes):
        scores, _ = ppr(graph, {}, 0.85)
        assert step_sizes == [len(graph.all_node_keys())] * walk_steps(0.85)
        assert np.all(scores > 0)


def dict_rank_passages(keys, scores):
    """The ranking as a dict over every node filtered to passages and sorted:
    the oracle for rank_passages."""
    by_key = dict(zip(keys, scores.tolist()))
    items = [(key[2:], score) for key, score in by_key.items() if key.startswith("p:")]
    return sorted(items, key=lambda kv: (-kv[1], kv[0]))


class TestPPROverGraph:
    def test_scores_sum_to_one(self, graph):
        keys = graph.all_node_keys()
        scores, converged = ppr(graph, {keys[0]: 1.0}, 0.85)
        assert converged is True  # always: perfbench's spans read it
        assert scores.shape == (len(keys),) and scores.dtype == np.float64
        assert scores.sum() == pytest.approx(1.0, abs=1e-8)

    def test_rank_passages_orders_by_score_then_id(self):
        graph = SpecGraph()
        graph.entities = {"x"}
        for pid in ("b", "a", "c"):
            add_passage(graph, pid)
        assert retrieval.graph_walk(graph).keys == ["e:x", "p:a", "p:b", "p:c"]
        ranked = rank_passages(graph, np.array([1.0, 0.5, 0.5, 0.9]))
        assert ranked == [("c", 0.9), ("a", 0.5), ("b", 0.5)]

    @pytest.mark.parametrize("damping", [0.5, 0.85])
    def test_ranking_matches_the_dict_sort_for_every_sole_seed(self, graph, damping):
        keys = retrieval.graph_walk(graph).keys
        for key in keys:
            scores, _ = ppr(graph, {key: 1.0}, damping)
            assert rank_passages(graph, scores) == dict_rank_passages(keys, scores)


def uncached_ppr(kg, seed_weights, damping):
    """``ppr`` from scratch: a new bidirectional edge list, walked whole by
    ``formula_pagerank``, components and all."""
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
    return formula_pagerank(len(keys), edges, p, damping), True


def as_bytes(result):
    """A ``ppr`` result with its scores as bytes, for exact comparison."""
    scores, converged = result
    return scores.tobytes(), converged


def add_passage(graph, pid):
    graph.passages[pid] = Passage(passage_id=pid, doc_id="t", section_path=[],
                                  text=pid, sentence_spans=[], token_estimate=1)


@st.composite
def small_graphs(draw):
    """Graphs with isolated nodes, repeated and self edges, edges to missing
    nodes, and sometimes no edges at all."""
    graph = SpecGraph()
    graph.entities = set(draw(st.lists(st.sampled_from("abcdefg"), max_size=6)))
    for pid in draw(st.lists(st.sampled_from(["p1", "p2", "p10", "q"]), max_size=4)):
        add_passage(graph, pid)
    keys = graph.all_node_keys()
    endpoints = st.sampled_from(keys + ["e:missing"]) if keys else st.just("e:missing")
    graph.edges = draw(st.lists(st.builds(Edge, st.just("mention"), endpoints, endpoints),
                                max_size=12))
    return graph


class TestCachedWalk:
    """``ppr`` reuses the graph's walk; its scores must be the uncached ones, bit for bit."""

    @pytest.mark.parametrize("damping", [0.5, 0.85])
    def test_every_sole_seed_matches_uncached(self, graph, damping):
        for key in graph.all_node_keys():
            assert (as_bytes(ppr(graph, {key: 1.0}, damping))
                    == as_bytes(uncached_ppr(graph, {key: 1.0}, damping)))

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
            expected = as_bytes(uncached_ppr(graph, weights, damping))
            assert as_bytes(ppr(graph, weights, damping)) == expected
            assert as_bytes(ppr(graph, weights, damping)) == expected

    def test_nodeless_graph_raises(self):
        graph = SpecGraph()
        graph.edges = [Edge("mention", "e:a", "p:b")]
        with pytest.raises(EmptyGraph):
            ppr(graph, {}, 0.85)

    def test_retrievals_build_the_walk_once(self, graph, offline_gateway, run_cfg,
                                            tmp_path, monkeypatch):
        kgmod.save(graph, tmp_path)
        fresh = kgmod.load(tmp_path)
        builds = []
        build_walk = retrieval.build_walk
        monkeypatch.setattr(retrieval, "build_walk",
                            lambda *args: builds.append(1) or build_walk(*args))
        target = SemanticAnchor("declarative", "baud rate register")
        for query in ("What is the reset value of the baud rate register?",
                      "Which signal drives TX_READY?", "What does the FIFO do?"):
            retrieval.retrieve(query, target, fresh, offline_gateway, run_cfg)
        assert len(builds) == 1

    def test_changed_graph_gets_a_new_walk(self):
        graph = SpecGraph()
        graph.entities = {"ctrl reg", "ctrl register", "fsm"}
        for pid in ("p1", "p2", "p3"):
            add_passage(graph, pid)
        graph.edges = [Edge("alias", "e:ctrl reg", "e:ctrl register"),
                       Edge("mention", "e:ctrl reg", "p:p1"),
                       Edge("mention", "e:ctrl register", "p:p2"),
                       Edge("mention", "e:fsm", "p:p3")]
        params = ({"p:p1": 1.0}, 0.85)
        before = as_bytes(ppr(graph, *params))
        assert before == as_bytes(uncached_ppr(graph, *params))

        kgmod.apply_normalization(graph)  # reassigns edges and entities
        after_merge = as_bytes(ppr(graph, *params))
        assert after_merge == as_bytes(uncached_ppr(graph, *params))
        assert after_merge[0] != before[0]

        graph.edges.append(Edge("mention", "e:fsm", "p:p2"))  # in place
        after_append = as_bytes(ppr(graph, *params))
        assert after_append == as_bytes(uncached_ppr(graph, *params))
        assert after_append[0] != after_merge[0]

        add_passage(graph, "p4")
        assert len(ppr(graph, *params)[0]) == len(graph.all_node_keys())
        assert as_bytes(ppr(graph, *params)) == as_bytes(uncached_ppr(graph, *params))

    def test_interchangeable_passages_tie_exactly(self):
        # A star seeded at its centre: every passage is the same distance from
        # the seed, so their scores must be equal, not merely close, for
        # rank_passages to order them by id.
        graph = SpecGraph()
        graph.entities = {"hub", "leaf"}
        ids = ["7", "12", "3", "10", "1", "25", "4"]
        for pid in ids:
            add_passage(graph, pid)
        graph.edges = [Edge("mention", "e:hub", f"p:{pid}") for pid in ids]
        graph.edges.append(Edge("mention", "e:leaf", "p:7"))
        graph.edges.append(Edge("mention", "e:leaf", "p:12"))
        for damping in (0.5, 0.85):
            scores, _ = ppr(graph, {"e:hub": 1.0}, damping)
            ranked = rank_passages(graph, scores)
            score = {pid: scores[retrieval.graph_walk(graph).index[f"p:{pid}"]]
                     for pid in ids}
            tied = [pid for pid in ids if pid not in ("7", "12")]
            assert len({score[pid] for pid in tied}) == 1
            assert score["7"] == score["12"]
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
assert len(scores) == len(graph.all_node_keys())
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
    def make_state(self, n=40):
        return RetrievalState(
            query="q",
            ranked_candidates=[(f"p{i:02d}", 1.0 - i * 0.01) for i in range(n)],
        )

    @staticmethod
    def scripted(summaries_gains):
        """Return (summarize, embed) where embed distances follow the script:
        summaries_gains[t] is the gain for expansion attempt t."""
        state = {"t": 0}

        def summarize(query, ids):
            return "|".join(ids)

        def embed(text):
            return text

        def gain(base, new):
            g = summaries_gains[state["t"]] if state["t"] < len(summaries_gains) else 0.0
            state["t"] += 1
            return g

        return summarize, embed, gain

    def run_expand(self, gains, tau=0.05, k0=5, delta_k=5, k_max=50, n=40):
        state = self.make_state(n)
        summarize, embed, gain = self.scripted(gains)
        real_marginal = retrieval.marginal_gain
        retrieval.marginal_gain = lambda a, b: gain(a, b)
        try:
            adaptive_expand(state, tau, k0, delta_k, k_max, summarize, embed)
        finally:
            retrieval.marginal_gain = real_marginal
        return state

    def test_identical_summaries_terminate_with_k0(self):
        state = self.make_state()
        summarize = lambda q, ids: "same summary every time"
        embed = lambda text: np.array([1.0, 0.0])
        adaptive_expand(state, tau=0.05, k0=5, delta_k=5, k_max=50,
                        summarize=summarize, embed=embed)
        assert len(state.accepted) == 5
        assert state.mig_trace == [0.0]

    def test_exactly_n_highgain_rounds_accepted(self):
        state = self.run_expand([0.5, 0.5, 0.0])
        # two accepted expansions then a zero-gain round: |S| = k0 + 2*delta_k
        assert len(state.accepted) == 5 + 2 * 5
        assert len(state.mig_trace) == 3

    def test_kmax_equal_k0_returns_immediately(self):
        state = self.make_state()
        called = {"n": 0}

        def summarize(q, ids):
            called["n"] += 1
            return "s"

        adaptive_expand(state, tau=0.05, k0=5, delta_k=5, k_max=5,
                        summarize=summarize, embed=lambda t: np.array([1.0]))
        assert len(state.accepted) == 5
        assert state.mig_trace == []
        assert called["n"] == 0

    def test_hard_stop_never_exceeds_kmax(self):
        state = self.run_expand([0.5] * 100, k_max=12)
        assert len(state.accepted) == 12

    def test_candidates_exhausted_stops(self):
        state = self.run_expand([0.5] * 100, n=8)
        assert len(state.accepted) == 8

    def test_monotonicity_growth_iff_gain_above_tau(self):
        gains = [0.5, 0.01, 0.7]
        state = self.run_expand(gains, tau=0.05)
        # second attempt fails the threshold, loop stops there
        assert len(state.mig_trace) == 2
        assert len(state.accepted) == 5 + 5

    def test_round_bound(self):
        k0, delta_k, k_max = 5, 5, 50
        state = self.run_expand([0.5] * 100, k0=k0, delta_k=delta_k, k_max=k_max, n=100)
        import math
        assert len(state.mig_trace) <= math.ceil((k_max - k0) / delta_k) + 1

    def test_summarizer_failure_aborts_with_warning(self):
        state = self.make_state()

        def summarize(q, ids):
            raise RuntimeError("model down")

        adaptive_expand(state, tau=0.05, k0=5, delta_k=5, k_max=50,
                        summarize=summarize, embed=lambda t: np.array([1.0]))
        assert len(state.accepted) == 5
        assert state.warning is not None

    @staticmethod
    def counting_doubles(fail_on_call=None):
        """Summarize/embed doubles that count their calls; every summary
        embeds to a fresh orthogonal vector, so every gain is 1."""
        calls = {"summarize": 0, "embed": 0}

        def summarize(q, ids):
            calls["summarize"] += 1
            if calls["summarize"] == fail_on_call:
                raise RuntimeError("model down")
            return f"summary {calls['summarize']}"

        def embed(text):
            calls["embed"] += 1
            vec = np.zeros(64)
            vec[calls["embed"]] = 1.0
            return vec

        return summarize, embed, calls

    def test_each_round_summarizes_and_embeds_once(self):
        state = self.make_state()
        summarize, embed, calls = self.counting_doubles()
        adaptive_expand(state, tau=0.05, k0=5, delta_k=5, k_max=20,
                        summarize=summarize, embed=embed)
        assert len(state.mig_trace) == 3
        assert len(state.accepted) == 20
        # the k0 base once, then one summary per round
        assert calls == {"summarize": 4, "embed": 4}

    def test_failure_after_first_round_keeps_accepted_set(self):
        state = self.make_state()
        # calls 1 and 2 are round 1's base and increment; call 3 is round 2's
        summarize, embed, _ = self.counting_doubles(fail_on_call=3)
        adaptive_expand(state, tau=0.05, k0=5, delta_k=5, k_max=50,
                        summarize=summarize, embed=embed)
        assert state.accepted == [f"p{i:02d}" for i in range(10)]
        assert state.mig_trace == [1.0]
        assert state.warning is not None


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


def anchored_graph():
    graph = SpecGraph()

    def add(pid, anchor):
        graph.passages[pid] = Passage(passage_id=pid, doc_id="t", section_path=[],
                                      text=pid, sentence_spans=[], token_estimate=1,
                                      anchor=anchor)

    add("proc-fsm", SemanticAnchor("procedural", "fsm"))
    add("decl-fsm", SemanticAnchor("declarative", "fsm"))
    add("proc-ctrl", SemanticAnchor("procedural", "ctrl register"))
    add("proc-ctrl-alias", SemanticAnchor("procedural", "ctrl reg"))
    add("unanchored", None)
    graph.alias_map = {"ctrl reg": "ctrl register"}
    return graph


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

    def test_unanchored_kept_only_with_fallback(self):
        graph = anchored_graph()
        keep = csa_filter(["unanchored", "proc-fsm"],
                          SemanticAnchor("procedural", "fsm"), graph,
                          keep_unanchored=True)
        assert keep.kept == ["unanchored", "proc-fsm"]
        drop = csa_filter(["unanchored", "proc-fsm"],
                          SemanticAnchor("procedural", "fsm"), graph,
                          keep_unanchored=False)
        assert drop.kept == ["proc-fsm"]

    def test_fail_open_when_everything_mismatches(self):
        graph = anchored_graph()
        result = csa_filter(["decl-fsm", "proc-ctrl"],
                            SemanticAnchor("procedural", "baud register"), graph,
                            keep_unanchored=False)
        assert result.bypassed
        assert result.kept == ["decl-fsm", "proc-ctrl"]
        assert result.removed == []

    def test_filter_soundness_removed_provably_fail(self):
        graph = anchored_graph()
        target = SemanticAnchor("procedural", "fsm")
        result = csa_filter(list(graph.passages), target, graph, keep_unanchored=False)
        for pid in result.removed:
            anchor = graph.passages[pid].anchor
            assert anchor is None or not retrieval.anchor_compatible(
                anchor, target, graph, keep_unanchored=False)
        for pid in result.kept:
            anchor = graph.passages[pid].anchor
            assert retrieval.anchor_compatible(anchor, target, graph,
                                               keep_unanchored=False)
