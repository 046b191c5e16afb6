"""Graph retrieval: similarity seeding, personalized PageRank, adaptive
expansion by marginal gain, and anchor-compatibility filtering.

The expansion loop grows the accepted passage set from a ranked candidate
list until the marginal gain of new evidence (cosine distance between the
summary of the accepted context and the summary of that context plus the
increment) drops to the threshold, the budget is reached, or candidates run
out. Each round makes one summarize request, over the accepted context plus
the increment, for the summary of each prefix it names by a cut, and embeds
the summaries in one call. The first round cuts twice, after the base and
after the increment; an accepted round's summary is the next round's base, so
later rounds cut once, after the increment. A round whose expanded summary is
the base summary's text has gain 0.0 and embeds nothing.
"""

from __future__ import annotations

import logging
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from . import prompts
from .errors import EmptyGraph, FixtureMiss, InvalidInput, MalformedReply
from .gateway import Gateway
from .ingest import SemanticAnchor
from .kg import SpecGraph

logger = logging.getLogger(__name__)


@dataclass
class RetrievalRound:
    """One acquire round: the top ``k_max`` ranked passages with their scores,
    the passages expansion accepted from them, and what the anchor filter kept
    of those. ``adaptive_expand`` and ``retrieve`` fill it in."""

    sub_query: str
    target_anchor: SemanticAnchor
    ranked: list[tuple[str, float]]
    accepted: list[str] = field(default_factory=list)  # ordered set S_t
    filtered: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    mig_trace: list[float] = field(default_factory=list)
    bypassed: bool = False
    warning: str | None = None

    def to_dict(self) -> dict:
        return {
            "sub_query": self.sub_query,
            "target_anchor": self.target_anchor.to_dict(),
            "ranked": [[pid, score] for pid, score in self.ranked],
            "accepted": self.accepted,
            "filtered": self.filtered,
            "removed": self.removed,
            "mig_trace": self.mig_trace,
            "bypassed": self.bypassed,
            "warning": self.warning,
        }


def seed(query: str, kg: SpecGraph, n_seeds: int, gateway: Gateway) -> dict[str, float]:
    """Personalization weights over the top-n most query-similar nodes.

    Similarities are shifted to nonnegative (w = sim - min(0, min sim)) and
    normalized to sum 1; an all-zero shift falls back to uniform weights.
    Ties rank by lexicographic node key. A graph embedded by another model
    than the gateway's, or at another dimension, raises InvalidInput.
    """
    index = kg.embeddings
    if index is None or not index.keys:
        raise EmptyGraph("graph has no embedding index")
    if gateway.embedding_model != index.model_id:
        raise InvalidInput(f"graph embedded by {index.model_id!r}, query by "
                           f"{gateway.embedding_model!r}")
    query_vec = gateway.embed([query])[0]
    if query_vec.shape[0] != index.matrix.shape[1]:
        raise InvalidInput(f"query embedding has {query_vec.shape[0]} dimensions, "
                           f"the graph's have {index.matrix.shape[1]}")
    top = index.top_similar(query_vec, n_seeds)
    sims = np.array([score for _, score in top], dtype=np.float64)
    shifted = sims - min(0.0, float(sims.min()))
    total = float(shifted.sum())
    if total <= 0.0:
        shifted = np.ones_like(sims)
        total = float(shifted.sum())
    return {key: float(w / total) for (key, _), w in zip(top, shifted)}


# The walk runs the fewest steps k with dᵏ <= WALK_ERROR: see walk_scores.
WALK_ERROR = 1e-7
# The largest damping accepted, at 1,604 steps: the count grows like 16 / (1 - d).
MAX_DAMPING = 0.99
# Passage columns walked at once while a passage table is built. It bounds the
# build's working memory: each step gathers one row of 32 floats per edge.
TABLE_CHUNK = 32


def walk_steps(damping: float) -> int:
    """The steps every walk runs at ``damping``: the fewest k with dᵏ <= WALK_ERROR."""
    if not 0.0 < damping <= MAX_DAMPING:
        raise InvalidInput(f"damping must lie in (0, {MAX_DAMPING}]")
    return math.ceil(math.log(WALK_ERROR) / math.log(damping))


@dataclass(frozen=True)
class Walk:
    """The random walk of one graph, without restart: what every personalized
    PageRank over that graph shares. Its merged edges are ordered by
    ``(src, dst)``."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray  # transition probability of each edge
    out_weight: np.ndarray  # each node's summed out-edge weight; 0 where it dangles
    component: np.ndarray  # each node's weakly connected component: its least node

    @property
    def dangling(self) -> np.ndarray:
        """The indices of the nodes without out-weight."""
        return np.flatnonzero(self.out_weight == 0.0)

    @cached_property
    def in_edges(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The edges grouped by the in-degree k of their target: for each k,
        the targets, and each target's k sources and probabilities as a row."""
        order = np.argsort(self.dst, kind="stable")
        in_degree = np.bincount(self.dst, minlength=self.n_nodes)
        first = np.cumsum(in_degree) - in_degree
        groups = []
        for k in np.unique(in_degree[in_degree > 0]).tolist():
            nodes = np.flatnonzero(in_degree == k)
            edges = order[first[nodes][:, None] + np.arange(k)]
            groups.append((nodes, self.src[edges], self.prob[edges]))
        return tuple(groups)

    def step(self, x: np.ndarray) -> np.ndarray:
        """``Wᵀx``, for a vector or for each column of a matrix."""
        out = np.zeros(x.shape)
        for nodes, sources, prob in self.in_edges:
            out[nodes] = np.einsum("nk,nk...->n...", prob, x[sources])
        return out

    def restrict(self, active: np.ndarray) -> Walk:
        """The walk over the nodes where ``active`` holds, a union of whole
        components, renumbered in their order. No edge crosses the border of a
        component, so every walk inside them is unchanged."""
        index = np.cumsum(active) - 1
        keep = active[self.src]
        return Walk(int(index[-1]) + 1, index[self.src[keep]], index[self.dst[keep]],
                    self.prob[keep], self.out_weight[active], index[self.component[active]])


def weak_components(n_nodes: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each node's weakly connected component, labelled by its least node."""
    parent = list(range(n_nodes))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, j in zip(src.tolist(), dst.tolist()):
        a, b = root(i), root(j)
        if a != b:
            parent[max(a, b)] = min(a, b)
    return np.array([root(i) for i in range(n_nodes)], dtype=np.intp)


def build_walk(n_nodes: int, edges: Sequence[tuple[int, int, float]]) -> Walk:
    """Walk over ``n_nodes`` nodes along weighted directed ``(src, dst, weight)``
    edges; parallel edges add their weights."""
    src = np.array([e[0] for e in edges], dtype=np.intp)
    dst = np.array([e[1] for e in edges], dtype=np.intp)
    weights = np.array([e[2] for e in edges], dtype=np.float64)
    if np.any(weights < 0):
        raise InvalidInput("edge weights must be nonnegative")
    _, first, merged = np.unique(src * n_nodes + dst, return_index=True,
                                 return_inverse=True)
    weight = np.bincount(merged, weights=weights)
    src, dst = src[first], dst[first]

    out_weight = np.bincount(src, weights=weight, minlength=n_nodes)
    linked = out_weight > 0.0
    inv = np.zeros(n_nodes)
    inv[linked] = 1.0 / out_weight[linked]
    return Walk(n_nodes, src, dst, inv[src] * weight, out_weight,
                weak_components(n_nodes, src, dst))


def walk_scores(walk: Walk, personalization: np.ndarray, damping: float) -> np.ndarray:
    """``pagerank_scores``' power iteration on a built walk, from ``x = p``.

    Each step contracts the L1 distance to the fixed point by ``damping``, and
    ``x = p`` starts within 2 of it, so ``k = walk_steps(damping)`` steps (100
    at d = 0.85) leave an L1 error of at most ``2·dᵏ ≤ 2·WALK_ERROR``.
    """
    steps = walk_steps(damping)
    p = np.asarray(personalization, dtype=np.float64)
    if p.shape != (walk.n_nodes,) or np.any(p < 0) or not np.isclose(p.sum(), 1.0):
        raise InvalidInput("personalization must be a nonnegative distribution")
    dangling = walk.dangling
    x = p
    for _ in range(steps):
        x = (1.0 - damping) * p + damping * (walk.step(x) + x[dangling].sum() * p)
    return x


def pagerank_scores(n_nodes: int, edges: Sequence[tuple[int, int, float]],
                    personalization: np.ndarray, damping: float = 0.85) -> np.ndarray:
    """Random walk with restart on a weighted directed graph.

    Fixed point of ``x = (1-d)·p + d·(Wᵀx + (dangling mass)·p)`` where W is
    the row-stochastic transition matrix; dangling nodes hand their mass back
    to the personalization vector, so scores always sum to 1. The iteration
    runs a fixed number of steps set by ``damping`` (see ``walk_scores``).
    """
    if n_nodes <= 0:
        raise EmptyGraph("pagerank needs at least one node")
    return walk_scores(build_walk(n_nodes, edges), personalization, damping)


@dataclass(frozen=True)
class PassageTable:
    """Every node's personalized PageRank score on every passage of its
    component, at one damping, for a walk whose every edge goes both ways.

    Without dangling nodes PageRank is linear in its personalization, so a
    personalization's passage scores are the weighted sum of its seeds' rows.
    In a walk whose edges go both ways the dangling nodes are the isolated
    ones; their mass handed back to the personalization scales the whole sum
    by ``1 / (1 - d·P_d)``, ``P_d`` the seed weight on dangling nodes.
    """

    damping: float
    order: np.ndarray  # each table column's passage position, in id order
    spans: list[slice]  # per node: the columns of its component's passages
    rows: list[np.ndarray]  # per node: its scores on those passages
    dangling: np.ndarray  # per node: whether it is isolated
    nbytes: int  # the size of the scores

    def scores(self, nodes: Sequence[int], weights: Sequence[float]) -> np.ndarray:
        """The passage scores, in id order, of the personalization that gives
        each of ``nodes`` its weight."""
        x = np.zeros(self.order.size)
        dangling_mass = 0.0
        for i, weight in zip(nodes, weights):
            x[self.spans[i]] += weight * self.rows[i]
            if self.dangling[i]:
                dangling_mass += weight
        scores = np.empty_like(x)
        scores[self.order] = x / (1.0 - self.damping * dangling_mass)
        return scores


def build_passage_table(walk: Walk, passages: slice, damping: float) -> PassageTable:
    """The passage table of ``walk``, whose nodes in ``passages`` are the
    passages in id order.

    One walk per passage j, ``walk_scores``' steps without the dangling
    hand-back, gives π_j, its scores on every node of its component. Every edge
    goes both ways, so w_s·π_s(j) = w_j·π_j(s), w the weighted degree, and
    node s's score on passage j is π_s(j) = w_j / w_s · π_j(s). The walks run
    ``TABLE_CHUNK`` passages at a time, over their components alone.
    """
    steps = walk_steps(damping)
    component = walk.component
    # The table's columns: the passages grouped by component, in id order
    # within each; its rows: the nodes grouped by component, in walk order.
    order = np.argsort(component[passages], kind="stable")
    columns = np.arange(passages.start, passages.stop)[order]
    by_component = np.argsort(component, kind="stable")
    labels, first = np.unique(component[by_component], return_index=True)
    members = np.split(by_component, first[1:])
    column_labels = component[columns]
    bounds = zip(np.searchsorted(column_labels, labels, "left").tolist(),
                 np.searchsorted(column_labels, labels, "right").tolist())
    spans = [slice(a, b) for a, b in bounds]
    blocks = [np.empty((nodes.size, span.stop - span.start))
              for nodes, span in zip(members, spans)]

    for start in range(0, columns.size, TABLE_CHUNK):
        sources = columns[start:start + TABLE_CHUNK]
        active = np.isin(component, component[sources])
        sub = walk.restrict(active)
        local = np.cumsum(active) - 1
        restart = np.zeros((sub.n_nodes, sources.size))
        restart[local[sources], np.arange(sources.size)] = 1.0 - damping
        x = restart / (1.0 - damping)
        for _ in range(steps):
            x = restart + damping * sub.step(x)
        stop = start + sources.size
        for c in np.unique(np.searchsorted(labels, component[sources])).tolist():
            a, b = max(spans[c].start, start), min(spans[c].stop, stop)
            blocks[c][:, a - spans[c].start:b - spans[c].start] = (
                x[local[members[c]], a - start:b - start])

    # An isolated node is its own component, so its weight cancels: any will do.
    weight = np.where(walk.out_weight > 0.0, walk.out_weight, 1.0)
    spans_of, rows_of = [None] * walk.n_nodes, [None] * walk.n_nodes
    for nodes, span, block in zip(members, spans, blocks):
        block *= weight[columns[span]] / weight[nodes][:, None]
        for node, row in zip(nodes.tolist(), block):
            spans_of[node], rows_of[node] = span, row
    return PassageTable(damping, order, spans_of, rows_of, walk.out_weight == 0.0,
                        sum(block.nbytes for block in blocks))


@dataclass(frozen=True)
class GraphWalk:
    """A graph's walk with its node keys in walk order. The passages lie
    contiguous in that order, sorted by id. Its passage tables, one per
    damping, are built on first use."""

    keys: list[str]
    index: dict[str, int]
    walk: Walk
    passages: slice  # the passages' positions in walk order
    passage_ids: list[str]
    tables: dict[float, PassageTable] = field(default_factory=dict, compare=False, repr=False)


# Each graph's walk, for as long as the graph lives. A graph never changes, so
# its walk never goes stale.
_WALKS: weakref.WeakKeyDictionary[SpecGraph, GraphWalk] = weakref.WeakKeyDictionary()


def graph_walk(kg: SpecGraph) -> GraphWalk:
    """The walk over ``kg`` with every edge in both directions, built on first
    use.

    Threads sharing a graph may each build it once, and all then use the walk
    stored first; they may each build one of its passage tables too. Every
    walk and table they keep is whole and never written to.
    """
    cached = _WALKS.get(kg)
    if cached is not None:
        return cached
    keys = kg.all_node_keys()
    if not keys:
        raise EmptyGraph("graph has no nodes")
    index = {key: i for i, key in enumerate(keys)}
    edges = []
    for edge in kg.edges:
        if edge.src not in index or edge.dst not in index:
            continue
        i, j = index[edge.src], index[edge.dst]
        edges.append((i, j, 1.0))
        edges.append((j, i, 1.0))
    passages = slice(len(kg.entities), len(kg.entities) + len(kg.passages))
    return _WALKS.setdefault(kg, GraphWalk(keys, index, build_walk(len(keys), edges),
                                           passages=passages,
                                           passage_ids=sorted(kg.passages)))


def passage_table(walk: GraphWalk, damping: float) -> PassageTable:
    """The graph walk's passage table at ``damping``, built on first use."""
    table = walk.tables.get(damping)
    if table is None:
        table = build_passage_table(walk.walk, walk.passages, damping)
        walk.tables[damping] = table
    return table


def ppr(kg: SpecGraph, seed_weights: dict[str, float],
        damping: float) -> tuple[np.ndarray, bool]:
    """Personalized PageRank's passage scores, in passage-id order; edges walk
    both ways.

    The scores are the seeds' weighted rows of the graph's passage table
    (``passage_table``), the personalization uniform when no seed carries
    weight. The second item is always True, as the walk's fixed step count
    always meets its error bound; it stays because ``perfbench/spans.py``
    reads it.
    """
    walk = graph_walk(kg)
    nodes = []
    for key in seed_weights:
        if key not in walk.index:
            raise InvalidInput(f"seed weight for unknown node {key!r}")
        nodes.append(walk.index[key])
    weights = np.array(list(seed_weights.values()), dtype=np.float64)
    total = float(weights.sum())
    if total <= 0:
        nodes = range(len(walk.keys))
        weights = np.full(len(walk.keys), 1.0 / len(walk.keys))
    # np.isclose(total, 1.0)'s test, without its array machinery
    elif np.any(weights < 0) or not abs(total - 1.0) <= 1e-08 + 1e-05:
        raise InvalidInput("personalization must be a nonnegative distribution")
    return passage_table(walk, damping).scores(nodes, weights.tolist()), True


def rank_passages(kg: SpecGraph, scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The top ``k`` passage ids with their scores, from ``ppr``'s scores: by
    score rounded to 12 decimals, descending, then by id. The rounding makes
    scores that differ only in their last bits tie, so their order is the
    ids'."""
    ids = graph_walk(kg).passage_ids
    top = np.lexsort((np.arange(scores.size), -np.round(scores, 12)))[:k]
    return list(zip([ids[i] for i in top.tolist()], scores[top].tolist()))


# (query, passage ids, cuts) -> one summary per cut n, of the first n passages
Summarizer = Callable[[str, list[str], list[int]], list[str]]
# texts -> one unit embedding per text, as the rows of a matrix
Embedder = Callable[[list[str]], np.ndarray]


def marginal_gain(base_vec: np.ndarray, new_vec: np.ndarray) -> float:
    """Cosine distance between two unit summary embeddings, clamped to [0, 2]."""
    gain = 1.0 - float(np.dot(base_vec, new_vec))
    return min(2.0, max(0.0, gain))


def adaptive_expand(round_: RetrievalRound, tau: float, k0: int, delta_k: int,
                    k_max: int, summarize: Summarizer, embed: Embedder) -> RetrievalRound:
    """Iterative context expansion over ``round_.ranked``; fills in the round's
    ``accepted``, ``mig_trace`` and ``warning`` and returns it.

    Starts from the top-k0 candidates; each round takes the next delta_k and
    accepts them only while the gain of the summary of the accepted context
    plus them over the accepted context's summary stays above tau. A round
    makes one ``summarize`` call over the accepted context plus the increment
    and one ``embed`` call for its summaries. The first round's cuts are
    ``[k, k + Δ]``, giving the k0 base's summary and the expanded one; later
    rounds cut once, at ``k + Δ``, and reuse the summary of the round before,
    which is the accepted context's, with its embedding. A round whose
    expanded summary is the base summary's text has gain exactly 0.0 and
    makes no ``embed`` call. Hard stops: the accepted set reaching
    k_max, or candidates running out. A failed summarize or embed call, or a
    reply with another number of summaries than cuts, aborts the round and
    returns the set accepted so far with a warning. A ``FixtureMiss`` is not
    a failed call but a stale replay file, and propagates.
    """
    if k0 < 1 or delta_k < 1:
        raise InvalidInput("k0 and delta_k must be >= 1")
    ids = [pid for pid, _ in round_.ranked]
    limit = min(k_max, len(ids))
    round_.accepted = ids[:min(k0, limit)]
    round_.mig_trace = []
    # The accepted context's summary, and its embedding once one was needed.
    base_text = base_vec = None

    while len(round_.accepted) < limit:
        start = len(round_.accepted)
        end = min(start + delta_k, limit)
        cuts = [end] if base_text is not None else [start, end]
        try:
            summaries = summarize(round_.sub_query, ids[:end], cuts)
            if len(summaries) != len(cuts):
                raise MalformedReply(f"{len(summaries)} summaries for {len(cuts)} cuts")
            if base_text is None:
                base_text = summaries[0]
            expanded_text = summaries[-1]
            if expanded_text == base_text:
                gain, expanded_vec = 0.0, base_vec
            else:
                vecs = embed([base_text, expanded_text] if base_vec is None
                             else [expanded_text])
                if base_vec is None:
                    base_vec = vecs[0]
                expanded_vec = vecs[-1]
                gain = marginal_gain(base_vec, expanded_vec)
        except FixtureMiss:
            raise
        except Exception as exc:
            round_.warning = f"summarization failed: {exc}"
            logger.warning("expansion aborted for %r: %s", round_.sub_query, exc)
            return round_
        round_.mig_trace.append(gain)
        if gain > tau:
            round_.accepted = ids[:end]
            base_text, base_vec = expanded_text, expanded_vec
        else:
            break
    return round_


@dataclass
class FilterResult:
    kept: list[str]
    removed: list[str]
    bypassed: bool = False


def csa_filter(candidates: Sequence[str], target: SemanticAnchor,
               kg: SpecGraph) -> FilterResult:
    """Keep candidates whose anchors match the target intent exactly.

    Match = same anchor type and same canonical entity after alias
    resolution. Unanchored passages always pass; an id the graph does not
    hold is removed. Fail-open: when filtering would empty the set, the
    unfiltered candidates come back with the bypass flag raised so the event
    stays auditable.
    """
    want = (target.anchor_type, kg.resolve_entity(target.entity))
    anchors = kg.resolved_anchors
    kept, removed = [], []
    for pid in candidates:
        anchor = anchors.get(pid)
        ok = anchor == want if anchor is not None else pid in kg.passages
        (kept if ok else removed).append(pid)
    if not kept and removed:
        return FilterResult(kept=list(candidates), removed=[], bypassed=True)
    return FilterResult(kept=kept, removed=removed)


def retrieve(query: str, target: SemanticAnchor, kg: SpecGraph, gateway: Gateway,
             cfg) -> RetrievalRound:
    """Full pipeline for one sub-query: seed → pagerank → expand → filter."""
    weights = seed(query, kg, cfg.retrieval.n_seeds, gateway)
    scores, _ = ppr(kg, weights, cfg.ppr.damping)
    round_ = RetrievalRound(sub_query=query, target_anchor=target,
                            ranked=rank_passages(kg, scores, cfg.retrieval.k_max))

    def summarize(q: str, passage_ids: list[str], cuts: list[int]) -> list[str]:
        payload = [{"passage_id": pid, "text": kg.passages[pid].text}
                   for pid in passage_ids]
        return gateway.chat(prompts.summarize(q, payload, cuts))["summaries"]

    adaptive_expand(round_, cfg.retrieval.tau, cfg.retrieval.k0,
                    cfg.retrieval.delta_k, cfg.retrieval.k_max, summarize, gateway.embed)
    result = csa_filter(round_.accepted, target, kg)
    round_.filtered, round_.removed = result.kept, result.removed
    round_.bypassed = result.bypassed
    return round_
