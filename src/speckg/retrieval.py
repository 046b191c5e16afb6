"""Graph retrieval: similarity seeding, personalized PageRank, adaptive
expansion by marginal gain, and anchor-compatibility filtering.

The expansion loop grows the accepted passage set from a ranked candidate
list until the marginal gain of new evidence (cosine distance between the
summary of the accepted context and the summary of that context plus the
increment) drops to the threshold, the budget is reached, or candidates run
out. An accepted round's summary is the next round's base, so each round
summarizes and embeds once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from . import prompts
from .errors import EmptyGraph, InvalidInput
from .gateway import Gateway
from .ingest import SemanticAnchor
from .kg import Edge, SpecGraph

logger = logging.getLogger(__name__)


@dataclass
class PPRParams:
    damping: float = 0.85
    tol: float = 1e-8
    max_iters: int = 100
    seed_weights: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.damping < 1.0):
            raise InvalidInput("damping must lie in (0, 1)")
        if self.tol <= 0:
            raise InvalidInput("tol must be positive")
        if self.max_iters <= 0:
            raise InvalidInput("max_iters must be positive")
        if self.seed_weights:
            weights = np.array(list(self.seed_weights.values()), dtype=np.float64)
            if np.any(weights < 0):
                raise InvalidInput("seed weights must be nonnegative")
            total = float(weights.sum())
            if not np.isclose(total, 1.0, atol=1e-9):
                raise InvalidInput(f"seed weights must sum to 1, got {total}")


@dataclass
class RetrievalState:
    query: str
    ranked_candidates: list[tuple[str, float]] = field(default_factory=list)
    accepted: list[str] = field(default_factory=list)  # ordered set S_t
    mig_trace: list[float] = field(default_factory=list)
    warning: str | None = None


def seed(query: str, kg: SpecGraph, n_seeds: int, gateway: Gateway) -> dict[str, float]:
    """Personalization weights over the top-n most query-similar nodes.

    Similarities are shifted to nonnegative (w = sim - min(0, min sim)) and
    normalized to sum 1; an all-zero shift falls back to uniform weights.
    Ties rank by lexicographic node key.
    """
    if kg.embeddings is None or not kg.embeddings.keys:
        raise EmptyGraph("graph has no embedding index")
    query_vec = gateway.embed([query])[0].as_array()
    top = kg.embeddings.top_similar(query_vec, n_seeds)
    sims = np.array([score for _, score in top], dtype=np.float64)
    shifted = sims - min(0.0, float(sims.min()))
    total = float(shifted.sum())
    if total <= 0.0:
        shifted = np.ones_like(sims)
        total = float(shifted.sum())
    return {key: float(w / total) for (key, _), w in zip(top, shifted)}


@dataclass(frozen=True)
class Walk:
    """The random walk of one graph, without restart: what every personalized
    PageRank over that graph shares."""

    transition_t: sp.spmatrix  # transpose of the transition matrix
    dangling: np.ndarray  # indices of the nodes without out-weight


def build_walk(n_nodes: int, edges: Sequence[tuple[int, int, float]]) -> Walk:
    """Walk over ``n_nodes`` nodes along weighted directed ``(src, dst, weight)``
    edges; parallel edges add their weights."""
    if edges:
        rows = np.array([e[0] for e in edges])
        cols = np.array([e[1] for e in edges])
        weights = np.array([e[2] for e in edges], dtype=np.float64)
        if np.any(weights < 0):
            raise InvalidInput("edge weights must be nonnegative")
        adj = sp.csr_matrix((weights, (rows, cols)), shape=(n_nodes, n_nodes))
    else:
        adj = sp.csr_matrix((n_nodes, n_nodes))

    out_weight = np.asarray(adj.sum(axis=1)).ravel()
    dangling = out_weight == 0.0
    inv = np.zeros(n_nodes)
    inv[~dangling] = 1.0 / out_weight[~dangling]
    transition = sp.diags(inv) @ adj  # row-stochastic on non-dangling rows
    return Walk(transition_t=transition.T, dangling=np.flatnonzero(dangling))


def walk_scores(walk: Walk, personalization: np.ndarray, damping: float,
                tol: float, max_iters: int) -> tuple[np.ndarray, bool]:
    """``pagerank_scores``' power iteration on a built walk, from ``x = p``;
    converged means an L1 step below ``tol`` within ``max_iters`` steps."""
    n_nodes = walk.transition_t.shape[0]
    p = np.asarray(personalization, dtype=np.float64)
    if p.shape != (n_nodes,) or np.any(p < 0) or not np.isclose(p.sum(), 1.0):
        raise InvalidInput("personalization must be a nonnegative distribution")

    # Each step performs the float operations of (1-d)·p + d·(Wᵀx + m·p), m
    # the dangling mass, one at a time in place, so the scores, and the exact
    # ties rank_passages breaks by id, are those of the formula bit for bit.
    # Without dangling nodes m·p is all zeros, and adding it changes no bit.
    restart = (1.0 - damping) * p
    step = np.empty_like(p)
    x = p.copy()
    converged = False
    for _ in range(max_iters):
        x_next = walk.transition_t @ x
        if walk.dangling.size:
            x_next += float(x[walk.dangling].sum()) * p
        x_next *= damping
        x_next += restart
        np.subtract(x_next, x, out=step)
        np.abs(step, out=step)
        x = x_next
        if float(step.sum()) < tol:
            converged = True
            break
    return x, converged


def pagerank_scores(n_nodes: int, edges: Sequence[tuple[int, int, float]],
                    personalization: np.ndarray, damping: float = 0.85,
                    tol: float = 1e-8, max_iters: int = 100,
                    ) -> tuple[np.ndarray, bool]:
    """Random walk with restart on a weighted directed graph (sparse path).

    Fixed point of ``x = (1-d)·p + d·(Wᵀx + (dangling mass)·p)`` where W is
    the row-stochastic transition matrix; dangling nodes hand their mass back
    to the personalization vector, so scores always sum to 1. Returns the
    final iterate and a convergence flag (the best iterate comes back even
    when max_iters runs out).
    """
    if n_nodes <= 0:
        raise EmptyGraph("pagerank needs at least one node")
    return walk_scores(build_walk(n_nodes, edges), personalization, damping,
                       tol, max_iters)


@dataclass(frozen=True)
class GraphWalk:
    """A graph's walk with its node keys in walk order, and the graph state it
    was built from."""

    keys: list[str]
    index: dict[str, int]
    walk: Walk
    edges: list[Edge]
    nodes: tuple[set[str], set[str], set[str]]  # entity, passage, statement ids


def graph_walk(kg: SpecGraph) -> GraphWalk:
    """The walk over ``kg`` with every edge in both directions, built on first
    use and again after the graph's nodes or edges have changed.

    Threads sharing a graph may each build it once; every walk they keep is
    whole and never written to.
    """
    cached = kg._walk
    nodes = (kg.entities, kg.passages.keys(), kg.statements.keys())
    if cached is not None and cached.edges == kg.edges and cached.nodes == nodes:
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
    kg._walk = GraphWalk(keys, index, build_walk(len(keys), edges),
                         edges=list(kg.edges),
                         nodes=(set(kg.entities), set(kg.passages), set(kg.statements)))
    return kg._walk


def ppr(kg: SpecGraph, params: PPRParams) -> tuple[dict[str, float], bool]:
    """Personalized PageRank over the whole graph; edges walk both ways.

    The walk is the graph's cached one (``graph_walk``); only the
    personalization is built per call.
    """
    walk = graph_walk(kg)
    p = np.zeros(len(walk.keys))
    for key, weight in params.seed_weights.items():
        if key not in walk.index:
            raise InvalidInput(f"seed weight for unknown node {key!r}")
        p[walk.index[key]] = weight
    if p.sum() <= 0:
        p[:] = 1.0 / len(walk.keys)

    scores, converged = walk_scores(walk.walk, p, params.damping, params.tol,
                                    params.max_iters)
    if not converged:
        logger.warning("pagerank did not converge within %d iterations", params.max_iters)
    return dict(zip(walk.keys, scores.tolist())), converged


def rank_passages(scores: dict[str, float]) -> list[tuple[str, float]]:
    """Passage nodes ordered by score descending, lexicographic id tiebreak."""
    items = [(key[2:], score) for key, score in scores.items() if key.startswith("p:")]
    return sorted(items, key=lambda kv: (-kv[1], kv[0]))


Summarizer = Callable[[str, list[str]], str]
Embedder = Callable[[str], np.ndarray]


def marginal_gain(base_vec: np.ndarray, new_vec: np.ndarray) -> float:
    """Cosine distance between two unit summary embeddings, clamped to [0, 2]."""
    gain = 1.0 - float(np.dot(base_vec, new_vec))
    return min(2.0, max(0.0, gain))


def adaptive_expand(state: RetrievalState, tau: float, k0: int, delta_k: int,
                    k_max: int, summarize: Summarizer, embed: Embedder) -> RetrievalState:
    """Iterative context expansion over ``state.ranked_candidates``.

    Starts from the top-k0 candidates; each round takes the next delta_k,
    summarizes the accepted context plus them, and accepts the increment only
    while the gain over the accepted context's summary stays above tau. The
    first round also summarizes the k0 base; later rounds reuse the summary of
    the round before, which is the accepted context's. Hard stops: the
    accepted set reaching k_max, or candidates running out. Summarization
    failures abort the round and return the set accepted so far with a
    warning.
    """
    if k0 < 1 or delta_k < 1:
        raise InvalidInput("k0 and delta_k must be >= 1")
    ids = [pid for pid, _ in state.ranked_candidates]
    limit = min(k_max, len(ids))
    state.accepted = ids[:min(k0, limit)]
    state.mig_trace = []
    base_vec = None

    while len(state.accepted) < limit:
        start = len(state.accepted)
        increment = ids[start:min(start + delta_k, limit)]
        try:
            if base_vec is None:
                base_vec = embed(summarize(state.query, state.accepted))
            expanded_vec = embed(summarize(state.query, state.accepted + increment))
            gain = marginal_gain(base_vec, expanded_vec)
        except Exception as exc:
            state.warning = f"summarization failed: {exc}"
            logger.warning("expansion aborted for %r: %s", state.query, exc)
            return state
        state.mig_trace.append(gain)
        if gain > tau:
            state.accepted.extend(increment)
            base_vec = expanded_vec
        else:
            break
    return state


@dataclass
class FilterResult:
    kept: list[str]
    removed: list[str]
    bypassed: bool = False


def anchor_compatible(candidate: SemanticAnchor | None, target: SemanticAnchor,
                      kg: SpecGraph, keep_unanchored: bool) -> bool:
    if candidate is None:
        return keep_unanchored
    if candidate.anchor_type != target.anchor_type:
        return False
    return kg.resolve_entity(candidate.entity) == kg.resolve_entity(target.entity)


def csa_filter(candidates: Sequence[str], target: SemanticAnchor, kg: SpecGraph,
               keep_unanchored: bool = True) -> FilterResult:
    """Keep candidates whose anchors match the target intent exactly.

    Match = same anchor type and same canonical entity after alias
    resolution. Unanchored passages pass only when ``keep_unanchored`` is
    set. Fail-open: when filtering would empty the set, the unfiltered
    candidates come back with the bypass flag raised so the event stays
    auditable.
    """
    kept, removed = [], []
    for pid in candidates:
        passage = kg.passages.get(pid)
        ok = passage is not None and anchor_compatible(passage.anchor, target, kg,
                                                        keep_unanchored)
        (kept if ok else removed).append(pid)
    if not kept and removed:
        return FilterResult(kept=list(candidates), removed=[], bypassed=True)
    return FilterResult(kept=kept, removed=removed)


@dataclass
class RetrievalRound:
    """Audit record of one acquire round."""

    sub_query: str
    target_anchor: dict
    ranked: list[tuple[str, float]]
    accepted: list[str]
    filtered: list[str]
    removed: list[str]
    mig_trace: list[float]
    bypassed: bool
    ppr_converged: bool = True
    warning: str | None = None

    def to_dict(self) -> dict:
        return {
            "sub_query": self.sub_query,
            "target_anchor": self.target_anchor,
            "ranked": [[pid, score] for pid, score in self.ranked],
            "accepted": self.accepted,
            "filtered": self.filtered,
            "removed": self.removed,
            "mig_trace": self.mig_trace,
            "bypassed": self.bypassed,
            "ppr_converged": self.ppr_converged,
            "warning": self.warning,
        }


def retrieve(query: str, target: SemanticAnchor, kg: SpecGraph, gateway: Gateway,
             cfg) -> RetrievalRound:
    """Full pipeline for one sub-query: seed → pagerank → expand → filter."""
    weights = seed(query, kg, cfg.retrieval.n_seeds, gateway)
    params = PPRParams(damping=cfg.ppr.damping, tol=cfg.ppr.tol,
                       max_iters=cfg.ppr.max_iters, seed_weights=weights)
    scores, converged = ppr(kg, params)
    state = RetrievalState(query=query, ranked_candidates=rank_passages(scores))

    def summarize(q: str, passage_ids: list[str]) -> str:
        payload = [{"passage_id": pid, "text": kg.passages[pid].text}
                   for pid in passage_ids]
        return gateway.chat(prompts.summarize(q, payload))

    def embed(text: str) -> np.ndarray:
        return gateway.embed([text])[0].as_array()

    adaptive_expand(state, cfg.retrieval.tau, cfg.retrieval.k0,
                    cfg.retrieval.delta_k, cfg.retrieval.k_max, summarize, embed)
    result = csa_filter(state.accepted, target, kg,
                        keep_unanchored=cfg.filter.fallback_keep_unanchored)
    return RetrievalRound(
        sub_query=query,
        target_anchor=target.to_dict(),
        ranked=list(state.ranked_candidates),
        accepted=list(state.accepted),
        filtered=result.kept,
        removed=result.removed,
        mig_trace=list(state.mig_trace),
        bypassed=result.bypassed,
        ppr_converged=converged,
        warning=state.warning,
    )
