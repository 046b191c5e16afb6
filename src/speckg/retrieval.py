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
later rounds cut once, after the increment.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import prompts
from .errors import EmptyGraph, FixtureMiss, InvalidInput, MalformedReply
from .gateway import Gateway
from .ingest import SemanticAnchor
from .kg import Edge, SpecGraph

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


@dataclass(frozen=True)
class Walk:
    """The random walk of one graph, without restart: what every personalized
    PageRank over that graph shares. Its merged edges are ordered by
    ``(src, dst)``."""

    n_nodes: int
    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray  # transition probability of each edge
    dangling: np.ndarray  # indices of the nodes without out-weight
    component: np.ndarray  # each node's weakly connected component: its least node

    def step(self, x: np.ndarray) -> np.ndarray:
        """``Wᵀx``: each node's in-edges added in source order, the order of a
        sparse CSC product, so the sums are bit for bit that product's. (An
        edgeless walk's ``bincount`` comes back as integer zeros.)"""
        return np.bincount(self.dst, weights=self.prob * x[self.src],
                           minlength=self.n_nodes).astype(np.float64, copy=False)

    def restrict(self, active: np.ndarray) -> Walk:
        """The walk over the nodes where ``active`` holds, a union of whole
        components, renumbered in their order. No edge crosses the border of a
        component, and each node keeps its in-edges in their order, so ``step``
        adds the same terms in the same order as on the whole walk."""
        index = np.cumsum(active) - 1
        keep = active[self.src]
        return Walk(int(index[-1]) + 1, index[self.src[keep]], index[self.dst[keep]],
                    self.prob[keep], index[self.dangling[active[self.dangling]]],
                    index[self.component[active]])


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
    edges; parallel edges add their weights, in the order given."""
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
    dangling = out_weight == 0.0
    inv = np.zeros(n_nodes)
    inv[~dangling] = 1.0 / out_weight[~dangling]
    return Walk(n_nodes, src, dst, inv[src] * weight, np.flatnonzero(dangling),
                weak_components(n_nodes, src, dst))


def walk_scores(walk: Walk, personalization: np.ndarray, damping: float) -> np.ndarray:
    """``pagerank_scores``' power iteration on a built walk, from ``x = p``.

    Each step contracts the L1 distance to the fixed point by ``damping``, and
    ``x = p`` starts within 2 of it, so ``k = ceil(log(WALK_ERROR) / log d)``
    steps (100 at d = 0.85) leave an L1 error of at most ``2·dᵏ ≤ 2·WALK_ERROR``.
    """
    if not 0.0 < damping <= MAX_DAMPING:
        raise InvalidInput(f"damping must lie in (0, {MAX_DAMPING}]")
    p = np.asarray(personalization, dtype=np.float64)
    if p.shape != (walk.n_nodes,) or np.any(p < 0) or not np.isclose(p.sum(), 1.0):
        raise InvalidInput("personalization must be a nonnegative distribution")

    # Mass never leaves the components that hold personalization mass: no edge
    # leads out of them and the restart only returns into them. Every other
    # node scores exactly 0.0, as in the iteration over the whole walk, so the
    # iteration runs over those components alone.
    seeded = np.zeros(walk.n_nodes, dtype=bool)
    seeded[walk.component[p > 0]] = True
    active = seeded[walk.component]
    sub = walk if active.all() else walk.restrict(active)
    q = p if sub is walk else p[active]
    # The dangling mass is summed over all of the walk's dangling nodes in
    # their order, the inactive ones as the zeros they hold: a sum over the
    # active ones alone would group numpy's pairwise additions differently.
    dangling_x = np.zeros(walk.dangling.size)
    slots = np.flatnonzero(active[walk.dangling])

    # Each step performs the float operations of (1-d)·p + d·(Wᵀx + m·p), m
    # the dangling mass, one at a time in place, so the scores, and the exact
    # ties rank_passages breaks by id, are those of the formula bit for bit.
    # Without active dangling nodes m·p is all zeros, and adding it changes
    # no bit.
    restart = (1.0 - damping) * q
    x = q
    for _ in range(math.ceil(math.log(WALK_ERROR) / math.log(damping))):
        x_next = sub.step(x)
        if slots.size:
            dangling_x[slots] = x[sub.dangling]
            x_next += float(dangling_x.sum()) * q
        x_next *= damping
        x_next += restart
        x = x_next
    if sub is walk:
        return x
    scores = np.zeros(walk.n_nodes)
    scores[active] = x
    return scores


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
class GraphWalk:
    """A graph's walk with its node keys in walk order, and the graph state it
    was built from. The passages lie contiguous in that order, sorted by id."""

    keys: list[str]
    index: dict[str, int]
    walk: Walk
    passages: slice  # the passages' positions in walk order
    passage_ids: list[str]
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
    passages = slice(len(kg.entities), len(kg.entities) + len(kg.passages))
    kg._walk = GraphWalk(keys, index, build_walk(len(keys), edges),
                         passages=passages, passage_ids=sorted(kg.passages),
                         edges=list(kg.edges),
                         nodes=(set(kg.entities), set(kg.passages), set(kg.statements)))
    return kg._walk


def ppr(kg: SpecGraph, seed_weights: dict[str, float],
        damping: float) -> tuple[np.ndarray, bool]:
    """Personalized PageRank over the seeds' components; edges walk both ways.

    The scores come in ``graph_walk(kg).keys`` order. The walk is the graph's
    cached one; only the personalization is built per call, uniform when no
    seed carries weight. The second item is always True, as the walk's fixed
    step count always meets its error bound; it stays because
    ``perfbench/spans.py`` reads it.
    """
    walk = graph_walk(kg)
    p = np.zeros(len(walk.keys))
    for key, weight in seed_weights.items():
        if key not in walk.index:
            raise InvalidInput(f"seed weight for unknown node {key!r}")
        p[walk.index[key]] = weight
    if p.sum() <= 0:
        p[:] = 1.0 / len(walk.keys)
    return walk_scores(walk.walk, p, damping), True


def rank_passages(kg: SpecGraph, scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The top ``k`` passage ids with their scores, by score descending with a
    lexicographic id tiebreak, from ``ppr``'s scores. The passages' slice of
    the scores is in id order, so a stable sort of their negated scores breaks
    ties by id, and its first ``k`` entries are a prefix of the whole ranking."""
    walk = graph_walk(kg)
    passage_scores = scores[walk.passages]
    top = np.argsort(-passage_scores, kind="stable")[:k]
    return list(zip([walk.passage_ids[i] for i in top.tolist()],
                    passage_scores[top].tolist()))


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
    which is the accepted context's. Hard stops: the accepted set reaching
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
    base_vec = None

    while len(round_.accepted) < limit:
        start = len(round_.accepted)
        end = min(start + delta_k, limit)
        cuts = [end] if base_vec is not None else [start, end]
        try:
            summaries = summarize(round_.sub_query, ids[:end], cuts)
            if len(summaries) != len(cuts):
                raise MalformedReply(f"{len(summaries)} summaries for {len(cuts)} cuts")
            vecs = embed(summaries)
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
            base_vec = expanded_vec
        else:
            break
    return round_


@dataclass
class FilterResult:
    kept: list[str]
    removed: list[str]
    bypassed: bool = False


def anchor_compatible(candidate: SemanticAnchor | None, target: SemanticAnchor,
                      kg: SpecGraph) -> bool:
    if candidate is None:
        return True
    if candidate.anchor_type != target.anchor_type:
        return False
    return kg.resolve_entity(candidate.entity) == kg.resolve_entity(target.entity)


def csa_filter(candidates: Sequence[str], target: SemanticAnchor,
               kg: SpecGraph) -> FilterResult:
    """Keep candidates whose anchors match the target intent exactly.

    Match = same anchor type and same canonical entity after alias
    resolution. Unanchored passages always pass. Fail-open: when filtering
    would empty the set, the unfiltered candidates come back with the bypass
    flag raised so the event stays auditable.
    """
    kept, removed = [], []
    for pid in candidates:
        passage = kg.passages.get(pid)
        ok = passage is not None and anchor_compatible(passage.anchor, target, kg)
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
