"""The walk over entities and passages alone, and the work it sets.

The graph has no statement nodes: a statement whose object is an entity is one
``relation`` edge from its subject to its object. The statement-node graph
it replaced is rebuilt here from the same triples as the reference the walk
is measured against. It is a reference, not an oracle: the two walks score
nodes differently, and the answers must stay the same.
"""

import pytest

from speckg import kg as kgmod, reasoning, retrieval
from speckg.gateway import Gateway
from speckg.ingest import ingest_document
from speckg.kg import Edge, SpecGraph
from speckg.offline import OfflineModel
from speckg.text import estimate_tokens

from conftest import load_manual_module, make_config, make_offline_gateway

# perfbench/workloads.py's KNOWN_FAILING: the seed-0 102-block manual's
# questions whose gold passage ranks below the k0 cut under similarity-only
# seeding, so the loop ends flagged incomplete.
KNOWN_FAILING = frozenset({"chain-3", "default-73", "locate-43", "locate-59"})


def statement_key(triple_id: str) -> str:
    return f"s:{triple_id}"


class StatementGraph(SpecGraph):
    """A graph whose statements are nodes too. ``graph_walk`` skips any edge
    whose endpoint is not among ``all_node_keys``, so both methods name the
    statement nodes."""

    def node_exists(self, key: str) -> bool:
        if key.startswith("s:"):
            return key[2:] in self.statements
        return super().node_exists(key)

    def all_node_keys(self) -> list[str]:
        return super().all_node_keys() + [statement_key(s) for s in sorted(self.statements)]


def statement_graph(graph: SpecGraph) -> StatementGraph:
    """``graph`` as the statement-node graph of its triples: each statement a
    node with a ``subject`` edge from its subject and an ``object`` edge to an
    entity object, each linking triple a ``link`` edge between its two
    statements, and the mention edges as they are."""
    def entity(name):
        return kgmod.entity_key(graph.alias_map.get(name, name))

    edges = {e for e in graph.edges if e.kind == "mention"}
    for t in graph.triples.values():
        if t.is_statement:
            statement = statement_key(t.triple_id)
            edges.add(Edge("subject", entity(t.subject), statement))
            if t.object_is_entity:
                edges.add(Edge("object", statement, entity(t.object)))
        elif t.category == kgmod.LINKING:
            edges.add(Edge("link", statement_key(t.subject), statement_key(t.object)))
    return StatementGraph(passages=graph.passages, entities=graph.entities,
                          triples=graph.triples, alias_map=graph.alias_map,
                          edges=sorted(edges, key=lambda e: (e.kind, e.src, e.dst)),
                          embeddings=graph.embeddings)


def walk_size(graph: SpecGraph) -> tuple[int, int, int]:
    """The walk's nodes and directed edges, and the floats its passage table
    holds at the default damping."""
    walk = retrieval.graph_walk(graph)
    table = retrieval.passage_table(walk, make_config().ppr.damping)
    return len(walk.keys), int(walk.walk.src.size), sum(row.size for row in table.rows)


class CountingGateway(Gateway):
    """The offline gateway, counting chat requests and their prompt tokens as
    the benchmark counts them."""

    def __init__(self):
        super().__init__(provider=OfflineModel())
        self.calls = self.tokens = 0

    def chat(self, req):
        self.calls += 1
        self.tokens += estimate_tokens(req.system_prompt) + estimate_tokens(req.user_prompt)
        return super().chat(req)


def build_manual(blocks: int):
    """The seed-0 manual of ``blocks`` blocks, and its graph."""
    module = load_manual_module()
    manual = module.generate(0, blocks)
    gateway = make_offline_gateway()
    corpus = ingest_document(gateway, manual.text, module.DOC_ID)
    return manual, kgmod.build_from_corpus(corpus, gateway)


@pytest.fixture(scope="module")
def manual_102():
    return build_manual(102)


class TestWalkSize:
    """The walk's work, pinned: a change that moves a count re-pins it."""

    def test_fixture_spec(self, graph):
        assert walk_size(graph) == (87, 208, 262)

    def test_seed_0_manual_of_30_blocks(self):
        assert walk_size(build_manual(30)[1]) == (331, 820, 9241)

    def test_seed_0_manual_of_102_blocks(self, manual_102):
        _, graph = manual_102
        assert walk_size(graph) == (1121, 2788, 104449)
        assert len(graph.all_node_keys()) == len(graph.entities) + len(graph.passages)

    def test_statement_reference(self, graph, manual_102):
        # the walk as the graph built it before, statement nodes and all
        assert walk_size(statement_graph(graph)) == (142, 344, 449)
        reference = statement_graph(manual_102[1])
        assert len(reference.statements) == 714
        assert walk_size(reference) == (1835, 4420, 167417)


def answer_all(manual, graph):
    """Every question's answer, the ids of those that fail the benchmark's
    check, and the chat requests and prompt tokens the round took."""
    cfg = make_config()
    gateway = CountingGateway()
    answers, failing = {}, set()
    for question in manual.questions:
        record = reasoning.run(question.question, graph, gateway, cfg)
        answers[question.qid] = record.answer
        errors = [f for f in record.flags if f.startswith("error:")]
        if errors or not all(fact in record.answer for fact in question.facts):
            failing.add(question.qid)
    return answers, failing, gateway.calls, gateway.tokens


def test_answers_match_the_statement_walk(manual_102):
    manual, graph = manual_102
    answers, failing, calls, tokens = answer_all(manual, graph)
    ref_answers, ref_failing, ref_calls, ref_tokens = answer_all(manual, statement_graph(graph))
    assert len(answers) == 238
    assert answers == ref_answers
    assert failing == ref_failing == KNOWN_FAILING
    # the walk without statement nodes stops more expansions at the first gain check
    assert (ref_calls, ref_tokens) == (1238, 520_996)
    assert (calls, tokens) == (1142, 444_466)
    assert calls <= ref_calls and tokens <= ref_tokens
