import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckg import kg as kgmod
from speckg.errors import (CorpusInconsistent, CorruptStore, IncompatibleFormat,
                           NormalizationCycle)
from speckg.ingest import Corpus, Passage, SemanticIR

def passage(pid="p0", text="Stub passage text."):
    return Passage(passage_id=pid, doc_id="t", section_path=["S"], text=text,
                   sentence_spans=[(0, len(text))], token_estimate=4)


def proc_ir(sentence_id="p0:s0", subject="FSM", trigger="reset asserted",
            condition="", obj="IDLE"):
    return SemanticIR(sentence_id=sentence_id, kind="procedural", passage_id="p0",
                      span=(0, 10), trigger=trigger, condition=condition,
                      action={"subject": subject, "verb": "returns to", "object": obj})


def decl_ir(sentence_id="p0:s0", entity="CTRL register", attrs=None):
    return SemanticIR(sentence_id=sentence_id, kind="declarative", passage_id="p0",
                      span=(0, 10), central_entity=entity,
                      attributes=attrs if attrs is not None else
                      [{"name": "contains", "value": "prescaler field"},
                       {"name": "defaults to", "value": "0x10"}])


class TestExtractTriples:
    def test_procedural_yields_backbone_aux_link(self):
        # hand-traced: action -> backbone, trigger -> (reset, asserted-when, true),
        # one linking triple joining them
        triples = kgmod.extract_triples(proc_ir())
        by_cat = {t.category: t for t in triples}
        assert set(by_cat) == {"backbone", "auxiliary", "linking"}
        tb, ta, tl = by_cat["backbone"], by_cat["auxiliary"], by_cat["linking"]
        assert (tb.subject, tb.predicate, tb.object) == ("fsm", "returns to", "idle")
        assert (ta.subject, ta.predicate, ta.object) == ("reset", "asserted-when", "true")
        assert (tl.subject, tl.predicate, tl.object) == (tb.triple_id, "qualified_by", ta.triple_id)
        assert tl.source == tb.source == ta.source

    def test_declarative_two_attributes_two_backbones_only(self):
        triples = kgmod.extract_triples(decl_ir())
        assert sum(t.category == "backbone" for t in triples) == 2
        assert sum(t.category == "auxiliary" for t in triples) == 0
        assert sum(t.category == "linking" for t in triples) == 0

    def test_condition_clause_adds_second_aux_and_link(self):
        triples = kgmod.extract_triples(proc_ir(condition="parity enabled"))
        assert sum(t.category == "auxiliary" for t in triples) == 2
        assert sum(t.category == "linking" for t in triples) == 2
        aux_predicates = {t.predicate for t in triples if t.category == "auxiliary"}
        assert aux_predicates == {"asserted-when", "enabled-if"}

    def test_literal_objects_stay_literal(self):
        triples = kgmod.extract_triples(decl_ir())
        objects = {t.object: t.object_is_entity for t in triples}
        assert objects["0x10"] is False
        assert objects["prescaler field"] is True

    def test_empty_attribute_list_gives_empty_output(self):
        assert kgmod.extract_triples(decl_ir(attrs=[])) == []

    def test_triple_ids_deterministic(self):
        a = kgmod.extract_triples(proc_ir())
        b = kgmod.extract_triples(proc_ir())
        assert [t.triple_id for t in a] == [t.triple_id for t in b]


def _is_fragment(short: list[str], long: list[str]) -> bool:
    if len(short) >= len(long):
        return False
    for i in range(len(long) - len(short) + 1):
        if long[i:i + len(short)] == short:
            return True
    return False


def brute_alias_map(entities) -> dict[str, str]:
    """All-pairs oracle for kg.compute_alias_map: every entity is tested
    against every other as a fragment or an abbreviation."""
    ents = sorted(set(entities))
    tokens = {e: e.split() for e in ents}
    aliases: dict[str, str] = {}
    for e in ents:
        targets = {
            other for other in ents
            if other != e
            and (_is_fragment(tokens[e], tokens[other])
                 or kgmod._is_abbreviation(tokens[e], tokens[other]))
        }
        if len(targets) == 1:
            aliases[e] = targets.pop()
    return aliases


# Colliding vocabulary: dotted abbreviations, shared prefixes, one-character
# tokens and words that abbreviate each other.
_VOCAB = ["st.", "status", "stat", "b.", "bit", "bits", "ctl", "ctrl", "control",
          "controller", "reg", "register", "regs", "tx", "t", "s", "s.", "x",
          "fifo", "fi", "en", "enable", "enabled"]
_ENTITY = st.lists(st.sampled_from(_VOCAB), min_size=0, max_size=4).map(" ".join)


class TestAliasRules:
    @given(st.lists(_ENTITY, max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_indexed_alias_map_matches_brute_force(self, entities):
        assert kgmod.compute_alias_map(entities) == brute_alias_map(entities)

    def test_abbreviation_surface_forms_alias_to_long_form(self):
        # two surface forms of one entity
        aliases = kgmod.compute_alias_map(["tx fifo status register",
                                           "tx fifo status reg"])
        assert aliases == {"tx fifo status reg": "tx fifo status register"}

    def test_fragment_maps_to_unique_container(self):
        aliases = kgmod.compute_alias_map(["controller", "serial link controller"])
        assert aliases == {"controller": "serial link controller"}

    def test_ambiguous_fragment_not_aliased(self):
        aliases = kgmod.compute_alias_map([
            "status register", "tx fifo status register", "rx fifo status register"])
        assert "status register" not in aliases

    def test_unrelated_entities_untouched(self):
        assert kgmod.compute_alias_map(["baud register", "ctrl register"]) == {}

    def test_extract_triples_emits_normalization_for_mapped_subject(self):
        alias_map = {"ctrl reg": "ctrl register"}
        ir = decl_ir(entity="ctrl reg")
        triples = kgmod.extract_triples(ir, alias_map)
        norms = [t for t in triples if t.category == "normalization"]
        assert len(norms) == 1
        assert (norms[0].subject, norms[0].predicate, norms[0].object) == (
            "ctrl reg", "canonical_form", "ctrl register")
        assert norms[0].source == ir.sentence_id

    def test_extract_triples_without_map_emits_no_normalization(self):
        triples = kgmod.extract_triples(decl_ir(entity="ctrl reg"))
        assert all(t.category != "normalization" for t in triples)


def full_sort_top(index, query, n):
    """Oracle for EmbeddingIndex.top_similar: sort every key by
    (-score, key)."""
    scores = index.matrix.astype(np.float64) @ np.asarray(query, dtype=np.float64)
    order = sorted(range(len(index.keys)), key=lambda i: (-scores[i], index.keys[i]))
    return [(index.keys[i], float(scores[i])) for i in order[:n]]


class TestTopSimilar:
    def test_matches_full_sort_with_ties_and_large_n(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((12, 8)).astype(np.float32)
        # every row appears three times, so scores tie in threes at every cut
        matrix = np.concatenate([rows, rows, rows])
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        keys = [f"k{i:02d}" for i in rng.permutation(len(matrix))]
        index = kgmod.EmbeddingIndex(keys, matrix, "test")
        for query in (rng.standard_normal(8), matrix[5], np.zeros(8)):
            for n in range(1, len(keys) + 3):  # n >= len(keys) included
                assert index.top_similar(query, n) == full_sort_top(index, query, n)

    def test_matrix_widened_once_per_index(self):
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((50, 16)).astype(np.float32)
        keys = [f"k{i:02d}" for i in range(50)]
        index = kgmod.EmbeddingIndex(keys, matrix, "test")
        plain = kgmod.EmbeddingIndex(keys, matrix, "test")
        widened = []
        astype = np.ndarray.astype

        class Counted(np.ndarray):
            def astype(self, *args, **kwargs):
                widened.append(args)
                return astype(np.asarray(self), *args, **kwargs)

        index.matrix = matrix.view(Counted)
        for _ in range(3):
            query = rng.standard_normal(16)
            assert index.top_similar(query, 50) == full_sort_top(plain, query, 50)
        assert len(widened) == 1
        index.matrix = plain.matrix = matrix[::-1].copy()  # widened again
        assert index.top_similar(query, 50) == full_sort_top(plain, query, 50)
        assert index.matrix.dtype == np.float32


def small_corpus():
    ir = proc_ir()
    return Corpus(doc_id="t", passages=[passage()], irs=[ir])


class TestBuildGraph:
    def test_counts_for_single_procedural_sentence(self):
        corpus = small_corpus()
        triples = kgmod.extract_corpus_triples(corpus)
        graph = kgmod.build_graph(corpus, triples)
        assert len(graph.passages) == 1
        assert len(graph.entities) >= 2  # fsm, idle, reset
        assert len(graph.statements) == 2  # backbone + auxiliary
        assert sum(e.kind == "link" for e in graph.edges) == 1
        kgmod.check_integrity(graph)

    def test_empty_triples_gives_passages_only(self):
        corpus = small_corpus()
        graph = kgmod.build_graph(corpus, [])
        assert len(graph.passages) == 1
        assert not graph.entities and not graph.statements and not graph.edges

    def test_duplicate_triples_collapse(self):
        corpus = small_corpus()
        triples = kgmod.extract_corpus_triples(corpus)
        graph = kgmod.build_graph(corpus, triples + triples)
        assert len(graph.statements) == 2

    def test_dangling_sentence_reference_rejected(self):
        corpus = small_corpus()
        bad = kgmod.make_triple("backbone", "x", "is", "y", "ghost:s9", False)
        with pytest.raises(CorpusInconsistent):
            kgmod.build_graph(corpus, [bad])

    def test_mention_edges_cover_trigger_entities(self):
        corpus = small_corpus()
        graph = kgmod.build_graph(corpus, kgmod.extract_corpus_triples(corpus))
        mention_srcs = {e.src for e in graph.edges if e.kind == "mention"}
        assert "e:fsm" in mention_srcs and "e:reset" in mention_srcs


def corpus_with_aliases():
    """Three surface forms of one register spread across three passages."""
    passages, irs = [], []
    forms = ["ctrl register", "ctrl reg", "ctrl register block"]
    for i, form in enumerate(forms):
        pid = f"p{i}"
        passages.append(Passage(passage_id=pid, doc_id="t", section_path=["S"],
                                text=f"The {form} sentence.", sentence_spans=[(0, 10)],
                                token_estimate=3))
        irs.append(SemanticIR(sentence_id=f"{pid}:s0", kind="declarative",
                              passage_id=pid, span=(0, 10), central_entity=form,
                              attributes=[{"name": "has", "value": f"feature {i}"}]))
    return Corpus(doc_id="t", passages=passages, irs=irs)


class TestNormalization:
    def test_alias_merge_rehomes_mentions(self):
        corpus = corpus_with_aliases()
        graph = kgmod.build_graph(corpus, kgmod.extract_corpus_triples(corpus))
        before_mentions = {(e.src, e.dst) for e in graph.edges if e.kind == "mention"}
        kgmod.apply_normalization(graph)
        kgmod.check_integrity(graph)
        # canonical node inherits every passage mention of every variant
        resolved = {(f"e:{graph.resolve_entity(src[2:])}", dst)
                    for src, dst in before_mentions}
        after = {(e.src, e.dst) for e in graph.edges if e.kind == "mention"}
        assert resolved <= after

    def test_component_count_drops_three_to_one(self):
        corpus = corpus_with_aliases()
        graph = kgmod.build_graph(corpus, kgmod.extract_corpus_triples(corpus))
        # brute-force component count before/after over the mention subgraph
        assert kgmod.mention_components(graph) == 3
        kgmod.apply_normalization(graph)
        assert kgmod.mention_components(graph) == 1

    def test_no_alias_triples_graph_unchanged(self):
        corpus = small_corpus()
        graph = kgmod.build_graph(corpus, kgmod.extract_corpus_triples(corpus))
        before = copy.deepcopy((graph.entities, graph.edges))
        kgmod.apply_normalization(graph)
        assert (graph.entities, graph.edges) == before

    def test_component_count_never_increases(self, corpus, offline_gateway):
        triples = kgmod.extract_corpus_triples(corpus)
        graph = kgmod.build_graph(corpus, triples)
        before = kgmod.mention_components(graph)
        kgmod.apply_normalization(graph)
        assert kgmod.mention_components(graph) <= before

    def test_alias_cycle_detected(self):
        corpus = small_corpus()
        graph = kgmod.build_graph(corpus, kgmod.extract_corpus_triples(corpus))
        src = corpus.irs[0].sentence_id
        cycle = [
            kgmod.make_triple("normalization", "a b", "canonical_form", "b c", src, True),
            kgmod.make_triple("normalization", "b c", "canonical_form", "a b", src, True),
        ]
        graph2 = kgmod.build_graph(corpus, kgmod.extract_corpus_triples(corpus) + cycle)
        with pytest.raises(NormalizationCycle):
            kgmod.apply_normalization(graph2)


class TestLinkingClosure:
    def test_every_link_edge_joins_same_sentence_tb_ta(self, graph):
        for edge in graph.edges:
            if edge.kind != "link":
                continue
            tb = graph.statements[edge.src[2:]]
            ta = graph.statements[edge.dst[2:]]
            assert tb.category == "backbone"
            assert ta.category == "auxiliary"
            assert tb.source == ta.source

    def test_cross_sentence_link_rejected(self):
        corpus = Corpus(doc_id="t", passages=[passage()],
                        irs=[proc_ir("p0:s0"), proc_ir("p0:s1", subject="PLL")])
        triples = []
        for ir in corpus.irs:
            triples.extend(kgmod.extract_triples(ir))
        tb = next(t for t in triples if t.category == "backbone" and t.subject == "fsm")
        ta = next(t for t in triples if t.category == "auxiliary" and t.source == "p0:s1")
        bad_link = kgmod.make_triple("linking", tb.triple_id, "qualified_by",
                                     ta.triple_id, tb.source, False)
        with pytest.raises(CorpusInconsistent):
            kgmod.build_graph(corpus, triples + [bad_link])


class TestPersistence:
    def test_round_trip_identical(self, graph, tmp_path):
        kgmod.save(graph, tmp_path / "store")
        loaded = kgmod.load(tmp_path / "store")
        assert set(loaded.passages) == set(graph.passages)
        assert loaded.entities == graph.entities
        assert set(loaded.triples) == set(graph.triples)
        assert sorted((e.kind, e.src, e.dst) for e in loaded.edges) == \
               sorted((e.kind, e.src, e.dst) for e in graph.edges)
        assert loaded.alias_map == graph.alias_map
        # anchors survive
        for pid, p in graph.passages.items():
            lp = loaded.passages[pid]
            assert (p.anchor is None) == (lp.anchor is None)
            if p.anchor:
                assert lp.anchor.to_dict() == p.anchor.to_dict()
        # embeddings bit-exact
        assert loaded.embeddings.keys == graph.embeddings.keys
        assert (loaded.embeddings.matrix == graph.embeddings.matrix).all()

    def test_truncated_store_rejected(self, graph, tmp_path):
        kgmod.save(graph, tmp_path / "store")
        emb = tmp_path / "store" / "embeddings.bin"
        emb.write_bytes(emb.read_bytes()[:20])
        with pytest.raises(CorruptStore):
            kgmod.load(tmp_path / "store")

    def test_newer_format_version_rejected(self, graph, tmp_path):
        kgmod.save(graph, tmp_path / "store")
        manifest_path = tmp_path / "store" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = kgmod.FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IncompatibleFormat):
            kgmod.load(tmp_path / "store")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(CorruptStore):
            kgmod.load(tmp_path)

    def test_tampered_graph_file_rejected(self, graph, tmp_path):
        kgmod.save(graph, tmp_path / "store")
        path = tmp_path / "store" / "graph.jsonl"
        path.write_text(path.read_text() + "\n")
        with pytest.raises(CorruptStore):
            kgmod.load(tmp_path / "store")


class TestDeterminism:
    def test_same_corpus_same_triple_ids(self, offline_gateway, fixture_document):
        from speckg.ingest import ingest_document
        c1 = ingest_document(offline_gateway, fixture_document, "serial_link_spec")
        c2 = ingest_document(offline_gateway, fixture_document, "serial_link_spec")
        t1 = {t.triple_id for t in kgmod.extract_corpus_triples(c1)}
        t2 = {t.triple_id for t in kgmod.extract_corpus_triples(c2)}
        assert t1 == t2

    def test_fixture_graph_has_expected_aliases(self, graph):
        assert graph.alias_map == {
            "controller": "serial link controller",
            "ctrl": "ctrl register",
            "imask": "imask register",
            "loop_en": "loop_en bit",
            "tx level reg": "tx level register",
        }
        # "baud" has two plausible containers (register and rate generator),
        # so the ambiguity guard must leave it alone
        assert "baud" not in graph.alias_map

    def test_zero_dangling_endpoints_full_scan(self, graph):
        kgmod.check_integrity(graph)
        for edge in graph.edges:
            assert graph.node_exists(edge.src)
            assert graph.node_exists(edge.dst)
