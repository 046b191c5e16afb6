import hashlib
import json
import struct
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speckg import kg as kgmod
from speckg.cli import main
from speckg.errors import (CorpusInconsistent, CorruptStore, IncompatibleFormat,
                           NormalizationCycle)
from speckg.ingest import Corpus, Passage, SemanticAnchor, SemanticIR, ingest_document

from conftest import load_manual_module, make_offline_gateway, mention_components

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
# tokens and words that abbreviate each other. For the bisected candidate
# range: first tokens that are prefixes of other first tokens ("re", "c",
# "st.."), lone and doubled dots, and the empty entity (no tokens).
_VOCAB = ["st.", "status", "stat", "b.", "bit", "bits", "ctl", "ctrl", "control",
          "controller", "reg", "register", "regs", "tx", "t", "s", "s.", "x",
          "fifo", "fi", "en", "enable", "enabled", "re", "reg.", "c", "st..",
          ".", "..", "cfg1_reg", "cfg10_reg", "cfg1_reg."]
_ENTITY = st.lists(st.sampled_from(_VOCAB), min_size=0, max_size=4).map(" ".join)


class TestAliasRules:
    @given(st.lists(_ENTITY, max_size=25))
    @settings(max_examples=300, deadline=None)
    @example(["", ".", "..", ". reg", ".. reg", "re", "reg", "register", "regs",
              "reg.", "c", "ctl", "ctrl", "st.. x", "st. x", "status x"])
    @example(["cfg1_reg", "cfg10_reg", "cfg1_reg.", "cfg1_reg. bit", "cfg1_register bit"])
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
        # one normalization triple per aliased backbone subject, citing the
        # sentence that first names it, after every per-sentence triple
        triples = kgmod.extract_corpus_triples(corpus_with_aliases())
        norms = [(t.subject, t.predicate, t.object, t.source)
                 for t in triples if t.category == "normalization"]
        assert norms == [
            ("ctrl register", "canonical_form", "ctrl register block", "p0:s0"),
            ("ctrl reg", "canonical_form", "ctrl register", "p1:s0"),
        ]
        assert all(t.category == "normalization" for t in triples[-2:])

    def test_normalization_cites_first_naming_sentence_even_as_object(self):
        irs = [decl_ir("p0:s0", entity="host block", attrs=[{"name": "drives", "value": "ctrl reg"}]),
               decl_ir("p1:s0", entity="ctrl reg", attrs=[{"name": "has", "value": "feature 1"}]),
               decl_ir("p2:s0", entity="ctrl register", attrs=[{"name": "has", "value": "feature 2"}])]
        corpus = Corpus(doc_id="t", passages=[passage(f"p{i}") for i in range(3)], irs=irs)
        norms = [t for t in kgmod.extract_corpus_triples(corpus) if t.category == "normalization"]
        assert [(t.subject, t.object, t.source) for t in norms] == [
            ("ctrl reg", "ctrl register", "p0:s0")]

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
        plain = kgmod.EmbeddingIndex(keys, matrix, "test")
        widened = []
        astype = np.ndarray.astype

        class Counted(np.ndarray):
            def astype(self, *args, **kwargs):
                widened.append(args)
                return astype(np.asarray(self), *args, **kwargs)

        for rows in (matrix, matrix[::-1].copy()):  # each index widens its own
            index = kgmod.EmbeddingIndex(keys, rows.view(Counted), "test")
            oracle = kgmod.EmbeddingIndex(keys, rows, "test")
            for _ in range(3):
                query = rng.standard_normal(16)
                assert index.top_similar(query, 50) == full_sort_top(oracle, query, 50)
        assert len(widened) == 2
        assert index.matrix.dtype == plain.matrix.dtype == np.float32


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
        merged = kgmod.apply_normalization(graph)
        kgmod.check_integrity(merged)
        # canonical node inherits every passage mention of every variant
        resolved = {(f"e:{merged.resolve_entity(src[2:])}", dst)
                    for src, dst in before_mentions}
        after = {(e.src, e.dst) for e in merged.edges if e.kind == "mention"}
        assert resolved <= after and resolved != before_mentions
        # the input graph is left as it was
        assert {(e.src, e.dst) for e in graph.edges if e.kind == "mention"} == before_mentions

    def test_component_count_drops_three_to_one(self):
        corpus = corpus_with_aliases()
        graph = kgmod.build_graph(corpus, kgmod.extract_corpus_triples(corpus))
        # brute-force component count before/after over the mention subgraph
        assert mention_components(graph) == 3
        assert mention_components(kgmod.apply_normalization(graph)) == 1
        assert mention_components(graph) == 3

    def test_no_alias_triples_graph_unchanged(self):
        corpus = small_corpus()
        graph = kgmod.build_graph(corpus, kgmod.extract_corpus_triples(corpus))
        normalized = kgmod.apply_normalization(graph)
        assert (normalized.entities, normalized.edges, normalized.alias_map) == \
               (graph.entities, graph.edges, {})

    def test_component_count_never_increases(self, corpus, offline_gateway):
        triples = kgmod.extract_corpus_triples(corpus)
        graph = kgmod.build_graph(corpus, triples)
        merged = kgmod.apply_normalization(graph)
        assert merged.alias_map  # the fixture spec has aliases to merge
        assert mention_components(merged) <= mention_components(graph)

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

    @pytest.mark.parametrize("names", [(), ("graph.jsonl",), ("embeddings.bin",),
                                       ("graph.jsonl", "embeddings.bin", "extra.bin")],
                             ids=["none", "graph-only", "embeddings-only", "extra-name"])
    def test_manifest_must_checksum_both_files(self, graph, tmp_path, names):
        # a file the manifest does not checksum would load unchecked
        store = tmp_path / "store"
        kgmod.save(graph, store)
        manifest = json.loads((store / "manifest.json").read_text())
        manifest["checksums"] = {name: manifest["checksums"].get(name, "0" * 64)
                                 for name in names}
        (store / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CorruptStore):
            kgmod.load(store)

    @pytest.mark.parametrize("case", ["missing", "beyond-the-matrix", "huge-header"])
    def test_embedding_rows_must_match_the_matrix(self, graph, tmp_path, case):
        # every row of embeddings.bin is named by one record, and no record
        # names a row it lacks; a header claiming 2**32 - 1 empty rows is
        # refused before anything is built from that count
        store = tmp_path / "store"
        kgmod.save(graph, store)
        if case == "missing":
            edit_graph_file(store, lambda records: [
                r for r in records if r.get("key") != sorted(graph.entities)[0]])
        elif case == "huge-header":
            rehash_store_file(store, "embeddings.bin", struct.pack("<II", 0, 2**32 - 1))
        else:
            edit_graph_file(store, lambda records: records + [
                {"type": "entity", "key": "zz extra",
                 "embedding_row": len(graph.embeddings.keys)}])
        with pytest.raises(CorruptStore, match="rows once"):
            kgmod.load(store)

    def test_missing_embedding_row_is_a_cli_error(self, graph, tmp_path, capsys):
        # the store a query reads names no entity for one embedding row
        store = tmp_path / "store"
        kgmod.save(graph, store)
        edit_graph_file(store, lambda records: [r for r in records
                                                if r.get("key") != sorted(graph.entities)[0]])
        assert main(["query", "--kg", str(store), "--question", "What is BAUD?"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_record_without_type_rejected(self, graph, tmp_path):
        store = tmp_path / "store"
        kgmod.save(graph, store)
        edit_graph_file(store, lambda records: [
            {k: v for k, v in r.items() if k != "type"} if i == 3 else r
            for i, r in enumerate(records)])
        with pytest.raises(CorruptStore):
            kgmod.load(store)

    @pytest.mark.parametrize("kind,field", [
        ("passage", "text"), ("passage", "embedding_row"), ("entity", "key"),
        ("triple", "predicate"), ("edge", "dst"), ("alias", "canonical")])
    def test_record_with_missing_field_rejected(self, graph, tmp_path, kind, field):
        store = tmp_path / "store"
        kgmod.save(graph, store)

        def drop(records):
            first = next(i for i, r in enumerate(records) if r["type"] == kind)
            del records[first][field]
            return records

        edit_graph_file(store, drop)
        with pytest.raises(CorruptStore):
            kgmod.load(store)

    @pytest.mark.parametrize("bad", [
        b'{"type": "edge", "kind": "mention",',  # a truncated record
        b"",  # a blank line
        None,  # the line's record twice on it, parted by a comma
        b'[1, 2]',  # not an object
        b'{"type": "alias", "variant": "\xff", "canonical": "b"}',  # not UTF-8
    ], ids=["truncated", "blank", "two-records", "not-an-object", "not-utf8"])
    def test_line_that_is_not_one_json_record_rejected(self, graph, tmp_path, bad):
        store = tmp_path / "store"
        kgmod.save(graph, store)
        path = store / "graph.jsonl"
        lines = path.read_bytes().split(b"\n")
        lines[5] = lines[5] + b", " + lines[5] if bad is None else bad
        rehash_store_file(store, "graph.jsonl", b"\n".join(lines))
        with pytest.raises(CorruptStore):
            kgmod.load(store)


def rehash_store_file(store: Path, name: str, data: bytes) -> None:
    """Replace a store file's bytes and give the manifest their checksum."""
    (store / name).write_bytes(data)
    manifest = json.loads((store / "manifest.json").read_text())
    manifest["checksums"][name] = hashlib.sha256(data).hexdigest()
    (store / "manifest.json").write_text(json.dumps(manifest))


def edit_graph_file(store: Path, edit) -> None:
    """Rewrite graph.jsonl's records through ``edit``, checksummed anew."""
    lines = (store / "graph.jsonl").read_text(encoding="utf-8").splitlines()
    records = edit([json.loads(line) for line in lines])
    rehash_store_file(store, "graph.jsonl",
                      "".join(json.dumps(r) + "\n" for r in records).encode())


def line_by_line_save(kg, out_dir: Path) -> None:
    """Oracle for kg.save's bytes: one json.dumps and one write per record,
    then each file read back to hash it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = kg.embeddings
    row_of = {key: i for i, key in enumerate(index.keys)} if index else {}
    graph_path = out / "graph.jsonl"
    with open(graph_path, "w", encoding="utf-8") as fh:
        for pid in sorted(kg.passages):
            record = {"type": "passage", **kg.passages[pid].to_dict(),
                      "embedding_row": row_of.get(kgmod.passage_key(pid))}
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        for entity in sorted(kg.entities):
            record = {"type": "entity", "key": entity,
                      "embedding_row": row_of.get(kgmod.entity_key(entity))}
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        for tid in sorted(kg.triples):
            record = {"type": "triple", **kg.triples[tid].to_dict()}
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        for edge in sorted(kg.edges, key=lambda e: (e.kind, e.src, e.dst)):
            record = {"type": "edge", "kind": edge.kind, "src": edge.src, "dst": edge.dst}
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        for variant in sorted(kg.alias_map):
            record = {"type": "alias", "variant": variant,
                      "canonical": kg.alias_map[variant]}
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
    emb_path = out / "embeddings.bin"
    if index is None or len(index.keys) == 0:
        dim, rows, payload = 0, 0, b""
    else:
        matrix = np.ascontiguousarray(index.matrix, dtype="<f4")
        rows, dim = matrix.shape
        payload = matrix.tobytes(order="C")
    with open(emb_path, "wb") as fh:
        fh.write(struct.pack("<II", dim, rows))
        fh.write(payload)
    manifest = {
        "format_version": kgmod.FORMAT_VERSION,
        "embedding_model": index.model_id if index else None,
        "counts": {
            "passages": len(kg.passages),
            "entities": len(kg.entities),
            "statements": len(kg.statements),
            "triples": len(kg.triples),
            "edges": len(kg.edges),
        },
        "checksums": {
            "graph.jsonl": kgmod.sha256_file(graph_path),
            "embeddings.bin": kgmod.sha256_file(emb_path),
        },
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def line_by_line_corpus_save(corpus, out_dir: Path) -> None:
    """Oracle for Corpus.save's bytes: one json.dumps and one write per record."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "passages.jsonl", "w", encoding="utf-8") as fh:
        for p in corpus.passages:
            fh.write(json.dumps(p.to_dict(), ensure_ascii=False) + "\n")
    with open(out / "ir.jsonl", "w", encoding="utf-8") as fh:
        for ir in corpus.irs:
            fh.write(json.dumps(ir.to_dict(), ensure_ascii=False) + "\n")


STORE_FILES = ("graph.jsonl", "embeddings.bin", "manifest.json", "passages.jsonl", "ir.jsonl")


@pytest.fixture(scope="module", params=["fixture-spec", "manual-30"])
def built(request, corpus, graph):
    """A corpus and its graph: the fixture spec's, or the 30-block benchmark
    manual's."""
    if request.param == "fixture-spec":
        return corpus, graph
    gateway = make_offline_gateway()
    manual = ingest_document(gateway, load_manual_module().generate(0, 30).text, "regmanual")
    return manual, kgmod.build_from_corpus(manual, gateway)


class TestSaveOracle:
    def test_files_match_the_line_by_line_save(self, built, tmp_path):
        corpus, graph = built
        corpus.save(tmp_path / "new")
        kgmod.save(graph, tmp_path / "new")
        line_by_line_corpus_save(corpus, tmp_path / "old")
        line_by_line_save(graph, tmp_path / "old")
        for name in STORE_FILES:
            assert (tmp_path / "new" / name).read_bytes() == \
                   (tmp_path / "old" / name).read_bytes(), name

    def test_line_by_line_store_loads_whole(self, built, tmp_path):
        # a store as the line-by-line save wrote it loads as the graph it holds
        _corpus, graph = built
        line_by_line_save(graph, tmp_path / "old")
        loaded = kgmod.load(tmp_path / "old")
        assert loaded.passages == graph.passages
        assert loaded.entities == graph.entities
        assert loaded.triples == graph.triples
        assert loaded.statements == graph.statements
        assert loaded.edges == graph.edges
        assert loaded.alias_map == graph.alias_map
        assert loaded.embeddings.keys == graph.embeddings.keys
        assert loaded.embeddings.matrix.tobytes() == graph.embeddings.matrix.tobytes()

    def test_empty_graph_round_trips(self, tmp_path):
        kgmod.save(kgmod.SpecGraph(), tmp_path / "new")
        line_by_line_save(kgmod.SpecGraph(), tmp_path / "old")
        for name in ("graph.jsonl", "embeddings.bin", "manifest.json"):
            assert (tmp_path / "new" / name).read_bytes() == \
                   (tmp_path / "old" / name).read_bytes()
        loaded = kgmod.load(tmp_path / "new")
        assert not loaded.passages and not loaded.edges and loaded.embeddings.keys == ()


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


class TestReadOnly:
    """A graph never changes once built or loaded: every edit raises, so no
    caller can leave a graph's cached walk out of date."""

    @pytest.mark.parametrize("source", ["built", "loaded"])
    def test_every_edit_raises(self, graph, tmp_path, source):
        if source == "loaded":
            kgmod.save(graph, tmp_path)
            graph = kgmod.load(tmp_path)
        before = (len(graph.edges), len(graph.entities), dict(graph.passages),
                  dict(graph.alias_map), graph.embeddings.matrix.tobytes())
        pid = sorted(graph.passages)[0]
        with pytest.raises(AttributeError):
            graph.edges.append(graph.edges[0])
        with pytest.raises(AttributeError):
            graph.entities.add("new entity")
        with pytest.raises(TypeError):
            graph.passages[pid] = graph.passages[pid]
        with pytest.raises(TypeError):
            graph.alias_map["new variant"] = "ctrl register"
        with pytest.raises(TypeError):
            graph.statements["new"] = graph.triples[sorted(graph.triples)[0]]
        for name in ("passages", "entities", "triples", "edges", "alias_map",
                     "embeddings", "statements"):
            with pytest.raises(FrozenInstanceError):
                setattr(graph, name, None)
        with pytest.raises(FrozenInstanceError):
            graph.embeddings.keys = ()
        with pytest.raises(ValueError, match="read-only"):
            graph.embeddings.matrix[0] = 0.0
        with pytest.raises(FrozenInstanceError):
            graph.passages[pid].anchor = SemanticAnchor("declarative", "new entity")
        with pytest.raises(AttributeError):
            graph.passages[pid].section_path.append("new section")
        with pytest.raises(AttributeError):
            graph.passages[pid].sentence_spans.append((0, 1))
        assert before == (len(graph.edges), len(graph.entities), dict(graph.passages),
                          dict(graph.alias_map), graph.embeddings.matrix.tobytes())

    def test_a_graph_keeps_no_handle_of_its_caller(self):
        # what the constructor is given is copied, so editing it later leaves
        # the graph as it was built
        passages = {"p0": passage()}
        alias_map = {"ctrl": "ctrl register"}
        entities, edges = {"fsm"}, [kgmod.Edge("mention", "e:fsm", "p:p0")]
        graph = kgmod.SpecGraph(passages=passages, entities=entities, edges=edges,
                                alias_map=alias_map)
        passages["p1"] = passage("p1")
        alias_map["tx"] = "tx register"
        entities.add("idle")
        edges.append(kgmod.Edge("mention", "e:idle", "p:p1"))
        assert list(graph.passages) == ["p0"] and graph.alias_map == {"ctrl": "ctrl register"}
        assert graph.entities == {"fsm"} and len(graph.edges) == 1

    def test_a_passage_keeps_no_handle_of_its_caller(self):
        section, spans = ["S"], [[0, 4]]
        built = Passage(passage_id="p0", doc_id="t", section_path=section, text="Text.",
                        sentence_spans=spans, token_estimate=1)
        section.append("T")
        spans[0][1] = 2
        assert built.section_path == ("S",) and built.sentence_spans == ((0, 4),)
