"""Knowledge graph over a specification corpus.

Sentence parses become four categories of triples:

* backbone: the central action or definition of an entity
* auxiliary: conditional/temporal clauses qualifying a backbone action
* linking: backbone-to-auxiliary dependency (endpoints are reified
  statement nodes so the link is addressable)
* normalization: alias edges mapping entity surface variants onto their
  canonical forms

The assembled graph holds entity, passage, and statement nodes plus a flat
typed edge list and an exact-scan embedding index. Node keys are prefixed
("e:", "p:", "s:") so the three key spaces cannot collide. A graph is built
whole and never changes: each builder returns a new one.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import re
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .errors import (CorpusInconsistent, CorruptStore, EmptyGraph,
                     IncompatibleFormat, InvalidInput, NormalizationCycle)
from .gateway import Gateway
from .ingest import Corpus, Passage, SemanticIR
from .text import canonical_entity

FORMAT_VERSION = 1

BACKBONE = "backbone"
AUXILIARY = "auxiliary"
LINKING = "linking"
NORMALIZATION = "normalization"
CATEGORIES = (BACKBONE, AUXILIARY, LINKING, NORMALIZATION)

_LITERAL_RE = re.compile(r"^(0x[0-9a-f]+|[0-9]+(\.[0-9]+)?|true|false|high|low|\".*\")$")


def entity_key(canonical: str) -> str:
    return f"e:{canonical}"


def passage_key(passage_id: str) -> str:
    return f"p:{passage_id}"


def statement_key(triple_id: str) -> str:
    return f"s:{triple_id}"


def is_literal(value: str) -> bool:
    return not value or _LITERAL_RE.match(value.strip().lower()) is not None


@dataclass(frozen=True)
class Triple:
    triple_id: str
    category: str
    subject: str          # canonical entity, or a triple_id for linking triples
    predicate: str
    object: str           # canonical entity, literal, or triple_id
    object_is_entity: bool
    source: str           # sentence_id

    @property
    def is_statement(self) -> bool:
        """Whether the triple is a statement node of the graph: a backbone or
        auxiliary triple."""
        return self.category in (BACKBONE, AUXILIARY)

    def to_dict(self) -> dict:
        return {
            "triple_id": self.triple_id,
            "category": self.category,
            "subject": self.subject,
            "predicate": self.predicate,
            "object": self.object,
            "object_is_entity": self.object_is_entity,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Triple":
        return cls(**data)


def make_triple(category: str, subject: str, predicate: str, obj: str,
                source: str, object_is_entity: bool) -> Triple:
    if category not in CATEGORIES:
        raise InvalidInput(f"unknown triple category {category!r}")
    blob = f"{category}|{subject}|{predicate}|{obj}|{source}"
    tid = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]
    return Triple(tid, category, subject, predicate, obj, object_is_entity, source)


@dataclass(frozen=True)
class Edge:
    kind: str  # mention | subject | object | link | alias
    src: str
    dst: str


# --- triple extraction ---------------------------------------------------------

def _aux_triple(clause: str, source: str, suffix: str) -> Triple:
    """Clause "reset asserted" becomes (reset, asserted-when, true).

    The final token is read as the state predicate, the rest as the entity;
    single-token clauses fall back to the "active" predicate.
    """
    words = clause.split()
    if len(words) >= 2:
        entity = canonical_entity(" ".join(words[:-1]))
        state = words[-1].lower().strip(",.;")
    else:
        entity = canonical_entity(clause)
        state = "active"
    return make_triple(AUXILIARY, entity, f"{state}-{suffix}", "true", source,
                       object_is_entity=False)


def extract_triples(ir: SemanticIR) -> list[Triple]:
    """Triples for one sentence parse.

    Declarative parses yield one backbone per attribute; procedural parses
    yield one backbone for the action, one auxiliary per trigger/condition
    clause, and one linking triple per (backbone, auxiliary) pair.
    """
    triples: list[Triple] = []
    if ir.kind == "declarative":
        subject = canonical_entity(ir.central_entity)
        for attr in ir.attributes:
            value = attr["value"].strip()
            literal = is_literal(value)
            obj = value if literal else canonical_entity(value)
            triples.append(make_triple(BACKBONE, subject, attr["name"], obj,
                                       ir.sentence_id, object_is_entity=not literal))
    else:
        subject = canonical_entity(ir.action["subject"])
        obj_raw = ir.action.get("object", "").strip()
        if not obj_raw:
            obj, literal = "true", True
        else:
            literal = is_literal(obj_raw)
            obj = obj_raw if literal else canonical_entity(obj_raw)
        backbone = make_triple(BACKBONE, subject, ir.action["verb"], obj,
                               ir.sentence_id, object_is_entity=not literal)
        triples.append(backbone)
        aux: list[Triple] = []
        if ir.trigger:
            aux.append(_aux_triple(ir.trigger, ir.sentence_id, "when"))
        if ir.condition:
            aux.append(_aux_triple(ir.condition, ir.sentence_id, "if"))
        triples.extend(aux)
        for a in aux:
            triples.append(make_triple(LINKING, backbone.triple_id, "qualified_by",
                                       a.triple_id, ir.sentence_id,
                                       object_is_entity=False))
    return triples


def _abbreviates(token: str, full: str) -> bool:
    if token == full:
        return False
    if token.endswith("."):
        stem = token[:-1]
        return len(stem) >= 2 and full.startswith(stem)
    return len(token) >= 3 and len(token) < len(full) and full.startswith(token)


def _is_abbreviation(variant: list[str], full: list[str]) -> bool:
    if len(variant) != len(full):
        return False
    shorter = sum(len(t) for t in variant) < sum(len(t) for t in full)
    if not shorter:
        return False
    strict = False
    for a, b in zip(variant, full):
        if a == b:
            continue
        if _abbreviates(a, b):
            strict = True
        else:
            return False
    return strict


def compute_alias_map(entities: Iterable[str]) -> dict[str, str]:
    """Variant → canonical mapping over canonicalized corpus entities.

    A variant maps only when its target is unique: fragments (strict
    contiguous token subsequence of a longer entity) and abbreviations
    (token-wise shortened forms) with two or more plausible expansions are
    left alone to avoid false merges.
    """
    ents = sorted(set(entities))
    tokens = {e: e.split() for e in ents}
    # Every contiguous token n-gram shorter than an entity, the empty one
    # included, maps to the entities containing it: the fragment targets.
    containers: dict[tuple[str, ...], set[str]] = {}
    # An abbreviation's expansion has the same token count, and its first
    # token starts with the abbreviation's first token, less a final ".". So
    # entities are grouped by token count and sorted by first token, and the
    # expansions of a variant lie in one bisected run of its group.
    by_count: dict[int, list[tuple[str, str]]] = {}
    for e in ents:
        toks = tokens[e]
        for n in range(len(toks)):
            for i in range(len(toks) - n + 1):
                containers.setdefault(tuple(toks[i:i + n]), set()).add(e)
        if toks:
            by_count.setdefault(len(toks), []).append((toks[0], e))
    for group in by_count.values():
        group.sort()
    aliases: dict[str, str] = {}
    for e in ents:
        toks = tokens[e]
        targets = set(containers.get(tuple(toks), ()))
        if toks:
            stem = toks[0][:-1] if toks[0].endswith(".") else toks[0]
            group = by_count[len(toks)]
            i = bisect.bisect_left(group, stem, key=lambda pair: pair[0])
            while i < len(group) and group[i][0].startswith(stem):
                other = group[i][1]
                if _is_abbreviation(toks, tokens[other]):
                    targets.add(other)
                i += 1
        if len(targets) == 1:
            aliases[e] = targets.pop()
    return aliases


def extract_corpus_triples(corpus: Corpus) -> list[Triple]:
    """Per-sentence triples, then one normalization triple per aliased entity.

    Alias candidates are restricted to backbone subjects, the entities the
    document is about. One-off object phrases would otherwise swallow real
    entities through the fragment rule. An aliased entity's normalization
    triple cites the first sentence that names it.
    """
    base = [t for ir in corpus.irs for t in extract_triples(ir)]
    alias_map = compute_alias_map(t.subject for t in base if t.category == BACKBONE)
    triples: dict[str, Triple] = {t.triple_id: t for t in base}
    emitted: set[str] = set()
    for t in base:
        if t.category not in (BACKBONE, AUXILIARY):
            continue
        for entity in (t.subject, t.object) if t.object_is_entity else (t.subject,):
            target = alias_map.get(entity)
            if target and entity not in emitted:
                emitted.add(entity)
                norm = make_triple(NORMALIZATION, entity, "canonical_form", target,
                                   t.source, object_is_entity=True)
                triples[norm.triple_id] = norm
    return list(triples.values())


# --- graph -----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EmbeddingIndex:
    """Unit embedding rows by node key. It never changes: the index holds its
    keys as a tuple and a read-only view of its matrix."""

    keys: tuple[str, ...]
    matrix: np.ndarray  # float32, unit rows
    model_id: str

    def __post_init__(self):
        object.__setattr__(self, "keys", tuple(self.keys))
        if self.matrix.flags.writeable:
            matrix = self.matrix.view()
            matrix.flags.writeable = False
            object.__setattr__(self, "matrix", matrix)

    @cached_property
    def _wide(self) -> np.ndarray:
        """The matrix widened to float64 for scoring, on the first query; never
        saved."""
        return self.matrix.astype(np.float64)

    @cached_property
    def _key_rank(self) -> np.ndarray:
        """Each row's key's position in sorted key order, on the first query;
        never saved."""
        order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
        rank = np.empty(len(order), dtype=np.intp)
        rank[order] = np.arange(len(order))
        return rank

    def top_similar(self, query: np.ndarray, n: int) -> list[tuple[str, float]]:
        """The ``n`` keys most similar to ``query``, with their scores: by
        score, descending, then by key."""
        if len(self.keys) == 0:
            raise EmptyGraph("embedding index is empty")
        scores = self._wide @ np.asarray(query, dtype=np.float64)
        count = len(self.keys)
        candidates = np.arange(count)
        if 0 < n < count:
            # Everything scoring at least the n-th largest score, so that
            # ties at the cut are still ordered by key.
            cut = np.partition(scores, count - n)[count - n]
            candidates = np.flatnonzero(scores >= cut)
        order = candidates[np.lexsort((self._key_rank[candidates], -scores[candidates]))][:n]
        return list(zip([self.keys[i] for i in order.tolist()], scores[order].tolist()))


@dataclass(frozen=True, eq=False)
class SpecGraph:
    """A graph built whole that never changes, so what is derived from it,
    such as its PageRank walk, stays valid for its lifetime. Its containers
    are read-only: entities a frozenset, edges a tuple, the mappings behind
    ``MappingProxyType``. Graphs compare by identity."""

    passages: Mapping[str, Passage] = field(default_factory=dict)
    entities: frozenset[str] = frozenset()
    triples: Mapping[str, Triple] = field(default_factory=dict)
    edges: tuple[Edge, ...] = ()
    alias_map: Mapping[str, str] = field(default_factory=dict)
    embeddings: EmbeddingIndex | None = None

    def __post_init__(self):
        # A container another graph froze is shared as it is; any other is
        # copied once, so no caller keeps a handle that edits the graph.
        for name in ("passages", "triples", "alias_map"):
            value = getattr(self, name)
            if not isinstance(value, MappingProxyType):
                object.__setattr__(self, name, MappingProxyType(dict(value)))
        object.__setattr__(self, "entities", frozenset(self.entities))
        object.__setattr__(self, "edges", tuple(self.edges))

    @cached_property
    def statements(self) -> Mapping[str, Triple]:
        """The statement nodes: the triples that are statements, by id."""
        return MappingProxyType({tid: t for tid, t in self.triples.items()
                                 if t.is_statement})

    @cached_property
    def resolved_anchors(self) -> Mapping[str, tuple[str, str]]:
        """Each anchored passage's anchor type and alias-resolved entity, by
        passage id."""
        return MappingProxyType({
            pid: (p.anchor.anchor_type, self.resolve_entity(p.anchor.entity))
            for pid, p in self.passages.items() if p.anchor is not None})

    def node_exists(self, key: str) -> bool:
        space, _, name = key.partition(":")
        if space == "e":
            return name in self.entities
        if space == "p":
            return name in self.passages
        if space == "s":
            return name in self.statements
        return False

    def all_node_keys(self) -> list[str]:
        return (
            [entity_key(e) for e in sorted(self.entities)]
            + [passage_key(p) for p in sorted(self.passages)]
            + [statement_key(s) for s in sorted(self.statements)]
        )

    def resolve_entity(self, surface: str) -> str:
        """Canonical entity after alias resolution through the normalization map."""
        key = canonical_entity(surface)
        seen = set()
        while key in self.alias_map and key not in seen:
            seen.add(key)
            key = self.alias_map[key]
        return key


def build_graph(corpus: Corpus, triples: list[Triple]) -> SpecGraph:
    """Assemble nodes and edges; raises CorpusInconsistent on dangling refs."""
    sentence_ids = {ir.sentence_id for ir in corpus.irs}
    passages = {passage.passage_id: passage for passage in corpus.passages}

    by_id: dict[str, Triple] = {}
    for t in triples:
        if t.source not in sentence_ids:
            raise CorpusInconsistent(f"triple {t.triple_id} references unknown sentence {t.source!r}")
        by_id[t.triple_id] = t

    entities: set[str] = set()
    edges: set[Edge] = set()
    for t in by_id.values():
        if t.is_statement:
            entities.add(t.subject)
            edges.add(Edge("subject", entity_key(t.subject), statement_key(t.triple_id)))
            if t.object_is_entity:
                entities.add(t.object)
                edges.add(Edge("object", statement_key(t.triple_id), entity_key(t.object)))
        elif t.category == NORMALIZATION:
            entities.add(t.subject)
            entities.add(t.object)
            edges.add(Edge("alias", entity_key(t.subject), entity_key(t.object)))

    for t in by_id.values():
        if t.category != LINKING:
            continue
        tb = by_id.get(t.subject)
        ta = by_id.get(t.object)
        if tb is None or ta is None:
            raise CorpusInconsistent(f"linking triple {t.triple_id} has a missing endpoint")
        if tb.category != BACKBONE or ta.category != AUXILIARY:
            raise CorpusInconsistent(
                f"linking triple {t.triple_id} must join backbone to auxiliary"
            )
        if tb.source != ta.source:
            raise CorpusInconsistent(
                f"linking triple {t.triple_id} joins statements from different sentences"
            )
        edges.add(Edge("link", statement_key(t.subject), statement_key(t.object)))

    # Mention edges: every entity referenced by a passage's parses touches it.
    ir_by_sentence = {ir.sentence_id: ir for ir in corpus.irs}
    for t in by_id.values():
        if not t.is_statement:
            continue
        ir = ir_by_sentence.get(t.source)
        if ir is None:
            continue
        pid = ir.passage_id
        if pid not in passages:
            raise CorpusInconsistent(f"IR {ir.sentence_id} references unknown passage {pid!r}")
        edges.add(Edge("mention", entity_key(t.subject), passage_key(pid)))
        if t.object_is_entity:
            edges.add(Edge("mention", entity_key(t.object), passage_key(pid)))

    return SpecGraph(passages=passages, entities=entities, triples=by_id,
                     edges=sorted(edges, key=lambda e: (e.kind, e.src, e.dst)))


def apply_normalization(kg: SpecGraph) -> SpecGraph:
    """A new graph with alias-connected entities merged onto their canonical
    nodes; ``kg`` itself is returned when it has no alias edge.

    All incident edges are rehomed (never dropped, only deduplicated after
    rewriting); variant nodes disappear; the resolution map survives on the
    graph for anchor compatibility checks.
    """
    alias: dict[str, str] = {}
    for edge in kg.edges:
        if edge.kind == "alias":
            alias[edge.src[2:]] = edge.dst[2:]
    if not alias:
        return kg

    def resolve(node: str) -> str:
        path = [node]
        seen = {node}
        while path[-1] in alias:
            nxt = alias[path[-1]]
            if nxt in seen:
                raise NormalizationCycle(path + [nxt])
            seen.add(nxt)
            path.append(nxt)
        return path[-1]

    resolution = {variant: resolve(variant) for variant in alias}

    def rewrite(key: str) -> str:
        if key.startswith("e:") and key[2:] in resolution:
            return entity_key(resolution[key[2:]])
        return key

    new_edges: set[Edge] = set()
    for edge in kg.edges:
        if edge.kind == "alias":
            continue
        new_edges.add(Edge(edge.kind, rewrite(edge.src), rewrite(edge.dst)))
    return replace(kg, edges=sorted(new_edges, key=lambda e: (e.kind, e.src, e.dst)),
                   entities={resolution.get(e, e) for e in kg.entities},
                   alias_map={**kg.alias_map, **resolution})


def compute_embeddings(kg: SpecGraph, gateway: Gateway) -> SpecGraph:
    """A new graph: ``kg`` with an index embedding all passages (full text)
    and entities (canonical surface form)."""
    keys = [passage_key(p) for p in sorted(kg.passages)]
    texts = [kg.passages[p].text for p in sorted(kg.passages)]
    keys += [entity_key(e) for e in sorted(kg.entities)]
    texts += sorted(kg.entities)
    if not keys:
        matrix = np.zeros((0, 0), dtype=np.float32)
    else:
        matrix = gateway.embed(texts).astype(np.float32)
    return replace(kg, embeddings=EmbeddingIndex(keys, matrix, gateway.embedding_model))


def check_integrity(kg: SpecGraph) -> None:
    """Full-scan structural assertions; raises CorpusInconsistent on violation."""
    for edge in kg.edges:
        for key in (edge.src, edge.dst):
            if not kg.node_exists(key):
                raise CorpusInconsistent(f"dangling edge endpoint {key!r} ({edge.kind})")
    for t in kg.triples.values():
        if t.category == LINKING:
            tb = kg.statements.get(t.subject)
            ta = kg.statements.get(t.object)
            if tb is None or ta is None or tb.category != BACKBONE or ta.category != AUXILIARY:
                raise CorpusInconsistent(f"linking triple {t.triple_id} endpoints invalid")
            if tb.source != ta.source:
                raise CorpusInconsistent(f"linking triple {t.triple_id} spans sentences")


def build_from_corpus(corpus: Corpus, gateway: Gateway) -> SpecGraph:
    """Standard pipeline: extract, assemble, normalize, embed, verify."""
    triples = extract_corpus_triples(corpus)
    kg = build_graph(corpus, triples)
    kg = apply_normalization(kg)
    kg = compute_embeddings(kg, gateway)
    check_integrity(kg)
    return kg


# --- persistence -------------------------------------------------------------------

# graph.jsonl's record encoder, made once
_GRAPH_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def save(kg: SpecGraph, out_dir: str | Path) -> None:
    """Write graph.jsonl + embeddings.bin + manifest.json (canonical order).

    graph.jsonl is encoded whole and written in one call, and each manifest
    checksum is taken from the bytes written rather than read back.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    index = kg.embeddings
    row_of = {key: i for i, key in enumerate(index.keys)} if index else {}

    def records():
        for pid in sorted(kg.passages):
            yield {"type": "passage", **kg.passages[pid].to_dict(),
                   "embedding_row": row_of.get(passage_key(pid))}
        for entity in sorted(kg.entities):
            yield {"type": "entity", "key": entity,
                   "embedding_row": row_of.get(entity_key(entity))}
        for tid in sorted(kg.triples):
            yield {"type": "triple", **kg.triples[tid].to_dict()}
        for edge in sorted(kg.edges, key=lambda e: (e.kind, e.src, e.dst)):
            yield {"type": "edge", "kind": edge.kind, "src": edge.src, "dst": edge.dst}
        for variant in sorted(kg.alias_map):
            yield {"type": "alias", "variant": variant, "canonical": kg.alias_map[variant]}

    graph = "".join([_GRAPH_ENCODER.encode(r) + "\n" for r in records()]).encode("utf-8")
    (out / "graph.jsonl").write_bytes(graph)
    checksums = {"graph.jsonl": hashlib.sha256(graph).hexdigest()}
    del graph

    if index is None or len(index.keys) == 0:
        dim, rows, payload = 0, 0, b""
    else:
        matrix = np.ascontiguousarray(index.matrix, dtype="<f4")
        rows, dim = matrix.shape
        payload = matrix.tobytes(order="C")
    header = struct.pack("<II", dim, rows)
    with open(out / "embeddings.bin", "wb") as fh:
        fh.write(header)
        fh.write(payload)
    digest = hashlib.sha256(header)
    digest.update(payload)
    checksums["embeddings.bin"] = digest.hexdigest()

    manifest = {
        "format_version": FORMAT_VERSION,
        "embedding_model": index.model_id if index else None,
        "counts": {
            "passages": len(kg.passages),
            "entities": len(kg.entities),
            "statements": len(kg.statements),
            "triples": len(kg.triples),
            "edges": len(kg.edges),
        },
        "checksums": checksums,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_checked(store: Path, name: str, expected: str) -> bytes:
    """The bytes of one store file, once their sha256 matches the manifest."""
    try:
        data = (store / name).read_bytes()
    except FileNotFoundError:
        raise CorruptStore(f"missing store file {name}") from None
    if hashlib.sha256(data).hexdigest() != expected:
        raise CorruptStore(f"checksum mismatch for {name}")
    return data


def _parse_graph(data: bytes) -> tuple[SpecGraph, dict[int, str]]:
    """The graph in graph.jsonl's bytes, and the node key of each embedding row."""
    lines = data.decode("utf-8").split("\n")
    del data
    if lines[-1] == "":
        lines.pop()
    # One parse of the lines as a JSON array; a line that is not exactly one
    # value changes the count.
    records = json.loads("[" + ",".join(lines) + "]")
    if len(records) != len(lines):
        raise CorruptStore("graph.jsonl holds a line that is not one record")
    del lines
    passages: dict[str, Passage] = {}
    entities: set[str] = set()
    triples: dict[str, Triple] = {}
    edges: list[Edge] = []
    alias_map: dict[str, str] = {}
    embedding_rows: dict[int, str] = {}
    for record in records:
        kind = record.pop("type")
        if kind == "passage":
            row = record.pop("embedding_row")
            passage = Passage.from_dict(record)
            passages[passage.passage_id] = passage
            if row is not None:
                embedding_rows[row] = passage_key(passage.passage_id)
        elif kind == "entity":
            entities.add(record["key"])
            if record.get("embedding_row") is not None:
                embedding_rows[record["embedding_row"]] = entity_key(record["key"])
        elif kind == "triple":
            triple = Triple.from_dict(record)
            triples[triple.triple_id] = triple
        elif kind == "edge":
            edges.append(Edge(record["kind"], record["src"], record["dst"]))
        elif kind == "alias":
            alias_map[record["variant"]] = record["canonical"]
        else:
            raise CorruptStore(f"unknown record type {kind!r}")
    return SpecGraph(passages=passages, entities=entities, triples=triples, edges=edges,
                     alias_map=alias_map), embedding_rows


def load(store_dir: str | Path) -> SpecGraph:
    """Read a store written by :func:`save`.

    Each store file is read once; its sha256 is checked against the manifest,
    which must name both files, and the same bytes are then parsed.
    """
    return load_store(store_dir)[0]


def load_store(store_dir: str | Path) -> tuple[SpecGraph, dict[str, str]]:
    """:func:`load`, also returning the manifest's sha256 of each store file,
    which the files just read were checked against."""
    store = Path(store_dir)
    manifest_path = store / "manifest.json"
    if not manifest_path.exists():
        raise CorruptStore(f"missing manifest in {store}")
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # a JSON or UTF-8 error
        raise CorruptStore(f"manifest.json is not JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise CorruptStore("manifest.json is not a JSON object")
    version = manifest.get("format_version")
    if not isinstance(version, int) or version > FORMAT_VERSION:
        raise IncompatibleFormat(
            f"store format {version} newer than supported {FORMAT_VERSION}"
        )
    checksums = manifest.get("checksums")
    if not isinstance(checksums, dict) or set(checksums) != {"graph.jsonl", "embeddings.bin"}:
        raise CorruptStore("manifest must checksum exactly graph.jsonl and embeddings.bin")
    model_id = manifest.get("embedding_model") or ""

    try:
        kg, embedding_rows = _parse_graph(
            _read_checked(store, "graph.jsonl", checksums["graph.jsonl"]))
    except (KeyError, TypeError, ValueError, AttributeError, InvalidInput) as exc:
        # a JSON or UTF-8 error, a record that is not an object, or one
        # without its type or fields
        raise CorruptStore(f"bad record in graph.jsonl: {exc!r}") from None

    data = _read_checked(store, "embeddings.bin", checksums["embeddings.bin"])
    if len(data) < 8:
        raise CorruptStore("embeddings.bin header truncated")
    dim, rows = struct.unpack_from("<II", data)
    # The count is compared first, so a header's row count is bounded by the
    # records before anything is built from it.
    if len(embedding_rows) != rows or any(i not in embedding_rows for i in range(rows)):
        raise CorruptStore(f"graph.jsonl does not name each of embeddings.bin's "
                           f"{rows} rows once")
    if rows:
        if len(data) - 8 != rows * dim * 4:
            raise CorruptStore("embeddings.bin payload truncated")
        # read-only already: a view of the bytes read
        matrix = np.frombuffer(data, dtype="<f4", offset=8).reshape(rows, dim)
    else:
        matrix = np.zeros((0, 0), dtype=np.float32)
    keys = [embedding_rows[i] for i in range(rows)]
    kg = replace(kg, embeddings=EmbeddingIndex(keys, matrix, model_id))
    check_integrity(kg)
    return kg, checksums
