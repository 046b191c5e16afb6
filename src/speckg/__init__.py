"""speckg: knowledge-graph grounded comprehension of specification documents.

Pipeline: ingest a document into passages with per-sentence semantic parses
and intent anchors, restructure the parses into a typed knowledge graph,
answer questions through an iterative retrieve-and-reason loop (similarity
seeding, personalized PageRank, gain-driven adaptive expansion, anchor
filtering), and score answers with an atomic-fact fidelity metric.
"""

__version__ = "0.1.0"

from .config import RunConfig, build_gateway, load_config
from .gateway import FixtureStore, Gateway
from .ingest import Corpus, Passage, SemanticAnchor, SemanticIR, ingest_document
from .kg import SpecGraph, Triple, build_from_corpus, load, save
from .prompts import ChatRequest
from .reasoning import AnswerRecord, run

__all__ = [
    "AnswerRecord",
    "ChatRequest",
    "Corpus",
    "FixtureStore",
    "Gateway",
    "Passage",
    "RunConfig",
    "SemanticAnchor",
    "SemanticIR",
    "SpecGraph",
    "Triple",
    "build_from_corpus",
    "build_gateway",
    "ingest_document",
    "load",
    "load_config",
    "run",
    "save",
    "__version__",
]
