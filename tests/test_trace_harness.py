"""The benchmark's trace harness (``perfbench/spans.py``) wraps speckg
functions by name, so renaming one breaks ``perfbench/run.py --trace 1``."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import SPEC_DOC

ROOT = Path(__file__).resolve().parents[1]


def test_trace_harness_instruments_speckg():
    # A fresh interpreter, so the harness's monkeypatching stays out of the
    # other tests. Embedding two texts inside an operation must count two,
    # which holds while Gateway.embed takes the texts as its one argument.
    # Ingesting a document must count one ir-extract request per passage with
    # a sentence. ingest.sentences counts the sentences asked alone through
    # classify_sentence, the fallback for an unusable passage reply: none
    # here. A retrieval makes one summarize request per expansion round, so
    # summarize_per_round reads 1.
    code = f"""
import spans
from speckg import ingest, kg, retrieval
from speckg.config import RunConfig
from speckg.gateway import Gateway
from speckg.offline import OfflineModel
tracer = spans.Tracer(spans=True)
spans.instrument(tracer)
gw = Gateway(provider=OfflineModel(), mode="live")
tracer.begin_op(0)
gw.embed(["alpha", "beta"])
tracer.end_op()
assert tracer.counts["embed_texts"] == 2, tracer.counts
doc = ("## Reset\\n\\nWhen reset is asserted, the FSM returns to IDLE. "
       "The CTRL register holds the mode. See Figure 3 for the layout.\\n")
passages = ingest.chunk(doc, "d")
assert [len(p.sentence_spans) for p in passages] == [3], passages
tracer.begin_op(1)
corpus = ingest.ingest_document(gw, doc, "d")
tracer.end_op()
assert tracer.counts["ingest.sentences"] == 0, tracer.counts
assert tracer.counts["chat.ir-extract"] == 1, tracer.counts
assert tracer.counts["chat.classify-sentence"] == 0, tracer.counts
assert tracer.counts["ingest.skipped"] == len(corpus.skipped) == 1, tracer.counts
spec = open({str(SPEC_DOC)!r}, encoding="utf-8").read()
graph = kg.build_from_corpus(ingest.ingest_document(gw, spec, "serial_link_spec"), gw)
tracer.begin_op(2)
retrieval.retrieve("What happens when the host writes to the TX_DATA register?",
                   ingest.SemanticAnchor("procedural", "TX_DATA"), graph, gw, RunConfig())
tracer.end_op()
assert tracer.counts["retrieval.expand_rounds"] == 2, tracer.counts
assert tracer.counts["chat.summarize"] == 2, tracer.counts
assert tracer.layer_metrics(1)["retrieval.summarize_per_round"][0] == 1.0
"""
    paths = [str(ROOT / "src"), str(ROOT / "perfbench")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        paths + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
