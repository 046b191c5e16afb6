import json
import logging

import pytest

from speckg import ingest, kg as kgmod, prompts
from speckg.errors import FixtureMiss, InvalidInput, SkippedSentence
from speckg.gateway import FixtureStore
from speckg.ingest import (DEFAULT_MAX_PASSAGE_TOKENS, Passage, SemanticIR, chunk,
                           classify_sentence, distill_anchor, extract_ir,
                           extraction_batches, ingest_document)
from speckg.offline import OfflineModel

from conftest import SPEC_DOC, load_manual_module, make_offline_gateway

HANDBUILT_DOC = """# Device Guide

## Block A

First paragraph about the A block. It has two sentences.

Second paragraph about the A block.

### Block A details

Detail paragraph for A.

## Block B

Paragraph about the B block.
"""


def body_of(document: str) -> str:
    lines = [ln for ln in document.splitlines() if not ln.lstrip().startswith("#")]
    return "".join(ch for ch in "\n".join(lines) if not ch.isspace())


class TestChunk:
    def test_coverage_concatenation_equals_body(self):
        passages = chunk(HANDBUILT_DOC, "doc", max_passage_tokens=512)
        rebuilt = "".join(ch for p in passages for ch in p.text if not ch.isspace()
                          if True)
        # headings are part of passages; strip them the same way
        rebuilt_body = "".join(
            ch
            for p in passages
            for line in p.text.splitlines()
            if not line.lstrip().startswith("#")
            for ch in line
            if not ch.isspace()
        )
        assert rebuilt_body == body_of(HANDBUILT_DOC)

    def test_single_sentence_document(self):
        passages = chunk("The device has one register.", "doc")
        assert len(passages) == 1
        assert len(passages[0].sentence_spans) == 1

    def test_section_paths_match_enclosing_headings(self):
        # hand-built two-level heading tree; every passage's section_path must
        # equal its enclosing headings
        passages = chunk(HANDBUILT_DOC, "doc", max_passage_tokens=512)
        by_text = {p.text.splitlines()[0]: p for p in passages}
        assert by_text["## Block A"].section_path == ("Device Guide", "Block A")
        assert by_text["### Block A details"].section_path == (
            "Device Guide", "Block A", "Block A details")
        assert by_text["## Block B"].section_path == ("Device Guide", "Block B")

    def test_token_budget_splits_long_sections(self):
        body = " ".join(f"Sentence number {i} is here." for i in range(200))
        doc = f"## Long\n\n{body}\n"
        passages = chunk(doc, "doc", max_passage_tokens=64)
        assert len(passages) > 1
        for p in passages[1:]:
            assert p.token_estimate <= 64 + 8  # one block may slightly exceed

    def test_heading_never_split_from_first_paragraph(self):
        doc = "## Section\n\n" + " ".join(f"Filler sentence {i}." for i in range(100))
        passages = chunk(doc, "doc", max_passage_tokens=32)
        assert passages[0].text.startswith("## Section\n\n")

    def test_empty_document_rejected(self):
        with pytest.raises(InvalidInput):
            chunk("", "doc")
        with pytest.raises(InvalidInput):
            chunk("   \n  ", "doc")

    def test_passage_ids_unique_and_stable(self):
        a = chunk(HANDBUILT_DOC, "doc")
        b = chunk(HANDBUILT_DOC, "doc")
        ids_a = [p.passage_id for p in a]
        assert len(set(ids_a)) == len(ids_a)
        assert ids_a == [p.passage_id for p in b]


def make_passage(text: str) -> Passage:
    return chunk(text, "t")[0]


def parse(gw, sentence: str) -> SemanticIR:
    """The ingest path for a one-sentence passage: one call, then the IR."""
    passage = make_passage(sentence)
    reply = classify_sentence(gw, sentence, passage)
    return extract_ir(reply, passage, "s0", passage.sentence_spans[0])


def asked_passages(request) -> list[list[str]]:
    """The sentences of each passage of an ir-extract request, in order."""
    return [[item["text"] for item in passage["sentences"]]
            for passage in request.payload["passages"]]


class RecordingModel(OfflineModel):
    """The offline model, logging every ir-extract request as the sentence
    lists of its passages; ``fault`` rewrites the reply entries of every
    request that holds the ``faulty`` passage's sentences."""

    def __init__(self, fault=None, faulty=None):
        super().__init__()
        self.asked = []
        self.sections = []
        self.fault, self.faulty = fault, faulty

    def chat(self, request, model):
        reply = super().chat(request, model)
        assert request.task_tag == "ir-extract"
        passages = asked_passages(request)
        self.asked.append(passages)
        self.sections.append([passage["section"] for passage in request.payload["passages"]])
        if self.faulty not in passages:
            return reply
        return json.dumps({"sentences": self.fault(json.loads(reply)["sentences"])})


class OneSentenceModel(OfflineModel):
    """The offline model, refusing every ir-extract request for more than one
    sentence with a reply that is not JSON."""

    def __init__(self):
        super().__init__()
        self.refused = 0

    def chat(self, request, model):
        if (request.task_tag == "ir-extract"
                and sum(map(len, asked_passages(request))) > 1):
            self.refused += 1
            return "I can only parse one sentence at a time."
        return super().chat(request, model)


def ingest_warnings(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records
            if r.name == "speckg.ingest" and r.levelno == logging.WARNING]


def source_document(source: str) -> tuple[str, str]:
    """A document to ingest and its id: the fixture spec, or the benchmark's
    seed-0 register manual of ``manual-<blocks>`` blocks."""
    if source == "fixture-spec":
        return SPEC_DOC.read_text(encoding="utf-8"), "serial_link_spec"
    blocks = int(source.removeprefix("manual-"))
    return load_manual_module().generate(0, blocks).text, "regmanual"


class TestClassify:
    def test_declarative_example(self):
        gw = make_offline_gateway()
        sentence = "The CTRL register contains an 8-bit prescaler field."
        assert classify_sentence(gw, sentence, make_passage(sentence))["kind"] == "declarative"

    def test_procedural_example(self):
        gw = make_offline_gateway()
        sentence = "When reset is asserted, the FSM returns to IDLE."
        assert classify_sentence(gw, sentence, make_passage(sentence))["kind"] == "procedural"

    def test_deterministic_under_replay(self, tmp_path):
        from speckg.gateway import FixtureStore, Gateway
        store = FixtureStore(tmp_path / "f.jsonl")
        rec = Gateway(provider=OfflineModel(), mode="record", fixtures=store,
                      chat_model="offline-chat", embedding_model="offline-embed")
        sentence = "When reset is asserted, the FSM returns to IDLE."
        passage = make_passage(sentence)
        first = classify_sentence(rec, sentence, passage)
        replay = Gateway(provider=None, mode="replay", fixtures=FixtureStore(tmp_path / "f.jsonl"),
                         chat_model="offline-chat", embedding_model="offline-embed")
        assert classify_sentence(replay, sentence, passage) == first
        assert classify_sentence(replay, sentence, passage) == first

    def test_one_sentence_reply_of_the_wrong_length_is_malformed(self):
        sentence = "The CTRL register holds the mode."
        model = RecordingModel(fault=lambda entries: entries * 2, faulty=[sentence])
        reply = classify_sentence(make_offline_gateway(provider=model), sentence,
                                  make_passage(sentence))
        assert reply == {"skip": True,
                         "reason": "unusable ir-extract reply: 2 entries for one sentence"}

    def test_reply_carries_the_kind_and_its_fields(self):
        gw = make_offline_gateway()
        sentence = "When reset is asserted, the FSM returns to IDLE."
        assert classify_sentence(gw, sentence, make_passage(sentence)) == {
            "kind": "procedural", "trigger": "reset asserted", "condition": "",
            "action": {"subject": "FSM", "verb": "returns to", "object": "IDLE"}}


class TestExtractIR:
    def test_procedural_example(self):
        ir = parse(make_offline_gateway(), "When reset is asserted, the FSM returns to IDLE.")
        assert ir.kind == "procedural"
        assert ir.trigger == "reset asserted"
        assert ir.condition == ""
        assert ir.action == {"subject": "FSM", "verb": "returns to", "object": "IDLE"}

    def test_declarative_example(self):
        ir = parse(make_offline_gateway(), "The CTRL register contains a prescaler field.")
        assert ir.kind == "declarative"
        assert ir.central_entity == "CTRL register"
        assert ir.attributes == [{"name": "contains", "value": "prescaler field"}]

    def test_two_clause_sentence_fills_condition(self):
        sentence = ("When the start bit is detected, if parity checking is enabled, "
                    "the receiver validates the parity bit.")
        ir = parse(make_offline_gateway(), sentence)
        assert ir.trigger == "start bit detected"
        assert ir.condition == "parity checking enabled"
        assert ir.action["subject"] == "receiver"

    def test_empty_sentence_skipped(self):
        model = RecordingModel()
        gw = make_offline_gateway(provider=model)
        passage = make_passage("Some text here.")
        with pytest.raises(SkippedSentence):
            classify_sentence(gw, "   ", passage)
        assert model.asked == []

    def test_caption_skipped(self):
        with pytest.raises(SkippedSentence):
            parse(make_offline_gateway(), "See Figure 3 for the layout.")

    def test_skip_reason_kept(self):
        passage = make_passage("Some text here.")
        with pytest.raises(SkippedSentence, match="caption"):
            extract_ir({"skip": True, "reason": "caption"}, passage, "s0", (0, 3))

    def test_makes_no_model_call(self):
        passage = make_passage("Some text here.")
        reply = {"kind": "declarative", "central_entity": "CTRL",
                 "attributes": [{"name": "width", "value": "8"}]}
        ir = extract_ir(reply, passage, "s0", (0, 3))
        assert (ir.kind, ir.central_entity, ir.attributes) == (
            "declarative", "CTRL", [{"name": "width", "value": "8"}])
        assert (ir.passage_id, ir.span) == (passage.passage_id, (0, 3))


class TestOneRequestPerRun:
    """One ir-extract request per run of consecutive passages whose summed
    token estimates stay within the passage budget."""

    @pytest.mark.parametrize("source, requests", [("fixture-spec", 2), ("manual-102", 23)])
    def test_requests_hold_runs_of_passages_within_the_budget(self, source, requests):
        document, doc_id = source_document(source)
        model = RecordingModel()
        corpus = ingest_document(make_offline_gateway(provider=model), document, doc_id)
        asked = [p for p in corpus.passages if any(s.strip() for s in p.sentences())]
        # every passage with a sentence is asked once, in document order
        assert [sentences for request in model.asked for sentences in request] == [
            p.sentences() for p in asked]
        assert [section for request in model.sections for section in request] == [
            list(p.section_path) for p in asked]
        start = 0
        for request in model.asked:
            run = asked[start:start + len(request)]
            start += len(request)
            assert (len(run) == 1
                    or sum(p.token_estimate for p in run) <= DEFAULT_MAX_PASSAGE_TOKENS)
        assert len(model.asked) == requests
        sentences = sum(len(p.sentence_spans) for p in corpus.passages)
        assert sentences == len(corpus.irs) + len(corpus.skipped)

    def test_sentences_are_numbered_across_the_request(self):
        request = prompts.extract_ir([(("A",), ["One.", "Two."]), (("A", "B"), ["Three."])])
        assert request.payload == {"passages": [
            {"section": ["A"], "sentences": [{"number": 1, "text": "One."},
                                             {"number": 2, "text": "Two."}]},
            {"section": ["A", "B"], "sentences": [{"number": 3, "text": "Three."}]}]}

    def test_a_passage_over_the_budget_goes_alone(self):
        passages = [Passage(passage_id=f"d#p{i}", doc_id="d", section_path=(), text="x",
                            sentence_spans=(), token_estimate=tokens)
                    for i, tokens in enumerate([3, 4, 9, 2, 2, 2, 5])]
        runs = list(extraction_batches(passages, 8))
        assert [[p.token_estimate for p in run] for run in runs] == [
            [3, 4], [9], [2, 2, 2], [5]]


class NotJsonModel(OfflineModel):
    """The offline model, answering every chat request with text that is not
    JSON."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def chat(self, request, model):
        self.calls += 1
        return "not json"


class TestUnusableReplies:
    """A sentence whose own ir-extract reply is unusable is skipped with the
    reason; the ingest goes on."""

    @staticmethod
    def reasons(corpus) -> list[str]:
        return [entry["reason"] for entry in corpus.skipped]

    def test_one_sentence_document_is_asked_once_and_builds(self, caplog):
        model = NotJsonModel()
        gateway = make_offline_gateway(provider=model)
        with caplog.at_level(logging.WARNING, logger="speckg.ingest"):
            corpus = ingest_document(gateway, "# Guide\n\nThe CTRL register holds the mode.\n",
                                     "doc")
        # the request and its repair; the sentence is not asked again
        assert model.calls == 2
        assert corpus.irs == []
        [reason] = self.reasons(corpus)
        assert reason.startswith("unusable ir-extract reply: task_tag='ir-extract' reply "
                                 "invalid after repair: not JSON")
        problem = reason.removeprefix("unusable ir-extract reply: ")
        assert ingest_warnings(caplog) == [
            f"passage doc#p0000: unusable ir-extract reply ({problem}); skipping a sentence"]
        graph = kgmod.build_from_corpus(corpus, make_offline_gateway())
        assert list(graph.passages) == ["doc#p0000"]

    def test_two_sentence_passage_skips_both_sentences(self):
        model = NotJsonModel()
        corpus = ingest_document(make_offline_gateway(provider=model),
                                 "The CTRL register holds the mode. The FSM has 3 states.",
                                 "doc")
        # the passage's request, then each sentence alone, each repaired once
        assert model.calls == 6
        assert corpus.irs == []
        assert [entry["sentence_id"] for entry in corpus.skipped] == [
            "doc#p0000:s000", "doc#p0000:s001"]
        assert all(reason.startswith("unusable ir-extract reply: ")
                   for reason in self.reasons(corpus))

    def test_replay_miss_on_a_one_sentence_passage_propagates(self, tmp_path):
        replay = make_offline_gateway(provider=None, mode="replay",
                                      fixtures=FixtureStore(tmp_path / "none.jsonl"))
        with pytest.raises(FixtureMiss, match="ir-extract"):
            ingest_document(replay, "The CTRL register holds the mode.", "doc")
        with pytest.raises(FixtureMiss, match="ir-extract"):
            classify_sentence(replay, "The CTRL register holds the mode.",
                              make_passage("The CTRL register holds the mode."))


def corpus_files(corpus, out) -> dict[str, bytes]:
    corpus.save(out)
    return {name: (out / name).read_bytes() for name in ("ir.jsonl", "passages.jsonl")}


class TestPerSentenceOracle:
    """Asking every sentence alone, through the fallback, is the oracle: the
    requests for runs of passages must give byte-identical corpus files."""

    @pytest.mark.parametrize("source", ["fixture-spec", "manual-30"])
    def test_fallback_for_every_passage_gives_the_same_files(self, source, tmp_path, caplog):
        document, doc_id = source_document(source)
        clean = RecordingModel()
        batched = ingest_document(make_offline_gateway(provider=clean), document, doc_id)
        model = OneSentenceModel()
        with caplog.at_level(logging.WARNING, logger="speckg.ingest"):
            alone = ingest_document(make_offline_gateway(provider=model), document, doc_id)
        # A refused request of several passages re-asks each alone; a refused
        # lone passage asks its sentences alone. Each refusal is repaired once.
        refused = [request for request in clean.asked if sum(map(len, request)) > 1]
        split = [request for request in refused if len(request) > 1]
        multi = [p for request in clean.asked for p in request if len(p) > 1]
        assert split and multi
        assert model.refused == 2 * (len(refused) + sum(len(p) > 1 for r in split for p in r))
        warnings = ingest_warnings(caplog)
        assert len([w for w in warnings if w.endswith("passages alone")]) == len(split)
        assert len([w for w in warnings if w.endswith("one at a time")]) == len(multi)
        assert (corpus_files(alone, tmp_path / "alone")
                == corpus_files(batched, tmp_path / "batched"))
        assert alone.skipped == batched.skipped

    def test_replay_reproduces_a_recorded_fallback(self, fixture_document, corpus, tmp_path):
        # Record keeps no malformed reply, so replay misses on the requests
        # of several sentences and must take the recorded lone-passage and
        # one-sentence requests instead.
        path = tmp_path / "f.jsonl"
        rec = make_offline_gateway(provider=OneSentenceModel(), mode="record",
                                   fixtures=FixtureStore(path))
        recorded = ingest_document(rec, fixture_document, "serial_link_spec")
        replay = make_offline_gateway(provider=None, mode="replay",
                                      fixtures=FixtureStore(path))
        replayed = ingest_document(replay, fixture_document, "serial_link_spec")
        for again in (recorded, replayed):
            assert [ir.to_dict() for ir in again.irs] == [ir.to_dict() for ir in corpus.irs]
            assert again.skipped == corpus.skipped


def test_replay_of_a_recorded_build_writes_the_same_store(tmp_path, caplog):
    document, doc_id = source_document("manual-30")
    path = tmp_path / "f.jsonl"
    stores = []
    for name, provider in (("record", OfflineModel()), ("replay", None)):
        # the replay store is opened once the record run has written it
        gateway = make_offline_gateway(provider=provider, mode=name,
                                       fixtures=FixtureStore(path))
        with caplog.at_level(logging.WARNING, logger="speckg.ingest"):
            corpus = ingest_document(gateway, document, doc_id)
        corpus.save(tmp_path / name)
        kgmod.save(kgmod.build_from_corpus(corpus, gateway), tmp_path / name)
        stores.append({f.name: f.read_bytes() for f in sorted((tmp_path / name).iterdir())})
    assert len(stores[0]) == 5 and stores[0] == stores[1]
    assert ingest_warnings(caplog) == []


class TestPassageFallback:
    """One bad reply to a run's request re-asks each of its passages alone;
    only the bad passage then has its sentences asked one at a time."""

    @staticmethod
    def target(document):
        return next(p for p in chunk(document, "serial_link_spec")
                    if len(p.sentence_spans) > 2)

    @pytest.mark.parametrize("fault, repaired", [
        (lambda entries: entries[:-1], False),
        (lambda entries: [{"kind": "declarative"}] + entries[1:], True),
    ], ids=["wrong-length", "schema-invalid"])
    def test_only_the_bad_passage_is_re_asked(self, fault, repaired, fixture_document,
                                              corpus, caplog):
        target = self.target(fixture_document)
        sentences_of_target = target.sentences()
        clean = RecordingModel()
        ingest_document(make_offline_gateway(provider=clean), fixture_document,
                        "serial_link_spec")
        model = RecordingModel(fault=fault, faulty=sentences_of_target)
        with caplog.at_level(logging.WARNING, logger="speckg.ingest"):
            again = ingest_document(make_offline_gateway(provider=model), fixture_document,
                                    "serial_link_spec")
        expected = []
        for request in clean.asked:
            expected.append(request)
            if sentences_of_target in request:
                assert len(request) > 1
                expected += [request] * repaired
                for sentences in request:
                    expected.append([sentences])
                    if sentences == sentences_of_target:
                        expected += [[sentences]] * repaired + [[[s]] for s in sentences]
        assert model.asked == expected
        assert [ir.to_dict() for ir in again.irs] == [ir.to_dict() for ir in corpus.irs]
        assert again.skipped == corpus.skipped
        warnings = ingest_warnings(caplog)
        assert len(warnings) == 2 and warnings[0].endswith("passages alone")
        assert warnings[1].startswith(f"passage {target.passage_id}:")
        assert warnings[1].endswith("one at a time")


class TestBlankSentences:
    @staticmethod
    def ingest_passage(monkeypatch, text, spans):
        passage = Passage(passage_id="d#p0000", doc_id="d", section_path=["S"], text=text,
                          sentence_spans=spans, token_estimate=1)
        monkeypatch.setattr(ingest, "chunk", lambda *args, **kwargs: [passage])
        model = RecordingModel()
        corpus = ingest_document(make_offline_gateway(provider=model), text, "d")
        return corpus, model.asked

    def test_blank_span_skipped_in_sentence_order(self, monkeypatch):
        first, second = "See Figure 3 for the layout.", "See Table 2 for the fields."
        text = f"{first}   {second}"
        blank_end = len(first) + 3
        corpus, asked = self.ingest_passage(
            monkeypatch, text, [(0, len(first)), (len(first), blank_end),
                                (blank_end, len(text))])
        assert asked == [[[first, second]]]
        assert corpus.skipped == [
            {"sentence_id": "d#p0000:s000", "reason": "no technical content"},
            {"sentence_id": "d#p0000:s001", "reason": "empty sentence"},
            {"sentence_id": "d#p0000:s002", "reason": "no technical content"},
        ]

    def test_passage_of_blanks_makes_no_call(self, monkeypatch):
        corpus, asked = self.ingest_passage(monkeypatch, "  \n ", [(0, 2), (2, 5)])
        assert asked == []
        assert [s["reason"] for s in corpus.skipped] == ["empty sentence"] * 2
        assert corpus.passages[0].anchor is None


def decl(entity, sentence_id="p#s0"):
    return SemanticIR(sentence_id=sentence_id, kind="declarative", passage_id="p",
                      span=(0, 1), central_entity=entity,
                      attributes=[{"name": "has", "value": "thing"}])


def proc(subject, sentence_id="p#s1"):
    return SemanticIR(sentence_id=sentence_id, kind="procedural", passage_id="p",
                      span=(0, 1), trigger="reset asserted",
                      action={"subject": subject, "verb": "resets", "object": "zero"})


class TestDistillAnchor:
    def test_unanimous_declarative(self):
        anchor = distill_anchor([decl("CTRL register"), decl("CTRL register"),
                                 decl("CTRL register")])
        assert anchor.anchor_type == "declarative"
        assert anchor.entity == "ctrl register"

    def test_majority_procedural(self):
        anchor = distill_anchor([proc("FSM"), proc("FSM"), decl("FSM")])
        assert anchor.anchor_type == "procedural"

    def test_tie_breaks_procedural(self):
        anchor = distill_anchor([decl("FSM"), proc("FSM")])
        assert anchor.anchor_type == "procedural"

    def test_no_irs_yields_no_anchor(self):
        assert distill_anchor([]) is None

    def test_dominant_entity_by_count_then_first_seen(self):
        anchor = distill_anchor([decl("alpha"), decl("beta"), decl("beta")])
        assert anchor.entity == "beta"
        anchor = distill_anchor([decl("alpha"), decl("beta")])
        assert anchor.entity == "alpha"


class TestCorpusInvariants:
    def test_lossless_span_accounting(self, corpus):
        # every sentence span lies in its passage and appears exactly once
        seen = set()
        for ir in corpus.irs:
            key = (ir.passage_id, ir.span)
            assert key not in seen, "sentence parsed twice"
            seen.add(key)
        by_id = {p.passage_id: p for p in corpus.passages}
        for ir in corpus.irs:
            passage = by_id[ir.passage_id]
            assert ir.span in [tuple(s) for s in passage.sentence_spans]

    def test_kind_payload_consistency(self, corpus):
        for ir in corpus.irs:
            if ir.kind == "declarative":
                assert ir.central_entity and not ir.action
            else:
                assert ir.action.get("subject") and ir.trigger

    def test_anchor_totality(self, corpus):
        # every passage carries an anchor or the explicit None marker
        for passage in corpus.passages:
            assert passage.anchor is not None or passage.anchor is None
        anchored = [p for p in corpus.passages if p.anchor is not None]
        unanchored = [p for p in corpus.passages if p.anchor is None]
        assert anchored and unanchored  # fixture exercises both paths

    def test_skip_log_records_caption(self, corpus):
        assert any("p0017" in s["sentence_id"] for s in corpus.skipped)

    def test_corpus_files_round_trip(self, corpus, tmp_path):
        import json
        corpus.save(tmp_path)
        passages = [json.loads(l) for l in (tmp_path / "passages.jsonl").read_text().splitlines()]
        irs = [json.loads(l) for l in (tmp_path / "ir.jsonl").read_text().splitlines()]
        assert len(passages) == len(corpus.passages)
        assert len(irs) == len(corpus.irs)
        restored = Passage.from_dict(passages[0])
        assert restored.passage_id == corpus.passages[0].passage_id


class TestListAndTableIngest:
    DOC = """## Registers

| MODE | operating mode | 0x01 |
| GAIN | amplifier gain | 0x02 |

Control bits:

- TRIG_EN enables the trigger path.
"""

    def test_table_rows_become_attribute_parses(self, offline_gateway):
        corpus = ingest_document(offline_gateway, self.DOC, "tdoc")
        by_entity = {ir.central_entity: ir for ir in corpus.irs
                     if ir.kind == "declarative"}
        assert by_entity["MODE"].attributes == [
            {"name": "operating mode", "value": "0x01"}]
        assert by_entity["GAIN"].attributes == [
            {"name": "amplifier gain", "value": "0x02"}]

    def test_bullet_items_parse_without_marker(self, offline_gateway):
        corpus = ingest_document(offline_gateway, self.DOC, "tdoc")
        trig = next(ir for ir in corpus.irs if ir.central_entity == "TRIG_EN")
        assert trig.attributes == [{"name": "enables", "value": "trigger path"}]


def test_ingest_document_deterministic(offline_gateway, fixture_document, corpus):
    again = ingest_document(offline_gateway, fixture_document, "serial_link_spec")
    assert [p.passage_id for p in again.passages] == [p.passage_id for p in corpus.passages]
    assert [ir.to_dict() for ir in again.irs] == [ir.to_dict() for ir in corpus.irs]
