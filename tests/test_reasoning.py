import json
from collections import Counter

import pytest

from speckg import reasoning
from speckg.errors import FixtureMiss, TransientError
from speckg.gateway import FixtureStore, Gateway
from speckg.ingest import SemanticAnchor
from speckg.offline import OfflineModel
from speckg.reasoning import (FLAG_BUDGET, FLAG_DEGRADED, FLAG_INCOMPLETE,
                              FLAG_STALL, ContextItem, ReasoningContext,
                              acquire, reason_step, run, synthesize)
from speckg.retrieval import RetrievalRound
from speckg.text import canonical_entity

from conftest import synthesized_answer

CHAIN_QUESTION = "Which source signal ultimately drives the TX_READY flag?"
CHAIN_GOLD = ["serial_link_spec#p0011", "serial_link_spec#p0010", "serial_link_spec#p0009"]


def ctx_with(question, items):
    ctx = ReasoningContext(question=question)
    for i, (pid, text) in enumerate(items):
        ctx.context_items.append(ContextItem(passage_id=pid, text=text, section="S"))
    return ctx


class TestReasonStep:
    def test_sufficient_when_context_answers(self, offline_gateway):
        ctx = ctx_with("What is the default value of the BAUD register?",
                       [("p", "The BAUD register defaults to 0x0010.")])
        assessment = reason_step(offline_gateway, ctx)
        assert assessment.status == "sufficient"
        assert assessment.answer == "The BAUD register defaults to 0x0010."
        assert len(ctx.thoughts) == 1

    def test_gap_names_next_signal_with_procedural_anchor(self, offline_gateway):
        # first hop in context only: the gap must chase the next signal
        ctx = ctx_with(CHAIN_QUESTION,
                       [("p", "The TX_READY flag is asserted when the FIFO_EMPTY signal goes high.")])
        assessment = reason_step(offline_gateway, ctx)
        assert assessment.status == "gap"
        assert "FIFO_EMPTY" in assessment.sub_query
        assert assessment.target_anchor.anchor_type == "procedural"
        assert canonical_entity(assessment.target_anchor.entity) == "fifo_empty signal"

    def test_malformed_assessment_degrades_to_sufficient(self):
        class BadProvider:
            def chat(self, request, model):
                return "definitely { not json"

            def embed(self, texts, model):
                raise AssertionError("not used")

        gw = Gateway(provider=BadProvider(), mode="live", sleep=lambda s: None)
        ctx = ctx_with("Any question?", [])
        assessment = reason_step(gw, ctx)
        assert assessment.status == "sufficient"
        assert assessment.degraded
        assert assessment.answer == ""


class TestAcquire:
    def test_new_passage_enters_once(self, graph, offline_gateway, run_cfg):
        ctx = ReasoningContext(question=CHAIN_QUESTION)
        added = acquire(offline_gateway, graph, ctx, "What drives the TX_READY flag?",
                        SemanticAnchor("procedural", "TX_READY flag"), run_cfg)
        assert "serial_link_spec#p0011" in added
        assert len([i for i in ctx.context_items
                    if i.passage_id == "serial_link_spec#p0011"]) == 1

    def test_repeat_subquery_is_barren(self, graph, offline_gateway, run_cfg):
        ctx = ReasoningContext(question=CHAIN_QUESTION)
        first = acquire(offline_gateway, graph, ctx, "What drives the TX_READY flag?",
                        SemanticAnchor("procedural", "TX_READY flag"), run_cfg)
        assert first
        again = acquire(offline_gateway, graph, ctx, "What drives the TX_READY flag?",
                        SemanticAnchor("procedural", "TX_READY flag"), run_cfg)
        assert again == []
        assert len(ctx.retrieval_log) == 2

    def test_three_hop_chain_adds_next_hop_each_round(self, graph, offline_gateway, run_cfg):
        ctx = ReasoningContext(question=CHAIN_QUESTION)
        sub_queries = [
            ("What drives the TX_READY flag?", "TX_READY flag"),
            ("What drives the FIFO_EMPTY signal?", "FIFO_EMPTY signal"),
            ("What drives the DRAIN_DONE pulse?", "DRAIN_DONE pulse"),
        ]
        for hop, (q, entity) in zip(CHAIN_GOLD, sub_queries):
            added = acquire(offline_gateway, graph, ctx, q,
                            SemanticAnchor("procedural", entity), run_cfg)
            assert hop in added


class TestRun:
    def test_three_hop_chain(self, graph, offline_gateway, run_cfg):
        record = run(CHAIN_QUESTION, graph, offline_gateway, run_cfg)
        assert record.rounds_used == 3
        assert set(CHAIN_GOLD) <= set(record.provenance)
        assert record.flags == []
        assert "drain logic" in record.answer

    def test_chain_provenance_lists_gold_ids(self, graph, offline_gateway, run_cfg):
        record = run(CHAIN_QUESTION, graph, offline_gateway, run_cfg)
        for pid in CHAIN_GOLD:
            assert pid in record.provenance

    def test_sufficient_after_zero_gap_rounds(self, graph, offline_gateway, run_cfg):
        question = ('According to the statement "The BAUD register defaults to 0x0010", '
                    "what is the default value of the BAUD register?")
        record = run(question, graph, offline_gateway, run_cfg)
        assert record.rounds_used == 0
        assert record.provenance == []
        assert "0x0010" in record.answer

    def test_stall_exit_after_two_barren_rounds(self, graph, offline_gateway, run_cfg):
        record = run("Which clock domain feeds the GHOST counter?", graph,
                     offline_gateway, run_cfg)
        assert FLAG_STALL in record.flags
        assert FLAG_INCOMPLETE in record.flags
        assert "insufficient" in record.answer.lower()

    def test_budget_zero_rounds_immediate_flagged_synthesis(self, graph, offline_gateway, run_cfg):
        run_cfg.reasoning.max_rounds = 0
        record = run(CHAIN_QUESTION, graph, offline_gateway, run_cfg)
        assert record.rounds_used == 0
        assert FLAG_BUDGET in record.flags and FLAG_INCOMPLETE in record.flags

    def test_budget_exit_mid_chain(self, graph, offline_gateway, run_cfg):
        run_cfg.reasoning.max_rounds = 1
        record = run(CHAIN_QUESTION, graph, offline_gateway, run_cfg)
        assert record.rounds_used == 1
        assert FLAG_BUDGET in record.flags

    def test_loop_bounded_for_every_dataset_item(self, graph, offline_gateway,
                                                 run_cfg, dataset):
        for item in dataset:
            record = run(item.question, graph, offline_gateway, run_cfg)
            assert record.rounds_used <= run_cfg.reasoning.max_rounds

    def test_context_monotonic_no_duplicates(self, graph, offline_gateway, run_cfg):
        record = run(CHAIN_QUESTION, graph, offline_gateway, run_cfg)
        assert len(record.provenance) == len(set(record.provenance))

    def test_provenance_soundness_ids_exist_in_graph(self, graph, offline_gateway,
                                                     run_cfg, dataset):
        for item in dataset:
            record = run(item.question, graph, offline_gateway, run_cfg)
            for pid in record.provenance:
                assert pid in graph.passages

    def test_retrieval_log_length_equals_gap_rounds(self, graph, offline_gateway, run_cfg):
        record = run(CHAIN_QUESTION, graph, offline_gateway, run_cfg)
        assert len(record.retrieval_log) == record.rounds_used


class CountingModel(OfflineModel):
    """The offline model, keeping every chat request it serves; ``reply``
    may rewrite a reply before it leaves."""

    def __init__(self, reply=None):
        super().__init__()
        self.requests = []
        self.reply = reply

    def chat(self, request, model):
        self.requests.append(request)
        raw = super().chat(request, model)
        return self.reply(request, raw) if self.reply else raw

    @property
    def calls(self) -> Counter:
        return Counter(r.task_tag for r in self.requests)

    def synthesize_flags(self) -> list[bool]:
        """``incomplete_evidence`` of each synthesize request, in order."""
        return [r.payload["incomplete_evidence"]
                for r in self.requests if r.task_tag == "synthesize"]


def counting_gateway(reply=None):
    model = CountingModel(reply)
    return model, Gateway(provider=model, mode="live", sleep=lambda s: None,
                          chat_model="offline-chat", embedding_model="offline-embed")


def without_answer(request, raw):
    """A reason reply with its answer dropped, on the first ask and on repair."""
    if request.task_tag != "reason":
        return raw
    reply = json.loads(raw)
    reply.pop("answer", None)
    return json.dumps(reply)


def unparsable_reason(request, raw):
    return "definitely { not json" if request.task_tag == "reason" else raw


def test_context_goes_as_section_and_text_alone(graph, run_cfg):
    # no reply names a passage, so no request carries a passage id; the
    # provenance comes from the context items
    run_cfg.reasoning.max_rounds = 1
    model, gw = counting_gateway()
    record = run(CHAIN_QUESTION, graph, gw, run_cfg)
    sent = [r for r in model.requests if r.task_tag in ("reason", "synthesize")]
    assert {r.task_tag for r in sent} == {"reason", "synthesize"}
    assert all(set(item) == {"section", "text"} for r in sent for item in r.payload["context"])
    assert record.provenance and all("#p" in pid for pid in record.provenance)


class TestSynthesizeCalls:
    """A sufficient verdict answers the question itself; every other exit
    makes exactly one synthesize call."""

    @pytest.mark.parametrize("question, rounds", [
        (CHAIN_QUESTION, 3),
        ('According to the statement "The BAUD register defaults to 0x0010", '
         "what is the default value of the BAUD register?", 0),
    ])
    def test_sufficient_exit_makes_no_synthesize_call(self, graph, run_cfg,
                                                      question, rounds):
        model, gw = counting_gateway()
        record = run(question, graph, gw, run_cfg)
        assert record.flags == []
        assert record.rounds_used == rounds
        assert model.calls["reason"] == rounds + 1
        assert model.calls["synthesize"] == 0
        assert record.answer

    @pytest.mark.parametrize("question, max_rounds, reasons, flag", [
        ("Which clock domain feeds the GHOST counter?", 12, 3, FLAG_STALL),
        (CHAIN_QUESTION, 1, 1, FLAG_BUDGET),
        (CHAIN_QUESTION, 0, 0, FLAG_BUDGET),
    ])
    def test_incomplete_exit_synthesizes_once(self, graph, run_cfg, question,
                                              max_rounds, reasons, flag):
        run_cfg.reasoning.max_rounds = max_rounds
        model, gw = counting_gateway()
        record = run(question, graph, gw, run_cfg)
        assert flag in record.flags and FLAG_INCOMPLETE in record.flags
        assert model.calls["reason"] == reasons
        assert model.synthesize_flags() == [True]
        assert "insufficient" in record.answer.lower()

    @pytest.mark.parametrize("reply, rounds", [(unparsable_reason, 0),
                                               (without_answer, 3)])
    def test_degraded_assessment_synthesizes_once(self, graph, run_cfg, reply, rounds):
        # The gateway repairs once; a reply still invalid degrades the verdict.
        # Without an answer only the final, sufficient reply is invalid: the
        # three gap verdicts before it need none.
        model, gw = counting_gateway(reply)
        record = run(CHAIN_QUESTION, graph, gw, run_cfg)
        assert record.flags == [FLAG_DEGRADED]
        assert record.rounds_used == rounds
        assert model.calls["reason"] == rounds + 2
        assert model.synthesize_flags() == [False]
        assert record.answer


class TestAnswerOracle:
    """The answer a sufficient verdict carries is the one the separate
    synthesize call wrote over the same final context."""

    def test_every_fixture_item(self, graph, offline_gateway, run_cfg, dataset):
        for item in dataset:
            record = run(item.question, graph, offline_gateway, run_cfg)
            assert record.flags == [], item.qid
            assert record.answer == synthesized_answer(record, graph, offline_gateway)


class TestReplayDeterminism:
    def test_bit_identical_answer_record(self, graph, tmp_path, run_cfg):
        store_path = tmp_path / "replies.jsonl"
        rec_gw = Gateway(provider=OfflineModel(), mode="record",
                         fixtures=FixtureStore(store_path),
                         chat_model="offline-chat", embedding_model="offline-embed")
        recorded = run(CHAIN_QUESTION, graph, rec_gw, run_cfg)

        blobs = []
        for _ in range(2):
            replay_gw = Gateway(provider=None, mode="replay",
                                fixtures=FixtureStore(store_path),
                                chat_model="offline-chat",
                                embedding_model="offline-embed")
            record = run(CHAIN_QUESTION, graph, replay_gw, run_cfg)
            blobs.append(json.dumps(record.to_dict(), sort_keys=True))
        assert blobs[0] == blobs[1]
        assert blobs[0] == json.dumps(recorded.to_dict(), sort_keys=True)


def test_stale_fixture_fails_the_replay(graph, tmp_path, run_cfg, caplog):
    # a fixture file without the summarize replies: expansion must not fall
    # back to the top k0 passages, and the run ends with the miss itself
    recorded = tmp_path / "replies.jsonl"
    run(CHAIN_QUESTION, graph, Gateway(provider=OfflineModel(), mode="record",
                                       fixtures=FixtureStore(recorded),
                                       chat_model="offline-chat",
                                       embedding_model="offline-embed"), run_cfg)
    lines = recorded.read_text(encoding="utf-8").splitlines()
    stale = [line for line in lines if json.loads(line)["task_tag"] != "summarize"]
    assert len(stale) < len(lines)
    store_path = tmp_path / "stale.jsonl"
    store_path.write_text("\n".join(stale) + "\n", encoding="utf-8")

    replay_gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path),
                        chat_model="offline-chat", embedding_model="offline-embed")
    with caplog.at_level("WARNING"), \
            pytest.raises(FixtureMiss, match="no fixture for task_tag='summarize'"):
        run(CHAIN_QUESTION, graph, replay_gw, run_cfg)
    assert not any("expansion aborted" in message for message in caplog.messages)


def test_synthesize_failure_raises_synthesis_failed(graph, run_cfg):
    class Dead:
        def chat(self, request, model):
            raise TransientError("down")

        def embed(self, texts, model):
            raise TransientError("down")

    gw = Gateway(provider=Dead(), mode="live", sleep=lambda s: None, max_attempts=1)
    ctx = ctx_with("Q?", [("p", "text.")])
    with pytest.raises(reasoning.SynthesisFailed, match="down"):
        synthesize(gw, ctx, incomplete=False)


def test_synthesize_replay_miss_propagates(tmp_path):
    gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(tmp_path / "none.jsonl"))
    with pytest.raises(FixtureMiss, match="no fixture for task_tag='synthesize'"):
        synthesize(gw, ctx_with("Q?", [("p", "text.")]), incomplete=False)


def test_query_embedded_at_another_dimension_flags_the_run(graph, run_cfg):
    # the graph holds 256-d vectors; a 300-d query vector of the same model
    # name is refused at seeding, and the run ends flagged, not raised
    class WideEmbedder(OfflineModel):
        def embed(self, texts, model):
            return [[1.0] * 300 for _ in texts]

    gw = Gateway(provider=WideEmbedder(), mode="live",
                 chat_model="offline-chat", embedding_model="offline-embed")
    record = run(CHAIN_QUESTION, graph, gw, run_cfg)
    assert "error:InvalidInput" in record.flags
    assert record.answer == ""


def test_answer_record_json_is_pinned():
    # the CLI prints this dict; its keys, their order and the nesting of the
    # retrieval rounds are part of query's output
    record = reasoning.AnswerRecord(
        question="What does CTRL hold?", answer="CTRL holds the mode.",
        provenance=["d#p0001"],
        retrieval_log=[RetrievalRound(
            sub_query="CTRL contents", target_anchor=SemanticAnchor("declarative", "ctrl"),
            ranked=[("d#p0001", 0.5), ("d#p0002", 0.25)], accepted=["d#p0001", "d#p0002"],
            filtered=["d#p0001"], removed=["d#p0002"], mig_trace=[0.125], warning="w")],
        rounds_used=1, flags=["incomplete_evidence"], thoughts=["look up CTRL"])
    assert json.dumps(record.to_dict()) == (
        '{"question": "What does CTRL hold?", "answer": "CTRL holds the mode.", '
        '"provenance": ["d#p0001"], "retrieval_log": [{"sub_query": "CTRL contents", '
        '"target_anchor": {"anchor_type": "declarative", "entity": "ctrl"}, '
        '"ranked": [["d#p0001", 0.5], ["d#p0002", 0.25]], "accepted": ["d#p0001", '
        '"d#p0002"], "filtered": ["d#p0001"], "removed": ["d#p0002"], "mig_trace": [0.125], '
        '"bypassed": false, "warning": "w"}], "rounds_used": 1, '
        '"flags": ["incomplete_evidence"], "thoughts": ["look up CTRL"]}')
