import dataclasses
import json
import logging
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speckg import evaluation, prompts, reasoning
from speckg.errors import FixtureMiss, InvalidInput
from speckg.evaluation import (QAItem, aggregate_two_sigma, atomic_score,
                               decompose, load_dataset, match, run_benchmark,
                               score, system_recall_at_k)

from speckg.gateway import FixtureStore, Gateway
from speckg.ingest import SemanticAnchor
from speckg.offline import OfflineModel
from speckg.retrieval import RetrievalRound

from conftest import make_config, make_offline_gateway


class TestDecompose:
    def test_compound_answer_splits_into_two_atoms(self, offline_gateway):
        atoms = decompose(offline_gateway, "The FSM has 3 states and resets to IDLE.")
        assert atoms == ["The FSM has 3 states", "The FSM resets to IDLE"]

    def test_single_claim_single_atom(self, offline_gateway):
        atoms = decompose(offline_gateway, "The BAUD register defaults to 0x0010.")
        assert len(atoms) == 1

    def test_duplicate_claims_dedup(self, offline_gateway):
        atoms = decompose(offline_gateway,
                          "The FSM resets to IDLE. The FSM resets to IDLE.")
        assert len(atoms) == 1

    def test_empty_answer_empty_atoms(self, offline_gateway):
        assert decompose(offline_gateway, "   ") == []


class TestMatch:
    def test_identical_sets_all_matched(self, offline_gateway):
        atoms = ["The FSM resets to IDLE", "The BAUD register defaults to 0x0010"]
        matched = match(offline_gateway, atoms, list(atoms))
        assert matched == atoms

    def test_disjoint_sets_nothing_matched(self, offline_gateway):
        matched = match(offline_gateway,
                        ["The sky is blue today"],
                        ["The BAUD register defaults to 0x0010"])
        assert matched == []

    def test_paraphrase_pair_matches(self, offline_gateway):
        matched = match(offline_gateway,
                        ["The FSM resets to IDLE"],
                        ["The FSM returns to the IDLE state"])
        assert matched == ["The FSM resets to IDLE"]

    def test_one_to_one_reference_consumed_once(self, offline_gateway):
        # two paraphrases of one reference: only the first may match
        matched = match(offline_gateway,
                        ["The FSM resets to IDLE", "The FSM returns to IDLE"],
                        ["The FSM returns to the IDLE state"])
        assert len(matched) == 1

    def test_cardinality_bound(self, offline_gateway):
        gen = ["The FSM resets to IDLE", "The FSM has 3 states",
               "The clock runs at 8 MHz"]
        ref = ["The FSM returns to the IDLE state"]
        matched = match(offline_gateway, gen, ref)
        assert len(matched) <= min(len(gen), len(ref))

    def test_empty_reference_rejected(self, offline_gateway):
        with pytest.raises(InvalidInput):
            match(offline_gateway, ["x"], [])

    def test_judge_error_flagged_not_fatal(self, caplog):
        from speckg.gateway import Gateway

        class Dead:
            def chat(self, request, model):
                raise ConnectionError("down")

            def embed(self, texts, model):
                raise ConnectionError("down")

        gw = Gateway(provider=Dead(), mode="live", sleep=lambda s: None, max_attempts=1)
        with caplog.at_level(logging.WARNING, logger="speckg.evaluation"):
            matched = match(gw, ["claim one", "claim two"], ["reference one"])
        assert matched == []
        [warning] = judge_warnings(caplog)
        assert warning.startswith(
            "judge failed on atoms ['claim one', 'claim two'] (RetryExhausted: ")
        assert "down" in warning

    def test_judge_fixture_miss_propagates(self, tmp_path):
        # a replay without the judge's reply is a stale file, not a judge error
        gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(tmp_path / "none.jsonl"))
        with pytest.raises(FixtureMiss, match="atom-match"):
            match(gw, ["claim one"], ["reference one"])

    def test_no_atoms_no_request(self):
        gw = CountingGateway(provider=OfflineModel(), mode="live")
        assert match(gw, [], ["reference one"]) == []
        assert gw.calls == Counter()

    def test_one_request_per_pass(self):
        gw = CountingGateway(provider=OfflineModel(), mode="live")
        match(gw, CLAIMS, ["The FSM resets to IDLE"])
        assert gw.calls == Counter({"atom-match": 1})


class Fixed:
    """A judge that gives one reply to every request."""

    def __init__(self, matches):
        self.reply = json.dumps({"matches": matches})

    def chat(self, request, model):
        return self.reply


def judge_warnings(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "speckg.evaluation" and r.levelno == logging.WARNING]


class TestMatchFaults:
    """Replies that break one-to-one, checked in code against the request."""

    GEN = ["claim one", "claim two", "claim three"]
    REF = ["reference one", "reference two"]

    def judged(self, matches, caplog):
        gw = Gateway(provider=Fixed(matches), mode="live")
        with caplog.at_level(logging.WARNING, logger="speckg.evaluation"):
            return match(gw, self.GEN, self.REF), judge_warnings(caplog)

    def test_valid_reply_matches_each_claimed_reference(self, caplog):
        matched, warnings = self.judged([1, None, 0.0], caplog)
        assert matched == ["claim one", "claim three"]
        assert warnings == []

    def test_reused_index_leaves_the_later_atom_unmatched(self, caplog):
        matched, warnings = self.judged([1, 1, 0], caplog)
        assert matched == ["claim one", "claim three"]
        assert warnings == ["judge matched atom 'claim two' to reference 1 "
                            "(already matched); scored unmatched"]

    def test_out_of_range_index_leaves_that_atom_unmatched(self, caplog):
        matched, warnings = self.judged([2, 0, 7], caplog)
        assert matched == ["claim two"]
        assert warnings == [
            "judge matched atom 'claim one' to reference 2 (no such reference); scored unmatched",
            "judge matched atom 'claim three' to reference 7 (no such reference); scored unmatched",
        ]

    @pytest.mark.parametrize("matches", [[0, 1], [0, 1, None, None], []],
                             ids=["short", "long", "empty"])
    def test_wrong_entry_count_scores_the_pass_unmatched(self, matches, caplog):
        matched, warnings = self.judged(matches, caplog)
        assert matched == []
        assert warnings == [f"judge replied {len(matches)} entries for the 3 atoms "
                            f"{self.GEN!r}; scored unmatched"]


# Claims grouped by the offline judge's verdict: claims of one group are
# paraphrases of each other, claims of different groups never match.
PARAPHRASES = [
    ["The FSM resets to IDLE", "The FSM returns to the IDLE state", "the fsm returns to idle"],
    ["The BAUD register defaults to 0x0010", "The BAUD register defaults to 0x0010."],
    ["The TX_READY flag is driven by the FIFO_EMPTY signal", "FIFO_EMPTY drives TX_READY"],
    ["The clock runs at 8 MHz"],
    ["The FSM has 3 states"],
    ["The sky is blue today"],
]
CLAIMS = [text for group in PARAPHRASES for text in group]


def sequential_match(gateway, a_gen, a_ref):
    """The per-atom protocol: one judge request per generated atom, each
    seeing only the references no earlier atom matched."""
    available = list(range(len(a_ref)))
    matched = []
    for atom in a_gen:
        if not available:
            break
        request = prompts.atom_match([atom], [a_ref[i] for i in available])
        idx = gateway.chat(request)["matches"][0]
        if idx is not None:
            available.pop(idx)
            matched.append(atom)
    return matched


class TestMatchOracle:
    def test_claim_groups_are_the_judges_verdicts(self, offline_gateway):
        for group in PARAPHRASES:
            for claim in CLAIMS:
                assert (match(offline_gateway, [claim], group[:1]) == [claim]) == (claim in group)

    @given(st.lists(st.sampled_from(CLAIMS), max_size=8),
           st.lists(st.sampled_from(CLAIMS), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_batched_match_equals_the_per_atom_protocol(self, a_gen, a_ref):
        gateway = make_offline_gateway()
        assert match(gateway, a_gen, a_ref) == sequential_match(gateway, a_gen, a_ref)


def brute_force_f1(m, g, r):
    p = m / g if g else 0.0
    rec = m / r if r else 0.0
    return 0.0 if p + rec == 0 else 2 * p * rec / (p + rec)


class TestScore:
    def test_hand_arithmetic_case(self):
        matched = [f"a{i}" for i in range(3)]
        a_gen = matched + ["a3"]
        a_ref = [f"r{i}" for i in range(5)]
        p, r, f1 = score(matched, a_gen, a_ref)
        assert p == 0.75
        assert r == 0.6
        assert abs(f1 - 2 * 0.45 / 1.35) < 1e-12

    def test_full_overlap(self):
        atoms = ["x", "y"]
        assert score(atoms, atoms, atoms) == (1.0, 1.0, 1.0)

    def test_empty_matched(self):
        assert score([], ["x"], ["y"]) == (0.0, 0.0, 0.0)

    def test_empty_generated_precision_zero(self):
        assert score([], [], ["y"]) == (0.0, 0.0, 0.0)

    def test_matched_must_be_subset(self):
        with pytest.raises(InvalidInput):
            score(["ghost"], ["real"], ["ref"])

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_score_algebra(self, m, g, r):
        m = min(m, g, r)  # greedy one-to-one bound
        matched = [f"a{i}" for i in range(m)]
        a_gen = [f"a{i}" for i in range(g)]
        a_ref = [f"r{i}" for i in range(r)]
        p, rec, f1 = score(matched, a_gen, a_ref)
        assert 0.0 <= p <= 1.0 and 0.0 <= rec <= 1.0 and 0.0 <= f1 <= 1.0
        assert f1 <= min(2 * p, 2 * rec) + 1e-12
        assert abs(f1 - brute_force_f1(m, g, r)) <= 1e-12


def logged_round(accepted):
    """A retrieval round that accepted ``accepted``, as a run logs it."""
    return RetrievalRound(sub_query="q", target_anchor=SemanticAnchor("declarative", "x"),
                          ranked=[], accepted=list(accepted))


class TestSystemRecall:
    def log(self, *rounds):
        return [logged_round(r) for r in rounds]

    def test_all_gold_retrieved(self):
        log = self.log(["p1", "p2"], ["p3", "p4", "p5"])
        assert system_recall_at_k(log, ["p1", "p2", "p3", "p4", "p5"], 20) == 1.0

    def test_four_of_five(self):
        log = self.log(["p1", "p2", "p3", "p4"])
        assert system_recall_at_k(log, ["p1", "p2", "p3", "p4", "p5"], 20) == 0.8

    def test_budget_caps_pool(self):
        log = self.log(["x1", "x2", "x3", "gold"])
        assert system_recall_at_k(log, ["gold"], 3) == 0.0
        assert system_recall_at_k(log, ["gold"], 4) == 1.0

    def test_empty_gold_not_applicable(self):
        assert system_recall_at_k(self.log(["p1"]), [], 20) is None

    def test_gold_removed_by_the_anchor_filter_still_counts(self):
        # the pool is what expansion accepted, read before the anchor filter
        entry = logged_round(["p1", "gold"])
        entry.filtered, entry.removed = ["p1"], ["gold"]
        assert system_recall_at_k([entry], ["gold"], 20) == 1.0

    def test_k_must_be_positive(self):
        with pytest.raises(InvalidInput):
            system_recall_at_k(self.log(["p1"]), ["p1"], 0)


class TestTwoSigma:
    def test_hand_computed_example(self):
        # mean 0.9, population sigma 0.3, bounds [0.3, 1.5]: the 0 drops
        result = aggregate_two_sigma([1.0] * 9 + [0.0])
        assert result.mean == 1.0
        assert result.dropped == 1

    def test_all_equal_unchanged(self):
        scores = [0.7] * 6
        result = aggregate_two_sigma(scores)
        assert result.mean == sum(scores) / len(scores)
        assert result.dropped == 0

    def test_two_equal_scores(self):
        assert aggregate_two_sigma([0.8, 0.8]).mean == 0.8

    def test_single_score_raw_mean(self):
        result = aggregate_two_sigma([0.5])
        assert result.mean == 0.5
        assert result.dropped == 0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            aggregate_two_sigma([])

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_idempotent_on_clean_data(self, scores):
        n = len(scores)
        mean = sum(scores) / n
        sigma = math.sqrt(sum((x - mean) ** 2 for x in scores) / n)
        clean = all(abs(x - mean) <= 2 * sigma for x in scores)
        result = aggregate_two_sigma(scores)
        if clean:
            assert result.mean == mean
            assert result.dropped == 0

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_never_drops_everything(self, scores):
        assert aggregate_two_sigma(scores).dropped < len(scores)


class TestDataset:
    def test_shipped_dataset_loads_and_validates(self, dataset, graph):
        assert len(dataset) == 5
        types = {item.question_type for item in dataset}
        assert len(types) == 5
        for item in dataset:
            assert item.hop_count >= 1
            for pid in item.gold_passages:
                assert pid in graph.passages

    def test_invalid_items_rejected(self):
        with pytest.raises(InvalidInput):
            QAItem(qid="x", question="q", question_type="nonsense", hop_count=1,
                   gold_answer="a", gold_atoms=["a"], gold_passages=[])
        with pytest.raises(InvalidInput):
            QAItem(qid="x", question="q", question_type="signal-dependency",
                   hop_count=0, gold_answer="a", gold_atoms=["a"], gold_passages=[])
        with pytest.raises(InvalidInput):
            QAItem(qid="x", question="q", question_type="signal-dependency",
                   hop_count=1, gold_answer="a", gold_atoms=[], gold_passages=[])


class TestBenchmark:
    def small_cfg(self):
        cfg = make_config()
        cfg.eval.n_runs = 1
        cfg.eval.n_judge = 2
        return cfg

    def test_atomic_score_end_to_end(self, offline_gateway):
        result = atomic_score(
            offline_gateway,
            "The TX_READY flag is driven by the FIFO_EMPTY signal.",
            ["The TX_READY flag is driven by the FIFO_EMPTY signal."])
        assert result.f1 == 1.0

    def test_benchmark_scores_fixture_dataset(self, dataset, graph, offline_gateway):
        cfg = self.small_cfg()
        report = run_benchmark(dataset, graph, offline_gateway, cfg)
        assert report.overall_f1 == 1.0
        assert report.mean_system_recall == 1.0
        chain = next(i for i in report.items if i.question_type == "signal-dependency")
        assert chain.rounds_used == chain.hop_count == 3

    def test_unanswerable_item_flagged_others_scored(self, dataset, graph, offline_gateway):
        bad = QAItem(qid="bad-1", question="Which clock domain feeds the GHOST counter?",
                     question_type="signal-dependency", hop_count=2,
                     gold_answer="unknown", gold_atoms=["The GHOST counter is clocked."],
                     gold_passages=["serial_link_spec#p0013"])
        report = run_benchmark(dataset + [bad], graph, offline_gateway, self.small_cfg())
        flagged = next(i for i in report.items if i.qid == "bad-1")
        assert "stall_exit" in flagged.flags
        assert flagged.f1 == 0.0
        for item in report.items:
            if item.qid != "bad-1":
                assert item.f1 == 1.0

    def test_gold_passage_must_resolve(self, dataset, graph, offline_gateway):
        bad = QAItem(qid="bad-2", question="q?", question_type="signal-dependency",
                     hop_count=1, gold_answer="a", gold_atoms=["a"],
                     gold_passages=["nonexistent#p9999"])
        with pytest.raises(InvalidInput):
            run_benchmark([bad], graph, offline_gateway, self.small_cfg())

    def test_paper_scale_repetition_config_accepted(self):
        cfg = make_config()
        assert cfg.eval.n_runs == 5
        assert cfg.eval.n_judge == 20

    def test_report_render_has_category_columns(self, dataset, graph, offline_gateway):
        report = run_benchmark(dataset, graph, offline_gateway, self.small_cfg())
        text = report.render_text()
        assert "signal-dependency" in text
        assert "Recall@20" in text

    def test_parallel_jobs_report_identical(self, dataset, graph, offline_gateway):
        serial_cfg = self.small_cfg()
        parallel_cfg = self.small_cfg()
        parallel_cfg.jobs = 3
        serial = run_benchmark(dataset, graph, offline_gateway, serial_cfg)
        parallel = run_benchmark(dataset, graph, offline_gateway, parallel_cfg)
        assert json.dumps(serial.to_dict(), sort_keys=True) == \
               json.dumps(parallel.to_dict(), sort_keys=True)


class SamplingOffline(OfflineModel):
    """The offline rules behind a provider that declares it samples."""

    deterministic = False


class CountingGateway(Gateway):
    """Counts chat calls by task tag."""

    def __post_init__(self):
        super().__post_init__()
        self.calls = Counter()

    def chat(self, req):
        self.calls[req.task_tag] += 1
        return super().chat(req)


def paper_cfg():
    cfg = make_config()
    assert (cfg.eval.n_runs, cfg.eval.n_judge) == (5, 20)
    return cfg


class TestRepetitions:
    def gateway(self, mode, store, cls=CountingGateway, provider=None):
        return cls(provider=provider if mode != "replay" else None, mode=mode,
                   fixtures=FixtureStore(store) if mode != "live" else None,
                   chat_model="offline-chat", embedding_model="offline-embed")

    @pytest.mark.parametrize("mode", ["replay", "record", "live"])
    def test_fixed_replies_answer_once_and_judge_once(self, mode, tmp_path, dataset, graph):
        cfg = paper_cfg()
        store = tmp_path / "replies.jsonl"
        if mode == "replay":
            recorder = self.gateway("record", store, Gateway, OfflineModel())
            for item in dataset:
                evaluation.evaluate_item(recorder, graph, item, cfg)
        for item in dataset:
            once = self.gateway(mode, store, provider=OfflineModel())
            record = reasoning.run(item.question, graph, once, cfg)
            atomic_score(once, record.answer, item.gold_atoms)
            gw = self.gateway(mode, store, provider=OfflineModel())
            result = evaluation.evaluate_item(gw, graph, item, cfg)
            assert gw.calls == once.calls
            assert result.samples == 1
            assert result.error is None
            assert gw.replies_fixed

    def test_sampling_provider_keeps_every_repetition(self, dataset, graph):
        # the offline rules answer alike either way, so the n_runs x n_judge
        # samples of a sampling provider must agree with the single sample
        cfg = paper_cfg()
        sampling = self.gateway("live", None, provider=SamplingOffline())
        assert not sampling.replies_fixed
        fixed = make_offline_gateway()
        for item in dataset:
            sampled = evaluation.evaluate_item(sampling, graph, item, cfg)
            once = evaluation.evaluate_item(fixed, graph, item, cfg)
            assert sampled.samples == 100
            assert once.samples == 1
            assert dataclasses.replace(sampled, samples=1) == once
        # every answer has atoms: one decompose and one match per judge pass
        assert sampling.calls["atom-decompose"] == 100 * len(dataset)
        assert sampling.calls["atom-match"] == 100 * len(dataset)

    def test_system_recall_averaged_over_runs(self, dataset, graph, monkeypatch):
        item = dataset[0]
        gold = item.gold_passages

        def record(accepted):
            return reasoning.AnswerRecord(question=item.question, answer=item.gold_answer,
                                          provenance=[], retrieval_log=[logged_round(accepted)],
                                          rounds_used=1, flags=[], thoughts=[])

        records = iter([record(gold), record([])])
        monkeypatch.setattr(evaluation.reasoning, "run", lambda *args: next(records))
        cfg = make_config()
        cfg.eval.n_runs, cfg.eval.n_judge = 2, 1
        gw = self.gateway("live", None, provider=SamplingOffline())
        result = evaluation.evaluate_item(gw, graph, item, cfg)
        assert result.samples == 2
        assert result.system_recall == 0.5

    def test_benchmark_logs_effective_repetitions(self, dataset, graph, caplog):
        with caplog.at_level(logging.INFO, logger="speckg.evaluation"):
            run_benchmark(dataset[:1], graph, make_offline_gateway(), paper_cfg())
        assert ("replies fixed by request: 1 run x 1 judge per item (config: 5 x 20)"
                in caplog.messages)
