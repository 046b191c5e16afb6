import json

import numpy as np
import pytest

from speckg import prompts
from speckg.errors import FixtureMiss, InvalidInput, MalformedReply, RetryExhausted
from speckg.gateway import ChatRequest, EmbeddingVector, FixtureStore, Gateway, chat_digest
from speckg.offline import OfflineModel

from conftest import make_offline_gateway


def req(**kwargs):
    defaults = dict(task_tag="summarize", system_prompt="sys", user_prompt="hello",
                    temperature=0.7, response_schema_id="freeform")
    defaults.update(kwargs)
    return ChatRequest(**defaults)


class TestChatRequest:
    def test_temperature_bounds(self):
        with pytest.raises(InvalidInput):
            req(temperature=-0.1)
        with pytest.raises(InvalidInput):
            req(temperature=2.5)

    def test_empty_task_tag_rejected(self):
        with pytest.raises(InvalidInput):
            req(task_tag="")

    def test_unknown_schema_rejected(self):
        with pytest.raises(InvalidInput):
            req(response_schema_id="nope")


class TestDigest:
    def test_identical_requests_identical_digests(self):
        assert chat_digest(req(), "m") == chat_digest(req(), "m")

    def test_temperature_changes_digest(self):
        assert chat_digest(req(temperature=0.7), "m") != chat_digest(req(temperature=0.2), "m")

    def test_task_tag_changes_digest(self):
        assert chat_digest(req(task_tag="summarize"), "m") != chat_digest(req(task_tag="reason"), "m")

    def test_model_changes_digest(self):
        assert chat_digest(req(), "a") != chat_digest(req(), "b")

    def test_trailing_whitespace_trimmed_only(self):
        assert chat_digest(req(user_prompt="hello  \n"), "m") == chat_digest(req(user_prompt="hello"), "m")
        assert chat_digest(req(user_prompt="  hello"), "m") != chat_digest(req(user_prompt="hello"), "m")


class TestRecordReplay:
    def test_replay_returns_recorded_reply_byte_identical(self, tmp_path):
        store_path = tmp_path / "replies.jsonl"
        rec = Gateway(provider=OfflineModel(), mode="record",
                      fixtures=FixtureStore(store_path),
                      chat_model="offline-chat", embedding_model="offline-embed")
        request = prompts.summarize("what is x", [{"passage_id": "p", "text": "x is 4."}])
        live_reply = rec.chat(request)

        replay = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path),
                         chat_model="offline-chat", embedding_model="offline-embed")
        assert replay.chat(request) == live_reply
        assert replay.chat(request) == live_reply

    def test_replay_miss_is_hard_error(self, tmp_path):
        store = FixtureStore(tmp_path / "empty.jsonl")
        replay = Gateway(provider=None, mode="replay", fixtures=store)
        with pytest.raises(FixtureMiss):
            replay.chat(req())
        with pytest.raises(FixtureMiss):
            replay.embed(["never recorded"])

    def test_record_persists_digest_reply_pairs(self, tmp_path):
        store_path = tmp_path / "replies.jsonl"
        rec = Gateway(provider=OfflineModel(), mode="record",
                      fixtures=FixtureStore(store_path),
                      chat_model="offline-chat", embedding_model="offline-embed")
        rec.chat(prompts.summarize("q", [{"passage_id": "p", "text": "body text."}]))
        rec.embed(["one text"])
        records = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert len(records) == 2
        assert all({"digest", "task_tag", "reply"} <= set(r) for r in records)

    def test_recording_twice_writes_identical_files(self, tmp_path):
        # records carry no wall-clock field, so a re-recorded fixture file is
        # byte-identical to the first
        for name in ("first.jsonl", "second.jsonl"):
            rec = Gateway(provider=OfflineModel(), mode="record",
                          fixtures=FixtureStore(tmp_path / name),
                          chat_model="offline-chat", embedding_model="offline-embed")
            rec.chat(prompts.summarize("q", [{"passage_id": "p", "text": "body text."}]))
            rec.chat(prompts.atom_match("x is 1", ["x is 1"]))
            rec.embed(["one text", "two text"])
        first = (tmp_path / "first.jsonl").read_bytes()
        assert first.count(b"\n") == 4
        assert first == (tmp_path / "second.jsonl").read_bytes()

    def test_replay_mode_requires_fixtures(self):
        with pytest.raises(InvalidInput):
            Gateway(provider=None, mode="replay", fixtures=None)

    def test_temperatures_by_task(self):
        # generative tasks run warm, evaluation tasks cold
        assert prompts.summarize("q", []).temperature == 0.7
        assert prompts.atom_match("a", ["b"]).temperature == 0.2
        assert isinstance(make_offline_gateway().chat(
            prompts.summarize("q", [{"passage_id": "p", "text": "q body."}])), str)
        verdict = make_offline_gateway().chat(prompts.atom_match("x is 1", ["x is 1"]))
        assert verdict == {"match_index": 0}


def test_digest_format_frozen():
    # a fixed digest pins the hashing layout: accidental format drift would
    # silently invalidate every recorded fixture store in the wild
    fixed = ChatRequest(task_tag="summarize", system_prompt="sys",
                        user_prompt="hello", temperature=0.7,
                        response_schema_id="freeform")
    assert chat_digest(fixed, "m") == (
        "fcd55321e6a3831be30063bbf9fe3dd65e66e1dac3f51a56e6386ffe9f5722d8")


def test_record_mode_serializes_concurrent_writes(tmp_path):
    import threading

    store_path = tmp_path / "replies.jsonl"
    gw = Gateway(provider=OfflineModel(), mode="record",
                 fixtures=FixtureStore(store_path),
                 chat_model="offline-chat", embedding_model="offline-embed")

    def worker(i):
        gw.embed([f"text number {i}"])

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    lines = [json.loads(l) for l in store_path.read_text().splitlines()]
    assert len(lines) == 16
    assert len({r["digest"] for r in lines}) == 16


def test_embedding_vector_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        EmbeddingVector(values=(1.0, float("nan")), dim=2, model_id="m")
    with pytest.raises(InvalidInput):
        EmbeddingVector(values=(float("inf"), 0.0), dim=2, model_id="m")
    with pytest.raises(InvalidInput):
        EmbeddingVector(values=(1.0,), dim=2, model_id="m")


def test_task_models_route_by_tag():
    class EchoModel:
        def chat(self, request, model):
            return model

        def embed(self, texts, model):
            return [[1.0] for _ in texts]

    gw = Gateway(provider=EchoModel(), mode="live", chat_model="general",
                 task_models={"reason": "deep-reasoner"})
    assert gw.chat(req(task_tag="summarize")) == "general"
    assert gw.chat(req(task_tag="reason")) == "deep-reasoner"


class TestEmbed:
    def test_same_text_same_vector(self, tmp_path):
        gw = make_offline_gateway()
        v1, = gw.embed(["x"])
        v2, = gw.embed(["x"])
        assert v1.values == v2.values

    def test_batch_shape_and_order(self):
        gw = make_offline_gateway()
        vecs = gw.embed(["a", "b"])
        assert len(vecs) == 2
        assert vecs[0].dim == vecs[1].dim

    def test_unit_norm_within_1e6(self):
        gw = make_offline_gateway()
        for vec in gw.embed(["alpha beta", "gamma delta epsilon", "0x10"]):
            assert abs(np.linalg.norm(vec.as_array()) - 1.0) < 1e-6

    def test_self_cosine_is_one(self):
        gw = make_offline_gateway()
        v, = gw.embed(["the TX_READY flag"])
        assert abs(v.cosine(v) - 1.0) < 1e-6

    def test_empty_inputs_rejected(self):
        gw = make_offline_gateway()
        with pytest.raises(InvalidInput):
            gw.embed([])
        with pytest.raises(InvalidInput):
            gw.embed(["   "])

    def test_cross_model_comparison_rejected(self):
        a = EmbeddingVector(values=(1.0, 0.0), dim=2, model_id="m1")
        b = EmbeddingVector(values=(1.0, 0.0), dim=2, model_id="m2")
        with pytest.raises(InvalidInput):
            a.cosine(b)


class FailingProvider:
    def __init__(self, failures, reply="ok"):
        self.failures = failures
        self.calls = 0
        self.reply = reply

    def chat(self, request, model):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError("transport down")
        return self.reply

    def embed(self, texts, model):
        raise ConnectionError("transport down")


class TestRetriesAndSchemaGate:
    def test_retry_then_success(self):
        provider = FailingProvider(failures=2)
        delays = []
        gw = Gateway(provider=provider, mode="live", sleep=delays.append)
        assert gw.chat(req()) == "ok"
        assert provider.calls == 3
        assert delays == [1.0, 2.0]  # exponential backoff from 1s

    def test_retry_exhausted(self):
        provider = FailingProvider(failures=10)
        gw = Gateway(provider=provider, mode="live", sleep=lambda s: None)
        with pytest.raises(RetryExhausted):
            gw.chat(req())
        assert provider.calls == 3

    def test_invalid_structured_reply_repaired_once_then_fails(self):
        class BadProvider:
            def __init__(self):
                self.calls = 0

            def chat(self, request, model):
                self.calls += 1
                return "not json at all"

        provider = BadProvider()
        gw = Gateway(provider=provider, mode="live", sleep=lambda s: None)
        with pytest.raises(MalformedReply):
            gw.chat(req(task_tag="atom-match", response_schema_id="match-verdict",
                        temperature=0.2))
        assert provider.calls == 2  # original + one repair round-trip

    def test_repair_roundtrip_recovers(self):
        class FlakyJson:
            def __init__(self):
                self.calls = 0

            def chat(self, request, model):
                self.calls += 1
                if self.calls == 1:
                    return "{broken"
                return json.dumps({"match_index": None})

        gw = Gateway(provider=FlakyJson(), mode="live", sleep=lambda s: None)
        reply = gw.chat(req(task_tag="atom-match", response_schema_id="match-verdict"))
        assert reply == {"match_index": None}

    def test_schema_gate_blocks_invalid_fixture(self, tmp_path):
        # Hand-edited fixture violating the schema must not cross the boundary.
        request = req(task_tag="atom-match", response_schema_id="match-verdict")
        digest = chat_digest(request, "default-chat")
        store_path = tmp_path / "replies.jsonl"
        store_path.write_text(json.dumps({
            "digest": digest, "task_tag": "atom-match",
            "reply": {"kind": "json", "value": {"match_index": "NaN"}},
            "timestamp": "2026-01-01T00:00:00+00:00",
        }) + "\n")
        gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        with pytest.raises(MalformedReply):
            gw.chat(request)
