import base64
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speckg import gateway as gateway_module
from speckg import prompts
from speckg.errors import FixtureMiss, InvalidInput, MalformedReply, RetryExhausted
from speckg.gateway import ChatRequest, FixtureStore, Gateway, chat_digest, embed_digest
from speckg.offline import EMBED_DIM, OfflineModel

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
        request = prompts.summarize("what is x", [{"passage_id": "p", "text": "x is 4."}], [1])
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
        rec.chat(prompts.summarize("q", [{"passage_id": "p", "text": "body text."}], [1]))
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
            rec.chat(prompts.summarize("q", [{"passage_id": "p", "text": "body text."}], [1]))
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
        assert prompts.summarize("q", [], []).temperature == 0.7
        assert prompts.atom_match("a", ["b"]).temperature == 0.2
        summary = make_offline_gateway().chat(
            prompts.summarize("q", [{"passage_id": "p", "text": "q body."}], [1]))
        assert [type(text) for text in summary["summaries"]] == [str]
        verdict = make_offline_gateway().chat(prompts.atom_match("x is 1", ["x is 1"]))
        assert verdict == {"match_index": 0}


class TestFixtureWrites:
    def test_puts_open_the_file_once(self, tmp_path, monkeypatch):
        import builtins

        from speckg import gateway as gateway_module

        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return builtins.open(*args, **kwargs)

        monkeypatch.setattr(gateway_module, "open", counting_open, raising=False)
        store = FixtureStore(tmp_path / "replies.jsonl")
        for i in range(500):
            store.put(f"d{i}", "embed", {"kind": "vector", "values": [float(i)]})
        assert opened == [tmp_path / "replies.jsonl"]
        assert len((tmp_path / "replies.jsonl").read_text().splitlines()) == 500

    def test_open_store_is_readable_record_by_record(self, tmp_path):
        # every put is flushed: a second store on the same path, opened while
        # the first still holds its handle, loads every record
        path = tmp_path / "nested" / "replies.jsonl"
        first = FixtureStore(path)
        for i in range(3):
            first.put(f"d{i}", "summarize", {"kind": "text", "text": f"reply {i}"})
            second = FixtureStore(path)
            assert second.entries == first.entries
        assert len(second) == 3

    @pytest.mark.parametrize("line", [
        '{"digest": "x"}', "[1]", '{"digest": 1, "reply": {"kind": "text", "text": "a"}}',
        '{"digest": "x", "reply": "a"}', "not json"],
        ids=["no-reply", "not-an-object", "digest-not-a-string", "reply-not-an-object",
             "not-json"])
    def test_bad_record_names_its_line(self, tmp_path, line):
        path = tmp_path / "replies.jsonl"
        good = {"digest": "d0", "task_tag": "summarize", "reply": {"kind": "text", "text": "a"}}
        path.write_text(json.dumps(good) + "\n" + line + "\n", encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"^{re.escape(str(path))}:2: "):
            FixtureStore(path)

    # digests and task tags that JSON must escape: quotes, backslashes,
    # control characters and line separators, and text beyond ASCII
    AWKWARD = ['d"1', "d\\2", "d\n3", "d é", "d\x00\x1f", "\U0001f600"]

    def test_vector_lines_as_json_dumps_writes_them(self, tmp_path):
        # the oracle is json.dumps(record, ensure_ascii=False) on every record
        replies = [gateway_module._vector_record(np.array([0.1, -2.5, 1e300, 5e-324]))
                   for _ in self.AWKWARD]
        replies += [
            {"kind": "text", "text": "café \"x\" \\ \n  "},
            {"kind": "json", "value": {"entité": ["µs", "a\"b", 1.5, None]}},
            {"kind": "vector", "values": [0.25, -1.0]},  # an older vector record
            {"kind": "vector", "f8": 'not "base64"\n'},  # a plain dict takes the encoder
        ]
        digests = self.AWKWARD + [f"plain{i}" for i in range(4)]
        path = tmp_path / "replies.jsonl"
        store = FixtureStore(path)
        expected = ""
        for i, (digest, reply) in enumerate(zip(digests, replies)):
            tag = self.AWKWARD[i % len(self.AWKWARD)] + "-tag"
            store.put(digest, tag, reply)
            expected += json.dumps({"digest": digest, "task_tag": tag, "reply": reply},
                                   ensure_ascii=False) + "\n"
        assert path.read_text(encoding="utf-8") == expected
        assert FixtureStore(path).entries == store.entries

    @given(st.text(), st.text(min_size=1),
           st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_any_vector_line_as_json_dumps_writes_it(self, digest, tag, values):
        reply = gateway_module._vector_record(np.array(values))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "replies.jsonl"
            FixtureStore(path).put(digest, tag, reply)
            line = path.read_text(encoding="utf-8")
        assert line == json.dumps({"digest": digest, "task_tag": tag, "reply": reply},
                                  ensure_ascii=False) + "\n"

    def test_repeated_digest_written_once(self, tmp_path):
        store = FixtureStore(tmp_path / "replies.jsonl")
        store.put("d", "summarize", {"kind": "text", "text": "first"})
        store.put("d", "summarize", {"kind": "text", "text": "second"})
        assert FixtureStore(tmp_path / "replies.jsonl").get("d") == {"kind": "text", "text": "first"}


class TestRepliesFixed:
    class Sampler:
        """A provider that declares nothing about its replies."""

        def chat(self, request, model):
            return "reply"

        def embed(self, texts, model):
            return [[1.0] for _ in texts]

    def test_replay_without_provider(self, tmp_path):
        gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(tmp_path / "r.jsonl"))
        assert gw.replies_fixed

    def test_record_serves_repeats_from_the_store(self, tmp_path):
        gw = Gateway(provider=self.Sampler(), mode="record",
                     fixtures=FixtureStore(tmp_path / "r.jsonl"))
        assert gw.replies_fixed

    def test_live_offline_provider_is_deterministic(self):
        assert make_offline_gateway().replies_fixed

    def test_live_provider_that_declares_nothing_samples(self):
        assert not Gateway(provider=self.Sampler(), mode="live").replies_fixed


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


def test_live_mode_hashes_no_request(monkeypatch):
    # only the fixture store reads digests, and live mode has none
    def refuse(*_args):
        raise AssertionError("digest computed in live mode")

    monkeypatch.setattr(gateway_module, "chat_digest", refuse)
    monkeypatch.setattr(gateway_module, "embed_digest", refuse)
    gw = make_offline_gateway()
    summary = gw.chat(prompts.summarize("q", [{"passage_id": "p", "text": "q x."}], [1]))
    assert [type(text) for text in summary["summaries"]] == [str]
    assert gw.chat(prompts.atom_match("x is 1", ["x is 1"])) == {"match_index": 0}
    assert gw.embed(["alpha", "beta"]).shape == (2, EMBED_DIM)


class VectorProvider:
    """Provider double serving preset embedding vectors, one per text."""

    def __init__(self, vectors):
        self.vectors = vectors

    def embed(self, texts, model):
        return self.vectors


MALFORMED_VECTORS = {
    "nan": [[1.0, float("nan")], [1.0, 0.0]],
    "inf": [[float("inf"), 0.0], [1.0, 0.0]],
    "zero": [[0.0, 0.0], [1.0, 0.0]],
    "norm-overflow": [[1e200, 1.0], [1.0, 0.0]],
    "ragged": [[1.0, 0.0], [1.0]],
}


def f8(values) -> str:
    """A vector's little-endian float64 bytes in base64, as record mode writes it."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


# f8 payloads for the texts "a" and "b": each malformed vector as float64
# bytes, and bytes that are broken as such
MALFORMED_F8 = {case: [f8(values) for values in vectors]
                for case, vectors in MALFORMED_VECTORS.items()}
MALFORMED_F8.update({
    "bad-base64": ["not base64!", f8([1.0, 0.0])],
    "stray-character": [f8([1.0, 0.0])[:8] + "*" + f8([1.0, 0.0])[8:], f8([1.0, 0.0])],
    "missing-padding": [f8([1.0, 0.0]).rstrip("="), f8([1.0, 0.0])],
    "beyond-ascii": ["AAAAAAAA\u00e9AAA", f8([1.0, 0.0])],
    "not-a-string": [12, f8([1.0, 0.0])],
    "partial-float": [base64.b64encode(bytes(12)).decode("ascii"), f8([1.0, 0.0])],
    "unequal-rows": [f8([1.0, 0.0]), f8([1.0, 0.0, 2.0])],
})


def write_vector_records(path, replies, texts=("a", "b")):
    path.write_text("".join(
        json.dumps({"digest": embed_digest(text, "default-embed"), "task_tag": "embed",
                    "reply": reply}) + "\n"
        for text, reply in zip(texts, replies)))


# finite floats, the edges spelled out: signed zero, subnormals, huge values;
# a row whose norm is 0 (all zeros, or subnormals whose squares underflow) or
# overflows float64 is refused by the gateway, so each row has a nonzero norm
# and no value beyond HUGE: six of them square and add up to less than the
# largest float64.
HUGE = 1e150


def nonzero_norm(row) -> bool:
    return np.linalg.norm(row) > 0


EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               HUGE, -HUGE])
FLOAT_ROWS = st.integers(1, 6).flatmap(lambda dim: st.lists(
    st.lists(EDGE_FLOATS | st.floats(-HUGE, HUGE), min_size=dim, max_size=dim)
    .filter(nonzero_norm),
    min_size=1, max_size=5))


class TestEmbed:
    def test_same_text_same_vector(self, tmp_path):
        gw = make_offline_gateway()
        assert gw.embed(["x"]).tobytes() == gw.embed(["x"]).tobytes()

    def test_batch_shape_and_order(self):
        gw = make_offline_gateway()
        matrix = gw.embed(["a", "b", "a"])
        assert matrix.dtype == np.float64
        assert matrix.shape == (3, EMBED_DIM)
        assert matrix[0].tobytes() == matrix[2].tobytes() == gw.embed(["a"])[0].tobytes()
        assert matrix[1].tobytes() == gw.embed(["b"])[0].tobytes()

    def test_unit_norm_within_1e6(self):
        gw = make_offline_gateway()
        matrix = gw.embed(["alpha beta", "gamma delta epsilon", "0x10"])
        assert np.all(np.abs(np.linalg.norm(matrix, axis=1) - 1.0) < 1e-6)
        assert np.all(np.abs(np.einsum("ij,ij->i", matrix, matrix) - 1.0) < 1e-6)

    def test_rows_normalized_one_vector_at_a_time(self):
        # each row is v / ||v|| with the norm of that vector alone, bit for
        # bit: a norm over the matrix's axis sums in another order
        vectors = np.random.default_rng(0).normal(size=(64, 48)).tolist()
        gw = Gateway(provider=VectorProvider(vectors), mode="live")
        expected = np.array([np.asarray(v) / np.linalg.norm(v) for v in vectors])
        assert gw.embed([f"text {i}" for i in range(64)]).tobytes() == expected.tobytes()

    def test_replay_returns_recorded_matrix(self, tmp_path):
        store_path = tmp_path / "replies.jsonl"
        vectors = np.random.default_rng(1).normal(size=(3, 8)).tolist()
        texts = ["one", "two", "three"]
        rec = Gateway(provider=VectorProvider(vectors), mode="record",
                      fixtures=FixtureStore(store_path))
        recorded = rec.embed(texts)
        # the file holds the provider's vectors as float64 bytes, unnormalized
        records = [json.loads(line) for line in store_path.read_text().splitlines()]
        assert [r["reply"] for r in records] == [{"kind": "vector", "f8": f8(v)}
                                                 for v in vectors]
        replay = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        assert replay.embed(texts).tobytes() == recorded.tobytes()

    @given(FLOAT_ROWS)
    @example([[-0.0, 5e-324, 1.0], [1e150, -1e150, 0.0], [2.2250738585072014e-308, -0.0, -2.0]])
    @settings(max_examples=200, deadline=None)
    def test_recorded_floats_replay_bit_for_bit(self, vectors):
        texts = [f"text {i}" for i in range(len(vectors))]
        with tempfile.TemporaryDirectory() as tmp:
            store_path = Path(tmp) / "replies.jsonl"
            rec = Gateway(provider=VectorProvider(vectors), mode="record",
                          fixtures=FixtureStore(store_path))
            recorded = rec.embed(texts)
            # each record holds the provider's own bits, the sign of zero too
            replies = [json.loads(line)["reply"] for line in
                       store_path.read_text().splitlines()]
            assert b"".join(base64.b64decode(r["f8"]) for r in replies) == \
                np.array(vectors, dtype="<f8").tobytes()
            replay = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
            assert replay.embed(texts).tobytes() == recorded.tobytes()

    def test_values_records_still_replay(self, tmp_path):
        # a file recorded before vectors were stored as bytes holds decimal
        # floats; "four" is recorded as bytes, with the vector of "one"
        vectors = np.random.default_rng(2).normal(size=(3, 8)).tolist()
        texts = ["one", "two", "three"]
        store_path = tmp_path / "replies.jsonl"
        write_vector_records(store_path, [{"kind": "vector", "values": v} for v in vectors]
                             + [{"kind": "vector", "f8": f8(vectors[0])}], texts + ["four"])
        replay = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        live = Gateway(provider=VectorProvider(vectors), mode="live")
        assert replay.embed(texts).tobytes() == live.embed(texts).tobytes()
        # one call may mix the two forms
        assert (replay.embed(["four", "two"]).tobytes()
                == replay.embed(["one", "two"]).tobytes())

    def test_replay_decodes_each_record_once(self, tmp_path, monkeypatch):
        vectors = np.random.default_rng(5).normal(size=(2, 8))
        store_path = tmp_path / "replies.jsonl"
        write_vector_records(store_path, [{"kind": "vector", "f8": f8(v)} for v in vectors])
        decoded = []
        real = gateway_module._decoded_vector
        monkeypatch.setattr(gateway_module, "_decoded_vector",
                            lambda record: decoded.append(record) or real(record))
        replay = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        first = replay.embed(["a", "b"])
        expected = first.tobytes()
        first[:] = 0.0  # the caller's matrix is its own, not the decoded rows
        assert replay.embed(["a", "b"]).tobytes() == expected
        assert replay.embed(["b"]).tobytes() == expected[len(expected) // 2:]
        assert len(decoded) == 2

    def test_provider_matrix_and_rows_alike(self, tmp_path):
        # a provider may return one float64 matrix instead of a list of rows:
        # the same unit rows and the same file either way
        vectors = np.random.default_rng(3).normal(size=(4, 8))
        texts = ["w", "x", "y", "z"]
        outputs, files = [], []
        for name, reply in (("rows", vectors.tolist()), ("matrix", vectors)):
            store_path = tmp_path / f"{name}.jsonl"
            rec = Gateway(provider=VectorProvider(reply), mode="record",
                          fixtures=FixtureStore(store_path))
            outputs.append(rec.embed(texts).tobytes())
            files.append(store_path.read_bytes())
        assert outputs[0] == outputs[1] and files[0] == files[1]

    def test_recorded_then_new_texts_in_one_call(self, tmp_path):
        # fixture hits keep their rows and only the new texts reach the provider
        vectors = np.random.default_rng(4).normal(size=(3, 8))
        store_path = tmp_path / "replies.jsonl"
        Gateway(provider=VectorProvider(vectors[:1]), mode="record",
                fixtures=FixtureStore(store_path)).embed(["b"])
        rec = Gateway(provider=VectorProvider(vectors[1:]), mode="record",
                      fixtures=FixtureStore(store_path))
        matrix = rec.embed(["a", "b", "c"])
        live = Gateway(provider=VectorProvider(vectors[[1, 0, 2]]), mode="live")
        assert matrix.tobytes() == live.embed(["a", "b", "c"]).tobytes()
        assert len(store_path.read_text().splitlines()) == 3

    def test_empty_inputs_rejected(self):
        gw = make_offline_gateway()
        with pytest.raises(InvalidInput):
            gw.embed([])
        with pytest.raises(InvalidInput):
            gw.embed(["   "])

    def test_vector_count_must_match(self):
        gw = Gateway(provider=VectorProvider([[1.0, 0.0]]), mode="live")
        with pytest.raises(MalformedReply, match="1 vectors for 2 texts"):
            gw.embed(["a", "b"])

    @pytest.mark.parametrize("case", sorted(MALFORMED_VECTORS))
    def test_malformed_provider_vectors_rejected(self, tmp_path, case):
        vectors = MALFORMED_VECTORS[case]
        with pytest.raises(MalformedReply):
            Gateway(provider=VectorProvider(vectors), mode="live").embed(["a", "b"])
        # nothing malformed is recorded
        store_path = tmp_path / "replies.jsonl"
        rec = Gateway(provider=VectorProvider(vectors), mode="record",
                      fixtures=FixtureStore(store_path))
        with pytest.raises(MalformedReply):
            rec.embed(["a", "b"])
        assert not store_path.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_VECTORS))
    def test_malformed_fixture_vectors_rejected(self, tmp_path, case):
        # the same checks hold for vectors from a hand-edited fixture file
        store_path = tmp_path / "replies.jsonl"
        write_vector_records(store_path, [{"kind": "vector", "values": values}
                                          for values in MALFORMED_VECTORS[case]])
        gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        with pytest.raises(MalformedReply):
            gw.embed(["a", "b"])

    @pytest.mark.parametrize("case", sorted(MALFORMED_F8))
    def test_malformed_f8_records_rejected(self, tmp_path, case):
        # the malformed vectors as float64 bytes, and bytes that are no vector
        store_path = tmp_path / "replies.jsonl"
        write_vector_records(store_path, [{"kind": "vector", "f8": payload}
                                          for payload in MALFORMED_F8[case]])
        gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        with pytest.raises(MalformedReply):
            gw.embed(["a", "b"])


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
