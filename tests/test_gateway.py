import base64
import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speckg import gateway as gateway_module
from speckg import prompts, schemas, text
from speckg.errors import (FixtureMiss, InvalidInput, MalformedReply, ProviderRefused,
                           RetryExhausted, TransientError)
from speckg.gateway import ChatRequest, FixtureStore, Gateway, chat_digest, embed_digest
from speckg.offline import EMBED_DIM, OfflineModel

from conftest import make_offline_gateway, one_request_per_task


def synthesis():
    """A request whose reply is freeform text."""
    return prompts.synthesize("q", [], [], False)


def judging():
    """A request whose reply must meet the ``match-list`` schema."""
    return prompts.atom_match(["a"], ["b"])


class TestChatRequest:
    def test_unknown_task_tag_rejected_naming_the_tasks(self):
        with pytest.raises(InvalidInput, match="atom-match"):
            ChatRequest("summarise", {})

    def test_empty_task_tag_rejected(self):
        with pytest.raises(InvalidInput):
            ChatRequest("", {})

    # the task table is static, so its temperatures and schema ids are
    # checked here rather than on every request
    def test_temperature_bounds(self):
        assert all(0.0 <= task.temperature <= 2.0 for task in prompts.TASKS.values())

    def test_every_schema_id_known(self):
        assert all(task.schema_id == schemas.FREEFORM or task.schema_id in schemas.CHECKS
                   for task in prompts.TASKS.values())

    def test_the_task_states_all_but_the_payload(self):
        request = judging()
        task = prompts.TASKS["atom-match"]
        assert (request.system_prompt, request.temperature, request.response_schema_id) == (
            task.system, task.temperature, task.schema_id)
        assert request.user_prompt == prompts._render(task.instruction, request.payload)
        assert ChatRequest("atom-match", request.payload, note="\nmore").user_prompt == (
            request.user_prompt + "\nmore")

    def test_payload_is_what_the_prompt_sends(self):
        # the offline model reads the payload a hosted model reads in the prompt
        for request in one_request_per_task().values():
            assert json.loads(text.SORTED_JSON.encode(request.payload)) == request.payload

    def test_thoughts_appended_later_leave_the_request_alone(self):
        thoughts = ["first thought"]
        request = prompts.reason("q", thoughts, [])
        prompt = request.user_prompt
        thoughts.append("second thought")
        assert request.payload["thoughts"] == ["first thought"]
        assert request.user_prompt == prompt


class TestDigest:
    def test_identical_requests_identical_digests(self):
        assert chat_digest(synthesis(), "m") == chat_digest(synthesis(), "m")

    def test_temperature_changes_digest(self, monkeypatch):
        before = chat_digest(synthesis(), "m")
        monkeypatch.setitem(prompts.TASKS, "synthesize",
                            prompts.TASKS["synthesize"]._replace(temperature=0.2))
        assert chat_digest(synthesis(), "m") != before

    def test_task_tag_changes_digest(self):
        payload = {"question": "q"}
        assert (chat_digest(ChatRequest("summarize", payload), "m")
                != chat_digest(ChatRequest("reason", payload), "m"))

    def test_model_changes_digest(self):
        assert chat_digest(synthesis(), "a") != chat_digest(synthesis(), "b")

    def test_trailing_whitespace_trimmed_only(self):
        def digest(note):
            return chat_digest(ChatRequest("synthesize", {}, note=note), "m")
        assert digest("\nhello  \n") == digest("\nhello")
        assert digest("\n  hello") != digest("\nhello")

    @given(st.sampled_from(prompts.TASK_TAGS), st.text(), st.text(min_size=1))
    @example("reason", '\n{"model": "m"}\n', "m")
    @settings(max_examples=200, deadline=None)
    def test_header_line_then_prompt_bytes(self, tag, note, model):
        # the header is json.dumps of every field but the user prompt, which
        # escapes each newline, so the first raw newline ends it
        request = ChatRequest(tag, {"question": note}, note=note)
        task = prompts.TASKS[tag]
        header = json.dumps({"kind": "chat", "task_tag": tag,
                             "system_prompt": task.system.rstrip(),
                             "instruction": task.instruction,
                             "temperature": task.temperature,
                             "response_schema_id": task.schema_id, "model": model},
                            sort_keys=True, ensure_ascii=False)
        assert "\n" not in header
        blob = f"{header}\n{request.user_prompt.rstrip()}".encode("utf-8")
        assert chat_digest(request, model) == hashlib.sha256(blob).hexdigest()
        assert gateway_module._chat_header(tag, model) == (
            f"{header}\n".encode("utf-8"),
            hashlib.sha256(f"{header}\n".encode("utf-8")).hexdigest()[:12])

    @pytest.mark.parametrize("edit", [
        {"system": prompts.TASKS["atom-match"].system + " Be strict."},
        {"instruction": prompts.TASKS["atom-match"].instruction + " Be strict."},
        {"schema_id": "atom-list"},
    ], ids=["system-prompt", "instruction", "schema-id"])
    def test_edited_task_entry_changes_digest_after_caching(self, monkeypatch, edit):
        # the header is cached per entry value, so an edited entry is a new key
        before = chat_digest(judging(), "m")
        assert chat_digest(judging(), "m") == before  # the header is cached now
        entry = prompts.TASKS["atom-match"]
        monkeypatch.setitem(prompts.TASKS, "atom-match", entry._replace(**edit))
        assert chat_digest(judging(), "m") != before
        monkeypatch.setitem(prompts.TASKS, "atom-match", entry)
        assert chat_digest(judging(), "m") == before

    def test_one_request_two_models_two_digests_both_cached(self):
        first = [chat_digest(judging(), model) for model in ("a", "b")]
        assert first[0] != first[1]
        assert [chat_digest(judging(), model) for model in ("a", "b")] == first

    @given(st.text(), st.text())
    @example("Ünïcødé \"quoted\" \\ \n\u2028 中文  \n", "offline-embed")
    @settings(max_examples=200, deadline=None)
    def test_embed_digest_hashes_what_json_dumps_writes(self, text_, model):
        expected = json.dumps({"kind": "embed", "text": text_.rstrip(), "model": model},
                              sort_keys=True, ensure_ascii=False)
        assert embed_digest(text_, model) == hashlib.sha256(expected.encode("utf-8")).hexdigest()

    def test_embed_digest_frozen(self):
        # embed records keep their digests, so recorded vectors still replay
        assert embed_digest("The CTRL register holds the mode.", "offline-embed") == (
            "bd74e9f996763a62d2516df8200df58338bcab4eb60fb93db1d1e1f46e901768")


class TestRecordReplay:
    def test_replay_returns_recorded_reply_byte_identical(self, tmp_path):
        store_path = tmp_path / "replies.jsonl"
        rec = Gateway(provider=OfflineModel(), mode="record",
                      fixtures=FixtureStore(store_path),
                      chat_model="offline-chat", embedding_model="offline-embed")
        request = prompts.summarize("what is x", ["x is 4."], [1])
        live_reply = rec.chat(request)

        replay = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path),
                         chat_model="offline-chat", embedding_model="offline-embed")
        assert replay.chat(request) == live_reply
        assert replay.chat(request) == live_reply

    def test_replay_miss_is_hard_error(self, tmp_path):
        store = FixtureStore(tmp_path / "empty.jsonl")
        replay = Gateway(provider=None, mode="replay", fixtures=store)
        with pytest.raises(FixtureMiss):
            replay.chat(synthesis())
        with pytest.raises(FixtureMiss):
            replay.embed(["never recorded"])

    def test_record_persists_digest_reply_pairs(self, tmp_path):
        store_path = tmp_path / "replies.jsonl"
        rec = Gateway(provider=OfflineModel(), mode="record",
                      fixtures=FixtureStore(store_path),
                      chat_model="offline-chat", embedding_model="offline-embed")
        rec.chat(prompts.summarize("q", ["body text."], [1]))
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
            rec.chat(prompts.summarize("q", ["body text."], [1]))
            rec.chat(prompts.atom_match(["x is 1"], ["x is 1"]))
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
        assert prompts.atom_match(["a"], ["b"]).temperature == 0.2
        summary = make_offline_gateway().chat(
            prompts.summarize("q", ["q body."], [1]))
        assert [type(text) for text in summary["summaries"]] == [str]
        verdict = make_offline_gateway().chat(prompts.atom_match(["x is 1"], ["x is 1"]))
        assert verdict == {"matches": [0]}


class CountingModel(OfflineModel):
    """The offline model, counting the requests and texts it is sent."""

    def __init__(self):
        super().__init__()
        self.chats, self.texts = [], []

    def chat(self, request, model):
        self.chats.append(request.task_tag)
        return super().chat(request, model)

    def embed(self, texts, model):
        self.texts += texts
        return super().embed(texts, model)


def old_chat_digest(req, model):
    """A chat digest as written before digests hashed a header line and the
    prompt bytes: the sha256 of one key-sorted JSON object of every field."""
    return hashlib.sha256(json.dumps({
        "kind": "chat", "task_tag": req.task_tag, "system_prompt": req.system_prompt.rstrip(),
        "user_prompt": req.user_prompt.rstrip(), "temperature": req.temperature,
        "response_schema_id": req.response_schema_id, "model": model,
    }, sort_keys=True, ensure_ascii=False).encode("utf-8")).hexdigest()


def record(path, provider=None):
    return Gateway(provider=provider or OfflineModel(), mode="record",
                   fixtures=FixtureStore(path))


def replay(path):
    return Gateway(provider=None, mode="replay", fixtures=FixtureStore(path))


class TestTaskHash:
    STALE = "was recorded for another version of the task or model"

    def test_chat_records_carry_their_headers_task_hash(self, tmp_path):
        path = tmp_path / "replies.jsonl"
        gw = record(path)
        gw.chat(judging())
        gw.chat(synthesis())
        gw.embed(["one text"])
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [list(r) for r in records] == [["digest", "task_tag", "task_hash", "reply"]] * 2 + [
            ["digest", "task_tag", "reply"]]
        assert [r["task_hash"] for r in records[:2]] == [
            gateway_module._chat_header(tag, Gateway.chat_model)[1]
            for tag in ("atom-match", "synthesize")]
        assert FixtureStore(path).task_hashes == {
            "atom-match": {records[0]["task_hash"]}, "synthesize": {records[1]["task_hash"]},
            "embed": {None}}

    def test_old_format_chat_lines_miss_naming_the_tag(self, tmp_path):
        # a chat record written before records carried a task_hash, under the
        # old digest of the same request; the embed record still replays
        assert old_chat_digest(one_request_per_task()["atom-match"], "golden-model") == (
            "b486e5ced36d29c4dd5c5f4a8ac79729b02e12f1b67a3eb877216544f1ffbbfb")  # as pinned then
        path = tmp_path / "replies.jsonl"
        vector = np.array([3.0, 4.0])
        path.write_text("".join(json.dumps(record) + "\n" for record in [
            {"digest": old_chat_digest(judging(), Gateway.chat_model),
             "task_tag": "atom-match", "reply": {"kind": "json", "value": {"matches": [None]}}},
            {"digest": embed_digest("one text", Gateway.embedding_model), "task_tag": "embed",
             "reply": {"kind": "vector", "f8": f8(vector)}},
        ]))
        gw = replay(path)
        with pytest.raises(FixtureMiss, match=re.escape(
                f"every 'atom-match' record in {path} {self.STALE}")) as miss:
            gw.chat(judging())
        assert str(miss.value).endswith(": record the file again")
        assert gw.embed(["one text"]).tolist() == [[0.6, 0.8]]
        # a tag with no record in the file misses as before
        with pytest.raises(FixtureMiss) as miss:
            gw.chat(synthesis())
        assert "record the file again" not in str(miss.value)

    @pytest.mark.parametrize("field_", ["system", "instruction"])
    def test_file_recorded_before_a_task_edit(self, tmp_path, monkeypatch, field_):
        path = tmp_path / "replies.jsonl"
        gw = record(path)
        replies = {request.task_tag: gw.chat(request) for request in (judging(), synthesis())}
        entry = prompts.TASKS["atom-match"]
        monkeypatch.setitem(prompts.TASKS, "atom-match",
                            entry._replace(**{field_: getattr(entry, field_) + " Be strict."}))
        gw = replay(path)
        with pytest.raises(FixtureMiss, match=re.escape(f"every 'atom-match' record in {path}")):
            gw.chat(judging())
        assert gw.chat(synthesis()) == replies["synthesize"]

    def test_a_record_of_the_current_entry_keeps_other_misses_plain(self, tmp_path):
        path = tmp_path / "replies.jsonl"
        record(path).chat(judging())
        with pytest.raises(FixtureMiss) as miss:
            replay(path).chat(prompts.atom_match(["other"], ["claims"]))
        assert "record the file again" not in str(miss.value)

    def test_recording_over_an_old_file_asks_only_the_chat_requests(self, tmp_path):
        path = tmp_path / "replies.jsonl"
        gw = record(path)
        reply = gw.chat(judging())
        matrix = gw.embed(["one text", "two text"])
        # the same file as written before chat records carried a task_hash
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for line in lines:
            if line.pop("task_hash", None):
                line["digest"] = old_chat_digest(judging(), Gateway.chat_model)
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        provider = CountingModel()
        gw = record(path, provider)
        assert gw.chat(judging()) == reply
        assert gw.embed(["one text", "two text"]).tobytes() == matrix.tobytes()
        assert (provider.chats, provider.texts) == (["atom-match"], [])
        assert replay(path).chat(judging()) == reply


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
            store.put(f"d{i}", "summarize", {"kind": "text", "text": f"reply {i}"})
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
        assert len(second.entries) == 3

    @pytest.mark.parametrize("line", [
        '{"digest": "x"}', "[1]", '{"digest": 1, "reply": {"kind": "text", "text": "a"}}',
        '{"digest": "x", "reply": "a"}', "not json",
        '{"digest": "x", "task_tag": "summarize", "task_hash": 7, "reply": {"kind": "text"}}'],
        ids=["no-reply", "not-an-object", "digest-not-a-string", "reply-not-an-object",
             "not-json", "task-hash-not-a-string"])
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
            {"kind": "vector", "f8": 'not "base64"\n'},  # a plain dict takes the encoder
        ]
        digests = self.AWKWARD + [f"plain{i}" for i in range(3)]
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


# Each task's request digest at fixed inputs. A change to a task's system
# prompt, instruction, temperature or schema changes its digest, and every
# fixture file recorded before would miss on that task.
TASK_DIGESTS = {
    "ir-extract": "c534ce757fd81e9e46c1fa9fe5515b10cf6e06dcb80e4740051fee626f3caae4",
    "summarize": "3f3b8b350c3d085385627a2951d439c802cb2fddd4482338ded7cb3e42b82048",
    "reason": "b96db9f2ae25fa0c7e85420e6098855acf621421655c8fa32c855eeb5fb6146d",
    "synthesize": "8677a4c23d339945b34c841b5c9af19162003ea7130d5d39aab5d202b34208c4",
    "atom-decompose": "be79c95fd146f7aeac5b038b86b52f9b23cc0a861a0e2b4d1bc8960ceb75c027",
    "atom-match": "56110bce15ce9914e6096813a6853cd744db46458773e58bb275672ae5881a89",
}


def test_task_digests_frozen():
    requests = one_request_per_task()
    assert sorted(requests) == sorted(prompts.TASK_TAGS)
    assert {tag: r.task_tag for tag, r in requests.items()} == {tag: tag for tag in requests}
    assert {tag: chat_digest(r, "golden-model") for tag, r in requests.items()} == TASK_DIGESTS


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(st.text(), JSON_VALUES, max_size=6))
@example({"text": "Ünïcødé –   \"quoted\" \\ 中文", "score": 0.1 + 0.2,
          "nested": {"b": [1e-310, -0.0, float("inf")], "a": None}})
@settings(max_examples=200, deadline=None)
def test_shared_encoders_write_what_json_dumps_writes(payload):
    # chat digest headers, prompt payloads, offline replies and graph.jsonl
    # share the key-sorted encoder; corpus files and fixture lines the ordered one
    expected = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    assert prompts._render("Do it.", payload) == f"Do it.\n\nInput:\n```json\n{expected}\n```"
    assert text.SORTED_JSON.encode(payload) == expected
    assert text.ORDERED_JSON.encode(payload) == json.dumps(payload, ensure_ascii=False)


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
    class ModelLog(OfflineModel):
        def __init__(self):
            super().__init__()
            self.models = []

        def chat(self, request, model):
            self.models.append(model)
            return super().chat(request, model)

    provider = ModelLog()
    gw = Gateway(provider=provider, mode="live", chat_model="general",
                 task_models={"reason": "deep-reasoner"})
    requests = one_request_per_task()
    gw.chat(requests["summarize"])
    gw.chat(requests["reason"])
    assert provider.models == ["general", "deep-reasoner"]


def test_live_mode_hashes_no_request(monkeypatch):
    # only the fixture store reads digests, and live mode has none
    def refuse(*_args):
        raise AssertionError("digest computed in live mode")

    monkeypatch.setattr(gateway_module, "chat_digest", refuse)
    monkeypatch.setattr(gateway_module, "embed_digest", refuse)
    gw = make_offline_gateway()
    summary = gw.chat(prompts.summarize("q", ["q x."], [1]))
    assert [type(text) for text in summary["summaries"]] == [str]
    assert gw.chat(prompts.atom_match(["x is 1"], ["x is 1"])) == {"matches": [0]}
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
        json.dumps({"digest": embed_digest(text, Gateway.embedding_model), "task_tag": "embed",
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


def stacked_row_by_row(vectors) -> np.ndarray:
    """The unit rows the gateway returns, formed as it once did: the vectors
    stacked one by one, each divided by its np.linalg.norm."""
    raw = np.array([row for row in vectors], dtype=np.float64)
    norms = np.array([np.linalg.norm(row) for row in raw])
    return raw / norms[:, None]


# rows of mantissas in [-1, 1] at magnitudes from 1e-150 to 1e150, with a
# nonzero norm: their squares neither underflow to zero nor overflow
SCALED_ROWS = st.integers(1, 8).flatmap(lambda dim: st.lists(
    st.lists(st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1, 1), st.integers(-150, 150)),
             min_size=dim, max_size=dim).filter(nonzero_norm),
    min_size=1, max_size=6))


class TestEmbed:
    @given(SCALED_ROWS, st.booleans())
    @example([[1e150, -1e-150, 0.5], [-0.0, 1e-150, 1e-150]], True)
    @settings(max_examples=150, deadline=None)
    def test_rows_as_stacked_and_normed_one_by_one(self, vectors, as_matrix):
        # live, record and replay return the oracle's bytes, whether the
        # provider sends one float64 matrix or a list of rows
        reply = np.array(vectors) if as_matrix else vectors
        expected = stacked_row_by_row(vectors).tobytes()
        texts = [f"text {i}" for i in range(len(vectors))]
        assert Gateway(provider=VectorProvider(reply), mode="live").embed(texts).tobytes() == \
            expected
        with tempfile.TemporaryDirectory() as tmp:
            store_path = Path(tmp) / "replies.jsonl"
            assert record(store_path, VectorProvider(reply)).embed(texts).tobytes() == expected
            assert replay(store_path).embed(texts).tobytes() == expected

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

    def test_values_records_are_malformed(self, tmp_path):
        # a file recorded before vectors were stored as bytes holds decimal
        # floats, which no longer replay; "two" is recorded as bytes and does
        vectors = np.random.default_rng(2).normal(size=(2, 8)).tolist()
        store_path = tmp_path / "replies.jsonl"
        write_vector_records(store_path, [{"kind": "vector", "values": vectors[0]},
                                          {"kind": "vector", "f8": f8(vectors[1])}],
                             ["one", "two"])
        replay = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        with pytest.raises(MalformedReply, match="no base64 f8 string"):
            replay.embed(["one"])
        live = Gateway(provider=VectorProvider(vectors[1:]), mode="live")
        assert replay.embed(["two"]).tobytes() == live.embed(["two"]).tobytes()

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
        # a record-mode call whose texts are all fixture hits checks the
        # recorded vectors as replay does, and writes nothing
        store_path = tmp_path / "replies.jsonl"
        write_vector_records(store_path, [{"kind": "vector", "f8": f8(values)}
                                          for values in MALFORMED_VECTORS[case]])
        before = store_path.read_bytes()
        never = FailingProvider(1, error=AssertionError("provider called for fixture hits"))
        gw = Gateway(provider=never, mode="record", fixtures=FixtureStore(store_path))
        with pytest.raises(MalformedReply):
            gw.embed(["a", "b"])
        assert store_path.read_bytes() == before

    @pytest.mark.parametrize("case", sorted(MALFORMED_F8))
    def test_malformed_f8_records_rejected(self, tmp_path, case):
        # the checks on provider vectors hold for a hand-edited fixture file:
        # the malformed vectors as float64 bytes, and bytes that are no vector
        store_path = tmp_path / "replies.jsonl"
        write_vector_records(store_path, [{"kind": "vector", "f8": payload}
                                          for payload in MALFORMED_F8[case]])
        gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        with pytest.raises(MalformedReply):
            gw.embed(["a", "b"])


class FailingProvider:
    """Raises ``error`` on its first ``failures`` calls, chat or embed, then
    replies; it counts its calls."""

    def __init__(self, failures, reply="ok", error=TransientError("transport down")):
        self.failures = failures
        self.calls = 0
        self.reply = reply
        self.error = error

    def _call(self, reply):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return reply

    def chat(self, request, model):
        return self._call(self.reply)

    def embed(self, texts, model):
        return self._call([[1.0, 0.0] for _ in texts])


class TestRetriesAndSchemaGate:
    def test_retry_then_success(self):
        provider = FailingProvider(failures=2)
        delays = []
        gw = Gateway(provider=provider, mode="live", sleep=delays.append)
        assert gw.chat(synthesis()) == "ok"
        assert provider.calls == 3
        assert delays == [1.0, 2.0]  # exponential backoff from 1s

    def test_retry_exhausted(self):
        provider = FailingProvider(failures=10)
        gw = Gateway(provider=provider, mode="live", sleep=lambda s: None)
        with pytest.raises(RetryExhausted):
            gw.chat(synthesis())
        assert provider.calls == 3

    def test_embed_retries_a_transient_error(self):
        provider, slept = FailingProvider(failures=1), []
        gw = Gateway(provider=provider, mode="live", sleep=slept.append)
        assert gw.embed(["a", "b"]).shape == (2, 2)
        assert (provider.calls, slept) == (2, [1.0])

    @pytest.mark.parametrize("error", [
        ProviderRefused("chat/completions: HTTP 401"),
        MalformedReply("chat response lacks choices[0].message.content"),
        KeyError("passages"),
        ValueError("a program fault"),
    ], ids=lambda error: type(error).__name__)
    @pytest.mark.parametrize("call", ["chat", "embed"])
    def test_only_a_transient_error_is_retried(self, error, call):
        # anything else propagates at once, as the error it is
        provider, slept = FailingProvider(failures=10, error=error), []
        gw = Gateway(provider=provider, mode="live", sleep=slept.append)
        with pytest.raises(type(error)):
            gw.chat(synthesis()) if call == "chat" else gw.embed(["a"])
        assert (provider.calls, slept) == (1, [])

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
            gw.chat(judging())
        assert provider.calls == 2  # original + one repair round-trip

    def test_repair_roundtrip_recovers(self):
        class FlakyJson:
            def __init__(self):
                self.calls = 0

            def chat(self, request, model):
                self.calls += 1
                if self.calls == 1:
                    return "{broken"
                return json.dumps({"matches": [None]})

        gw = Gateway(provider=FlakyJson(), mode="live", sleep=lambda s: None)
        reply = gw.chat(judging())
        assert reply == {"matches": [None]}

    def test_schema_gate_blocks_invalid_fixture(self, tmp_path):
        # Hand-edited fixture violating the schema must not cross the boundary.
        request = judging()
        digest = chat_digest(request, Gateway.chat_model)
        store_path = tmp_path / "replies.jsonl"
        store_path.write_text(json.dumps({
            "digest": digest, "task_tag": "atom-match",
            "reply": {"kind": "json", "value": {"matches": ["NaN"]}},
            "timestamp": "2026-01-01T00:00:00+00:00",
        }) + "\n")
        gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        with pytest.raises(MalformedReply, match=re.escape(
                "violates schema: reply.matches[0] is neither an integer nor null")):
            gw.chat(request)

    @pytest.mark.parametrize("request_, reply, kind", [
        (judging(), {"kind": "json"}, "json"),
        (judging(), {"kind": "text", "text": "a"}, "json"),
        (judging(), {"value": {"matches": []}}, "json"),
        (synthesis(), {"kind": "json", "value": {"answer": 1}}, "text"),
        (synthesis(), {"kind": "text"}, "text"),
        (synthesis(), {"kind": "vector", "f8": ""}, "text"),
    ])
    def test_fixture_record_of_another_shape_is_malformed(self, tmp_path, request_, reply, kind):
        # a hand-edited record is input from outside the program: a freeform
        # request replays only a text record, a structured one only a json
        # record, and anything else is a malformed reply, not a KeyError or
        # an object in place of the text
        store_path = tmp_path / "replies.jsonl"
        store_path.write_text(json.dumps({
            "digest": chat_digest(request_, Gateway.chat_model), "task_tag": request_.task_tag,
            "reply": reply}) + "\n")
        gw = Gateway(provider=None, mode="replay", fixtures=FixtureStore(store_path))
        with pytest.raises(MalformedReply, match=f"holds no {kind} reply record"):
            gw.chat(request_)

    def test_repair_note_and_error_carry_the_check_message(self):
        class WrongShape:
            def __init__(self):
                self.requests = []

            def chat(self, request, model):
                self.requests.append(request)
                return json.dumps({"matches": [-1]})

        provider = WrongShape()
        gw = Gateway(provider=provider, mode="live", sleep=lambda s: None)
        with pytest.raises(MalformedReply, match=re.escape(
                "reply invalid after repair: reply.matches[0] is negative")):
            gw.chat(judging())
        assert [r.note for r in provider.requests] == [
            "", '\n\nYour previous reply was invalid:\n{"matches": [-1]}\n'
                "Validation error: reply.matches[0] is negative\n"
                "Reply again with valid JSON only."]

    def test_unknown_task_tag_costs_no_retry(self):
        # refused as the request is built, before any provider call or backoff
        slept = []
        gw = Gateway(provider=OfflineModel(), sleep=slept.append)
        with pytest.raises(InvalidInput):
            gw.chat(ChatRequest("summarise", {}))
        assert slept == []

    def test_repair_reads_the_request_payload_not_the_echoed_reply(self):
        # the repair prompt quotes the invalid fenced reply; the model still
        # answers the request's own payload
        class FencedFirst(OfflineModel):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def chat(self, request, model):
                self.calls += 1
                if self.calls == 1:
                    return '```json\n{"oops": 1}\n```'
                return super().chat(request, model)

        request = one_request_per_task()["summarize"]
        provider, slept = FencedFirst(), []
        gw = Gateway(provider=provider, sleep=slept.append)
        assert gw.chat(request) == json.loads(OfflineModel().chat(request, "offline-chat"))
        assert (provider.calls, slept) == (2, [])
