import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from speckg import prompts, providers
from speckg.errors import ConfigError, MalformedReply, ProviderRefused, TransientError
from speckg.gateway import Gateway
from speckg.offline import OfflineModel
from speckg.providers import HttpProvider, make_provider

from conftest import QA_DATASET, SPEC_DOC


class FakeResponse:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status_code = status
        self.text = payload if isinstance(payload, str) else json.dumps(payload)

    def json(self):
        if isinstance(self.payload, str):
            raise ValueError("Expecting value: line 1 column 1 (char 0)")
        return self.payload


class StubRequests(types.ModuleType):
    """A stand-in for the ``requests`` module, since no network is reachable:
    each ``post`` takes the next of ``outcomes``, raising it if it is an
    exception and answering it otherwise, and is recorded in ``posts``."""

    class ConnectionError(OSError):
        pass

    class Timeout(OSError):
        pass

    def __init__(self, outcomes):
        super().__init__("requests")
        self.outcomes = list(outcomes)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "body": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class TestMakeProvider:
    def test_offline_scheme(self):
        assert isinstance(make_provider("offline:"), OfflineModel)

    def test_http_scheme_needs_key(self, monkeypatch):
        monkeypatch.delenv("SPECKG_API_KEY", raising=False)
        with pytest.raises(ConfigError):
            make_provider("https://api.example.com/v1")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            make_provider("ftp://nope")


def test_declared_determinism():
    # the offline rules answer a request the same way every time; a hosted
    # model samples
    assert OfflineModel.deterministic is True
    assert HttpProvider.deterministic is False


CHAT_OK = FakeResponse({"choices": [{"message": {"content": "the reply"}}]})


class TestHttpProvider:
    @pytest.fixture()
    def provider(self, monkeypatch):
        monkeypatch.setenv("SPECKG_API_KEY", "test-key")
        return HttpProvider("https://api.example.com/v1/")

    @staticmethod
    def stub(monkeypatch, *outcomes):
        stub = StubRequests(outcomes)
        monkeypatch.setitem(sys.modules, "requests", stub)
        return stub

    def test_chat_request_shape_and_reply(self, provider, monkeypatch):
        stub = self.stub(monkeypatch, CHAT_OK)
        request = prompts.atom_decompose("The CTRL register holds the mode.")
        reply = provider.chat(request, "model-x")
        assert reply == "the reply"
        [captured] = stub.posts
        assert captured["url"] == "https://api.example.com/v1/chat/completions"
        assert captured["headers"]["Authorization"] == "Bearer test-key"
        assert captured["body"]["model"] == "model-x"
        task = prompts.TASKS["atom-decompose"]
        assert captured["body"]["temperature"] == task.temperature == 0.2
        assert captured["body"]["messages"] == [
            {"role": "system", "content": task.system},
            {"role": "user", "content": prompts._render(
                task.instruction, {"answer": "The CTRL register holds the mode."})},
        ]

    def test_embed_orders_by_index(self, provider, monkeypatch):
        stub = self.stub(monkeypatch, FakeResponse({"data": [
            {"index": 1, "embedding": [0.0, 1.0]},
            {"index": 0, "embedding": [1.0, 0.0]},
        ]}))
        vectors = provider.embed(["a", "b"], "embed-x")
        assert vectors == [[1.0, 0.0], [0.0, 1.0]]
        [captured] = stub.posts
        assert captured["url"].endswith("/embeddings")
        assert captured["body"]["input"] == ["a", "b"]

    def test_http_error_propagates_for_gateway_retry(self, provider, monkeypatch):
        self.stub(monkeypatch, FakeResponse({}, status=500))
        request = prompts.atom_decompose("u")
        with pytest.raises(TransientError):
            provider.chat(request, "m")

    @pytest.mark.parametrize("outcome", [
        StubRequests.ConnectionError("connection refused"),
        StubRequests.Timeout("read timed out"),
        FakeResponse({}, status=429),
        FakeResponse({}, status=503),
    ], ids=["connection", "timeout", "429", "503"])
    def test_what_a_retry_can_change_is_transient(self, provider, monkeypatch, outcome):
        self.stub(monkeypatch, outcome)
        with pytest.raises(TransientError):
            provider.embed(["a"], "m")

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_another_error_status_is_refused(self, provider, monkeypatch, status):
        self.stub(monkeypatch, FakeResponse({"error": "no such model"}, status=status))
        with pytest.raises(ProviderRefused, match=f"HTTP {status}.*no such model"):
            provider.chat(prompts.atom_decompose("u"), "m")

    @pytest.mark.parametrize("call, body", [
        ("chat", {"choices": []}),
        ("chat", {"choices": [{"message": {}}]}),
        ("chat", {"choices": [{"message": {"content": None}}]}),
        ("chat", ["not", "an", "object"]),
        ("chat", "<html>not json</html>"),
        ("embed", {"data": [{"index": 0}]}),
        ("embed", {"vectors": []}),
        ("embed", {"data": None}),
    ])
    def test_a_body_of_the_wrong_shape_is_malformed(self, provider, monkeypatch, call, body):
        self.stub(monkeypatch, FakeResponse(body))
        with pytest.raises(MalformedReply):
            if call == "chat":
                provider.chat(prompts.atom_decompose("u"), "m")
            else:
                provider.embed(["a"], "m")

    def test_gateway_retries_transient_failures_only(self, provider, monkeypatch):
        stub = self.stub(monkeypatch, StubRequests.ConnectionError("refused"),
                         FakeResponse({}, status=502), CHAT_OK)
        slept = []
        gw = Gateway(provider=provider, sleep=slept.append)
        assert gw.chat(prompts.synthesize("q", [], [], False)) == "the reply"
        assert (len(stub.posts), slept) == (3, [1.0, 2.0])

        stub = self.stub(monkeypatch, FakeResponse({"error": "bad key"}, status=401), CHAT_OK)
        slept.clear()
        with pytest.raises(ProviderRefused):
            gw.chat(prompts.synthesize("q", [], [], False))
        assert (len(stub.posts), slept) == (1, [])


def loaded_after(code: str, package: str) -> list[str]:
    """The modules of ``package`` that a fresh interpreter has loaded after
    running ``code``."""
    code += ("\nimport json, sys; print(json.dumps(sorted(m for m in sys.modules "
             f"if m == {package!r} or m.startswith({package + '.'!r}))))")
    src = Path(providers.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_imports_no_requests():
    # requests is imported on a hosted model's first call, not at start-up: a
    # fresh interpreter that imports the CLI loads no requests module
    assert loaded_after("import speckg.cli", "requests") == []


def test_runtime_never_imports_jsonschema(tmp_path):
    # jsonschema is a test dependency only: in a fresh interpreter where any
    # import of it fails, a record build, a record-then-replay bench and a
    # rejected reply all run
    kg, replies = str(tmp_path / "kg"), str(tmp_path / "replies.jsonl")
    bench = ["bench", "--kg", kg, "--dataset", str(QA_DATASET), "--fixtures", replies]
    code = (
        "import sys; sys.modules['jsonschema'] = None\n"
        "from speckg import cli, schemas\n"
        f"assert cli.main(['build-kg', '--mode', 'record', '--fixtures', {replies!r}, "
        f"'--spec', {str(SPEC_DOC)!r}, '--out', {kg!r}]) == 0\n"
        f"assert cli.main({bench!r} + ['--mode', 'record', "
        f"'--run-dir', {str(tmp_path / 'record')!r}]) == 0\n"
        f"assert cli.main({bench!r} + ['--mode', 'replay', "
        f"'--run-dir', {str(tmp_path / 'replay')!r}]) == 0\n"
        "assert schemas.validate_reply('atom-list', {'atoms': [1]}) == "
        "'reply.atoms[0] is not a string'"
    )
    assert loaded_after(code, "jsonschema") == ["jsonschema"]  # the None entry
    reports = [(tmp_path / run / "report.json").read_bytes() for run in ("record", "replay")]
    assert reports[0] == reports[1]
