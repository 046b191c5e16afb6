import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from speckg import prompts, providers
from speckg.errors import ConfigError
from speckg.offline import OfflineModel
from speckg.providers import HttpProvider, make_provider

from conftest import SPEC_DOC


class FakeResponse:
    def __init__(self, payload, status=200):
        self.payload = payload
        self.status = status

    def raise_for_status(self):
        if self.status >= 400:
            raise RuntimeError(f"http {self.status}")

    def json(self):
        return self.payload


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


class TestHttpProvider:
    @pytest.fixture()
    def provider(self, monkeypatch):
        monkeypatch.setenv("SPECKG_API_KEY", "test-key")
        return HttpProvider("https://api.example.com/v1/")

    def test_chat_request_shape_and_reply(self, provider, monkeypatch):
        captured = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            captured.update(url=url, body=json, headers=headers)
            return FakeResponse(
                {"choices": [{"message": {"content": "the reply"}}]})

        monkeypatch.setattr("requests.post", fake_post)
        request = prompts.atom_decompose("The CTRL register holds the mode.")
        reply = provider.chat(request, "model-x")
        assert reply == "the reply"
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
        def fake_post(url, json=None, headers=None, timeout=None):
            assert url.endswith("/embeddings")
            assert json["input"] == ["a", "b"]
            return FakeResponse({"data": [
                {"index": 1, "embedding": [0.0, 1.0]},
                {"index": 0, "embedding": [1.0, 0.0]},
            ]})

        monkeypatch.setattr("requests.post", fake_post)
        vectors = provider.embed(["a", "b"], "embed-x")
        assert vectors == [[1.0, 0.0], [0.0, 1.0]]

    def test_http_error_propagates_for_gateway_retry(self, provider, monkeypatch):
        monkeypatch.setattr("requests.post",
                            lambda *a, **k: FakeResponse({}, status=500))
        request = prompts.atom_decompose("u")
        with pytest.raises(RuntimeError):
            provider.chat(request, "m")


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


def test_jsonschema_is_loaded_only_to_word_a_rejection(tmp_path):
    # the compiled predicates decide; jsonschema is imported by the first
    # rejected reply, to word its error
    assert loaded_after("import speckg.cli", "jsonschema") == []
    build = (f"from speckg import cli; assert cli.main(['build-kg', '--mode', 'record', "
             f"'--fixtures', {str(tmp_path / 'f.jsonl')!r}, '--spec', {str(SPEC_DOC)!r}, "
             f"'--out', {str(tmp_path / 'store')!r}]) == 0")
    assert loaded_after(build, "jsonschema") == []
    assert (tmp_path / "store" / "graph.jsonl").exists()
    reject = ("from speckg import schemas; "
              "assert schemas.validate_reply('atom-list', {'atoms': [1]}) is not None")
    assert "jsonschema" in loaded_after(reject, "jsonschema")
