"""Live providers behind the gateway."""

from __future__ import annotations

import os

from .errors import ConfigError
from .gateway import ChatRequest
from .offline import OfflineModel

OFFLINE_SCHEME = "offline:"


class HttpProvider:
    """Chat-completion-style web API with message-list payloads.

    Endpoint, model names, and the API-key environment variable come from
    config; nothing here is vendor-specific beyond the de-facto wire shape.
    A hosted model samples, so the same request may get another reply.
    """

    deterministic = False

    def __init__(self, endpoint: str, api_key_env: str = "SPECKG_API_KEY",
                 timeout: float = 120.0):
        self.endpoint = endpoint.rstrip("/")
        self.timeout = timeout
        self.api_key = os.environ.get(api_key_env, "")
        if not self.api_key:
            raise ConfigError(
                f"live provider needs an API key in ${api_key_env} (or use 'offline:')"
            )

    def _headers(self) -> dict:
        return {"Authorization": f"Bearer {self.api_key}",
                "Content-Type": "application/json"}

    def _post(self, path: str, body: dict) -> dict:
        # Imported here: only a hosted model needs requests, and importing it
        # takes about 60 ms of every CLI start.
        import requests

        resp = requests.post(f"{self.endpoint}/{path}", json=body,
                             headers=self._headers(), timeout=self.timeout)
        resp.raise_for_status()
        return resp.json()

    def chat(self, request: ChatRequest, model: str) -> str:
        body = {
            "model": model,
            "temperature": request.temperature,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
        }
        return self._post("chat/completions", body)["choices"][0]["message"]["content"]

    def embed(self, texts: list[str], model: str) -> list[list[float]]:
        data = self._post("embeddings", {"model": model, "input": texts})["data"]
        return [d["embedding"] for d in sorted(data, key=lambda d: d["index"])]


def make_provider(endpoint: str, api_key_env: str = "SPECKG_API_KEY"):
    """Endpoint scheme selects the backend: 'offline:' or an http(s) URL."""
    if endpoint.startswith(OFFLINE_SCHEME):
        return OfflineModel()
    if endpoint.startswith(("http://", "https://")):
        return HttpProvider(endpoint, api_key_env)
    raise ConfigError(f"unsupported provider endpoint {endpoint!r}")
