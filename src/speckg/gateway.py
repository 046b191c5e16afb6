"""Uniform access to chat and embedding models with record/replay fixtures.

Every model interaction in the pipeline goes through :class:`Gateway`. In
``record`` mode each (digest, reply) pair is persisted to a line-delimited
JSON fixture file; in ``replay`` mode a missing digest is a hard error so a
replayed run can never fall back to a live call. Embedding vectors are
L2-normalized here, once, so cosine similarity reduces to a dot product
everywhere downstream.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import jsonschema
import numpy as np

from . import schemas
from .errors import FixtureMiss, InvalidInput, MalformedReply, RetryExhausted

logger = logging.getLogger(__name__)

MODES = ("live", "record", "replay")


@dataclass(frozen=True)
class ChatRequest:
    """One chat-completion request, addressed by pipeline step."""

    task_tag: str
    system_prompt: str
    user_prompt: str
    temperature: float = 0.7
    response_schema_id: str = schemas.FREEFORM

    def __post_init__(self):
        if not self.task_tag:
            raise InvalidInput("task_tag must be non-empty")
        if not (0.0 <= self.temperature <= 2.0):
            raise InvalidInput(f"temperature {self.temperature} outside [0, 2]")
        if self.response_schema_id != schemas.FREEFORM and self.response_schema_id not in schemas.SCHEMAS:
            raise InvalidInput(f"unknown response schema id {self.response_schema_id!r}")


@dataclass(frozen=True)
class EmbeddingVector:
    """Fixed-length embedding; vectors from different models never compare."""

    values: tuple[float, ...]
    dim: int
    model_id: str

    def __post_init__(self):
        if len(self.values) != self.dim:
            raise InvalidInput(f"vector length {len(self.values)} != dim {self.dim}")
        arr = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("embedding contains non-finite values")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def cosine(self, other: "EmbeddingVector") -> float:
        if self.model_id != other.model_id:
            raise InvalidInput(
                f"cannot compare embeddings from {self.model_id!r} and {other.model_id!r}"
            )
        # Both sides are unit-normalized at the gateway boundary.
        return float(np.dot(self.as_array(), other.as_array()))


class Provider(Protocol):
    """Backend able to serve chat completions and embeddings."""

    def chat(self, request: ChatRequest, model: str) -> str: ...

    def embed(self, texts: list[str], model: str) -> list[list[float]]: ...


def chat_digest(req: ChatRequest, model: str) -> str:
    """Stable content hash over all request fields plus the resolved model.

    Prompts are hashed verbatim apart from a trailing-whitespace trim;
    anything more aggressive would alias distinct prompts.
    """
    payload = {
        "kind": "chat",
        "task_tag": req.task_tag,
        "system_prompt": req.system_prompt.rstrip(),
        "user_prompt": req.user_prompt.rstrip(),
        "temperature": req.temperature,
        "response_schema_id": req.response_schema_id,
        "model": model,
    }
    return _digest(payload)


def embed_digest(text: str, model: str) -> str:
    return _digest({"kind": "embed", "text": text.rstrip(), "model": model})


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class FixtureStore:
    """Line-delimited JSON store of recorded replies, keyed by request digest.

    Record layout (one JSON object per line)::

        {"digest": <sha256 hex>, "task_tag": <str>, "reply": <reply record>}

    where the reply record is one of
    ``{"kind": "text", "text": str}``,
    ``{"kind": "json", "value": object}``, or
    ``{"kind": "vector", "values": [float, ...]}``.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[str, dict] = {}
        self._lock = threading.Lock()
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InvalidInput(f"{self.path}:{lineno}: bad fixture record") from exc
                self.entries[record["digest"]] = record["reply"]

    def get(self, digest: str) -> dict | None:
        return self.entries.get(digest)

    def put(self, digest: str, task_tag: str, reply: dict) -> None:
        """Persist one reply; record mode serializes writes, replays stay stable."""
        with self._lock:
            if digest in self.entries:
                return
            self.entries[digest] = reply
            self.path.parent.mkdir(parents=True, exist_ok=True)
            record = {"digest": digest, "task_tag": task_tag, "reply": reply}
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class Gateway:
    """Mode-aware front door for all model calls.

    ``task_models`` routes a task_tag to a specific chat model; unrouted tags
    use ``chat_model``. Retries are bounded (3 attempts, exponential backoff
    starting at 1s) and one repair round-trip is attempted when a structured
    reply fails validation.
    """

    provider: Provider | None
    mode: str = "live"
    fixtures: FixtureStore | None = None
    chat_model: str = "default-chat"
    embedding_model: str = "default-embed"
    task_models: dict[str, str] = field(default_factory=dict)
    max_attempts: int = 3
    backoff_base: float = 1.0
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidInput(f"gateway mode must be one of {MODES}, got {self.mode!r}")
        if self.mode in ("record", "replay") and self.fixtures is None:
            raise InvalidInput(f"{self.mode} mode requires a fixture store")
        if self.mode in ("live", "record") and self.provider is None:
            raise InvalidInput(f"{self.mode} mode requires a provider")

    # -- chat ---------------------------------------------------------------

    def chat(self, req: ChatRequest):
        """Return the reply for ``req``: text for freeform, parsed JSON otherwise."""
        model = self.task_models.get(req.task_tag, self.chat_model)
        digest = chat_digest(req, model)

        if self.mode == "replay":
            record = self.fixtures.get(digest)
            if record is None:
                raise FixtureMiss(
                    f"no fixture for task_tag={req.task_tag!r} digest={digest[:12]}..."
                )
            return self._decode_chat(req, record)

        if self.mode == "record":
            record = self.fixtures.get(digest)
            if record is not None:
                return self._decode_chat(req, record)

        reply = self._chat_live(req, model)
        if self.mode == "record":
            self.fixtures.put(digest, req.task_tag, self._encode_chat(reply))
        return reply

    def _chat_live(self, req: ChatRequest, model: str):
        raw = self._with_retries(lambda: self.provider.chat(req, model), req.task_tag)
        if req.response_schema_id == schemas.FREEFORM:
            return raw
        reply, error = self._parse_structured(req.response_schema_id, raw)
        if error is None:
            return reply
        # One repair round-trip: echo the broken reply and the validation error.
        repair = ChatRequest(
            task_tag=req.task_tag,
            system_prompt=req.system_prompt,
            user_prompt=(
                f"{req.user_prompt}\n\nYour previous reply was invalid:\n{raw}\n"
                f"Validation error: {error}\nReply again with valid JSON only."
            ),
            temperature=req.temperature,
            response_schema_id=req.response_schema_id,
        )
        raw2 = self._with_retries(lambda: self.provider.chat(repair, model), req.task_tag)
        reply, error = self._parse_structured(req.response_schema_id, raw2)
        if error is not None:
            raise MalformedReply(
                f"task_tag={req.task_tag!r} reply invalid after repair: {error}"
            )
        return reply

    @staticmethod
    def _parse_structured(schema_id: str, raw: str):
        text = raw.strip()
        if text.startswith("```"):
            text = text.strip("`")
            if text.startswith("json"):
                text = text[4:]
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            return None, f"not JSON: {exc}"
        try:
            schemas.validate_reply(schema_id, value)
        except jsonschema.ValidationError as exc:
            return None, exc.message
        return value, None

    @staticmethod
    def _encode_chat(reply) -> dict:
        if isinstance(reply, str):
            return {"kind": "text", "text": reply}
        return {"kind": "json", "value": reply}

    def _decode_chat(self, req: ChatRequest, record: dict):
        if record["kind"] == "text":
            if req.response_schema_id != schemas.FREEFORM:
                raise MalformedReply(
                    f"fixture for {req.task_tag!r} holds text, expected structured reply"
                )
            return record["text"]
        value = record["value"]
        try:
            schemas.validate_reply(req.response_schema_id, value)
        except jsonschema.ValidationError as exc:
            # The schema gate holds even for hand-edited fixture files.
            raise MalformedReply(
                f"recorded reply for {req.task_tag!r} violates schema: {exc.message}"
            ) from exc
        return value

    # -- embeddings -----------------------------------------------------------

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        """Embed each text (order preserved); vectors come back unit-normalized."""
        if not texts:
            raise InvalidInput("embed() requires a non-empty list of texts")
        for t in texts:
            if not t.strip():
                raise InvalidInput("embed() input texts must be non-empty after trim")

        raw: list[list[float] | None] = [None] * len(texts)
        pending: list[int] = []
        for i, text in enumerate(texts):
            digest = embed_digest(text, self.embedding_model)
            if self.mode in ("record", "replay") and self.fixtures is not None:
                record = self.fixtures.get(digest)
                if record is not None:
                    raw[i] = record["values"]
                    continue
            if self.mode == "replay":
                raise FixtureMiss(f"no embedding fixture for digest {digest[:12]}...")
            pending.append(i)

        if pending:
            batch = [texts[i] for i in pending]
            vectors = self._with_retries(
                lambda: self.provider.embed(batch, self.embedding_model), "embed"
            )
            if len(vectors) != len(batch):
                raise MalformedReply(
                    f"provider returned {len(vectors)} vectors for {len(batch)} texts"
                )
            for i, vec in zip(pending, vectors):
                raw[i] = [float(v) for v in vec]
                if self.mode == "record":
                    self.fixtures.put(
                        embed_digest(texts[i], self.embedding_model),
                        "embed",
                        {"kind": "vector", "values": raw[i]},
                    )

        return [self._normalize(values) for values in raw]

    def _normalize(self, values: list[float]) -> EmbeddingVector:
        arr = np.asarray(values, dtype=np.float64)
        norm = float(np.linalg.norm(arr))
        if norm == 0.0:
            raise MalformedReply("provider returned a zero embedding vector")
        arr = arr / norm
        return EmbeddingVector(
            values=tuple(float(v) for v in arr),
            dim=arr.shape[0],
            model_id=self.embedding_model,
        )

    # -- retry plumbing -------------------------------------------------------

    def _with_retries(self, call, label: str):
        last = None
        for attempt in range(self.max_attempts):
            try:
                return call()
            except Exception as exc:  # provider transport failures only
                last = exc
                if attempt + 1 < self.max_attempts:
                    delay = self.backoff_base * (2 ** attempt)
                    logger.warning("%s attempt %d failed (%s); retrying in %.1fs",
                                   label, attempt + 1, exc, delay)
                    self.sleep(delay)
        raise RetryExhausted(f"{label} failed after {self.max_attempts} attempts: {last}")
