"""Uniform access to chat and embedding models with record/replay fixtures.

Every model interaction in the pipeline goes through :class:`Gateway`. In
``record`` mode each (digest, reply) pair is persisted to a line-delimited
JSON fixture file; in ``replay`` mode a missing digest is a hard error so a
replayed run can never fall back to a live call. Embedding vectors are
L2-normalized here, once, into the rows of one matrix, so cosine similarity
reduces to a dot product everywhere downstream.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import threading
import time
import weakref
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


class Provider(Protocol):
    """Backend able to serve chat completions and embeddings.

    A provider whose reply is fixed by the request sets a class attribute
    ``deterministic = True``; one that declares nothing counts as sampling.
    """

    def chat(self, request: ChatRequest, model: str) -> str: ...

    def embed(self, texts: list[str], model: str) -> np.ndarray | list[list[float]]:
        """One vector per text, in order: a float matrix, or a list of rows."""


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
    ``{"kind": "vector", "f8": <base64 of the vector's little-endian float64 bytes>}``.
    Vectors recorded as ``{"kind": "vector", "values": [float, ...]}`` still
    replay; only the ``f8`` form is written.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[str, dict] = {}
        self._vectors: dict[str, object] = {}  # vector records decoded so far
        self._lock = threading.Lock()
        self._out = None  # append handle, opened on the first put
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
                if (not isinstance(record, dict) or not isinstance(record.get("digest"), str)
                        or not isinstance(record.get("reply"), dict)):
                    raise InvalidInput(f"{self.path}:{lineno}: a fixture record must be an "
                                       f"object with a string digest and an object reply")
                self.entries[record["digest"]] = record["reply"]

    def get(self, digest: str) -> dict | None:
        return self.entries.get(digest)

    def get_vector(self, digest: str):
        """The vector recorded under ``digest``, or None: an ``f8`` record as a
        read-only float64 array, decoded on its first read only; an older
        ``values`` record as its list of floats."""
        record = self.get(digest)
        if record is None:
            return None
        vec = self._vectors.get(digest)
        if vec is None:
            vec = self._vectors[digest] = _decoded_vector(record)
        return vec

    def put(self, digest: str, task_tag: str, reply: dict) -> None:
        """Persist one reply; record mode serializes writes, replays stay stable.

        One append handle serves every write and is flushed after each
        record, so a reader or a crash sees each record once it is put.
        """
        with self._lock:
            if digest in self.entries:
                return
            self.entries[digest] = reply
            if self._out is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._out = open(self.path, "a", encoding="utf-8")
                weakref.finalize(self, self._out.close)
            self._out.write(_fixture_line(digest, task_tag, reply))
            self._out.flush()

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

    @property
    def replies_fixed(self) -> bool:
        """True when a repeated request gets the same reply: record and replay
        serve a seen digest from the fixture store, and a live provider may
        declare itself ``deterministic``."""
        return self.mode != "live" or getattr(self.provider, "deterministic", False)

    # -- chat ---------------------------------------------------------------

    def chat(self, req: ChatRequest):
        """Return the reply for ``req``: text for freeform, parsed JSON otherwise."""
        model = self.task_models.get(req.task_tag, self.chat_model)
        if self.mode == "live":
            return self._chat_live(req, model)

        # Only the fixture store reads the digest.
        digest = chat_digest(req, model)
        record = self.fixtures.get(digest)
        if record is not None:
            return self._decode_chat(req, record)
        if self.mode == "replay":
            raise FixtureMiss(
                f"no fixture for task_tag={req.task_tag!r} digest={digest[:12]}..."
            )
        reply = self._chat_live(req, model)
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

    def embed(self, texts: list[str]) -> np.ndarray:
        """Embed each text (order preserved) as one row of a float64 matrix of
        shape ``(len(texts), dim)``; the rows come back unit-normalized."""
        if not texts:
            raise InvalidInput("embed() requires a non-empty list of texts")
        for t in texts:
            if not t.strip():
                raise InvalidInput("embed() input texts must be non-empty after trim")

        rows: list = [None] * len(texts)
        if self.mode == "live":
            pending = list(range(len(texts)))
        else:
            # Only the fixture store reads the digests.
            digests = [embed_digest(text, self.embedding_model) for text in texts]
            pending = []
            for i, digest in enumerate(digests):
                vec = self.fixtures.get_vector(digest)
                if vec is not None:
                    rows[i] = vec
                elif self.mode == "replay":
                    raise FixtureMiss(f"no embedding fixture for digest {digest[:12]}...")
                else:
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
                rows[i] = vec

        raw = _checked_matrix(rows)
        # One norm per row: a norm along the matrix's axis sums in another
        # order and would change the last bits. A norm that overflows would
        # turn the row into zeros; it is refused, as a zero row is.
        with np.errstate(over="ignore"):
            norms = np.array([np.linalg.norm(row) for row in raw])
        if not norms.all():
            raise MalformedReply("provider returned a zero embedding vector")
        if not np.isfinite(norms).all():
            raise MalformedReply("an embedding vector's norm overflows float64")
        if self.mode == "record":
            for i in pending:
                self.fixtures.put(digests[i], "embed", _vector_record(raw[i]))
        return raw / norms[:, None]

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


class _Base64Vector(dict):
    """A vector reply made by :func:`_vector_record`: its ``f8`` is base64
    output, whose alphabet a JSON string never escapes."""


def _vector_record(vec: np.ndarray) -> dict:
    """The fixture record of one vector: its float64 bytes, little-endian, in
    base64, so the file holds every bit without printing a decimal per value."""
    blob = vec.astype("<f8", copy=False).tobytes()
    return _Base64Vector(kind="vector", f8=base64.b64encode(blob).decode("ascii"))


_FIXTURE_ENCODER = json.JSONEncoder(ensure_ascii=False)


def _fixture_line(digest: str, task_tag: str, reply: dict) -> str:
    """One fixture record as a JSON line, as ``json.dumps(record,
    ensure_ascii=False)`` writes it. A vector's base64 is put between the
    quotes of an empty ``f8`` rather than scanned by the encoder."""
    if type(reply) is not _Base64Vector:
        return _FIXTURE_ENCODER.encode(
            {"digest": digest, "task_tag": task_tag, "reply": reply}) + "\n"
    # "f8" is the reply's last key, so the line ends with its empty string's
    # closing quote and the two closing braces
    line = _FIXTURE_ENCODER.encode(
        {"digest": digest, "task_tag": task_tag, "reply": {**reply, "f8": ""}})
    return f"{line[:-3]}{reply['f8']}{line[-3:]}\n"


def _decoded_vector(record: dict):
    """The vector of a fixture record: an ``f8`` record as a float64 array, an
    older ``values`` record as its list of floats."""
    if "f8" not in record:
        return record["values"]
    payload = record["f8"]
    if not isinstance(payload, str):
        raise MalformedReply("embedding fixture is not a base64 string")
    try:
        blob = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise MalformedReply(f"embedding fixture is not base64: {exc}") from exc
    if len(blob) % 8:
        raise MalformedReply(
            f"embedding fixture holds {len(blob)} bytes, not a whole number of float64 values"
        )
    return np.frombuffer(blob, "<f8")


def _checked_matrix(rows: list) -> np.ndarray:
    """Stack embedding vectors, from a provider or a fixture file, into a
    float64 matrix; vectors of unequal length or with non-finite values are a
    malformed reply."""
    try:
        raw = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MalformedReply(f"embedding vectors do not form a matrix: {exc}") from exc
    if raw.ndim != 2:
        raise MalformedReply("embedding vectors must be rows of equal length")
    if not np.isfinite(raw).all():
        raise MalformedReply("embedding contains non-finite values")
    return raw
