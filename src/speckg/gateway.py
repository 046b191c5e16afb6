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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from . import schemas
from .errors import FixtureMiss, InvalidInput, MalformedReply, RetryExhausted, TransientError
from .prompts import TASKS, ChatRequest, Task
from .text import ORDERED_JSON, SORTED_JSON

logger = logging.getLogger(__name__)

MODES = ("live", "record", "replay")


class Provider(Protocol):
    """Backend able to serve chat completions and embeddings.

    A provider whose reply is fixed by the request sets a class attribute
    ``deterministic = True``; one that declares nothing counts as sampling.
    It raises ``TransientError`` for a failure a retry can change; the
    gateway retries nothing else.
    """

    def chat(self, request: ChatRequest, model: str) -> str: ...

    def embed(self, texts: list[str], model: str) -> np.ndarray | list[list[float]]:
        """One vector per text, in order: a float matrix, or a list of rows."""


def chat_digest(req: ChatRequest, model: str) -> str:
    """Stable content hash over all request fields plus the resolved model:
    the sha256 of the request's header (:func:`_chat_header`) followed by
    the UTF-8 bytes of its user prompt.

    Prompts are hashed verbatim apart from a trailing-whitespace trim;
    anything more aggressive would alias distinct prompts. The header's JSON
    escapes every newline, so its closing newline ends it, and no two
    distinct requests hash the same bytes.
    """
    header, _ = _chat_header(req.task_tag, model)
    return hashlib.sha256(header + req.user_prompt.rstrip().encode("utf-8")).hexdigest()


# Each header with its task hash, by (task tag, TASKS entry, model): keyed on
# the entry's value, so an edited entry gets a new header.
_HEADERS: dict[tuple[str, Task, str], tuple[bytes, str]] = {}


def _chat_header(task_tag: str, model: str) -> tuple[bytes, str]:
    """The bytes every chat digest of ``task_tag`` under ``model`` starts
    with, a key-sorted JSON line of the tag, the model and the task's
    ``TASKS`` entry (system prompt, instruction, temperature, schema id),
    and their ``task_hash``: the first 12 hex digits of their sha256, which
    a chat fixture record carries."""
    task = TASKS[task_tag]
    key = (task_tag, task, model)
    cached = _HEADERS.get(key)
    if cached is None:
        header = SORTED_JSON.encode({
            "kind": "chat",
            "task_tag": task_tag,
            "system_prompt": task.system.rstrip(),
            "instruction": task.instruction,
            "temperature": task.temperature,
            "response_schema_id": task.schema_id,
            "model": model,
        }).encode("utf-8") + b"\n"
        cached = _HEADERS[key] = (header, hashlib.sha256(header).hexdigest()[:12])
    return cached


def embed_digest(text: str, model: str) -> str:
    """The sha256 of the key-sorted JSON of kind ``embed``, the model and the
    trimmed text."""
    blob = SORTED_JSON.encode({"kind": "embed", "text": text.rstrip(), "model": model})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class FixtureStore:
    """Line-delimited JSON store of recorded replies, keyed by request digest.

    Record layout (one JSON object per line)::

        {"digest": <sha256 hex>, "task_tag": <str>, "task_hash": <12 hex>, "reply": <reply record>}

    where the reply record is one of
    ``{"kind": "text", "text": str}``,
    ``{"kind": "json", "value": object}``, or
    ``{"kind": "vector", "f8": <base64 of the vector's little-endian float64 bytes>}``.
    A chat record's ``task_hash`` is that of its digest's header
    (:func:`_chat_header`); an embed record has none.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.entries: dict[str, dict] = {}
        # each task tag's task_hash values, None for a record without one
        self.task_hashes: dict[str, set[str | None]] = {}
        self._vectors: dict[str, object] = {}  # vector records decoded so far
        self._lock = threading.Lock()
        self._out = None  # append handle, opened on the first put
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                try:
                    line = line.decode("utf-8").strip()
                except UnicodeDecodeError:
                    raise InvalidInput(f"{self.path}:{lineno}: fixture record is not "
                                       f"UTF-8 text") from None
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
                task_hash = record.get("task_hash")
                if task_hash is not None and not isinstance(task_hash, str):
                    raise InvalidInput(f"{self.path}:{lineno}: a fixture record's task_hash "
                                       f"must be a string")
                self.entries[record["digest"]] = record["reply"]
                if isinstance(record.get("task_tag"), str):
                    self.task_hashes.setdefault(record["task_tag"], set()).add(task_hash)

    def get(self, digest: str) -> dict | None:
        return self.entries.get(digest)

    def get_vector(self, digest: str):
        """The vector recorded under ``digest`` as a read-only float64 array,
        decoded on its first read only; None if nothing is recorded."""
        record = self.get(digest)
        if record is None:
            return None
        vec = self._vectors.get(digest)
        if vec is None:
            vec = self._vectors[digest] = _decoded_vector(record)
        return vec

    def put(self, digest: str, task_tag: str, reply: dict,
            task_hash: str | None = None) -> None:
        """Persist one reply; record mode serializes writes, replays stay stable.

        One append handle serves every write and is flushed after each
        record, so a reader or a crash sees each record once it is put.
        """
        with self._lock:
            if digest in self.entries:
                return
            self.entries[digest] = reply
            self.task_hashes.setdefault(task_tag, set()).add(task_hash)
            if self._out is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._out = open(self.path, "a", encoding="utf-8")
                weakref.finalize(self, self._out.close)
            self._out.write(_fixture_line(digest, task_tag, reply, task_hash))
            self._out.flush()

    def recorded_under_another(self, task_tag: str, task_hash: str) -> bool:
        """True when the file holds records of ``task_tag`` and none of them
        carries ``task_hash``: they were recorded for another version of the
        task or another model, or before chat records carried a task hash."""
        hashes = self.task_hashes.get(task_tag)
        return bool(hashes) and task_hash not in hashes


@dataclass
class Gateway:
    """Mode-aware front door for all model calls.

    ``task_models`` routes a task_tag to a specific chat model; unrouted tags
    use ``chat_model``. A provider call that raises ``TransientError`` is
    retried, bounded (``max_attempts`` calls, backing off from
    ``backoff_base`` seconds, doubling); any other error propagates at once.
    One repair round-trip is attempted when a structured reply fails
    validation. The field defaults are the run config's defaults too.
    """

    provider: Provider | None
    mode: str = "live"
    fixtures: FixtureStore | None = None
    chat_model: str = "offline-chat"
    embedding_model: str = "offline-embed"
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
        _, task_hash = _chat_header(req.task_tag, model)
        if self.mode == "replay":
            message = f"no fixture for task_tag={req.task_tag!r} digest={digest[:12]}..."
            if self.fixtures.recorded_under_another(req.task_tag, task_hash):
                message += (f"; every {req.task_tag!r} record in {self.fixtures.path} was "
                            f"recorded for another version of the task or model, or before "
                            f"chat records carried a task_hash (none carries {task_hash}): "
                            f"record the file again")
            raise FixtureMiss(message)
        reply = self._chat_live(req, model)
        self.fixtures.put(digest, req.task_tag, self._encode_chat(reply), task_hash)
        return reply

    def _chat_live(self, req: ChatRequest, model: str):
        raw = self._with_retries(lambda: self.provider.chat(req, model), req.task_tag)
        if req.response_schema_id == schemas.FREEFORM:
            return raw
        reply, error = self._parse_structured(req.response_schema_id, raw)
        if error is None:
            return reply
        # One repair round-trip: echo the broken reply and the validation error.
        repair = replace(req, note=f"\n\nYour previous reply was invalid:\n{raw}\n"
                                   f"Validation error: {error}\nReply again with valid JSON only.")
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
        error = schemas.validate_reply(schema_id, value)
        return (value, None) if error is None else (None, error)

    @staticmethod
    def _encode_chat(reply) -> dict:
        if isinstance(reply, str):
            return {"kind": "text", "text": reply}
        return {"kind": "json", "value": reply}

    def _decode_chat(self, req: ChatRequest, record: dict):
        # A freeform reply was recorded as text, a structured one as json.
        kind, field = (("text", "text") if req.response_schema_id == schemas.FREEFORM
                       else ("json", "value"))
        if record.get("kind") != kind or field not in record:
            raise MalformedReply(f"fixture for {req.task_tag!r} holds no {kind} reply record")
        value = record[field]
        if kind == "text":
            return value
        error = schemas.validate_reply(req.response_schema_id, value)
        if error is not None:
            # The schema gate holds even for hand-edited fixture files.
            raise MalformedReply(f"recorded reply for {req.task_tag!r} violates schema: {error}")
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

        if self.mode == "live":
            rows = self._provider_vectors(texts)
        else:
            # Only the fixture store reads the digests.
            digests = [embed_digest(text, self.embedding_model) for text in texts]
            rows, pending = [], []
            for i, digest in enumerate(digests):
                vec = self.fixtures.get_vector(digest)
                if vec is None:
                    if self.mode == "replay":
                        raise FixtureMiss(f"no embedding fixture for digest {digest[:12]}...")
                    pending.append(i)
                rows.append(vec)
            if pending:
                vectors = self._provider_vectors([texts[i] for i in pending])
                for i, vec in zip(pending, vectors):
                    rows[i] = vec

        raw, norms = _checked_matrix(rows)
        if self.mode == "record":
            for i in pending:
                self.fixtures.put(digests[i], "embed", _vector_record(raw[i]))
        return raw / norms[:, None]

    def _provider_vectors(self, batch: list[str]):
        """The provider's vectors for ``batch``, one per text, as it sent them."""
        vectors = self._with_retries(
            lambda: self.provider.embed(batch, self.embedding_model), "embed"
        )
        if len(vectors) != len(batch):
            raise MalformedReply(
                f"provider returned {len(vectors)} vectors for {len(batch)} texts"
            )
        return vectors

    # -- retry plumbing -------------------------------------------------------

    def _with_retries(self, call, label: str):
        """``call()``, called again after a backoff while it raises
        ``TransientError``; no retry can change any other error."""
        last = None
        for attempt in range(self.max_attempts):
            try:
                return call()
            except TransientError as exc:
                last = exc
                if attempt + 1 < self.max_attempts:
                    delay = self.backoff_base * (2 ** attempt)
                    logger.warning("%s attempt %d failed (%s); retrying in %.1fs",
                                   label, attempt + 1, exc, delay)
                    self.sleep(delay)
        raise RetryExhausted(
            f"{label} failed after {self.max_attempts} attempts: {last}") from last


class _Base64Vector(dict):
    """A vector reply made by :func:`_vector_record`: its ``f8`` is base64
    output, whose alphabet a JSON string never escapes."""


def _vector_record(vec: np.ndarray) -> dict:
    """The fixture record of one vector: its float64 bytes, little-endian, in
    base64, so the file holds every bit without printing a decimal per value."""
    blob = vec.astype("<f8", copy=False).tobytes()
    return _Base64Vector(kind="vector", f8=base64.b64encode(blob).decode("ascii"))


def _fixture_line(digest: str, task_tag: str, reply: dict, task_hash: str | None) -> str:
    """One fixture record as a JSON line, as ``json.dumps(record,
    ensure_ascii=False)`` writes it; ``task_hash`` goes before the reply,
    unless it is None. A vector's base64 is put between the quotes of an
    empty ``f8`` rather than scanned by the encoder."""
    record = {"digest": digest, "task_tag": task_tag}
    if task_hash is not None:
        record["task_hash"] = task_hash
    if type(reply) is not _Base64Vector:
        record["reply"] = reply
        return ORDERED_JSON.encode(record) + "\n"
    # "f8" is the reply's last key, so the line ends with its empty string's
    # closing quote and the two closing braces
    record["reply"] = {**reply, "f8": ""}
    line = ORDERED_JSON.encode(record)
    return f"{line[:-3]}{reply['f8']}{line[-3:]}\n"


def _decoded_vector(record: dict) -> np.ndarray:
    """The vector of a fixture record's ``f8`` as a float64 array."""
    payload = record.get("f8")
    if not isinstance(payload, str):
        raise MalformedReply("embedding fixture holds no base64 f8 string")
    try:
        blob = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise MalformedReply(f"embedding fixture is not base64: {exc}") from exc
    if len(blob) % 8:
        raise MalformedReply(
            f"embedding fixture holds {len(blob)} bytes, not a whole number of float64 values"
        )
    return np.frombuffer(blob, "<f8")


def _checked_matrix(rows) -> tuple[np.ndarray, np.ndarray]:
    """Stack embedding vectors, from a provider or a fixture file, into a
    float64 matrix, with each row's norm; vectors of unequal length, with
    non-finite values, of norm zero or whose norm overflows are a malformed
    reply."""
    try:
        raw = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise MalformedReply(f"embedding vectors do not form a matrix: {exc}") from exc
    if raw.ndim != 2:
        raise MalformedReply("embedding vectors must be rows of equal length")
    # One norm per row, sqrt(row . row) with the dot np.linalg.norm runs: a
    # norm along the matrix's axis sums in another order and would change the
    # last bits. A row's norm is finite unless the row holds a non-finite
    # value or its norm overflows, which would turn the unit row into zeros.
    with np.errstate(over="ignore"):
        norms = np.sqrt([row.dot(row) for row in raw])
    finite = np.isfinite(norms).all()
    if not finite and not np.isfinite(raw).all():
        raise MalformedReply("embedding contains non-finite values")
    if not norms.all():
        raise MalformedReply("provider returned a zero embedding vector")
    if not finite:
        raise MalformedReply("an embedding vector's norm overflows float64")
    return raw, norms
