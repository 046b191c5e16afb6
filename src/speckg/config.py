"""Run configuration: defaults, file loading, overrides, persistence.

Precedence: explicit flags > config file > defaults. Environment variables
only carry secrets (the API key named by provider.api_key_env), never knobs,
so a persisted effective config reproduces a run exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .gateway import FixtureStore, Gateway
from .prompts import TASK_TAGS
from .providers import make_provider
from .retrieval import MAX_DAMPING


@dataclass
class ProviderConfig:
    endpoint: str = "offline:"
    model: str = "offline-chat"
    embedding_model: str = "offline-embed"
    api_key_env: str = "SPECKG_API_KEY"
    task_models: dict = field(default_factory=dict)


@dataclass
class GatewayConfig:
    mode: str = "live"
    fixture_path: str | None = None
    max_attempts: int = 3
    backoff_base: float = 1.0


@dataclass
class IngestConfig:
    max_passage_tokens: int = 512


@dataclass
class RetrievalConfig:
    k0: int = 5
    delta_k: int = 5
    k_max: int = 50
    tau: float = 0.05
    n_seeds: int = 10


@dataclass
class PPRConfig:
    damping: float = 0.85


@dataclass
class ReasoningConfig:
    max_rounds: int = 12
    stall_limit: int = 2


@dataclass
class EvalConfig:
    n_runs: int = 5
    n_judge: int = 20
    recall_k: int = 20


@dataclass
class RunConfig:
    provider: ProviderConfig = field(default_factory=ProviderConfig)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    ppr: PPRConfig = field(default_factory=PPRConfig)
    reasoning: ReasoningConfig = field(default_factory=ReasoningConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    jobs: int = 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def checksum(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def validate(self) -> None:
        if self.gateway.mode not in ("live", "record", "replay"):
            raise ConfigError(f"gateway.mode must be live/record/replay, got {self.gateway.mode!r}")
        if self.gateway.mode in ("record", "replay") and not self.gateway.fixture_path:
            raise ConfigError(f"gateway.mode={self.gateway.mode} requires gateway.fixture_path")
        for tag in self.provider.task_models:
            if tag not in TASK_TAGS:
                raise ConfigError(f"provider.task_models routes {tag!r}, which names no task; "
                                  f"tasks are {', '.join(TASK_TAGS)}")
        if self.gateway.max_attempts < 1:
            raise ConfigError("gateway.max_attempts must be >= 1")
        if not (math.isfinite(self.gateway.backoff_base) and self.gateway.backoff_base >= 0.0):
            raise ConfigError("gateway.backoff_base must be a finite number >= 0")
        if self.retrieval.k0 < 1 or self.retrieval.delta_k < 1:
            raise ConfigError("retrieval.k0 and retrieval.delta_k must be >= 1")
        if self.retrieval.k_max < self.retrieval.k0:
            raise ConfigError("retrieval.k_max must be >= retrieval.k0")
        if not 0.0 <= self.retrieval.tau <= 2.0:
            # the gain it bounds is a cosine distance
            raise ConfigError("retrieval.tau must lie in [0, 2]")
        if self.retrieval.n_seeds < 1:
            raise ConfigError("retrieval.n_seeds must be >= 1")
        if not 0.0 < self.ppr.damping <= MAX_DAMPING:
            raise ConfigError(f"ppr.damping must lie in (0, {MAX_DAMPING}]")
        if self.reasoning.max_rounds < 0 or self.reasoning.stall_limit < 1:
            raise ConfigError("reasoning budgets out of range")
        for key in ("n_runs", "n_judge", "recall_k"):
            if getattr(self.eval, key) < 1:
                raise ConfigError(f"eval.{key} must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")

    def persist(self, run_dir: str | Path, extra: dict | None = None) -> None:
        """Write the exact effective config into the run directory."""
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "config": self.to_dict(),
            "config_checksum": self.checksum(),
        }
        if extra:
            payload.update(extra)
        with open(run_dir / "effective-config.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _key_defaults() -> dict:
    """Every settable key of RunConfig, dotted like ``retrieval.k0``, with its default."""
    defaults = RunConfig()
    table = {}
    for top in dataclasses.fields(RunConfig):
        value = getattr(defaults, top.name)
        if dataclasses.is_dataclass(value):
            for sub in dataclasses.fields(value):
                table[f"{top.name}.{sub.name}"] = getattr(value, sub.name)
        else:
            table[top.name] = value
    return table


DEFAULTS = _key_defaults()


def _coerce(name: str, value, default):
    """Coerce a loaded value for the dotted key ``name`` to the field's default type.

    YAML quirk guard: PyYAML reads dotless scientific notation ("1e-08") as a
    string, so numeric fields accept numeric strings. A field whose default
    is None (the fixture path) takes a string.
    """
    try:
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ValueError(f"expected mapping, got {value!r}")
            return value
        if default is None or isinstance(default, str):
            if not isinstance(value, str):
                raise ValueError(f"expected string, got {value!r}")
            return value
        if isinstance(value, bool):
            raise ValueError(f"expected number, got {value!r}")
        if isinstance(default, int):
            as_float = float(value)
            if as_float != int(as_float):
                raise ValueError(f"expected integer, got {value!r}")
            return int(as_float)
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from exc


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional YAML/JSON file, and
    dotted-key overrides like ``{"retrieval.k0": 3}``.

    The file's sections are flattened to the same dotted keys, and both are
    checked against ``DEFAULTS``, the keys of RunConfig's fields. A null
    value leaves its key as it was.
    """
    data: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a mapping")

    flat = {}
    for section, value in data.items():
        if isinstance(value, dict) and section not in DEFAULTS:
            flat.update((f"{section}.{key}", item) for key, item in value.items())
        else:
            flat[section] = value

    cfg = RunConfig()
    for settings, unknown in ((flat, "unknown config key {}"),
                              (overrides or {}, "unknown config override {!r}")):
        for dotted, value in settings.items():
            if dotted not in DEFAULTS:
                raise ConfigError(unknown.format(dotted))
            if value is None:
                continue
            section, _, name = dotted.rpartition(".")
            setattr(getattr(cfg, section) if section else cfg, name,
                    _coerce(dotted, value, DEFAULTS[dotted]))

    cfg.validate()
    return cfg


def build_gateway(cfg: RunConfig) -> Gateway:
    """Wire a Gateway from config: provider, fixtures, routing, retries."""
    fixtures = None
    if cfg.gateway.fixture_path:
        fixtures = FixtureStore(cfg.gateway.fixture_path)
    provider = None
    if cfg.gateway.mode in ("live", "record"):
        provider = make_provider(cfg.provider.endpoint, cfg.provider.api_key_env)
    return Gateway(
        provider=provider,
        mode=cfg.gateway.mode,
        fixtures=fixtures,
        chat_model=cfg.provider.model,
        embedding_model=cfg.provider.embedding_model,
        task_models=dict(cfg.provider.task_models),
        max_attempts=cfg.gateway.max_attempts,
        backoff_base=cfg.gateway.backoff_base,
    )
