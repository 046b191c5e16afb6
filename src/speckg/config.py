"""Run configuration: defaults, file loading, overrides, persistence.

Precedence: explicit flags > config file > defaults. Environment variables
only carry secrets (the API key named by provider.api_key_env), never knobs,
so a persisted effective config reproduces a run exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError
from .gateway import FixtureStore, Gateway
from .providers import make_provider


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
class FilterConfig:
    fallback_keep_unanchored: bool = True


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
    filter: FilterConfig = field(default_factory=FilterConfig)
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
        if self.retrieval.k0 < 1 or self.retrieval.delta_k < 1:
            raise ConfigError("retrieval.k0 and retrieval.delta_k must be >= 1")
        if self.retrieval.n_seeds < 1:
            raise ConfigError("retrieval.n_seeds must be >= 1")
        if not 0.0 < self.ppr.damping < 1.0:
            raise ConfigError("ppr.damping must lie in (0, 1)")
        if self.reasoning.max_rounds < 0 or self.reasoning.stall_limit < 1:
            raise ConfigError("reasoning budgets out of range")
        for key in ("n_runs", "n_judge", "recall_k"):
            if getattr(self.eval, key) < 1:
                raise ConfigError(f"eval.{key} must be >= 1")

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


_SECTIONS = {
    "provider": ProviderConfig,
    "gateway": GatewayConfig,
    "ingest": IngestConfig,
    "retrieval": RetrievalConfig,
    "ppr": PPRConfig,
    "filter": FilterConfig,
    "reasoning": ReasoningConfig,
    "eval": EvalConfig,
}


def _coerce(section: str, key: str, value, default):
    """Coerce a loaded value to the field's default type.

    YAML quirk guard: PyYAML reads dotless scientific notation ("1e-08") as a
    string, so numeric fields accept numeric strings.
    """
    if value is None or default is None:
        return value
    try:
        if isinstance(default, bool):
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise ValueError(f"expected boolean, got {value!r}")
        if isinstance(default, int):
            as_float = float(value)
            if as_float != int(as_float):
                raise ValueError(f"expected integer, got {value!r}")
            return int(as_float)
        if isinstance(default, float):
            return float(value)
        if isinstance(default, str):
            if not isinstance(value, str):
                raise ValueError(f"expected string, got {value!r}")
            return value
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ValueError(f"expected mapping, got {value!r}")
            return value
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
    return value


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional YAML/JSON file, and
    dotted-key overrides like ``{"retrieval.k0": 3}``."""
    data: dict = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            data = yaml.safe_load(fh) or {}
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a mapping")

    cfg = RunConfig()
    for section, value in data.items():
        if section == "jobs":
            cfg.jobs = int(value)
            continue
        cls = _SECTIONS.get(section)
        if cls is None:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        current = getattr(cfg, section)
        for key, item in value.items():
            if not hasattr(current, key):
                raise ConfigError(f"unknown config key {section}.{key}")
            defaults = _SECTIONS[section]()
            setattr(current, key, _coerce(section, key, item, getattr(defaults, key)))

    for dotted, value in (overrides or {}).items():
        if value is None:
            continue
        if dotted == "jobs":
            cfg.jobs = int(value)
            continue
        section, _, key = dotted.partition(".")
        if section not in _SECTIONS or not key:
            raise ConfigError(f"unknown config override {dotted!r}")
        current = getattr(cfg, section)
        if not hasattr(current, key):
            raise ConfigError(f"unknown config override {dotted!r}")
        defaults = _SECTIONS[section]()
        setattr(current, key, _coerce(section, key, value, getattr(defaults, key)))

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
