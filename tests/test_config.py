import json
import re
from pathlib import Path

import pytest
import yaml

from speckg import prompts
from speckg.config import DEFAULTS, RunConfig, build_gateway, load_config
from speckg.errors import ConfigError
from speckg.offline import OfflineModel


class TestDefaults:
    def test_every_key_has_a_default(self):
        cfg = RunConfig()
        assert cfg.provider.endpoint == "offline:"
        assert cfg.gateway.mode == "live"
        assert cfg.retrieval.k0 == 5
        assert cfg.retrieval.delta_k == 5
        assert cfg.retrieval.k_max == 50
        assert cfg.retrieval.tau == 0.05
        assert cfg.ppr.damping == 0.85
        assert cfg.reasoning.max_rounds == 12
        assert cfg.reasoning.stall_limit == 2
        assert cfg.eval.n_runs == 5
        assert cfg.eval.n_judge == 20
        assert cfg.eval.recall_k == 20
        assert cfg.jobs == 1

    def test_checksum_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert a.checksum() == b.checksum()
        b.retrieval.k0 = 7
        assert a.checksum() != b.checksum()


class TestPrecedence:
    def test_file_overrides_defaults(self, tmp_path):
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({"retrieval": {"k0": 3, "tau": 0.2},
                                        "jobs": 4}))
        cfg = load_config(conf)
        assert cfg.retrieval.k0 == 3
        assert cfg.retrieval.tau == 0.2
        assert cfg.jobs == 4
        assert cfg.retrieval.delta_k == 5  # untouched default

    def test_flags_override_file(self, tmp_path):
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({"eval": {"n_runs": 9}}))
        cfg = load_config(conf, overrides={"eval.n_runs": 2})
        assert cfg.eval.n_runs == 2

    def test_none_overrides_ignored(self):
        cfg = load_config(None, overrides={"eval.n_runs": None})
        assert cfg.eval.n_runs == 5

    def test_json_config_also_accepted(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"reasoning": {"max_rounds": 4}}))
        cfg = load_config(conf)
        assert cfg.reasoning.max_rounds == 4

    def test_null_in_file_leaves_the_default(self, tmp_path):
        conf = tmp_path / "conf.yaml"
        conf.write_text("retrieval:\n  k0:\n  tau: 0.2\n")
        cfg = load_config(conf)
        assert (cfg.retrieval.k0, cfg.retrieval.tau) == (5, 0.2)


# one value per settable key, each unlike its default and valid beside a
# fixture path
SAMPLES = {
    "provider.endpoint": "https://api.example.com/v1",
    "provider.model": "chat-2",
    "provider.embedding_model": "embed-2",
    "provider.api_key_env": "OTHER_KEY",
    "provider.task_models": {"reason": "deep-reasoner"},
    "gateway.mode": "replay",
    "gateway.fixture_path": "other.jsonl",
    "gateway.max_attempts": 5,
    "gateway.backoff_base": 0.25,
    "ingest.max_passage_tokens": 256,
    "retrieval.k0": 3,
    "retrieval.delta_k": 2,
    "retrieval.k_max": 30,
    "retrieval.tau": 0.1,
    "retrieval.n_seeds": 4,
    "ppr.damping": 0.5,
    "reasoning.max_rounds": 6,
    "reasoning.stall_limit": 3,
    "eval.n_runs": 2,
    "eval.n_judge": 3,
    "eval.recall_k": 10,
    "jobs": 2,
}


class TestKeyTable:
    def test_keys_are_runconfigs_fields(self):
        assert sorted(DEFAULTS) == sorted(SAMPLES)
        flat = {}
        for section, value in RunConfig().to_dict().items():
            if isinstance(value, dict):
                flat.update((f"{section}.{key}", item) for key, item in value.items())
            else:
                flat[section] = value
        assert flat == DEFAULTS

    @pytest.mark.parametrize("key", sorted(SAMPLES))
    def test_file_and_override_set_the_same_value(self, tmp_path, key):
        settings = {"gateway.fixture_path": "f.jsonl", key: SAMPLES[key]}
        nested: dict = {}
        for dotted, value in settings.items():
            section, _, name = dotted.rpartition(".")
            (nested.setdefault(section, {}) if section else nested)[name] = value
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump(nested))
        from_file = load_config(conf)
        # overrides given as text are coerced to the field's type
        from_flags = load_config(None, overrides={
            dotted: str(value) if isinstance(value, (int, float)) else value
            for dotted, value in settings.items()})
        section, _, name = key.rpartition(".")
        value = getattr(getattr(from_file, section) if section else from_file, name)
        assert value == SAMPLES[key] != DEFAULTS[key]
        assert type(value) is type(SAMPLES[key])
        assert from_file.to_dict() == from_flags.to_dict()
        assert from_file.checksum() == from_flags.checksum()

    def test_readme_lists_exactly_the_keys(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        assert sorted(re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)) == sorted(DEFAULTS)


class TestValidation:
    def test_unknown_section_rejected(self, tmp_path):
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({"nonsense": {"a": 1}}))
        with pytest.raises(ConfigError):
            load_config(conf)

    def test_unknown_key_rejected(self, tmp_path):
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({"retrieval": {"bogus": 1}}))
        with pytest.raises(ConfigError):
            load_config(conf)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"retrieval.bogus": 1})

    def test_replay_without_fixture_path_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"gateway.mode": "replay"})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, overrides={"gateway.mode": "offline"})

    @pytest.mark.parametrize("key, value", [
        ("ppr.damping", 0.0), ("ppr.damping", 1.0), ("ppr.damping", 1.5),
        ("ppr.damping", 0.995), ("ppr.damping", 1 - 1e-12),
        ("retrieval.n_seeds", 0), ("retrieval.n_seeds", -1),
        ("eval.n_runs", 0), ("eval.n_judge", 0), ("eval.recall_k", 0),
        ("eval.n_judge", -2),
        ("jobs", "abc"), ("jobs", 0), ("jobs", -2), ("jobs", 2.7),
        ("jobs", "1e400"), ("jobs", float("inf")),
        ("retrieval.k0", "1e400"), ("retrieval.k0", float("inf")),
        ("gateway.max_attempts", 0), ("gateway.max_attempts", -1),
        ("gateway.backoff_base", -1.0), ("gateway.backoff_base", float("inf")),
        ("gateway.backoff_base", float("nan")),
        ("ingest.max_passage_tokens", 0), ("ingest.max_passage_tokens", -5),
        ("jobs", True), ("retrieval.tau", False), ("gateway.fixture_path", 5),
    ])
    def test_retrieval_ranges_rejected_at_load(self, tmp_path, key, value):
        # the damping range ppr checks, seed's need for one similarity,
        # evaluation's need for one run, judge and passage, one worker at
        # least, counts that are finite whole numbers, a passage budget of one
        # token at least, and a gateway that calls the model at least once
        # and sleeps a finite, non-negative time between attempts; no boolean
        # stands for a number, and a path is text
        with pytest.raises(ConfigError, match=key):
            load_config(None, overrides={key: value})
        section, _, name = key.partition(".")
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({section: {name: value}} if name else {key: value}))
        with pytest.raises(ConfigError, match=key):
            load_config(conf)

    def test_retrieval_range_edges_accepted(self):
        for damping in (0.01, 0.99):
            cfg = load_config(None, overrides={"ppr.damping": damping, "retrieval.n_seeds": 1,
                                               "eval.n_runs": 1, "eval.n_judge": 1,
                                               "eval.recall_k": 1, "jobs": 1})
            assert (cfg.ppr.damping, cfg.retrieval.n_seeds) == (damping, 1)
            assert (cfg.eval.n_runs, cfg.eval.n_judge, cfg.eval.recall_k) == (1, 1, 1)
            assert cfg.jobs == 1

    @pytest.mark.parametrize("tau", [-0.01, 2.01, float("nan")])
    def test_tau_outside_cosine_distance_range_rejected(self, tmp_path, tau):
        # the expansion gain tau bounds is a cosine distance, so it lies in [0, 2]
        with pytest.raises(ConfigError, match="retrieval.tau"):
            load_config(None, overrides={"retrieval.tau": tau})
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({"retrieval": {"tau": tau}}))
        with pytest.raises(ConfigError, match="retrieval.tau"):
            load_config(conf)
        for edge in (0.0, 2.0):
            assert load_config(None, overrides={"retrieval.tau": edge}).retrieval.tau == edge

    def test_k_max_below_k0_rejected(self, tmp_path):
        # expansion starts from k0 passages and never exceeds k_max
        with pytest.raises(ConfigError, match="retrieval.k_max"):
            load_config(None, overrides={"retrieval.k0": 10, "retrieval.k_max": 9})
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({"retrieval": {"k_max": 4}}))
        with pytest.raises(ConfigError, match="retrieval.k_max"):
            load_config(conf)
        cfg = load_config(None, overrides={"retrieval.k0": 10, "retrieval.k_max": 10})
        assert (cfg.retrieval.k0, cfg.retrieval.k_max) == (10, 10)

    @pytest.mark.parametrize("key, value", [("ppr.tol", 1e-8), ("ppr.max_iters", 100)])
    def test_removed_ppr_keys_rejected(self, tmp_path, key, value):
        # PageRank's step count follows from the damping; configs that still
        # carry the old stopping knobs fail like any other unknown key
        with pytest.raises(ConfigError, match=f"unknown config override '{key}'"):
            load_config(None, overrides={key: value})
        section, _, name = key.partition(".")
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({section: {name: value}}))
        with pytest.raises(ConfigError, match=f"unknown config key {key}"):
            load_config(conf)


    def test_removed_filter_section_rejected(self, tmp_path):
        # unanchored passages always pass the anchor filter; a config or a
        # persisted effective config that still carries the knob fails at load
        key = "filter.fallback_keep_unanchored"
        payload = RunConfig().to_dict()
        payload["filter"] = {"fallback_keep_unanchored": True}
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=f"unknown config key {key}"):
            load_config(conf)
        with pytest.raises(ConfigError, match=f"unknown config override '{key}'"):
            load_config(None, overrides={key: True})


class TestTaskRouting:
    @pytest.mark.parametrize("tag", ["classify-sentence", "ir_extract", "embed"])
    def test_unknown_task_tags_rejected(self, tmp_path, tag):
        # a route for a task the pipeline never requests would route nothing;
        # configs that still route the removed classify-sentence task fail
        # at load
        routes = {"reason": "deep-reasoner", tag: "m"}
        with pytest.raises(ConfigError, match=f"provider.task_models routes {tag!r}"):
            load_config(None, overrides={"provider.task_models": routes})
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({"provider": {"task_models": routes}}))
        with pytest.raises(ConfigError, match=f"provider.task_models routes {tag!r}"):
            load_config(conf)

    def test_every_task_tag_routable(self):
        routes = {tag: f"model-{tag}" for tag in prompts.TASK_TAGS}
        cfg = load_config(None, overrides={"provider.task_models": routes})
        assert build_gateway(cfg).task_models == routes

    def test_task_tags_are_the_prompts_tags(self):
        requests = [
            prompts.extract_ir([(["Regs"], ["The CTRL register holds the mode."])]),
            prompts.summarize("q", [], []),
            prompts.reason("q", [], []),
            prompts.synthesize("q", [], [], False),
            prompts.atom_decompose("a"),
            prompts.atom_match("a", ["b"]),
        ]
        assert sorted(r.task_tag for r in requests) == sorted(prompts.TASK_TAGS)
        model = OfflineModel()
        for request in requests:
            assert isinstance(model.chat(request, "offline-chat"), str)


class TestPersistence:
    def test_effective_config_written_with_checksums(self, tmp_path):
        cfg = load_config(None, overrides={"retrieval.k0": 2})
        cfg.persist(tmp_path / "run", extra={"corpus_checksum": "abc"})
        payload = json.loads((tmp_path / "run" / "effective-config.json").read_text())
        assert payload["config"]["retrieval"]["k0"] == 2
        assert payload["config_checksum"] == cfg.checksum()
        assert payload["corpus_checksum"] == "abc"

    def test_rebuilding_from_persisted_config_reproduces_checksum(self, tmp_path):
        cfg = load_config(None, overrides={"retrieval.k0": 2, "eval.n_judge": 3})
        cfg.persist(tmp_path)
        payload = json.loads((tmp_path / "effective-config.json").read_text())
        conf = tmp_path / "restored.json"
        conf.write_text(json.dumps(payload["config"]))
        restored = load_config(conf)
        assert restored.checksum() == payload["config_checksum"]


class TestBuildGateway:
    def test_offline_endpoint_selected(self):
        gw = build_gateway(RunConfig())
        from speckg.offline import OfflineModel
        assert isinstance(gw.provider, OfflineModel)

    def test_replay_mode_has_no_provider(self, tmp_path):
        cfg = load_config(None, overrides={
            "gateway.mode": "replay",
            "gateway.fixture_path": str(tmp_path / "f.jsonl"),
        })
        gw = build_gateway(cfg)
        assert gw.provider is None

    def test_http_endpoint_requires_key(self, monkeypatch):
        monkeypatch.delenv("SPECKG_API_KEY", raising=False)
        cfg = RunConfig()
        cfg.provider.endpoint = "https://api.example.com/v1"
        with pytest.raises(ConfigError):
            build_gateway(cfg)
