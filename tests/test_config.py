import json

import pytest
import yaml

from speckg.config import RunConfig, build_gateway, load_config
from speckg.errors import ConfigError


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
        assert cfg.filter.fallback_keep_unanchored is True
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
        ("retrieval.n_seeds", 0), ("retrieval.n_seeds", -1),
        ("eval.n_runs", 0), ("eval.n_judge", 0), ("eval.recall_k", 0),
        ("eval.n_judge", -2),
    ])
    def test_retrieval_ranges_rejected_at_load(self, tmp_path, key, value):
        # the damping range walk_scores checks, seed's need for one
        # similarity, and evaluation's need for one run, judge and passage
        with pytest.raises(ConfigError, match=key):
            load_config(None, overrides={key: value})
        section, _, name = key.partition(".")
        conf = tmp_path / "conf.yaml"
        conf.write_text(yaml.safe_dump({section: {name: value}}))
        with pytest.raises(ConfigError, match=key):
            load_config(conf)

    def test_retrieval_range_edges_accepted(self):
        cfg = load_config(None, overrides={"ppr.damping": 0.01, "retrieval.n_seeds": 1,
                                           "eval.n_runs": 1, "eval.n_judge": 1,
                                           "eval.recall_k": 1})
        assert (cfg.ppr.damping, cfg.retrieval.n_seeds) == (0.01, 1)
        assert (cfg.eval.n_runs, cfg.eval.n_judge, cfg.eval.recall_k) == (1, 1, 1)

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
