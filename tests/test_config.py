import textwrap

import pytest
import yaml

from corpusprep.config import (
    ConfigError,
    KNOWN_STAGES,
    PipelineConfig,
    load_config,
    validate,
)
from corpusprep.near_dedup import NearDupConfig
from corpusprep.sampler import BucketQuota

from pipeline_fixture import build_workspace


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


class TestLoadConfig:
    def test_full_fixture_config_loads(self, tmp_path):
        cfg_path = build_workspace(tmp_path, n_docs=10)
        cfg = load_config(cfg_path)
        assert cfg.stages == list(KNOWN_STAGES)
        assert cfg.near_dedup.bands * cfg.near_dedup.rows == cfg.near_dedup.num_perm
        assert cfg.lm.policy.kind == "percentile"

    def test_non_mapping_top_level(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("- a\n- b\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_unknown_key_reported_with_section(self, tmp_path):
        p = write_yaml(
            tmp_path / "c.yaml",
            {"input": "x", "work_dir": "y", "near_dedup": {"bogus_key": 1}},
        )
        with pytest.raises(ConfigError) as exc:
            load_config(p, check_paths=False)
        assert any("near_dedup" in e for e in exc.value.errors)
        # the LM file carries its order; lm-train takes --order/--min-count
        for key in ("order", "min_count"):
            p = write_yaml(
                tmp_path / "c.yaml", {"input": "x", "work_dir": "y", "lm": {key: 3}}
            )
            with pytest.raises(ConfigError) as exc:
                load_config(p, check_paths=False)
            assert any(e.startswith("lm: ") and key in e for e in exc.value.errors)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        """A typo like ``stage:`` must not fall back to running all stages,
        and the removed ``workers`` key is an error, not silently ignored."""
        p = write_yaml(
            tmp_path / "c.yaml",
            {"input": "x", "work_dir": "y", "stage": ["filter"], "workers": 7},
        )
        with pytest.raises(ConfigError) as exc:
            load_config(p, check_paths=False)
        assert "stage: unknown config key" in exc.value.errors
        assert "workers: unknown config key" in exc.value.errors

    def test_all_violations_collected(self, tmp_path):
        """One load reports every problem, not just the first."""
        p = write_yaml(
            tmp_path / "c.yaml",
            {
                "input": "",
                "work_dir": "",
                "stages": ["filter", "nonsense"],
                "near_dedup": {"num_perm": 112, "bands": 10, "rows": 8},
                "lm": {"policy": {"kind": "percentile", "value": 150.0}},
                "pack": {"seq_len": 1, "mask": {"rate": 2.0}},
            },
        )
        with pytest.raises(ConfigError) as exc:
            load_config(p, check_paths=False)
        errors = "\n".join(exc.value.errors)
        assert "input" in errors
        assert "work_dir" in errors
        assert "nonsense" in errors
        assert "bands" in errors or "num_perm" in errors
        assert "percentile" in errors
        assert "seq_len" in errors
        assert "rate" in errors
        assert len(exc.value.errors) >= 7


class TestValidate:
    def base(self):
        return PipelineConfig(input="in.jsonl", work_dir="work", stages=["filter"])

    def test_valid_minimal(self):
        assert validate(self.base(), check_paths=False) == []

    def test_band_row_product_must_match(self):
        cfg = self.base()
        cfg.near_dedup = NearDupConfig(num_perm=112, bands=13, rows=8)
        errors = validate(cfg, check_paths=False)
        assert any("bands" in e and "num_perm" in e for e in errors)

    def test_overlapping_quotas_rejected(self):
        cfg = self.base()
        cfg.stages = ["sample"]
        cfg.quotas = [
            BucketQuota("a", 0, 100, 10),
            BucketQuota("b", 50, None, 10),
        ]
        errors = validate(cfg, check_paths=False)
        assert any("overlap" in e for e in errors)

    def test_quota_gap_rejected(self):
        cfg = self.base()
        cfg.stages = ["sample"]
        cfg.quotas = [
            BucketQuota("a", 0, 100, 10),
            BucketQuota("b", 200, None, 10),
        ]
        errors = validate(cfg, check_paths=False)
        assert any("gap" in e for e in errors)

    def test_seq_len_limited_to_u16(self):
        cfg = self.base()
        cfg.pack.seq_len = 65535
        assert validate(cfg, check_paths=False) == []
        cfg.pack.seq_len = 70000
        errors = validate(cfg, check_paths=False)
        assert len(errors) == 1 and "pack.seq_len: 70000 > 65535" in errors[0]

    def test_vocab_size_limited_to_u16_ids(self):
        cfg = self.base()
        cfg.vocab.expected_size = 65536
        assert validate(cfg, check_paths=False) == []
        cfg.vocab.expected_size = 65537
        errors = validate(cfg, check_paths=False)
        assert len(errors) == 1 and "vocab.expected_size: 65537 > 65536" in errors[0]

    def test_mask_probabilities_each_within_unit_interval(self):
        cfg = self.base()
        cfg.pack.mask.p_mask, cfg.pack.mask.p_random = -0.5, 1.2
        errors = validate(cfg, check_paths=False)
        assert errors == [
            "mask.p_mask: -0.5 outside [0, 1]",
            "mask.p_random: 1.2 outside [0, 1]",
        ]

    def test_stage_specific_requirements(self):
        cfg = self.base()
        cfg.stages = ["lm_score", "token_count"]
        errors = validate(cfg, check_paths=False)
        assert any("lm.model_path" in e for e in errors)
        assert any("vocab.path" in e for e in errors)

    def test_missing_paths_reported(self, tmp_path):
        cfg = PipelineConfig(
            input=str(tmp_path / "absent.jsonl"),
            work_dir=str(tmp_path / "w"),
            stages=["filter"],
        )
        errors = validate(cfg, check_paths=True)
        assert any("does not exist" in e for e in errors)


class TestConfigHash:
    def test_hash_stable_and_sensitive(self, tmp_path):
        cfg_path = build_workspace(tmp_path, n_docs=10)
        a = load_config(cfg_path)
        b = load_config(cfg_path)
        assert a.config_hash() == b.config_hash()
        b.seed += 1
        assert a.config_hash() != b.config_hash()
