import copy
import math
import re
import textwrap
from dataclasses import is_dataclass
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusprep.cli import EXIT_VALIDATION, main
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


@pytest.fixture(autouse=True, scope="module")
def in_config_dir(tmp_path_factory):
    """Run each test in a directory holding the files, all empty, that the
    configs below name by relative path, so that validate finds them."""
    root = tmp_path_factory.mktemp("cwd")
    for name in ("corpus.jsonl", "model.json", "vocab.txt", "in.jsonl", "x"):
        (root / name).touch()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        yield root


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


# A valid config with relative paths that touches every section.
VALID = {
    "input": "corpus.jsonl",
    "work_dir": "work",
    "seed": 7,
    "stages": list(KNOWN_STAGES),
    "heuristics": {"min_words": 10, "min_alpha_ratio": 0.5},
    "near_dedup": {"num_perm": 64, "bands": 16, "rows": 4, "threshold": 0.8,
                   "exact_verify": True},
    "lm": {"model_path": "model.json", "policy": {"kind": "percentile", "value": 90}},
    "vocab": {"path": "vocab.txt", "expected_size": 512},
    "quotas": [
        {"name": "short", "min_tokens": 0, "max_tokens": 40, "target_tokens": 1500},
        {"name": "long", "min_tokens": 40, "max_tokens": None, "target_tokens": 3000},
    ],
    "sample": {"mode": "uniform", "overshoot": 0},
    "pack": {"seq_len": 256, "split": False,
             "mask": {"scheme": "token", "rate": 0.15, "p_mask": 0.9, "p_random": 0}},
}


def _paths(node, prefix=()):
    """Every key and list index path in *node*, sections and leaves alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


PATHS = list(_paths(VALID))


def _replaced(path, value):
    cfg = copy.deepcopy(VALID)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _bounded_fields(cls=PipelineConfig, prefix=()):
    """(key path, type, bound) of every field with a bound in its
    annotation, found by walking the config schema."""
    for name, tp in get_type_hints(cls, include_extras=True).items():
        if is_dataclass(tp):
            yield from _bounded_fields(tp, prefix + (name,))
        elif get_origin(tp) is Annotated:
            base, bound = get_args(tp)
            yield prefix + (name,), base, bound


def _edges(base, bound):
    """(inside, outside) value pairs, one per edge of *bound*: the nearest
    value that holds and the nearest that breaks it."""
    def step(x, toward):
        return x + (1 if toward > x else -1) if base is int else math.nextafter(x, toward)

    if bound.startswith(">= "):
        lo = base(bound[3:])
        return [(lo, step(lo, -math.inf))]
    lo, hi = map(base, bound[1:-1].split(", "))
    lo_pair = (lo, step(lo, -math.inf)) if bound[0] == "[" else (step(lo, math.inf), lo)
    hi_pair = (hi, step(hi, math.inf)) if bound[-1] == "]" else (step(hi, -math.inf), hi)
    return [lo_pair, hi_pair]


# keys set beside a bounded key so that its cross-field rule holds
COMPANIONS = {
    ("near_dedup", "bands"): lambda v: {"rows": 1, "num_perm": v},
    ("near_dedup", "rows"): lambda v: {"bands": 1, "num_perm": v},
    ("pack", "mask", "p_mask"): lambda v: {"p_random": 0},
    ("pack", "mask", "p_random"): lambda v: {"p_mask": 0},
}


def _load_errors(tmp_path, path, value):
    """The errors from loading a minimal config with *path* set to *value*."""
    cfg = {"input": "x", "work_dir": "y", "stages": ["filter"]}
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    node.update(COMPANIONS.get(path, lambda v: {})(value))
    try:
        load_config(write_yaml(tmp_path / "c.yaml", cfg))
    except ConfigError as e:
        return e.errors
    return []


YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


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
            load_config(p)
        assert any("near_dedup" in e for e in exc.value.errors)
        # the LM file carries its order; lm-train takes --order/--min-count
        for key in ("order", "min_count"):
            p = write_yaml(
                tmp_path / "c.yaml", {"input": "x", "work_dir": "y", "lm": {key: 3}}
            )
            with pytest.raises(ConfigError) as exc:
                load_config(p)
            assert any(e.startswith("lm: ") and key in e for e in exc.value.errors)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        """A typo like ``stage:`` must not fall back to running all stages,
        and the removed ``workers`` key is an error, not silently ignored."""
        p = write_yaml(
            tmp_path / "c.yaml",
            {"input": "x", "work_dir": "y", "stage": ["filter"], "workers": 7},
        )
        with pytest.raises(ConfigError) as exc:
            load_config(p)
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
            load_config(p)
        errors = "\n".join(exc.value.errors)
        assert "input" in errors
        assert "work_dir" in errors
        assert "nonsense" in errors
        assert "bands" in errors or "num_perm" in errors
        assert "percentile" in errors
        assert "seq_len" in errors
        assert "rate" in errors
        assert len(exc.value.errors) >= 7


class TestTypedReader:
    @settings(deadline=None, max_examples=300)
    @given(path=st.sampled_from(PATHS), value=YAML_VALUES)
    def test_any_replaced_value_loads_or_raises_config_error(
        self, tmp_path_factory, path, value
    ):
        p = write_yaml(tmp_path_factory.mktemp("c") / "c.yaml", _replaced(path, value))
        try:
            load_config(p)
        except ConfigError as e:
            assert e.errors and all("\n" not in err for err in e.errors)

    @pytest.mark.parametrize(
        "path, value, error",
        [
            (("lm",), 5, "lm: expected mapping, got int"),
            (("pack",), "x", "pack: expected mapping, got str"),
            (("seed",), "abc", "seed: expected int, got str"),
            (("seed",), 1.7, "seed: expected int, got float"),
            (("stages",), 5, "stages: expected list, got int"),
            (("stages", 1), 3, "stages[1]: expected str, got int"),
            (("quotas",), 5, "quotas: expected list, got int"),
            (("quotas", 1), "long", "quotas[1]: expected mapping, got str"),
            (("pack", "seq_len"), "512", "pack.seq_len: expected int, got str"),
            (("pack", "split"), "no", "pack.split: expected bool, got str"),
            (("heuristics", "min_words"), "x", "heuristics.min_words: expected int, got str"),
            (("heuristics", "min_words"), True, "heuristics.min_words: expected int, got bool"),
            (("pack", "mask", "rate"), "x", "pack.mask.rate: expected float, got str"),
            (("near_dedup", "threshold"), "x", "near_dedup.threshold: expected float, got str"),
            (("lm", "policy", "value"), "x", "lm.policy.value: expected float, got str"),
            (("vocab", "expected_size"), "x", "vocab.expected_size: expected int, got str"),
            (("sample", "overshoot"), "x", "sample.overshoot: expected float, got str"),
            (("quotas", 0, "max_tokens"), "40", "quotas[0].max_tokens: expected int, got str"),
            (("input",), None, "input: expected str, got null"),
            (("sample", "mode"), "best",
             "sample.mode: expected one of 'quality', 'uniform', got 'best'"),
            (("pack", "mask", "scheme"), "word",
             "pack.mask.scheme: expected one of 'span', 'token', got 'word'"),
            (("lm", "policy", "kind"), "relative",
             "lm.policy.kind: expected one of 'percentile', 'absolute', got 'relative'"),
        ],
    )
    def test_mistyped_value_named_by_dotted_path(self, tmp_path, path, value, error):
        p = write_yaml(tmp_path / "c.yaml", _replaced(path, value))
        with pytest.raises(ConfigError) as exc:
            load_config(p)
        assert exc.value.errors == [error]

    def test_quota_missing_key(self, tmp_path):
        cfg = copy.deepcopy(VALID)
        del cfg["quotas"][0]["name"]
        with pytest.raises(ConfigError) as exc:
            load_config(write_yaml(tmp_path / "c.yaml", cfg))
        assert exc.value.errors == ["quotas[0]: missing key 'name'"]

    def test_every_type_error_collected_before_range_checks(self, tmp_path):
        cfg = _replaced(("seed",), "abc")
        cfg["pack"]["seq_len"] = 1  # a range error, not reported until typed
        cfg["lm"]["policy"]["value"] = "x"
        cfg["lm"]["extra"] = 1
        with pytest.raises(ConfigError) as exc:
            load_config(write_yaml(tmp_path / "c.yaml", cfg))
        assert exc.value.errors == [
            "seed: expected int, got str",
            "lm: unknown config key 'extra'",
            "lm.policy.value: expected float, got str",
        ]

    @pytest.mark.parametrize("section", ["heuristics", "lm", "pack", "quotas", "stages"])
    def test_null_or_absent_section_reads_as_defaults(self, tmp_path, section):
        cfg = _replaced(("stages",), ["filter"])  # needs no lm or quotas
        cfg[section] = None
        a = load_config(write_yaml(tmp_path / "a.yaml", cfg))
        del cfg[section]
        b = load_config(write_yaml(tmp_path / "b.yaml", cfg))
        assert getattr(a, section) == getattr(b, section)
        assert getattr(a, section) == getattr(PipelineConfig(), section)

    def test_int_in_float_field_kept_as_given(self, tmp_path):
        cfg = load_config(write_yaml(tmp_path / "c.yaml", VALID))
        assert type(cfg.lm.policy.value) is int and cfg.lm.policy.value == 90
        assert type(cfg.pack.mask.rate) is float

    def test_config_hash_pinned(self, tmp_path):
        """The hash of a fixed config with relative paths, ints in float
        fields included: a change in how configs are read must not change
        it, or every existing work dir would refuse --resume."""
        cfg = load_config(write_yaml(tmp_path / "c.yaml", VALID))
        assert cfg.config_hash() == (
            "c31ab87550e5066e16cd4874c8b4fe11e48c8532465e73994c504e8d5e6b986e"
        )


class TestValidate:
    def base(self):
        return PipelineConfig(input="in.jsonl", work_dir="work", stages=["filter"])

    def test_valid_minimal(self):
        assert validate(self.base()) == []

    def test_band_row_product_must_match(self):
        cfg = self.base()
        cfg.near_dedup = NearDupConfig(num_perm=112, bands=13, rows=8)
        errors = validate(cfg)
        assert any("bands" in e and "num_perm" in e for e in errors)

    def test_overlapping_quotas_rejected(self):
        cfg = self.base()
        cfg.stages = ["sample"]
        cfg.quotas = [
            BucketQuota("a", 0, 100, 10),
            BucketQuota("b", 50, None, 10),
        ]
        errors = validate(cfg)
        assert any("overlap" in e for e in errors)

    def test_quota_gap_rejected(self):
        cfg = self.base()
        cfg.stages = ["sample"]
        cfg.quotas = [
            BucketQuota("a", 0, 100, 10),
            BucketQuota("b", 200, None, 10),
        ]
        errors = validate(cfg)
        assert any("gap" in e for e in errors)

    @pytest.mark.parametrize(
        "quotas, message",
        [
            ([], "quotas: empty"),
            ([BucketQuota("all", 0, None, 0)], "quotas[0].target_tokens: 0 < 1"),
            (
                [BucketQuota("a", 5, 100, 10), BucketQuota("b", 100, None, 10)],
                "quotas: intervals do not start at 0 (lowest is quotas[0])",
            ),
            (
                [BucketQuota("b", 100, None, 10), BucketQuota("a", 0, None, 10)],
                "quotas[1]: unbounded bucket is not last",
            ),
            (
                [BucketQuota("b", 200, None, 10), BucketQuota("a", 0, 100, 10)],
                "quotas: gap or overlap between quotas[1] and quotas[0]",
            ),
            (
                [BucketQuota("a", 0, 100, 10), BucketQuota("b", 100, 200, 10)],
                "quotas: intervals do not cover [0, inf) (highest is quotas[1])",
            ),
            (
                [BucketQuota("a", 0, 100, 10), BucketQuota("a", 100, None, 10)],
                "quotas[1].name: 'a' repeats quotas[0].name",
            ),
        ],
        ids=["empty", "target", "start", "unbounded", "gap", "cover", "name"],
    )
    def test_each_quota_rule_names_buckets_by_index(self, quotas, message):
        cfg = self.base()
        cfg.stages = ["sample"]
        cfg.quotas = quotas
        assert validate(cfg) == [message]

    def test_seq_len_limited_to_u16(self):
        cfg = self.base()
        cfg.pack.seq_len = 65535
        assert validate(cfg) == []
        cfg.pack.seq_len = 70000
        errors = validate(cfg)
        assert len(errors) == 1 and "pack.seq_len: 70000 > 65535" in errors[0]

    def test_vocab_size_limited_to_u16_ids(self):
        cfg = self.base()
        cfg.vocab.expected_size = 65536
        assert validate(cfg) == []
        cfg.vocab.expected_size = 65537
        errors = validate(cfg)
        assert len(errors) == 1 and "vocab.expected_size: 65537 > 65536" in errors[0]

    def test_mask_probabilities_each_within_unit_interval(self):
        cfg = self.base()
        cfg.pack.mask.p_mask, cfg.pack.mask.p_random = -0.5, 1.2
        errors = validate(cfg)
        assert errors == [
            "pack.mask.p_mask: -0.5 outside [0, 1]",
            "pack.mask.p_random: 1.2 outside [0, 1]",
        ]

    @pytest.mark.parametrize(
        "section, key, value, error",
        [
            ("near_dedup", "bands", 0, "near_dedup.bands: 0 < 1"),
            ("near_dedup", "rows", 0, "near_dedup.rows: 0 < 1"),
            ("near_dedup", "shingle_n", 0, "near_dedup.shingle_n: 0 < 1"),
            ("near_dedup", "perm_seed", -1, "near_dedup.perm_seed: -1 < 0"),
            ("sample", "overshoot", -2, "sample.overshoot: -2 < 0"),
            (None, "seed", -1, "seed: -1 < 0"),
        ],
    )
    def test_values_that_fail_mid_run_rejected(self, section, key, value, error):
        cfg = self.base()
        setattr(getattr(cfg, section) if section else cfg, key, value)
        assert error in validate(cfg)

    def test_no_stages_rejected(self):
        cfg = self.base()
        cfg.stages = []
        assert validate(cfg) == ["stages: empty"]

    def test_repeated_stage_rejected(self):
        cfg = self.base()
        cfg.stages = ["filter", "dedup_exact", "filter"]
        assert validate(cfg) == ["stages: 'filter' listed twice"]

    def test_stage_specific_requirements(self):
        cfg = self.base()
        cfg.stages = ["lm_score", "token_count"]
        errors = validate(cfg)
        assert any("lm.model_path" in e for e in errors)
        assert any("vocab.path" in e for e in errors)

    @pytest.mark.parametrize("key", ["input", "lm.model_path", "vocab.path"])
    def test_directory_in_place_of_a_file_rejected(self, tmp_path, key):
        cfg = self.base()
        cfg.stages = ["lm_score", "token_count"]
        cfg.lm.model_path, cfg.vocab.path = "model.json", "vocab.txt"
        section, _, name = key.rpartition(".")
        setattr(getattr(cfg, section) if section else cfg, name, str(tmp_path))
        assert validate(cfg) == [f"{key}: not a file: {tmp_path}"]

    @pytest.mark.parametrize("work_dir", ["x", "x/work"])
    def test_work_dir_in_place_of_a_file_rejected(self, work_dir):
        cfg = self.base()
        cfg.work_dir = work_dir  # x is a file of in_config_dir
        assert validate(cfg) == [f"work_dir: not a directory: {work_dir}"]

    def test_missing_paths_reported(self, tmp_path):
        cfg = PipelineConfig(
            input=str(tmp_path / "absent.jsonl"),
            work_dir=str(tmp_path / "w"),
            stages=["filter"],
        )
        errors = validate(cfg)
        assert any("does not exist" in e for e in errors)


class TestBounds:
    @pytest.mark.parametrize(
        "path, base, bound",
        [pytest.param(*f, id=".".join(f[0])) for f in _bounded_fields()],
    )
    def test_each_edge_named_by_dotted_path(self, tmp_path, path, base, bound):
        key = ".".join(path)
        assert f"{key}: expected {base.__name__}, got str" in _load_errors(tmp_path, path, "x")
        section = ".".join(path[:-1])
        for inside, outside in _edges(base, bound):
            assert _load_errors(tmp_path, path, inside) == []
            errors = _load_errors(tmp_path, path, outside)
            own = [e for e in errors if e.startswith(f"{key}: ")]
            assert len(own) == 1, errors
            assert own[0] in (
                f"{key}: {outside} outside {bound}",
                f"{key}: {outside} < {bound[3:]}",
            )
            # a lone value can break no other rule than its section's cross-field one
            assert all(section and e.startswith(f"{section}: ") for e in errors if e not in own)

    def test_schema_declares_every_single_field_bound(self):
        assert {".".join(p): b for p, _, b in _bounded_fields()} == {
            "seed": ">= 0",
            "heuristics.min_alpha_ratio": "[0, 1]",
            "heuristics.max_digit_ratio": "[0, 1]",
            "heuristics.min_latvian_char_ratio": "[0, 1]",
            "heuristics.max_repeated_line_ratio": "[0, 1]",
            "near_dedup.bands": ">= 1",
            "near_dedup.rows": ">= 1",
            "near_dedup.shingle_n": ">= 1",
            "near_dedup.threshold": "(0, 1]",
            "near_dedup.perm_seed": ">= 0",
            "sample.overshoot": ">= 0",
            "pack.mask.rate": "(0, 1)",
            "pack.mask.geom_p": "(0, 1)",
            "pack.mask.max_span": "[1, 65535]",
            "pack.mask.p_mask": "[0, 1]",
            "pack.mask.p_random": "[0, 1]",
        }


class TestImpossibleValues:
    """Values that pass a naive range check but make a stage keep no
    document or every document, or fail only when the stage runs: each
    exits 1 with one line naming its key."""

    @pytest.mark.parametrize(
        "yaml_text, error",
        [
            ("sample: {overshoot: .nan}", "sample.overshoot: nan is not a number"),
            ("lm: {policy: {kind: absolute, value: .nan}}",
             "lm.policy.value: absolute cutoff nan is not finite and >= 1"),
            ("lm: {policy: {kind: absolute, value: -5.0}}",
             "lm.policy.value: absolute cutoff -5.0 is not finite and >= 1"),
            ("lm: {policy: {kind: absolute, value: 0.999}}",
             "lm.policy.value: absolute cutoff 0.999 is not finite and >= 1"),
            ("lm: {policy: {kind: absolute, value: .inf}}",
             "lm.policy.value: absolute cutoff inf is not finite and >= 1"),
            ("lm: {policy: {kind: percentile, value: .nan}}",
             "lm.policy.value: percentile nan outside [0, 100]"),
            ("heuristics: {min_alpha_ratio: .nan}",
             "heuristics.min_alpha_ratio: nan is not a number"),
            # the pack stage would build one array of max_span lengths per window
            ("pack: {mask: {max_span: 65536}}",
             "pack.mask.max_span: 65536 outside [1, 65535]"),
        ],
    )
    def test_validate_exits_1_naming_the_key(self, tmp_path, capsys, yaml_text, error):
        path = tmp_path / "c.yaml"
        path.write_text(f"input: x\nwork_dir: y\nstages: [filter]\n{yaml_text}\n",
                        encoding="utf-8")
        assert main(["validate", "--config", str(path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"invalid config: {error}\n"

    def test_absolute_cutoff_of_one_accepted(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("input: x\nwork_dir: y\nstages: [filter]\n"
                        "lm: {policy: {kind: absolute, value: 1}}\n", encoding="utf-8")
        assert load_config(path).lm.policy.value == 1


class TestReadme:
    def test_cli_example_config_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        cli = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        example = re.search(r"```yaml\n(.*?)```", cli, re.S).group(1)
        (tmp_path / "c.yaml").write_text(example, encoding="utf-8")
        cfg = load_config(tmp_path / "c.yaml")
        assert cfg.stages == list(KNOWN_STAGES)


class TestConfigHash:
    def test_hash_stable_and_sensitive(self, tmp_path):
        cfg_path = build_workspace(tmp_path, n_docs=10)
        a = load_config(cfg_path)
        b = load_config(cfg_path)
        assert a.config_hash() == b.config_hash()
        b.seed += 1
        assert a.config_hash() != b.config_hash()
