"""Declarative pipeline configuration (YAML) and validation.

validate_config collects every violation rather than stopping at the
first, so a bad config is fixable in one pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Optional

import yaml

from corpusprep.ngram_lm import PerplexityPolicy
from corpusprep.near_dedup import NearDupConfig
from corpusprep.packing import MAX_SEQ_LEN, MaskConfig
from corpusprep.quality import HeuristicConfig
from corpusprep.sampler import BucketQuota, validate_quotas
from corpusprep.subword import MAX_VOCAB_SIZE

KNOWN_STAGES = (
    "filter",
    "dedup_exact",
    "dedup_near",
    "lm_score",
    "token_count",
    "sample",
    "pack",
)


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("invalid config:\n" + "\n".join(f"  - {e}" for e in errors))


@dataclass
class LmConfig:
    model_path: Optional[str] = None
    policy: PerplexityPolicy = field(default_factory=PerplexityPolicy)


@dataclass
class VocabConfig:
    path: Optional[str] = None
    expected_size: Optional[int] = None


@dataclass
class SampleConfig:
    mode: str = "quality"  # "quality" or "uniform"
    overshoot: float = 0.01


@dataclass
class PackConfig:
    seq_len: int = 1024
    split: bool = True
    mask: MaskConfig = field(default_factory=MaskConfig)


@dataclass
class PipelineConfig:
    input: str
    work_dir: str
    stages: list = field(default_factory=lambda: list(KNOWN_STAGES))
    seed: int = 0
    heuristics: HeuristicConfig = field(default_factory=HeuristicConfig)
    near_dedup: NearDupConfig = field(default_factory=NearDupConfig)
    lm: LmConfig = field(default_factory=LmConfig)
    vocab: VocabConfig = field(default_factory=VocabConfig)
    quotas: list = field(default_factory=list)
    sample: SampleConfig = field(default_factory=SampleConfig)
    pack: PackConfig = field(default_factory=PackConfig)

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build(raw: dict) -> tuple[PipelineConfig, list[str]]:
    known = {f.name for f in fields(PipelineConfig)}
    errors = [f"{key}: unknown config key" for key in raw if key not in known]

    def section(name, cls, default=None):
        data = raw.get(name)
        if data is None:
            return default if default is not None else cls()
        if not isinstance(data, dict):
            errors.append(f"{name}: expected a mapping")
            return cls()
        try:
            return cls(**data)
        except TypeError as e:
            errors.append(f"{name}: {e}")
            return cls()

    lm_raw = dict(raw.get("lm") or {})
    policy_raw = lm_raw.pop("policy", None)
    try:
        policy = PerplexityPolicy(**policy_raw) if policy_raw else PerplexityPolicy()
    except TypeError as e:
        errors.append(f"lm.policy: {e}")
        policy = PerplexityPolicy()
    try:
        lm = LmConfig(policy=policy, **lm_raw)
    except TypeError as e:
        errors.append(f"lm: {e}")
        lm = LmConfig(policy=policy)

    pack_raw = dict(raw.get("pack") or {})
    mask_raw = pack_raw.pop("mask", None)
    try:
        mask = MaskConfig(**mask_raw) if mask_raw else MaskConfig()
    except TypeError as e:
        errors.append(f"pack.mask: {e}")
        mask = MaskConfig()
    try:
        pack = PackConfig(mask=mask, **pack_raw)
    except TypeError as e:
        errors.append(f"pack: {e}")
        pack = PackConfig(mask=mask)

    quotas = []
    for i, q in enumerate(raw.get("quotas") or []):
        try:
            quotas.append(BucketQuota(**q))
        except TypeError as e:
            errors.append(f"quotas[{i}]: {e}")

    cfg = PipelineConfig(
        input=str(raw.get("input", "")),
        work_dir=str(raw.get("work_dir", "")),
        stages=list(raw.get("stages", list(KNOWN_STAGES))),
        seed=int(raw.get("seed", 0)),
        heuristics=section("heuristics", HeuristicConfig),
        near_dedup=section("near_dedup", NearDupConfig),
        lm=lm,
        vocab=section("vocab", VocabConfig),
        quotas=quotas,
        sample=section("sample", SampleConfig),
        pack=pack,
    )
    return cfg, errors


def validate(cfg: PipelineConfig, check_paths: bool = True) -> list[str]:
    errors: list[str] = []
    if not cfg.input:
        errors.append("input: required")
    elif check_paths and not Path(cfg.input).exists():
        errors.append(f"input: path does not exist: {cfg.input}")
    if not cfg.work_dir:
        errors.append("work_dir: required")
    for stage in cfg.stages:
        if stage not in KNOWN_STAGES:
            errors.append(f"stages: unknown stage {stage!r}")
    errors.extend(cfg.heuristics.validate())
    errors.extend(cfg.near_dedup.validate())
    errors.extend(cfg.lm.policy.validate())
    errors.extend(cfg.pack.mask.validate())
    if cfg.pack.seq_len < 2:
        errors.append(f"pack.seq_len: {cfg.pack.seq_len} < 2")
    elif cfg.pack.seq_len > MAX_SEQ_LEN:
        errors.append(
            f"pack.seq_len: {cfg.pack.seq_len} > {MAX_SEQ_LEN} "
            "(packed.bin stores positions and pad_count as u16)"
        )
    size = cfg.vocab.expected_size
    if size is not None and size > MAX_VOCAB_SIZE:
        errors.append(
            f"vocab.expected_size: {size} > {MAX_VOCAB_SIZE} "
            "(packed.bin stores token ids as u16)"
        )
    if "lm_score" in cfg.stages:
        if not cfg.lm.model_path:
            errors.append("lm.model_path: required by lm_score stage")
        elif check_paths and not Path(cfg.lm.model_path).exists():
            errors.append(f"lm.model_path: path does not exist: {cfg.lm.model_path}")
    if "token_count" in cfg.stages or "pack" in cfg.stages:
        if not cfg.vocab.path:
            errors.append("vocab.path: required by token_count/pack stages")
        elif check_paths and not Path(cfg.vocab.path).exists():
            errors.append(f"vocab.path: path does not exist: {cfg.vocab.path}")
    if "sample" in cfg.stages:
        errors.extend(validate_quotas(cfg.quotas))
        if cfg.sample.mode not in ("quality", "uniform"):
            errors.append(f"sample.mode: unknown mode {cfg.sample.mode!r}")
    return errors


def load_config(path, check_paths: bool = True) -> PipelineConfig:
    """Parse and fully validate a pipeline config; raises ConfigError
    listing every violation."""
    with open(path, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])
    cfg, errors = _build(raw)
    errors.extend(validate(cfg, check_paths=check_paths))
    if errors:
        raise ConfigError(errors)
    return cfg
