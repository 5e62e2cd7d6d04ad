"""Declarative pipeline configuration (YAML) and validation.

The config dataclasses' annotations are the schema, bounds included:
load_config reads each section into its dataclass, then validate checks
ranges, that the files the config names are files and that no file
stands in the way of its work dir, relative paths taken
from the current directory. A bound on one field is written on its
annotation as a string, ``Annotated[float, "(0, 1]"]`` (either end open or
closed) or ``Annotated[int, ">= 1"]``; rules that span fields and
packed.bin's format limits are written out in validate, and those of one
stage in stage_errors, which pipeline.preflight also applies.
Both steps collect every violation, each named by its dotted path, rather
than stopping at the first, so a bad config is fixable in one pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Annotated, Literal, Optional, Union, get_args, get_origin, get_type_hints

import yaml

from corpusprep.ngram_lm import PerplexityPolicy
from corpusprep.near_dedup import NearDupConfig
from corpusprep.packing import MAX_SEQ_LEN, MaskConfig
from corpusprep.quality import HeuristicConfig
from corpusprep.sampler import DEFAULT_OVERSHOOT, BucketQuota, validate_quotas
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
    """Every violation found, one line each; a single one renders as one
    line."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        if len(errors) == 1:
            super().__init__(f"invalid config: {errors[0]}")
        else:
            super().__init__(
                "invalid config:\n" + "\n".join(f"  - {e}" for e in errors)
            )


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
    mode: Literal["quality", "uniform"] = "quality"
    overshoot: Annotated[float, ">= 0"] = DEFAULT_OVERSHOOT


@dataclass
class PackConfig:
    seq_len: int = 1024
    split: bool = True
    mask: MaskConfig = field(default_factory=MaskConfig)


@dataclass
class PipelineConfig:
    input: str = ""
    work_dir: str = ""
    stages: list[str] = field(default_factory=lambda: list(KNOWN_STAGES))
    seed: Annotated[int, ">= 0"] = 0
    heuristics: HeuristicConfig = field(default_factory=HeuristicConfig)
    near_dedup: NearDupConfig = field(default_factory=NearDupConfig)
    lm: LmConfig = field(default_factory=LmConfig)
    vocab: VocabConfig = field(default_factory=VocabConfig)
    quotas: list[BucketQuota] = field(default_factory=list)
    sample: SampleConfig = field(default_factory=SampleConfig)
    pack: PackConfig = field(default_factory=PackConfig)

    def config_hash(self) -> str:
        canonical = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _kind(value) -> str:
    """The YAML name of *value*'s type, for error messages."""
    return {type(None): "null", dict: "mapping"}.get(type(value), type(value).__name__)


def _read(tp, value, path: str, errors: list):
    """*value* read as the annotation *tp*, appending to *errors* one line
    per unknown key or mistyped value, named by its dotted *path*. Values
    are kept as given: an int stays an int in a float field."""
    if get_origin(tp) is Union:  # Optional[X]
        if value is None:
            return None
        tp = get_args(tp)[0]
    if is_dataclass(tp):
        return _read_section(tp, value, path, errors)
    if get_origin(tp) is list:
        if not isinstance(value, list):
            errors.append(f"{path}: expected list, got {_kind(value)}")
            return None
        (item,) = get_args(tp)
        return [_read(item, v, f"{path}[{i}]", errors) for i, v in enumerate(value)]
    if get_origin(tp) is Literal:
        if value not in get_args(tp):
            allowed = ", ".join(map(repr, get_args(tp)))
            errors.append(f"{path}: expected one of {allowed}, got {value!r}")
        return value
    # bool is an int subclass but never a number here; an int is a float
    ok = (float, int) if tp is float else tp
    if not isinstance(value, ok) or (tp is not bool and isinstance(value, bool)):
        errors.append(f"{path}: expected {tp.__name__}, got {_kind(value)}")
    return value


def _read_section(cls, raw, path: str, errors: list):
    """The dataclass *cls* built from the mapping *raw*; a null or absent
    section (nested dataclass or list) reads as its default."""
    if not isinstance(raw, dict):
        errors.append(f"{path}: expected mapping, got {_kind(raw)}")
        return None
    n_errors = len(errors)
    hints = get_type_hints(cls)
    for key in raw:
        if key not in hints:
            errors.append(
                f"{path}: unknown config key {key!r}" if path else f"{key}: unknown config key"
            )
    kwargs = {}
    for f in fields(cls):
        tp, value = hints[f.name], raw.get(f.name)
        section = is_dataclass(tp) or get_origin(tp) is list
        if value is None and (f.name not in raw or section):
            if f.default is MISSING and f.default_factory is MISSING:
                errors.append(f"{path}: missing key {f.name!r}")
            continue
        kwargs[f.name] = _read(tp, value, f"{path}.{f.name}" if path else f.name, errors)
    return cls(**kwargs) if len(errors) == n_errors else None


def _outside(value, bound: str) -> Optional[str]:
    """Why *value* breaks *bound*, ``">= lo"`` or an interval such as
    ``"(lo, hi]"``, or None if it does not. NaN fails every bound."""
    if value != value:
        return f"{value} is not a number"
    if bound.startswith(">= "):
        lo = bound[3:]
        return f"{value} < {lo}" if value < float(lo) else None
    lo, hi = map(float, bound[1:-1].split(", "))
    above = lo <= value if bound[0] == "[" else lo < value
    below = value <= hi if bound[-1] == "]" else value < hi
    return None if above and below else f"{value} outside {bound}"


def _check_bounds(section, path: str, errors: list) -> None:
    """Append ``<dotted.path>: <why>`` for each field of the dataclass
    *section*, nested sections included, that breaks its annotated bound."""
    for name, tp in get_type_hints(type(section), include_extras=True).items():
        value, key = getattr(section, name), f"{path}.{name}" if path else name
        if is_dataclass(value):
            _check_bounds(value, key, errors)
        elif get_origin(tp) is Annotated:
            why = _outside(value, tp.__metadata__[0])
            if why:
                errors.append(f"{key}: {why}")


def _file_errors(key: str, path: Optional[str], required: str) -> list[str]:
    """``<key>: <why>`` unless *path* names a file."""
    if not path:
        return [f"{key}: {required}"]
    why = "not a file" if Path(path).exists() else "path does not exist"
    return [] if Path(path).is_file() else [f"{key}: {why}: {path}"]


def validate(cfg: PipelineConfig) -> list[str]:
    errors = _file_errors("input", cfg.input, "required")
    if not cfg.work_dir:
        errors.append("work_dir: required")
    elif any(p.exists() and not p.is_dir()
             for p in (Path(cfg.work_dir), *Path(cfg.work_dir).parents)):
        errors.append(f"work_dir: not a directory: {cfg.work_dir}")
    if not cfg.stages:
        errors.append("stages: empty")
    for i, stage in enumerate(cfg.stages):
        if stage not in KNOWN_STAGES:
            errors.append(f"stages: unknown stage {stage!r}")
        elif stage in cfg.stages[:i]:
            errors.append(f"stages: {stage!r} listed twice")
    _check_bounds(cfg, "", errors)
    heuristics, near = cfg.heuristics, cfg.near_dedup
    policy, mask = cfg.lm.policy, cfg.pack.mask
    if heuristics.min_words > heuristics.max_words:
        errors.append("heuristics: min_words > max_words")
    if near.bands * near.rows != near.num_perm:
        errors.append(
            f"near_dedup: bands*rows != num_perm ({near.bands}*{near.rows} != {near.num_perm})"
        )
    if policy.kind == "percentile" and not 0.0 <= policy.value <= 100.0:
        errors.append(f"lm.policy.value: percentile {policy.value} outside [0, 100]")
    if policy.kind == "absolute" and not 1.0 <= policy.value < math.inf:
        # a perplexity is at least 1: a lower cutoff rejects every scored document
        errors.append(f"lm.policy.value: absolute cutoff {policy.value} is not finite and >= 1")
    if mask.p_mask + mask.p_random > 1.0:
        errors.append("pack.mask: p_mask + p_random > 1")
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
    return errors + stage_errors(cfg, cfg.stages)


def stage_errors(cfg: PipelineConfig, stages) -> list[str]:
    """What breaks the rules of *stages*: the files lm_score, token_count
    and pack read must be files, and sample's quotas pass validate_quotas."""
    errors: list[str] = []
    if "lm_score" in stages:
        errors += _file_errors("lm.model_path", cfg.lm.model_path, "required by lm_score stage")
    if "token_count" in stages or "pack" in stages:
        errors += _file_errors("vocab.path", cfg.vocab.path, "required by token_count/pack stages")
    if "sample" in stages:
        errors.extend(validate_quotas(cfg.quotas))
    return errors


def load_config(path) -> PipelineConfig:
    """Parse and fully validate a pipeline config; raises ConfigError
    listing every violation."""
    try:
        raw = yaml.safe_load(Path(path).read_bytes().decode("utf-8")) or {}
    except UnicodeDecodeError as e:
        raise ConfigError([f"{path}: invalid UTF-8 at byte {e.start}"]) from e
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        where = f"{path}:{mark.line + 1}:{mark.column + 1}" if mark else f"{path}"
        problem = getattr(e, "problem", None) or " ".join(str(e).split())
        raise ConfigError([f"{where}: invalid YAML: {problem}"]) from e
    if not isinstance(raw, dict):
        raise ConfigError([f"{path}: top level must be a mapping"])
    errors: list[str] = []
    cfg = _read_section(PipelineConfig, raw, "", errors)
    if errors:
        raise ConfigError(errors)
    errors = validate(cfg)
    if errors:
        raise ConfigError(errors)
    return cfg
