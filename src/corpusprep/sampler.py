"""Length-stratified sampling of documents into token-budget buckets."""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from corpusprep.core import Document, StageStats
from corpusprep.ngram_lm import PPL_META_KEY

DEFAULT_OVERSHOOT = 0.01


@dataclass
class BucketQuota:
    name: str
    min_tokens: int
    max_tokens: Optional[int]  # exclusive; None = unbounded
    target_tokens: int


def default_quotas(scale: float = 1.0) -> list[BucketQuota]:
    """Short/mid/long buckets with the 2:2:1 long/mid/short budget ratio,
    scaled from the 1B/1B/500M reference targets."""
    return [
        BucketQuota("short", 0, 1024, int(500e6 * scale)),
        BucketQuota("mid", 1024, 4096, int(1e9 * scale)),
        BucketQuota("long", 4096, None, int(1e9 * scale)),
    ]


def validate_quotas(quotas: list[BucketQuota]) -> list[str]:
    errors = []
    if not quotas:
        return ["quotas: empty"]
    for q in quotas:
        if q.target_tokens <= 0:
            errors.append(f"quotas.{q.name}: target_tokens must be > 0")
    ordered = sorted(quotas, key=lambda q: q.min_tokens)
    if ordered[0].min_tokens != 0:
        errors.append("quotas: intervals do not start at 0")
    for prev, cur in zip(ordered, ordered[1:]):
        if prev.max_tokens is None:
            errors.append(f"quotas.{prev.name}: unbounded bucket is not last")
        elif prev.max_tokens != cur.min_tokens:
            errors.append(
                f"quotas: gap or overlap between {prev.name} and {cur.name}"
            )
    if ordered[-1].max_tokens is not None:
        errors.append("quotas: intervals do not cover [0, inf)")
    names = [q.name for q in quotas]
    if len(set(names)) != len(names):
        errors.append("quotas: duplicate bucket names")
    return errors


def assign_bucket(token_count: int, quotas: list[BucketQuota]) -> str:
    for q in quotas:
        if token_count >= q.min_tokens and (
            q.max_tokens is None or token_count < q.max_tokens
        ):
            return q.name
    raise ValueError(f"no bucket covers token count {token_count}")


def _quality_key(doc: Document) -> tuple:
    ppl = float(doc.meta.get(PPL_META_KEY, "inf"))
    return (ppl, doc.id)


def sample_to_quota(
    docs: Iterable[Document],
    quotas: list[BucketQuota],
    seed: int = 0,
    mode: str = "quality",
    overshoot: float = DEFAULT_OVERSHOOT,
) -> tuple[list[Document], StageStats]:
    """Greedy per-bucket selection until each token budget is met.

    Candidates are visited in ascending-perplexity order (mode="quality")
    or a seeded shuffle (mode="uniform"); a document that would overflow
    target*(1+overshoot) is skipped and smaller later documents may still
    fill the gap. Output preserves input order of the selected documents.
    """
    errors = validate_quotas(quotas)
    if errors:
        raise ValueError("; ".join(errors))
    docs = list(docs)
    for doc in docs:
        if doc.token_count is None:
            raise ValueError(f"document {doc.id!r} has no token_count")

    by_bucket: dict[str, list[Document]] = {q.name: [] for q in quotas}
    for doc in docs:
        by_bucket[assign_bucket(doc.token_count, quotas)].append(doc)

    selected: set[str] = set()
    extra: dict = {}
    warnings = []
    for q in quotas:
        candidates = by_bucket[q.name]
        if mode == "quality":
            order = sorted(candidates, key=_quality_key)
        elif mode == "uniform":
            rng = np.random.default_rng((seed, zlib.crc32(q.name.encode("utf-8"))))
            order = [candidates[i] for i in rng.permutation(len(candidates))]
        else:
            raise ValueError(f"unknown sampling mode {mode!r}")
        limit = q.target_tokens * (1.0 + overshoot)
        realized = 0
        for doc in order:
            if realized >= q.target_tokens:
                break
            if realized + doc.token_count <= limit:
                realized += doc.token_count
                selected.add(doc.id)
        extra[f"bucket_{q.name}_target"] = q.target_tokens
        extra[f"bucket_{q.name}_realized"] = realized
        if realized < 0.98 * q.target_tokens:
            warnings.append(
                f"bucket {q.name}: realized {realized} < 98% of target "
                f"{q.target_tokens} (insufficient supply)"
            )
    if warnings:
        extra["warnings"] = warnings
    reasons = [None if doc.id in selected else "not_sampled" for doc in docs]
    return StageStats.tally("sample", docs, reasons, extra=extra)
