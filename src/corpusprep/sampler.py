"""Length-stratified sampling of documents into token-budget buckets."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from corpusprep.core import Document
from corpusprep.ngram_lm import PPL_META_KEY

DEFAULT_OVERSHOOT = 0.01


@dataclass
class BucketQuota:
    name: str
    min_tokens: int
    max_tokens: Optional[int]  # exclusive; None = unbounded
    target_tokens: int


def validate_quotas(quotas: list[BucketQuota]) -> list[str]:
    """One line per rule *quotas* breaks, each bucket named by its index
    path (``quotas[0]``), as the config reader names it."""
    if not quotas:
        return ["quotas: empty"]
    errors = [
        f"quotas[{i}].target_tokens: {q.target_tokens} < 1"
        for i, q in enumerate(quotas)
        if q.target_tokens < 1
    ]
    errors += [
        f"quotas[{i}]: empty interval [{q.min_tokens}, {q.max_tokens})"
        for i, q in enumerate(quotas)
        if q.max_tokens is not None and q.max_tokens <= q.min_tokens
    ]
    # an unbounded bucket sorts after a bounded one of the same start
    order = sorted(
        range(len(quotas)), key=lambda i: (quotas[i].min_tokens, quotas[i].max_tokens is None)
    )
    if quotas[order[0]].min_tokens != 0:
        errors.append(
            f"quotas: intervals do not start at 0 (lowest is quotas[{order[0]}])"
        )
    for a, b in zip(order, order[1:]):
        if quotas[a].max_tokens is None:
            errors.append(f"quotas[{a}]: unbounded bucket is not last")
        elif quotas[a].max_tokens != quotas[b].min_tokens:
            errors.append(f"quotas: gap or overlap between quotas[{a}] and quotas[{b}]")
    if quotas[order[-1]].max_tokens is not None:
        errors.append(
            f"quotas: intervals do not cover [0, inf) (highest is quotas[{order[-1]}])"
        )
    first = {}
    for i, q in enumerate(quotas):
        j = first.setdefault(q.name, i)
        if j != i:
            errors.append(f"quotas[{i}].name: {q.name!r} repeats quotas[{j}].name")
    return errors


def assign_bucket(token_count: int, quotas: list[BucketQuota]) -> str:
    """The name of the bucket that holds *token_count*; *quotas* tile
    [0, inf), as validate_quotas checks."""
    for q in quotas:
        if token_count >= q.min_tokens and (
            q.max_tokens is None or token_count < q.max_tokens
        ):
            return q.name


def _quality_key(doc: Document) -> tuple:
    """(perplexity, id); a document without a perplexity sorts last.
    ValueError naming the document if its perplexity is not a number (NaN
    included, which would sort arbitrarily)."""
    value = doc.meta.get(PPL_META_KEY, "inf")
    try:
        ppl = float(value)
    except ValueError:
        ppl = math.nan
    if math.isnan(ppl):
        raise ValueError(f"document {doc.id!r} has meta.{PPL_META_KEY} {value!r}, "
                         "not a number")
    return (ppl, doc.id)


def sample_to_quota(
    docs: list[Document],
    quotas: list[BucketQuota],
    seed: int = 0,
    mode: Literal["quality", "uniform"] = "quality",
    overshoot: float = DEFAULT_OVERSHOOT,
) -> tuple[list[Optional[str]], dict]:
    """Greedy per-bucket selection until each token budget is met: per
    document in order, None if selected and ``not_sampled`` if not; and the
    per-bucket targets, realized token sums and supply warnings.

    Candidates are visited in ascending-perplexity order (mode="quality")
    or a seeded shuffle (mode="uniform"); a document that would overflow
    target*(1+overshoot) is skipped and smaller later documents may still
    fill the gap. Documents are chosen by position, so a realized sum is
    the tokens kept even when ids repeat. *quotas* break no rule of
    validate_quotas, which load_config applies when sample is configured.
    """
    by_bucket: dict[str, list[int]] = {q.name: [] for q in quotas}
    for i, doc in enumerate(docs):
        if doc.token_count is None:
            raise ValueError(f"document {doc.id!r} has no token_count")
        by_bucket[assign_bucket(doc.token_count, quotas)].append(i)

    selected = [False] * len(docs)
    extra: dict = {}
    warnings = []
    for q in quotas:
        candidates = by_bucket[q.name]
        if mode == "quality":
            order = sorted(candidates, key=lambda i: _quality_key(docs[i]))
        else:
            rng = np.random.default_rng((seed, zlib.crc32(q.name.encode("utf-8"))))
            order = [candidates[i] for i in rng.permutation(len(candidates))]
        limit = q.target_tokens * (1.0 + overshoot)
        realized = 0
        for i in order:
            if realized >= q.target_tokens:
                break
            if realized + docs[i].token_count <= limit:
                realized += docs[i].token_count
                selected[i] = True
        extra[f"bucket_{q.name}_target"] = q.target_tokens
        extra[f"bucket_{q.name}_realized"] = realized
        if realized < 0.98 * q.target_tokens:
            warnings.append(
                f"bucket {q.name}: realized {realized} < 98% of target "
                f"{q.target_tokens} (insufficient supply)"
            )
    if warnings:
        extra["warnings"] = warnings
    return [None if chosen else "not_sampled" for chosen in selected], extra
