"""Span tracing of the pipeline from outside the program.

``install`` replaces public functions of the corpusprep modules by wrappers
that record one span per call: name, start, end and the span that was open
when the call began. Self time is a span's duration minus its direct
children's, so a function that pulls work through a generator (for example
``write_packed`` pulling ``apply_masking``) is charged only for its own
work. Lazy readers are wrapped per ``next()``: timing the call that creates
a generator would show reading as free.

Spans stay in memory and are written out once, after the run.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

STAGES = ("filter", "dedup_exact", "dedup_near", "lm_score", "token_count", "sample", "pack")


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, cpu start, cpu end]
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = defaultdict(float)

    def begin(self, name: str, cpu: bool) -> int:
        i = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, _cpu() if cpu else 0.0, 0.0])
        self.stack.append(i)
        return i

    def end(self, i: int, cpu: bool) -> None:
        span = self.spans[i]
        span[2] = time.perf_counter()
        if cpu:
            span[5] = _cpu()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None, cpu: bool = False) -> None:
        """Replace ``owner.attr`` by a traced call; *after(args, result)*
        runs outside the span to record counts. A missing attribute is
        left alone, and its metrics read 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            i = self.begin(name, cpu)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(i, cpu)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Replace a generator function so that each ``next()`` is a span."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self.begin(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(i, False)
                self.counts[name + ".docs"] += 1
                yield item

        setattr(owner, attr, traced)

    def self_times(self) -> dict:
        """name -> {"s": self time, "total_s": duration, "cpu_s": CPU time},
        each summed over the name's spans."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"s": 0.0, "total_s": 0.0, "cpu_s": 0.0})
        for i, (name, start, end, _, c0, c1) in enumerate(self.spans):
            agg = out[name]
            agg["s"] += end - start - child_time[i]
            agg["total_s"] += end - start
            agg["cpu_s"] += c1 - c0
        return out

    def top_level_s(self, since: float) -> float:
        """Summed duration of the spans without a parent that started at or
        after *since*."""
        return sum(e - s for _, s, e, p, _, _ in self.spans if p < 0 and s >= since)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent, _, _ in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every pipeline layer."""
    from corpusprep import (
        config,
        core,
        exact_dedup,
        near_dedup,
        ngram_lm,
        packing,
        pipeline,
        quality,
        sampler,
        subword,
    )

    counts = tracer.counts

    def count_bytes(key, path_arg):
        def after(args, _result):
            counts[key] += os.path.getsize(args[path_arg])

        return after

    def count_pairs(_args, pairs):
        counts["near_dedup.candidate_pairs.count"] += len(pairs)

    def count_scored(_args, verdict):
        counts["ngram_lm.tokens_scored"] += verdict.n_scored_tokens

    def count_tokens(args, ids):
        counts["subword.tokenize.calls"] += 1
        counts["subword.tokens"] += len(ids)
        counts["subword.unk"] += ids.count(args[1].unk_id)

    def count_masked(_args, result):
        counts["packing.masked_positions"] += len(result[1].positions)

    tracer.wrap(config, "load_config", "config.load_config")
    tracer.wrap(ngram_lm, "load_model", "ngram_lm.load_model")
    tracer.wrap(subword, "load_vocab", "subword.load_vocab")

    # pipeline and exact_dedup import these names from core directly
    tracer.wrap_generator(pipeline, "read_jsonl", "core.read_jsonl")
    tracer.wrap(pipeline, "write_jsonl", "core.write_jsonl",
                after=count_bytes("core.write_jsonl.bytes", 1))
    tracer.wrap(pipeline, "write_rejects", "core.write_rejects")
    for owner in (core, pipeline, exact_dedup):
        tracer.wrap(owner, "normalize_text", "core.normalize_text")

    for stage in STAGES:
        tracer.wrap(pipeline, f"stage_{stage}", f"pipeline.stage_{stage}", cpu=True)

    tracer.wrap(quality, "strip_boilerplate", "quality.strip_boilerplate")
    tracer.wrap(quality, "apply_heuristics", "quality.apply_heuristics")
    tracer.wrap(exact_dedup, "dedup_exact", "exact_dedup.dedup_exact")
    tracer.wrap(near_dedup, "shingles", "near_dedup.shingles")
    tracer.wrap(near_dedup, "minhash_signature", "near_dedup.minhash_signature")
    tracer.wrap(near_dedup.LshIndex, "candidate_pairs", "near_dedup.candidate_pairs",
                after=count_pairs)
    tracer.wrap(near_dedup, "find_duplicate_clusters", "near_dedup.find_duplicate_clusters")
    tracer.wrap(ngram_lm, "perplexity", "ngram_lm.perplexity", after=count_scored)
    tracer.wrap(subword, "tokenize", "subword.tokenize", after=count_tokens)
    tracer.wrap(sampler, "sample_to_quota", "sampler.sample_to_quota")
    tracer.wrap(packing, "pack_greedy", "packing.pack_greedy")
    tracer.wrap(packing, "apply_masking", "packing.apply_masking", after=count_masked)
    tracer.wrap(packing, "write_packed", "packing.write_packed",
                after=count_bytes("packing.bytes_written", 0))


# Per-layer metrics of a traced run, by name, with their units. ".s" is self
# time, except for the pipeline stages, whose ".s" and ".cpu_s" cover the
# whole stage call so that cpu_s / s shows parallelism inside a stage.
PER_LAYER = (
    [(f"pipeline.stage_{s}.s", "s") for s in STAGES]
    + [(f"pipeline.stage_{s}.cpu_s", "s") for s in STAGES]
    + [
        ("pipeline.untraced_s", "s"),
        ("pipeline.traced_wall_s", "s"),
        ("pipeline.trace_overhead_s", "s"),
        ("config.load_config.s", "s"),
        ("core.read_jsonl.s", "s"),
        ("core.read_jsonl.docs", "count"),
        ("core.write_jsonl.s", "s"),
        ("core.write_jsonl.bytes", "B"),
        ("core.write_rejects.s", "s"),
        ("core.normalize_text.s", "s"),
        ("quality.apply_heuristics.s", "s"),
        ("quality.strip_boilerplate.s", "s"),
        ("quality.rejected_docs", "count"),
        ("exact_dedup.dedup_exact.s", "s"),
        ("exact_dedup.removed_docs", "count"),
        ("near_dedup.shingles.s", "s"),
        ("near_dedup.minhash_signature.s", "s"),
        ("near_dedup.candidate_pairs.s", "s"),
        ("near_dedup.candidate_pairs.count", "count"),
        ("near_dedup.find_duplicate_clusters.s", "s"),
        ("near_dedup.removed_docs", "count"),
        ("near_dedup.removed_per_candidate_pair", "ratio"),
        ("ngram_lm.load_model.s", "s"),
        ("ngram_lm.perplexity.s", "s"),
        ("ngram_lm.tokens_scored", "count"),
        ("ngram_lm.us_per_token", "us"),
        ("subword.load_vocab.s", "s"),
        ("subword.tokenize.s", "s"),
        ("subword.tokenize.calls", "count"),
        ("subword.tokenize_calls_per_doc", "ratio"),
        ("subword.tokens", "count"),
        ("subword.unk_rate", "ratio"),
        ("sampler.sample_to_quota.s", "s"),
        ("packing.pack_greedy.s", "s"),
        ("packing.apply_masking.s", "s"),
        ("packing.write_packed.s", "s"),
        ("packing.windows", "count"),
        ("packing.efficiency", "ratio"),
        ("packing.masked_positions", "count"),
        ("packing.bytes_written", "B"),
    ]
)


def layer_metrics(tracer: Tracer, report, pipeline_start: float, wall_s: float) -> dict:
    """Per-layer values of one traced run, keyed like PER_LAYER; a layer
    the workload does not run reads 0. ``pipeline.trace_overhead_s`` needs
    the untraced runs and is filled in by the caller."""
    times = tracer.self_times()
    counts = tracer.counts
    stats = {s.stage: s for s in report.stages}

    def ratio(a, b):
        return a / b if b else 0.0

    def rejected(stage):
        return stats[stage].rejected_docs if stage in stats else 0

    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, agg in times.items():
        if name.startswith("pipeline.stage_"):
            out[name + ".s"] = agg["total_s"]
            out[name + ".cpu_s"] = agg["cpu_s"]
        elif name + ".s" in out:
            out[name + ".s"] = agg["s"]
    for key in ("core.read_jsonl.docs", "core.write_jsonl.bytes",
                "near_dedup.candidate_pairs.count", "ngram_lm.tokens_scored",
                "subword.tokenize.calls", "subword.tokens",
                "packing.masked_positions", "packing.bytes_written"):
        out[key] = counts[key]
    out["pipeline.traced_wall_s"] = wall_s
    out["pipeline.untraced_s"] = wall_s - tracer.top_level_s(pipeline_start)
    out["quality.rejected_docs"] = rejected("filter")
    out["exact_dedup.removed_docs"] = rejected("dedup_exact")
    out["near_dedup.removed_docs"] = rejected("dedup_near")
    out["near_dedup.removed_per_candidate_pair"] = ratio(
        rejected("dedup_near"), counts["near_dedup.candidate_pairs.count"]
    )
    out["ngram_lm.us_per_token"] = 1e6 * ratio(
        out["ngram_lm.perplexity.s"], counts["ngram_lm.tokens_scored"]
    )
    tokenized_docs = stats["token_count"].docs_in if "token_count" in stats else (
        stats["pack"].docs_in if "pack" in stats else 0
    )
    out["subword.tokenize_calls_per_doc"] = ratio(counts["subword.tokenize.calls"], tokenized_docs)
    out["subword.unk_rate"] = ratio(counts["subword.unk"], counts["subword.tokens"])
    if "pack" in stats:
        out["packing.windows"] = stats["pack"].extra["windows"]
        out["packing.efficiency"] = float(stats["pack"].extra["efficiency"])
    return out
