"""Stage sequencing, resume, and run reporting.

Every stage reads the previous stage's JSONL, writes its own JSONL plus a
``.rejects`` sidecar, and then rewrites the work-dir ``report.json``, the
run's one record, with its stats appended: last, so an interrupted run can
resume exactly after the stages the report holds. Every work-dir file is
replaced atomically. All randomness derives from the config seed, so reruns
with an identical config and input are byte-identical.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

from corpusprep import exact_dedup, near_dedup, ngram_lm, packing, quality, sampler, subword
from corpusprep.config import ConfigError, PipelineConfig, stage_errors
from corpusprep.core import (
    SourceStats,
    StageStats,
    normalize_text,
    read_jsonl,
    write_json,
    write_jsonl,
    write_rejects,
)

REPORT_NAME = "report.json"


class StageFailure(RuntimeError):
    pass


@dataclass
class RunReport:
    config_hash: str
    stages: list = field(default_factory=list)  # StageStats in order
    diagnostics: int = 0  # malformed input lines
    total_wall_time: float = 0.0

    def initial_per_source_words(self) -> dict:
        if not self.stages:
            return {}
        return {s: v.words_in for s, v in sorted(self.stages[0].per_source.items())}

    def final_per_source_words(self) -> dict:
        if not self.stages:
            return {}
        return {s: v.words_out for s, v in sorted(self.stages[-1].per_source.items())}

    def check_conservation(self) -> None:
        """Each stage's own conservation, and each stage reads exactly the
        documents the previous stage kept; AssertionError otherwise, under
        ``python -O`` too. Words are not chained: ``filter`` counts its
        stripped texts, wherever it runs."""
        for stats in self.stages:
            stats.check_conservation()
        for prev, cur in zip(self.stages, self.stages[1:]):
            if prev.docs_out != cur.docs_in:
                raise AssertionError((prev.stage, cur.stage))

    def to_dict(self) -> dict:
        # wall time excluded so reports are byte-stable across reruns
        return {
            "config_hash": self.config_hash,
            "diagnostics": self.diagnostics,
            "stages": [s.to_dict() for s in self.stages],
            "per_source_words_initial": self.initial_per_source_words(),
            "per_source_words_final": self.final_per_source_words(),
        }


def report_table(report: dict) -> str:
    """Render per-source word counts in millions, with a filtered total."""
    initial = report["per_source_words_initial"]
    final = report["per_source_words_final"]
    rows = [("Source", "Initial (M)", "Final (M)")]
    for src in sorted(initial):
        rows.append(
            (src, f"{initial[src] / 1e6:.1f}", f"{final.get(src, 0) / 1e6:.1f}")
        )
    rows.append(
        (
            "Total after filtering and deduplication",
            f"{sum(initial.values()) / 1e6:.1f}",
            f"{sum(final.values()) / 1e6:.1f}",
        )
    )
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()
        )
        if i == 0 or i == len(rows) - 2:
            lines.append("-" * (sum(widths) + 4))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The stage contract. There is one stage_<name>(docs, cfg, loaded) per
# config.KNOWN_STAGES name, looked up by name at call time
# by run_stage, which writes the stage's JSONL and .rejects for both `run`
# and the single-stage subcommands.
# *docs* is a list: the previous stage's output, or the documents
# read_jsonl read, no id twice. A stage returns (docs, verdicts, extra): its
# output documents, one verdict per document (None keeps it, a reason string
# or a (reason, detail) pair rejects it; verdicts=None keeps every document)
# and its report dict or None. run_stage alone turns them into the kept
# documents, the stats and the .rejects records with StageStats.tally,
# which counts documents and the words of the returned texts (filter's
# stripped ones) in, out and rejected per source; the algorithm modules
# only decide, and never name a stage. No stage is given a work dir: pack
# alone writes side files, packed.bin and its packed.meta.jsonl, into
# cfg.work_dir through a writer that replaces them atomically.
# *loaded* is preflight's Loaded, read before any input: token_count and
# pack share its vocabulary and word-segmentation memo (pack reads the ids
# subword.token_ids kept at token_count), and lm_score scores with its LM.
# --------------------------------------------------------------------------


class Loaded(NamedTuple):
    """The files the stages about to run read, loaded; None if none reads it."""

    vocab: Optional[subword.SubwordVocab] = None
    model: Optional[ngram_lm.KneserNeyModel] = None


def preflight(cfg: PipelineConfig, stages) -> Loaded:
    """Check the rules of *cfg*'s stages and of *stages*, then load what
    *stages* read through subword.load_vocab and ngram_lm.load_model, looked
    up when called; ConfigError, VocabError or ModelError otherwise."""
    errors = stage_errors(cfg, [*cfg.stages, *stages])
    if errors:
        raise ConfigError(errors)
    reads_vocab = "token_count" in stages or "pack" in stages
    return Loaded(
        subword.load_vocab(cfg.vocab.path, cfg.vocab.expected_size) if reads_vocab else None,
        ngram_lm.load_model(cfg.lm.model_path) if "lm_score" in stages else None,
    )


def stage_filter(docs, cfg: PipelineConfig, loaded):
    docs = [
        doc.with_text(quality.strip_boilerplate(normalize_text(doc.text)))
        for doc in docs
    ]
    return docs, quality.heuristic_verdicts(docs, cfg.heuristics), None


def stage_dedup_exact(docs, cfg: PipelineConfig, loaded):
    docs = sorted(docs, key=lambda d: (d.source, d.id))
    return docs, exact_dedup.dedup_exact(docs), None


def stage_dedup_near(docs, cfg: PipelineConfig, loaded):
    verdicts, n_clusters = near_dedup.dedup_near(docs, cfg.near_dedup)
    return docs, verdicts, {"clusters": n_clusters}


def stage_lm_score(docs, cfg: PipelineConfig, loaded):
    verdicts, cutoff = ngram_lm.filter_by_perplexity(docs, loaded.model, cfg.lm.policy)
    return docs, verdicts, {"cutoff": repr(cutoff)}


def stage_token_count(docs, cfg: PipelineConfig, loaded):
    for doc in docs:
        doc.token_count = len(subword.token_ids(doc, loaded.vocab))
    return docs, None, None


def stage_sample(docs, cfg: PipelineConfig, loaded):
    return docs, *sampler.sample_to_quota(
        docs,
        cfg.quotas,
        seed=cfg.seed,
        mode=cfg.sample.mode,
        overshoot=cfg.sample.overshoot,
    )


def stage_pack(docs, cfg: PipelineConfig, loaded):
    return docs, None, pack_docs(docs, cfg, Path(cfg.work_dir) / "packed.bin", loaded.vocab)


def pack_docs(docs, cfg: PipelineConfig, out_bin, vocab) -> dict:
    """Pack and mask *docs* into *out_bin*, with its ``.meta.jsonl`` sidecar
    beside it; returns the stage's report dict. Every document passes
    through."""
    tokenized = ((doc.id, subword.token_ids(doc, vocab)) for doc in docs)
    windows, efficiency = packing.pack_greedy(
        tokenized,
        cfg.pack.seq_len,
        bos_id=vocab.bos_id,
        eos_id=vocab.eos_id,
        pad_id=vocab.pad_id,
        split=cfg.pack.split,
    )

    def records():
        for i, seq in enumerate(windows):
            rng = packing.window_rng(cfg.seed, i)
            masked, plan = packing.apply_masking(
                seq,
                cfg.pack.mask,
                mask_id=vocab.mask_id,
                special_ids=vocab.special_ids,
                vocab_size=vocab.size,
                rng=rng,
            )
            yield masked, seq, plan

    sidecar = Path(out_bin).with_suffix(".meta.jsonl")
    n = packing.write_packed(out_bin, sidecar, records(), cfg.pack.seq_len)
    return {"windows": n, "efficiency": f"{efficiency:.6f}"}


def run_stage(name: str, docs, cfg: PipelineConfig, loaded, out_path, prev=None):
    """Run stage *name*, write its output to *out_path* (copying lines from
    *prev*) with ``.rejects`` beside it and print its counts and time to
    stderr; returns (kept, stats), which ``StageStats.tally`` makes
    conserve. An error inside the stage, or another number of documents
    out than in, becomes a StageFailure naming it, so the stages chain."""
    t0 = time.monotonic()
    try:
        out, verdicts, extra = globals()[f"stage_{name}"](docs, cfg, loaded)
        if len(out) != len(docs):
            raise ValueError(f"returned {len(out)} documents for {len(docs)}")
        kept, stats, rejects = StageStats.tally(name, out, verdicts, extra)
    except Exception as e:
        raise StageFailure(f"stage {name} failed: {e}") from e
    write_jsonl(kept, out_path, prev)
    write_rejects(rejects, f"{out_path}.rejects")
    print(
        f"[{name}] in={stats.docs_in} out={stats.docs_out} "
        f"rejected={stats.rejected_docs} ({time.monotonic() - t0:.2f}s)",
        file=sys.stderr,
    )
    return kept, stats


def read_input(path) -> tuple[list, int]:
    """The documents of the input JSONL *path* and the number of lines
    read_jsonl skipped, which is printed to stderr when not 0; read_jsonl's
    JsonlReadError names the first repeated document id."""
    diagnostics: list = []
    docs = list(read_jsonl(path, diagnostics=diagnostics))
    if diagnostics:
        print(
            f"skipped {len(diagnostics)} malformed input lines in {path}",
            file=sys.stderr,
        )
    return docs, len(diagnostics)


def read_report(path) -> RunReport:
    """The run report at *path*, checked where it enters: ValueError naming
    the problem unless it is the object RunReport.to_dict writes (a string
    config hash, an int diagnostics count and the ``per_source_words_*``
    totals of its stages) and its stages conserve and chain
    (RunReport.check_conservation)."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
            report = RunReport(
                raw["config_hash"],
                [StageStats.from_dict(s) for s in raw["stages"]],
                raw["diagnostics"],
            )
            report.check_conservation()
        except AssertionError as e:
            raise ValueError(f"stages do not conserve or do not chain: {e}") from e
        except (AttributeError, LookupError, TypeError, ValueError) as e:
            raise ValueError(f"not a run report ({type(e).__name__}: {e})") from e
    if (
        report.to_dict() != raw
        or type(report.config_hash) is not str
        or type(report.diagnostics) is not int
    ):
        raise ValueError("not a run report: not the object RunReport.to_dict writes")
    return report


def run_pipeline(cfg: PipelineConfig, resume: bool = False) -> RunReport:
    """Execute the configured stages in order, rewriting the work-dir
    report after each.

    With resume=True, the stages the work-dir report records (read through
    read_report, and for the same config hash) are skipped and the pipeline
    continues from the last one's output. That file must hold no malformed line and no
    repeated id, and per source the documents and words the report records
    as that stage's output; otherwise StageFailure (or read_jsonl's
    JsonlReadError) names the file before any stage runs. preflight checks
    and loads what the stages left to run need before any document is read.
    """
    t0 = time.monotonic()
    work_dir = Path(cfg.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    report_path = work_dir / REPORT_NAME
    config_hash = cfg.config_hash()
    report = RunReport(config_hash)
    if resume and report_path.exists():
        try:
            report = read_report(report_path)
        except ValueError as e:
            raise StageFailure(f"corrupt report {report_path}: {e}") from e
        if report.config_hash != config_hash:
            raise StageFailure("report config hash does not match; refusing to resume")
        completed = [s.stage for s in report.stages]
        if completed != cfg.stages[: len(completed)]:
            raise StageFailure(f"corrupt report {report_path}: its stages {completed} "
                               "do not begin the configured stages")
    n_done = len(report.stages)
    loaded = preflight(cfg, cfg.stages[n_done:])
    if n_done:
        last = report.stages[-1]
        last_out = work_dir / f"{n_done - 1:02d}_{last.stage}.jsonl"
        skipped: list = []
        docs = list(read_jsonl(last_out, diagnostics=skipped))
        if skipped:
            raise StageFailure(f"{last_out} holds {len(skipped)} malformed lines; "
                               "refusing to resume")
        _, found, _ = StageStats.tally(last.stage, docs)
        for src in sorted(found.per_source.keys() | last.per_source.keys()):
            have, want = (s.per_source.get(src, SourceStats()) for s in (found, last))
            if (have.docs_out, have.words_out) != (want.docs_out, want.words_out):
                raise StageFailure(
                    f"{last_out} holds {have.docs_out} documents of {have.words_out} "
                    f"words from source {src!r}, the report records {want.docs_out} "
                    f"documents of {want.words_out} words; refusing to resume"
                )
    else:
        docs, report.diagnostics = read_input(cfg.input)

    # the previous stage's output when this call wrote it: its documents'
    # lines are copied from there instead of encoded again
    prev = None
    for idx in range(n_done, len(cfg.stages)):
        stage = cfg.stages[idx]
        out_path = work_dir / f"{idx:02d}_{stage}.jsonl"
        docs, stats = run_stage(stage, docs, cfg, loaded, out_path, prev)
        prev = out_path
        report.stages.append(stats)
        write_json(report.to_dict(), report_path)

    report.total_wall_time = time.monotonic() - t0
    return report

