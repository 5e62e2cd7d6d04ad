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
        initial = self.stages[0].per_source if self.stages else {}
        final = self.stages[-1].per_source if self.stages else {}
        return {
            "config_hash": self.config_hash,
            "diagnostics": self.diagnostics,
            "stages": [s.to_dict() for s in self.stages],
            "per_source_words_initial": {s: initial[s].words_in for s in sorted(initial)},
            "per_source_words_final": {s: final[s].words_out for s in sorted(final)},
        }


def report_table(report: dict) -> str:
    """Render per-source word counts, exactly, with a filtered total."""
    initial = report["per_source_words_initial"]
    final = report["per_source_words_final"]
    counts = [(src, initial[src], final.get(src, 0)) for src in sorted(initial)]
    counts.append(("Total after filtering and deduplication",
                   sum(initial.values()), sum(final.values())))
    rows = [("Source", "Initial words", "Final words")]
    rows += [(src, f"{a:,}", f"{b:,}") for src, a, b in counts]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, (src, a, b) in enumerate(rows):
        lines.append(f"{src:<{widths[0]}}  {a:>{widths[1]}}  {b:>{widths[2]}}")
        if i == 0 or i == len(rows) - 2:
            lines.append("-" * (sum(widths) + 4))
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The stage contract. There is one stage_<name>(docs, cfg, loaded) per
# config.KNOWN_STAGES name, looked up by name at call time by run_stage,
# which writes the stage's JSONL and .rejects for both `run` and the
# single-stage subcommands. *docs* is a list: the documents the previous
# stage kept, or those read_jsonl read, no id twice. A stage may change
# them and their order in place, not their number, and returns (verdicts,
# extra): one verdict per document as the list then stands (None keeps it,
# a reason string or a (reason, detail) pair rejects it; verdicts=None
# keeps every document), in an iterable read once (filter and token_count
# yield theirs lazily, so a document may change until its verdict is read),
# and its report dict or None. run_stage's one pass, StageStats.tally,
# counts documents and the words of their texts (filter's stripped ones)
# in, out and rejected per source and writes each as it arrives; the
# algorithm modules only decide, and never name a stage. No stage is given
# a work dir: pack alone writes side files, packed.bin and its
# packed.meta.jsonl, into cfg.work_dir through a writer that replaces them
# atomically. *loaded* is preflight's Loaded, read before any input:
# token_count and pack share its vocabulary and word-segmentation memo
# (pack reads the ids subword.token_ids kept at token_count), and lm_score
# scores with its LM; dedup_exact does not normalize texts again when its
# ``filtered`` is set.
# --------------------------------------------------------------------------


class Loaded(NamedTuple):
    """The files the stages about to run read, loaded (None if none reads
    it), and whether filter ran earlier in the run, so every text is
    normalized already (run_pipeline sets it per stage)."""

    vocab: Optional[subword.SubwordVocab] = None
    model: Optional[ngram_lm.KneserNeyModel] = None
    filtered: bool = False


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
    def stripped(doc):
        doc.set_normalized_text(quality.strip_boilerplate(normalize_text(doc.text)))
        return doc

    return quality.heuristic_verdicts(map(stripped, docs), cfg.heuristics), None


def stage_dedup_exact(docs, cfg: PipelineConfig, loaded):
    # filter's texts are whole lines of a normalized text, which
    # normalize_text leaves as they are
    docs.sort(key=lambda d: (d.source, d.id))
    return exact_dedup.dedup_exact(docs, normalized=loaded.filtered), None


def stage_dedup_near(docs, cfg: PipelineConfig, loaded):
    verdicts, n_clusters = near_dedup.dedup_near(docs, cfg.near_dedup)
    return verdicts, {"clusters": n_clusters}


def stage_lm_score(docs, cfg: PipelineConfig, loaded):
    verdicts, cutoff = ngram_lm.filter_by_perplexity(docs, loaded.model, cfg.lm.policy)
    return verdicts, {"cutoff": repr(cutoff)}


def stage_token_count(docs, cfg: PipelineConfig, loaded):
    def counted():
        for doc in docs:
            doc.token_count = len(subword.token_ids(doc, loaded.vocab))
            yield None

    return counted(), None


def stage_sample(docs, cfg: PipelineConfig, loaded):
    return sampler.sample_to_quota(
        docs,
        cfg.quotas,
        seed=cfg.seed,
        mode=cfg.sample.mode,
        overshoot=cfg.sample.overshoot,
    )


def stage_pack(docs, cfg: PipelineConfig, loaded):
    return None, pack_docs(docs, cfg, Path(cfg.work_dir) / "packed.bin", loaded.vocab)


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
    """Run stage *name* on the list *docs* in one pass, StageStats.tally,
    writing each kept document to *out_path* (copying lines from *prev*) and
    each reject's record to ``.rejects`` as its verdict arrives; prints counts
    and time to stderr and returns (kept, stats). An error of the stage, a
    new length of *docs* or another number of verdicts is a StageFailure
    naming it, and writes neither file: stages chain."""
    t0 = time.monotonic()
    stats = StageStats(name)
    kept = []

    def counted():
        n = len(docs)
        try:
            verdicts, extra = globals()[f"stage_{name}"](docs, cfg, loaded)
            if len(docs) != n:
                raise ValueError(f"left {len(docs)} documents of {n}")
            stats.extra = dict(extra or {})
            yield from stats.tally(docs, verdicts)
        except Exception as e:
            raise StageFailure(f"stage {name} failed: {e}") from e

    def passed(reject):
        for doc, record in counted():
            if record is None:
                kept.append(doc)
                yield doc
            else:
                reject(record)

    with write_rejects(f"{out_path}.rejects") as reject:
        write_jsonl(passed(reject), out_path, prev)
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
    # the file the documents were read from: their lines are copied from
    # there, and then from each stage file, instead of encoded again
    if n_done:
        last = report.stages[-1]
        prev = work_dir / f"{n_done - 1:02d}_{last.stage}.jsonl"
        skipped: list = []
        docs = list(read_jsonl(prev, diagnostics=skipped))
        if skipped:
            raise StageFailure(f"{prev} holds {len(skipped)} malformed lines; "
                               "refusing to resume")
        found = StageStats(last.stage)
        for _ in found.tally(docs):
            pass
        for src in sorted(found.per_source.keys() | last.per_source.keys()):
            have, want = (s.per_source.get(src, SourceStats()) for s in (found, last))
            if (have.docs_out, have.words_out) != (want.docs_out, want.words_out):
                raise StageFailure(
                    f"{prev} holds {have.docs_out} documents of {have.words_out} "
                    f"words from source {src!r}, the report records {want.docs_out} "
                    f"documents of {want.words_out} words; refusing to resume"
                )
    else:
        prev = cfg.input
        docs, report.diagnostics = read_input(prev)

    for idx in range(n_done, len(cfg.stages)):
        stage = cfg.stages[idx]
        out_path = work_dir / f"{idx:02d}_{stage}.jsonl"
        loaded = loaded._replace(filtered="filter" in cfg.stages[:idx])
        docs, stats = run_stage(stage, docs, cfg, loaded, out_path, prev)
        prev = out_path
        report.stages.append(stats)
        write_json(report.to_dict(), report_path)

    report.total_wall_time = time.monotonic() - t0
    return report

