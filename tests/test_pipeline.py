import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from corpusprep import pipeline
from corpusprep.cli import EXIT_OK, main
from corpusprep.config import KNOWN_STAGES, PipelineConfig, load_config
from corpusprep.core import Document, StageStats, read_jsonl, write_jsonl
from corpusprep.pipeline import (
    RunReport,
    StageFailure,
    report_table,
    run_pipeline,
)

from pipeline_fixture import build_fixture_corpus, build_workspace, crash_after, workdir_bytes


@pytest.fixture(scope="module")
def ran_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    cfg = load_config(build_workspace(root, n_docs=600))
    report = run_pipeline(cfg)
    return root, cfg, report


class TestRun:
    def test_vocabulary_loaded_once_per_run(self, tmp_path, monkeypatch):
        from corpusprep import subword

        calls = []
        real = subword.load_vocab

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(subword, "load_vocab", counting)
        cfg = load_config(build_workspace(tmp_path, n_docs=60))
        assert {"token_count", "pack"} <= set(cfg.stages)
        run_pipeline(cfg)
        assert len(calls) == 1
        run_pipeline(cfg)
        assert len(calls) == 2

    def test_each_document_tokenized_once_per_run(self, tmp_path, monkeypatch):
        from corpusprep import subword

        texts = []
        real = subword.tokenize

        def counting(text, vocab, **kwargs):
            texts.append(text)
            return real(text, vocab, **kwargs)

        monkeypatch.setattr(subword, "tokenize", counting)
        cfg = load_config(build_workspace(tmp_path, n_docs=120))
        report = run_pipeline(cfg)
        stats = {s.stage: s for s in report.stages}
        assert stats["pack"].docs_in > 0
        assert len(texts) == stats["token_count"].docs_in

    def test_word_counts_come_from_the_tokenizer_split(self, tmp_path, monkeypatch):
        # read_jsonl counts no words, and token_count's split fills the
        # counts every stage reports
        from corpusprep import core

        fallbacks = []
        real = core.word_count

        def counting(text):
            fallbacks.append(text)
            return real(text)

        cfg = load_config(
            build_workspace(tmp_path, n_docs=120, stages=["token_count", "sample", "pack"])
        )
        monkeypatch.setattr(core, "word_count", counting)
        run_pipeline(cfg)
        assert fallbacks == []
        work = Path(cfg.work_dir)
        report = json.loads((work / "report.json").read_text("utf-8"))
        docs_in = list(read_jsonl(cfg.input))
        for i, stage in enumerate(report["stages"]):
            docs_out = list(read_jsonl(work / f"{i:02d}_{stage['stage']}.jsonl"))
            for side, docs in (("words_in", docs_in), ("words_out", docs_out)):
                words = Counter()
                for doc in docs:
                    words[doc.source] += len(doc.text.split())
                assert stage[side] == sum(words.values()), (stage["stage"], side)
                assert {src: s[side] for src, s in stage["per_source"].items()} == {
                    src: words[src] for src in stage["per_source"]
                }, (stage["stage"], side)
            docs_in = docs_out

    def test_each_document_line_encoded_once_per_run(self, tmp_path, monkeypatch):
        """On a canonical input, token_count -> sample -> pack encodes no
        text literal, and each document's tail twice: read_jsonl's check
        encodes it, and token_count's write, which adds the count."""
        calls = {"json_prefix": [], "json_tail": []}

        def spy(name):
            real = getattr(Document, name)

            def counting(doc):
                calls[name].append(doc.id)
                return real(doc)

            monkeypatch.setattr(Document, name, counting)

        cfg = load_config(
            build_workspace(tmp_path, n_docs=120, stages=["token_count", "sample", "pack"])
        )
        spy("json_prefix")
        spy("json_tail")
        report = run_pipeline(cfg)
        stats = {s.stage: s for s in report.stages}
        assert stats["pack"].docs_in > 0
        assert calls["json_prefix"] == []
        assert Counter(calls["json_tail"]) == {d.id: 2 for d in read_jsonl(cfg.input)}

    @pytest.mark.parametrize("filter_first", [True, False])
    def test_dedup_exact_normalizes_unless_filter_ran(self, tmp_path, monkeypatch, filter_first):
        """dedup_exact normalizes no text when filter precedes it in the
        run, also on resume, and every text otherwise and in the
        dedup-exact subcommand."""
        from corpusprep import exact_dedup

        normalized = []
        real = exact_dedup.normalize_text

        def counting(text):
            normalized.append(text)
            return real(text)

        stages = ["filter", "dedup_exact", "dedup_near"] if filter_first else ["dedup_exact"]
        config = build_workspace(tmp_path, n_docs=60, stages=stages)
        cfg = load_config(config)
        monkeypatch.setattr(exact_dedup, "normalize_text", counting)
        report = run_pipeline(cfg)
        docs_in = {s.stage: s.docs_in for s in report.stages}["dedup_exact"]
        assert len(normalized) == (0 if filter_first else docs_in)
        if filter_first:
            with monkeypatch.context() as m, pytest.raises(StageFailure):
                crash_after(m, cfg, "filter")
                run_pipeline(cfg)
            run_pipeline(cfg, resume=True)
            assert normalized == []
        out = tmp_path / "dedup.jsonl"
        rc = main(["dedup-exact", "--config", str(config), "--input", cfg.input,
                   "--output", str(out)])
        assert rc == EXIT_OK
        assert len(normalized) == (0 if filter_first else docs_in) + len(
            list(read_jsonl(cfg.input)))

    def test_filter_keeps_documents_it_does_not_change(self, tmp_path, monkeypatch):
        """filter passes on a document whose text is its own filtered text
        as it is, so its line is copied from the input; only the texts it
        changes are encoded."""
        cfg = load_config(build_workspace(tmp_path, n_docs=60, stages=["filter"]))
        docs = list(read_jsonl(cfg.input))
        spaced = Document(id="spaced", source="web", text=docs[0].text.replace(" ", "  "))
        write_jsonl([*docs, spaced], cfg.input)
        encoded = []
        real = Document.json_prefix

        def counting(doc):
            encoded.append(doc.id)
            return real(doc)

        monkeypatch.setattr(Document, "json_prefix", counting)
        run_pipeline(cfg)
        texts = {d.id: d.text for d in [*docs, spaced]}
        out = list(read_jsonl(Path(cfg.work_dir) / "00_filter.jsonl"))
        assert "spaced" in {d.id for d in out}
        assert encoded == [d.id for d in out if d.text != texts[d.id]]
        assert encoded[-1:] == ["spaced"]

    def test_pack_reads_the_ids_of_the_filtered_texts(self, tmp_path, lang):
        """filter changes texts in place after token_count has kept their
        ids; pack tokenizes the new texts, so packed.bin holds the ids of
        the texts written, never those cached before filter changed them."""
        from corpusprep import packing, subword

        config = build_workspace(tmp_path, n_docs=10, stages=["token_count", "filter", "pack"])
        raw = yaml.safe_load(config.read_text("utf-8"))
        raw["heuristics"] = {"min_words": 5}
        raw["pack"]["split"] = False
        config.write_text(yaml.safe_dump(raw), encoding="utf-8")
        cfg = load_config(config)
        rng = np.random.default_rng(3)
        # a repeated short line is boilerplate, which filter strips
        texts = [f"{lang.sentence(rng, 8)}\nsākums  kontakti\n{lang.sentence(rng, 8)}\n"
                 "sākums kontakti" for _ in range(6)]
        write_jsonl([Document(id=f"d{i}", source="web", text=t) for i, t in enumerate(texts)],
                    cfg.input)
        report = run_pipeline(cfg)
        assert [s.docs_out for s in report.stages] == [6, 6, 6]

        work = Path(cfg.work_dir)
        vocab = subword.load_vocab(cfg.vocab.path)
        filtered = [d.text for d in read_jsonl(work / "02_pack.jsonl")]
        assert all(a != b for a, b in zip(texts, filtered))
        ids = [subword.tokenize(t, vocab) for t in filtered]
        assert ids != [subword.tokenize(t, vocab) for t in texts]
        packed = []
        for window in packing.read_packed(work / "packed.bin"):
            tokens = window["tokens"].copy()
            for pos, _, orig in window["masks"]:
                tokens[pos] = orig
            packed += [t for t in tokens.tolist() if t != vocab.pad_id]
        assert packed == [t for doc_ids in ids for t in (vocab.bos_id, *doc_ids, vocab.eos_id)]
        # filter drops a changed text's token count with its ids
        for name in ("01_filter.jsonl", "02_pack.jsonl"):
            for doc in read_jsonl(work / name):
                assert doc.token_count in (None, len(subword.tokenize(doc.text, vocab))), name

    def test_sample_after_filter_refuses_a_document_filter_changed(self, tmp_path, lang,
                                                                   capsys):
        """After [token_count, filter], a text filter changed has no count,
        and sample names it instead of budgeting with its old text's."""
        config = build_workspace(tmp_path, n_docs=10,
                                 stages=["token_count", "filter", "sample"])
        cfg = load_config(config)
        rng = np.random.default_rng(3)
        write_jsonl([Document(id="kept", source="web", text=lang.document(rng, 4, 12)),
                     Document(id="stripped", source="web",
                              text=f"{lang.document(rng, 4, 12)}\nsākums\nsākums")],
                    cfg.input)
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if not line.startswith("[")] == [
            "stage failure: stage sample failed: document 'stripped' has no token_count"]

    def test_all_stages_produce_outputs(self, ran_workspace):
        root, cfg, report = ran_workspace
        work = root / "work"
        for i, stage in enumerate(cfg.stages):
            assert (work / f"{i:02d}_{stage}.jsonl").exists(), stage
            assert (work / f"{i:02d}_{stage}.jsonl.rejects").exists(), stage
        assert (work / "packed.bin").exists()
        assert (work / "packed.meta.jsonl").exists()
        assert (work / "report.json").exists()
        # the report is the one run record, and the clusters are the
        # near_dup:kept=<id> lines of dedup_near's sidecar
        assert not (work / "manifest.json").exists()
        assert not (work / "clusters.jsonl").exists()

    def test_stage_chaining_and_conservation(self, ran_workspace):
        _, cfg, report = ran_workspace
        assert [s.stage for s in report.stages] == cfg.stages
        report.check_conservation()

    def test_planted_duplicates_removed(self, ran_workspace):
        root, cfg, report = ran_workspace
        by_stage = {s.stage: s for s in report.stages}
        assert any(k.startswith("exact_") for k in by_stage["dedup_exact"].rejected)
        assert by_stage["dedup_near"].rejected.get("near_dup", 0) > 0
        assert by_stage["filter"].rejected.get("too_short", 0) > 0

    def test_rejects_schema(self, ran_workspace):
        root, cfg, _ = ran_workspace
        path = root / "work" / "00_filter.jsonl.rejects"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"id", "stage", "reason"}
            assert rec["stage"] == "filter"

    def test_rejects_sidecar_matches_stats(self, ran_workspace):
        """Each stage's sidecar holds one line per rejected document, and its
        reasons (any ``:detail`` cut off) count up to the stage's stats."""
        root, cfg, report = ran_workspace
        for i, stats in enumerate(report.stages):
            path = root / "work" / f"{i:02d}_{stats.stage}.jsonl.rejects"
            records = [json.loads(l) for l in path.read_text("utf-8").splitlines()]
            assert len(records) == stats.rejected_docs, stats.stage
            assert {r["stage"] for r in records} <= {stats.stage}
            reasons = Counter(r["reason"].split(":", 1)[0] for r in records)
            assert reasons == Counter(stats.rejected), stats.stage
        near = (root / "work" / "02_dedup_near.jsonl.rejects").read_text("utf-8")
        assert near and all(
            json.loads(l)["reason"].startswith("near_dup:kept=")
            for l in near.splitlines()
        )

    def test_report_round_trips_as_json(self, ran_workspace):
        root, _, report = ran_workspace
        on_disk = json.loads((root / "work" / "report.json").read_text("utf-8"))
        assert on_disk == json.loads(
            json.dumps(report.to_dict(), sort_keys=True)
        )
        assert "wall_time" not in json.dumps(on_disk)

    def test_run_with_every_document_filtered_out_exits_0(self, tmp_path):
        """No document reaches lm_score, so the percentile policy has no
        cutoff: the run finishes with cutoff nan and every count conserved."""
        config = build_workspace(tmp_path, n_docs=50)
        cfg = yaml.safe_load(config.read_text("utf-8"))
        cfg["heuristics"]["min_words"] = 10**6
        config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        report = json.loads((tmp_path / "work" / "report.json").read_text("utf-8"))
        filtered, *rest = report["stages"]
        assert filtered["docs_in"] == 50 and filtered["docs_out"] == 0
        assert filtered["rejected"] == {"too_short": 50}
        assert all(s["docs_in"] == s["docs_out"] == 0 for s in rest)
        assert rest[2]["stage"] == "lm_score" and rest[2]["extra"] == {"cutoff": "nan"}
        run = RunReport(report["config_hash"],
                        [StageStats.from_dict(s) for s in report["stages"]])
        run.check_conservation()


class TestDeterminismAndResume:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = load_config(build_workspace(tmp_path / "a", n_docs=300))
        cfg_b = load_config(build_workspace(tmp_path / "b", n_docs=300))
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        a = workdir_bytes(tmp_path / "a" / "work")
        b = workdir_bytes(tmp_path / "b" / "work")
        assert a.keys() == b.keys()
        # reports embed the config hash, which covers absolute
        # paths; compare those after normalizing the hash away
        ha, hb = cfg_a.config_hash(), cfg_b.config_hash()
        for name in a:
            assert a[name].replace(ha.encode(), b"") == b[name].replace(
                hb.encode(), b""
            ), name

    # after token_count or sample, pack runs on documents read back from
    # JSONL, which carry no token ids and are tokenized again
    @pytest.mark.parametrize("fail_after", [
        "filter", "dedup_exact", "dedup_near", "lm_score", "token_count", "sample"])
    def test_resume_after_failure_matches_clean_run(
        self, tmp_path, monkeypatch, fail_after
    ):
        cfg_a = load_config(build_workspace(tmp_path / "a", n_docs=300))
        cfg_b = load_config(build_workspace(tmp_path / "b", n_docs=300))
        run_pipeline(cfg_a)
        with monkeypatch.context() as m, pytest.raises(StageFailure, match="injected"):
            crash_after(m, cfg_b, fail_after)
            run_pipeline(cfg_b)
        report = tmp_path / "b" / "work" / "report.json"
        completed = cfg_b.stages[: cfg_b.stages.index(fail_after) + 1]
        recorded = json.loads(report.read_text("utf-8"))["stages"]
        assert [s["stage"] for s in recorded] == completed
        assert main(["stats", "--report", str(report)]) == EXIT_OK
        run_pipeline(cfg_b, resume=True)
        a = workdir_bytes(tmp_path / "a" / "work")
        b = workdir_bytes(tmp_path / "b" / "work")
        assert a.keys() == b.keys()
        ha, hb = cfg_a.config_hash(), cfg_b.config_hash()
        for name in a:
            assert a[name].replace(ha.encode(), b"") == b[name].replace(
                hb.encode(), b""
            ), name

    def test_resume_refuses_changed_config(self, tmp_path, monkeypatch):
        cfg = load_config(build_workspace(tmp_path, n_docs=100))
        with monkeypatch.context() as m, pytest.raises(StageFailure):
            crash_after(m, cfg, "filter")
            run_pipeline(cfg)
        cfg.seed += 1
        with pytest.raises(StageFailure, match="hash"):
            run_pipeline(cfg, resume=True)

    def test_truncated_manifest_is_stage_failure(self, tmp_path, monkeypatch):
        cfg = load_config(build_workspace(tmp_path, n_docs=100))
        with monkeypatch.context() as m, pytest.raises(StageFailure):
            crash_after(m, cfg, "filter")
            run_pipeline(cfg)
        report = tmp_path / "work" / "report.json"
        report.write_bytes(report.read_bytes()[:40])
        with pytest.raises(StageFailure, match="corrupt report"):
            run_pipeline(cfg, resume=True)

    def test_malformed_input_lines_counted(self, tmp_path):
        cfg = load_config(
            build_workspace(tmp_path, n_docs=50, stages=["filter"])
        )
        with open(cfg.input, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
            fh.write('{"id": "x"}\n')  # missing required fields
            fh.write('"an id and text"\n')  # a string, not an object
            fh.write('{"id": null, "text": null}\n')  # not strings
            # meta not an object of strings, or token_count not [0-9]+
            fh.write('{"id": "m1", "text": "t", "meta": [["k", "v"]]}\n')
            fh.write('{"id": "m2", "text": "t", "meta": {"k": 1}}\n')
            fh.write('{"id": "m3", "text": "t", "meta": {"token_count": 3.9}}\n')
            fh.write('{"id": "m4", "text": "t", "meta": {"token_count": "-4"}}\n')
            fh.write('{"id": "s1", "text": "lone \\ud800"}\n')  # unwritable
        report = run_pipeline(cfg)
        assert report.diagnostics == 9


# how one input line is spelled: up to two of these, each JSON a fresh
# encode does not write
_SPELLING = st.one_of(
    st.just(frozenset()),
    st.sets(st.sampled_from([
        "ascii",  # ensure_ascii: \u escapes, surrogate pairs
        "slash",  # "/" as "\/"
        "upper_hex",  # upper-case hex digits in \u escapes
        "newline_u",  # a newline as "\u000a"
        "compact",  # "," and ":" separators
        "reorder",  # keys, and meta keys, reversed
        "extra",  # a key the schema does not read
        "crlf",
        # a key given twice, the first time with a decoy value
        *[f"repeat:{key}" for key in ("id", "source", "url", "text", "meta")],
    ]), min_size=1, max_size=2),
)
_DECOY = {"id": "decoy", "source": "decoy", "url": "http://decoy.lv",
          "text": "decoy", "meta": {"a": "b"}}
# an unescaped backslash run, then an escape: the escape itself
_ESCAPE = r'(?<!\\)((?:\\\\)*)\\'


def _spelled(value, how) -> str:
    """*value* as JSON, spelled as *how* says."""
    if isinstance(value, dict):
        keys = sorted(value, reverse="reorder" in how)
        sep = ":" if "compact" in how else ": "
        return "{" + ", ".join(f"{_spelled(k, how)}{sep}{_spelled(value[k], how)}"
                               for k in keys) + "}"
    out = json.dumps(value, ensure_ascii="ascii" in how)
    if "slash" in how:
        out = out.replace("/", "\\/")
    if "upper_hex" in how:
        out = re.sub(_ESCAPE + "u([0-9a-f]{4})",
                     lambda m: m[1] + "\\u" + m[2].upper(), out)
    if "newline_u" in how:
        out = re.sub(_ESCAPE + "n", lambda m: m[1] + "\\u000a", out)
    return out


def _spelled_line(doc, how) -> str:
    meta = dict(doc.meta)
    if doc.token_count is not None:
        meta["token_count"] = str(doc.token_count)
    pairs = [("id", doc.id), ("source", doc.source), ("url", doc.url),
             ("text", doc.text), ("meta", meta)]
    if "reorder" in how:
        pairs.reverse()
    for key in _DECOY:
        if f"repeat:{key}" in how:
            pairs.insert(0, (key, _DECOY[key]))
    if "extra" in how:
        pairs.insert(2, ("extra", [1, None]))
    sep = ":" if "compact" in how else ": "
    body = ", ".join(f"{_spelled(k, how)}{sep}{_spelled(v, how)}" for k, v in pairs)
    return "{" + body + "}" + ("\r\n" if "crlf" in how else "\n")


@pytest.fixture(scope="module")
def spelling_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("spelling")
    return root, build_workspace(root, n_docs=40)


class TestInputSpelling:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_work_dir_does_not_depend_on_the_input_spelling(self, spelling_workspace, data):
        r"""An input whose lines are spelled in any JSON a fresh encode does
        not write (\u escapes, "\/", upper-case hex, surrogate pairs,
        escaped control characters, extra, repeated or reordered keys, CRLF,
        no final newline) runs to the work-dir files of its canonical
        spelling."""
        root, config = spelling_workspace
        docs = build_fixture_corpus(n_docs=40)
        for doc in docs:
            doc.text += " a/b" + data.draw(st.text(st.sampled_from(
                [" ", "/", "é", "😀", "\t", "\x01", "\\", '"', " ", "\r"]), max_size=4))
        stages = data.draw(st.sampled_from([list(KNOWN_STAGES), ["token_count", "sample", "pack"]]))
        lines = [_spelled_line(doc, data.draw(_SPELLING)) for doc in docs]
        if data.draw(st.booleans()):
            lines[-1] = lines[-1].rstrip("\r\n")
        files = {}
        for name in ("canonical", "spelled"):
            cfg = load_config(config)
            cfg.stages = stages
            cfg.input = str(root / f"{name}.jsonl")
            cfg.work_dir = str(root / f"work_{name}")
            if name == "canonical":
                write_jsonl(docs, cfg.input)
            else:
                Path(cfg.input).write_bytes("".join(lines).encode("utf-8"))
            run_pipeline(cfg)
            files[name] = {
                k: v.replace(cfg.config_hash().encode(), b"")
                for k, v in workdir_bytes(Path(cfg.work_dir)).items()
            }
        assert files["spelled"] == files["canonical"]


class TestAtomicWrites:
    def test_every_work_dir_file_arrives_by_replace(self, tmp_path, monkeypatch):
        """Every work-dir file is synced, then renamed into place, then its
        directory is synced, one file after the other; the report is
        replaced last in each stage, right after the stage's sidecar."""
        events = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def replace(src, dst):
            events.append(("replace", os.stat(src).st_ino, Path(dst)))
            real_replace(src, dst)

        cfg = load_config(build_workspace(tmp_path, n_docs=120))
        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        run_pipeline(cfg)
        work = tmp_path / "work"
        replaced = []
        assert len(events) % 3 == 0
        for i in range(0, len(events), 3):
            synced, (op, ino, dst), dir_synced = events[i:i + 3]
            assert op == "replace" and dst.parent == work
            assert synced == ("fsync", ino)
            assert dir_synced == ("fsync", work.stat().st_ino)
            replaced.append(dst.name)
        on_disk = sorted(p.name for p in work.iterdir())
        assert "packed.bin" in on_disk
        assert sorted(set(replaced)) == on_disk
        ends = [i for i, name in enumerate(replaced) if name == "report.json"]
        assert len(ends) == len(cfg.stages) and ends[-1] == len(replaced) - 1
        for idx, (stage, start, end) in enumerate(zip(cfg.stages, [-1, *ends], ends)):
            out = f"{idx:02d}_{stage}.jsonl"
            side = {"packed.bin", "packed.meta.jsonl"} if stage == "pack" else set()
            assert set(replaced[start + 1:end]) == {out, f"{out}.rejects", *side}
            assert replaced[end - 1] == f"{out}.rejects"

    def test_failed_pack_leaves_earlier_files(self, tmp_path, monkeypatch):
        from corpusprep import packing

        cfg = load_config(
            build_workspace(tmp_path, n_docs=60, stages=["token_count", "pack"])
        )
        work = tmp_path / "work"
        real = packing.apply_masking
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("mask failure at window 3")
            return real(*args, **kwargs)

        def run_failing():
            calls.clear()
            with monkeypatch.context() as m:
                # one window per apply_masking call
                m.setattr(pipeline, "MASK_CHUNK", 1)
                m.setattr(packing, "apply_masking", failing)
                with pytest.raises(StageFailure, match="window 3"):
                    run_pipeline(cfg)

        run_failing()
        names = {p.name for p in work.iterdir()}
        assert not names & {"packed.bin", "packed.meta.jsonl"}
        assert not list(work.glob("*.tmp"))

        run_pipeline(cfg)
        before = {n: (work / n).read_bytes() for n in ("packed.bin", "packed.meta.jsonl")}
        run_failing()
        assert {n: (work / n).read_bytes() for n in before} == before
        assert not list(work.glob("*.tmp"))


class TestReportTable:
    def test_two_source_rendering(self):
        report = {
            "per_source_words_initial": {"news": 500_000, "web": 1_234_567},
            "per_source_words_final": {"news": 400_000, "web": 800_000},
        }
        lines = report_table(report).splitlines()
        assert lines[0].split() == ["Source", "Initial", "words", "Final", "words"]
        assert lines[2].split() == ["news", "500,000", "400,000"]
        assert lines[3].split() == ["web", "1,234,567", "800,000"]
        assert lines[-1].startswith("Total after filtering and deduplication")
        assert lines[-1].split()[-2:] == ["1,734,567", "1,200,000"]

    def test_small_counts_are_exact(self):
        # a few hundred documents hold thousands of words, not 0.0 million
        table = report_table(
            {
                "per_source_words_initial": {"news": 5_639, "web": 7},
                "per_source_words_final": {"news": 2_244, "web": 0},
            }
        )
        assert table.splitlines()[2].split() == ["news", "5,639", "2,244"]
        assert table.splitlines()[3].split() == ["web", "7", "0"]

    def test_missing_final_source_renders_zero(self):
        table = report_table(
            {
                "per_source_words_initial": {"web": 2_000_000},
                "per_source_words_final": {},
            }
        )
        assert table.splitlines()[2].split() == ["web", "2,000,000", "0"]


class TestConservationCheck:
    def test_detects_tampered_counts(self, tmp_path):
        cfg = load_config(build_workspace(tmp_path, n_docs=100, stages=["filter"]))
        report = run_pipeline(cfg)
        report.check_conservation()
        report.stages[0].words_out += 1
        with pytest.raises(AssertionError):
            report.check_conservation()

    def test_checks_hold_under_python_O(self):
        """Reports read back are checked with check_conservation, so it
        raises with asserts compiled out too."""
        code = (
            "from corpusprep.core import SourceStats, StageStats\n"
            "from corpusprep.pipeline import RunReport\n"
            "kept = StageStats('b', docs_in=1, docs_out=1,\n"
            "                  per_source={'s': SourceStats(docs_in=1, docs_out=1)})\n"
            "for stages in ([StageStats('a', docs_in=1)], [StageStats('a'), kept]):\n"
            "    try:\n"
            "        RunReport('h', stages).check_conservation()\n"
            "    except AssertionError as e:\n"
            "        print(e)\n"
        )
        src = Path(__file__).parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=60,
        ).stdout
        assert out.splitlines() == ["('a', 'docs_in', 'rejected')", "('a', 'b')"]


class TestRunStage:
    @pytest.mark.parametrize("lazy", [False, True], ids=["list", "lazy"])
    @pytest.mark.parametrize("n_verdicts", [2, 4, 6])
    def test_wrong_number_of_verdicts_fails_the_stage(
        self, tmp_path, monkeypatch, lazy, n_verdicts
    ):
        """Verdicts of another number than the documents, in a list or read
        lazily, are a stage failure that names both numbers and writes
        neither file."""
        docs = [Document(id=str(i), source="s", text="a") for i in range(3)]

        def mismatched(docs, cfg, loaded):
            verdicts = (None for _ in range(n_verdicts))
            return (verdicts if lazy else list(verdicts)), None

        monkeypatch.setattr(pipeline, "stage_token_count", mismatched)
        with pytest.raises(StageFailure, match=(
            f"^stage token_count failed: {n_verdicts} verdicts for 3 documents$"
        )):
            pipeline.run_stage("token_count", docs, PipelineConfig(), pipeline.Loaded(),
                               tmp_path / "out.jsonl")
        assert list(tmp_path.iterdir()) == []

    def test_each_verdict_is_read_before_its_document_is_counted(self, tmp_path, monkeypatch):
        """The pass reads verdicts one at a time, each before the words of
        its document, which the verdict's producer may still change, are
        counted, and hands each document on before the next verdict."""
        docs = [Document(id=str(i), source="s", text="a") for i in range(3)]
        events = []

        def stage(docs, cfg, loaded):
            def verdicts():
                for doc in docs:
                    doc.text = doc.text + " b"
                    events.append(("verdict", doc.id))
                    yield None

            return verdicts(), None

        original = pipeline.write_jsonl

        def recording_write(docs, path, prev=None):
            def passing():
                for doc in docs:
                    events.append(("passed", doc.id))
                    yield doc

            return original(passing(), path, prev)

        monkeypatch.setattr(pipeline, "stage_token_count", stage)
        monkeypatch.setattr(pipeline, "write_jsonl", recording_write)
        kept, stats = pipeline.run_stage("token_count", docs, PipelineConfig(),
                                         pipeline.Loaded(), tmp_path / "out.jsonl")
        assert events == [(e, str(i)) for i in range(3) for e in ("verdict", "passed")]
        assert kept == docs
        assert (stats.words_in, stats.words_out) == (6, 6)

    def test_rejects_writer_error_is_not_a_stage_failure(self, tmp_path, monkeypatch):
        """An OSError of the .rejects writer mid-pass reaches the caller as
        it is, to exit as an I/O error, and leaves neither file."""
        docs = [Document(id=str(i), source="s", text="a") for i in range(3)]
        original = pipeline.write_rejects

        def full(record):
            raise OSError("disk full")

        @contextmanager
        def failing_rejects(path):
            with original(path):
                yield full

        monkeypatch.setattr(pipeline, "stage_token_count",
                            lambda docs, cfg, loaded: ([None, "short", None], None))
        monkeypatch.setattr(pipeline, "write_rejects", failing_rejects)
        with pytest.raises(OSError, match="^disk full$"):
            pipeline.run_stage("token_count", docs, PipelineConfig(), pipeline.Loaded(),
                               tmp_path / "out.jsonl")
        assert list(tmp_path.iterdir()) == []


class TestStageProtocol:
    def test_only_pipeline_counts_and_names_stages(self):
        """StageStats is named only where stages are run and reported
        (core defines it, __init__ re-exports it), and no module but config,
        which lists the stage names, and those spells a stage name."""
        src = Path(__file__).parent.parent / "src" / "corpusprep"
        for path in sorted(src.glob("*.py")):
            nodes = list(ast.walk(ast.parse(path.read_text("utf-8"))))
            names = {getattr(n, "id", None) for n in nodes if isinstance(n, ast.Name)}
            names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            names |= {n.name for n in nodes if isinstance(n, ast.alias)}
            if path.stem not in ("core", "pipeline", "cli", "__init__"):
                assert "StageStats" not in names, path.name
            # core's one match is the token_count meta key
            if path.stem not in ("config", "core", "pipeline", "cli"):
                strings = {n.value for n in nodes if isinstance(n, ast.Constant)}
                assert not strings & set(KNOWN_STAGES), path.name


class TestSourceTree:
    def test_no_process_global_cache(self):
        """No module in src/corpusprep memoizes with functools.lru_cache or
        functools.cache, so every memo belongs to a run (core.WordMemo)."""
        src = Path(__file__).parent.parent / "src" / "corpusprep"
        for path in sorted(src.glob("*.py")):
            for n in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(n, ast.ImportFrom) and n.module == "functools":
                    names = {a.name for a in n.names}
                elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                      and n.value.id == "functools"):
                    names = {n.attr}
                else:
                    continue
                assert not names & {"lru_cache", "cache"}, (path.name, n.lineno)

    def test_packing_draws_without_numpy_random(self):
        """packing.py never names np.random: its draws are core's
        counter-based ones, which no numpy version changes."""
        path = Path(__file__).parent.parent / "src" / "corpusprep" / "packing.py"
        for n in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(n, ast.Attribute) and n.attr == "random":
                assert not (isinstance(n.value, ast.Name) and n.value.id in {"np", "numpy"}), n.lineno
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in n.names] + [getattr(n, "module", None) or ""]
                assert not any(m.startswith("numpy.random") for m in modules), n.lineno

    def test_every_definition_is_used(self):
        """Every function, class and method that src/corpusprep defines is
        used by the package or the benchmark: its name appears in
        src/corpusprep or perfbench as a name, an attribute, an imported
        name or a string. Exempt are dunders and the stage_<name>
        functions, which run_stage looks up by name."""
        root = Path(__file__).parent.parent
        paths = sorted((root / "src" / "corpusprep").glob("*.py"))
        paths += sorted((root / "perfbench").glob("*.py"))
        defined, used = set(), set()
        for path in paths:
            for n in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if path.parent.name == "corpusprep":
                        defined.add(n.name)
                elif isinstance(n, ast.Name):
                    used.add(n.id)
                elif isinstance(n, ast.Attribute):
                    used.add(n.attr)
                elif isinstance(n, ast.alias):
                    used.add(n.name)
                elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                    used.add(n.value)
        exempt = {f"stage_{name}" for name in KNOWN_STAGES}
        unused = {
            name for name in defined - used - exempt
            if not (name.startswith("__") and name.endswith("__"))
        }
        assert not unused, sorted(unused)

    def test_every_traced_span_wraps_a_name_that_exists(self):
        """perfbench's spans.install wraps each layer by attribute name and
        skips a missing one silently, so its metrics would read 0. Run it
        in a fresh process (it patches the modules it wraps), writing no
        bytecode under perfbench/, and list every name it did not find.
        LshIndex.candidate_pairs and ngram_lm.perplexity are known stale."""
        root = Path(__file__).parent.parent
        code = f"""
import json, sys
sys.path[:0] = [{str(root / "src")!r}, {str(root / "perfbench")!r}]
import spans
missing = []
def recording(wrap):
    def wrapped(self, owner, attr, *args, **kwargs):
        if getattr(owner, attr, None) is None:
            missing.append(owner.__name__.rsplit(".", 1)[-1] + "." + attr)
        return wrap(self, owner, attr, *args, **kwargs)
    return wrapped
spans.Tracer.wrap = recording(spans.Tracer.wrap)
spans.Tracer.wrap_generator = recording(spans.Tracer.wrap_generator)
spans.install(spans.Tracer())
print(json.dumps(missing))
"""
        proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        missing = set(json.loads(proc.stdout))
        assert missing <= {"LshIndex.candidate_pairs", "ngram_lm.perplexity"}, missing
