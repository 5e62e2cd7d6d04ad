import json
import os
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml

from corpusprep import ngram_lm, pipeline, quality, subword
from corpusprep.cli import EXIT_OK, EXIT_STAGE, EXIT_VALIDATION, main
from corpusprep.config import KNOWN_STAGES, load_config
from corpusprep.core import read_jsonl

from pipeline_fixture import build_workspace, crash_after, workdir_bytes


@pytest.fixture()
def workspace(tmp_path):
    return build_workspace(tmp_path, n_docs=200)


def rewrite_model(src, dst, mutate):
    """Write the arrays of the model file *src*, changed by *mutate*, to *dst*."""
    with np.load(src) as npz:
        arrays = {name: npz[name] for name in npz.files}
    mutate(arrays)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


def two_word_grams(arrays):
    arrays["grams"] = arrays["grams"][:, :2]  # 2 words in an order-5 model


def drop_mask_token(workspace):
    """Remove <mask> from the workspace's vocabulary, which load_vocab refuses."""
    vocab = Path(yaml.safe_load(workspace.read_text("utf-8"))["vocab"]["path"])
    lines = vocab.read_text("utf-8").splitlines()
    vocab.write_text("\n".join(t for t in lines if t != "<mask>") + "\n", encoding="utf-8")


def append_invalid_utf8_piece(workspace) -> str:
    """Append the line ``\\xff`` to the workspace's vocabulary; returns the
    error load_vocab names it by."""
    vocab = Path(yaml.safe_load(workspace.read_text("utf-8"))["vocab"]["path"])
    n_lines = len(vocab.read_bytes().splitlines())
    with open(vocab, "ab") as fh:
        fh.write(b"\xff\n")
    return f"vocabulary error: {vocab}:{n_lines + 1}: invalid UTF-8: "


class TestValidateCommand:
    def test_ok(self, workspace, capsys):
        assert main(["validate", "--config", str(workspace)]) == EXIT_OK
        assert "config ok" in capsys.readouterr().out

    @pytest.mark.parametrize("stages, threshold, line", [
        (None, 0.7, "dedup_near: a pair of Jaccard 0.7 shares an LSH bucket "
                    "with probability 0.565; banding threshold 0.719"),
        (None, 0.5, "dedup_near: a pair of Jaccard 0.5 shares an LSH bucket "
                    "with probability 0.053; banding threshold 0.719"),
        (["filter", "dedup_exact"], 0.5, None),
    ])
    def test_states_the_lsh_candidate_probability(
        self, workspace, capsys, stages, threshold, line
    ):
        """validate states the chance that a pair at the configured
        threshold becomes an LSH candidate, when dedup_near runs."""
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        cfg["near_dedup"]["threshold"] = threshold
        cfg["stages"] = stages or cfg["stages"]
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["validate", "--config", str(workspace)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["config ok", *([line] if line else [])]

    def test_seq_len_over_u16_exits_1(self, workspace, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        cfg["pack"]["seq_len"] = 70000
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        assert "pack.seq_len: 70000 > 65535" in capsys.readouterr().err

    def test_mask_probability_outside_unit_interval_exits_1(self, workspace, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        cfg["pack"]["mask"] = {"p_mask": -0.5, "p_random": 1.2}
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        assert "mask.p_mask: -0.5 outside [0, 1]" in capsys.readouterr().err

    def test_vocabulary_without_mask_exits_1(self, workspace, capsys):
        drop_mask_token(workspace)
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "missing special token <mask>" in err and err.count("\n") == 1

    def test_vocabulary_not_utf8_exits_1(self, workspace, capsys):
        error = append_invalid_utf8_piece(workspace)
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(error) and err.count("\n") == 1

    def test_model_with_wrong_gram_length_exits_1(self, workspace, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        model = cfg["lm"]["model_path"]
        rewrite_model(model, model, two_word_grams)
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "model.json" in err and "2 words, order is 5" in err
        assert err.count("\n") == 1

    def test_model_not_json_exits_1(self, workspace, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        Path(cfg["lm"]["model_path"]).write_text("not json at all", encoding="utf-8")
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "model.json: not a kn-ngram-v2 model file (" in err
        assert err.count("\n") == 1

    def test_v1_json_model_exits_1(self, workspace, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        model = cfg["lm"]["model_path"]
        Path(model).write_text(json.dumps({
            "format": "kn-ngram-v1", "order": 2, "min_count": 2,
            "vocab": ["<unk>", "<s>", "</s>", "a"], "discounts": {"1": 0.5, "2": 0.5},
            "counts": [["<s> a", 1], ["a </s>", 1]],
        }), encoding="utf-8")
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"model error: {model}: not a kn-ngram-v2 model file (not an npz archive)\n")

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_no_stages_exits_1(self, workspace, capsys, command):
        """A config that lists no stages is refused with one line, before
        the work dir is made."""
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        cfg["stages"] = []
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main([command, "--config", str(workspace)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == "invalid config: stages: empty\n"
        assert not Path(cfg["work_dir"]).exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key", ["input", "lm.model_path", "vocab.path", "work_dir"])
    def test_path_of_the_wrong_kind_exits_1(self, workspace, tmp_path, capsys, command, key):
        """A directory where a file belongs, or a file where the work dir
        belongs, is refused with one line before the work dir is made."""
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        section, _, name = key.rpartition(".")
        if key == "work_dir":
            wrong, why = tmp_path / "work_file", "not a directory"
            wrong.write_text("x", encoding="utf-8")
        else:
            wrong, why = tmp_path / "a_dir", "not a file"
            wrong.mkdir()
        (cfg[section] if section else cfg)[name] = str(wrong)
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main([command, "--config", str(workspace)]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"invalid config: {key}: {why}: {wrong}\n"
        assert not Path(cfg["work_dir"]).is_dir()

    def test_mistyped_value_exits_1_one_line_per_violation(self, workspace, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        cfg["pack"]["mask"]["rate"] = "x"
        cfg["seed"] = "abc"
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "invalid config:",
            "  - seed: expected int, got str",
            "  - pack.mask.rate: expected float, got str",
        ]

    def test_bad_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            yaml.safe_dump({"input": "", "work_dir": "", "stages": ["nope"]}),
            encoding="utf-8",
        )
        assert main(["validate", "--config", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "nope" in err and "input" in err


    @pytest.mark.parametrize(
        "content, error",
        [
            (b"input: [a\n", "bad.yaml:2:1: invalid YAML: expected ','"),
            (b"input: ok\nseed: \xff\n", "bad.yaml: invalid UTF-8 at byte 16"),
        ],
    )
    def test_unparsable_config_exits_1_one_line(self, tmp_path, capsys, content, error):
        bad = tmp_path / "bad.yaml"
        bad.write_bytes(content)
        assert main(["validate", "--config", str(bad)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert error in err and err.count("\n") == 1


    def test_repeated_section_exits_1_one_line(self, workspace, capsys):
        """``pack:`` given twice would keep only the second section's values
        (seq_len back at its default) and pass as ``config ok``."""
        text = workspace.read_text("utf-8")
        workspace.write_text(text + "pack:\n  split: false\n", encoding="utf-8")
        line = text.count("\n") + 1
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"invalid config: {workspace}:{line}:1: repeated key 'pack'\n"


class TestRunCommand:
    def test_run_prints_table_and_writes_outputs(self, workspace, capsys):
        assert main(["run", "--config", str(workspace)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Total after filtering and deduplication" in out
        work = workspace.parent / "work"
        assert (work / "packed.bin").exists()
        assert (work / "report.json").exists()

    def test_stats_renders_saved_report(self, workspace, capsys):
        main(["run", "--config", str(workspace)])
        capsys.readouterr()
        report = workspace.parent / "work" / "report.json"
        assert main(["stats", "--report", str(report)]) == EXIT_OK
        assert "Source" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "content, error",
        [("not json", "JSONDecodeError"), ('{"stages": []}', "KeyError")],
    )
    def test_stats_on_a_non_report_exits_2(self, tmp_path, capsys, content, error):
        report = tmp_path / "report.json"
        report.write_text(content, encoding="utf-8")
        assert main(["stats", "--report", str(report)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert "not a run report" in err and error in err and err.count("\n") == 1

    def test_invalid_utf8_input_exits_2(self, workspace, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        with open(cfg["input"], "ab") as fh:
            fh.write(b'{"id": "bad", "source": "s", "text": "\xff\xfe"}\n')
        assert main(["run", "--config", str(workspace)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert "invalid UTF-8" in err and err.count("\n") == 1

    def refused_resume(self, workspace, capsys, damage):
        """Finish a run, apply *damage* to its report.json, and check that
        `run --resume` exits 2 with one ``corrupt report`` line and leaves
        every work-dir file as it found it; returns that line."""
        assert main(["run", "--config", str(workspace)]) == EXIT_OK
        work = workspace.parent / "work"
        report = work / "report.json"
        damage(report)
        before = workdir_bytes(work)
        capsys.readouterr()
        assert main(["run", "--config", str(workspace), "--resume"]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith(f"stage failure: corrupt report {report}: ")
        assert err.count("\n") == 1
        assert workdir_bytes(work) == before
        return err

    def test_truncated_manifest_exits_2(self, workspace, capsys):
        self.refused_resume(
            workspace, capsys, lambda p: p.write_bytes(p.read_bytes()[:40]))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda r: [],
            lambda r: {k: v for k, v in r.items() if k != "stages"},
            lambda r: {**r, "config_hash": 7},
            lambda r: {**r, "stages": [{**r["stages"][0], "stage": "nope"},
                                       *r["stages"][1:]]},
            # the totals follow the stages, so only the order is wrong
            lambda r: {**r, "stages": r["stages"][1:], "per_source_words_initial": {
                src: s["words_in"] for src, s in r["stages"][1]["per_source"].items()}},
            lambda r: {**r, "stages": {}},
            lambda r: {**r, "stages": [{"stage": "filter"}, *r["stages"][1:]]},
            lambda r: {**r, "stages": [r["stages"][5], *r["stages"][1:]]},
            lambda r: {**r, "diagnostics": "0"},
        ],
        ids=["list", "no_completed", "hash_not_str", "unknown_stage", "not_prefix",
             "no_stats", "stats_cut", "stats_of_other_stage", "diagnostics_str"],
    )
    def test_manifest_of_wrong_shape_exits_2(self, workspace, capsys, edit):
        """Each of these reports is refused; the test keeps the name it had
        when the resume state was a separate manifest file."""
        def damage(path):
            path.write_text(json.dumps(edit(json.loads(path.read_text("utf-8")))),
                            encoding="utf-8")

        self.refused_resume(workspace, capsys, damage)

    def test_report_with_a_broken_chain_exits_2(self, workspace, capsys):
        """One filter document moved from kept to too_short: filter still
        conserves, but dedup_exact reads one document more than it kept."""
        def damage(path):
            report = json.loads(path.read_text("utf-8"))
            stats = report["stages"][0]
            assert stats["stage"] == "filter"
            src = stats["per_source"]["web"]
            stats["docs_out"] -= 1
            src["docs_out"] -= 1
            src["rejected_docs"] += 1
            stats["rejected"]["too_short"] += 1
            for s in (stats, src):
                s["words_out"] -= 30
            src["rejected_words"] += 30
            path.write_text(json.dumps(report), encoding="utf-8")

        err = self.refused_resume(workspace, capsys, damage)
        assert "do not chain" in err and "('filter', 'dedup_exact')" in err

    def test_report_with_edited_totals_exits_2(self, workspace, capsys):
        def damage(path):
            report = json.loads(path.read_text("utf-8"))
            report["per_source_words_final"]["web"] += 1
            path.write_text(json.dumps(report), encoding="utf-8")

        err = self.refused_resume(workspace, capsys, damage)
        assert "not the object RunReport.to_dict writes" in err

    @pytest.mark.parametrize(
        "change, delta",
        [(list.pop, -1), (lambda docs: docs.append(docs[0]), 1)],
        ids=["fewer", "more"],
    )
    def test_stage_that_changes_the_document_count_exits_2(
        self, workspace, capsys, monkeypatch, change, delta
    ):
        """A stage that leaves its list of documents another length than it
        was given fails the run with one line; the report keeps the stages
        before it and reads back."""

        def changing(docs, cfg, loaded):
            change(docs)
            return None, None

        monkeypatch.setattr(pipeline, "stage_dedup_near", changing)
        assert main(["run", "--config", str(workspace)]) == EXIT_STAGE
        err = capsys.readouterr().err
        work = workspace.parent / "work"
        report = pipeline.read_report(work / "report.json")
        assert [s.stage for s in report.stages] == ["filter", "dedup_exact"]
        n = report.stages[-1].docs_out
        assert err.splitlines()[-1] == (
            f"stage failure: stage dedup_near failed: left {n + delta} documents of {n}"
        )
        assert not (work / "02_dedup_near.jsonl").exists()

    def test_unknown_top_level_key_exits_1(self, workspace, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        cfg["stage"] = cfg.pop("stages")
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        assert "stage: unknown config key" in capsys.readouterr().err

    def test_duplicate_id_exits_2_before_any_stage_output(self, workspace, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        first = Path(cfg["input"]).read_text("utf-8").splitlines()[0]
        with open(cfg["input"], "a", encoding="utf-8") as fh:
            fh.write(first + "\n")
        assert main(["run", "--config", str(workspace)]) == EXIT_STAGE
        err = capsys.readouterr().err
        doc_id = json.loads(first)["id"]
        assert f"duplicate document id {doc_id!r}" in err and err.count("\n") == 1
        assert not list((workspace.parent / "work").glob("*.jsonl*"))

    def test_bad_vocabulary_exits_1_before_any_stage_output(self, workspace, capsys):
        drop_mask_token(workspace)
        assert main(["run", "--config", str(workspace)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("vocabulary error: ") and err.count("\n") == 1
        assert "missing special token <mask>" in err
        assert not list((workspace.parent / "work").glob("*.jsonl*"))

    def test_model_validate_rejects_exits_1_before_any_stage_output(
        self, workspace, capsys
    ):
        model = yaml.safe_load(workspace.read_text("utf-8"))["lm"]["model_path"]
        rewrite_model(model, model, two_word_grams)
        assert main(["validate", "--config", str(workspace)]) == EXIT_VALIDATION
        capsys.readouterr()
        assert main(["run", "--config", str(workspace)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"model error: {model}: ") and err.count("\n") == 1
        assert "2 words, order is 5" in err
        assert not list((workspace.parent / "work").glob("*.jsonl*"))

    def test_resume_past_lm_score_loads_no_model(self, workspace, capsys, monkeypatch):
        with monkeypatch.context() as m:
            crash_after(m, load_config(workspace), "lm_score")
            assert main(["run", "--config", str(workspace)]) == EXIT_STAGE

        def forbidden(path):
            raise AssertionError(f"{path} loaded for stages that do not score")

        monkeypatch.setattr(ngram_lm, "load_model", forbidden)
        assert main(["run", "--config", str(workspace), "--resume"]) == EXIT_OK
        assert (workspace.parent / "work" / "packed.bin").exists()

    def test_resume_flag(self, workspace, capsys):
        main(["run", "--config", str(workspace)])
        capsys.readouterr()
        assert main(["run", "--config", str(workspace), "--resume"]) == EXIT_OK

    @pytest.mark.parametrize("damage", ["shortened", "garbled"])
    def test_resume_refuses_stage_file_unlike_manifest(
        self, workspace, capsys, monkeypatch, damage
    ):
        with monkeypatch.context() as m:
            crash_after(m, load_config(workspace), "dedup_exact")
            assert main(["run", "--config", str(workspace)]) == EXIT_STAGE
        work = workspace.parent / "work"
        stage_file = work / "01_dedup_exact.jsonl"
        lines = stage_file.read_bytes().splitlines(keepends=True)
        n = len(lines)
        if damage == "shortened":
            # the file is sorted by source, so the last 5 lines are web's
            stage_file.write_bytes(b"".join(lines[:-5]))
            web = [json.loads(line) for line in lines if b'"source": "web"' in line]
            words = sum(len(d["text"].split()) for d in web)
            cut = sum(len(d["text"].split()) for d in web[-5:])
            found = (f"{len(web) - 5} documents of {words - cut} words from source "
                     f"'web', the report records {len(web)} documents of {words} words")
        else:
            lines[3] = b"{garbled\n"
            stage_file.write_bytes(b"".join(lines))
            found = "1 malformed lines"
        before = workdir_bytes(work)
        capsys.readouterr()
        assert main(["run", "--config", str(workspace), "--resume"]) == EXIT_STAGE
        assert capsys.readouterr().err == (
            f"stage failure: {stage_file} holds {found}; refusing to resume\n"
        )
        assert workdir_bytes(work) == before

    def stopped_after_lm_score(self, workspace, monkeypatch):
        """The work dir of a run stopped right after lm_score, and its
        lm_score output's lines."""
        with monkeypatch.context() as m:
            crash_after(m, load_config(workspace), "lm_score")
            assert main(["run", "--config", str(workspace)]) == EXIT_STAGE
        work = workspace.parent / "work"
        return work, (work / "03_lm_score.jsonl").read_bytes().splitlines(keepends=True)

    def test_resume_refuses_stage_file_with_a_copied_line(
        self, workspace, capsys, monkeypatch
    ):
        work, lines = self.stopped_after_lm_score(workspace, monkeypatch)
        lines[4] = lines[2]
        (work / "03_lm_score.jsonl").write_bytes(b"".join(lines))
        before = workdir_bytes(work)
        capsys.readouterr()
        assert main(["run", "--config", str(workspace), "--resume"]) == EXIT_STAGE
        doc_id = json.loads(lines[2])["id"]
        assert capsys.readouterr().err == (
            f"input error: duplicate document id {doc_id!r} in "
            f"{work / '03_lm_score.jsonl'}\n"
        )
        assert workdir_bytes(work) == before

    def test_resume_refuses_stage_file_with_an_edited_text(
        self, workspace, capsys, monkeypatch
    ):
        """The file holds as many documents per source as the report
        records, but one text has lost a word."""
        work, lines = self.stopped_after_lm_score(workspace, monkeypatch)
        doc = json.loads(lines[0])
        lines[0] = lines[0].replace(
            json.dumps(doc["text"], ensure_ascii=False).encode(),
            json.dumps(doc["text"].split(maxsplit=1)[1], ensure_ascii=False).encode(),
        )
        stage_file = work / "03_lm_score.jsonl"
        stage_file.write_bytes(b"".join(lines))
        recorded = json.loads((work / "report.json").read_text("utf-8"))
        assert recorded["stages"][-1]["stage"] == "lm_score"
        kept = recorded["stages"][-1]["per_source"][doc["source"]]
        n, n_words = kept["docs_out"], kept["words_out"]
        before = workdir_bytes(work)
        capsys.readouterr()
        assert main(["run", "--config", str(workspace), "--resume"]) == EXIT_STAGE
        assert capsys.readouterr().err == (
            f"stage failure: {stage_file} holds {n} documents of {n_words - 1} words "
            f"from source {doc['source']!r}, the report records {n} documents of "
            f"{n_words} words; refusing to resume\n"
        )
        assert workdir_bytes(work) == before

    def test_filter_after_dedup_exact_strips_and_exits_0(self, tmp_path, capsys):
        """filter counts words after stripping repeated short lines, so its
        words_in is below dedup_exact's words_out when filter runs second;
        the run still conserves every document and exits 0."""
        config = build_workspace(tmp_path, n_docs=200, stages=["dedup_exact", "filter"])
        corpus = yaml.safe_load(config.read_text("utf-8"))["input"]
        first = json.loads(Path(corpus).read_text("utf-8").splitlines()[0])
        repeated = {**first, "id": "repeats", "text": first["text"] + "\nPaldies\nPaldies"}
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(repeated, ensure_ascii=False) + "\n")
        assert main(["run", "--config", str(config)]) == EXIT_OK
        dedup, filtered = json.loads(
            (tmp_path / "work" / "report.json").read_text("utf-8"))["stages"]
        assert filtered["docs_in"] == dedup["docs_out"]
        assert filtered["words_in"] == dedup["words_out"] - 1
        assert "Total after filtering" in capsys.readouterr().out


def fail_on_call(monkeypatch, module, name, n):
    """Make *module*.*name* raise on its *n*-th call."""
    original, calls = getattr(module, name), []

    def failing(*args):
        calls.append(None)
        if len(calls) == n:
            raise RuntimeError(f"injected failure in call {n} of {name}")
        return original(*args)

    monkeypatch.setattr(module, name, failing)


class TestOnePass:
    """run_stage reads a stage's documents and verdicts in one pass and
    writes each document as its verdict arrives; filter and token_count
    yield their verdicts lazily."""

    @pytest.mark.parametrize("stage, module, name, call", [
        ("filter", quality, "apply_heuristics", 3),
        ("token_count", subword, "token_ids", 40),
    ], ids=["filter", "token_count"])
    def test_failure_mid_pass_then_resume(
        self, workspace, capsys, monkeypatch, stage, module, name, call
    ):
        """A verdict that raises after the stage has begun writing exits 2
        with one line and leaves no .tmp file and a report of the stages
        before it; once the fault is gone, --resume writes the work dir of
        a clean run."""
        work = workspace.parent / "work"
        assert main(["run", "--config", str(workspace)]) == EXIT_OK
        clean = workdir_bytes(work)
        shutil.rmtree(work)
        capsys.readouterr()
        stages = load_config(workspace).stages
        before = stages[: stages.index(stage)]

        with monkeypatch.context() as m:
            fail_on_call(m, module, name, call)
            assert main(["run", "--config", str(workspace)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        *summaries, last = err.splitlines()
        assert [line.split("]")[0] for line in summaries] == [f"[{s}" for s in before]
        assert last == (f"stage failure: stage {stage} failed: "
                        f"injected failure in call {call} of {name}")
        assert not list(work.rglob("*.tmp"))
        report = work / "report.json"
        done = [s.stage for s in pipeline.read_report(report).stages] if before else []
        assert done == before and report.exists() == bool(before)
        assert not (work / f"{len(before):02d}_{stage}.jsonl").exists()

        assert main(["run", "--config", str(workspace), "--resume"]) == EXIT_OK
        assert workdir_bytes(work) == clean

    @pytest.mark.parametrize("stages, module, name", [
        (["filter"], quality, "apply_heuristics"),
        (["filter", "token_count"], subword, "token_ids"),
    ], ids=["filter", "token_count"])
    def test_first_kept_document_is_written_before_the_last_verdict(
        self, tmp_path, capsys, monkeypatch, stages, module, name
    ):
        """write_jsonl receives the last stage's first kept document before
        the stage computes its last verdict."""
        workspace = build_workspace(tmp_path, n_docs=200, stages=stages)
        events = []
        original_write, original_verdict = pipeline.write_jsonl, getattr(module, name)

        def recording_write(docs, path, prev=None):
            def passing():
                for i, doc in enumerate(docs):
                    if i == 0:
                        events.append(("written", Path(path).name))
                    yield doc

            return original_write(passing(), path, prev)

        def recording_verdict(*args):
            events.append(("verdict", name))
            return original_verdict(*args)

        monkeypatch.setattr(pipeline, "write_jsonl", recording_write)
        monkeypatch.setattr(module, name, recording_verdict)
        assert main(["run", "--config", str(workspace)]) == EXIT_OK
        first_written = events.index(("written", f"{len(stages) - 1:02d}_{stages[-1]}.jsonl"))
        last_verdict = max(i for i, event in enumerate(events) if event[0] == "verdict")
        assert first_written < last_verdict

    def test_writer_error_mid_pass_is_an_io_error(self, workspace, capsys, monkeypatch):
        """An OSError raised while the stage file is written, after some
        documents, exits 2 as an I/O error, not a stage failure, and
        leaves neither that file, its .rejects nor a .tmp file."""
        original = pipeline.write_jsonl

        def failing_write(docs, path, prev=None):
            def passing():
                for i, doc in enumerate(docs):
                    if i == 5:
                        raise OSError("disk full")
                    yield doc

            return original(passing(), path, prev)

        monkeypatch.setattr(pipeline, "write_jsonl", failing_write)
        assert main(["run", "--config", str(workspace)]) == EXIT_STAGE
        err = capsys.readouterr().err
        assert err == "I/O error: disk full\n"
        assert list((workspace.parent / "work").iterdir()) == []


class TestSingleStageCommands:
    def test_filter_stage_roundtrip(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        out = tmp_path / "filtered.jsonl"
        rc = main(
            [
                "filter",
                "--config", str(workspace),
                "--input", cfg["input"],
                "--output", str(out),
            ]
        )
        assert rc == EXIT_OK
        stats = json.loads(capsys.readouterr().out)
        assert stats["stage"] == "filter"
        assert len(list(read_jsonl(out))) == stats["docs_out"]
        assert (tmp_path / "filtered.jsonl.rejects").exists()

    def test_stage_subcommands_from_stage_names(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        out = tmp_path / "x.jsonl"
        before = set(tmp_path.iterdir())
        for stage in KNOWN_STAGES[:3]:
            argv = [stage.replace("_", "-"), "--config", str(workspace),
                    "--input", cfg["input"], "--output", str(out)]
            assert main(argv) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["stage"] == stage
        # dedup-near among them: each writes its output and sidecar only
        assert set(tmp_path.iterdir()) - before == {out, tmp_path / "x.jsonl.rejects"}

    def test_each_stage_writes_the_bytes_of_run(self, workspace, tmp_path, capsys):
        """`run` and the single-stage subcommands share one stage path: each
        subcommand, fed the previous stage's output of `run`, writes `run`'s
        JSONL and rejects byte for byte."""
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        assert main(["run", "--config", str(workspace)]) == EXIT_OK
        work = workspace.parent / "work"
        prev = cfg["input"]
        for idx, stage in enumerate(KNOWN_STAGES[:-1]):
            out = tmp_path / f"{stage}.jsonl"
            argv = [stage.replace("_", "-"), "--config", str(workspace),
                    "--input", str(prev), "--output", str(out)]
            assert main(argv) == EXIT_OK, stage
            ran = work / f"{idx:02d}_{stage}.jsonl"
            assert out.read_bytes() == ran.read_bytes(), stage
            assert (tmp_path / f"{stage}.jsonl.rejects").read_bytes() == (
                work / f"{ran.name}.rejects"
            ).read_bytes(), stage
            prev = ran
        capsys.readouterr()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs and /dev/fd")
    @pytest.mark.parametrize("kind", ["pipe", "fifo"])
    def test_pipe_or_fifo_input_is_read_once(self, workspace, tmp_path, capsys, kind):
        """A stage subcommand reads an --input that is a pipe or a FIFO once,
        copies no line from it, and writes the bytes a file input gives."""
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        data = Path(cfg["input"]).read_bytes()
        argv = ["token-count", "--config", str(workspace), "--output"]
        assert main([*argv, str(tmp_path / "ref.jsonl"), "--input", cfg["input"]]) == EXIT_OK
        if kind == "fifo":
            path = str(tmp_path / "in.fifo")
            os.mkfifo(path)
            writer = threading.Thread(target=Path(path).write_bytes, args=(data,))
        else:
            r, w = os.pipe()
            path = f"/dev/fd/{r}"

            def write_all():
                with open(w, "wb") as fh:
                    fh.write(data)

            writer = threading.Thread(target=write_all)

        unblocked = []

        def unblock():
            # a second open of the FIFO waits for a writer: give it one, so
            # that the test fails instead of hanging
            unblocked.append(True)
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass

        watchdog = threading.Timer(60, unblock)
        writer.start()
        watchdog.start()
        try:
            rc = main([*argv, str(tmp_path / "out.jsonl"), "--input", path])
        finally:
            watchdog.cancel()
            writer.join()
            if kind == "pipe":
                os.close(r)
        assert not unblocked, "the input was opened again"
        assert rc == EXIT_OK, capsys.readouterr().err
        assert (tmp_path / "out.jsonl").read_bytes() == (tmp_path / "ref.jsonl").read_bytes()
        capsys.readouterr()

    def test_dedup_near_rejects_duplicate_id(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        lines = Path(cfg["input"]).read_text("utf-8").splitlines()
        dup = tmp_path / "dup.jsonl"
        dup.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        rc = main(["dedup-near", "--config", str(workspace),
                   "--input", str(dup), "--output", str(out)])
        assert rc == EXIT_STAGE
        err = capsys.readouterr().err
        assert "duplicate document id" in err and "dup.jsonl" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("stage", [s for s in KNOWN_STAGES if s != "dedup_near"])
    def test_every_subcommand_rejects_duplicate_id(
        self, workspace, tmp_path, capsys, stage
    ):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        lines = Path(cfg["input"]).read_text("utf-8").splitlines()
        dup = tmp_path / "dup.jsonl"
        dup.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
        out = tmp_path / ("out.bin" if stage == "pack" else "out.jsonl")
        rc = main([stage.replace("_", "-"), "--config", str(workspace),
                   "--input", str(dup), "--output", str(out)])
        assert rc == EXIT_STAGE
        err = capsys.readouterr().err
        doc_id = json.loads(lines[0])["id"]
        assert f"duplicate document id {doc_id!r} in {dup}" in err
        assert err.count("\n") == 1
        assert not list(tmp_path.glob("out.*"))

    def test_dedup_exact_keys_a_malformed_url_by_its_text(self, workspace, tmp_path, capsys):
        """urlsplit refuses an unclosed IPv6 host; dedup-exact keeps going and
        finds the second document with the same URL an exact_url repeat."""
        docs = [{"id": f"d{i}", "source": "s", "url": url, "text": f"teksts {i}"}
                for i, url in enumerate(["http://[::1/x", "https://[bad]/p", "HTTP://[::1/x"])]
        src = tmp_path / "urls.jsonl"
        src.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        rc = main(["dedup-exact", "--config", str(workspace),
                   "--input", str(src), "--output", str(out)])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rejected"] == {"exact_url": 1}
        assert [d.id for d in read_jsonl(out)] == ["d0", "d1"]

    def test_malformed_lines_reported(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        bad = tmp_path / "bad.jsonl"
        lines = Path(cfg["input"]).read_text("utf-8")
        bad.write_text(lines + "{not json\n", encoding="utf-8")
        rc = main(["filter", "--config", str(workspace),
                   "--input", str(bad), "--output", str(tmp_path / "out.jsonl")])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert err.startswith(f"skipped 1 malformed input lines in {bad}\n")

    @pytest.mark.parametrize("verdicts, n", [
        (lambda docs: [None] * (len(docs) - 1), 199),
        (lambda docs: (None for _ in docs[1:]), 199),
        (lambda docs: (None for _ in [*docs, None, None]), 202),
    ], ids=["list_short", "lazy_short", "lazy_long"])
    def test_verdict_count_mismatch_exits_2(
        self, workspace, tmp_path, capsys, monkeypatch, verdicts, n
    ):
        """Verdicts another number than the documents, in a list or read
        lazily, fail the stage with one line and write no stage file."""

        def mismatched(docs, cfg, loaded):
            return verdicts(docs), None

        monkeypatch.setattr(pipeline, "stage_token_count", mismatched)
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        out = tmp_path / "out.jsonl"
        rc = main(["token-count", "--config", str(workspace),
                   "--input", cfg["input"], "--output", str(out)])
        assert rc == EXIT_STAGE
        err = capsys.readouterr().err
        assert err.startswith("stage failure: stage token_count failed: ")
        assert f"{n} verdicts for 200 documents" in err and err.count("\n") == 1
        assert not list(tmp_path.glob("out.jsonl*"))

    @pytest.mark.parametrize("stage, section, key, error", [
        ("token_count", "vocab", "path", "vocab.path: required by token_count/pack stages"),
        ("pack", "vocab", "path", "vocab.path: required by token_count/pack stages"),
        ("lm_score", "lm", "model_path", "lm.model_path: required by lm_score stage"),
        ("sample", None, "quotas", "quotas: empty"),
    ])
    def test_subcommand_checks_its_own_stage(
        self, workspace, tmp_path, capsys, stage, section, key, error
    ):
        """A config whose stages leave *stage* out passes validate without
        what *stage* needs; the *stage* subcommand then exits 1 with one line
        before reading its input."""
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        cfg["stages"] = ["filter"]
        if section:
            del cfg[section][key]
        else:
            cfg[key] = []
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["validate", "--config", str(workspace)]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / ("out.bin" if stage == "pack" else "out.jsonl")
        rc = main([stage.replace("_", "-"), "--config", str(workspace),
                   "--input", cfg["input"], "--output", str(out)])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"invalid config: {error}\n"
        assert not list(tmp_path.glob("out.*"))

    def test_missing_input_exits_2(self, workspace, tmp_path, capsys):
        rc = main(
            ["filter", "--config", str(workspace),
             "--input", str(tmp_path / "missing.jsonl"),
             "--output", str(tmp_path / "out.jsonl")]
        )
        assert rc == EXIT_STAGE
        err = capsys.readouterr().err
        assert "missing.jsonl" in err and err.count("\n") == 1

    def test_malformed_model_exits_1(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        bad = tmp_path / "bad_model.json"
        rewrite_model(cfg["lm"]["model_path"], bad, two_word_grams)
        cfg["lm"]["model_path"] = str(bad)
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        rc = main(
            ["lm-score", "--config", str(workspace), "--input", cfg["input"],
             "--output", str(tmp_path / "out.jsonl")]
        )
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bad_model.json" in err and "2 words, order is 5" in err
        assert err.count("\n") == 1

    def test_model_not_json_exits_1(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        bad = tmp_path / "bad_model.json"
        bad.write_text("not json at all", encoding="utf-8")
        cfg["lm"]["model_path"] = str(bad)
        workspace.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        rc = main(
            ["lm-score", "--config", str(workspace), "--input", cfg["input"],
             "--output", str(tmp_path / "out.jsonl")]
        )
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "bad_model.json: not a kn-ngram-v2 model file (" in err
        assert err.count("\n") == 1

    def test_lm_train_and_tokenize(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        model_out = tmp_path / "lm.json"
        rc = main(
            ["lm-train", "--input", cfg["input"], "--output", str(model_out),
             "--order", "3"]
        )
        assert rc == EXIT_OK
        assert model_out.exists()
        capsys.readouterr()
        rc = main(
            ["tokenize", "--vocab", cfg["vocab"]["path"], "--text", "ra mi"]
        )
        assert rc == EXIT_OK
        ids = capsys.readouterr().out.split()
        assert ids and all(t.isdigit() for t in ids)

    def test_lm_train_writes_the_model_of_its_lines(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "source": "s", "text": "viens divi\\nviens divi"}\n'
                          '{"id": "b", "source": "s", "text": "viens trīs"}\n',
                          encoding="utf-8")
        rc = main(["lm-train", "--input", str(corpus), "--output", str(tmp_path / "lm.json"),
                   "--order", "2"])
        assert rc == EXIT_OK
        model = ngram_lm.load_model(tmp_path / "lm.json")
        assert "viens" in model.vocab_index and "trīs" not in model.vocab_index
        lines = ["viens divi", "viens divi", "viens trīs"]
        ngram_lm.train_kn_sentences(lines, order=2).save(tmp_path / "direct.json")
        assert (tmp_path / "lm.json").read_bytes() == (tmp_path / "direct.json").read_bytes()

    def test_lm_train_order_below_one_exits_1(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        rc = main(["lm-train", "--input", cfg["input"],
                   "--output", str(tmp_path / "lm.json"), "--order", "0"])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "--order 0 < 1" in err and err.count("\n") == 1
        assert not (tmp_path / "lm.json").exists()

    @pytest.mark.parametrize("command", [*KNOWN_STAGES, "lm-train"])
    def test_output_directory_exits_1_before_reading_input(
        self, workspace, tmp_path, capsys, monkeypatch, command
    ):
        """An --output that names a directory is refused with one line
        before the config or the input is read, not after the stage ran."""
        cfg = yaml.safe_load(workspace.read_text("utf-8"))

        def unread(*args, **kwargs):
            raise AssertionError("input read")

        monkeypatch.setattr(pipeline, "read_input", unread)
        monkeypatch.setattr(pipeline, "read_jsonl", unread)
        out = tmp_path / "out_dir"
        out.mkdir()
        config = [] if command == "lm-train" else ["--config", str(workspace)]
        rc = main([command.replace("_", "-"), *config, "--input", cfg["input"],
                   "--output", str(out)])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"{command.replace('_', '-')}: --output {out} is a directory\n"
        assert list(out.iterdir()) == []

    def test_lm_train_min_count_below_one_exits_1(self, workspace, tmp_path, capsys):
        cfg = yaml.safe_load(workspace.read_text("utf-8"))
        rc = main(["lm-train", "--input", cfg["input"],
                   "--output", str(tmp_path / "lm.json"), "--min-count", "-3"])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "lm-train: --min-count -3 < 1" in err and err.count("\n") == 1
        assert not (tmp_path / "lm.json").exists()

    def test_lm_train_on_zero_tokens_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text('{"id": "a", "source": "s", "text": "  "}\n', encoding="utf-8")
        rc = main(["lm-train", "--input", str(corpus), "--output", str(tmp_path / "lm.json")])
        assert rc == EXIT_STAGE
        err = capsys.readouterr().err
        assert "zero tokens" in err and "empty.jsonl" in err and err.count("\n") == 1

    def test_lm_train_reports_malformed_lines(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "a", "source": "s", "text": "ra mi ra"}\n'
            "{not json\n"
            '{"id": "b", "source": "s", "text": "mi ra mi"}\n',
            encoding="utf-8",
        )
        rc = main(["lm-train", "--input", str(corpus),
                   "--output", str(tmp_path / "lm.json"), "--min-count", "1"])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == (
            f"skipped 1 malformed input lines in {corpus}\n"
        )
        assert (tmp_path / "lm.json").exists()

    def test_lm_train_summary_counts_grams_and_tokens(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "source": "s", "text": "a b a"}\n'
                          '{"id": "b", "source": "s", "text": "b a b"}\n', encoding="utf-8")
        rc = main(["lm-train", "--input", str(corpus), "--output", str(tmp_path / "lm.json"),
                   "--order", "2", "--min-count", "1"])
        assert rc == EXIT_OK
        # <s> a, a b, b a, a </s>, <s> b, b </s>: 6 distinct bigrams over
        # the 8 tokens of two 3-word sentences and their end symbols
        assert capsys.readouterr().out == (
            "trained order-2 model: |vocab|=5, 6 distinct top-order grams, 8 tokens\n")

    def test_lm_train_duplicate_id_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "a", "source": "s", "text": "ra mi ra"}\n'
            '{"id": "a", "source": "s", "text": "mi ra mi"}\n',
            encoding="utf-8",
        )
        rc = main(["lm-train", "--input", str(corpus),
                   "--output", str(tmp_path / "lm.json")])
        assert rc == EXIT_STAGE
        err = capsys.readouterr().err
        assert f"duplicate document id 'a' in {corpus}" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "lm.json").exists()

    @pytest.mark.parametrize("stage", ["token_count", "pack"])
    def test_bad_vocabulary_exits_1_before_reading_input(
        self, workspace, tmp_path, capsys, stage
    ):
        drop_mask_token(workspace)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        # a missing input would exit 2: the vocabulary is checked first
        rc = main([stage.replace("_", "-"), "--config", str(workspace),
                   "--input", str(tmp_path / "missing.jsonl"),
                   "--output", str(out_dir / "out")])
        assert rc == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("vocabulary error: ") and err.count("\n") == 1
        assert "missing special token <mask>" in err
        assert list(out_dir.iterdir()) == []

    def test_tokenize_with_vocabulary_not_utf8_exits_1(self, workspace, capsys):
        error = append_invalid_utf8_piece(workspace)
        vocab = yaml.safe_load(workspace.read_text("utf-8"))["vocab"]["path"]
        rc = main(["tokenize", "--vocab", vocab, "--text", "x"])
        assert rc == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith(error) and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_vocab_directory_exits_1(self, tmp_path, capsys):
        rc = main(["tokenize", "--vocab", str(tmp_path), "--text", "x"])
        assert rc == EXIT_VALIDATION
        assert capsys.readouterr().err == f"vocabulary error: {tmp_path}: not a file\n"

    def test_missing_vocab_exits_1(self, workspace, tmp_path):
        rc = main(
            ["tokenize", "--vocab", str(tmp_path / "none.txt"), "--text", "x"]
        )
        assert rc == EXIT_VALIDATION


class TestPackCommand:
    def test_pack_from_sampled_jsonl(self, workspace, tmp_path, capsys):
        main(["run", "--config", str(workspace)])
        capsys.readouterr()
        sampled = workspace.parent / "work" / "05_sample.jsonl"
        out = tmp_path / "repacked.bin"
        rc = main(
            ["pack", "--config", str(workspace), "--input", str(sampled),
             "--output", str(out)]
        )
        assert rc == EXIT_OK
        work = workspace.parent / "work"
        assert out.read_bytes() == (work / "packed.bin").read_bytes()
        assert (tmp_path / "repacked.meta.jsonl").read_bytes() == (
            work / "packed.meta.jsonl"
        ).read_bytes()


    def test_run_and_pack_draw_nothing_from_numpy_random(self, tmp_path, monkeypatch, capsys):
        """Masking draws with core's counter-based draws only. MinHash
        parameters (dedup_near) and the uniform sample still use numpy's
        Generator, so the run leaves those two out."""
        stages = ["filter", "dedup_exact", "lm_score", "token_count", "sample", "pack"]
        workspace = build_workspace(tmp_path / "ws", n_docs=200, stages=stages)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.random drawn from")

        class Refusing(np.random.Generator):
            pass

        for name in dir(np.random.Generator):
            if not name.startswith("_"):
                setattr(Refusing, name, refuse)
        for name in dir(np.random):
            if callable(getattr(np.random, name)) and not name.startswith("_"):
                monkeypatch.setattr(np.random, name, refuse)
        monkeypatch.setattr(np.random, "Generator", Refusing)
        assert main(["run", "--config", str(workspace)]) == EXIT_OK
        work = workspace.parent / "work"
        out = tmp_path / "repacked.bin"
        rc = main(["pack", "--config", str(workspace), "--input",
                   str(work / "04_sample.jsonl"), "--output", str(out)])
        assert rc == EXIT_OK
        assert out.read_bytes() == (work / "packed.bin").read_bytes()
        assert len((work / "packed.meta.jsonl").read_text("utf-8").splitlines()) > 1


def test_model_reached_only_through_load_model(workspace, monkeypatch):
    """validate and run_pipeline each get the LM from one ngram_lm.load_model
    call, looked up on the module, and read no model file past it, so a
    caller that replaces load_model (perfbench's child does) hands in its
    own model."""
    cfg = load_config(workspace)
    model = ngram_lm.load_model(cfg.lm.model_path)
    calls = []

    def counted(path):
        calls.append(path)
        return model

    def forbidden(*args, **kwargs):
        raise AssertionError("a model file read past ngram_lm.load_model")

    monkeypatch.setattr(ngram_lm, "load_model", counted)
    monkeypatch.setattr(ngram_lm.KneserNeyModel, "load", forbidden)
    assert main(["validate", "--config", str(workspace)]) == EXIT_OK
    assert calls == [cfg.lm.model_path]
    calls.clear()
    report = pipeline.run_pipeline(cfg)
    assert calls == [cfg.lm.model_path]
    assert "lm_score" in [stage["stage"] for stage in report.to_dict()["stages"]]
