"""Command-line entry points.

A single declarative YAML config drives full runs (``run``); every pipeline
stage is also its own subcommand (``dedup_exact`` -> ``dedup-exact``) for
shell-pipeline composition. ``validate``, ``run`` and each stage
subcommand check and load what their stages need (pipeline.preflight)
before reading any input. Exit codes: 0 success, 1 a config, vocabulary
or model file refused or an ``--output`` that is a directory, 2 stage
failure or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from corpusprep import near_dedup, ngram_lm, pipeline, subword
from corpusprep.config import KNOWN_STAGES, ConfigError, load_config
from corpusprep.core import JsonlReadError, StageStats

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_STAGE = 2


def _add_config_arg(p):
    p.add_argument("--config", required=True, help="pipeline config YAML")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corpusprep",
        description="Corpus curation and pretraining data preparation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a pipeline config")
    _add_config_arg(p)

    p = sub.add_parser("run", help="run the configured pipeline")
    _add_config_arg(p)
    p.add_argument("--resume", action="store_true",
                   help="continue after the stages the work dir's report.json records")

    p = sub.add_parser("stats", help="render the report table for a finished run")
    p.add_argument("--report", required=True, help="path to report.json")

    for stage in KNOWN_STAGES:
        p = sub.add_parser(stage.replace("_", "-"), help=f"run only the {stage} stage")
        _add_config_arg(p)
        p.add_argument("--input", required=True, help="input JSONL")
        p.add_argument(
            "--output",
            required=True,
            help="output .bin path, metadata beside it as .meta.jsonl"
            if stage == "pack"
            else "output JSONL, rejects beside it as .rejects",
        )

    p = sub.add_parser("lm-train", help="train the n-gram LM on a reference corpus")
    p.add_argument("--input", required=True, help="reference corpus JSONL")
    p.add_argument("--output", required=True, help="model file path")
    p.add_argument("--order", type=int, default=ngram_lm.DEFAULT_ORDER)
    p.add_argument("--min-count", type=int, default=ngram_lm.DEFAULT_MIN_COUNT)

    p = sub.add_parser("tokenize", help="tokenize text against a vocabulary")
    p.add_argument("--vocab", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--dump", action="store_true", help="emit id:piece pairs")

    return parser


def _run_single_stage(stage: str, args) -> int:
    cfg = load_config(args.config)
    loaded = pipeline.preflight(cfg, [stage])
    docs, _ = pipeline.read_input(args.input)
    if stage == "pack":
        # --output names the .bin itself, and pack writes no JSONL
        stats = StageStats("pack", extra=pipeline.pack_docs(docs, cfg, args.output, loaded.vocab))
        for doc in docs:
            stats.count(doc, None)
    else:
        _, stats = pipeline.run_stage(stage, docs, cfg, loaded, args.output, args.input)
    print(json.dumps(stats.to_dict(), ensure_ascii=False, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if os.path.isdir(getattr(args, "output", None) or ""):
        print(f"{args.command}: --output {args.output} is a directory", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.command == "validate":
            cfg = load_config(args.config)
            pipeline.preflight(cfg, cfg.stages)
            print("config ok")
            if "dedup_near" in cfg.stages:
                nd = cfg.near_dedup
                odds, banding = near_dedup.banding_odds(nd.threshold, nd.bands, nd.rows)
                print(f"dedup_near: a pair of Jaccard {nd.threshold} shares an LSH bucket "
                      f"with probability {odds:.3f}; banding threshold {banding:.3f}")
            return EXIT_OK

        if args.command == "run":
            cfg = load_config(args.config)
            report = pipeline.run_pipeline(cfg, resume=args.resume)
            print(pipeline.report_table(report.to_dict()))
            print(
                f"total wall time: {report.total_wall_time:.2f}s", file=sys.stderr
            )
            return EXIT_OK

        if args.command == "stats":
            try:
                report = pipeline.read_report(args.report)
            except ValueError as e:
                print(f"report error: {args.report}: {e}", file=sys.stderr)
                return EXIT_STAGE
            print(pipeline.report_table(report.to_dict()))
            return EXIT_OK

        stage = args.command.replace("-", "_")
        if stage in KNOWN_STAGES:
            return _run_single_stage(stage, args)

        if args.command == "lm-train":
            for flag, value in (("--order", args.order), ("--min-count", args.min_count)):
                if value < 1:
                    print(f"lm-train: {flag} {value} < 1", file=sys.stderr)
                    return EXIT_VALIDATION
            docs, _ = pipeline.read_input(args.input)
            lines = (line for doc in docs for line in doc.text.split("\n"))
            try:
                model = ngram_lm.train_kn_sentences(
                    lines, order=args.order, min_count=args.min_count
                )
            except ValueError as e:  # the corpus has zero tokens
                print(f"input error: {args.input}: {e}", file=sys.stderr)
                return EXIT_STAGE
            model.save(args.output)
            print(
                f"trained order-{model.order} model: |vocab|={model.vocab_size}, "
                f"{model.top_grams} distinct top-order grams, {model.total_tokens} tokens"
            )
            return EXIT_OK

        if args.command == "tokenize":
            vocab = subword.load_vocab(args.vocab)
            ids = subword.tokenize(args.text, vocab)
            if args.dump:
                for i in ids:
                    print(f"{i}:{subword.escape_token(vocab.pieces[i])}")
            else:
                print(" ".join(str(i) for i in ids))
            return EXIT_OK

        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return EXIT_VALIDATION
    except subword.VocabError as e:
        print(f"vocabulary error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ngram_lm.ModelError as e:
        print(f"model error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except pipeline.StageFailure as e:
        print(f"stage failure: {e}", file=sys.stderr)
        return EXIT_STAGE
    except JsonlReadError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_STAGE
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
