"""One measured pipeline run, in a fresh process started by ``run.py``.

Runs in a workload's input directory. It imports corpusprep, loads the
config, the LM and the vocabulary (the set-up), then times one
``pipeline.run_pipeline`` call, checks the outputs and writes a JSON result:

    python3 perfbench/child.py --workload mixed --result r.json [--spans s.tsv]

The model and vocabulary loaded during set-up are handed to the pipeline
instead of being loaded again, so their cost is counted in set-up only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

WORK = Path("work")


def _ids(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh]


def check_outputs(workload: str, cfg, report, truth: dict) -> list:
    """Conservation, the workload's oracle and the packed-token count;
    returns one message per failed check."""
    from corpusprep.packing import read_packed

    def out(stage):
        return WORK / f"{cfg.stages.index(stage):02d}_{stage}.jsonl"

    failures = []
    try:
        report.check_conservation()
    except AssertionError as e:
        failures.append(f"conservation: {e!r}")
    if workload == "mixed":
        survivors = set(_ids(out("dedup_exact")))
        for group in truth["exact_groups"]:
            if len(survivors.intersection(group)) > 1:
                failures.append(f"planted duplicate survived dedup_exact: {group}")
    if workload == "templated_neardup":
        templates = truth["templates"]
        per_template = Counter(templates[i] for i in _ids(out("dedup_near")))
        expected = {t: 1 for t in set(templates.values())}
        if per_template != expected:
            failures.append(f"pages per template after dedup_near: {dict(per_template)}")
    if "pack" in cfg.stages:
        pack = next(s for s in report.stages if s.stage == "pack")
        with open(out("pack"), encoding="utf-8") as fh:
            payload = sum(int(json.loads(line)["meta"]["token_count"]) + 2 for line in fh)
        try:
            windows = list(read_packed(WORK / "packed.bin"))
            non_pad = sum(len(w["tokens"]) - w["pad_count"] for w in windows)
        except Exception as e:  # a corrupt file may fail to parse at all
            failures.append(f"packed.bin unreadable: {e!r}")
        else:
            if non_pad != payload:
                failures.append(f"packed non-pad tokens {non_pad} != {payload}")
            if len(windows) != pack.extra["windows"]:
                failures.append(f"packed windows {len(windows)} != {pack.extra['windows']}")
        if workload == "long_pack" and not float(pack.extra["efficiency"]) > 0.99:
            failures.append(f"packing efficiency {pack.extra['efficiency']} <= 0.99")
    return failures


def digest_outputs() -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(WORK.iterdir())
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None, help="trace the run, write spans here")
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one byte of packed.bin before checking (self-test)")
    args = ap.parse_args()

    from corpusprep import config, ngram_lm, pipeline, subword

    tracer = None
    if args.spans:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    cfg = config.load_config("config.yaml")
    if "lm_score" in cfg.stages:
        model = ngram_lm.load_model(cfg.lm.model_path)
        ngram_lm.load_model = lambda *a, **k: model
    if "token_count" in cfg.stages or "pack" in cfg.stages:
        vocab = subword.load_vocab(cfg.vocab.path, cfg.vocab.expected_size)
        subword.load_vocab = lambda *a, **k: vocab
    result = {"t_ready": time.monotonic()}

    t0 = time.perf_counter()
    try:
        report = pipeline.run_pipeline(cfg)
    except Exception as e:
        result["failures"] = [f"run_pipeline raised {type(e).__name__}: {e}"]
    else:
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, report, t0, result["wall_s"])
            tracer.save(args.spans)
        if args.corrupt:
            with open(WORK / "packed.bin", "r+b") as fh:
                fh.seek(100)
                byte = fh.read(1)
                fh.seek(100)
                fh.write(bytes([byte[0] ^ 0x01]))
        truth = json.loads(Path("truth.json").read_text(encoding="utf-8"))
        result["failures"] = check_outputs(args.workload, cfg, report, truth)
        result["files"] = digest_outputs()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)


if __name__ == "__main__":
    main()
    sys.stdout.flush()
    os._exit(0)  # skip freeing the loaded model: the next repeat can start sooner
