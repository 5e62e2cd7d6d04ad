"""Golden output digests: the sha256 of every file the fixture pipeline
writes, over configurations that together reach every output path, and of
what ``run``, ``stats`` and each stage subcommand print.

``tests/test_golden.py`` compares them with the committed table
``tests/golden_digests.json``; ``scripts/golden_digests.py`` rewrites the
table after a deliberate output change."""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
import yaml

from corpusprep import cli
from corpusprep.config import load_config
from pipeline_fixture import build_workspace, crash_after

TABLE = Path(__file__).with_name("golden_digests.json")
N_DOCS = 1000

# the fixture config as it is (signature verification, span masking, split
# windows, quality sampling, a percentile policy) and each of those changed
VARIANTS = {
    "a": {},
    "b": {
        "near_dedup": {"exact_verify": True},
        "pack": {"split": False, "mask": {"scheme": "token"}},
        "sample": {"mode": "uniform"},
        "lm": {"policy": {"kind": "absolute", "value": 900.0}},
    },
}


def _merged(base: dict, changes: dict) -> dict:
    out = dict(base)
    for key, value in changes.items():
        out[key] = _merged(base[key], value) if isinstance(value, dict) else value
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _main(*argv, code=cli.EXIT_OK) -> str:
    """What ``corpusprep *argv*`` prints to stdout, after checking that it
    exits *code*; its stderr, which holds wall times, is dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main([str(a) for a in argv])
    if status != code:
        raise AssertionError(f"corpusprep {' '.join(argv)} exited {status}: {err.getvalue()}")
    return out.getvalue()


def _files(under: str) -> dict:
    """The digest of every file below the directory *under*, by its path."""
    return {p.as_posix(): _sha(p.read_bytes())
            for p in sorted(Path(under).rglob("*")) if p.is_file()}


def compute(root: Path) -> dict:
    """The digests of a fixture workspace built in the empty directory
    *root*. Configs name their files relative to *root*, which is the
    working directory meanwhile, so that ``report.json``'s config hash does
    not depend on where *root* is."""
    build_workspace(root, n_docs=N_DOCS)
    base = yaml.safe_load((root / "config.yaml").read_text("utf-8"))
    base["input"] = "corpus.jsonl"
    base["lm"]["model_path"] = "model.json"
    base["vocab"]["path"] = "vocab.txt"
    digests = {f"input/{name}": _sha((root / name).read_bytes())
               for name in ("corpus.jsonl", "model.json", "vocab.txt")}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for name, changes in VARIANTS.items():
            config = _merged(base, dict(changes, work_dir=f"{name}/work"))
            Path(f"{name}.yaml").write_text(yaml.safe_dump(config), encoding="utf-8")
            printed = _main("run", "--config", f"{name}.yaml")
            digests[f"{name}/run.stdout"] = _sha(printed.encode())
            digests.update(_files(f"{name}/work"))
        digests["a/stats.stdout"] = _sha(
            _main("stats", "--report", "a/work/report.json").encode())

        # a run stopped after dedup_near, then resumed
        Path("resume.yaml").write_text(
            yaml.safe_dump(dict(base, work_dir="resume/work")), encoding="utf-8")
        with pytest.MonkeyPatch.context() as m:
            crash_after(m, load_config("resume.yaml"), "dedup_near")
            _main("run", "--config", "resume.yaml", code=cli.EXIT_STAGE)
        digests["resume/run.stdout"] = _sha(
            _main("run", "--config", "resume.yaml", "--resume").encode())
        digests.update(_files("resume/work"))

        # each stage subcommand, each reading the one before's output
        Path("stages").mkdir()
        prev = "corpus.jsonl"
        for stage in base["stages"]:
            out = f"stages/{stage}" + (".bin" if stage == "pack" else ".jsonl")
            printed = _main(stage.replace("_", "-"), "--config", "a.yaml",
                            "--input", prev, "--output", out)
            digests[f"stages/{stage}.stdout"] = _sha(printed.encode())
            prev = out
        digests.update(_files("stages"))
    finally:
        os.chdir(cwd)
    return digests


def table(digests: dict) -> str:
    """The text of the table file for *digests*."""
    return json.dumps({"numpy": np.__version__, "digests": digests},
                      indent=1, sort_keys=True) + "\n"
