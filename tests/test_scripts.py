"""Smoke tests of the programs in scripts/, each run as a subprocess at a
small size."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_lsh_recall_curve_tracks_banding_formula():
    out = run_script("lsh_recall_curve.py", "--trials", 200)
    header = out.splitlines().index(f"{'jaccard':>8}  {'empirical':>9}  {'theory':>7}")
    rows = [line.split() for line in out.splitlines()[header + 1 :]]
    assert len(rows) == 15
    for s, empirical, theory in rows:
        assert abs(float(empirical) - float(theory)) <= 0.15, (s, empirical, theory)
        assert abs(float(theory) - (1 - (1 - float(s) ** 8) ** 14)) < 1e-3


def test_run_demo_reruns_byte_identical(tmp_path):
    out = tmp_path / "demo"

    def snapshot():
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    first_stdout = run_script("run_demo.py", "--out", out, "--n-docs", 200)
    first = snapshot()
    assert "work/packed.bin" in first
    second_stdout = run_script("run_demo.py", "--out", out, "--n-docs", 200)
    assert snapshot() == first
    assert second_stdout == first_stdout


def test_packing_efficiency_runs():
    out = run_script("packing_efficiency.py", "--n-docs", 200, "--seq-lens", 512, 1024)
    assert "efficiency" in out
