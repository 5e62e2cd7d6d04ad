"""Smoke tests of the programs in scripts/, each run as a subprocess at a
small size."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, returncode=0):
    """The stdout of scripts/*name* run with *args*, after checking its exit
    status; the stderr when that status is not 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc.stderr if returncode else proc.stdout


def test_lsh_recall_curve_tracks_banding_formula():
    out = run_script("lsh_recall_curve.py", "--trials", 200)
    header = out.splitlines().index(f"{'jaccard':>8}  {'empirical':>9}  {'theory':>7}")
    rows = [line.split() for line in out.splitlines()[header + 1 :]]
    assert len(rows) == 15
    for s, empirical, theory in rows:
        assert abs(float(empirical) - float(theory)) <= 0.15, (s, empirical, theory)
        assert abs(float(theory) - (1 - (1 - float(s) ** 8) ** 14)) < 1e-3


@pytest.mark.parametrize("args, error", [
    (["--bands", 0], "argument --bands: 0 < 1"),
    (["--rows", -1], "argument --rows: -1 < 1"),
    (["--trials", 0], "argument --trials: 0 < 1"),
    (["--bands", 7], "--bands * --rows is 56, not --num-perm 112"),
])
def test_lsh_recall_curve_refuses_inconsistent_banding(args, error):
    err = run_script("lsh_recall_curve.py", *args, returncode=2)
    assert [line for line in err.splitlines() if "error" in line] == [
        f"lsh_recall_curve.py: error: {error}"]


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


@pytest.mark.parametrize("seq_len", [1, 65536])
def test_packing_efficiency_refuses_seq_len_outside_u16(seq_len):
    err = run_script("packing_efficiency.py", "--n-docs", 10, "--seq-lens", seq_len,
                     returncode=2)
    assert f"argument --seq-lens: {seq_len} outside 2..65535" in err


def canned_run(wall_s, correct=True, digest="d1"):
    """The stdout of one perfbench/run.py --trace 0 invocation, cut down to
    the lines bench_pairs reads."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"},
               "mb_per_s": {"value": 1.0 / wall_s, "unit": "MB/s"}}
    last = {"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
            "metrics": metrics}
    return f"environment: {{}}\noutput digest: {digest}\n{json.dumps(last)}\n"


BENCH_DECLARED = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "mb_per_s", "unit": "MB/s", "better": "higher", "bound": 0.25},
]


def bench_summary(parent_walls, change_walls, **change):
    from bench_pairs import parse_result, summarize

    pairs = [(parse_result(canned_run(p)), parse_result(canned_run(c, **change)))
             for p, c in zip(parent_walls, change_walls)]
    return summarize(pairs, BENCH_DECLARED)


def test_bench_pairs_claim_holds_on_nine_wins_beyond_the_parent_iqr():
    parent = [0.120, 0.121, 0.122, 0.123, 0.124, 0.125, 0.126, 0.127, 0.128, 0.100]
    change = [0.100, 0.101, 0.102, 0.103, 0.104, 0.105, 0.106, 0.107, 0.108, 0.109]
    lines = bench_summary(parent, change)
    assert lines[0] == ("pair 1: parent correct=True failed=0/5 digest=d1; "
                        "change correct=True failed=0/5 digest=d1")
    assert lines[10] == "output digests: all equal"
    wall, wall_pairs, mbps, _ = lines[11:]
    # sorted parent runs 0.100, 0.120 .. 0.128: quartiles at positions 2.25
    # and 6.75 of 0 .. 9, 0.12125 and 0.12575
    assert wall == ("wall_s (s, lower is better): parent 0.1235 [0.1212, 0.1258], "
                    "change 0.1045 [0.1022, 0.1067], change -15.4% (bound 0.25), "
                    "won 9/10 pairs, median gain 0.0190 vs parent IQR 0.0045: "
                    "regression none, claim holds")
    assert wall_pairs == "  per pair, parent/change: " + " ".join(
        f"{p:.4f}/{c:.4f}" for p, c in zip(parent, change))
    assert "won 9/10 pairs" in mbps and mbps.endswith("claim holds")


@pytest.mark.parametrize("parent, change, why", [
    # 8 of 10 pairs won, whatever the medians
    ([0.12] * 8 + [0.10] * 2, [0.10] * 8 + [0.11] * 2, "won 8/10 pairs"),
    # every pair won, by less than the parent's spread
    ([0.10, 0.20, 0.10, 0.20], [0.09, 0.19, 0.09, 0.19], "won 4/4 pairs"),
])
def test_bench_pairs_claim_not_met(parent, change, why):
    wall = bench_summary(parent, change)[len(parent) + 1]
    assert why in wall and wall.endswith("claim not met")


@pytest.mark.parametrize("parent, change, verdict", [
    # medians 0.100 and 0.120: 20% worse, within the bound of 25%
    ([0.099, 0.100, 0.101, 0.100], [0.119, 0.120, 0.121, 0.120], "none"),
    # medians 0.100 and 0.140: 40% worse, and MB/s 29% worse
    ([0.099, 0.100, 0.101, 0.100], [0.139, 0.140, 0.141, 0.140], "WORSE"),
    # equal medians, but the parent's IQR is 0.10 of a median of 0.15
    ([0.10, 0.20, 0.10, 0.20], [0.10, 0.20, 0.20, 0.10], "unresolved"),
    # as wide a parent spread, which every change run beats
    ([0.10, 0.20, 0.10, 0.20], [0.09, 0.09, 0.08, 0.09], "none"),
])
def test_bench_pairs_no_regression_verdict(parent, change, verdict):
    lines = bench_summary(parent, change)
    wall, mbps = lines[len(parent) + 1], lines[len(parent) + 3]
    assert f": regression {verdict}, claim" in wall
    # MB/s, higher is better, falls as wall_s rises
    if verdict == "WORSE":
        assert ": regression WORSE, claim" in mbps


def test_bench_pairs_reports_failed_runs_and_differing_digests():
    lines = bench_summary([0.1, 0.1], [0.1, 0.1], correct=False, digest="d2")
    assert lines[0].endswith("change correct=False failed=1/5 digest=d2")
    assert lines[2] == "output digests: DIFFER"
    assert "won 0/2 pairs" in lines[3] and lines[3].endswith("claim not met")
