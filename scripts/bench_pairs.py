#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, and the claim rule over them.

Runs ``perfbench/run.py --trace 0`` in the parent and the change checkout,
one invocation at a time (two at once would share a checkout's work dir and
the machine), alternating which side goes first. For each end-to-end
metric that the change's ``BENCHMARK.json`` declares, it prints each side's
median and quartiles, the pairs the change won (ties count for neither),
the no-regression verdict a change that claims no gain needs (none, WORSE
or unresolved; see ``regression``), whether the claim rule holds (the
change won at least nine tenths of the pairs, and the medians differ, in
the metric's better direction, by more than the parent's interquartile
range) and each pair's values. It also prints each run's ``correct`` and
``failed`` and its output digest.

Usage:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload templated_neardup --seed 6007 --pairs 10 --seconds 8
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
DIGEST_PREFIX = "output digest: "


def parse_result(stdout: str) -> dict:
    """One ``perfbench/run.py`` invocation's result: its last stdout line,
    which holds ``correct``, ``failed`` and the metrics, plus the output
    digest it printed (None if it printed none)."""
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(
        (line[len(DIGEST_PREFIX):] for line in lines if line.startswith(DIGEST_PREFIX)), None
    )
    return result


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {proc.returncode}: "
                           f"{proc.stderr.strip().splitlines()[-1:]}")
    return parse_result(proc.stdout)


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the
    sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def regression(parent: list, change: list, lower: bool, bound: float) -> str:
    """The no-regression verdict of one metric's runs: ``WORSE`` when the
    change's median is worse than the parent's by more than *bound*, a
    share of the parent's median; else ``unresolved`` when the parent's
    interquartile range is wider than that share and not every change run
    beats every parent run; else ``none``."""
    p1, p_med, p3 = quartiles(parent)
    c_med = quartiles(change)[1]
    if (c_med - p_med if lower else p_med - c_med) > bound * p_med:
        return "WORSE"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    return "unresolved" if p3 - p1 > bound * p_med and not beats_all else "none"


def summarize(pairs: list, declared: list) -> list[str]:
    """The report lines of *pairs*, ``(parent result, change result)`` as
    parse_result gives them, for the end-to-end metrics *declared* (the
    ``end_to_end`` entries of BENCHMARK.json)."""
    out = []
    for i, (parent, change) in enumerate(pairs, start=1):
        out.append(
            f"pair {i}: " + "; ".join(
                f"{side} correct={r['correct']} failed={r['failed']}/{r['attempted']} "
                f"digest={r['digest']}" for side, r in (("parent", parent), ("change", change))
            )
        )
    digests = {r["digest"] for pair in pairs for r in pair}
    out.append(f"output digests: {'all equal' if len(digests) == 1 else 'DIFFER'}")
    for metric in declared:
        name, unit, lower = metric["name"], metric["unit"], metric["better"] == "lower"
        values = [[r["metrics"][name]["value"] for r in pair] for pair in pairs]
        parent_values, change_values = [p for p, _ in values], [c for _, c in values]
        p1, p_med, p3 = quartiles(parent_values)
        c1, c_med, c3 = quartiles(change_values)
        won = sum(c < p if lower else c > p for p, c in values)
        gain = p_med - c_med if lower else c_med - p_med
        holds = won >= WIN_SHARE * len(pairs) and gain > p3 - p1
        verdict = regression(parent_values, change_values, lower, metric["bound"])
        out.append(
            f"{name} ({unit}, {metric['better']} is better): parent {p_med:.4f} "
            f"[{p1:.4f}, {p3:.4f}], change {c_med:.4f} [{c1:.4f}, {c3:.4f}], "
            f"change {(c_med / p_med - 1) * 100:+.1f}% (bound {metric['bound']}), "
            f"won {won}/{len(pairs)} pairs, median gain {gain:.4f} vs parent IQR "
            f"{p3 - p1:.4f}: regression {verdict}, claim {'holds' if holds else 'not met'}"
        )
        out.append("  per pair, parent/change: "
                   + " ".join(f"{p:.4f}/{c:.4f}" for p, c in values))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error(f"argument --pairs: {args.pairs} < 1")
    declared = json.loads((args.change / "BENCHMARK.json").read_text("utf-8"))["end_to_end"]
    pairs = []
    for i in range(args.pairs):
        sides = {}
        # the parent goes first in odd pairs, the change in even ones
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            sides[side] = run_side(getattr(args, side), args.workload, args.seed,
                                   args.seconds)
        pairs.append((sides["parent"], sides["change"]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}, {args.pairs} pairs of "
          f"--seconds {args.seconds} --trace 0")
    print("\n".join(summarize(pairs, declared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
