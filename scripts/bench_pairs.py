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

With ``--record PATH`` it also writes the runs to the JSON file PATH, under
the workload's name, beside the workloads PATH already holds: each pair's
end-to-end metrics and which side ran first, each side's median and
quartiles, the wins and the verdicts, and for both checkouts the commit
(``git describe --always --dirty``), the ``src/corpusprep`` line count and
the Python and numpy versions.

Usage:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload templated_neardup --seed 6007 --pairs 10 --seconds 8 \\
        [--record BENCH_37.json]
"""

from __future__ import annotations

import argparse
import json
import platform
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


def compare(pairs: list, metric: dict) -> dict:
    """One declared end-to-end *metric* over *pairs*: each pair's values,
    parent then change; each side's quartiles; the pairs the change won;
    the median gain, in the better direction, against the parent's
    interquartile range; the regression verdict and whether the claim
    holds."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = [[r["metrics"][name]["value"] for r in pair] for pair in pairs]
    parent_values, change_values = [p for p, _ in values], [c for _, c in values]
    parent, change = quartiles(parent_values), quartiles(change_values)
    won = sum(c < p if lower else c > p for p, c in values)
    gain = parent[1] - change[1] if lower else change[1] - parent[1]
    return {
        "values": values,
        "parent": list(parent),
        "change": list(change),
        "won": won,
        "gain": gain,
        "parent_iqr": parent[2] - parent[0],
        "regression": regression(parent_values, change_values, lower, metric["bound"]),
        "claim_holds": won >= WIN_SHARE * len(pairs) and gain > parent[2] - parent[0],
    }


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
        c = compare(pairs, metric)
        (p1, p_med, p3), (c1, c_med, c3) = c["parent"], c["change"]
        out.append(
            f"{metric['name']} ({metric['unit']}, {metric['better']} is better): parent "
            f"{p_med:.4f} [{p1:.4f}, {p3:.4f}], change {c_med:.4f} [{c1:.4f}, {c3:.4f}], "
            f"change {(c_med / p_med - 1) * 100:+.1f}% (bound {metric['bound']}), "
            f"won {c['won']}/{len(pairs)} pairs, median gain {c['gain']:.4f} vs parent IQR "
            f"{c['parent_iqr']:.4f}: regression {c['regression']}, "
            f"claim {'holds' if c['claim_holds'] else 'not met'}"
        )
        out.append("  per pair, parent/change: "
                   + " ".join(f"{p:.4f}/{c:.4f}" for p, c in c["values"]))
    return out


def checkout_facts(checkout: Path) -> dict:
    """The commit of *checkout* (None outside a git work tree) and the line
    count of its ``src/corpusprep``."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    lines = sum(len(p.read_text("utf-8").splitlines())
                for p in sorted((checkout / "src" / "corpusprep").glob("*.py")))
    return {"commit": proc.stdout.strip() if proc.returncode == 0 else None,
            "src_lines": lines}


def record(path: Path, workload: dict, pairs: list, declared: list, facts: dict) -> None:
    """Write *pairs* of one *workload* (its name, seed, pair count and
    seconds) to the JSON file *path*, keeping the other workloads it holds;
    *facts* gives each side's checkout_facts and the versions."""
    data = json.loads(path.read_text("utf-8")) if path.exists() else {"workloads": {}}
    metrics = {}
    for metric in declared:
        c = compare(pairs, metric)
        metrics[metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": dict(zip(("q1", "median", "q3"), c["parent"])),
            "change": dict(zip(("q1", "median", "q3"), c["change"])),
            "won": c["won"], "gain": c["gain"], "parent_iqr": c["parent_iqr"],
            "regression": c["regression"], "claim_holds": c["claim_holds"],
        }
    data["workloads"][workload["name"]] = dict(
        workload,
        facts=facts,
        pairs=[
            {"first": "parent" if i % 2 == 0 else "change",
             **{side: {"correct": r["correct"], "failed": r["failed"],
                       "attempted": r["attempted"], "digest": r["digest"],
                       **{m["name"]: r["metrics"][m["name"]]["value"] for m in declared}}
                for side, r in (("parent", parent), ("change", change))}}
            for i, (parent, change) in enumerate(pairs)
        ],
        metrics=metrics,
    )
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--record", type=Path, help="JSON file to add this workload's runs to")
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
    if args.record:
        import numpy

        facts = {"parent": checkout_facts(args.parent), "change": checkout_facts(args.change),
                 "python": platform.python_version(), "numpy": numpy.__version__}
        workload = {"name": args.workload, "seed": args.seed, "pairs_run": args.pairs,
                    "seconds": args.seconds}
        record(args.record, workload, pairs, declared, facts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
