#!/usr/bin/env python3
"""Pipeline benchmark: end-to-end time, throughput, memory and set-up of
``pipeline.run_pipeline`` per workload, plus traced per-layer timings.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Inputs are generated from the seed once per (workload, seed) into
``.perfbench/<workload>-s<seed>/`` and reused while the generator is
unchanged. Each repeat is one pipeline run in a fresh process
(``child.py``), one at a time, until ``--seconds`` are used up (at least
three repeats). Before each repeat and after the last, a fixed piece of
work (``hostspeed.py``) is timed; end-to-end times are scaled by it to the
speed of a reference host. Every repeat's outputs are checked; a repeat
that raises, fails a check, or writes bytes that differ from the other
repeats counts as failed. With ``--trace 0`` the last stdout line holds the
end-to-end metrics; with ``--trace 1`` traced and untraced repeats
alternate and it holds the per-layer medians of the traced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import hostspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / ".perfbench"

END_TO_END = [
    ("wall_s", "s"),
    ("mb_per_s", "MB/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]
MIN_RUNS = 3
GRACE_S = 90  # a repeat still running this long after --seconds is killed
POLL_S = 0.1


def input_dir(workload: str, seed: int, tiny: bool = False) -> Path:
    """Generate the workload's inputs unless an up-to-date copy exists."""
    key = hashlib.sha256(
        (BENCH / "workloads.py").read_bytes() + f"{workload}:{seed}:{tiny}".encode()
    ).hexdigest()
    d = DATA / f"{workload}-s{seed}{'-tiny' if tiny else ''}"
    stamp = d / "inputs.key"
    if stamp.is_file() and stamp.read_text() == key:
        return d
    shutil.rmtree(d, ignore_errors=True)
    tmp = d.with_name(d.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    workloads.generate(workload, seed, tmp, tiny=tiny)
    (tmp / "inputs.key").write_text(key)
    tmp.rename(d)
    return d


def _tree_rss_kib(root_pid: int) -> int:
    """Summed resident memory of a process and all its descendants."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat", "rb") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parent_of[int(entry)] = int(stat[stat.rindex(b")") + 2 :].split()[1])
    tree = {root_pid}
    grew = True
    while grew:
        new = {p for p, pp in parent_of.items() if pp in tree and p not in tree}
        tree |= new
        grew = bool(new)
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmRSS:"):
                        total += int(line.split()[1])
        except OSError:
            continue
    return total


def run_once(d: Path, workload: str, traced: bool, kill_at: float, corrupt: bool = False) -> dict:
    """One pipeline run in a fresh process; returns its measurements. The
    child is killed if it is still running at monotonic time *kill_at*."""
    shutil.rmtree(d / "work", ignore_errors=True)
    result_path = d / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--result", result_path.name]
    if traced:
        cmd += ["--spans", "spans.tsv"]
    if corrupt:
        cmd += ["--corrupt"]
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    peak_kib = 0
    run = {"traced": traced, "failures": []}
    with open(d / "child.log", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=d, env=env, stdout=log, stderr=log)
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > kill_at:
                    run["timed_out"] = True
                    break
                peak_kib = max(peak_kib, _tree_rss_kib(proc.pid))
                time.sleep(POLL_S)
        finally:
            if not pid:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        tail = (d / "child.log").read_text(errors="replace")[-2000:]
        run["failures"].append(f"child exited {proc.returncode}: {tail}")
        return run
    child = json.loads(result_path.read_text())
    run["failures"] = child["failures"]
    if "wall_s" in child:
        run.update(
            wall_s=child["wall_s"],
            setup_s=child["t_ready"] - t0,
            peak_rss_mb=max(peak_kib, usage.ru_maxrss) / 1024,
            files=child["files"],
            layers=child.get("layers"),
        )
    return run


def measure(d: Path, workload: str, seconds: float, trace: bool,
            corrupt_run=None) -> tuple[list, list]:
    """Repeat runs until *seconds* are used (at least MIN_RUNS); with
    *trace*, traced and untraced runs alternate, traced first. Returns the
    runs and the host-speed samples taken before each run and after the
    last."""
    subprocess.run(  # compile bytecode and warm the page cache, untimed
        [sys.executable, "-c", "import corpusprep.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
    )
    host = hostspeed.HostSpeed()
    host.sample()  # warm-up, discarded
    runs = []
    speed = []
    durations = []
    deadline = time.monotonic() + seconds
    kill_at = deadline + GRACE_S
    while True:
        t = time.monotonic()
        speed += [host.sample() for _ in range(hostspeed.SAMPLES)]
        traced = trace and len(runs) % 2 == 0
        runs.append(run_once(d, workload, traced, kill_at, corrupt=len(runs) == corrupt_run))
        durations.append(time.monotonic() - t)
        if runs[-1].get("timed_out") or len(runs) >= MIN_RUNS and (
            time.monotonic() + statistics.median(durations) > deadline
        ):
            speed += [host.sample() for _ in range(hostspeed.SAMPLES)]
            return runs, speed


def check_reproducible(runs: list) -> str:
    """Mark runs whose outputs differ from the most common output set;
    returns the digest of that set."""
    digests = [
        hashlib.sha256(json.dumps(r["files"], sort_keys=True).encode()).hexdigest()
        if "files" in r else None
        for r in runs
    ]
    counts = Counter(x for x in digests if x is not None)
    if not counts:
        return ""
    reference = counts.most_common(1)[0][0]
    for run, digest in zip(runs, digests):
        if digest is not None and digest != reference:
            run["failures"].append("outputs differ from the other runs of this seed")
    return reference


def host_scales(speed: list, n_runs: int) -> list:
    """Per run, the factor that turns seconds measured on this host into
    seconds on a host where one sample takes REF_S: ``(REF_S / m) **
    SENSITIVITY``, where m is the median of the samples taken just before
    and just after the run."""
    n = hostspeed.SAMPLES
    return [
        (hostspeed.REF_S / statistics.median(speed[i * n:(i + 2) * n])) ** hostspeed.SENSITIVITY
        for i in range(n_runs)
    ]


def summarize(runs: list, speed: list, input_bytes: int, trace: bool) -> dict:
    """The named metrics over the completed runs.

    ``wall_s`` and ``setup_s`` are medians over the untraced repeats of
    each repeat's time scaled by its ``host_scales`` factor: on a shared
    2-vCPU VM the host's speed drifts by up to 2x over minutes, which no
    estimator over one run's repeats removes. ``peak_rss_mb`` is a median
    and is not scaled.
    """
    scales = host_scales(speed, len(runs))
    plain = [(r, k) for r, k in zip(runs, scales) if "wall_s" in r and not r["traced"]]
    if not plain:
        raise RuntimeError("no run completed")
    if not trace:
        wall = statistics.median(r["wall_s"] * k for r, k in plain)
        values = {
            "wall_s": wall,
            "mb_per_s": input_bytes / 1e6 / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _ in plain),
            "setup_s": statistics.median(r["setup_s"] * k for r, k in plain),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    traced = [r["layers"] for r in runs if "wall_s" in r and r["traced"]]
    if not traced:
        raise RuntimeError("no traced run completed")
    values = {
        name: statistics.median(t[name] for t in traced) for name, _ in spans.PER_LAYER
        if name != "pipeline.trace_overhead_s"
    }
    wall = statistics.median(r["wall_s"] for r, _ in plain)
    values["pipeline.trace_overhead_s"] = values["pipeline.traced_wall_s"] - wall
    return {name: {"value": values[name], "unit": unit} for name, unit in spans.PER_LAYER}


def environment() -> dict:
    cpu = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg": os.getloadavg(),
    }


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    d = input_dir(workload, seed)
    runs, speed = measure(d, workload, seconds, trace)
    digest = check_reproducible(runs)
    metrics = summarize(runs, speed, (d / "corpus.jsonl").stat().st_size, trace)
    env["loadavg_end"] = os.getloadavg()
    failed = sum(1 for r in runs if r["failures"])
    print(f"environment: {json.dumps(env)}")
    print(f"workload {workload} seed {seed}: {len(runs)} runs, "
          f"{sum(r['traced'] for r in runs)} traced, failed_ratio {failed / len(runs):.3f}")
    print(f"output digest: {digest}")
    plain = [r["wall_s"] for r in runs if "wall_s" in r and not r["traced"]]
    print(f"untraced wall_s over {len(plain)} repeats, unscaled: min {min(plain):.4f} "
          f"median {statistics.median(plain):.4f} max {max(plain):.4f}")
    print(f"host-speed sample over {len(speed)} samples: min {min(speed):.4f} "
          f"median {statistics.median(speed):.4f} max {max(speed):.4f} s")
    n = hostspeed.SAMPLES
    for i, r in enumerate(runs):
        kind = "traced" if r["traced"] else "untraced"
        print(f"  {kind} run: wall_s {r.get('wall_s', 'n/a')} setup_s {r.get('setup_s', 'n/a')} "
              f"host samples before {' '.join(f'{x:.4f}' for x in speed[i * n:(i + 1) * n])}")
        for f in r["failures"]:
            print(f"failed run: {f}")
    print(f"  host samples after {' '.join(f'{x:.4f}' for x in speed[-n:])}")
    print("stage log of the last run:")
    sys.stdout.write((d / "child.log").read_text(errors="replace"))
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6f} {m['unit']}")
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


def self_test() -> int:
    """Tiny inputs: every metric named in BENCHMARK.json is emitted with its
    unit, and one run with a flipped byte in packed.bin counts as failed."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.GENERATORS:
        d = input_dir(workload, 0, tiny=True)
        size = (d / "corpus.jsonl").stat().st_size
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            runs, speed = measure(d, workload, 0, trace, corrupt_run=None if trace else 1)
            check_reproducible(runs)
            failed = sum(1 for r in runs if r["failures"])
            if failed != (0 if trace else 1):
                problems.append(f"{workload} trace={trace}: {failed} failed runs")
            metrics = summarize(runs, speed, size, trace)
            for m in declared[section]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{workload}: {m['name']} missing or wrong unit")
            if len(metrics) != len(declared[section]):
                problems.append(f"{workload}: {len(metrics)} {section} metrics emitted")
        print(f"self-test {workload}: done")
    for p in problems:
        print(f"self-test problem: {p}")
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    # On SIGTERM, unwind so that run_once kills and reaps the running repeat.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "corpusprep" / "pipeline.py").is_file():
        print(f"error: no corpusprep sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
