"""Benchmark of ``oel``: seeded fuzz throughput on three workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fuzz-all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Each workload runs in worker processes started from
``src/`` of the checkout with BLAS pinned to one thread. After the timed
phase the worker checks the outputs; the last line printed is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Every
result is also written, with the environment it was measured in, to
``.perfbench/results/``. See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import refspeed
from envinfo import THREAD_VARS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
SETUP_LAUNCHES = 15  # setup_s is the median over this many process launches
BLAS_THREADS = "1"
WORKER_TIMEOUT_S = 150


class WorkerError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    env.pop("OEL_DEFAULT_TOL", None)  # the workloads run at the default tolerance
    return env


def launch(root: Path, args: list) -> tuple:
    """Start a worker; returns (seconds from launch to its ready line, its
    final JSON line or None). The worker is killed after WORKER_TIMEOUT_S."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or not ready.startswith('{"ready"'):
        raise WorkerError(f"worker {' '.join(args)} exited with {code}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def setup_launches(root: Path, args: list) -> list:
    """(seconds to ready as measured, at reference speed) of SETUP_LAUNCHES
    launches of a worker that exits once it is ready."""
    out = []
    refspeed.chunk()  # the first call pays one-time costs
    before = refspeed.slowdown(0.0)
    for _ in range(SETUP_LAUNCHES):
        setup, _ = launch(root, args + ["--mode", "probe"])
        after = refspeed.slowdown(setup)
        out.append((setup, refspeed.at_reference_speed(setup, before, after)))
        before = after
    return out


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = root / ".perfbench"
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--out", str(out_dir)]
    setups = []
    if trace:
        _, result = launch(root, base + ["--mode", "traced"])
        metrics = {name: result["metrics"][name] for name in PER_LAYER}
    else:
        setups = setup_launches(root, base)
        _, result = launch(root, base + ["--mode", "timed"])
        measured = dict(result["metrics"], setup_s=statistics.median(ref for _, ref in setups))
        metrics = {name: measured[name] for name in END_TO_END}
    if Path(result["oel"]) != (root / "src" / "oel").resolve():
        raise WorkerError(f"worker imported oel from {result['oel']}, not from this checkout")
    record = dict(result, workload=workload, trace=int(trace), setup_launches=setups, metrics=metrics)
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def summary_lines(record: dict) -> list:
    units = PER_LAYER if record["trace"] else END_TO_END
    name = record["workload"]
    lines = [f"{name}: {metric} = {value:.6g} {units[metric]}" for metric, value in record["metrics"].items()]
    lines.append(f"{name}: attempted={record['attempted']} failed={record['failed']} not_applicable={record['na']}")
    lines.append(f"{name}: checks " + " ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in record["checks"].items()))
    env = record["env"]
    lines.append(
        f"{name}: env nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
        f"blas={env['blas']['name']} {env['blas']['version']} blas_threads={env['blas_threads']} seed={env['seed']}"
    )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Seeded fuzz-throughput benchmark of oel.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase of each workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oel" / "__init__.py").is_file():
        print(f"error: no oel source under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(root, name, args.seed, args.seconds, bool(args.trace)))
            print("\n".join(summary_lines(records[-1])), flush=True)
    except (WorkerError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
        for r in records
        for k, v in r["metrics"].items()
    }
    correct = all(all(r["checks"].values()) for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
