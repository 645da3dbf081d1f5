#!/usr/bin/env python3
"""NSW benchmark: one command for every workload, metric and check.

    python3 benchmark/run.py --workload offline_ref --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py                 # every workload, end-to-end metrics
    python3 benchmark/run.py --self-test     # the output check catches a flipped action
    python3 benchmark/run.py --make-reference

Run it from the repository root. Each workload runs in a fresh worker process
with OpenBLAS and OpenMP pinned to one thread and ``src`` as its only import
path for the ``nsw`` package. The metrics and their units are the ones listed
in BENCHMARK.json; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones. The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def run_worker(args, workdir: Path, timeout=None) -> subprocess.CompletedProcess:
    """Run worker.py; with a timeout its standard output is captured."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--workdir", str(workdir)]
    return subprocess.run(cmd, env=worker_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE if timeout else None, text=True)


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int, build: Path) -> dict:
    """Run one workload in its own worker and shape its result line."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=build))
    try:
        proc = run_worker(["measure", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)], workdir, WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark: {workload} worker exited with code {proc.returncode}")
    raw = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in raw["metrics"]]
    if missing:
        raise SystemExit(f"benchmark: {workload} did not report {missing}")
    print(f"# {workload} seed {seed}: env {json.dumps(raw['env'])}")
    print(f"# {workload} pass walls (s): {' '.join(f'{w:.4f}' for w in raw['walls'])}")
    for problem in raw["problems"]:
        print(f"# {workload} MISMATCH: {problem}", file=sys.stderr)
    metrics = {}
    for m in wanted:
        value = raw["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {workload} {m['name']} = {value:.6g} {m['unit']} ({m['better']} is better)")
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"], "failed": raw["failed"],
            "metrics": metrics}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*names, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check that a flipped action is caught")
    ap.add_argument("--make-reference", action="store_true", help="rewrite reference/ from the current code")
    args = ap.parse_args()

    if not (ROOT / "src" / "nsw" / "__init__.py").is_file():
        print(f"benchmark: no nsw package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)

    if args.self_test or args.make_reference:
        workdir = Path(tempfile.mkdtemp(prefix="worker-", dir=build))
        try:
            return run_worker(["selftest" if args.self_test else "reference"], workdir).returncode
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    chosen = names if args.workload == "all" else [args.workload]
    results = [measure(spec, w, args.seed, args.seconds, args.trace, build) for w in chosen]
    if len(results) == 1:
        print(json.dumps(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}/{k}": v for w, r in zip(chosen, results) for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
