"""In-process side of the benchmark; run.py starts it with pinned threads.

    worker.py measure --workload W --seed N --seconds S --trace 0|1 --workdir D
    worker.py reference --workdir D     # rewrite reference/ from the current code
    worker.py selftest --workdir D      # show that the output check catches a flip

``measure`` prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from layers import TARGETS, layer_metrics
from tracer import Tracer, install
from nsw.signals import Action
from workloads import CODES, GATED, P_S_TOL, POOL, WORKLOADS


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def checked_pass(wl, state, ref):
    """One pass and its check; returns (pass or None, list of problems)."""
    try:
        p = wl.run_pass(state)
    except Exception:
        return None, [traceback.format_exc()]
    return p, wl.check(p.output, ref)


def pass_counts(p) -> dict:
    codes = p.output.get("codes")
    if codes is None:  # research_table decides no bars
        return {"decided": 0, "gated": 0, "degenerate": 0}
    return {"decided": len(codes), "gated": int(np.count_nonzero(codes == GATED)),
            "degenerate": p.output["degenerate"]}


def measure(args) -> dict:
    wl = WORKLOADS[args.workload]
    ref = wl.reference(args.seed)
    passes, problems, setup_s, gen_s = [], [], [], []
    attempted = failed = 0

    def attempt(state):
        nonlocal attempted, failed
        attempted += 1
        p, found = checked_pass(wl, state, ref)
        if found:
            failed += 1
            problems.extend(found[: max(0, 5 - len(problems))])
        return p

    # Machine speed drifts over seconds, so set-ups are spread over the run: a
    # fresh set-up (same seed, same inputs) precedes every pass. A pass starts
    # only if the median pass so far still fits in the time left.
    start = perf_counter()
    while not attempted or perf_counter() - start + statistics.median(p.wall for p in passes) <= args.seconds:
        t0 = perf_counter()
        state = wl.setup(args.seed, args.workdir)
        setup_s.append(perf_counter() - t0)
        gen_s.append(state.gen_s)
        gc.collect()
        p = attempt(state)
        if p is None:
            break
        passes.append(p)
    if not passes:
        raise RuntimeError("the pass raised:\n" + "\n".join(problems))

    wall = statistics.median(p.wall for p in passes)
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "us_per_bar": statistics.median(1e6 * p.wall / p.bars for p in passes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        tracer = Tracer()
        with install(tracer, TARGETS):
            traced = attempt(state)
        if traced is None:
            raise RuntimeError("the traced pass raised:\n" + "\n".join(problems))
        spans_dir = args.workdir.parent / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}.json")
        metrics = layer_metrics(tracer, traced.wall, wall, pass_counts(traced))
        metrics["timeseries.gen_s"] = statistics.median(gen_s)
        latency = [x for p in passes for x in p.extra.get("latency", ())]
        p50, p99 = np.percentile(latency, [50, 99]) * 1e6 if latency else (0.0, 0.0)
        metrics["step_p50_us"] = float(p50)
        metrics["step_p99_us"] = float(p99)
        metrics["step_samples"] = len(latency)
        metrics["heap_b_per_bar"] = wl.heap_b_per_bar(state) if hasattr(wl, "heap_b_per_bar") else 0.0
        for key in ("compare_s", "parcel_s"):
            metrics[key] = statistics.median(p.extra.get(key, 0.0) for p in passes)
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics,
            "walls": [p.wall for p in passes], "env": environment()}


def make_references(workdir: Path) -> None:
    """Store every workload's outputs on every pool member, and the NSW traces
    research_table replays, from the code as it is now. Only regenerate when a
    change is meant to alter the outputs."""
    table = WORKLOADS["research_table"]
    table.save_traces({m: table.compute_traces(m) for m in range(1, POOL + 1)})
    for wl in WORKLOADS.values():
        outputs = {}
        for member in range(1, POOL + 1):
            outputs[member] = wl.run_pass(wl.setup(member, workdir)).output
            print(f"{wl.name} member {member} done", file=sys.stderr)
        wl.save_references(outputs)


def selftest(workdir: Path) -> int:
    """Show that the output check passes on the true outputs and catches one
    flipped action, a p_s moved past its tolerance and one moved table cell."""
    offline, table = WORKLOADS["offline_ref"], WORKLOADS["research_table"]
    ref = offline.reference(1)
    output = offline.run_pass(offline.setup(1, workdir)).output
    bar = int(np.flatnonzero(ref["codes"] == CODES[(Action.BUY, False)])[0])

    def changed(key, index, value):
        copy = dict(ref, **{key: ref[key].copy()})
        copy[key][index] = value
        return copy

    sell = CODES[(Action.SELL, False)]
    tref = table.reference(1)
    moved_cell = json.loads(json.dumps(tref))
    moved_cell["cells"]["SYN-B"]["BB"] *= 1.0 + 1e-6
    cases = [
        ("offline_ref output matches its reference", offline.check(output, ref), False),
        (f"buy at bar {ref['start'] + bar} flipped to sell is caught", offline.check(output, changed("codes", bar, sell)), True),
        ("p_s moved by 10x its tolerance is caught",
         offline.check(output, changed("p_s", bar, ref["p_s"][bar] + 10 * P_S_TOL)), True),
        ("p_s moved by a tenth of its tolerance passes",
         offline.check(output, changed("p_s", bar, ref["p_s"][bar] + 0.1 * P_S_TOL)), False),
        ("research_table reference matches itself", table.check(tref, tref), False),
        ("research_table cell moved by 1e-6 is caught", table.check(moved_cell, tref), True),
    ]
    wrong = 0
    for label, found, expect_failure in cases:
        ok = bool(found) == expect_failure
        wrong += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}" + (f" ({found[0]})" if found else ""))
    return 1 if wrong else 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("command", choices=("measure", "reference", "selftest"))
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()
    logging.getLogger("nsw").setLevel(logging.ERROR)  # keep per-pass warnings off stderr
    if args.command == "measure":
        print(json.dumps(measure(args)))
    elif args.command == "reference":
        make_references(args.workdir)
    else:
        sys.exit(selftest(args.workdir))


if __name__ == "__main__":
    main()
