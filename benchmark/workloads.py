"""The benchmark's three workloads and the check of their outputs.

Each workload is a closed loop in one process: ``setup`` builds its inputs
from the seed, ``run_pass`` does the timed work once and returns what it
produced, and ``check`` compares that with the stored reference. Why each
workload exists is written in README.md next to this file.

Seeds map onto a pool of ``POOL`` input sets whose outputs are stored under
``reference/``: seed ``s`` uses member ``(s - 1) mod POOL + 1``, so seed 1 is
the ROADMAP reference series and every integer seed has a reference.
"""

from __future__ import annotations

import gc
import json
import math
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import nsw.backtest as backtest
import nsw.timeseries as timeseries
from nsw.config import RunConfig
from nsw.signals import Action, Signal, SignalConfig, SignalEngine, SignalTrace
from nsw.wavelets import make_wavelet

POOL = 10
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

P_S_TOL = 1e-12  # absolute, per decided bar
Z_RTOL = 1e-9  # relative, on every final_Z
HEAP_TRACE_DEPTH = 6  # frames per traced block: enough to see nsw/stationary.py under numpy calls

# per-bar outcome: the action, with holds split by the gate flag
CODES = {(Action.HOLD, False): 0, (Action.BUY, False): 1, (Action.SELL, False): 2, (Action.HOLD, True): 3}
GATED = CODES[(Action.HOLD, True)]
DECODE = {code: key for key, code in CODES.items()}


def pool_member(seed: int) -> int:
    return (seed - 1) % POOL + 1


@dataclass
class Pass:
    wall: float  # seconds in the timed region
    bars: int  # decided bars (engine workloads) or loaded bars (research_table)
    output: dict  # what check() compares with the reference
    extra: dict = field(default_factory=dict)  # workload-specific timings


def engine_output(trace: SignalTrace, final_z: float, degenerate_bars: int) -> dict:
    return {
        "start": trace.start,
        "codes": np.array([CODES[(s.kind, s.gated)] for s in trace.signals], dtype=np.uint8),
        "p_s": np.array([s.p_s for s in trace.signals], dtype=np.float64),
        "final_z": final_z,
        "degenerate": degenerate_bars,
    }


def _z_differs(a: float, b: float) -> bool:
    return not math.isclose(a, b, rel_tol=Z_RTOL, abs_tol=0.0)


class EngineWorkload:
    """Shared reference handling of the two workloads that run the engine."""

    name = ""

    def reference(self, seed: int) -> dict:
        with np.load(REFERENCE_DIR / f"{self.name}.npz", allow_pickle=False) as ref:
            k = list(ref["members"]).index(pool_member(seed))
            return {"start": int(ref["start"][k]), "codes": ref["codes"][k], "p_s": ref["p_s"][k],
                    "final_z": float(ref["final_z"][k])}

    @staticmethod
    def check(output: dict, ref: dict) -> list[str]:
        n = len(ref["codes"])
        if output["start"] != ref["start"] or len(output["codes"]) != n:
            return [f"decided bars {output['start']}+{len(output['codes'])}, reference {ref['start']}+{n}"]
        problems = []
        flips = np.flatnonzero(output["codes"] != ref["codes"])
        if flips.size:
            problems.append(f"{flips.size} bar outcomes differ, first at bar {ref['start'] + int(flips[0])}")
        dev = float(np.max(np.abs(output["p_s"] - ref["p_s"]), initial=0.0))
        if not dev <= P_S_TOL:
            problems.append(f"p_s differs by up to {dev:.3g} (tolerance {P_S_TOL:g})")
        if _z_differs(output["final_z"], ref["final_z"]):
            problems.append(f"final_Z {output['final_z']!r}, reference {ref['final_z']!r}")
        return problems

    def save_references(self, outputs: dict) -> None:
        members = sorted(outputs)
        np.savez_compressed(
            REFERENCE_DIR / f"{self.name}.npz",
            members=np.array(members),
            start=np.array([outputs[m]["start"] for m in members]),
            codes=np.stack([outputs[m]["codes"] for m in members]),
            p_s=np.stack([outputs[m]["p_s"] for m in members]),
            final_z=np.array([outputs[m]["final_z"] for m in members]),
        )


@dataclass
class SeriesState:
    series: object
    gen_s: float


class OfflineRef(EngineWorkload):
    """Batch entry point on the ROADMAP reference series: ``run`` then accounting."""

    name = "offline_ref"
    n_bars = 5000

    def setup(self, seed: int, workdir: Path) -> SeriesState:
        t0 = perf_counter()
        series = timeseries.make_ou_price_series(self.n_bars, seed=pool_member(seed), rate=0.003, vol=0.01)
        return SeriesState(series, perf_counter() - t0)

    def run_pass(self, st: SeriesState) -> Pass:
        t0 = perf_counter()
        engine = SignalEngine(SignalConfig(shift_len=16))
        trace = engine.run(st.series)
        report = backtest.run_backtest(backtest.TraceSource(trace, "NSW"), st.series)
        wall = perf_counter() - t0
        return Pass(wall, len(trace.signals), engine_output(trace, report.final_z, engine.degenerate_bars))


class LiveFeed(EngineWorkload):
    """One engine fed bar by bar through ``step``, the live trader's path.

    The engine uses the CLI defaults (``shift_len=64``, Haar, two levels,
    degree 3, 1024-node grid) with the convolution density."""

    name = "live_feed"
    n_bars = 4000

    def setup(self, seed: int, workdir: Path) -> SeriesState:
        t0 = perf_counter()
        series = timeseries.make_ou_price_series(self.n_bars, seed=1000 + pool_member(seed), rate=0.003, vol=0.01)
        return SeriesState(series, perf_counter() - t0)

    @staticmethod
    def _engine() -> SignalEngine:
        return SignalEngine(SignalConfig(shift_len=64, density_mode="convolution"))

    def run_pass(self, st: SeriesState) -> Pass:
        prices = st.series.prices.tolist()
        signals, latency = [], []
        clock = perf_counter
        t0 = clock()
        engine = self._engine()
        warm = engine.min_history - 1
        for price in prices[:warm]:
            engine.extend(price)
        for price in prices[warm:]:
            t = clock()
            signals.append(engine.step(price))
            latency.append(clock() - t)
        wall = clock() - t0
        trace = SignalTrace(start=warm, signals=signals)
        report = backtest.run_backtest(backtest.TraceSource(trace, "NSW"), st.series)
        return Pass(wall, len(signals), engine_output(trace, report.final_z, engine.degenerate_bars),
                    {"latency": latency})

    def heap_b_per_bar(self, st: SeriesState) -> float:
        """Heap retained per bar over the second half of one feed, from
        tracemalloc. The signals are dropped, so what stays is engine state.

        Blocks allocated under ``nsw/stationary.py`` are left out: they are the
        density cache, which holds at most ``shift_len + 2`` densities but whose
        fill swings by about 1 MB with the fit success rate, enough to hide the
        unbounded history growth in either direction."""
        prices = st.series.prices.tolist()
        engine = self._engine()
        warm = engine.min_history - 1
        half = warm + (len(prices) - warm) // 2
        for price in prices[:warm]:
            engine.extend(price)
        for price in prices[warm:half]:
            engine.step(price)
        gc.collect()
        tracemalloc.start(HEAP_TRACE_DEPTH)
        try:
            for price in prices[half:]:
                engine.step(price)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        kept = snapshot.filter_traces([tracemalloc.Filter(False, "*/nsw/stationary.py", all_frames=True),
                                       tracemalloc.Filter(False, tracemalloc.__file__)])
        return sum(stat.size for stat in kept.statistics("filename")) / (len(prices) - half)


# the three scripts/ instruments: symbol, seed offset, OU rate, OU vol, trend
INSTRUMENTS = (
    ("SYN-A", 1, 0.003, 0.010, 0.0002),
    ("SYN-B", 2, 0.005, 0.012, 0.0001),
    ("SYN-C", 3, 0.008, 0.008, 0.0003),
)
THETAS = (0.1, 0.25, 0.5)


@dataclass
class TableState:
    paths: list
    traces: list
    horizon: int
    out_dir: Path
    gen_s: float


class ResearchTable:
    """``nsw compare`` plus ``nsw parcel`` on the three scripts/ instruments.
    The NSW traces are replayed through ``TraceSource``, as the CLI shares a
    trace; they are stored with the references, so the engine does no work
    here at all."""

    name = "research_table"
    n_bars = 4000
    rebalance_len = 16  # short enough that optimize_parcel runs 249 times per theta
    traces_file = REFERENCE_DIR / "research_traces.npz"

    def series(self, member: int) -> list:
        return [
            timeseries.make_ou_price_series(self.n_bars, seed=10 * member + k, symbol=sym, rate=rate, vol=vol,
                                            trend=trend)
            for sym, k, rate, vol, trend in INSTRUMENTS
        ]

    def compute_traces(self, member: int) -> list:
        """NSW traces of the engine the scripts/ experiments use on these
        instruments; only reference generation runs this. (With the CLI's
        shift_len=64 the engine trades 0-17 times per 4000 bars, so most parcel
        windows are flat and the optimizer work swings 20-fold across seeds.)"""
        return [SignalEngine(SignalConfig(shift_len=16)).run(s) for s in self.series(member)]

    def save_traces(self, traces: dict) -> None:
        members = sorted(traces)
        np.savez_compressed(
            self.traces_file,
            members=np.array(members),
            start=np.array([[t.start for t in traces[m]] for m in members]),
            codes=np.array([[[CODES[(s.kind, s.gated)] for s in t.signals] for t in traces[m]] for m in members],
                           dtype=np.uint8),
        )

    def setup(self, seed: int, workdir: Path) -> TableState:
        member = pool_member(seed)
        t0 = perf_counter()
        series = self.series(member)
        gen_s = perf_counter() - t0
        with np.load(self.traces_file, allow_pickle=False) as stored:
            k = list(stored["members"]).index(member)
            traces = [
                SignalTrace(int(start), [Signal(kind, math.nan, math.nan, gated) for kind, gated in map(DECODE.get, codes)])
                for start, codes in zip(stored["start"][k], stored["codes"][k].tolist())
            ]
        paths = []
        for s in series:
            paths.append(workdir / f"{s.symbol}.csv")
            timeseries.write_bars(s, paths[-1])
        out_dir = workdir / "out"
        out_dir.mkdir(exist_ok=True)
        cfg = RunConfig()  # the CLI defaults
        return TableState(paths, traces, cfg.resolved_horizon(make_wavelet(cfg.wavelet)), out_dir, gen_s)

    def run_pass(self, st: TableState) -> Pass:
        clock = perf_counter
        t0 = clock()
        series = [timeseries.load_bars(p) for p in st.paths]
        t1 = clock()
        sources = iter([backtest.TraceSource(t, "NSW") for t in st.traces])
        table = backtest.compare_strategies(series, lambda: next(sources))
        t2 = clock()
        parcels = {
            theta: backtest.run_parcel_backtest(
                [backtest.TraceSource(t, "NSW") for t in st.traces], series, theta=theta,
                rebalance_len=self.rebalance_len, horizon=st.horizon,
            )
            for theta in THETAS
        }
        t3 = clock()
        (st.out_dir / "comparison.txt").write_text(table.to_text() + "\n")
        (st.out_dir / "comparison.json").write_text(table.to_json() + "\n")
        for theta, report in parcels.items():
            backtest.write_weights(report, st.out_dir / f"weights_{theta}.csv")
            backtest.write_equity(report, st.out_dir / f"equity_{theta}.csv")
        wall = clock() - t0
        output = {
            "cells": {sym: {col: float(table.final_z[i, j]) for j, col in enumerate(table.columns)}
                      for i, sym in enumerate(table.instruments)},
            "tuned": {f"{sym} {col}": f"{cfg.kind}{cfg.params}" for (sym, col), cfg in sorted(table.tuned.items())},
            "parcel": {str(theta): {"final_Z": r.final_z, "rebalances": len(r.weight_trajectory)}
                       for theta, r in parcels.items()},
        }
        return Pass(wall, sum(len(s) for s in series), output, {"compare_s": t2 - t1, "parcel_s": t3 - t2})

    def reference(self, seed: int) -> dict:
        with open(REFERENCE_DIR / f"{self.name}.json") as fh:
            return json.load(fh)[str(pool_member(seed))]

    @staticmethod
    def check(output: dict, ref: dict) -> list[str]:
        problems = []
        for sym, row in ref["cells"].items():
            for col, z in row.items():
                got = output["cells"].get(sym, {}).get(col, math.nan)
                if _z_differs(got, z):
                    problems.append(f"cell {sym} {col}: {got!r}, reference {z!r}")
        if output["tuned"] != ref["tuned"]:
            problems.append(f"tuned baselines {output['tuned']}, reference {ref['tuned']}")
        for theta, want in ref["parcel"].items():
            got = output["parcel"].get(theta, {"final_Z": math.nan, "rebalances": -1})
            if _z_differs(got["final_Z"], want["final_Z"]) or got["rebalances"] != want["rebalances"]:
                problems.append(f"parcel theta={theta}: {got}, reference {want}")
        return problems

    def save_references(self, outputs: dict) -> None:
        with open(REFERENCE_DIR / f"{self.name}.json", "w") as fh:
            json.dump({str(m): outputs[m] for m in sorted(outputs)}, fh, indent=1)
            fh.write("\n")


WORKLOADS = {w.name: w for w in (OfflineRef(), LiveFeed(), ResearchTable())}
