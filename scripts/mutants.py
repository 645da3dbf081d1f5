"""A standing mutant check: plausible one-line defects of ``src/nsw`` that the tests must catch.

Each mutant replaces one text, found exactly once in its file, in a
temporary copy of the repository, and runs ``pytest -x`` on its test files
there. A mutant is killed when the tests fail. Every must-kill mutant has to
be killed; an equivalent one changes no output, so it is never run and only
its reason is printed. A surviving must-kill mutant is mended by a new test,
never by narrowing the mutant.

    python scripts/mutants.py               # run every must-kill mutant
    python scripts/mutants.py NAME ...      # rerun the named ones, as after a mending test

Exits 1 if a must-kill mutant survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple  # test files, run in this order
    equivalent: str = ""  # why no test can kill it; empty for a must-kill mutant


MUTANTS = (
    Mutant("read_only_asarray", "src/nsw/timeseries.py", "out = np.array(value, dtype=dtype)",
           "out = np.asarray(value, dtype=dtype)", ("tests/test_records.py",)),
    Mutant("report_value_eq", "src/nsw/backtest.py", "@dataclass(frozen=True, eq=False)\nclass BacktestReport:",
           "@dataclass(frozen=True, eq=True)\nclass BacktestReport:", ("tests/test_records.py",)),
    Mutant("run_rewinds_fed_engine", "src/nsw/signals.py", "if first >= len(prices):", "if first == len(prices):",
           ("tests/test_signals.py",)),
    Mutant("bar_step_accepts_zero", "src/nsw/timeseries.py", "bar_interval > 0.0 and", "bar_interval >= 0.0 and",
           ("tests/test_timeseries.py",)),
    Mutant("buy_tie_trades", "src/nsw/signals.py", "p_s > 1.0 - alpha1:", "p_s >= 1.0 - alpha1:",
           ("tests/test_signals.py",)),
    Mutant("sell_tie_trades", "src/nsw/signals.py", "p_s < alpha1:", "p_s <= alpha1:", ("tests/test_signals.py",)),
    Mutant("ks_tie_passes", "src/nsw/signals.py", "cdf[j]) < self._ks_bound", "cdf[j]) <= self._ks_bound",
           ("tests/test_signals.py",)),
    Mutant("displaced_reason_first", "src/nsw/signals.py", "int(status or self._status[j])",
           "int(self._status[j] or status)", ("tests/test_signals.py",)),
    Mutant("qr_cond_limit", "src/nsw/sde_fit.py", "_QR_COND_LIMIT = 1e7", "_QR_COND_LIMIT = 1e8",
           ("tests/test_kernel_oracles.py",)),
    Mutant("edge_mass_limit", "src/nsw/stationary.py", "_EDGE_MASS_LIMIT = 0.01", "_EDGE_MASS_LIMIT = 0.02",
           ("tests/test_stationary.py", "tests/test_signals.py")),
    Mutant("sell_without_fee", "src/nsw/backtest.py", "(fill_prices[1::2] / fill_prices[:-1:2]) * fee",
           "(fill_prices[1::2] / fill_prices[:-1:2])", ("tests/test_backtest.py",)),
    Mutant("rsi_seed_shifted", "src/nsw/baselines.py", "avg_gain = float(gain[:lookback].mean())",
           "avg_gain = float(gain[1 : lookback + 1].mean())", ("tests/test_baselines.py", "tests/test_acceptance.py")),
    Mutant("gate_sample_shifted", "src/nsw/signals.py", "pts = mode1[t - base + 1 - cfg.calib_len : t - base + 1]",
           "pts = mode1[t - base - cfg.calib_len : t - base]", ("tests/test_signals.py",)),
    Mutant("wavelet_flip_parity", "src/nsw/wavelets.py", "g[1::2] *= -1.0", "g[0::2] *= -1.0",
           ("tests/test_wavelets.py",)),
    Mutant("diffusion_floor", "src/nsw/sde_fit.py", "floor = np.maximum(1e-6 * np.sqrt",
           "floor = np.maximum(1e-5 * np.sqrt", ("tests/test_sde_fit.py", "tests/test_signals.py")),
    Mutant("repeated_row_read", "src/nsw/timeseries.py", "if ts and t <= ts[-1]:", "if ts and t < ts[-1]:",
           ("tests/test_timeseries.py",)),
    Mutant("extend_accepts_bound", "src/nsw/signals.py", "if not 0.0 < price < MAX_PRICE:",
           "if not 0.0 < price <= MAX_PRICE:", ("tests/test_signals.py",)),
    Mutant("leading_sell_fills", "src/nsw/backtest.py", "prepend=CODE_SELL", "prepend=CODE_BUY",
           ("tests/test_backtest.py",)),
    Mutant("whole_fee_accepted", "src/nsw/backtest.py", "if not 0.0 <= cost_bps < 1e4:",
           "if not 0.0 <= cost_bps <= 1e4:", ("tests/test_backtest.py",)),
    Mutant("sample_covariance", "src/nsw/portfolio.py", "lam = (centered @ centered.mT) / window",
           "lam = (centered @ centered.mT) / (window - 1)", ("tests/test_portfolio.py",)),
    Mutant("theta_zero_rejected", "src/nsw/config.py", "if not 0.0 <= self.theta <= 1.0:",
           "if not 0.0 < self.theta <= 1.0:", ("tests/test_config.py",)),
    Mutant("model_error_exit_2", "src/nsw/cli.py", "sys.exit(1)", "sys.exit(2)", ("tests/test_cli.py",)),
    Mutant("config_error_exit_1", "src/nsw/errors.py", "class ConfigError(UsageError, ValueError):",
           "class ConfigError(NswError, ValueError):", ("tests/test_cli.py",)),
    Mutant("ks_k_accepts_inf", "src/nsw/signals.py", "not 0.0 < self.ks_k < math.inf:", "not 0.0 < self.ks_k:",
           ("tests/test_config.py", "tests/test_cli.py")),
    Mutant("fractional_stamp_read", "src/nsw/timeseries.py", "t = int(stamp) if stamp.is_integer() else None",
           "t = int(stamp)", ("tests/test_timeseries.py",)),
    Mutant("p_s_row_shifted", "src/nsw/signals.py", "float(dens.p_s[i])", "float(dens.p_s[i - 1])",
           ("tests/test_signals.py",)),
    Mutant("trace_keeps_signals", "src/nsw/signals.py", "            signals = tuple(signals)  #",
           "            self._signals = signals = tuple(signals)  #", ("tests/test_backtest.py",)),
    Mutant("signal_unslotted", "src/nsw/signals.py", "@dataclass(frozen=True, slots=True)\nclass Signal:",
           "@dataclass(frozen=True, slots=False)\nclass Signal:", ("tests/test_backtest.py",)),
    Mutant("parcel_theta_unbounded", "src/nsw/backtest.py", "if not 0.0 <= theta <= 1.0:", "if not 0.0 <= theta:",
           ("tests/test_backtest.py",)),
    Mutant("parcel_rebalance_one", "src/nsw/backtest.py", "if rebalance_len < 2:", "if rebalance_len < 1:",
           ("tests/test_backtest.py",)),
    Mutant("parcel_horizon_zero", "src/nsw/backtest.py", "if horizon < 1:", "if horizon < 0:",
           ("tests/test_backtest.py",)),
    Mutant("returns_horizon_zero", "src/nsw/portfolio.py", "if horizon < 1:", "if horizon < 0:",
           ("tests/test_portfolio.py",)),
    Mutant("moments_window_zero", "src/nsw/portfolio.py", "if window < 1:", "if window < 0:",
           ("tests/test_portfolio.py",)),
    Mutant("ascent_plateau_rejected", "src/nsw/portfolio.py", "if p_cand >= p and cand != w:",
           "if p_cand > p and cand != w:", ("tests/test_portfolio.py",)),
    Mutant("ascent_step_capped", "src/nsw/portfolio.py", "step = min(s * 2.0, 1e6)", "step = min(s * 2.0, 1.0)",
           ("tests/test_portfolio.py",)),
    Mutant("ascent_no_rescale", "src/nsw/portfolio.py", "if p > 0.5 + 1e-12 and total > 0:",
           "if p > 0.5 + 1e-12 and total > 1:", ("tests/test_portfolio.py",)),
    Mutant("channel_includes_current", "src/nsw/baselines.py", "sliding_window_view(p[:-1], lookback)",
           "sliding_window_view(p[1:], lookback)", ("tests/test_baselines.py",)),
    Mutant("band_tie_trades", "src/nsw/baselines.py", "p < mean - width * sd, p > mean + width * sd",
           "p <= mean - width * sd, p >= mean + width * sd", ("tests/test_baselines.py",)),
    Mutant("tune_tie_to_last", "src/nsw/baselines.py", "if report.final_z > best_z:",
           "if report.final_z >= best_z:", ("tests/test_baselines.py",)),
    Mutant("cli_parcel_fee_dropped", "src/nsw/cli.py", "        cost_bps=cfg.cost_bps,\n    )", "    )",
           ("tests/test_cli.py",)),
    Mutant("manifest_inputs_dropped", "src/nsw/cli.py", '"inputs": [str(p) for p in inputs],', '"inputs": [],',
           ("tests/test_cli.py",)),
    Mutant("edge_fraction", "src/nsw/stationary.py", "_EDGE_FRACTION = 0.05", "_EDGE_FRACTION = 0.04",
           ("tests/test_stationary.py", "tests/test_signals.py"),
           equivalent="inert on the tested series: 41 edge nodes flag the windows 51 do (ROADMAP item 9)"),
    Mutant("zero_node_index", "src/nsw/stationary.py", "j = (grid[:, 1:-1] <= 0.0).sum(axis=1)",
           "j = (grid[:, 1:-1] < 0.0).sum(axis=1)", ("tests/test_stationary.py", "tests/test_kernel_oracles.py"),
           equivalent="at a grid node exactly at 0 both intervals give that node's CDF, up to a rounding"),
)

# pytest's exit codes for failed tests and for an error while collecting them (a mutant that breaks an import)
_KILLED = (1, 2)
_TIMEOUT = 600.0  # seconds; tests that run longer on a mutant have caught it by hanging
# pytest runs in the copy on the copy's nsw, whatever an installed nsw says; an nsw
# from elsewhere exits 3, as a pytest internal error does, which kills no mutant
_PYTEST = """import sys, nsw, pytest
if not nsw.__file__.startswith(sys.argv[1]):
    print("nsw imported from", nsw.__file__)
    sys.exit(3)
sys.exit(pytest.main(sys.argv[2:]))
"""


def apply(mutant: Mutant, root: Path) -> None:
    """Write the mutant into the file under ``root``."""
    target = root / mutant.path
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
    target.write_text(text.replace(mutant.old, mutant.new))


def run(mutant: Mutant) -> str | None:
    """The first failure of the mutant's tests on a mutated copy of the repository, or None."""
    with tempfile.TemporaryDirectory(prefix="nsw-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                                                     ".pytest_cache", "runs"))
        apply(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-c", _PYTEST, str(copy / "src"), "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        try:
            proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=_TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"timed out after {_TIMEOUT:g} s"
    if proc.returncode not in (0, *_KILLED):
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    # pytest's short summary names the test that failed, or the file that did not collect
    return next((line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))),
                None if proc.returncode == 0 else "failed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if m.name in args.names] if args.names else list(MUTANTS)
    survivors = []
    for m in chosen:
        label = f"{m.name:24s} {m.path}"
        if m.equivalent:
            print(f"{'equivalent':10s} {label}  {m.equivalent}")
            continue
        start = time.perf_counter()
        killed = run(m)
        print(f"{'killed' if killed else 'SURVIVED':10s} {label}  {time.perf_counter() - start:.1f} s  {killed or ''}"
              .rstrip(), flush=True)
        if not killed:
            survivors.append(m.name)
    if survivors:
        print(f"must-kill mutants survived: {', '.join(survivors)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
