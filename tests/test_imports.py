"""The package runs on numpy and click alone: no scipy module is loaded, and
importing it loads no numpy module that only a diagnostic helper uses.

Each check runs in a fresh interpreter so the test process's own imports
(the tests use scipy as an oracle) do not leak in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = r"""
import json, math, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import numpy as np
import nsw, nsw.cli
from nsw import (SignalConfig, SignalEngine, compare_strategies, estimate_moments, make_ou_price_series,
                 objective_P, optimize_parcel, run_backtest, run_parcel_backtest)
from nsw.backtest import TraceSource

seen = {"import": scipy_modules()}
series = make_ou_price_series(600, seed=3, rate=0.003, vol=0.01)
traces = {name: SignalEngine(SignalConfig(wavelet=name, shift_len=16)).run(series)
          for name in ("haar", "db2", "db3", "bl1", "bl2", "bl3")}
seen["decided"] = {name: len(trace.codes) for name, trace in traces.items()}
run_backtest(TraceSource(traces["haar"], "NSW"), series)
compare_strategies([series], lambda: TraceSource(traces["haar"], "NSW"))
pair = [series, make_ou_price_series(600, seed=4, rate=0.003, vol=0.01)]
run_parcel_backtest([SignalEngine(SignalConfig(wavelet="bl2", shift_len=16)) for _ in pair], pair,
                    theta=0.25, rebalance_len=64, horizon=1)

rng = np.random.Generator(np.random.PCG64(5))
m = estimate_moments(0.001 + 0.01 * rng.standard_normal((3, 80)), window=64)
theta = 0.25
w = optimize_parcel(m, theta).weights.n
seen["runs"] = scipy_modules()

# Z and sigma as the optimizer adds them: plain float products, left to right
wl, x, lam = w.tolist(), m.mean_returns.tolist(), m.covariance.tolist()
z = var = 0.0
for i in range(3):
    z += wl[i] * x[i]
    lam_w = 0.0
    for j in range(3):
        lam_w += lam[i][j] * wl[j]
    var += wl[i] * lam_w
sigma = math.sqrt(var)
seen["p"] = objective_P(w, m, theta)
seen["phi"] = 0.5 * math.erfc(-((1.0 - theta) * z / sigma) * math.sqrt(0.5))
print(json.dumps(seen))
"""

# an import hook that makes every scipy import fail, run ahead of the CLI
BLOCKED_CLI = r"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from nsw.cli import main
sys.argv[0] = "nsw"
main()
"""


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def test_no_scipy_module_is_loaded():
    proc = subprocess.run([sys.executable, "-c", PROBE], env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["import"] == [], "import nsw, nsw.cli loaded scipy"
    assert seen["runs"] == [], "an engine, backtest, compare or parcel run loaded scipy"
    assert all(n > 0 for n in seen["decided"].values()), seen["decided"]
    assert 0.5 < seen["p"] < 1.0  # a positive-margin parcel with sigma > 0 goes through Phi
    assert seen["p"] == seen["phi"]


def test_cli_runs_with_scipy_blocked(tmp_path):
    def nsw(*args):
        proc = subprocess.run([sys.executable, "-c", BLOCKED_CLI, *args], env=_env(), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, (args, proc.stderr)

    bars = []
    for seed in (1, 2):
        nsw("synth", "--out", str(tmp_path / f"s{seed}"), "--set", "n_bars=900", "--set", f"seed={seed}",
            "--symbol", f"S{seed}")
        bars += ["--data", str(tmp_path / f"s{seed}" / f"bars_S{seed}.csv")]
    nsw("backtest", "--out", str(tmp_path / "bt"), *bars[:2])
    nsw("compare", "--out", str(tmp_path / "cmp"), *bars)
    nsw("parcel", "--out", str(tmp_path / "pc"), "--set", "wavelet=bl2", "--set", "rebalance_len=64", *bars)
    report = json.loads((tmp_path / "pc" / "report.json").read_text())
    assert report["rebalances"] > 0


def test_import_loads_no_numpy_polynomial():
    # only drift_polynomial uses numpy.polynomial, and it imports it when called
    probe = ("import sys; import nsw, nsw.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
