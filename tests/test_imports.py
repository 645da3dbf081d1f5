"""Which scipy modules the package loads, and when.

The engine, baselines and accounting run on numpy alone; scipy.special is
loaded by the first parcel objective and scipy.interpolate only when a
Battle-Lemarie filter is built. Each check runs in a fresh interpreter so
the test process's own imports (the tests use scipy) do not leak in.
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
                 objective_P, optimize_parcel, run_backtest)
from nsw.backtest import TraceSource

seen = {"import": scipy_modules()}
series = make_ou_price_series(400, seed=3, rate=0.003, vol=0.01)
trace = SignalEngine(SignalConfig(shift_len=16)).run(series)
run_backtest(TraceSource(trace), series)
compare_strategies([series], lambda: TraceSource(trace))
seen["engine_and_backtests"] = scipy_modules()

rng = np.random.Generator(np.random.PCG64(5))
m = estimate_moments(0.001 + 0.01 * rng.standard_normal((3, 80)), window=64, horizon=1)
theta = 0.25
w = optimize_parcel(m, theta).weights.n
seen["parcel"] = scipy_modules()

from scipy.special import ndtr
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
seen["ndtr"] = float(ndtr((1.0 - theta) * z / sigma))
print(json.dumps(seen))
"""


def probe() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scipy_loaded_only_by_the_parcel_objective():
    seen = probe()
    assert seen["import"] == [], "import nsw, nsw.cli loaded scipy"
    assert seen["engine_and_backtests"] == [], "engine, backtest or compare loaded scipy"
    assert "scipy.special" in seen["parcel"]
    assert "scipy.interpolate" not in seen["parcel"]
    assert 0.5 < seen["p"] < 1.0  # a positive-margin parcel with sigma > 0 goes through ndtr
    assert seen["p"] == seen["ndtr"]
