"""How the array records hold their arrays and compare.

A record keeps a read-only copy of each column it is given, so the caller's
array stays writable and later writes to it leave the record unchanged. A
record that holds an array compares and hashes by identity: an element-wise
``==`` has no single truth value.
"""

import numpy as np
import pytest

from nsw.backtest import BacktestReport, ComparisonTable, ParcelReport, WeightRecord
from nsw.portfolio import MomentEstimate, ParcelWeights, optimize_parcel
from nsw.sde_fit import fit_windows
from nsw.stationary import stationary_densities
from nsw.timeseries import PriceSeries
from nsw.wavelets import WaveletFilter

# each column-holding record: its constructor on the columns, and writable columns to give it
COLUMN_RECORDS = {
    "PriceSeries": (lambda **cols: PriceSeries("X", **cols, bar_interval=60.0),
                    lambda: dict(timestamps=np.arange(4) * 60, prices=np.array([1.0, 1.5, 1.25, 2.0]))),
    "WaveletFilter": (lambda **cols: WaveletFilter("haar", **cols),
                      lambda: dict(taps=np.array([1.0, -1.0]) / np.sqrt(2.0))),
    "MomentEstimate": (MomentEstimate, lambda: dict(mean_returns=np.array([0.1, 0.2]), covariance=np.eye(2) * 0.01)),
    "ParcelWeights": (ParcelWeights, lambda: dict(n=np.array([0.25, 0.5]))),
    "BacktestReport": (lambda **cols: BacktestReport("X", "NSW", **cols, eligible_bars=3),
                       lambda: dict(equity=np.array([1.0, 1.1, 1.2]), fills=np.array([0, 2]),
                                    fill_prices=np.array([1.0, 1.2]))),
}


def _fits():
    windows = np.random.Generator(np.random.PCG64(7)).normal(size=(2, 40, 1)).cumsum(axis=1)
    return fit_windows(windows, degree=2)


def _moments():
    return MomentEstimate(np.array([0.01, 0.02]), np.array([[0.04, 0.01], [0.01, 0.09]]))


def _report():
    build, cols = COLUMN_RECORDS["BacktestReport"]
    return build(**cols())


# every frozen record that holds an array: each call builds a new one of the same content
ARRAY_RECORDS = {name: (lambda build=build, cols=cols: build(**cols())) for name, (build, cols) in COLUMN_RECORDS.items()}
ARRAY_RECORDS.update({
    "FitStack": _fits,
    "DensityStack": lambda: stationary_densities(_fits(), n_grid=64),
    "ParcelResult": lambda: optimize_parcel(_moments(), 0.25),
    "WeightRecord": lambda: WeightRecord(1, np.array([0.5, 0.5]), 0.0, 0.1),
    "ParcelReport": lambda: ParcelReport(("X",), np.array([1.0, 1.2]), (), (_report(),)),
    "ComparisonTable": lambda: ComparisonTable(("X",), ("NSW",), np.array([[1.2]]), {("X", "NSW"): _report()}, {}),
})


@pytest.mark.parametrize("name", COLUMN_RECORDS)
def test_records_keep_read_only_copies(name):
    build, make_cols = COLUMN_RECORDS[name]
    given = make_cols()
    kept = {col: arr.copy() for col, arr in given.items()}
    record = build(**given)
    for col, arr in given.items():
        assert arr.flags.writeable, col
        arr += 1
        assert np.array_equal(getattr(record, col), kept[col]), col
        assert not getattr(record, col).flags.writeable, col


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_by_identity(name):
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert (a == b) is False and (a != b) is True
    assert len({a, b}) == 2 and hash(a) == hash(a)
