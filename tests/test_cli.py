import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from nsw.cli import main
from nsw.errors import DegenerateWindow
from nsw.timeseries import load_bars, make_ou_price_series, write_bars


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestSynth:
    def test_writes_bars(self, runner, tmp_path):
        out = tmp_path / "run"
        res = invoke(runner, ["synth", "--out", str(out), "--set", "n_bars=120", "--symbol", "T1"])
        assert res.exit_code == 0
        series = load_bars(out / "bars_T1.csv")
        assert len(series) == 120

    def test_seed_determinism(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            res = invoke(runner, ["synth", "--out", str(out), "--set", "n_bars=200", "--set", "seed=5"])
            assert res.exit_code == 0
        assert (a / "bars_SYN.csv").read_text() == (b / "bars_SYN.csv").read_text()

    def test_output_moments(self, runner, tmp_path):
        out = tmp_path / "m"
        res = invoke(runner, ["synth", "--out", str(out), "--set", "n_bars=5000",
                              "--set", "ou_rate=0.003", "--set", "ou_vol=0.01"])
        assert res.exit_code == 0
        series = load_bars(out / "bars_SYN.csv")
        incs = np.diff(np.log(series.prices))
        # one-bar log increments of the slow OU are vol-driven
        assert abs(incs.std() - 0.01) / 0.01 < 0.3
        assert abs(incs.mean()) < 5 * 0.01 / np.sqrt(len(incs))

    def test_manifest_echoes_config(self, runner, tmp_path):
        out = tmp_path / "r"
        res = invoke(runner, ["synth", "--out", str(out), "--set", "n_bars=100", "--set", "theta=0.4"])
        assert res.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["theta"] == 0.4
        assert manifest["config"]["n_bars"] == 100


class TestBacktestCmd:
    def test_constant_series_holds(self, runner, tmp_path):
        bars = tmp_path / "const.csv"
        bars.write_text("timestamp,price\n" + "\n".join(f"{60 * i},50.0" for i in range(220)) + "\n")
        out = tmp_path / "bt"
        res = invoke(runner, ["backtest", "--data", str(bars), "--out", str(out)])
        assert res.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["final_Z"] == 1.0
        assert report["trades"] == 0
        assert "decision_fraction" in report

    @pytest.mark.parametrize("span", ["1e-300", "1e-15"])
    def test_zero_width_grids_hold_without_warnings(self, runner, tmp_path, span):
        # every spacing of a density grid (1e-300) or some of them (1e-15) round
        # to 0: those densities fail as no_mass before a division by the width
        bars = tmp_path / "b.csv"
        write_bars(make_ou_price_series(300, seed=1), bars)
        out = tmp_path / "bt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = invoke(runner, ["backtest", "--data", str(bars), "--out", str(out), "--set", f"grid_span={span}"])
        assert res.exit_code == 0
        assert json.loads((out / "report.json").read_text())["trades"] == 0

    def test_missing_file_exit_2(self, runner, tmp_path):
        res = runner.invoke(main, ["backtest", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_runtime_failure_exit_1(self, runner, tmp_path, monkeypatch):
        # a model error, not the caller's: exit 1 with its message, and no run directory
        def fail(*args, **kwargs):
            raise DegenerateWindow("no usable window")
        monkeypatch.setattr("nsw.cli.load_bars", fail)
        out = tmp_path / "o"
        res = runner.invoke(main, ["backtest", "--data", str(tmp_path / "b.csv"), "--out", str(out)])
        assert res.exit_code == 1
        assert "error: no usable window" in res.output
        assert not out.exists()

    def test_nan_price_exit_2(self, runner, tmp_path):
        bars = tmp_path / "nan.csv"
        bars.write_text("timestamp,price\n0,1.0\n60,nan\n120,1.0\n")
        res = runner.invoke(main, ["backtest", "--data", str(bars), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "row 2" in res.output

    def test_price_past_engine_bound_exit_2(self, runner, tmp_path):
        # neither synth nor load_bars takes a price near 1e200, whose squares
        # in a fit or a baseline's band are past the float range
        bars, out = tmp_path / "big.csv", tmp_path / "o"
        bars.write_text("timestamp,price\n0,1.0\n60,1e200\n120,1.0\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["synth", "--out", str(out), "--set", "n_bars=400",
                                       "--set", "base_price=1e200"])
            assert res.exit_code == 2
            assert "base_price must be in (0, 2**500)" in res.output
            assert not out.exists()
            res = runner.invoke(main, ["backtest", "--data", str(bars), "--out", str(out)])
        assert res.exit_code == 2
        assert "row 2: price 1e+200 is not in (0, 2**500)" in res.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("stamp", ["inf", "1e300"])
    def test_timestamp_outside_int64_exit_2(self, runner, tmp_path, stamp):
        bars = tmp_path / "stamp.csv"
        bars.write_text(f"timestamp,price\n0,1.0\n{stamp},1.0\n")
        res = runner.invoke(main, ["backtest", "--data", str(bars), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "row 2: timestamp" in res.output

    def test_unknown_config_key_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 3\n")
        bars = tmp_path / "c.csv"
        bars.write_text("timestamp,price\n0,1.0\n60,1.0\n")
        res = runner.invoke(main, ["backtest", "--config", str(cfg), "--data", str(bars), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    def test_wavelet_order_key_is_gone_exit_2(self, runner, tmp_path):
        # the filter name carries its order: wavelet = db3, not wavelet_order = 3
        cfg = tmp_path / "old.cfg"
        cfg.write_text("wavelet = daubechies\nwavelet_order = 3\n")
        out = tmp_path / "o"
        res = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 2
        assert "unknown key 'wavelet_order'" in res.output
        assert not out.exists()

    def test_reference_run_outputs(self, runner, tmp_path):
        series = make_ou_price_series(1200, seed=1, rate=0.003, vol=0.01, symbol="REF")
        bars = tmp_path / "ref.csv"
        write_bars(series, bars)
        out = tmp_path / "run"
        res = invoke(runner, ["backtest", "--data", str(bars), "--out", str(out), "--set", "shift_len=16"])
        assert res.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["eligible_bars"] > 0
        assert (out / "signals.csv").read_text().splitlines()[0] == "t,kind,p_s,dy1,gated"
        assert (out / "equity.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["shift_len"] == 16


class TestParcelCmd:
    def test_single_instrument_reduces_to_backtest(self, runner, tmp_path):
        series = make_ou_price_series(1500, seed=1, rate=0.003, vol=0.01, trend=0.001, symbol="UP")
        bars = tmp_path / "up.csv"
        write_bars(series, bars)
        overrides = ["--set", "shift_len=16", "--set", "theta=0.01"]
        bt_out, pc_out = tmp_path / "bt", tmp_path / "pc"
        assert invoke(runner, ["backtest", "--data", str(bars), "--out", str(bt_out)] + overrides).exit_code == 0
        assert invoke(runner, ["parcel", "--data", str(bars), "--out", str(pc_out)] + overrides).exit_code == 0
        single = json.loads((bt_out / "report.json").read_text())["final_Z"]
        parcel = json.loads((pc_out / "report.json").read_text())["final_Z"]
        assert abs(single - parcel) < 1e-9

    def test_three_instruments_equal_start(self, runner, tmp_path):
        paths = []
        for i in range(3):
            s = make_ou_price_series(400, seed=20 + i, rate=0.01, vol=0.01, symbol=f"A{i}")
            p = tmp_path / f"a{i}.csv"
            write_bars(s, p)
            paths.append(p)
        out = tmp_path / "p3"
        args = ["parcel", "--out", str(out)]
        for p in paths:
            args += ["--data", str(p)]
        # rebalance interval beyond the series keeps the initial 1/M weights
        args += ["--set", "rebalance_len=1000"]
        res = invoke(runner, args)
        assert res.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["instruments"]) == 3
        header = (out / "weights.csv").read_text().splitlines()[0]
        assert header == "t,n_1,n_2,n_3,slack,P_theta"

    def test_instruments_are_labeled_nsw(self, runner, tmp_path):
        # the engine's label, as nsw backtest reports it
        bars = tmp_path / "a.csv"
        write_bars(make_ou_price_series(300, seed=1, symbol="A"), bars)
        out = tmp_path / "o"
        assert invoke(runner, ["parcel", "--data", str(bars), "--out", str(out)]).exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert [r["strategy"] for r in report["instruments"]] == ["NSW"]

    @pytest.mark.parametrize("cost_bps", ["10000", "20000"])
    def test_fee_of_100_percent_exits_2_and_writes_nothing(self, runner, tmp_path, cost_bps):
        bars = tmp_path / "a.csv"
        write_bars(make_ou_price_series(300, seed=1, symbol="A"), bars)
        out = tmp_path / "o"
        res = runner.invoke(main, ["parcel", "--data", str(bars), "--out", str(out), "--set", f"cost_bps={cost_bps}"])
        assert res.exit_code == 2
        assert "cost_bps must be in [0, 10000)" in res.output
        assert not out.exists()

    def test_misaligned_series_fails(self, runner, tmp_path):
        a = make_ou_price_series(300, seed=1, symbol="A")
        b = make_ou_price_series(350, seed=2, symbol="B")
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_bars(a, pa)
        write_bars(b, pb)
        out = tmp_path / "o"
        res = runner.invoke(main, ["parcel", "--data", str(pa), "--data", str(pb), "--out", str(out)])
        assert res.exit_code == 2
        assert "series have different timestamps" in res.output
        assert not out.exists()


class TestRunDirectories:
    def test_manifest_is_the_one_config_echo(self, runner, tmp_path):
        def keys(node):
            if isinstance(node, dict):
                return set(node).union(*map(keys, node.values()))
            return set().union(*map(keys, node)) if isinstance(node, list) else set()

        for i in (1, 2):
            assert invoke(runner, ["synth", "--out", str(tmp_path / f"s{i}"), "--set", "n_bars=600",
                                   "--set", f"seed={i}", "--symbol", f"S{i}"]).exit_code == 0
        bars = [str(tmp_path / f"s{i}" / f"bars_S{i}.csv") for i in (1, 2)]
        overrides = ["--set", "shift_len=16", "--set", "rebalance_len=128"]
        assert invoke(runner, ["backtest", "--out", str(tmp_path / "bt"), "--data", bars[0]] + overrides).exit_code == 0
        assert invoke(runner, ["parcel", "--out", str(tmp_path / "pc"), "--data", bars[0], "--data", bars[1]]
                      + overrides).exit_code == 0
        for run in ("bt", "pc"):
            report = json.loads((tmp_path / run / "report.json").read_text())
            assert "config" not in keys(report)
            manifest = json.loads((tmp_path / run / "manifest.json").read_text())
            assert manifest["config"]["shift_len"] == 16 and manifest["config"]["rebalance_len"] == 128
        assert report["symbols"] == ["S1", "S2"]
        assert [r["strategy"] for r in report["instruments"]] == ["NSW", "NSW"]


class TestCompareCmd:
    def test_table_has_nsw_column(self, runner, tmp_path):
        series = make_ou_price_series(800, seed=4, rate=0.01, vol=0.01, symbol="CMP")
        bars = tmp_path / "CMP.csv"
        write_bars(series, bars)
        out = tmp_path / "cc"
        res = invoke(runner, ["compare", "--data", str(bars), "--out", str(out), "--show-reference"])
        assert res.exit_code == 0
        assert "NSW" in res.output
        assert "1.852" in res.output  # reference table rendered on request
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["columns"][-1] == "NSW"
        assert payload["rows"][0]["instrument"] == "CMP"

    def test_synth_symbol_names_the_instrument(self, runner, tmp_path):
        # synth writes bars_S1.csv; the series it loads back is named S1
        assert invoke(runner, ["synth", "--out", str(tmp_path / "s"), "--set", "n_bars=600",
                               "--symbol", "S1"]).exit_code == 0
        out = tmp_path / "cc"
        res = invoke(runner, ["compare", "--data", str(tmp_path / "s" / "bars_S1.csv"), "--out", str(out)])
        assert res.exit_code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert [row["instrument"] for row in payload["rows"]] == ["S1"]


class TestConfigFile:
    def test_config_file_plus_override(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# protocol overrides\ncalib_len = 48\nalpha1 = 0.1\n")
        out = tmp_path / "s"
        res = invoke(runner, ["synth", "--config", str(cfg), "--out", str(out),
                              "--set", "n_bars=64", "--set", "alpha1=0.2"])
        assert res.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["calib_len"] == 48
        assert manifest["config"]["alpha1"] == 0.2  # --set wins over the file

    def test_invalid_value_exit_2(self, runner, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 1.5\n")
        res = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("override", ["levels=4", "wavelet=morlet", "grid_span=0", "ks_k=nan", "ks_k=inf"])
    def test_unusable_engine_config_exit_2(self, runner, tmp_path, override):
        # rejected before any data is read or written
        bars = tmp_path / "c.csv"
        bars.write_text("timestamp,price\n0,1.0\n60,1.0\n")
        for command in (["backtest", "--data", str(bars)], ["synth"]):
            out = tmp_path / command[0]
            res = runner.invoke(main, command + ["--out", str(out), "--set", override])
            assert res.exit_code == 2, command
            assert not out.exists()

    @pytest.mark.parametrize("override", ["seed=-1", "ou_vol=-0.01", "ou_rate=nan", "trend=inf", "base_price=-5"])
    def test_bad_synthesis_field_exit_2(self, runner, tmp_path, override):
        out = tmp_path / "o"
        res = runner.invoke(main, ["synth", "--out", str(out), "--set", "n_bars=200", "--set", override])
        assert res.exit_code == 2
        assert override.split("=")[0] in res.output
        assert not out.exists()

    @pytest.mark.parametrize("trend, bad_bar", [(1, 342), (-1, 746)])
    def test_price_path_out_of_range_exit_2(self, runner, tmp_path, trend, bad_bar):
        # exp(trend * t) passes 2**500 (trend=1) or underflows to 0 (trend=-1)
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["synth", "--out", str(out), "--set", "n_bars=2000", "--set", f"trend={trend}"])
        assert res.exit_code == 2
        for name in ("trend=", "n_bars=2000", "base_price=100", f"bar {bad_bar}"):
            assert name in res.output
        assert "row" not in res.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_ou_path_out_of_range_names_ou_fields(self, runner, tmp_path):
        # the OU parameters, not the trend, overflow this path; the message said
        # only "use a smaller |trend| or fewer bars"
        out = tmp_path / "o"
        res = runner.invoke(main, ["synth", "--out", str(out), "--set", "n_bars=3", "--set", "ou_vol=1e308"])
        assert res.exit_code == 2
        for name in ("ou_rate=0.05", "ou_vol=1e+308", "bar 1", "smaller |trend| or ou_vol"):
            assert name in res.output
        assert not out.exists()

    @pytest.mark.parametrize("interval", ["1e18", "1e300"])
    def test_timestamps_past_int64_exit_2(self, runner, tmp_path, interval):
        # 1999 * 1e18 wrapped to negative int64 timestamps; 1e300 overflowed int64 outright
        out = tmp_path / "o"
        res = runner.invoke(main, ["synth", "--out", str(out), "--set", f"bar_interval={interval}",
                                   "--set", "n_bars=2000"])
        assert res.exit_code == 2, res.output
        assert "bar_interval=" in res.output and "n_bars=2000" in res.output
        assert not out.exists()


    def test_timestamps_past_2_53_round_trip(self, runner, tmp_path):
        # 2**52 + 1: the bar file's timestamps pass 2**53, where a float parse rounds them
        interval = ["--set", "bar_interval=4503599627370497"]
        out = tmp_path / "o"
        assert invoke(runner, ["synth", "--out", str(out), "--set", "n_bars=300"] + interval).exit_code == 0
        bars = str(out / "bars_SYN.csv")
        res = invoke(runner, ["backtest", "--data", bars, "--out", str(tmp_path / "bt")] + interval)
        assert res.exit_code == 0, res.output


class TestBarInterval:
    @pytest.mark.parametrize("command", ["backtest", "parcel", "compare"])
    def test_spacing_must_match_bar_interval(self, runner, tmp_path, command):
        bars = tmp_path / "b.csv"
        write_bars(make_ou_price_series(300, seed=1, bar_interval=30.0), bars)
        res = runner.invoke(main, [command, "--data", str(bars), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "bar_interval" in res.output


class TestBadDataWritesNothing:
    """Every --data file is loaded and validated before --out is created."""

    @pytest.mark.parametrize("command", ["backtest", "parcel", "compare"])
    @pytest.mark.parametrize("bad, message", [
        ("missing", "bar file not found: "),
        ("negative", "row 2: price -1.0"),
        ("spacing", "bar_interval is 60s"),
        # a gap at row 3, then a step back at row 4: the loader's per-row
        # order check reports row 4, ahead of the series' spacing check
        ("order", "row 4: timestamp 120 after 180"),
    ])
    def test_exit_2_and_no_out_dir(self, runner, tmp_path, command, bad, message):
        good = tmp_path / "good.csv"
        write_bars(make_ou_price_series(300, seed=1), good)
        path = tmp_path / f"{bad}.csv"
        if bad == "negative":
            path.write_text("timestamp,price\n0,1.0\n60,-1.0\n120,1.0\n")
        elif bad == "order":
            path.write_text("timestamp,price\n0,1.0\n60,1.0\n180,1.0\n120,1.0\n")
        elif bad == "spacing":
            write_bars(make_ou_price_series(300, seed=2, bar_interval=30.0), path)
        out = tmp_path / "o"
        # the bad file is last for the multi-file commands, so a good one is loaded first
        data = ["--data", str(path)] if command == "backtest" else ["--data", str(good), "--data", str(path)]
        res = runner.invoke(main, [command, *data, "--out", str(out)])
        assert res.exit_code == 2
        assert message in res.output
        if bad == "missing":
            assert f"bar file not found: {path}" in res.output
        assert not out.exists()


_RANGE_PATH = make_ou_price_series(600, seed=1)
_K_MAX = 500 - int(np.frexp(_RANGE_PATH.prices.max())[1])  # the largest k that keeps every price below 2**500


class TestPriceRange:
    """Every command reads the one price range, (0, 2**500): the path scaled by
    2**k runs below it, down to subnormal prices, and from it up exits 2 at
    load, before a baseline or a fit squares a price past the float range.
    The suite turns a RuntimeWarning into an error."""

    @pytest.mark.parametrize("command", ["backtest", "compare", "parcel"])
    @pytest.mark.parametrize("k", [-1074, 0, _K_MAX, _K_MAX + 1, 509])
    def test_scaled_path(self, runner, tmp_path, command, k):
        prices = np.ldexp(_RANGE_PATH.prices, k)
        bars, out = tmp_path / "bars_S.csv", tmp_path / "o"
        bars.write_text("timestamp,price\n" + "".join(
            f"{t},{p!r}\n" for t, p in zip(_RANGE_PATH.timestamps.tolist(), prices.tolist())))
        res = runner.invoke(main, [command, "--data", str(bars), "--out", str(out), "--set", "shift_len=16"])
        if k <= _K_MAX:
            assert res.exit_code == 0, res.output
            assert (out / "manifest.json").exists()
        else:
            assert res.exit_code == 2, res.output
            row = int(np.argmax(prices >= 2.0**500)) + 1
            assert f"row {row}: price {prices[row - 1]} is not in (0, 2**500)" in res.output
            assert not out.exists()


class TestManifest:
    def test_outputs_list_the_run_directory(self, runner, tmp_path):
        bars = tmp_path / "in" / "bars_SYN.csv"
        runs = {
            "synth": ["--set", "n_bars=400"],
            "backtest": ["--data", str(bars), "--set", "shift_len=16"],
            "parcel": ["--data", str(bars), "--set", "shift_len=16"],
            "compare": ["--data", str(bars), "--set", "shift_len=16"],
        }
        for command, args in runs.items():
            out = tmp_path / "in" if command == "synth" else tmp_path / command
            assert invoke(runner, [command, "--out", str(out), *args]).exit_code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
            assert sorted(manifest["outputs"]) == sorted(str(out / name) for name in written), command
