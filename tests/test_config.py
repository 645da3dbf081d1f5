import math

import pytest

from nsw.config import RunConfig, apply_overrides, format_config, parse_config
from nsw.errors import ConfigError
from nsw.signals import SignalConfig, SignalEngine


def _assert_rejected(values):
    with pytest.raises(ConfigError):
        RunConfig(**values)
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), [f"{field}={value}" for field, value in values.items()])


@pytest.mark.parametrize("field,value", [
    ("n_grid", 1),
    ("shift_len", 0),
    ("cost_bps", -1.0),
    ("cost_bps", 1e4),  # a fill factor 1 - cost_bps/1e4 <= 0 leaves no equity
    ("cost_bps", math.inf),
    ("cost_bps", math.nan),
    ("horizon", 0),
    ("bar_interval", 0.0),
    ("bar_interval", 90.4),  # bar files carry whole-second timestamps
    ("levels", 4),  # 35 Hermite terms need calib_len >= 70
    ("wavelet", "morlet"),
    ("wavelet", "daubechies"),  # no order given
    # each of these held every decided bar
    ("grid_span", -5.0),
    ("grid_span", 0.0),
    ("grid_span", math.inf),
    ("ks_k", -1.0),
    ("ks_k", 0.0),
    ("ks_k", math.nan),
    ("ks_k", math.inf),  # this one passed every gate instead
    # synthesis fields, rejected before make_ou_price_series runs
    ("seed", -1),
    ("ou_vol", -0.01),
    ("ou_vol", math.inf),
    ("ou_vol", math.nan),
    ("ou_rate", math.inf),
    ("ou_rate", math.nan),
    ("trend", math.inf),
    ("trend", -math.inf),
    ("base_price", -5.0),
    ("base_price", 0.0),
    ("base_price", math.inf),
    ("base_price", 2.0**500),  # the largest price a series holds is below it
])
def test_invalid_value_rejected(field, value):
    _assert_rejected({field: value})


@pytest.mark.parametrize("values", [
    # fit windows shorter than 2 * comb(levels + degree, degree) rows
    {"levels": 3, "calib_len": 32},
    {"degree": 5, "calib_len": 40},
])
def test_invalid_combination_rejected(values):
    _assert_rejected(values)


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_theta_bounds_accepted(theta):
    # P(theta) is defined on the closed interval [0, 1]
    assert RunConfig(theta=theta).theta == apply_overrides(RunConfig(), [f"theta={theta}"]).theta == theta


def test_run_config_is_the_engine_config():
    assert isinstance(RunConfig(), SignalConfig)
    # one shift_len default, 64, for the engine and the CLI alike
    assert SignalEngine(RunConfig()).cfg.shift_len == SignalConfig(calib_len=48).shift_len == 64


def test_overrides_share_the_file_parser():
    cfg = apply_overrides(parse_config("calib_len = 48\n"), ["alpha1=0.1", "  ", "horizon = none  # default"])
    assert (cfg.calib_len, cfg.alpha1, cfg.horizon) == (48, 0.1, None)
    assert parse_config(format_config(cfg)) == cfg
    for bad in (["calib_len"], ["nope=1"], ["levels=x"]):
        with pytest.raises(ConfigError):
            apply_overrides(cfg, bad)
