import pytest

from nsw.config import RunConfig, apply_overrides, format_config, parse_config
from nsw.errors import ConfigError
from nsw.signals import SignalConfig, SignalEngine


@pytest.mark.parametrize("field,value", [
    ("n_grid", 1),
    ("shift_len", 0),
    ("refit_stride", 0),
    ("cost_bps", -1.0),
    ("horizon", 0),
    ("bar_interval", 0.0),
])
def test_invalid_value_rejected(field, value):
    with pytest.raises(ConfigError):
        RunConfig(**{field: value})
    with pytest.raises(ConfigError):
        apply_overrides(RunConfig(), [f"{field}={value}"])


def test_run_config_is_the_engine_config():
    assert isinstance(RunConfig(), SignalConfig)
    # the CLI keeps its explicit displacement; a bare engine config defaults to calib_len
    assert SignalEngine(RunConfig()).cfg.displacement == 64
    assert SignalConfig(calib_len=48).displacement == 48


def test_overrides_share_the_file_parser():
    cfg = apply_overrides(parse_config("calib_len = 48\n"), ["alpha1=0.1", "  ", "horizon = none  # default"])
    assert (cfg.calib_len, cfg.alpha1, cfg.horizon) == (48, 0.1, None)
    assert parse_config(format_config(cfg)) == cfg
    for bad in (["calib_len"], ["nope=1"], ["levels=x"]):
        with pytest.raises(ConfigError):
            apply_overrides(cfg, bad)
