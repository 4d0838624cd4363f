"""Config parsing, calibration, and the Monte Carlo power study."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from lehmann import (
    DomainError,
    Kind,
    ParseError,
    SimConfig,
    calibrate,
    config_hash,
    lrt_statistics,
    parse_sim_config,
    power_loss_closed,
    run_power_study,
)
from lehmann.cli import main
from lehmann.lrt_sim import _null_replication, canonical_config_text

CONFIG_TEXT = """\
# two-cell power study
kind = first
base = exponential(rate=1.0)
lambda_grid = 1.0, 2.0
n = 50
replications = 200
alpha = 0.05
seed = 42
calibration_replications = 1000
theta_bounds = 0.1:10
"""


def uniform_cfg(**overrides) -> SimConfig:
    fields = dict(
        kind=Kind.FIRST,
        base_family="uniform",
        theta0=(),
        lambda_grid=(1.0, 2.0),
        n=100,
        replications=200,
        alpha=0.05,
        seed=7,
        calibration_replications=1000,
    )
    fields.update(overrides)
    return SimConfig(**fields)


def test_config_validation():
    with pytest.raises(DomainError):
        uniform_cfg(alpha=0.0)
    with pytest.raises(DomainError):
        uniform_cfg(alpha=1.0)
    with pytest.raises(DomainError):
        uniform_cfg(replications=99)
    with pytest.raises(DomainError):
        uniform_cfg(lambda_grid=())
    with pytest.raises(DomainError):
        uniform_cfg(lambda_grid=(1.0, -2.0))
    with pytest.raises(DomainError):
        uniform_cfg(n=0)
    with pytest.raises(DomainError):
        uniform_cfg(base_family="cauchy")
    with pytest.raises(DomainError):
        uniform_cfg(base_family="exponential", theta0=(1.0, 2.0))


@pytest.mark.parametrize("field, value", [
    ("n", 50.5), ("replications", 200.0), ("seed", 7.5), ("calibration_replications", 1000.5)])
def test_config_rejects_non_integers(field, value):
    # a float count used to construct and then fail inside the first block;
    # a float seed was truncated by the generator but hashed as given
    with pytest.raises(DomainError, match=f"{field} must be an integer"):
        uniform_cfg(**{field: value})


def test_config_accepts_numpy_integers():
    cfg = uniform_cfg(n=np.int64(100), replications=np.int32(200), seed=np.int64(7),
                      calibration_replications=np.uint16(1000))
    assert (cfg.n, cfg.replications, cfg.seed, cfg.calibration_replications) == (100, 200, 7, 1000)
    assert config_hash(cfg) == config_hash(uniform_cfg())


def test_config_stores_alpha_as_a_python_float():
    cfg = uniform_cfg(alpha=np.float64(0.05))
    assert type(cfg.alpha) is float
    assert config_hash(cfg) == config_hash(uniform_cfg())
    assert canonical_config_text(cfg) == canonical_config_text(uniform_cfg())
    assert "alpha = 0.05\n" in canonical_config_text(cfg)
    assert run_power_study(cfg).to_csv() == run_power_study(uniform_cfg()).to_csv()
    for value in ("0.05", None, True):
        with pytest.raises(DomainError, match="alpha must be a number"):
            uniform_cfg(alpha=value)


def test_parse_config_golden():
    cfg = parse_sim_config(CONFIG_TEXT)
    assert cfg.kind is Kind.FIRST
    assert cfg.base_family == "exponential"
    assert cfg.theta0 == (1.0,)
    assert cfg.lambda_grid == (1.0, 2.0)
    assert cfg.n == 50
    assert cfg.replications == 200
    assert cfg.alpha == 0.05
    assert cfg.seed == 42
    assert cfg.calibration_replications == 1000
    assert cfg.theta_bounds == ((0.1, 10.0),)


def test_parse_config_kind_spellings():
    for spelling, kind in [("1", Kind.FIRST), ("second", Kind.SECOND)]:
        cfg = parse_sim_config(CONFIG_TEXT.replace("kind = first", f"kind = {spelling}"))
        assert cfg.kind is kind


def test_parse_config_errors():
    with pytest.raises(ParseError, match="unknown config key"):
        parse_sim_config(CONFIG_TEXT + "bogus = 1\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_sim_config(CONFIG_TEXT + "n = 60\n")
    with pytest.raises(ParseError, match="missing config key"):
        parse_sim_config(CONFIG_TEXT.replace("alpha = 0.05\n", ""))
    with pytest.raises(ParseError, match="kind"):
        parse_sim_config(CONFIG_TEXT.replace("kind = first", "kind = third"))
    with pytest.raises(ParseError, match="lo:hi"):
        parse_sim_config(CONFIG_TEXT.replace("0.1:10", "0.1"))
    with pytest.raises(ParseError, match="key = value"):
        parse_sim_config("kind first\n")
    with pytest.raises(ParseError, match="invalid config"):
        parse_sim_config(CONFIG_TEXT.replace("alpha = 0.05", "alpha = 1.5"))


def test_config_hash_tracks_content():
    a = parse_sim_config(CONFIG_TEXT)
    b = parse_sim_config(CONFIG_TEXT)  # identical content, fresh object
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    c = uniform_cfg()
    assert config_hash(a) != config_hash(c)
    assert config_hash(c) != config_hash(uniform_cfg(seed=8))
    assert "seed = 7" in canonical_config_text(c)


def test_default_theta_bounds_bracket_theta0():
    cfg = parse_sim_config(CONFIG_TEXT.replace("theta_bounds = 0.1:10\n", ""))
    assert cfg.theta_bounds is None
    assert cfg.effective_theta_bounds() == ((1.0 / 20.0, 20.0),)


def test_lrt_statistics_nesting_is_exact():
    cfg = parse_sim_config(CONFIG_TEXT)
    for rep in range(25):
        x = _null_replication(cfg, 3, rep)
        full, misspec = lrt_statistics(x, cfg)
        assert full >= misspec >= 0.0


def test_lrt_statistics_uniform_misspec_is_identically_zero():
    cfg = uniform_cfg()
    for rep in range(25):
        x = _null_replication(cfg, 1, rep)
        full, misspec = lrt_statistics(x, cfg)
        assert misspec == 0.0
        assert full >= 0.0


def test_calibrate_requires_enough_replications():
    with pytest.raises(DomainError):
        calibrate(uniform_cfg(calibration_replications=999))


def test_too_few_calibration_replications_fail_at_parse_time():
    with pytest.raises(DomainError, match="calibration_replications"):
        uniform_cfg(calibration_replications=999)
    text = CONFIG_TEXT.replace("calibration_replications = 1000",
                               "calibration_replications = 999")
    with pytest.raises(ParseError, match="calibration_replications must be >= 1000"):
        parse_sim_config(text)


@pytest.mark.parametrize("old,new", [
    ("lambda_grid = 1.0, 2.0", "lambda_grid = 1.0, nan"),
    ("lambda_grid = 1.0, 2.0", "lambda_grid = 1.0, inf"),
    ("theta_bounds = 0.1:10", "theta_bounds = 10:0.1"),  # reversed
    ("theta_bounds = 0.1:10", "theta_bounds = 0.1:10,0.1:10"),  # wrong dimension
    ("theta_bounds = 0.1:10", "theta_bounds = -1:10"),  # outside the domain
    ("base = exponential(rate=1.0)", "base = uniform()"),  # nothing to bound
], ids=["grid-nan", "grid-inf", "box-reversed", "box-dimension", "box-domain",
        "box-on-uniform"])
def test_bad_config_fails_at_parse_time_with_exit_2(old, new, tmp_path):
    text = CONFIG_TEXT.replace(old, new)
    with pytest.raises(ParseError, match="invalid config"):
        parse_sim_config(text)
    cfg = tmp_path / "study.cfg"
    cfg.write_text(text)
    assert CliRunner().invoke(main, ["simulate", "--config", str(cfg)]).exit_code == 2


def test_import_loads_no_scipy_integrate_or_special():
    code = ("import sys, lehmann, lehmann.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_calibrate_logs_the_wilks_diagnostic_at_info(caplog):
    with caplog.at_level("INFO", logger="lehmann.lrt_sim"):
        calibrate(uniform_cfg())
    assert "Wilks chi2 df=1 would give 3.8415" in caplog.text


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, lehmann, lehmann.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_calibrate_is_deterministic_and_monotone_in_alpha():
    cfg = uniform_cfg()
    assert calibrate(cfg) == calibrate(cfg)
    loose = calibrate(uniform_cfg(alpha=0.5))
    assert calibrate(cfg)[0] > loose[0]


def test_calibrate_median_at_half_alpha():
    cfg = uniform_cfg(alpha=0.5)
    stats = np.array(
        [lrt_statistics(_null_replication(cfg, 0, rep), cfg)[0]
         for rep in range(cfg.calibration_replications)]
    )
    want = float(np.quantile(stats, 0.5, method="higher"))
    assert calibrate(cfg)[0] == want


def test_calibrate_logs_wilks_diagnostic(caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="lehmann.lrt_sim"):
        calibrate(uniform_cfg())
    assert "Wilks" in caplog.text


def test_power_study_uniform_and_report_shape():
    cfg = uniform_cfg(lambda_grid=(1.0, 1.5, 2.5), n=40, replications=400,
                      alpha=0.1, calibration_replications=2000)
    report = run_power_study(cfg)

    assert report.config_hash == config_hash(cfg)
    assert report.generator == "pcg64"
    assert report.warnings == ()
    assert [c.lam for c in report.cells] == [1.0, 1.5, 2.5]
    for cell in report.cells:
        assert 0.0 <= cell.power_full <= 1.0
        assert cell.delta_closed == power_loss_closed(cell.lam)
        assert cell.failures == 0
        # no free null parameter, so the restricted statistic is flat zero
        assert cell.power_misspec == 0.0
        assert cell.crit_misspec == 0.0

    size = report.cells[0].power_full
    assert abs(size - cfg.alpha) <= 3.0 * math.sqrt(cfg.alpha * (1 - cfg.alpha) / 400)

    for lo, hi in zip(report.cells, report.cells[1:]):
        pooled = math.hypot(lo.se_full, hi.se_full)
        assert hi.power_full >= lo.power_full - 2.0 * pooled


def test_power_study_report_is_byte_identical():
    cfg = uniform_cfg(replications=150)
    a = run_power_study(cfg)
    b = run_power_study(cfg)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_report_csv_and_json_round_trip():
    cfg = uniform_cfg(replications=150)
    report = run_power_study(cfg)

    csv_lines = report.to_csv().splitlines()
    assert csv_lines[0] == f"# config_hash: {config_hash(cfg)}"
    assert f"# seed: {cfg.seed}" in csv_lines
    header = next(l for l in csv_lines if not l.startswith("#"))
    names = header.split(",")
    assert names[0] == "lambda" and "power_full" in names and "failures" in names
    rows = [l for l in csv_lines if not l.startswith("#")][1:]
    assert len(rows) == len(cfg.lambda_grid)
    first = dict(zip(names, rows[0].split(",")))
    assert float(first["lambda"]) == 1.0
    assert float(first["power_full"]) == report.cells[0].power_full

    blob = json.loads(report.to_json())
    assert blob["config_hash"] == config_hash(cfg)
    assert blob["config"]["base"] == "uniform()"
    assert blob["cells"][1]["lambda"] == 2.0
    assert blob["cells"][1]["power_full"] == report.cells[1].power_full


def test_kl_bridge_tracks_closed_form():
    cfg = uniform_cfg(lambda_grid=(1.0, 3.0), n=1000, replications=200)
    report = run_power_study(cfg)

    null_cell, alt_cell = report.cells
    # at the null the fitted log-ratio mean carries an O(1/n) bias (the
    # Wilks mean of the full statistic over 2n), allow for it explicitly
    assert abs(null_cell.mean_log_ratio) < 4.0 * null_cell.se_mean_log_ratio + 2.0 / cfg.n
    assert abs(alt_cell.mean_log_ratio - power_loss_closed(3.0)) < (
        4.0 * alt_cell.se_mean_log_ratio + 2.0 / cfg.n
    )


def test_power_ordering_exponential_moderate_lambda():
    # identifiable first-kind setup where neither test saturates
    cfg = SimConfig(
        kind=Kind.FIRST,
        base_family="exponential",
        theta0=(1.0,),
        lambda_grid=(1.5,),
        n=50,
        replications=500,
        alpha=0.05,
        seed=11,
        calibration_replications=1000,
    )
    report = run_power_study(cfg)
    cell = report.cells[0]
    assert 0.0 < cell.power_misspec < cell.power_full < 1.0
    pooled = math.hypot(cell.se_full, cell.se_misspec)
    assert cell.power_full - cell.power_misspec > 3.0 * pooled
