"""Config parsing, calibration, and the Monte Carlo power study."""

import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
from typing import ClassVar

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmann import (
    FAMILIES,
    DegenerateSampleError,
    DomainError,
    Exponential,
    Kind,
    NumericalError,
    ParseError,
    SimConfig,
    Uniform,
    Weibull,
    calibrate,
    config_hash,
    extend,
    fit_full,
    lrt_statistics,
    parse_sim_config,
    power_loss_closed,
    run_power_study,
)
from lehmann import lrt_sim
from lehmann.cli import main
from lehmann.lrt_sim import (
    CellResult,
    LrtReport,
    _draw_block,
    _lrt_rows,
    canonical_config_text,
)

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
        base=Uniform(),
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
        uniform_cfg(base="cauchy")
    with pytest.raises(DomainError):
        uniform_cfg(base=Exponential(1.0), theta_bounds=((0.1, 10.0), (0.1, 10.0)))


@pytest.mark.parametrize("grid", ["12", "1.5", 2.0, ("1.5",), (True,)])
def test_config_rejects_a_lambda_grid_that_is_no_sequence_of_numbers(grid):
    # "12" used to become (1.0, 2.0), "1.5" raised a bare ValueError, 2.0 a TypeError
    with pytest.raises(DomainError, match="lambda_grid"):
        uniform_cfg(lambda_grid=grid)


@pytest.mark.parametrize("box", ["0.1:10", 0.1, (0.1, 10.0), (("0.1", "10"),),
                                 ((0.1, 10.0, 20.0),), ((0.1, True),)])
def test_config_rejects_theta_bounds_that_are_no_pairs_of_numbers(box):
    # "0.1:10" used to raise a bare ValueError while unpacking its characters
    with pytest.raises(DomainError, match="theta_bounds must be"):
        uniform_cfg(base=Exponential(1.0), theta_bounds=box)
    with pytest.raises(DomainError, match="theta_bounds must be"):
        fit_full(Kind.FIRST, "exponential", [0.5, 1.0, 2.0], theta_bounds=box)


def test_config_takes_a_box_of_any_sequence_of_number_pairs():
    want = uniform_cfg(base=Exponential(1.0), theta_bounds=((0.1, 10.0),))
    for box in ([[0.1, 10]], np.array([[0.1, 10.0]]), [(np.float64(0.1), np.int64(10))]):
        assert uniform_cfg(base=Exponential(1.0), theta_bounds=box) == want


@pytest.mark.parametrize("field, value", [
    ("n", 50.5), ("replications", 200.0), ("seed", 7.5), ("calibration_replications", 1000.5),
    ("seed", True), ("n", True)])
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
    assert cfg.base == Exponential(1.0)
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
    with pytest.raises(ParseError, match="theta_bounds': cannot parse '0.1:ten'"):
        parse_sim_config(CONFIG_TEXT.replace("0.1:10", "0.1:ten"))
    with pytest.raises(ParseError, match="config key 'n': cannot parse 'abc'"):
        parse_sim_config(CONFIG_TEXT.replace("n = 50", "n = abc"))


@pytest.mark.parametrize("text, message", [
    ("kind = 1\nbase = uniform()\noops",
     "line 3: expected 'key = value', got 'oops'"),
    ("kind = 1\n\n# note\nbogus = 2",
     "line 4: unknown config key 'bogus' (expected kind, base, lambda_grid, n, "
     "replications, alpha, seed, calibration_replications, theta_bounds)"),
    ("kind = 1\nkind = 2", "line 2: duplicate config key 'kind'"),
])
def test_parse_config_errors_name_the_line(text, message):
    # a line number is not the character offset ``position`` stands for
    with pytest.raises(ParseError) as info:
        parse_sim_config(text)
    assert str(info.value) == message
    assert info.value.position is None


def test_a_field_parser_error_names_the_line_and_key(tmp_path):
    # the descriptor parser's own error, prefixed; its text, position and
    # expectation are kept, the position counting into that text
    text = CONFIG_TEXT.replace("exponential(rate=1.0)", "weibull(shape=2,scale=1")
    with pytest.raises(ParseError) as info:
        parse_sim_config(text)
    assert str(info.value) == (
        "line 3: config key 'base': found 'end of input' at position 23 (expected ')')")
    assert info.value.text == "weibull(shape=2,scale=1"
    assert info.value.position == 23
    assert info.value.expected == "')'"
    with pytest.raises(ParseError) as info:
        parse_sim_config(CONFIG_TEXT.replace("kind = first", "kind = third"))
    assert str(info.value) == (
        "line 2: config key 'kind': cannot parse 'third' (expected 1, first, 2, second)")
    cfg = tmp_path / "bad_base.cfg"
    cfg.write_text(text)
    res = CliRunner().invoke(main, ["simulate", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "line 3: config key 'base'" in res.output


def test_config_hash_tracks_content():
    a = parse_sim_config(CONFIG_TEXT)
    b = parse_sim_config(CONFIG_TEXT)  # identical content, fresh object
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    c = uniform_cfg()
    assert config_hash(a) != config_hash(c)
    assert config_hash(c) != config_hash(uniform_cfg(seed=8))
    assert "seed = 7" in canonical_config_text(c)


# config_hash of three configs, recorded before SimConfig held its base law
PINNED_HASHES = {
    "given-box": "34e9308f193842b7c30d73bdd1f3a610715be702f5c3611bd6f8c596f6177069",
    "default-box": "24629c7396dcf788a06a9db0687187b1660c07c4dbf59bf28bb6eb06bd36b0f6",
    "uniform": "b61c640243fd82440f350a61fa9f3c0fdef53727c4b92952bee934bb49a363d3",
}


def test_config_hash_is_pinned():
    configs = {
        "given-box": parse_sim_config(CONFIG_TEXT),
        "default-box": parse_sim_config(CONFIG_TEXT.replace("theta_bounds = 0.1:10\n", "")),
        "uniform": uniform_cfg(),
    }
    assert {name: config_hash(cfg) for name, cfg in configs.items()} == PINNED_HASHES


@pytest.mark.parametrize("base,box", [
    (Exponential(1.0), ((0.1, 10.0),)),
    (Exponential(1.0), None),
    (Weibull(2.0, 1.0), ((0.2, 8.0), (0.1, 5.0))),
    (Weibull(2.0, 1.0), None),
    (Uniform(), ()),
    (Uniform(), None),
], ids=["exponential-given", "exponential-default", "weibull-given",
        "weibull-default", "uniform-given", "uniform-default"])
def test_canonical_config_text_is_a_config_file(base, box):
    # the uniform text carries an empty "theta_bounds = " line
    cfg = uniform_cfg(base=base, theta_bounds=box, kind=Kind.SECOND)
    text = canonical_config_text(cfg)
    assert parse_sim_config(text) == cfg


_POSITIVE = st.floats(min_value=1e-30, max_value=1e30)


@st.composite
def _sim_configs(draw):
    base = draw(st.one_of(
        st.builds(Exponential, _POSITIVE),
        st.builds(Weibull, _POSITIVE, _POSITIVE),
        st.just(Uniform()),
    ))
    given = st.tuples(*(
        st.tuples(_POSITIVE, st.floats(min_value=1.001, max_value=1e6)).map(
            lambda pair: (pair[0], pair[0] * pair[1]))
        for _ in base.theta
    ))
    return SimConfig(
        kind=draw(st.sampled_from(Kind)),
        base=base,
        lambda_grid=tuple(draw(st.lists(_POSITIVE, min_size=1, max_size=5))),
        n=draw(st.integers(2, 10**6)),
        replications=draw(st.integers(100, 10**7)),
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        seed=draw(st.integers(-(2**128), 2**128)),
        calibration_replications=draw(st.integers(1000, 10**7)),
        theta_bounds=draw(st.one_of(st.none(), given)),
    )


@settings(max_examples=300)
@given(_sim_configs())
def test_canonical_config_text_parses_back_to_its_config(cfg):
    assert parse_sim_config(canonical_config_text(cfg)) == cfg


def test_field_table_keys_are_the_config_fields_in_order():
    assert list(lrt_sim._FIELD_TEXT) == [f.name for f in dataclasses.fields(SimConfig)]


# canonical text and the JSON of a cell-free report, recorded before the
# config reader and writers were derived from one field table
PINNED_CONFIG_BYTES = {
    "exponential-given-box": (
        SimConfig(Kind.FIRST, Exponential(1.5), (1.0, 2.0), 50, 200, 0.05, 42, 1000,
                  ((0.1, 10.0),)),
        "alpha = 0.05\nbase = exponential(rate=1.5)\ncalibration_replications = 1000\n"
        "kind = 1\nlambda_grid = 1.0,2.0\nn = 50\nreplications = 200\nseed = 42\n"
        "theta_bounds = 0.1:10.0\n",
        '{"config_hash": "70f2986cdf3ef9a51fd25bdea7105fb18eac7268db3cf278247decf9419799d3", '
        '"seed": 42, "generator": "pcg64", "config": {"kind": 1, '
        '"base": "exponential(rate=1.5)", "lambda_grid": [1.0, 2.0], "n": 50, '
        '"replications": 200, "alpha": 0.05, "calibration_replications": 1000, '
        '"theta_bounds": [[0.1, 10.0]]}, "crit_full": 4.5, "crit_misspec": 2.25, '
        '"cells": [], "warnings": []}',
    ),
    "weibull-default-box": (
        SimConfig(Kind.SECOND, Weibull(2.0, 0.5), (0.5, 1.0 / 3.0), 20, 300, 0.1,
                  2**40 + 3, 2000),
        "alpha = 0.1\nbase = weibull(shape=2.0,scale=0.5)\ncalibration_replications = 2000\n"
        "kind = 2\nlambda_grid = 0.5,0.3333333333333333\nn = 20\nreplications = 300\n"
        "seed = 1099511627779\ntheta_bounds = 0.1:40.0,0.025:10.0\n",
        '{"config_hash": "39a7de184f84c4449cc5448441735861c75108f1e623ef38ad1ce100718c850f", '
        '"seed": 1099511627779, "generator": "pcg64", "config": {"kind": 2, '
        '"base": "weibull(shape=2.0,scale=0.5)", "lambda_grid": [0.5, 0.3333333333333333], '
        '"n": 20, "replications": 300, "alpha": 0.1, "calibration_replications": 2000, '
        '"theta_bounds": [[0.1, 40.0], [0.025, 10.0]]}, "crit_full": 4.5, '
        '"crit_misspec": 2.25, "cells": [], "warnings": []}',
    ),
    "uniform": (
        SimConfig(Kind.FIRST, Uniform(), (3.0,), 1, 100, 0.01, -7, 1000),
        "alpha = 0.01\nbase = uniform()\ncalibration_replications = 1000\nkind = 1\n"
        "lambda_grid = 3.0\nn = 1\nreplications = 100\nseed = -7\ntheta_bounds = \n",
        '{"config_hash": "511651ae9b14e7cc5f36c16fe6e7f5356cd158abf8862ea64a6dbe28c62c424f", '
        '"seed": -7, "generator": "pcg64", "config": {"kind": 1, "base": "uniform()", '
        '"lambda_grid": [3.0], "n": 1, "replications": 100, "alpha": 0.01, '
        '"calibration_replications": 1000, "theta_bounds": []}, "crit_full": 4.5, '
        '"crit_misspec": 2.25, "cells": [], "warnings": []}',
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIG_BYTES))
def test_config_text_and_report_json_bytes_are_pinned(name):
    # no fitting runs here, so unlike the pinned study reports these bytes
    # hold on every float fingerprint
    cfg, text, blob = PINNED_CONFIG_BYTES[name]
    assert canonical_config_text(cfg) == text
    report = LrtReport(config=cfg, crit_full=4.5, crit_misspec=2.25, cells=())
    assert report.to_json() == blob


def test_report_hash_follows_its_config():
    cfg, other = uniform_cfg(), uniform_cfg(seed=8)
    report = dataclasses.replace(
        LrtReport(config=cfg, crit_full=4.5, crit_misspec=2.25, cells=()), config=other)
    assert json.loads(report.to_json())["config_hash"] == config_hash(other)
    assert report.to_csv().startswith(f"# config_hash: {config_hash(other)}\n")
    assert "config_hash" not in {f.name for f in dataclasses.fields(LrtReport)}


def test_default_theta_bounds_bracket_theta0():
    cfg = parse_sim_config(CONFIG_TEXT.replace("theta_bounds = 0.1:10\n", ""))
    assert cfg.theta_bounds == ((1.0 / 20.0, 20.0),)


def test_lrt_statistics_nesting_is_exact():
    cfg = parse_sim_config(CONFIG_TEXT)
    for rep in range(25):
        x = _draw_block(cfg, cfg.base, 3, [rep])[0]
        full, misspec = lrt_statistics(x, cfg)
        assert full >= misspec >= 0.0


def test_lrt_statistics_uniform_misspec_is_identically_zero():
    cfg = uniform_cfg()
    for rep in range(25):
        x = _draw_block(cfg, cfg.base, 1, [rep])[0]
        full, misspec = lrt_statistics(x, cfg)
        assert misspec == 0.0
        assert full >= 0.0


def test_lrt_statistics_rejects_one_value_and_no_value():
    cfg = parse_sim_config(CONFIG_TEXT)
    with pytest.raises(DegenerateSampleError, match="only one"):
        lrt_statistics([0.7], cfg)
    with pytest.raises(DomainError, match="at least one value"):
        lrt_statistics([], cfg)
    # the uniform has no base parameter to identify
    full, misspec = lrt_statistics([0.7], uniform_cfg(n=1))
    assert full >= misspec == 0.0


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
    ("theta_bounds = 0.1:10", "theta_bounds ="),  # empty
    ("base = exponential(rate=1.0)", "base = uniform()"),  # nothing to bound
    ("n = 50", "n = 1"),  # one value identifies no base parameter
], ids=["grid-nan", "grid-inf", "box-reversed", "box-dimension", "box-domain",
        "box-empty", "box-on-uniform", "n-one"])
def test_bad_config_fails_at_parse_time_with_exit_2(old, new, tmp_path):
    text = CONFIG_TEXT.replace(old, new)
    with pytest.raises(ParseError, match="invalid config"):
        parse_sim_config(text)
    cfg = tmp_path / "study.cfg"
    cfg.write_text(text)
    assert CliRunner().invoke(main, ["simulate", "--config", str(cfg)]).exit_code == 2


def test_calibrate_logs_the_wilks_diagnostic_at_info(caplog):
    with caplog.at_level("INFO", logger="lehmann.lrt_sim"):
        calibrate(uniform_cfg())
    assert "Wilks chi2 df=1 would give 3.8415" in caplog.text


# scipy is imported by calibrate and numpy.random by the first draw; the
# package import loads neither
@pytest.mark.parametrize("package", ["scipy", "numpy.random"])
def test_import_loads_no_lazy_module(package):
    code = ("import sys, lehmann, lehmann.cli; "
            f"print(sorted(m for m in sys.modules if (m + '.').startswith('{package}.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_calibrate_is_deterministic_and_monotone_in_alpha():
    cfg = uniform_cfg()
    assert calibrate(cfg) == calibrate(cfg)
    loose = calibrate(uniform_cfg(alpha=0.5))
    assert calibrate(cfg)[0] > loose[0]


def test_calibrate_median_at_half_alpha():
    cfg = uniform_cfg(alpha=0.5)
    stats = np.array(
        [lrt_statistics(_draw_block(cfg, cfg.base, 0, [rep])[0], cfg)[0]
         for rep in range(cfg.calibration_replications)]
    )
    want = float(np.quantile(stats, 0.5, method="higher"))
    assert calibrate(cfg)[0] == want


def test_calibrate_logs_wilks_diagnostic(caplog):
    with caplog.at_level(logging.INFO, logger="lehmann.lrt_sim"):
        calibrate(uniform_cfg())
    assert "Wilks" in caplog.text


def test_power_study_uniform_and_report_shape():
    cfg = uniform_cfg(lambda_grid=(1.0, 1.5, 2.5), n=40, replications=400,
                      alpha=0.1, calibration_replications=2000)
    report = run_power_study(cfg)

    assert report.config_hash == config_hash(cfg)
    # the generator is a class constant, not a field, that the reports write
    assert report.generator == "pcg64"
    assert "generator" not in {f.name for f in dataclasses.fields(LrtReport)}
    assert "# generator: pcg64" in report.to_csv().splitlines()
    assert json.loads(report.to_json())["generator"] == "pcg64"
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


def test_report_columns_are_the_cell_fields():
    report = run_power_study(uniform_cfg(replications=150))
    names = [f.name for f in dataclasses.fields(CellResult)]
    assert names[0] == "lam"
    columns = ["lambda"] + names[1:]
    header = next(l for l in report.to_csv().splitlines() if not l.startswith("#"))
    assert header.split(",") == columns
    for cell in json.loads(report.to_json())["cells"]:
        assert list(cell) == columns


def test_all_failed_cell_reports_nan_statistics(monkeypatch):
    # no real sample fails every replication; fail the second grid cell
    cfg = uniform_cfg(replications=150)
    real = lrt_sim._cell_statistics

    def fail_cell_two(cfg, dist, cell, replications):
        if cell == 2:
            return np.empty((0, 2)), replications
        return real(cfg, dist, cell, replications)

    monkeypatch.setattr(lrt_sim, "_cell_statistics", fail_cell_two)
    report = run_power_study(cfg)
    ok, failed = report.cells
    assert ok.failures == 0 and math.isfinite(ok.power_full)
    assert failed.lam == 2.0 and failed.failures == 150
    for name in ("power_full", "power_misspec", "se_full", "se_misspec",
                 "mean_log_ratio", "se_mean_log_ratio"):
        assert math.isnan(getattr(failed, name)), name
    assert failed.delta_closed == power_loss_closed(2.0)
    assert (failed.crit_full, failed.crit_misspec) == (report.crit_full, report.crit_misspec)
    assert report.warnings == ("cell lambda=2.0: all replications failed",)

    csv_lines = report.to_csv().splitlines()
    assert "# warning: cell lambda=2.0: all replications failed" in csv_lines
    assert csv_lines[-1] == ",".join(map(repr, failed.as_dict().values()))
    assert csv_lines[-1].startswith("2.0,nan,nan,")
    assert csv_lines[-1].endswith(",150")
    blob = json.loads(report.to_json())
    assert blob["warnings"] == list(report.warnings)
    cell = blob["cells"][1]
    assert cell["failures"] == 150 and math.isnan(cell["power_full"])
    assert cell["crit_full"] == report.crit_full


@pytest.mark.parametrize("lam, n, replications, failed, warning", [
    (1e300, 5, 100, 100, "cell lambda=1e+300: all replications failed"),
    (1e15, 1, 200, 7,
     "cell lambda=1000000000000000.0: 7 of 200 replications failed to fit (over 1%)"),
])
def test_power_study_counts_and_flags_the_replications_that_fail(
        lam, n, replications, failed, warning):
    # a huge first-kind exponent rounds draws of the uniform law onto 1.0;
    # a sample of nothing but 1.0 has sum ln F = 0 and no exponent MLE
    cfg = SimConfig(Kind.FIRST, Uniform(), (lam,), n, replications, 0.05, 1, 1000)
    X = _draw_block(cfg, extend(cfg.base, lam, cfg.kind), 1, range(replications))
    assert np.count_nonzero((X == 1.0).all(axis=1)) == failed
    report = run_power_study(cfg)
    cell, = report.cells
    assert cell.failures == failed
    assert report.warnings == (warning,)
    assert f"# warning: {warning}" in report.to_csv().splitlines()
    assert math.isnan(cell.power_full) == (failed == replications)


@dataclasses.dataclass(frozen=True)
class _WholeExponential(Exponential):
    """The exponential law with every draw rounded up to a whole number, so
    the values of a sample are all equal with positive probability, and
    always once the rate is large."""

    family_id: ClassVar[str] = "whole_exponential"

    def _quantile(self, u):
        return np.ceil(super()._quantile(u))


def test_calibration_excludes_and_reports_the_replications_that_fail(caplog):
    cfg = SimConfig(Kind.FIRST, _WholeExponential(1.0), (1.0,), 2, 100, 0.05, 5, 1000)
    X = _draw_block(cfg, cfg.base, 0, range(1000))
    equal = int(np.count_nonzero(X[:, 0] == X[:, 1]))
    assert 0 < equal < 1000
    with caplog.at_level(logging.WARNING, logger="lehmann.lrt_sim"):
        crit = calibrate(cfg)
    assert caplog.messages == [
        f"calibration: {equal} of 1000 replications failed and were excluded"]
    stats, failures = lrt_sim._cell_statistics(cfg, cfg.base, 0, 1000)
    assert failures == equal and len(stats) == 1000 - equal
    assert crit == tuple(np.quantile(stats, 0.95, axis=0, method="higher").tolist())


def test_calibration_with_no_fitted_replication_raises():
    cfg = SimConfig(Kind.FIRST, _WholeExponential(1e6), (1.0,), 5, 100, 0.05, 5, 1000)
    assert (_draw_block(cfg, cfg.base, 0, range(1000)) == 1.0).all()
    with pytest.raises(NumericalError, match="every calibration replication failed to fit"):
        calibrate(cfg)


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


@pytest.mark.parametrize("family,theta0", [("exponential", (1.0,)), ("weibull", (2.0, 1.0))])
def test_second_kind_closure_costs_the_misspecified_test_nothing(family, theta0):
    # the second-kind law of these bases stays in the family, so the fit
    # with lam pinned to 1 reaches the full fit row by row, and the log
    # ratio's limit min over theta of KL(G(lam, theta0) || F(theta)) is 0
    cfg = SimConfig(kind=Kind.SECOND, base=FAMILIES[family].from_theta(theta0),
                    lambda_grid=(1.0, 3.0), n=50, replications=200, alpha=0.05,
                    seed=7, calibration_replications=1000)
    for cell, lam in enumerate(cfg.lambda_grid, start=1):
        X = _draw_block(cfg, extend(cfg.base, lam, cfg.kind), cell, range(cfg.replications))
        stats, failed = _lrt_rows(cfg, X)
        full, misspec = stats.T
        assert not failed.any() and len(full) == cfg.replications
        assert np.max(np.abs(full - misspec)) <= 1e-9, lam
    for cell in run_power_study(cfg).cells:
        assert abs(cell.mean_log_ratio) <= 1e-12, cell.lam


def test_power_ordering_exponential_moderate_lambda():
    # identifiable first-kind setup where neither test saturates
    cfg = SimConfig(
        kind=Kind.FIRST,
        base=Exponential(1.0),
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
