"""End-to-end command-line behavior, including exit codes and formats."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from click.testing import CliRunner

from lehmann import (
    DomainError,
    Exponential,
    Kind,
    ParseError,
    Sample,
    Uniform,
    Weibull,
    extend,
    fit_full,
    loglik,
    mle_lambda,
    parse_distribution,
    parse_sim_config,
    sample,
    sample_to_csv,
)
from lehmann import cli
from lehmann.cli import main

UNIFORM_SIM_CONFIG = """\
kind = first
base = uniform()
lambda_grid = 1.0, 2.0
n = 60
replications = 120
alpha = 0.1
seed = 5
calibration_replications = 1000
"""


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, catch_exceptions=False, **kw)


def test_sample_csv_deterministic(runner):
    args = ["sample", "--dist", "exponential(rate=2.0)", "--lambda", "3",
            "--n", "5", "--seed", "9"]
    a = invoke(runner, args)
    b = invoke(runner, args)
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output.startswith("# seed: 9\n# source: lehmann1(base=exponential(rate=2.0),lambda=3.0)\n")
    values = [float(v) for v in a.output.splitlines()[4:]]
    want = sample(extend(Exponential(2.0), 3.0), 5, 9)
    assert values == [float(v) for v in want.values]


def test_sample_matches_library(runner):
    res = invoke(runner, ["sample", "--dist", "lehmann2(base=weibull(shape=2.0,scale=1.0),lambda=1.5)",
                          "--n", "4", "--seed", "3"])
    assert res.exit_code == 0
    s = sample(extend(Weibull(2.0, 1.0), 1.5, Kind.SECOND), 4, 3)
    assert res.output == sample_to_csv(s)


def test_sample_json_format(runner):
    res = invoke(runner, ["sample", "--dist", "uniform()", "--n", "3",
                          "--seed", "1", "--format", "json"])
    blob = json.loads(res.output)
    assert blob["seed"] == 1
    assert blob["source"] == "uniform()"
    assert blob["generator"] == "pcg64"
    assert len(blob["values"]) == 3


# float edge cases: signed zero, the least subnormal, nan, infinities, huge
EDGE_VALUES = [-0.0, 5e-324, math.nan, math.inf, -math.inf, 1e308, 0.1]


@pytest.mark.parametrize("fmt, want", [
    ("csv", "# seed: 4\n# source: uniform()\n# generator: pcg64\nvalue\n"
            "-0.0\n5e-324\nnan\ninf\n-inf\n1e+308\n0.1\n"),
    ("json", '{"seed": 4, "source": "uniform()", "generator": "pcg64", '
             '"values": [-0.0, 5e-324, NaN, Infinity, -Infinity, 1e+308, 0.1]}\n'),
])
def test_sample_output_bytes_are_pinned_on_float_edges(runner, monkeypatch, fmt, want):
    edges = Sample(np.array(EDGE_VALUES), 4, "uniform()")
    monkeypatch.setattr(cli, "draw_sample", lambda dist, n, seed: edges)
    res = invoke(runner, ["sample", "--dist", "uniform()", "--n", "7",
                          "--seed", "4", "--format", fmt])
    assert res.output == want


def test_sample_out_writes_file(runner, tmp_path):
    target = tmp_path / "s.csv"
    res = invoke(runner, ["sample", "--dist", "uniform()", "--n", "2",
                          "--seed", "0", "--out", str(target)])
    assert res.exit_code == 0
    assert res.output == ""
    assert target.read_text().startswith("# seed: 0")


def test_sample_usage_errors(runner):
    assert invoke(runner, ["sample", "--dist", "uniform()", "--n", "0"]).exit_code == 2
    assert invoke(runner, ["sample", "--dist", "nosuch()", "--n", "3"]).exit_code == 2
    res = invoke(runner, ["sample", "--dist", "lehmann1(base=uniform(),lambda=2.0)",
                          "--lambda", "3", "--n", "3"])
    assert res.exit_code == 2
    assert "exponent" in res.output


def test_fit_round_trips_sample_bit_for_bit(runner, tmp_path):
    g = extend(Uniform(), 2.0)
    s = sample(g, 10_000, 123)
    path = tmp_path / "draws.csv"
    path.write_text(sample_to_csv(s))

    res = invoke(runner, ["fit", str(path)])
    assert res.exit_code == 0
    blob = json.loads(res.output)
    lam_hat = mle_lambda(Kind.FIRST, Uniform, (), s.values)
    assert blob["lambda_hat"] == lam_hat
    assert abs(blob["lambda_hat"] - 2.0) < 3.0 * 2.0 / 100.0
    assert blob["n"] == 10_000

    lib = fit_full(Kind.FIRST, Uniform, s)
    assert res.output.strip() == lib.to_json()


def test_fit_reads_stdin_with_dist_override(runner):
    s = sample(extend(Uniform(), 4.0), 500, 6)
    res = invoke(runner, ["fit", "-", "--dist", "uniform()"],
                 input=sample_to_csv(s))
    assert res.exit_code == 0
    assert json.loads(res.output)["lambda_hat"] == pytest.approx(4.0, rel=0.2)


def test_fit_exit_one_on_degenerate_sample(runner):
    head = "# source: lehmann1(base=exponential(rate=1.0),lambda=1.0)\nvalue\n"
    for values in ("1.5\n1.5\n1.5\n", "0.7\n"):
        res = invoke(runner, ["fit", "-"], input=head + values)
        assert res.exit_code == 1
        assert "equal" in res.output


def test_fit_without_a_recorded_source_needs_dist(runner):
    text = "# seed: 3\nvalue\n0.5\n0.7\n1.9\n"
    res = invoke(runner, ["fit", "-"], input=text)
    assert res.exit_code == 2
    assert "the file records no source descriptor; pass --dist" in res.output
    res = invoke(runner, ["fit", "-", "--dist", "lehmann1(base=exponential(rate=1.0),lambda=1.0)"],
                 input=text)
    assert res.exit_code == 0


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("base", ["exponential(rate=1.0)", "weibull(shape=2.0,scale=1.0)"])
def test_fit_exit_two_on_non_finite_value(runner, base, bad):
    text = f"# source: lehmann1(base={base},lambda=1.0)\nvalue\n0.5\n{bad}\n1.2\n"
    res = invoke(runner, ["fit", "-"], input=text)
    assert res.exit_code == 2
    family = base.split("(")[0]
    assert f"x[1]={float(bad)!r} lies outside the support" in res.output
    assert f"of the {family} family" in res.output


def test_moments_csv_and_json(runner):
    res = invoke(runner, ["moments", "--dist", "lehmann1(base=uniform(),lambda=2.0)",
                          "--k", "2"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "# dist: lehmann1(base=uniform(),lambda=2.0)"
    assert lines[1] == "k,value"
    rows = dict(line.split(",") for line in lines[2:])
    assert float(rows["1"]) == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert float(rows["2"]) == pytest.approx(0.5, abs=1e-10)

    as_json = invoke(runner, ["moments", "--dist", "uniform()", "--format", "json"])
    blob = json.loads(as_json.output)
    assert blob["dist"] == "uniform()"
    assert blob["moments"] == [{"k": 1, "value": pytest.approx(0.5, abs=1e-12)}]


def test_moments_rejects_bad_order(runner):
    assert invoke(runner, ["moments", "--dist", "uniform()", "--k", "0"]).exit_code == 2


def test_kl_json_value(runner):
    res = invoke(runner, [
        "kl",
        "--p", "lehmann2(base=exponential(rate=1.0),lambda=2.0)",
        "--q", "exponential(rate=1.0)",
    ])
    assert res.exit_code == 0
    blob = json.loads(res.output)
    assert blob["value"] == pytest.approx(math.log(2.0) - 0.5, abs=1e-8)
    assert blob["method"] == "quadrature"


def test_kl_support_mismatch_is_usage_error(runner):
    res = invoke(runner, ["kl", "--p", "uniform()", "--q", "exponential(rate=1.0)"])
    assert res.exit_code == 2


def test_powerloss_csv_values(runner):
    res = invoke(runner, ["powerloss", "--lambda-min", "1", "--lambda-max", "10",
                          "--steps", "10"])
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "lambda,power_loss"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert rows[0] == (1.0, 0.0)
    assert rows[1][0] == 2.0
    assert round(rows[1][1], 6) == 0.193147
    assert rows[-1][0] == 10.0
    assert round(rows[-1][1], 6) == 1.402585
    deltas = [v for _, v in rows]
    assert all(b > a for a, b in zip(deltas, deltas[1:]))


def test_powerloss_bad_range_is_usage_error(runner):
    assert invoke(runner, ["powerloss", "--lambda-min", "5", "--lambda-max", "2"]).exit_code == 2
    assert invoke(runner, ["powerloss", "--lambda-min", "0", "--lambda-max", "2"]).exit_code == 2
    assert invoke(runner, ["powerloss", "--steps", "1"]).exit_code == 2


def test_powerloss_svg_structure(runner):
    res = invoke(runner, ["powerloss", "--format", "svg"])
    assert res.exit_code == 0
    root = ET.fromstring(res.output)
    assert root.tag.endswith("svg")
    assert root.get("width") == "800"
    assert root.get("height") == "600"
    ns = root.tag[: -len("svg")]
    paths = root.findall(f".//{ns}path")
    assert len(paths) == 1
    assert paths[0].get("d").startswith("M ")
    labels = [t.text for t in root.findall(f".//{ns}text")]
    assert "lambda" in labels
    assert "power loss (nats)" in labels


def test_simulate_csv_and_determinism(runner, tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text(UNIFORM_SIM_CONFIG)
    a = invoke(runner, ["simulate", "--config", str(cfg)])
    b = invoke(runner, ["simulate", "--config", str(cfg)])
    assert a.exit_code == 0
    assert a.output == b.output
    assert a.output.startswith("# config_hash: ")
    data_lines = [l for l in a.output.splitlines() if not l.startswith("#")]
    assert len(data_lines) == 3  # header plus one row per grid cell

    as_json = invoke(runner, ["simulate", "--config", str(cfg), "--format", "json"])
    blob = json.loads(as_json.output)
    assert blob["config"]["n"] == 60
    assert len(blob["cells"]) == 2


def test_simulate_bad_config_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(UNIFORM_SIM_CONFIG.replace("kind = first", "kind = seventh"))
    res = invoke(runner, ["simulate", "--config", str(cfg)])
    assert res.exit_code == 2


def test_an_unknown_family_gives_one_message_on_every_path(runner, tmp_path):
    core = "unknown base family 'cauchy'"
    with pytest.raises(DomainError, match=core):
        fit_full(Kind.FIRST, "cauchy", [0.5, 1.0], theta_bounds=((0.1, 10.0),))
    with pytest.raises(DomainError, match=core):
        loglik(Kind.FIRST, "cauchy", (1.0,), 2.0, [0.5, 1.0])
    with pytest.raises(ParseError, match=core) as parsed:
        parse_distribution("lehmann1(base=cauchy(),lambda=2.0)")
    assert parsed.value.position == len("lehmann1(base=")
    assert parsed.value.expected == "a base family, lehmann1 or lehmann2"
    text = UNIFORM_SIM_CONFIG.replace("uniform()", "cauchy(scale=1.0)")
    with pytest.raises(ParseError, match=core):
        parse_sim_config(text)
    cfg = tmp_path / "cauchy.cfg"
    cfg.write_text(text)
    res = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert res.exit_code == 2
    assert core in res.output


def test_simulate_too_few_calibration_replications_is_usage_error(runner, tmp_path):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(UNIFORM_SIM_CONFIG.replace("calibration_replications = 1000",
                                              "calibration_replications = 999"))
    res = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "calibration_replications must be >= 1000" in res.output


def test_every_subcommand_has_help(runner):
    for name in ["sample", "fit", "moments", "kl", "powerloss", "simulate"]:
        res = invoke(runner, [name, "--help"])
        assert res.exit_code == 0
        assert "Usage" in res.output
    assert invoke(runner, ["--help"]).exit_code == 0


def test_unknown_flag_rejected(runner):
    assert invoke(runner, ["powerloss", "--bogus", "1"]).exit_code == 2


def test_log_env_var(runner, monkeypatch):
    monkeypatch.setenv("LEHMANN_LOG", "DEBUG")
    assert invoke(runner, ["powerloss", "--steps", "3"]).exit_code == 0
    monkeypatch.setenv("LEHMANN_LOG", "NOT_A_LEVEL")
    assert invoke(runner, ["powerloss", "--steps", "3"]).exit_code == 2
