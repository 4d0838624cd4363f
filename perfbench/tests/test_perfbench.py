"""Tests of the benchmark itself, at tiny sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import lehmann  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("calls", "objective_evals_per_fit", "golden_per_fit",
          "calls_per_integral", "boundary_hits", "bytes")


def _launch(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload,trace,group", [
    ("quadrature", "0", "end_to_end"),
    ("sample_io", "1", "per_layer"),
])
def test_every_metric_prints_with_its_unit(workload, trace, group):
    res = _launch(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.3",
                  "--trace", trace)
    assert res.returncode == 0, res.stderr
    *human, last = res.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    text = "\n".join(human)
    for name, unit in wanted.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in human), f"{name} [{unit}] not printed:\n{text}"


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    res = _launch(tmp_path, "--workload", "quadrature", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert res.returncode != 0
    assert res.stdout == ""


def _counts(metrics):
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNTS}


def _small_workloads(tmp_path):
    first, second = lehmann.Kind.FIRST, lehmann.Kind.SECOND
    return [
        workloads.FitWeibull(7, cells=((second, 2.0, 50), (first, 2.0, 50))),
        workloads.Quadrature(7),
        workloads.SampleIO(7, tmp_path, draws=300),
    ]


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    originals = {
        "estimate.loglik": lehmann.estimate.loglik,
        "lrt_sim.loglik": lehmann.lrt_sim.loglik,
        "infotheory.loglik": lehmann.infotheory.loglik,
        "cli.fit_full": lehmann.cli.fit_full,
        "extend.integrate_unit": sys.modules["lehmann.extend"].integrate_unit,
        "from_theta": lehmann.BaseDistribution.__dict__["from_theta"],
        "quantile": lehmann.ExtendedDistribution.__dict__["quantile"],
        "sample_cb": lehmann.cli.main.commands["sample"].callback,
    }
    before = tracer.binding_snapshot()
    t = tracer.Tracer()
    with t:
        # every binding of a by-value import is replaced while tracing
        assert lehmann.lrt_sim.loglik is not originals["lrt_sim.loglik"]
        assert lehmann.infotheory.loglik is not originals["infotheory.loglik"]
        assert lehmann.cli.fit_full is not originals["cli.fit_full"]
        for wl in _small_workloads(tmp_path):
            worker.run_pass(wl, rounds=1, tracer=t)
            wl.close()
    assert tracer.binding_snapshot() == before
    assert lehmann.estimate.loglik is originals["estimate.loglik"]
    assert lehmann.lrt_sim.loglik is originals["lrt_sim.loglik"]
    assert lehmann.infotheory.loglik is originals["infotheory.loglik"]
    assert lehmann.cli.fit_full is originals["cli.fit_full"]
    assert sys.modules["lehmann.extend"].integrate_unit is originals["extend.integrate_unit"]
    assert lehmann.BaseDistribution.__dict__["from_theta"] is originals["from_theta"]
    assert lehmann.ExtendedDistribution.__dict__["quantile"] is originals["quantile"]
    assert lehmann.cli.main.commands["sample"].callback is originals["sample_cb"]
    metrics = tracer.layer_metrics(t)
    for name in ("estimate.fit_full", "extend.moment", "infotheory.kl_numeric",
                 "cli.command", "extend.sample_from_csv", "base_dist.from_theta",
                 "quadrature.integrand", "descriptors.parse_distribution"):
        assert metrics[f"{name}.calls"] > 0, name


def test_layer_counts_repeat_exactly(tmp_path):
    runs = []
    for _ in range(2):
        counts = {}
        for wl in _small_workloads(tmp_path):
            ev, metrics, _detail = worker.traced(wl, 0.5, tmp_path, wl.name)
            wl.close()
            assert not ev.unexpected, ev.unexpected
            assert ev.checks["traced_outputs_equal_untraced"]
            counts[wl.name] = _counts(metrics)
        runs.append(counts)
    assert runs[0] == runs[1]
    assert runs[0]["fit_weibull"]["estimate.objective_evals_per_fit"] > 0
    assert runs[0]["quadrature"]["quadrature.integrand.calls_per_integral"] > 0


def test_quadrature_counts_the_known_kl_defect():
    wl = workloads.Quadrature(3)
    _durations, outcomes, _sizes = worker.run_pass(wl, rounds=1)
    ev = wl.evaluate(outcomes)
    assert ev.failed == 1 and not ev.unexpected
    assert ev.known and ev.known[0].startswith("('kl', 'uniform', 2, 0.2, 0)")


def test_power_study_traced_report_equals_untraced(tmp_path):
    wl = workloads.PowerStudy(9, 1.0, grid=(1.0, 2.0), replications=100)
    try:
        ev, metrics, _detail = worker.traced(wl, 1.0, tmp_path, "power")
    finally:
        wl.close()
    assert ev.checks["traced_outputs_equal_untraced"]
    assert ev.checks["nesting_full_ge_misspec_ge_0"]
    assert ev.checks["bindings_restored"]
    assert not ev.unexpected, ev.unexpected
    assert metrics["lrt_sim.lrt_statistics.calls"] == 1200
    assert metrics["lrt_sim.replications_kept_ratio"] == 1.0


def test_null_size_check_is_exact_and_rejects_a_wrong_size():
    # 26 of 275 null rejections against 1000 calibration draws has
    # probability ~0.005 under H0: plausible, not a defect
    assert workloads.null_rejections_plausible(26, 275, 1000, 0.05) is True
    assert workloads.null_rejections_plausible(14, 275, 1000, 0.05)
    # a test of size 0.2, or one that never rejects on 2000 draws, is not
    assert not workloads.null_rejections_plausible(55, 275, 1000, 0.05)
    assert not workloads.null_rejections_plausible(0, 2000, 1000, 0.05)
