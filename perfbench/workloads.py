"""The benchmark workloads, their inputs and their correctness oracles.

Every workload builds its inputs from the benchmark seed when it is
constructed (that is part of set-up time), then runs *rounds* of
operations through the public ``lehmann`` API. A round covers every input
cell once, so a run made of whole rounds always has the same mix. All
library calls go through module attributes at call time (``L.fit_full``,
not a name bound at import), so the tracer's wrappers see them.

Oracles run after the timed region, on small records kept per operation.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import lehmann as L
import lehmann.cli

FIRST, SECOND = L.Kind.FIRST, L.Kind.SECOND
BASES = (L.Uniform(), L.Exponential(1.0), L.Weibull(2.0, 1.0))


def derive_seed(seed: int, *path: int) -> int:
    """A 63-bit library seed for one input cell, fixed by (seed, *path)."""
    ss = np.random.SeedSequence(int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0] >> np.uint64(1))


@dataclass
class Evaluation:
    """What the oracles found on one pass."""

    attempted: int
    failed: int
    unexpected: list = field(default_factory=list)  # failures that make the run incorrect
    known: list = field(default_factory=list)       # failures from recorded known defects
    quality: dict = field(default_factory=dict)     # deterministic quality numbers
    checks: dict = field(default_factory=dict)      # named study-level checks -> bool


class Workload:
    name = ""
    # wall seconds of one round on the 2-vCPU Xeon VM the benchmark was
    # written on; sizes the fixed plan of a traced run
    nominal_round_s = 1.0
    # a workload whose single round is sized from --seconds runs one round
    single_round = False

    def round_ops(self, r: int) -> list:
        """[(key, zero-argument callable)] for round r."""
        raise NotImplementedError

    def record(self, key, value):
        """Small, comparable record of one result, kept for the oracles."""
        return value

    def evaluate(self, outcomes) -> Evaluation:
        """Check [(key, record, error_text)] against the oracles."""
        raise NotImplementedError

    def trace_rounds(self, seconds: float) -> int:
        """Fixed round count of a traced run: half of --seconds per pass."""
        if self.single_round:
            return 1
        return max(1, round(0.5 * seconds / self.nominal_round_s))

    def close(self) -> None:
        pass


# -- power_study ---------------------------------------------------------------


class _CalibrationExclusions(logging.Handler):
    """Counts the calibration exclusions ``lehmann.lrt_sim`` logs."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.excluded = 0

    def emit(self, record):
        if record.getMessage().startswith("calibration:"):
            self.excluded += int(record.args[0])


NULL_TEST_LEVEL = 1e-6  # false-alarm rate of the null-size check, per statistic


def null_rejections_plausible(rejections: int, kept: int, cal_kept: int,
                              alpha: float) -> bool:
    """Exact test of a null cell's rejection count against calibration.

    Under H0 the cell and calibration statistics are i.i.d., so the tail
    mass above the calibrated critical value -- the j-th order statistic
    of cal_kept draws, j as numpy's ``method="higher"`` picks it -- is
    Beta(cal_kept - j + 1, j), and the count of kept cell statistics above
    it is BetaBinomial(kept, cal_kept - j + 1, j), whatever the
    statistic's law. The check fails only in the outer NULL_TEST_LEVEL.
    """
    from scipy.stats import betabinom

    j = math.ceil((1.0 - alpha) * (cal_kept - 1)) + 1
    law = betabinom(kept, cal_kept - j + 1, j)
    return bool(law.cdf(rejections) > NULL_TEST_LEVEL / 2
                and law.sf(rejections - 1) > NULL_TEST_LEVEL / 2)


class PowerStudy(Workload):
    """One ``run_power_study`` call on the criterion-8 shape."""

    name = "power_study"
    GRID = (1.0, 1.5, 2.0, 3.0)
    CALIBRATION = 1000  # the library's floor
    REPS_PER_S = 140.0  # replications per second on that VM: sizes the study
    single_round = True

    def __init__(self, seed: int, seconds: float, grid=GRID, replications=None):
        if replications is None:
            budget = seconds * self.REPS_PER_S - self.CALIBRATION
            replications = max(100, round(budget / len(grid)))
        text = "\n".join([
            "kind = first",
            "base = exponential(rate=1.0)",
            "lambda_grid = " + ", ".join(repr(v) for v in grid),
            "n = 50",
            f"replications = {replications}",
            "alpha = 0.05",
            f"seed = {int(seed) & 0x7FFFFFFFFFFFFFFF}",
            f"calibration_replications = {self.CALIBRATION}",
        ])
        self.cfg = L.parse_sim_config(text)
        self.attempted = self.CALIBRATION + replications * len(grid)
        self._log = _CalibrationExclusions()
        logging.getLogger("lehmann.lrt_sim").addHandler(self._log)

    def round_ops(self, r):
        def study():
            self._log.excluded = 0
            return L.run_power_study(self.cfg)
        return [("study", study)]

    def record(self, key, report):
        return {"json": report.to_json(), "excluded": self._log.excluded,
                "report": report}

    def evaluate(self, outcomes):
        (_key, rec, err), = outcomes
        if err is not None:
            return Evaluation(self.attempted, self.attempted,
                              unexpected=[f"run_power_study raised {err}"])
        report, cfg = rec["report"], self.cfg
        cell_failures = sum(c.failures for c in report.cells)
        failed = rec["excluded"] + cell_failures
        ev = Evaluation(self.attempted, failed)
        null = next(c for c in report.cells if c.lam == 1.0)
        kept = cfg.replications - null.failures
        cal_kept = cfg.calibration_replications - rec["excluded"]
        for stat in ("full", "misspec"):
            size = getattr(null, f"power_{stat}")
            rejections = round(size * kept)
            ok = null_rejections_plausible(rejections, kept, cal_kept, cfg.alpha)
            ev.checks[f"null_size_{stat}_exact_test"] = ok
            if not ok:
                ev.unexpected.append(
                    f"null size {stat} = {size:.4f} ({rejections} of {kept}), "
                    f"beyond the two-sided {NULL_TEST_LEVEL:g} tails of its exact law")
        finite = all(math.isfinite(c.power_full) and math.isfinite(c.power_misspec)
                     for c in report.cells)
        ev.checks["cells_finite"] = finite
        if not finite:
            ev.unexpected.append("a grid cell has no kept replications")
        ev.quality["report_sha256"] = hashlib.sha256(rec["json"].encode()).hexdigest()
        return ev

    def close(self):
        logging.getLogger("lehmann.lrt_sim").removeHandler(self._log)


# -- fit_weibull ---------------------------------------------------------------


class FitWeibull(Workload):
    """Repeated 2-parameter profile fits, the ``lehmann fit`` path."""

    name = "fit_weibull"
    BASE = L.Weibull(2.0, 1.0)
    # the CLI's default box: a factor of 20 around the recorded parameters
    BOUNDS = tuple((t / 20.0, t * 20.0) for t in BASE.theta)
    # first-kind cells appear twice per round (with distinct samples): the
    # second kind fits far faster (its exponent and scale are confounded),
    # and an even split would put the median latency in the gap between
    # the two kinds, where it jumps from run to run
    CELLS = tuple((kind, lam, n) for kind in (FIRST, FIRST, SECOND)
                  for lam in (0.5, 2.0) for n in (50, 200))
    POOL_ROUNDS = 16
    nominal_round_s = 4.2

    def __init__(self, seed: int, cells=CELLS):
        self.cells = cells
        self.samples = [
            [L.sample(L.extend(self.BASE, lam, kind), n, derive_seed(seed, r, i)).values
             for i, (kind, lam, n) in enumerate(cells)]
            for r in range(self.POOL_ROUNDS)
        ]

    def round_ops(self, r):
        ops = []
        for i, (kind, _lam, _n) in enumerate(self.cells):
            x = self.samples[r % self.POOL_ROUNDS][i]
            ops.append(((r % self.POOL_ROUNDS, i), lambda kind=kind, x=x:
                        L.fit_full(kind, "weibull", x, theta_bounds=self.BOUNDS)))
        return ops

    def record(self, key, fit):
        return fit.to_json()

    def _profile(self, kind, x):
        def profile(theta) -> float:
            theta = tuple(float(t) for t in theta)
            try:
                lam = L.mle_lambda(kind, "weibull", theta, x)
                return L.loglik(kind, "weibull", theta, lam, x)
            except (L.DegenerateSampleError, L.DomainError):
                return -math.inf
        return profile

    def reference_optimum(self, kind, x, theta_hat) -> float:
        """Best public-profile value from Nelder-Mead restarts, one at theta_hat."""
        from scipy.optimize import minimize

        profile = self._profile(kind, x)
        lo = np.array([b[0] for b in self.BOUNDS])
        hi = np.array([b[1] for b in self.BOUNDS])
        best = profile(theta_hat)
        for start in (theta_hat, self.BASE.theta, tuple(np.sqrt(lo * hi))):
            res = minimize(lambda t: -profile(t), np.asarray(start, dtype=float),
                           method="Nelder-Mead", bounds=list(self.BOUNDS),
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 4000})
            if math.isfinite(res.fun):
                best = max(best, -float(res.fun))
        return best

    def evaluate(self, outcomes):
        ev = Evaluation(len(outcomes), 0)
        gaps = {}
        for key, rec, err in outcomes:
            r, i = key
            kind = self.cells[i][0]
            if err is not None:
                ev.failed += 1
                ev.unexpected.append(f"fit {key} raised {err}")
                continue
            if key in gaps:
                continue  # a repeated input gives the same fit
            fit = json.loads(rec)
            x = self.samples[r][i]
            theta = tuple(fit["theta_hat"])
            inside = all(lo <= t <= hi for t, (lo, hi) in zip(theta, self.BOUNDS))
            again = self._profile(kind, x)(theta)
            consistent = abs(again - fit["loglik"]) <= 1e-9 * max(1.0, abs(again))
            if not (inside and consistent and math.isfinite(fit["loglik"])):
                ev.failed += 1
                ev.unexpected.append(f"fit {key}: theta {theta} inside={inside}, "
                                     f"loglik {fit['loglik']!r} vs profile {again!r}")
                continue
            gaps[key] = self.reference_optimum(kind, x, theta) - fit["loglik"]
        all_gaps = [gaps[k] for k, _rec, err in outcomes if err is None and k in gaps]
        ev.quality["fit_loglik_gap_nats"] = float(np.median(all_gaps)) if all_gaps else 0.0
        ev.quality["fit_loglik_gap_max_nats"] = float(max(all_gaps, default=0.0))
        return ev


# -- quadrature ----------------------------------------------------------------


def _closed_moment(base, lam, kind, k):
    """Closed-form E[X^k] where one is known, else None."""
    from scipy.special import digamma, gamma

    fam = base.family_id
    if fam == "uniform":
        if kind is FIRST:
            return lam / (lam + k)
        return 1 / (lam + 1) if k == 1 else 2 / ((lam + 1) * (lam + 2))
    if fam == "exponential":
        if kind is SECOND:
            return math.factorial(k) / (lam * base.rate) ** k
        if k == 1:
            return float(digamma(lam + 1) - digamma(1)) / base.rate
        return None
    if kind is SECOND:
        return base.scale ** k * lam ** (-k / base.shape) * gamma(1 + k / base.shape)
    return None


def _quad_moment(base, lam, k):
    """E[X^k] of a first-kind law by quad of x^k * pdf, with scipy's pdf."""
    from scipy import integrate, stats

    if base.family_id == "exponential":
        law = stats.exponweib(lam, 1.0, scale=1.0 / base.rate)
    else:
        law = stats.exponweib(lam, base.shape, scale=base.scale)
    mid = float(law.median())
    opts = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 500}
    f = lambda x: x ** k * law.pdf(x)  # noqa: E731
    return integrate.quad(f, 0.0, mid, **opts)[0] + integrate.quad(f, mid, np.inf, **opts)[0]


class Quadrature(Workload):
    """``kl_numeric`` and ``moment`` over bases, kinds and exponents."""

    name = "quadrature"
    LAMBDAS = (0.2, 0.5, 2.0, 5.0)
    KINDS = (FIRST, SECOND)
    # recorded defects: counted as failed operations, not as an incorrect run
    KNOWN_DEFECTS = {
        ("kl", "uniform", 2, 0.2, 0): "kl_numeric returns inf with error_estimate "
        "inf and raises no NumericalError (true value 2.3906)",
    }
    nominal_round_s = 0.45

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = []
        for base in BASES:
            for kind in self.KINDS:
                for lam in self.LAMBDAS:
                    p = L.extend(base, lam, kind)
                    q = L.extend(base, 1.0, kind)
                    tag = (base.family_id, kind.value, lam)
                    self.cells.append((("kl",) + tag + (0,), base,
                                       lambda p=p, q=q: L.kl_numeric(p, q)))
                    for k in (1, 2):
                        self.cells.append((("moment",) + tag + (k,), base,
                                           lambda p=p, k=k: p.moment(k)))

    def round_ops(self, r):
        order = np.random.default_rng([self.seed & 0xFFFFFFFFFFFFFFFF, r]).permutation(
            len(self.cells))
        return [(self.cells[j][0], self.cells[j][2]) for j in order]

    def record(self, key, value):
        if key[0] == "kl":
            return (value.value, value.error_estimate)
        return value

    def oracle(self, key) -> float:
        op, fam, kind, lam, k = key
        if op == "kl":
            return math.log(lam) + (1 - lam) / lam
        base = next(b for b in BASES if b.family_id == fam)
        closed = _closed_moment(base, lam, L.Kind(kind), k)
        return closed if closed is not None else _quad_moment(base, lam, k)

    def evaluate(self, outcomes):
        ev = Evaluation(len(outcomes), 0)
        refs = {}
        for key, rec, err in outcomes:
            if key not in refs:
                refs[key] = self.oracle(key)
            if err is None:
                got = rec[0] if key[0] == "kl" else rec
                tol = 1e-8 if key[0] == "kl" else 1e-9 * max(1.0, abs(refs[key]))
                if abs(got - refs[key]) <= tol:
                    continue
                err = f"value {got!r}, expected {refs[key]!r}"
            ev.failed += 1
            note = f"{key}: {err}"
            if key in self.KNOWN_DEFECTS:
                if note not in ev.known:
                    ev.known.append(note)
            elif note not in ev.unexpected:
                ev.unexpected.append(note)
        return ev


# -- sample_io -----------------------------------------------------------------


class SampleIO(Workload):
    """In-process ``lehmann sample --out``, then ``sample_from_csv`` of the file."""

    name = "sample_io"
    DRAWS = 50_000
    LAMBDAS = (0.5, 3.0)
    nominal_round_s = 1.8

    def __init__(self, seed: int, out_dir: Path, draws=DRAWS):
        self.seed = seed
        self.draws = draws
        self.descriptors = [L.extend(b, lam, kind).describe()
                            for b in BASES for kind in (FIRST, SECOND)
                            for lam in self.LAMBDAS]
        for d in self.descriptors:
            L.parse_distribution(d)
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "draws.csv"

    def round_ops(self, r):
        ops = []
        for i, desc in enumerate(self.descriptors):
            s = derive_seed(self.seed, r, i)
            ops.append(((desc, s), lambda desc=desc, s=s: self._round_trip(desc, s)))
        return ops

    def _round_trip(self, desc, s):
        lehmann.cli.main.main(
            args=["sample", "--dist", desc, "--n", str(self.draws), "--seed", str(s),
                  "--out", str(self.path)],
            prog_name="lehmann", standalone_mode=False,
        )
        return L.sample_from_csv(self.path.read_text(encoding="utf-8"))

    def record(self, key, smp):
        return (hashlib.sha256(smp.values.tobytes()).hexdigest(), len(smp),
                smp.seed, smp.source)

    def evaluate(self, outcomes):
        ev = Evaluation(len(outcomes), 0)
        for (desc, s), rec, err in outcomes:
            if err is None:
                ref = L.sample(L.parse_distribution(desc), self.draws, s)
                want = (hashlib.sha256(ref.values.tobytes()).hexdigest(),
                        self.draws, s, desc)
                if rec == want:
                    continue
                err = "read-back sample differs from sample(dist, N, seed)"
            ev.failed += 1
            ev.unexpected.append(f"{desc} seed {s}: {err}")
        return ev

    def close(self):
        self.path.unlink(missing_ok=True)


def make(name: str, seed: int, seconds: float, out_dir: Path) -> Workload:
    if name == "power_study":
        return PowerStudy(seed, seconds)
    if name == "fit_weibull":
        return FitWeibull(seed)
    if name == "quadrature":
        return Quadrature(seed)
    if name == "sample_io":
        return SampleIO(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")

