"""Monte Carlo power study for the mis-specified likelihood ratio test.

Data are generated from the powered law G(x | lam, theta0). Two tests of
H0: (lam = 1, theta = theta0) are compared on each replication:

- the full LRT, whose alternative fits (lam, theta) freely:
  full = 2 * [ll(lam_hat, theta_hat) - ll(1, theta0)]
- the mis-specified LRT, whose alternative wrongly pins lam = 1 and
  fits theta only:
  misspec = 2 * [ll(1, theta_tilde) - ll(1, theta0)]

Critical values are always Monte Carlo calibrated: empirical (1-alpha)
quantiles of each statistic under the null, never asymptotic chi-square
values (the mis-specified statistic has no standard null law at small
n). The chi-square comparison appears only in a diagnostic log line.

Reproducibility: every replication draws from a dedicated generator
stream keyed by (seed, cell_index, replication_index), where cell 0 is
calibration and grid cell i uses index i + 1. Reports are therefore
byte-identical across runs and schedule-independent.

The replications of a cell are drawn into ``(R, n)`` blocks and fitted
together by the block engine of :mod:`lehmann.estimate`; every row gets
the bits :func:`lrt_statistics` gives its sample alone.

Per replication the harness also records (full - misspec) / (2n) =
(ll_full - ll_restricted) / n, the per-observation log likelihood ratio
of the two fitted alternatives; each cell reports its mean,
``mean_log_ratio``. As the full fit converges to (lam, theta0) and the
restricted fit to the pseudo-true theta, the mean estimates min over
theta of KL(G(lam, theta0) || F(theta)). That limit is at most
KL(G(lam, theta0) || F(theta0)) = ln(lam) + (1 - lam)/lam, the closed
form of ``power_loss_closed`` that the report carries as
``delta_closed``. It equals it for the uniform base, which has no
theta, and is 0 for the second-kind exponential and Weibull, whose
powered law stays in the family, so there the mis-specified test loses
no power. No claim is made that the divergence (in nats) equals the
power difference (in probability units); the report exposes the
qualitative ordering and the divergence separately.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import operator
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .base_dist import BaseDistribution, _finite_positive
from .descriptors import parse_base
from .errors import DegenerateSampleError, DomainError, NumericalError, ParseError
from .estimate import (
    _BLOCK_VALUES,
    _all_equal_rows,
    _as_block,
    _check_support,
    _checked_box,
    _default_box,
    _degenerate_guard,
    _evaluate,
    _fit_block,
)
# unused; bound for the benchmark tracer test, which reads lrt_sim.loglik
from .estimate import loglik  # noqa: F401
from .extend import Kind, _coerce_kind, extend
from .infotheory import power_loss_closed
from .rng import GENERATOR_ID, open_uniform, substream

logger = logging.getLogger("lehmann.lrt_sim")

_CAL_CELL = 0  # stream cell index reserved for calibration draws
_MIN_CALIBRATION = 1000  # replications behind a stable (1 - alpha) quantile

# glibc's malloc hands free memory at the top of its heap back to the
# system once more than a trim threshold (128 KiB at start) sits there,
# and raises that threshold, to twice the block, only when it frees a
# block it had mmap'd. Fitting a block allocates and frees several
# (rows, n) temporaries per objective evaluation, so below a raised
# threshold every evaluation faults its pages in again: 33,600 minor
# page faults per criterion-8-shaped study instead of under 1,000, and
# ~20% of its time. Freeing one untouched block of this many float64
# values (4 MiB) raises the threshold for the process; other allocators
# just map and unmap it.
_TRIM_THRESHOLD_PROBE = 1 << 19


@dataclass(frozen=True)
class SimConfig:
    """Declarative description of one power study.

    The fields are the config-file keys in file order: kind, base (the
    null law F(theta0)), lambda_grid, n, replications, alpha, seed,
    calibration_replications and theta_bounds (the box the fits search).
    Every field is validated at construction, so a bad config fails
    before any replication is drawn. A theta_bounds of None becomes the
    default box there, a factor of 20 either side of theta0 (empty for a
    parameter-free base). ``dataclasses.replace`` keeps the box, so a
    replace that changes base must pass ``theta_bounds=None`` to get the
    new base's default box.
    """

    kind: Kind
    base: BaseDistribution
    lambda_grid: tuple[float, ...]
    n: int
    replications: int
    alpha: float
    seed: int
    calibration_replications: int
    theta_bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", _coerce_kind(self.kind))
        if not isinstance(self.base, BaseDistribution):
            raise DomainError(f"base must be a base distribution, got {self.base!r}")
        object.__setattr__(self, "lambda_grid", tuple(
            _finite_positive("every lambda_grid value", v) for v in self.lambda_grid
        ))
        box = _default_box(self.base.theta) if self.theta_bounds is None else self.theta_bounds
        object.__setattr__(self, "theta_bounds", _checked_box(type(self.base), box)[0])
        for name in ("n", "replications", "seed", "calibration_replications"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if not self.lambda_grid:
            raise DomainError("lambda_grid must be nonempty")
        if not isinstance(self.alpha, numbers.Real) or isinstance(self.alpha, bool):
            raise DomainError(f"alpha must be a number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        # one value identifies no base parameter
        least = 2 if self.base.theta else 1
        if self.n < least:
            raise DomainError(
                f"n must be >= {least} for {self.base.family_id}, got {self.n!r}")
        if self.replications < 100:
            raise DomainError(
                f"replications must be >= 100, got {self.replications!r}"
            )
        if self.calibration_replications < _MIN_CALIBRATION:
            raise DomainError(
                f"calibration_replications must be >= {_MIN_CALIBRATION} for a "
                f"stable quantile, got {self.calibration_replications!r}"
            )


def _parse_kind(text: str) -> Kind:
    kind = {"1": Kind.FIRST, "first": Kind.FIRST, "2": Kind.SECOND,
            "second": Kind.SECOND}.get(text.lower())
    if kind is None:
        raise ParseError(f"config key 'kind': cannot parse {text!r}",
                         expected="1, 2, first or second")
    return kind


def _parse_box(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    # an empty value is the empty box of a parameter-free base
    for chunk in text.split(",") if text else ():
        lo, sep, hi = chunk.partition(":")
        if not sep:
            raise ParseError(f"config key 'theta_bounds': expected lo:hi, got {chunk!r}")
        try:
            pairs.append((float(lo), float(hi)))
        except ValueError:
            raise ParseError(f"config key 'theta_bounds': cannot parse {chunk!r}") from None
    return tuple(pairs)


# (parse, render) of each SimConfig field's config-file value, in field order
_FIELD_TEXT = {
    "kind": (_parse_kind, lambda kind: str(kind.value)),
    "base": (parse_base, lambda base: base.describe()),
    "lambda_grid": (lambda text: tuple(map(float, text.split(","))),
                    lambda grid: ",".join(map(repr, grid))),
    "n": (int, str),
    "replications": (int, str),
    "alpha": (float, repr),
    "seed": (int, str),
    "calibration_replications": (int, str),
    "theta_bounds": (_parse_box, lambda box: ",".join(f"{lo!r}:{hi!r}" for lo, hi in box)),
}


def parse_sim_config(text: str) -> SimConfig:
    """Parse the flat key/value config format.

    One `key = value` per line; blank lines and `#` comments ignored.
    The keys are the SimConfig fields, whose values are converted in
    this order: kind (1|2|first|second), base (a base descriptor
    carrying theta0), lambda_grid (comma-separated), n, replications,
    alpha, seed, calibration_replications, theta_bounds (optional,
    comma-separated lo:hi pairs, one per base parameter; empty for a
    parameter-free base, as the canonical text writes it).
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not (value or key == "theta_bounds"):
            raise ParseError(
                f"expected 'key = value', got {raw!r}",
                text=raw, position=lineno,
            )
        if key not in _FIELD_TEXT:
            raise ParseError(
                f"unknown config key {key!r}",
                text=raw, position=lineno,
                expected=", ".join(_FIELD_TEXT),
            )
        if key in entries:
            raise ParseError(f"duplicate config key {key!r}", text=raw, position=lineno)
        entries[key] = value

    missing = [k for k in _FIELD_TEXT if k != "theta_bounds" and k not in entries]
    if missing:
        raise ParseError(f"missing config key(s): {', '.join(missing)}")

    values = {}
    try:
        for key, (parse, _) in _FIELD_TEXT.items():
            if key in entries:
                values[key] = parse(entries[key])
    except ParseError:
        raise
    except ValueError:
        raise ParseError(f"config key {key!r}: cannot parse {entries[key]!r}") from None
    try:
        return SimConfig(**values)
    except DomainError as exc:
        raise ParseError(f"invalid config: {exc}") from exc


def canonical_config_text(cfg: SimConfig) -> str:
    """Deterministic key-sorted rendering used for hashing and echoing."""
    return "".join(f"{key} = {render(getattr(cfg, key))}\n"
                   for key, (_, render) in sorted(_FIELD_TEXT.items()))


def config_hash(cfg: SimConfig) -> str:
    return hashlib.sha256(canonical_config_text(cfg).encode("utf-8")).hexdigest()


# -- statistics ----------------------------------------------------------------


def _lrt_rows(cfg: SimConfig, X: np.ndarray):
    """LRT statistics for every row of a sample block.

    The block is checked against the null law's support first. Exact
    nesting is enforced row by row: the null theta0 competes as a
    candidate in the restricted fit and the restricted solution competes
    in the full fit, so full >= misspec >= 0 holds on every kept row as
    a float comparison, not just in expectation. A row fails when its
    values are all equal (base parameters unidentified) or when the
    exponent MLE is undefined at the full fit. Returns ``(full,
    misspec, failed)``: the statistics of the kept rows in row order and
    the mask of failed rows.
    """
    _check_support(cfg.base, X)
    ll0 = _evaluate(cfg.kind, cfg.base, X, 1.0)[0]
    family = type(cfg.base)
    failed = _all_equal_rows(family, X)
    keep = ~failed
    X, ll0 = X[keep], ll0[keep]
    bounds = cfg.theta_bounds
    if bounds:
        theta0 = np.tile(np.asarray(cfg.base.theta, dtype=float), (len(X), 1))
        theta_r, restr, _ = _fit_block(cfg.kind, family, X, bounds, 1.0, (theta0,))
        back = restr < ll0
        theta_r[back] = theta0[back]
        restr = np.where(back, ll0, restr)
        _, full, degenerate = _fit_block(cfg.kind, family, X, bounds, None, (theta_r,))
    else:
        restr = ll0
        full, degenerate = _evaluate(cfg.kind, cfg.base, X, None)
    full = np.where(full < restr, restr, full)
    failed[keep] = degenerate
    ok = ~degenerate
    return 2.0 * (full[ok] - ll0[ok]), 2.0 * (restr[ok] - ll0[ok]), failed


class _FittedRow(NamedTuple):
    """One replication fitted as a row of a block: its values and its
    ``(full, misspec)`` statistics, ``None`` when the fit failed."""

    values: np.ndarray
    stats: tuple[float, float] | None


def _fitted_rows(cfg: SimConfig, X: np.ndarray) -> list[_FittedRow]:
    full, misspec, failed = _lrt_rows(cfg, X)
    kept = zip(full.tolist(), misspec.tolist())
    return [_FittedRow(x, None if bad else next(kept))
            for x, bad in zip(X, failed.tolist())]


def lrt_statistics(s, cfg: SimConfig) -> tuple[float, float]:
    """(full, misspec) LRT statistics for one sample.

    Exact nesting is enforced: the null theta0 competes as a candidate
    in the restricted fit and the restricted solution competes in the
    full fit, so full >= misspec >= 0 holds on every replication as a
    float comparison, not just in expectation. Raises
    DegenerateSampleError when the sample cannot be fitted.

    Power studies fit their replications a block at a time and pass
    each fitted row through here, so every replication of a study is
    returned, or fails, at this one call, as a lone sample would.
    """
    if isinstance(s, _FittedRow):
        row = s
    else:
        row = _fitted_rows(cfg, _as_block(s))[0]
    if row.stats is None:
        _degenerate_guard(type(cfg.base), row.values)
        raise DegenerateSampleError(
            "the sample saturates the base CDF at the fitted parameters; "
            "the exponent MLE is undefined"
        )
    return row.stats


def _draw_block(cfg: SimConfig, dist, cell: int, reps) -> np.ndarray:
    """Replications ``reps`` of one stream cell, one row each."""
    u = np.empty((len(reps), cfg.n))
    for i, rep in enumerate(reps):
        u[i] = open_uniform(substream(cfg.seed, cell, rep), cfg.n)
    return dist.quantile(u)


def _cell_statistics(cfg: SimConfig, dist, cell: int, replications: int):
    """Both statistics over the kept replications of one cell, in order.

    Replications are drawn and fitted a block at a time; each one then
    goes through :func:`lrt_statistics`, and a failed fit is excluded.
    Returns ``(full, misspec, failures)``.
    """
    rows = max(1, _BLOCK_VALUES // cfg.n)
    np.empty(_TRIM_THRESHOLD_PROBE)
    fulls, missps, failures = [], [], 0
    for first in range(0, replications, rows):
        X = _draw_block(cfg, dist, cell, range(first, min(first + rows, replications)))
        for row in _fitted_rows(cfg, X):
            try:
                full, misspec = lrt_statistics(row, cfg)
            except DegenerateSampleError:
                failures += 1
                continue
            fulls.append(full)
            missps.append(misspec)
    return np.array(fulls, dtype=float), np.array(missps, dtype=float), failures


def calibrate(cfg: SimConfig) -> tuple[float, float]:
    """Empirical (1-alpha) critical values of both statistics under H0.

    Uses the `higher` order statistic, so the rejection rule
    `stat > crit` has size at most alpha on the calibration draws.
    Deterministic given cfg.seed.
    """
    fulls, missps, failures = _cell_statistics(
        cfg, cfg.base, _CAL_CELL, cfg.calibration_replications
    )
    if fulls.size == 0:
        raise NumericalError("every calibration replication failed to fit")
    if failures:
        logger.warning("calibration: %d of %d replications failed and were excluded",
                       failures, cfg.calibration_replications)
    q = 1.0 - cfg.alpha
    crit_full = float(np.quantile(fulls, q, method="higher"))
    crit_misspec = float(np.quantile(missps, q, method="higher"))

    if logger.isEnabledFor(logging.INFO):
        # imported here: scipy.special is a slow import the results never need
        from scipy.special import chdtri

        df_full = 1 + len(cfg.base.theta)
        wilks = float(chdtri(df_full, 1.0 - q))
        logger.info(
            "calibrated crit_full=%.4f (Wilks chi2 df=%d would give %.4f; "
            "diagnostic only), crit_misspec=%.4f, mean null full stat=%.3f",
            crit_full, df_full, wilks, crit_misspec, float(np.mean(fulls)),
        )
    return crit_full, crit_misspec


# -- the study -----------------------------------------------------------------


@dataclass(frozen=True)
class CellResult:
    """Power-study results for one grid exponent.

    ``mean_log_ratio`` is the mean over kept replications of
    (full - misspec) / (2n), with standard error ``se_mean_log_ratio``;
    it estimates min over theta of KL(G(lam, theta0) || F(theta)).
    ``delta_closed`` is ``ln(lam) + (1-lam)/lam`` = KL(G(lam, theta0) ||
    F(theta0)): that limit for the uniform base, which has no theta, and
    an upper bound on it otherwise. The limit is 0 for the second-kind
    exponential and Weibull, whose powered law stays in the family.
    """

    lam: float
    power_full: float
    power_misspec: float
    se_full: float
    se_misspec: float
    mean_log_ratio: float
    se_mean_log_ratio: float
    delta_closed: float
    crit_full: float
    crit_misspec: float
    failures: int

    def as_dict(self) -> dict:
        """The fields in declaration order; ``lam`` is keyed ``lambda``."""
        return {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                for f in fields(self)}


def _json_value(value):
    """A config field as JSON: a kind as its number, a base as its descriptor."""
    if isinstance(value, Kind):
        return value.value
    return value.describe() if isinstance(value, BaseDistribution) else value


@dataclass(frozen=True)
class LrtReport:
    """Full outcome of a power study, serializable to CSV and JSON."""

    config: SimConfig
    config_hash: str
    crit_full: float
    crit_misspec: float
    cells: tuple[CellResult, ...]
    warnings: tuple[str, ...] = ()
    generator: str = GENERATOR_ID

    def to_csv(self) -> str:
        lines = [
            f"# config_hash: {self.config_hash}",
            f"# seed: {self.config.seed}",
            f"# generator: {self.generator}",
            f"# base: {self.config.base.describe()}",
            f"# kind: {self.config.kind.value}",
            f"# n: {self.config.n}",
            f"# replications: {self.config.replications}",
            f"# alpha: {self.config.alpha!r}",
        ]
        lines.extend(f"# warning: {w}" for w in self.warnings)
        rows = [c.as_dict() for c in self.cells]
        if rows:
            lines.append(",".join(rows[0]))
        lines.extend(",".join(map(repr, row.values())) for row in rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "config_hash": self.config_hash,
                "seed": self.config.seed,
                "generator": self.generator,
                "config": {f.name: _json_value(getattr(self.config, f.name))
                           for f in fields(SimConfig) if f.name != "seed"},
                "crit_full": self.crit_full,
                "crit_misspec": self.crit_misspec,
                "cells": [c.as_dict() for c in self.cells],
                "warnings": list(self.warnings),
            }
        )


def run_power_study(cfg: SimConfig) -> LrtReport:
    """Calibrate, then estimate both tests' rejection rates on the grid.

    Per cell: replications of size cfg.n from G(lam, theta0), rejection
    counted when a statistic strictly exceeds its calibrated critical
    value; binomial standard errors sqrt(p*(1-p)/R). Failed fits are
    excluded and counted, never retried; cells with more than 1%
    failures are flagged in the report warnings.
    """
    crit_full, crit_misspec = calibrate(cfg)
    base = cfg.base
    cells = []
    warnings: list[str] = []
    for i, lam in enumerate(cfg.lambda_grid):
        fulls, missps, failures = _cell_statistics(
            cfg, extend(base, lam, cfg.kind), i + 1, cfg.replications
        )
        kept = fulls.size
        if kept == 0:
            warnings.append(f"cell lambda={lam!r}: all replications failed")
            p_f = p_m = se_f = se_m = mlr = se_mlr = math.nan
        else:
            if failures > 0.01 * cfg.replications:
                warnings.append(
                    f"cell lambda={lam!r}: {failures} of {cfg.replications} "
                    "replications failed to fit (over 1%)"
                )
            p_f = int(np.count_nonzero(fulls > crit_full)) / kept
            p_m = int(np.count_nonzero(missps > crit_misspec)) / kept
            se_f = math.sqrt(p_f * (1.0 - p_f) / kept)
            se_m = math.sqrt(p_m * (1.0 - p_m) / kept)
            ratios = (fulls - missps) / (2.0 * cfg.n)
            mlr = float(np.mean(ratios))
            se_mlr = (
                float(np.std(ratios, ddof=1)) / math.sqrt(kept)
                if kept >= 2 else math.inf
            )
        cells.append(
            CellResult(
                lam=lam,
                power_full=p_f,
                power_misspec=p_m,
                se_full=se_f,
                se_misspec=se_m,
                mean_log_ratio=mlr,
                se_mean_log_ratio=se_mlr,
                delta_closed=power_loss_closed(lam),
                crit_full=crit_full,
                crit_misspec=crit_misspec,
                failures=failures,
            )
        )
    return LrtReport(
        config=cfg,
        config_hash=config_hash(cfg),
        crit_full=crit_full,
        crit_misspec=crit_misspec,
        cells=tuple(cells),
        warnings=tuple(warnings),
    )
