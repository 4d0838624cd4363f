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

Per replication the harness also records the per-observation mean log
likelihood ratio between the two fitted alternatives,
(ll_full - ll_restricted) / n. For a parameter-free base (uniform) its
expectation is the divergence ``ln(lam) + (1 - lam)/lam`` that
``power_loss_closed`` gives in closed form, and the report carries both
so the bridge can be checked. When theta is refit, the restricted fit
converges to the pseudo-true parameter instead, and the mean estimates
the projection divergence min over theta of KL(G(lam, theta0) || F(theta)),
which is smaller than the closed form. No claim is made that the
divergence (in nats) equals the power difference (in probability units);
the report exposes the qualitative ordering and the divergence
separately.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .base_dist import FAMILIES, BaseDistribution, _finite_positive
from .descriptors import parse_base
from .errors import DegenerateSampleError, DomainError, NumericalError, ParseError
from .estimate import (
    _all_equal_rows,
    _check_support,
    _checked_box,
    _default_box,
    _degenerate_guard,
    _evaluate,
    _fit_block,
    _resolve_family,
    loglik,
)
from .extend import Kind, _coerce_kind, extend, sample_values
from .infotheory import power_loss_closed
from .rng import GENERATOR_ID, open_uniform, substream

logger = logging.getLogger("lehmann.lrt_sim")

_CAL_CELL = 0  # stream cell index reserved for calibration draws
_MIN_CALIBRATION = 1000  # replications behind a stable (1 - alpha) quantile
# sample values drawn and fitted per block; caps the engine's working set
_BLOCK_VALUES = 1 << 14

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

    Every field is validated at construction, the bounds box included,
    so a bad config fails before any replication is drawn.
    """

    kind: Kind
    base_family: str
    theta0: tuple[float, ...]
    lambda_grid: tuple[float, ...]
    n: int
    replications: int
    alpha: float
    seed: int
    calibration_replications: int
    theta_bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", _coerce_kind(self.kind))
        object.__setattr__(self, "theta0", tuple(float(t) for t in self.theta0))
        object.__setattr__(self, "lambda_grid", tuple(
            _finite_positive("every lambda_grid value", v) for v in self.lambda_grid
        ))
        if self.theta_bounds is not None:
            object.__setattr__(
                self,
                "theta_bounds",
                tuple((float(lo), float(hi)) for lo, hi in self.theta_bounds),
            )
        # validates the family id and theta0, then the box the fits search
        # (a parameter-free family takes no box)
        _checked_box(type(self.base), self.effective_theta_bounds())
        for name in ("n", "replications", "seed", "calibration_replications"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if not self.lambda_grid:
            raise DomainError("lambda_grid must be nonempty")
        if not isinstance(self.alpha, numbers.Real) or isinstance(self.alpha, bool):
            raise DomainError(f"alpha must be a number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n!r}")
        if self.replications < 100:
            raise DomainError(
                f"replications must be >= 100, got {self.replications!r}"
            )
        if self.calibration_replications < _MIN_CALIBRATION:
            raise DomainError(
                f"calibration_replications must be >= {_MIN_CALIBRATION} for a "
                f"stable quantile, got {self.calibration_replications!r}"
            )

    @property
    def base(self) -> BaseDistribution:
        return _resolve_family(self.base_family).from_theta(self.theta0)

    def effective_theta_bounds(self) -> tuple[tuple[float, float], ...]:
        """Explicit bounds if given, else a wide box around theta0."""
        if self.theta_bounds is not None:
            return self.theta_bounds
        return _default_box(self.theta0)


_CONFIG_KEYS = (
    "kind", "base", "lambda_grid", "n", "replications", "alpha", "seed",
    "calibration_replications", "theta_bounds",
)


def parse_sim_config(text: str) -> SimConfig:
    """Parse the flat key/value config format.

    One `key = value` per line; blank lines and `#` comments ignored.
    Keys: kind (1|2|first|second), base (a base descriptor carrying
    theta0), lambda_grid (comma-separated), n, replications, alpha,
    seed, calibration_replications, theta_bounds (optional,
    comma-separated lo:hi pairs, one per base parameter).
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(str(text).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ParseError(
                f"expected 'key = value', got {raw!r}",
                text=raw, position=lineno,
            )
        if key not in _CONFIG_KEYS:
            raise ParseError(
                f"unknown config key {key!r}",
                text=raw, position=lineno,
                expected=", ".join(_CONFIG_KEYS),
            )
        if key in entries:
            raise ParseError(f"duplicate config key {key!r}", text=raw, position=lineno)
        entries[key] = value

    missing = [k for k in _CONFIG_KEYS if k != "theta_bounds" and k not in entries]
    if missing:
        raise ParseError(f"missing config key(s): {', '.join(missing)}")

    def num(key, conv):
        try:
            return conv(entries[key])
        except ValueError:
            raise ParseError(
                f"config key {key!r}: cannot parse {entries[key]!r}"
            ) from None

    kind_text = entries["kind"].lower()
    kind_map = {"1": Kind.FIRST, "first": Kind.FIRST, "2": Kind.SECOND,
                "second": Kind.SECOND}
    if kind_text not in kind_map:
        raise ParseError(
            f"config key 'kind': cannot parse {entries['kind']!r}",
            expected="1, 2, first or second",
        )
    base = parse_base(entries["base"])
    grid = tuple(num("lambda_grid", lambda s: [float(v) for v in s.split(",")]))
    bounds = None
    if "theta_bounds" in entries:
        pairs = []
        for chunk in entries["theta_bounds"].split(","):
            lo, sep, hi = chunk.partition(":")
            if not sep:
                raise ParseError(
                    f"config key 'theta_bounds': expected lo:hi, got {chunk!r}"
                )
            try:
                pairs.append((float(lo), float(hi)))
            except ValueError:
                raise ParseError(
                    f"config key 'theta_bounds': cannot parse {chunk!r}"
                ) from None
        bounds = tuple(pairs)

    try:
        return SimConfig(
            kind=kind_map[kind_text],
            base_family=base.family_id,
            theta0=base.theta,
            lambda_grid=grid,
            n=num("n", int),
            replications=num("replications", int),
            alpha=num("alpha", float),
            seed=num("seed", int),
            calibration_replications=num("calibration_replications", int),
            theta_bounds=bounds,
        )
    except DomainError as exc:
        raise ParseError(f"invalid config: {exc}") from exc


def canonical_config_text(cfg: SimConfig) -> str:
    """Deterministic key-sorted rendering used for hashing and echoing."""
    items = {
        "alpha": repr(cfg.alpha),
        "base": cfg.base.describe(),
        "calibration_replications": str(cfg.calibration_replications),
        "kind": str(cfg.kind.value),
        "lambda_grid": ",".join(repr(v) for v in cfg.lambda_grid),
        "n": str(cfg.n),
        "replications": str(cfg.replications),
        "seed": str(cfg.seed),
        "theta_bounds": ",".join(
            f"{lo!r}:{hi!r}" for lo, hi in cfg.effective_theta_bounds()
        ),
    }
    return "".join(f"{k} = {v}\n" for k, v in sorted(items.items()))


def config_hash(cfg: SimConfig) -> str:
    return hashlib.sha256(canonical_config_text(cfg).encode("utf-8")).hexdigest()


# -- statistics ----------------------------------------------------------------


def _null_loglik(cfg: SimConfig, X: np.ndarray) -> np.ndarray:
    """Validate a sample block against the null law; ln L(1, theta0) per row."""
    base = cfg.base
    _check_support(base, X)
    return _evaluate(cfg.kind, base, X, 1.0)[0]


def _lrt_rows(cfg: SimConfig, X: np.ndarray, ll0: np.ndarray):
    """LRT statistics for every row of a validated sample block.

    ``ll0`` holds each row's null log-likelihood ln L(1, theta0). Exact
    nesting is enforced row by row: the null theta0 competes as a
    candidate in the restricted fit and the restricted solution competes
    in the full fit, so full >= misspec >= 0 holds on every kept row as
    a float comparison, not just in expectation. A row fails when its
    values are all equal (base parameters unidentified) or when the
    exponent MLE is undefined at the full fit. Returns ``(full,
    misspec, failed)``: the statistics of the kept rows in row order and
    the mask of failed rows.
    """
    family = FAMILIES[cfg.base_family]
    failed = _all_equal_rows(family, X)
    keep = ~failed
    X, ll0 = X[keep], ll0[keep]
    if cfg.theta0:
        bounds = cfg.effective_theta_bounds()
        theta0 = np.tile(np.asarray(cfg.theta0, dtype=float), (len(X), 1))
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


def _fitted_rows(cfg: SimConfig, X: np.ndarray, ll0: np.ndarray) -> list[_FittedRow]:
    full, misspec, failed = _lrt_rows(cfg, X, ll0)
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
        x = sample_values(s)
        ll0 = loglik(cfg.kind, cfg.base_family, cfg.theta0, 1.0, x)
        row = _fitted_rows(cfg, x[None, :], np.array([ll0]))[0]
    if row.stats is None:
        _degenerate_guard(FAMILIES[cfg.base_family], row.values)
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


def _null_replication(cfg: SimConfig, cell: int, rep: int) -> np.ndarray:
    return _draw_block(cfg, cfg.base, cell, [rep])[0]


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
        for row in _fitted_rows(cfg, X, _null_loglik(cfg, X)):
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

        df_full = 1 + len(cfg.theta0)
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
    (ll_full - ll_restricted) / n, with standard error
    ``se_mean_log_ratio``. ``delta_closed`` is ``ln(lam) + (1-lam)/lam``,
    the divergence of G(lam, theta0) from G(1, theta0) at the same base
    parameters: the value ``mean_log_ratio`` estimates for a
    parameter-free base only. When theta is refit, ``mean_log_ratio``
    estimates the projection divergence min over theta of
    KL(G(lam, theta0) || F(theta)), which is smaller.
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
        return {
            "lambda": self.lam,
            "power_full": self.power_full,
            "power_misspec": self.power_misspec,
            "se_full": self.se_full,
            "se_misspec": self.se_misspec,
            "mean_log_ratio": self.mean_log_ratio,
            "se_mean_log_ratio": self.se_mean_log_ratio,
            "delta_closed": self.delta_closed,
            "crit_full": self.crit_full,
            "crit_misspec": self.crit_misspec,
            "failures": self.failures,
        }


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
                "config": {
                    "kind": self.config.kind.value,
                    "base": self.config.base.describe(),
                    "lambda_grid": list(self.config.lambda_grid),
                    "n": self.config.n,
                    "replications": self.config.replications,
                    "alpha": self.config.alpha,
                    "calibration_replications": self.config.calibration_replications,
                    "theta_bounds": [
                        list(b) for b in self.config.effective_theta_bounds()
                    ],
                },
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
            cells.append(CellResult(lam, math.nan, math.nan, math.nan, math.nan,
                                    math.nan, math.nan, power_loss_closed(lam),
                                    crit_full, crit_misspec, failures))
            continue
        if failures > 0.01 * cfg.replications:
            warnings.append(
                f"cell lambda={lam!r}: {failures} of {cfg.replications} "
                "replications failed to fit (over 1%)"
            )
        p_f = int(np.count_nonzero(fulls > crit_full)) / kept
        p_m = int(np.count_nonzero(missps > crit_misspec)) / kept
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
                se_full=math.sqrt(p_f * (1.0 - p_f) / kept),
                se_misspec=math.sqrt(p_m * (1.0 - p_m) / kept),
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
