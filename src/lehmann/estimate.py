"""Likelihood evaluation and maximum-likelihood fitting.

For the powered laws the exponent has a closed-form MLE at fixed base
parameters: with S = sum of log F(x_j) (first kind) or log(1 - F(x_j))
(second kind), the maximizer is ``lambda_hat = -n / S``. Fitting the
remaining base parameters therefore reduces to maximizing the profile
log-likelihood ``ll(lambda_hat(theta), theta)`` over a bounded box,
which is done by golden-section line searches with coordinate cycling
and a fixed low-discrepancy multistart set. No gradients are needed.

Every fit runs on one block engine. An ``(R, n)`` block of samples is
validated once (family, bounds box, support); after that each objective
evaluation is a single call of the family's broadcasting log kernels for
every live row, and the golden-section searches advance all rows in
lockstep, each row stopping on its own convergence test. A row is a
(sample, multistart) pair. The public fits are the R = 1 case, and
:mod:`lehmann.lrt_sim` fits all replications of a power-study cell at
once. Each row does the arithmetic it would do alone, so a row of a block
gives the same bits as its R = 1 fit.

``base_family`` arguments accept a registered family id, the family
class, or an instance (its class is used).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .base_dist import FAMILIES, BaseDistribution, _finite_positive, _plog
from .errors import DegenerateSampleError, DomainError, SupportError
from .extend import Kind, _coerce_kind, _kernel_log, sample_values

_GOLDEN_TOL = 1e-8
_GOLDEN_MAX_ITER = 200
_MAX_SWEEPS = 10
_N_MULTISTARTS = 5
_TIE_TOL = 1e-10
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_HALTON_BASES = (2, 3, 5)
# a log-kernel sum smaller than this in magnitude saturates the exponent MLE
_SATURATED = 1e-300


@dataclass(frozen=True)
class FitResult:
    """Outcome of a likelihood maximization."""

    lambda_hat: float
    theta_hat: tuple[float, ...]
    loglik: float
    n: int
    profile_trace: tuple[tuple[tuple[float, ...], float], ...] | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.lambda_hat > 0.0:
            raise DomainError(f"lambda_hat must be > 0, got {self.lambda_hat!r}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "lambda_hat": self.lambda_hat,
                "theta_hat": list(self.theta_hat),
                "loglik": self.loglik,
                "n": self.n,
                "warnings": list(self.warnings),
            }
        )


def _resolve_family(base_family) -> type[BaseDistribution]:
    if isinstance(base_family, str):
        family = FAMILIES.get(base_family)
        if family is None:
            raise DomainError(
                f"unknown base family {base_family!r}; known: {sorted(FAMILIES)}"
            )
        return family
    if isinstance(base_family, BaseDistribution):
        return type(base_family)
    if isinstance(base_family, type) and issubclass(base_family, BaseDistribution):
        return base_family
    raise DomainError(f"not a base family: {base_family!r}")


def _check_support(base: BaseDistribution, x: np.ndarray) -> None:
    inside = base.support.contains(x)
    if not np.all(inside):
        idx = int(np.argmin(inside))
        raise SupportError(
            f"sample value x[{idx}]={float(x.flat[idx])!r} lies outside the support of "
            f"{base.describe()}"
        )


def _as_block(s) -> np.ndarray:
    """A one-dimensional, nonempty sample as a (1, n) block."""
    x = sample_values(s)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("sample must contain at least one value")
    return x[None, :]


def _validated_point(kind, base_family, theta, s):
    """Validate one (kind, family, theta, sample) query at the API boundary."""
    kind = _coerce_kind(kind)
    base = _resolve_family(base_family).from_theta(theta)
    x = _as_block(s)
    _check_support(base, x)
    return kind, base, x


# -- the kernel layer ----------------------------------------------------------
#
# ``base`` below is a validated instance, or a column instance from
# BaseDistribution._at_columns with one parameter point per row of the
# (R, n) block X; either way its log kernels return one row of terms per
# row of X.


def _kernel_sums(kind: Kind, base, X):
    """Row sums of ln F (first kind) or ln(1 - F) (second kind)."""
    return np.sum(_kernel_log(kind, base, X), axis=1)


def _saturated(w_sum):
    return ~np.isfinite(w_sum) | (np.abs(w_sum) < _SATURATED)


def _evaluate(kind: Kind, base, X, lam):
    """Raw ln L per row: n ln(lam) + sum ln f + (lam - 1) sum w.

    ``lam`` is the fixed exponent, or None to profile it out by its
    closed form -n / sum w. Returns ``(value, degenerate)``; degenerate
    rows have no exponent MLE at their parameters. A row at lam == 1
    keeps the bare density sum, as the scalar formula does.
    """
    n = X.shape[1]
    lp = base._log_pdf(X)
    total = np.sum(lp, axis=1)
    degenerate = np.zeros(len(X), dtype=bool)
    if lam is None or lam != 1.0:
        w_sum = _kernel_sums(kind, base, X)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if lam is None:
                degenerate = _saturated(w_sum)
                lam = np.where(degenerate, 1.0, -n / w_sum)
            total = np.where(lam == 1.0, total,
                             total + (n * _plog(lam) + (lam - 1.0) * w_sum))
    # a -inf density term makes ln L -inf whatever the sum says (the sum
    # is nan when +inf terms are present too)
    odd = np.flatnonzero(~np.isfinite(total))
    total[odd[np.isneginf(lp[odd]).any(axis=1)]] = -np.inf
    return total, degenerate


# -- public evaluation -----------------------------------------------------------


def loglik(kind, base_family, theta, lam, s) -> float:
    """Log-likelihood of the powered law at (lam, theta).

    n*ln(lam) + sum(ln f(x_j)) + (lam-1)*sum(ln F(x_j)) for the first
    kind, with ln(1 - F(x_j)) in the last sum for the second kind.
    Observations where the base density vanishes give -inf.
    """
    kind, base, x = _validated_point(kind, base_family, theta, s)
    lam = _finite_positive("lambda", lam)
    return float(_evaluate(kind, base, x, lam)[0][0])


def mle_lambda(kind, base_family, theta, s) -> float:
    """Closed-form exponent MLE: -n / sum(ln F) resp. -n / sum(ln(1-F)).

    Raises DegenerateSampleError when the sum is saturated: nonfinite
    (some F(x_j) is exactly 0 for the first kind / 1 for the second) or
    smaller than 1e-300 in magnitude (all F(x_j) at the opposite end).
    """
    kind, base, x = _validated_point(kind, base_family, theta, s)
    total = float(_kernel_sums(kind, base, x)[0])
    if _saturated(total):
        raise DegenerateSampleError(
            f"sum of log-CDF terms is {total!r}; the sample saturates the "
            f"base CDF under {base.describe()} and the exponent MLE is undefined"
        )
    return -x.shape[1] / total


# -- profile maximization ----------------------------------------------------


def _halton(index: int, base: int) -> float:
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def _multistarts(bounds) -> list[tuple[float, ...]]:
    dim = len(bounds)
    if dim == 1:
        # golden section over the full bracket does not depend on the
        # start, so one start is exactly equivalent to five
        count = 1
    else:
        count = _N_MULTISTARTS
    points = []
    for i in range(1, count + 1):
        points.append(
            tuple(
                lo + _halton(i, _HALTON_BASES[j]) * (hi - lo)
                for j, (lo, hi) in enumerate(bounds)
            )
        )
    return points


def _golden_max(h, lo, hi):
    """Golden-section maximization on [lo, hi] to width _GOLDEN_TOL.

    ``lo`` and ``hi`` hold one bracket per row, and ``h(points, rows)``
    evaluates the rows ``rows`` (indices into the brackets) at
    ``points``. All rows advance in lockstep; a row whose bracket is
    narrow enough stops while the others go on. Returns the best point
    and value of every row.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    every = np.arange(a.size)
    both = h(np.concatenate([c, d]), np.concatenate([every, every]))
    hc, hd = both[:a.size], both[a.size:]
    for _ in range(_GOLDEN_MAX_ITER):
        live = np.flatnonzero(b - a > _GOLDEN_TOL)
        if live.size == 0:
            break
        al, bl, cl, dl = a[live], b[live], c[live], d[live]
        hcl, hdl = hc[live], hd[live]
        left = hcl >= hdl  # keep [a, d]; otherwise keep [c, b]
        na = np.where(left, al, cl)
        nb = np.where(left, dl, bl)
        nc = np.where(left, nb - _INVPHI * (nb - na), dl)
        nd = np.where(left, cl, na + _INVPHI * (nb - na))
        v = h(np.where(left, nc, nd), live)
        a[live], b[live], c[live], d[live] = na, nb, nc, nd
        hc[live] = np.where(left, v, hdl)
        hd[live] = np.where(left, hcl, v)
    at_c = hc >= hd
    return np.where(at_c, c, d), np.where(at_c, hc, hd)


def _coordinate_max(h, start, bounds):
    """Cycle golden-section line searches over the coordinates of theta.

    ``start`` holds one start point per row and ``h(theta, rows)``
    evaluates the rows ``rows`` at the points ``theta``. A row sweeps
    until its largest coordinate move falls below _GOLDEN_TOL (a single
    sweep in one dimension).
    """
    theta = np.array(start, dtype=float)
    value = np.full(len(theta), -np.inf)
    rows = np.arange(len(theta))
    for _ in range(_MAX_SWEEPS):
        moved = np.zeros(rows.size)
        for i, (lo, hi) in enumerate(bounds):

            def line(v, idx, _i=i, _rows=rows):
                trial = theta[_rows[idx]]
                trial[:, _i] = v
                return h(trial, _rows[idx])

            xi, vi = _golden_max(line, np.full(rows.size, lo), np.full(rows.size, hi))
            moved = np.maximum(moved, np.abs(xi - theta[rows, i]))
            theta[rows, i] = xi
            value[rows] = vi
        rows = rows[moved >= _GOLDEN_TOL]
        if len(bounds) == 1 or rows.size == 0:
            break
    return theta, value


def _default_box(theta) -> tuple[tuple[float, float], ...]:
    """The default search box: a factor of 20 either side of theta."""
    return tuple((t / 20.0, t * 20.0) for t in theta)


def _checked_box(family, bounds):
    """Validate a bounds box for the family's parameters, once per fit or study.

    The search only visits interior points, so the open box must lie in
    the parameter domain: its corners are checked one step inside.
    Returns the bounds as float pairs and the member at the lower inner
    corner.
    """
    if bounds is None:
        raise DomainError(
            f"theta_bounds required: the family has parameters {family.param_names}"
        )
    out = []
    for lo, hi in bounds:
        lo, hi = float(lo), float(hi)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"theta_bounds must be finite with lo < hi, got {(lo, hi)}")
        out.append((lo, hi))
    if len(out) != len(family.param_names):
        raise DomainError(
            f"theta_bounds has {len(out)} component(s), family expects "
            f"{len(family.param_names)}"
        )
    family.from_theta([np.nextafter(hi, lo) for lo, hi in out])
    return tuple(out), family.from_theta([np.nextafter(lo, hi) for lo, hi in out])


def _pick_best(candidates):
    """Highest value wins; values within _TIE_TOL prefer the smaller theta.

    ``candidates`` are ``(theta (R, d), value (R,))`` pairs, read in
    order and compared row by row.
    """
    best_theta = np.array(candidates[0][0], dtype=float)
    best_val = np.array(candidates[0][1], dtype=float)
    for theta, val in candidates[1:]:
        with np.errstate(invalid="ignore"):
            take = val > best_val + _TIE_TOL
            tied = ~take & (np.abs(val - best_val) <= _TIE_TOL)
        for r in np.flatnonzero(tied):
            take[r] = math.hypot(*theta[r]) < math.hypot(*best_theta[r])
        best_theta[take] = theta[take]
        best_val[take] = val[take]
    return best_theta, best_val


def _boundary_warnings(theta, bounds) -> tuple[str, ...]:
    notes = []
    for i, (v, (lo, hi)) in enumerate(zip(theta, bounds)):
        if v - lo <= 2.0 * _GOLDEN_TOL:
            notes.append(f"theta[{i}]={v!r} sits at the lower bound {lo!r}")
        elif hi - v <= 2.0 * _GOLDEN_TOL:
            notes.append(f"theta[{i}]={v!r} sits at the upper bound {hi!r}")
    return tuple(notes)


def _fit_rows(kind: Kind, family, X, bounds, lam, extras=()):
    """Maximize ln L over theta for every row of a validated block.

    Runs the multistart coordinate search with one engine row per
    (sample, start) pair, then scores the direct candidates ``extras``
    (each an (R, d) array, one point per sample). Search values map
    degenerate points and nan to -inf. Returns the candidates
    ``[(theta (R, d), value (R,)), ...]``: the multistart results, then
    the extras, in the order _pick_best reads them.
    """
    starts = np.asarray(_multistarts(bounds))
    per = len(starts)
    sample_of = np.repeat(np.arange(len(X)), per)

    def h(theta, rows):
        base = family._at_columns(theta)
        value, degenerate = _evaluate(kind, base, X[sample_of[rows]], lam)
        return np.where(degenerate | np.isnan(value), -np.inf, value)

    theta, value = _coordinate_max(h, np.tile(starts, (len(X), 1)), bounds)
    candidates = [(theta[j::per], value[j::per]) for j in range(per)]
    first_rows = np.arange(0, len(sample_of), per)
    candidates.extend((t, h(t, first_rows)) for t in extras)
    return candidates


def _fit_block(kind: Kind, family, X, bounds, lam, extras=()):
    """Best theta per row of a validated block, and the raw ln L there.

    Returns ``(theta_hat, value, degenerate)`` as :func:`_evaluate`
    reports them at theta_hat.
    """
    theta_hat, _ = _pick_best(_fit_rows(kind, family, X, bounds, lam, extras))
    return (theta_hat, *_evaluate(kind, family._at_columns(theta_hat), X, lam))


def _all_equal_rows(family, X) -> np.ndarray:
    """Rows whose values are all equal: base parameters are unidentified."""
    if not family.param_names or X.shape[1] < 2:
        return np.zeros(len(X), dtype=bool)
    return np.all(X == X[:, :1], axis=1)


def _degenerate_guard(family, x: np.ndarray) -> None:
    if _all_equal_rows(family, x.reshape(1, -1))[0]:
        raise DegenerateSampleError(
            "all sample values are equal; base-parameter fitting would chase "
            "a boundary spike"
        )


def _fit_one(kind: Kind, family, x, theta_bounds, lam, extra_candidates):
    """The R = 1 fit behind fit_full and fit_restricted."""
    bounds, member = _checked_box(family, theta_bounds)
    X = _as_block(x)
    _check_support(member, X)
    extras = []
    for theta in extra_candidates:
        theta = tuple(float(v) for v in theta)
        if len(theta) != len(bounds):
            raise DomainError(f"extra candidate {theta!r} has the wrong dimension")
        family.from_theta(theta)
        extras.append(np.array([theta]))
    candidates = _fit_rows(kind, family, X, bounds, lam, extras)
    theta_hat = tuple(float(v) for v in _pick_best(candidates)[0][0])
    trace = tuple((tuple(float(v) for v in t[0]), float(val[0])) for t, val in candidates)
    return theta_hat, trace, _boundary_warnings(theta_hat, bounds)


def _fit(kind, base_family, s, lam, theta_bounds, extra_candidates) -> FitResult:
    """The fit behind fit_full (lam None: profiled out) and fit_restricted."""
    kind = _coerce_kind(kind)
    family = _resolve_family(base_family)
    x = sample_values(s)
    _degenerate_guard(family, x)
    theta_hat, trace, warnings = (), None, ()
    if family.param_names:
        theta_hat, trace, warnings = _fit_one(
            kind, family, x, theta_bounds, lam, extra_candidates
        )
    if lam is None:
        lam = mle_lambda(kind, family, theta_hat, x)
    ll = loglik(kind, family, theta_hat, lam, x)
    return FitResult(lam, theta_hat, ll, x.size, profile_trace=trace, warnings=warnings)


def fit_full(kind, base_family, s, theta_bounds=None, extra_candidates=()) -> FitResult:
    """Maximize ll(lambda, theta) jointly, lambda by its closed form.

    For each candidate theta the exponent is profiled out analytically;
    theta then maximizes the profile by golden-section coordinate search
    inside ``theta_bounds``. ``extra_candidates`` are theta points
    evaluated alongside the multistart results (useful for exact nesting
    guarantees). A solution at the edge of the box is reported in
    ``warnings``. The reported values are :func:`mle_lambda` and
    :func:`loglik` at the solution.
    """
    return _fit(kind, base_family, s, None, theta_bounds, extra_candidates)


def fit_restricted(
    kind, base_family, s, lambda_fixed, theta_bounds=None, extra_candidates=()
) -> FitResult:
    """Maximize ll(lambda_fixed, theta) over theta only."""
    lam = _finite_positive("lambda_fixed", lambda_fixed)
    return _fit(kind, base_family, s, lam, theta_bounds, extra_candidates)
