"""Likelihood evaluation and maximum-likelihood fitting.

For the powered laws the exponent has a closed-form MLE at fixed base
parameters: with S = sum of log F(x_j) (first kind) or log(1 - F(x_j))
(second kind), the maximizer is ``lambda_hat = -n / S``. Fitting the
remaining base parameters therefore reduces to maximizing the profile
log-likelihood ``ll(lambda_hat(theta), theta)`` over a bounded box,
which is done by Brent line searches (golden-section and parabolic
steps) with coordinate cycling and a fixed low-discrepancy multistart
set. No gradients are needed.

Every fit runs on one block engine. An ``(R, n)`` block of samples is
validated once (family, bounds box, support). A row is a (sample,
multistart) pair. Each coordinate sweep binds the rows still sweeping to
their samples once; within the sweep every objective evaluation is a
single call of the family's broadcasting log kernels for all of those
rows, and a Brent search steps them in lockstep, a row whose bracket
has closed keeping its state. The public fits are the R = 1 case, and
:mod:`lehmann.lrt_sim` fits all replications of a power-study cell at
once. Each row does the arithmetic it would do alone, so a row
of a block gives the same bits as its R = 1 fit.

``base_family`` arguments accept a registered family id, the family
class, or an instance (its class is used).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .base_dist import FAMILIES, BaseDistribution, _finite_positive
from .errors import DegenerateSampleError, DomainError, SupportError
from .extend import Kind, _coerce_kind, _kernel_log, sample_values

# line searches run on [0, 1] and close at about this width (scipy's xatol)
_GOLDEN_TOL = 1e-8
# objective calls per line search, the first included (scipy's maxiter)
_GOLDEN_MAX_ITER = 200
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
# the farthest from a [0, 1] edge at which a line search can close there
_EDGE_TOL = 2.0 * (_SQRT_EPS + _GOLDEN_TOL / 3.0)
_MAX_SWEEPS = 10
# a row stops sweeping once a sweep raises its value by at most this
# much relative to 1 + |value|
_SWEEP_GAIN = 1e-12
_N_MULTISTARTS = 5
_TIE_TOL = 1e-10
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
        # the multistart trace is a search diagnostic, not part of the result
        return json.dumps({f.name: getattr(self, f.name) for f in fields(self)
                           if f.name != "profile_trace"})


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
    support = base.support
    inside = support.contains(x)
    if not np.all(inside):
        idx = int(np.argmin(inside))
        # an infinite bound is an open end (members are finite)
        open_ = "[" if math.isfinite(support.lower) else "("
        close = "]" if math.isfinite(support.upper) else ")"
        raise SupportError(
            f"sample value x[{idx}]={float(x.flat[idx])!r} lies outside the support "
            f"{open_}{support.lower!r}, {support.upper!r}{close} "
            f"of the {base.family_id} family"
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
# (R, n) block X, or R points sharing a (1, n) X; either way its log
# kernels return one row of terms per row of the result.


def _saturated(w_sum):
    return ~np.isfinite(w_sum) | (np.abs(w_sum) < _SATURATED)


def _evaluate(kind: Kind, base, X, lam):
    """Raw ln L per row: n ln(lam) + sum ln f + (lam - 1) sum w.

    ``lam`` is the fixed exponent, or None to profile it out by its
    closed form -n / sum w. Returns ``(value, degenerate)``; degenerate
    rows have no exponent MLE at their parameters. A row at lam == 1
    keeps the bare density sum, as the scalar formula does. ``X`` may be
    a single (1, n) sample shared by every parameter row of ``base``.
    """
    n = X.shape[1]
    if lam is not None and lam == 1.0:
        lp = base._log_pdf(X)
        total = lp.sum(axis=1)
        degenerate = np.zeros(len(total), dtype=bool)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lp, w = base._log_pdf_and_kernel(X, kind is Kind.FIRST)
            total = lp.sum(axis=1)
            w_sum = w.sum(axis=1)
            if lam is None:
                degenerate = _saturated(w_sum)
                lam = np.where(degenerate, 1.0, -n / w_sum)
            else:
                degenerate = np.zeros(len(total), dtype=bool)
            total = np.where(lam == 1.0, total,
                             total + (n * np.log(lam) + (lam - 1.0) * w_sum))
    # a -inf density term makes ln L -inf whatever the sum says (the sum
    # is nan when +inf terms are present too)
    odd = ~np.isfinite(total)
    if odd.any():
        odd = np.flatnonzero(odd)
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
    total = float(_kernel_log(kind, base, x).sum(axis=1)[0])
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
        # a line search over the full bracket does not depend on the
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
    """Bounded Brent maximization on [lo, hi], one bracket per row.

    A lockstep port of scipy's bounded scalar minimizer
    (``scipy.optimize._optimize._minimize_scalar_bounded``; Brent 1973,
    ch. 5) applied to -h: golden-section steps with parabolic steps when
    the parabola through the three best points is acceptable, closing at
    ``tol1 = sqrt_eps * |x| + _GOLDEN_TOL / 3``. Each row takes the steps
    it would take alone, so a row gives scipy's bits for its bracket.
    ``h(points)`` evaluates every row at its point. Every row steps in
    lockstep; a row whose bracket has closed keeps its state, through a
    mask, and is evaluated at its best point while the others go on.
    Returns the best point and value of every row. The name predates
    the method and stays: the benchmark tracer (``perfbench/tracer.py``)
    looks the function up by it to time and count line searches.
    """
    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    xf = a + _GOLDEN_MEAN * (b - a)
    fx = -h(xf)
    zero = np.zeros_like(xf)
    # a, b, the best point xf, the second best nfc, the third best fulc,
    # their negated values, and the last two step lengths e and rat
    state = np.array([a, b, xf, fx, xf, fx, xf, fx, zero, zero])
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for _ in range(_GOLDEN_MAX_ITER - 1):
            a, b, xf, fx, nfc, fnfc, fulc, ffulc, e, rat = state
            xm = 0.5 * (a + b)
            tol1 = _SQRT_EPS * np.abs(xf) + _GOLDEN_TOL / 3.0
            tol2 = 2.0 * tol1
            open_ = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
            if not np.count_nonzero(open_):
                break
            # the parabola through the three best points, when the step
            # before last was long enough to trust it
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            p = np.where(q > 0.0, -p, p)
            q = np.abs(q)
            parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                         & (p > q * (a - xf)) & (p < q * (b - xf)))
            step = (p + 0.0) / q
            x = xf + step
            near_edge = ((x - a) < tol2) | ((b - x) < tol2)
            toward_middle = np.sign(xm - xf) + ((xm - xf) == 0)
            step = np.where(near_edge, tol1 * toward_middle, step)
            # otherwise a golden-section step into the larger part
            e_golden = np.where(xf >= xm, a - xf, b - xf)
            e, rat = np.where(parabolic, (rat, step), (e_golden, _GOLDEN_MEAN * e_golden))
            x = xf + (np.sign(rat) + (rat == 0)) * np.maximum(np.abs(rat), tol1)
            fu = -h(np.where(open_, x, xf))

            better = fu <= fx
            right = x >= xf
            left = x < xf
            na = np.where(better, np.where(right, xf, a), np.where(left, x, a))
            nb = np.where(better, np.where(right, b, xf), np.where(left, b, x))
            second = ~better & ((fu <= fnfc) | (nfc == xf))
            third = ~better & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
            shift = better | second
            stepped = (
                na, nb,
                np.where(better, x, xf), np.where(better, fu, fx),
                np.where(better, xf, np.where(second, x, nfc)),
                np.where(better, fx, np.where(second, fu, fnfc)),
                np.where(shift, nfc, np.where(third, x, fulc)),
                np.where(shift, fnfc, np.where(third, fu, ffulc)),
                e, rat,
            )
            state = np.where(open_, stepped, state)
    return state[2], -state[3]


def _coordinate_max(objective, start, bounds):
    """Cycle Brent line searches over the coordinates of theta.

    ``start`` holds one start point per row. Each sweep binds its active
    rows once: ``objective(rows)`` returns the evaluator ``h(theta)`` of
    those rows, one point per row. Coordinate i is searched over s in
    [0, 1], with theta_i = lo + s * (hi - lo), so every line search
    closes at the same fraction of its box side. A row sweeps until a
    sweep raises its value by at most _SWEEP_GAIN * (1 + |value|) (a
    single sweep in one dimension); a row that has stopped is not
    evaluated again. The value stop also ends a row whose profile is
    flat along a coordinate, where the point would wander but the value
    cannot rise.
    """
    theta = np.array(start, dtype=float)
    value = np.full(len(theta), -np.inf)
    rows = np.arange(len(theta))
    for _ in range(_MAX_SWEEPS):
        h = objective(rows)
        before = value[rows]
        unit = np.zeros(rows.size), np.ones(rows.size)
        for i, (lo, hi) in enumerate(bounds):
            current, side = theta[rows], hi - lo

            def line(s, _i=i, _current=current, _lo=lo, _side=side):
                trial = _current.copy()
                trial[:, _i] = _lo + s * _side
                return h(trial)

            si, vi = _golden_max(line, *unit)
            theta[rows, i] = lo + si * side
            value[rows] = vi
        after = value[rows]
        # a row whose value is not finite stops; its slack stays finite,
        # so -inf + inf is never formed
        finite = np.isfinite(after)
        slack = _SWEEP_GAIN * (1.0 + np.abs(np.where(finite, after, 0.0)))
        rows = rows[finite & (after > before + slack)]
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
    corner. A parameter-free family takes no box (None or empty).
    """
    if bounds is None:
        if family.param_names:
            raise DomainError(
                f"theta_bounds required: the family has parameters {family.param_names}"
            )
        bounds = ()
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
    """Notes for the coordinates a line search left at an edge of the box.

    A coordinate is at an edge when it lies within the search's closing
    distance of it, measured as a fraction of its side of the box.
    """
    notes = []
    for i, (v, (lo, hi)) in enumerate(zip(theta, bounds)):
        if (v - lo) / (hi - lo) <= _EDGE_TOL:
            notes.append(f"theta[{i}]={v!r} sits at the lower bound {lo!r}")
        elif (hi - v) / (hi - lo) <= _EDGE_TOL:
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

    def scorer(block):
        def h(theta):
            value, degenerate = _evaluate(kind, family._at_columns(theta), block, lam)
            return np.where(degenerate | np.isnan(value), -np.inf, value)
        return h

    def objective(rows):
        # a lone sample broadcasts against the parameter rows, uncopied
        return scorer(X if len(X) == 1 else X[sample_of[rows]])

    theta, value = _coordinate_max(objective, np.tile(starts, (len(X), 1)), bounds)
    candidates = [(theta[j::per], value[j::per]) for j in range(per)]
    h = scorer(X)
    candidates.extend((t, h(t)) for t in extras)
    return candidates


def _fit_block(kind: Kind, family, X, bounds, lam, extras=()):
    """Best theta per row of a validated block, and the raw ln L there.

    Returns ``(theta_hat, value, degenerate)`` as :func:`_evaluate`
    reports them at theta_hat.
    """
    theta_hat, _ = _pick_best(_fit_rows(kind, family, X, bounds, lam, extras))
    return (theta_hat, *_evaluate(kind, family._at_columns(theta_hat), X, lam))


def _all_equal_rows(family, X) -> np.ndarray:
    """Rows whose values are all equal, a lone value included: base
    parameters are unidentified."""
    if not family.param_names:
        return np.zeros(len(X), dtype=bool)
    return np.all(X == X[:, :1], axis=1)


def _degenerate_guard(family, x: np.ndarray) -> None:
    if _all_equal_rows(family, x.reshape(1, -1))[0]:
        raise DegenerateSampleError(
            "all sample values are equal (or there is only one); "
            "base-parameter fitting would chase a boundary spike"
        )


def _fit(kind, base_family, s, lam, theta_bounds) -> FitResult:
    """The fit behind fit_full (lam None: profiled out) and fit_restricted."""
    kind = _coerce_kind(kind)
    family = _resolve_family(base_family)
    X = _as_block(s)
    _degenerate_guard(family, X)
    bounds, member = _checked_box(family, theta_bounds)
    theta_hat, trace, warnings = (), None, ()
    if bounds:
        _check_support(member, X)
        candidates = _fit_rows(kind, family, X, bounds, lam)
        theta_hat = tuple(float(v) for v in _pick_best(candidates)[0][0])
        trace = tuple((tuple(float(v) for v in t[0]), float(val[0])) for t, val in candidates)
        warnings = _boundary_warnings(theta_hat, bounds)
    x = X[0]
    if lam is None:
        lam = mle_lambda(kind, family, theta_hat, x)
    ll = loglik(kind, family, theta_hat, lam, x)
    return FitResult(lam, theta_hat, ll, x.size, profile_trace=trace, warnings=warnings)


def fit_full(kind, base_family, s, theta_bounds=None) -> FitResult:
    """Maximize ll(lambda, theta) jointly, lambda by its closed form.

    For each candidate theta the exponent is profiled out analytically;
    theta then maximizes the profile by cycling Brent line searches over
    its coordinates, each across its side of ``theta_bounds``, from a
    fixed multistart set; a family with parameters requires the box and a
    parameter-free family refuses it. A start stops once a sweep no
    longer raises its value, and the best start wins, ties going to the
    smaller theta: for second-kind bases with a scale, where lambda and
    the scale are not separately identified and the profile is flat along
    the scale, that rule picks ``theta_hat``. The search is local along
    each axis, so on a curved ridge (first-kind Weibull) it can stop
    short of the maximum. The multistart results are kept in
    ``profile_trace``; a solution within a line search's closing distance
    of an edge of the box is reported in ``warnings``. The reported values
    are :func:`mle_lambda` and :func:`loglik` at the solution.
    """
    return _fit(kind, base_family, s, None, theta_bounds)


def fit_restricted(kind, base_family, s, lambda_fixed, theta_bounds=None) -> FitResult:
    """Maximize ll(lambda_fixed, theta) over theta only."""
    lam = _finite_positive("lambda_fixed", lambda_fixed)
    return _fit(kind, base_family, s, lam, theta_bounds)
