"""Likelihood evaluation and maximum-likelihood fitting.

For the powered laws the exponent has a closed-form MLE at fixed base
parameters: with S = sum of log F(x_j) (first kind) or log(1 - F(x_j))
(second kind), the maximizer is ``lambda_hat = -n / S``. Fitting the
remaining base parameters therefore reduces to maximizing the profile
log-likelihood ``ll(lambda_hat(theta), theta)`` over a bounded box.
One parameter is searched by a bounded Brent line search (golden-section
and parabolic steps) over its side of the box. Two or more are searched
by damped Newton ascent in box-normalized log coordinates from a fixed
low-discrepancy multistart set; its gradient and Hessian come from a
central-difference stencil of the profile, so no analytic derivatives
are needed.

Every fit runs on one block engine. An ``(R, n)`` block of samples is
validated once (family, bounds box, support). A row is a (sample,
multistart) pair. Every objective evaluation is a single call of the
family's broadcasting log kernels for all the rows it is given (chunked
to cap the working set), and the searches step their rows in lockstep.
A Newton row that has stopped is not evaluated again; a Brent row whose
bracket has closed keeps its state behind a mask and is evaluated at its
best point while the other rows go on. ``_fit_block`` runs every fit,
and alone decides that an empty box is evaluated at theta = (). The
public fits are its R = 1 case, and :mod:`lehmann.lrt_sim` fits all
replications of a power-study cell at once. Each row does the arithmetic
it would do alone, so a row of a block gives the same bits as its R = 1
fit.

``base_family`` arguments accept a registered family id, the family
class, or an instance (its class is used).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .base_dist import BaseDistribution, _finite_positive, _is_real, lookup_family
from .errors import DegenerateSampleError, DomainError, SupportError
from .extend import Kind, _coerce_kind, sample_values

# line searches run on [0, 1] and close at about this width (scipy's xatol)
_GOLDEN_TOL = 1e-8
# objective calls per line search, the first included (scipy's maxiter)
_GOLDEN_MAX_ITER = 200
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
# the farthest from a [0, 1] edge at which a line search can close there
_EDGE_TOL = 2.0 * (_SQRT_EPS + _GOLDEN_TOL / 3.0)
_N_MULTISTARTS = 5
# the Newton search: stencil spacing on the unit cube; a row stops once
# its Newton decrement g' A^-1 g is at most _NEWTON_TOL (after trying that
# last step), or once a step gains at most _NEWTON_GAIN * (1 + |value|)
_STENCIL_H = 1e-5
_NEWTON_TOL = 1e-11
_NEWTON_GAIN = 1e-13
_NEWTON_MAX_ITER = 100
# the Levenberg shift's margin above -(smallest eigenvalue of -H), relative
# to 1 + the largest diagonal entry
_LEVENBERG = 1e-3
_MAX_HALVINGS = 30
# sample values drawn and fitted per power-study block (the working set)
_BLOCK_VALUES = 1 << 14
# the most sample values one objective call evaluates: the starts of a block
_EVAL_VALUES = _N_MULTISTARTS * _BLOCK_VALUES
_TIE_TOL = 1e-10
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
        return lookup_family(base_family)
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
        raise DomainError("sample must be one-dimensional with at least one "
                          f"value, got shape {x.shape}")
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
    """Raw ln L per row: sum (ln f - w) + n ln(lam) + lam sum w.

    w is ln F (first kind) or ln(1 - F) (second kind). ``lam`` is the
    fixed exponent, or None to profile it out by its closed form
    -n / sum w. Returns ``(value, degenerate)``; degenerate rows have no
    exponent MLE at their parameters. A row at lam == 1 keeps the bare
    density sum. ``X`` may be a single (1, n) sample shared by every
    parameter row of ``base``.
    """
    n = X.shape[1]
    # a fixed lam == 1 needs no hazard kernel (the restricted fits)
    if lam is not None and lam == 1.0:
        terms = base._log_pdf(X)
        total = terms.sum(axis=1)
        degenerate = np.zeros(len(total), dtype=bool)
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            terms, w = base._log_hazard_and_kernel(X, kind is Kind.FIRST)
            w_sum = w.sum(axis=1)
            if lam is None:
                degenerate = _saturated(w_sum)
                lam = np.where(degenerate, 1.0, -n / w_sum)
            else:
                degenerate = np.zeros(len(w_sum), dtype=bool)
            total = terms.sum(axis=1) + (n * np.log(lam) + lam * w_sum)
            # the plain sum decides where some w is -inf (F is 0 or 1 at a
            # sample value: ln f - w is +inf and lam sum w is -inf), and at a
            # profiled lam of exactly 1, where it adds +0.0 to the density sum
            plain = (np.isneginf(w_sum) | np.equal(lam, 1.0)) & ~degenerate
            if plain.any():
                total = np.where(plain, base._log_pdf(X).sum(axis=1)
                                 + (n * np.log(lam) + (lam - 1.0) * w_sum), total)
    # a vanishing density (ln f = -inf, so a term is -inf, or nan where w
    # is -inf too) makes ln L -inf whatever the sum says (the sum is nan
    # when +inf terms are present too)
    odd = ~np.isfinite(total)
    if odd.any():
        odd = np.flatnonzero(odd)
        vanishing = np.isneginf(terms[odd]) | np.isnan(terms[odd])
        total[odd[vanishing.any(axis=1)]] = -np.inf
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
    # the w the likelihood engine reads, under the same warnings policy
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = base._log_hazard_and_kernel(x, kind is Kind.FIRST)[1]
    total = float(w.sum(axis=1)[0])
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


def _unit_starts(dim: int) -> np.ndarray:
    """The multistart points on the unit cube: its center, then Halton
    points whose bases are the first ``dim`` primes."""
    primes = (p for p in itertools.count(2) if all(p % q for q in range(2, math.isqrt(p) + 1)))
    bases = list(itertools.islice(primes, dim))
    return np.array([[0.5] * dim] + [
        [_halton(i, b) for b in bases] for i in range(1, _N_MULTISTARTS)
    ])


def _unit_map(bounds):
    """theta as a function of points u of the unit cube, one box side per column.

    A side with lo > 0 is mapped log-linearly, ln theta = ln lo + u (ln hi
    - ln lo), so u = 1/2 is sqrt(lo * hi); any other side linearly. The
    result is clipped into the open box, where the parameters are valid.
    """
    lo, hi = np.array(bounds, dtype=float).T
    log = lo > 0.0
    at = np.where(log, np.log(np.where(log, lo, 1.0)), lo)
    span = np.where(log, np.log(np.where(log, hi, 1.0)), hi) - at
    inner_lo, inner_hi = np.nextafter(lo, hi), np.nextafter(hi, lo)

    def to_theta(u):
        theta = at + u * span
        theta[:, log] = np.exp(theta[:, log])
        return np.minimum(np.maximum(theta, inner_lo), inner_hi)

    return to_theta


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


def _stencil(dim: int) -> np.ndarray:
    """Offsets of the central-difference stencil: the center, +-h e_i for
    every i, then the four corners (+-h e_i, +-h e_j) for every i < j."""
    eye = np.eye(dim)
    points = [np.zeros(dim)]
    for i in range(dim):
        points += [eye[i], -eye[i]]
    for i in range(dim):
        for j in range(i + 1, dim):
            points += [eye[i] + eye[j], eye[i] - eye[j], eye[j] - eye[i], -eye[i] - eye[j]]
    return _STENCIL_H * np.array(points)


def _derivatives(F, dim):
    """Gradient and Hessian per row from the values F (m, S) on _stencil(dim)."""
    h = _STENCIL_H
    plus, minus = F[:, 1:2 * dim + 1:2], F[:, 2:2 * dim + 2:2]
    grad = (plus - minus) / (2.0 * h)
    hess = np.empty((len(F), dim, dim))
    d = np.arange(dim)
    hess[:, d, d] = (plus - 2.0 * F[:, :1] + minus) / (h * h)
    corners = F[:, 2 * dim + 1:].reshape(len(F), -1, 4)
    cross = (corners[..., 0] - corners[..., 1] - corners[..., 2] + corners[..., 3]) / (4.0 * h * h)
    i, j = np.triu_indices(dim, 1)
    hess[:, i, j] = hess[:, j, i] = cross
    return grad, hess


def _cholesky_solve(A, b):
    """Solve A x = b for every row of symmetric (m, d, d) A, by Cholesky.

    Plain numpy over the rows (no LAPACK). Returns x and whether each A is
    positive definite; x is meaningless where it is not.
    """
    m, dim = b.shape
    L = np.zeros_like(A)
    definite = np.ones(m, dtype=bool)
    for j in range(dim):
        pivot = A[:, j, j] - (L[:, j, :j] ** 2).sum(axis=1)
        definite &= pivot > 0.0
        L[:, j, j] = np.sqrt(np.where(pivot > 0.0, pivot, 1.0))
        for i in range(j + 1, dim):
            L[:, i, j] = (A[:, i, j] - (L[:, i, :j] * L[:, j, :j]).sum(axis=1)) / L[:, j, j]
    y = np.empty_like(b)
    for i in range(dim):
        y[:, i] = (b[:, i] - (L[:, i, :i] * y[:, :i]).sum(axis=1)) / L[:, i, i]
    x = np.empty_like(b)
    for i in reversed(range(dim)):
        x[:, i] = (y[:, i] - (L[:, i + 1:, i] * x[:, i + 1:]).sum(axis=1)) / L[:, i, i]
    return x, definite


def _newton_step(u, grad, hess):
    """Ascent step, Newton decrement and definiteness per row at u.

    Solves (-H) step = g. A coordinate pinned at an edge of the cube with
    its gradient pointing out is dropped from the system (its step is 0).
    Where -H is not positive definite it is shifted by mu I, which makes
    it so (a Levenberg step; see :func:`_levenberg_shift`).
    """
    dim = u.shape[1]
    pinned = ((u <= 0.0) & (grad <= 0.0)) | ((u >= 1.0) & (grad >= 0.0))
    free = ~pinned
    eye = np.eye(dim)
    A = np.where(free[:, :, None] & free[:, None, :], -hess, eye)
    grad = np.where(free, grad, 0.0)
    step, definite = _cholesky_solve(A, grad)
    if not definite.all():
        shifted, _ = _cholesky_solve(A + _levenberg_shift(A)[:, None, None] * eye, grad)
        step = np.where(definite[:, None], step, shifted)
    return step, (grad * step).sum(axis=1), definite


def _levenberg_shift(A):
    """mu per row with A + mu I positive definite: _LEVENBERG * (1 + max
    |A_ii|) above -(smallest eigenvalue) for 2 x 2 A, in closed form, and
    above Gershgorin's bound on it for larger A."""
    diag = np.diagonal(A, axis1=1, axis2=2)
    margin = _LEVENBERG * (1.0 + np.max(np.abs(diag), axis=1))
    if A.shape[1] == 2:
        a, c, b = A[:, 0, 0], A[:, 1, 1], A[:, 0, 1]
        lowest = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
    else:
        lowest = np.min(diag + np.abs(diag) - np.abs(A).sum(axis=2), axis=1)
    return np.maximum(-lowest, 0.0) + margin


def _newton_max(h, start):
    """Maximize on the unit cube by damped Newton ascent, one start per row.

    ``h(rows, u)`` evaluates row ``rows[k]``'s objective at the point
    ``u[k]``. Each iteration makes one call for the central-difference
    stencil (gradient and Hessian, spacing _STENCIL_H, centered at least
    _STENCIL_H inside the cube) of every row still searching. The Newton
    step (see :func:`_newton_step`) is clipped to the cube and halved, in
    lockstep, until it strictly raises the row's value. A row stops once
    no step raises its value, once its Newton decrement is at most
    _NEWTON_TOL (after trying that last step), or once a step gains at
    most _NEWTON_GAIN * (1 + |value|), which also ends a row whose
    objective is flat in some direction; a row that has stopped is not
    evaluated again, and a row with a non-finite value or stencil stops
    where it is. Returns the point and value of every row, and the mask
    of rows still searching at the iteration cap.
    """
    u = np.array(start, dtype=float)
    dim = u.shape[1]
    offsets = _stencil(dim)
    value = h(np.arange(len(u)), u)
    active = np.flatnonzero(np.isfinite(value))
    capped = np.zeros(len(u), dtype=bool)
    for _ in range(_NEWTON_MAX_ITER):
        if active.size == 0:
            break
        center = np.clip(u[active], _STENCIL_H, 1.0 - _STENCIL_H)
        F = h(np.repeat(active, len(offsets)), (center[:, None, :] + offsets).reshape(-1, dim))
        F = F.reshape(active.size, len(offsets))
        with np.errstate(invalid="ignore", over="ignore"):
            grad, hess = _derivatives(F, dim)
            # the gradient at u itself, where the stencil was moved inside
            grad = grad + (hess * (u[active] - center)[:, None, :]).sum(axis=2)
            step, decrement, definite = _newton_step(u[active], grad, hess)
        last = definite & (decrement <= _NEWTON_TOL)
        before = value[active]
        # lockstep backtracking over positions in ``active``; a row at its
        # last step tries it once
        pending = np.flatnonzero(np.isfinite(F).all(axis=1) & (decrement > 0.0))
        raised = np.zeros(active.size, dtype=bool)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            if pending.size == 0:
                break
            rows = active[pending]
            trial = np.clip(u[rows] + t * step[pending], 0.0, 1.0)
            f = h(rows, trial)
            up = f > value[rows]
            u[rows[up]], value[rows[up]] = trial[up], f[up]
            raised[pending[up]] = True
            pending = pending[~up & ~last[pending]]
            t *= 0.5
        after = value[active]
        small = after - before <= _NEWTON_GAIN * (1.0 + np.abs(after))
        active = active[raised & ~last & ~small]
    else:
        capped[active] = True
    return u, value, capped


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
    # a lone number or string is no sequence of pairs, and fails as one bad pair
    pairs = bounds if np.iterable(bounds) and not isinstance(bounds, str) else [bounds]
    out = []
    for pair in pairs:
        pair = tuple(pair) if np.iterable(pair) and not isinstance(pair, str) else ()
        if len(pair) != 2 or not all(map(_is_real, pair)):
            raise DomainError(f"theta_bounds must be (lo, hi) pairs of numbers, got {bounds!r}")
        lo, hi = float(pair[0]), float(pair[1])
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
    """Notes for the coordinates the search left at an edge of the box.

    A coordinate is at an edge when it lies within a Brent search's
    closing distance of it, measured as a fraction of its side of the box
    (the Newton search stops on the edge itself).
    """
    notes = []
    for i, (v, (lo, hi)) in enumerate(zip(theta, bounds)):
        if (v - lo) / (hi - lo) <= _EDGE_TOL:
            notes.append(f"theta[{i}]={v!r} sits at the lower bound {lo!r}")
        elif (hi - v) / (hi - lo) <= _EDGE_TOL:
            notes.append(f"theta[{i}]={v!r} sits at the upper bound {hi!r}")
    return tuple(notes)


def _scorer(kind: Kind, family, X, lam):
    """The search objective ``h(theta, rows=None)`` on a validated block.

    Point k is scored against sample row ``rows[k]`` (row k when ``rows``
    is None; a lone sample broadcasts against every point, uncopied), in
    chunks of at most _EVAL_VALUES sample values. Degenerate points and
    nan map to -inf.
    """
    chunk = max(1, _EVAL_VALUES // X.shape[1])

    def h(theta, rows=None):
        out = np.empty(len(theta))
        for a in range(0, len(theta), chunk):
            part = slice(a, a + chunk)
            block = X if len(X) == 1 else X[part] if rows is None else X[rows[part]]
            value, degenerate = _evaluate(kind, family._at_columns(theta[part]), block, lam)
            out[part] = np.where(degenerate | np.isnan(value), -np.inf, value)
        return out

    return h


def _fit_block(kind: Kind, family, X, bounds, lam, extras=()):
    """Maximize ln L over theta for every row of a validated block.

    The one place that decides the empty box: it has one point, theta =
    (), evaluated without a search. One parameter: a Brent search over
    its side of the box. More: the Newton search from the multistart set,
    one engine row per (sample, start) pair. Then the direct candidates
    ``extras`` (each (R, d), one point per sample) are scored. Returns
    ``(theta_hat, value, degenerate, candidates, capped)``: the best theta
    per row with :func:`_evaluate`'s value and mask there; the scored
    ``[(theta (R, d), value (R,)), ...]`` in the order _pick_best reads
    them (none without a search); and each sample's starts left at the
    Newton search's iteration cap.
    """
    candidates, capped = [], np.zeros(len(X), dtype=int)
    if not bounds:
        theta_hat = np.empty((len(X), 0))
    else:
        h = _scorer(kind, family, X, lam)
        if len(bounds) == 1:
            # a line search over the full side does not depend on a start
            (lo, hi), = bounds
            s, value = _golden_max(lambda s: h(lo + s[:, None] * (hi - lo)),
                                   np.zeros(len(X)), np.ones(len(X)))
            candidates.append((lo + s[:, None] * (hi - lo), value))
        else:
            to_theta = _unit_map(bounds)
            starts = _unit_starts(len(bounds))
            per = len(starts)
            sample_of = np.repeat(np.arange(len(X)), per)
            u, value, stopped = _newton_max(lambda rows, u: h(to_theta(u), sample_of[rows]),
                                            np.tile(starts, (len(X), 1)))
            theta = to_theta(u)
            candidates.extend((theta[j::per], value[j::per]) for j in range(per))
            capped = stopped.reshape(len(X), per).sum(axis=1)
        candidates.extend((t, h(t)) for t in extras)
        theta_hat, _ = _pick_best(candidates)
    return (theta_hat, *_evaluate(kind, family._at_columns(theta_hat), X, lam), candidates, capped)


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
    _check_support(member, X)
    theta, _, _, candidates, capped = _fit_block(kind, family, X, bounds, lam)
    theta_hat = tuple(float(v) for v in theta[0])
    # a fit without a search has no trace
    trace = tuple((tuple(float(v) for v in t[0]), float(val[0])) for t, val in candidates) or None
    warnings = _boundary_warnings(theta_hat, bounds)
    if capped[0]:
        warnings += (f"{capped[0]} of {_N_MULTISTARTS} starts stopped at the "
                     f"search's iteration cap ({_NEWTON_MAX_ITER})",)
    x = X[0]
    if lam is None:
        lam = mle_lambda(kind, family, theta_hat, x)
    ll = loglik(kind, family, theta_hat, lam, x)
    return FitResult(lam, theta_hat, ll, x.size, profile_trace=trace, warnings=warnings)


def fit_full(kind, base_family, s, theta_bounds=None) -> FitResult:
    """Maximize ll(lambda, theta) jointly, lambda by its closed form.

    For each candidate theta the exponent is profiled out analytically,
    and theta maximizes the profile over ``theta_bounds``; a family with
    parameters requires the box and a parameter-free family refuses it.
    One parameter is searched by a Brent line search across its side of
    the box. Two or more are searched by damped Newton ascent from a
    fixed multistart set, in coordinates where each side of the box is
    [0, 1] on a log scale (linear for a side that reaches 0). It follows
    curved ridges, such as the first-kind Weibull's in (shape, scale), to
    their top. The best start wins, ties going to the smaller theta: for
    second-kind bases with a scale, where lambda and the scale are not
    separately identified and the profile is flat along the scale, that
    rule picks ``theta_hat``. The search results are kept in
    ``profile_trace``. A solution at an edge of the box, and starts that
    stop at the search's iteration cap, are reported in ``warnings``. The
    reported values are :func:`mle_lambda` and :func:`loglik` at the
    solution.
    """
    return _fit(kind, base_family, s, None, theta_bounds)


def fit_restricted(kind, base_family, s, lambda_fixed, theta_bounds=None) -> FitResult:
    """Maximize ll(lambda_fixed, theta) over theta only."""
    lam = _finite_positive("lambda_fixed", lambda_fixed)
    return _fit(kind, base_family, s, lam, theta_bounds)
