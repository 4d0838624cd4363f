"""The QAGS port in ``lehmann._quadrature`` against QUADPACK itself.

``scipy.integrate.quad`` runs the same QUADPACK routine (``dqagse``) on a
scalar integrand; it is used here as a test-only reference. Two checks:

- Fed the very integrand values the port saw, quad returns the same
  value, error estimate and number of integrand evaluations, bit for bit.
  This pins node placement, error estimates, bisection order, the
  extrapolation and the stopping rules.
- Against the scalar integrands ``kl_numeric`` and ``moment`` used before
  they were vectorised, the values agree to 1e-13 relative, the same
  cases fail, and the evaluation counts agree (but see
  ``NEVAL_MAY_DIFFER``).
"""

import importlib
import math

import numpy as np
import pytest
from scipy import integrate

from lehmann import Exponential, Kind, NumericalError, Uniform, Weibull, extend, kl_numeric
from lehmann._quadrature import ABS_TOL, MAX_SUBDIVISIONS, REL_TOL, _qags, integrate_unit
from lehmann.base_dist import _OPEN_HI, _OPEN_LO

# the benchmark's quadrature grid: 3 bases x 2 kinds x 4 exponents, one KL
# divergence against lambda = 1 and the first two moments per law
BASES = {"uniform": Uniform(), "exponential": Exponential(1.0), "weibull": Weibull(2.0, 1.0)}
CELLS = [(op, fam, kind, lam, k)
         for fam in BASES for kind in (1, 2) for lam in (0.2, 0.5, 2.0, 5.0)
         for op, k in (("kl", 0), ("moment", 1), ("moment", 2))]

# nodes where numpy's vectorised exp/log and the C library's differ in the
# last ulp move one bisection decision in these cells on some CPUs (seen
# with AVX-512); the integral still agrees to 1e-13
NEVAL_MAY_DIFFER = {("kl", "weibull", 1, 5.0, 0), ("kl", "weibull", 2, 5.0, 0)}

_LN_HALF = math.log(0.5)
# the modules that call integrate_unit (lehmann.extend the function
# shadows lehmann.extend the module as a package attribute)
_CALLERS = [importlib.import_module(m) for m in ("lehmann.infotheory", "lehmann.extend")]


def _reference(f):
    """quad on a scalar integrand: (value, error, neval, fails), where
    fails applies integrate_unit's NumericalError rule to quad's output."""
    with np.errstate(all="ignore"):
        out = integrate.quad(f, 0.0, 1.0, epsabs=ABS_TOL, epsrel=REL_TOL,
                             limit=MAX_SUBDIVISIONS, full_output=1)
    value, err, info = out[0], out[1], out[2]
    fails = (not (math.isfinite(value) and math.isfinite(err))
             or (len(out) >= 4 and err > max(ABS_TOL, REL_TOL * abs(value))))
    return value, err, info["neval"], fails


class _Recorder:
    """Wraps integrate_unit's array integrand; keeps every node's value."""

    def __init__(self):
        self.values = {}
        self.neval = 0
        self.integrand = None
        self.result = None

    def recorded(self, f):
        """``f``, counting and keeping every node it is called on."""
        self.integrand = f

        def wrapped(t):
            y = f(t)
            self.neval += t.size
            self.values.update(zip(t.tolist(), np.broadcast_to(y, t.shape).tolist()))
            return y

        return wrapped

    def __call__(self, f):
        self.result = integrate_unit(self.recorded(f))
        return self.result

    def seen(self, t: float) -> float:
        """The value the port saw at node t, as quad's scalar integrand."""
        if t in self.values:
            return self.values[t]
        return float(self.integrand(np.array([t]))[0])


def _run(call):
    """Run ``call`` with integrate_unit recorded: (value, err, fails, recorder)."""
    rec = _Recorder()
    with pytest.MonkeyPatch.context() as mp:
        for mod in _CALLERS:
            mp.setattr(mod, "integrate_unit", rec)
        try:
            call(rec)
        except NumericalError as exc:
            return exc.value, exc.error_estimate, True, rec
    return rec.result + (False, rec)


def _scalar_node_map(dist):
    """The node-at-a-time change of variables t -> x the library used
    before its integrands took arrays (math-module rounding)."""
    inv = 1.0 / dist.lam
    first = dist.kind is Kind.FIRST
    q_small = dist.base._quantile if first else dist.base._quantile_sf
    q_large = dist.base._quantile_sf if first else dist.base._quantile

    def x_at(t):
        log_w = math.log(min(max(t, _OPEN_LO), _OPEN_HI)) * inv
        if log_w < _LN_HALF:
            return q_small(max(math.exp(log_w), _OPEN_LO))
        return q_large(min(max(-math.expm1(log_w), _OPEN_LO), _OPEN_HI))

    return x_at


def _cell(op, fam, kind, lam, k):
    """(library call, old scalar integrand) for one benchmark cell."""
    p = extend(BASES[fam], lam, Kind(kind))
    x_at = _scalar_node_map(p)
    if op == "kl":
        q = extend(BASES[fam], 1.0, Kind(kind))
        return (lambda rec: kl_numeric(p, q),
                lambda t: p.log_pdf(x_at(t)) - q.log_pdf(x_at(t)))
    return (lambda rec: p.moment(k)), (lambda t: float(x_at(t)) ** k)


def _unit(f):
    return lambda rec: rec(f)


def _diverging(t):
    gap = 1.0 - t
    with np.errstate(divide="ignore"):
        return np.where(gap > 0.0, 1.0 / gap, 1e300)


def _diverging_scalar(t):
    gap = 1.0 - t
    return 1.0 / gap if gap > 0.0 else 1e300


# (array integrand, scalar integrand) for the plain integrals over (0, 1)
PLAIN = {
    "t*t": (lambda t: t * t, lambda t: t * t),
    "log t": (np.log, math.log),
    "t**-0.8": (lambda t: t ** -0.8, lambda t: t ** -0.8),
    "1/(1-t)": (_diverging, _diverging_scalar),
}


def _relative_gap(a, b):
    if a == b:
        return 0.0
    return abs(a - b) / abs(b)


def _cell_id(cell):
    return "-".join(str(c) for c in cell)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_cell_matches_quadpack_on_the_same_integrand_values(cell):
    call, _old = _cell(*cell)
    value, err, fails, rec = _run(call)
    ref_value, ref_err, ref_neval, ref_fails = _reference(rec.seen)
    assert (value, err, rec.neval, fails) == (ref_value, ref_err, ref_neval, ref_fails)


@pytest.mark.parametrize("name", PLAIN)
def test_plain_integral_matches_quadpack_on_the_same_integrand_values(name):
    value, err, fails, rec = _run(_unit(PLAIN[name][0]))
    assert (value, err, rec.neval, fails) == _reference(rec.seen)


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_cell_matches_quad_on_the_old_scalar_integrand(cell):
    call, old = _cell(*cell)
    value, _err, fails, rec = _run(call)
    ref_value, _ref_err, ref_neval, ref_fails = _reference(old)
    assert _relative_gap(value, ref_value) <= 1e-13
    assert fails == ref_fails
    if cell not in NEVAL_MAY_DIFFER:
        assert rec.neval == ref_neval


@pytest.mark.parametrize("name", PLAIN)
def test_plain_integral_matches_quad_on_the_scalar_integrand(name):
    array_f, scalar_f = PLAIN[name]
    value, _err, fails, rec = _run(_unit(array_f))
    ref_value, _ref_err, ref_neval, ref_fails = _reference(scalar_f)
    assert _relative_gap(value, ref_value) <= 1e-13
    assert (rec.neval, fails) == (ref_neval, ref_fails)


def test_known_kl_failure_is_kept():
    # ln q diverges at the upper end faster than the quadrature refines:
    # QUADPACK returns inf with an infinite error bound after 105 nodes
    value, err, fails, rec = _run(_cell("kl", "uniform", 2, 0.2, 0)[0])
    assert fails and value == math.inf and err == math.inf
    assert rec.neval == 105


def test_one_integrand_call_per_rule():
    calls = []

    def f(t):
        calls.append(t.size)
        return np.log(t)

    integrate_unit(f)
    assert calls[0] == 21
    assert set(calls[1:]) == {42}
    assert len(calls) == (sum(calls) + 21) // 42


def _random_integrand(rng):
    """A power endpoint singularity times an oscillation, an interior
    singularity, an optional high-frequency noise floor, and a scale."""
    a, w = rng.uniform(-1.5, 1.0), rng.uniform(0.0, 200.0)
    d, e = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.3)
    c, noise = rng.choice([0.0, 1.0]), rng.choice([0.0, 1e-9])
    scale = rng.choice([1e-8, 1.0, 1e8])

    def f(t):
        with np.errstate(all="ignore"):
            return scale * (t ** a * np.cos(w * t) + c / np.abs(t - d) ** e
                            + noise * np.sin(1e7 * t))

    return f


def _wild(t):
    # an interior singularity, an oscillating endpoint and a log endpoint
    with np.errstate(divide="ignore"):
        return 1.0 / np.sqrt(np.abs(t - 0.3)) + np.cos(1.0 / t) + np.log(1.0 - t) / np.sqrt(t)


# quad reports QUADPACK's ier only through its warning message
_QUAD_IER = {"maximum number of subdivisions": 1, "occurrence of roundoff": 2,
             "Extremely bad integrand": 3, "does not converge": 4, "probably divergent": 5}


def _quad_ier(out):
    if len(out) < 4:
        return 0
    (ier,) = [code for phrase, code in _QUAD_IER.items() if phrase in out[3]]
    return ier


def _assert_qags_matches_quad(f, limit):
    rec = _Recorder()
    value, err, ier = _qags(rec.recorded(f), limit)
    with np.errstate(all="ignore"):
        out = integrate.quad(rec.seen, 0.0, 1.0, epsabs=ABS_TOL, epsrel=REL_TOL,
                             limit=limit, full_output=1)
    assert np.array_equal([value, err], out[:2], equal_nan=True)
    assert (rec.neval, ier) == (out[2]["neval"], _quad_ier(out))


def _cos_inverse(t):
    return np.cos(1.0 / t)


def _steep_line(t):
    # the first rule's error estimate is all roundoff: ier 2 at once
    return 1e5 * (t - 0.5)


def _log_slow(t):
    # the integral of 1/(t (1 - ln t)**3) is 1/2, but its tail shrinks
    # only like 1/ln(t)**2, too slowly for the epsilon algorithm to cut its
    # table: the table reaches its 50 entries and is shifted down
    return 1.0 / (t * (1.0 - np.log(t)) ** 3)


def _pole_pair(t):
    # t**-0.9 on (0, 1/16), its negative shifted onto (1/16, 1/8), zero
    # beyond. The offsets are rounded to float32, so the rules on the two
    # halves see the same values with opposite signs and their areas
    # cancel exactly: the summed area or the extrapolated result is 0.0
    # when the subdivision limit stops the search
    left = t < 0.0625
    s = np.where(left, t, t - 0.0625).astype(np.float32).astype(np.float64)
    v = np.where(left, 1.0, -1.0) * np.maximum(s, 2.0 ** -60) ** -0.9
    return np.where(t < 0.125, v, 0.0)


# _qelg's return for a table of fewer than 3 entries has no caller:
# _qags first calls it with 3 entries, and a table cut to 1 entry sets
# noext, so no later call has fewer than 4.
@pytest.mark.parametrize("f, limit", [
    pytest.param(f, n, id=f"{f.__name__.strip('_')}-{n}")
    for f, limits in ((_wild, (1, 2, 3, 7, 40, 101, 1000)), (_cos_inverse, (30, 300, 3000)),
                      (_steep_line, (MAX_SUBDIVISIONS,)), (_log_slow, (MAX_SUBDIVISIONS,)),
                      (_pole_pair, (9, 17)))
    for n in limits])
def test_qags_matches_quadpack_under_a_subdivision_limit(f, limit):
    # past limit/2 subdivisions only part of the error list is kept sorted
    _assert_qags_matches_quad(f, limit)


@pytest.mark.parametrize("seed", range(4))
def test_qags_matches_quadpack_on_random_integrands(seed):
    # small limits reach the limit, roundoff and divergence exits
    rng = np.random.default_rng(seed)
    for _ in range(50):
        f = _random_integrand(rng)
        _assert_qags_matches_quad(f, int(rng.choice([1, 3, 10, 50, 200])))


def test_nan_band_raises_instead_of_overflowing_the_extrapolation_table():
    # every extrapolation of a NaN area passes as converged, so QUADPACK's
    # 52-entry epsilon table never shortens and overflows (quad itself
    # writes out of bounds there); the port grows the table and reports
    def f(t):
        return np.where((t > 0.6) & (t < 0.67), np.nan, t ** -0.1)

    value, err, ier = _qags(f, MAX_SUBDIVISIONS)
    assert math.isnan(value) and math.isnan(err) and ier != 0
    with pytest.raises(NumericalError):
        integrate_unit(f)
