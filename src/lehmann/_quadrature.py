"""Adaptive quadrature kernel over the open unit interval.

A port of QUADPACK's QAGS (Piessens, de Doncker-Kapenga, Ueberhuber and
Kahaner, *QUADPACK*, Springer 1983): the driver ``dqagse``, the 21-point
Gauss-Kronrod rule ``dqk21``, the error-list ordering ``dqpsrt`` and
Wynn's epsilon extrapolation ``dqelg``. The interval with the largest
error estimate is bisected until the summed error meets the tolerance;
once the largest error sits on the smallest intervals, the sequence of
area estimates is extrapolated, which is what makes integrable endpoint
singularities converge. Node placement, error estimates, bisection
order, extrapolation and the failure conditions follow the Fortran
line by line, and every floating-point sum is taken in its order, so
results match ``scipy.integrate.quad`` on the same integrand values.
One deliberate difference: NaN areas keep the epsilon table from ever
shortening, and where QUADPACK would overflow its 52 entries the table
grows instead.

What differs is the integrand contract. The integrand is an *array*
function: it receives a 1-D float array of nodes and returns an array
of the same shape. It is called once for the 21 nodes of the first
rule, then once per bisection step for the 42 nodes of the two halves,
so a Python integrand costs one numpy evaluation per step instead of
one Python call per node. Gauss-Kronrod nodes are strictly interior, so
integrands are never evaluated at 0 or 1 and integrable endpoint
singularities are safe.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import NumericalError

ABS_TOL = 1e-10
REL_TOL = 1e-10
MAX_SUBDIVISIONS = 2 ** 15

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
# dqelg keeps at most this many entries of the epsilon table
_LIMEXP = 50

# dqk21 abscissae xgk(1..10) on (-1, 1), the centre xgk(11) = 0 left out
# (xgk(2), xgk(4), ... are the nodes of the embedded 10-point Gauss rule),
# and weights: wgk(1..11) for the 21-point Kronrod rule, wg(1..5) for Gauss
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525478525,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# a rule's 21 values come as [f(c - h*xgk), f(c + h*xgk), f(c)]; these
# are (index of the left node, of the right node, Kronrod weight[, Gauss
# weight]) in the order dqk21 accumulates them: every pair, the Gauss
# pairs first and then the Kronrod-only ones
_PAIRS = tuple((j, 10 + j, _WGK[j]) for j in range(10))
_GAUSS_STEPS = tuple(_PAIRS[2 * j + 1] + (_WG[j],) for j in range(5))
_KRONROD_STEPS = _PAIRS[0::2]

_MESSAGES = {
    1: "the maximum number of subdivisions has been reached",
    2: "roundoff error prevents the requested tolerance from being reached",
    3: "the integrand behaves badly at a point of the integration range",
    4: "the extrapolation table does not converge to the requested tolerance",
    5: "the integral is probably divergent or slowly convergent",
}


def _fmax(x: float, y: float) -> float:
    """max as C's fmax: a NaN argument loses to the other one."""
    return y if x < y or x != x else x


def _quotient(x: float, y: float) -> float:
    """x / y with IEEE semantics at y = 0: inf or nan, no exception."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.divide(x, y))


def _rules(f, bounds) -> list:
    """dqk21 on each ``(a, b)`` of ``bounds``, with one integrand call.

    Returns ``(result, abserr, resabs, resasc)`` per interval: the
    Kronrod estimate, its error estimate, the integral of ``|f|`` and of
    ``|f - mean|``.
    """
    nodes = []
    halves = []
    for a, b in bounds:
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        halves.append(hlgth)
        absc = [hlgth * x for x in _XGK]
        nodes += [centr - d for d in absc]
        nodes += [centr + d for d in absc]
        nodes.append(centr)
    x = np.array(nodes)
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape)
    values = fx.tolist()
    return [_kronrod(values[21 * i:21 * i + 21], h) for i, h in enumerate(halves)]


def _kronrod(v, hlgth):
    """The sums of dqk21 over one interval's 21 values, in its order."""
    fc = v[20]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for i, k, wk, wg in _GAUSS_STEPS:
        fval1 = v[i]
        fval2 = v[k]
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wk * fsum
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    for i, k, wk in _KRONROD_STEPS:
        fval1 = v[i]
        fval2 = v[k]
        resk = resk + wk * (fval1 + fval2)
        resabs = resabs + wk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for i, k, wk in _PAIRS:
        resasc = resasc + wk * (abs(v[i] - reskh) + abs(v[k] - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, ratio**1.5), without Python's OverflowError on a huge ratio
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = _fmax(_EPMACH * 50.0 * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep ``iord`` (1-based) descending in error; pick the next
    interval to bisect. Returns ``(maxerr, errmax, nrmax)``."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # a subdivision that raised the error moves the entry up first
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only as many entries as subdivisions remain are kept in order
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmax top-down, then errmin bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on ``epstab[1..n]``.

    ``epstab`` (at least 52 entries, 1-based) and ``res3la`` (3 entries,
    1-based) are updated in place. Returns ``(n, nres, result, abserr)``.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if len(epstab) < n + 3:
        # NaN areas pass as converged every time, so the table never
        # shortens; QUADPACK's fixed 52 entries would overflow here
        epstab.extend([0.0] * (n + 3 - len(epstab)))
    if n < 3:
        return n, nres, result, _fmax(abserr, 5.0 * _EPMACH * abs(result))
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = _fmax(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = _fmax(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, nres, result, _fmax(abserr, 5.0 * _EPMACH * abs(result))
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = _fmax(e1abs, abs(e3)) * _EPMACH
        # two close elements, or irregular behaviour: cut the table here
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    # (every read lies ahead of the writes, so slices copy as the loops did)
    ib = 2 if num % 2 == 0 else 1
    ie = ib + 2 * (newelm + 1)
    epstab[ib:ie:2] = epstab[ib + 2:ie + 2:2]
    if num != n:
        indx = num - n + 1
        epstab[1:n + 1] = epstab[indx:indx + n]
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, nres, result, _fmax(abserr, 5.0 * _EPMACH * abs(result))


def _qags(f, limit):
    """dqagse: integrate the array function ``f`` over (0, 1) to ABS_TOL, REL_TOL.

    Returns ``(result, abserr, ier)`` with QUADPACK's ``ier``: 0 on
    success, otherwise the key of ``_MESSAGES``.
    """
    a, b, epsabs, epsrel = 0.0, 1.0, ABS_TOL, REL_TOL
    (result, abserr, defabs, resabs), = _rules(f, ((a, b),))
    dres = abs(result)
    errbnd = _fmax(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    # interval lists, 1-based as in the Fortran; iord orders them by error
    alist = [0.0, a]
    blist = [0.0, b]
    rlist = [0.0, result]
    elist = [0.0, abserr]
    iord = [0, 1]
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1

    # the loop stops on the summed error (the plain sum of the interval
    # estimates is the result) or at QUADPACK's label 100 (weigh the
    # extrapolated result against that sum)
    summed = True
    for last in range(2, limit + 1):
        # bisect the interval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = _rules(
            f, ((a1, b1), (a2, b2)))
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = _fmax(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if _fmax(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            break
        if ier != 0:
            summed = False
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # extrapolate only once the next interval to bisect is a smallest one
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest intervals carry the largest errors: bisect the
            # larger ones first while any remain in the ordered list
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            larger_left = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger_left = True
                    break
                nrmax += 1
            if larger_left:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, nres, reseps, abseps = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = _fmax(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                summed = False
                break
        if numrl2 == 1:
            noext = True
        if ier == 5:
            summed = False
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not summed:
        # keep the extrapolated result unless the plain sum is the better
        # one, then test for divergence
        divergence_test = True
        if abserr == _OFLOW:
            summed = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                summed = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                summed = True
            elif area == 0.0:
                divergence_test = False
        if divergence_test and not summed and not (
                ksgn == -1 and _fmax(abs(result), abs(area)) <= defabs * 0.01):
            ratio = _quotient(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if summed:
        result = 0.0
        for r in rlist[1:]:
            result = result + r
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier


def integrate_unit(f: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    """Integrate the array function ``f`` over (0, 1) to ABS_TOL and
    REL_TOL; return ``(value, error_estimate)``.

    ``f`` maps a 1-D array of nodes to an array of values of the same
    shape (a scalar result is broadcast). Raises :class:`NumericalError`
    carrying the best estimate when the value or its error bound is not
    finite, or when QUADPACK reports a failure and the error bound is
    still above tolerance.
    """
    value, err, ier = _qags(f, MAX_SUBDIVISIONS)
    # an infinite error bound never compares above tol * |inf|
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericalError(
            f"quadrature returned a non-finite result: value {value!r}, "
            f"error estimate {err!r}",
            value=value, error_estimate=err,
        )
    if ier != 0 and err > max(ABS_TOL, REL_TOL * abs(value)):
        raise NumericalError(
            f"quadrature did not converge: {_MESSAGES[ier]}",
            value=value, error_estimate=err,
        )
    return value, err
