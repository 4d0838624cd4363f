"""Adaptive quadrature kernel over the open unit interval.

Wraps QUADPACK's adaptive Gauss-Kronrod rule (21-point, interval
bisection) with the tolerances used throughout the package. Gauss-Kronrod
nodes are strictly interior, so integrands are never evaluated at 0 or 1
and integrable endpoint singularities are safe.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy import integrate

from .errors import NumericalError

ABS_TOL = 1e-10
REL_TOL = 1e-10
MAX_SUBDIVISIONS = 2 ** 15


def integrate_unit(
    f: Callable[[float], float],
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
) -> tuple[float, float]:
    """Integrate ``f`` over (0, 1); return ``(value, error_estimate)``.

    Raises :class:`NumericalError` carrying the best estimate when the
    value or its error bound is not finite, or when the error bound is
    still above tolerance after maximal refinement.
    """
    out = integrate.quad(
        f, 0.0, 1.0,
        epsabs=abs_tol, epsrel=rel_tol,
        limit=MAX_SUBDIVISIONS, full_output=1,
    )
    value, err = out[0], out[1]
    # an infinite error bound never compares above tol * |inf|
    if not (math.isfinite(value) and math.isfinite(err)):
        raise NumericalError(
            f"quadrature returned a non-finite result: value {value!r}, "
            f"error estimate {err!r}",
            value=value, error_estimate=err,
        )
    # quad appends an explanation message when it could not converge
    if len(out) >= 4 and err > max(abs_tol, rel_tol * abs(value)):
        raise NumericalError(
            f"quadrature did not converge: {out[3]}".strip(),
            value=value, error_estimate=err,
        )
    return value, err
