"""Base distribution families F(x | theta).

A :class:`BaseDistribution` bundles a parameterized law with its density,
distribution function, and closed-form quantile. Three families ship with
the package (uniform on the unit interval, exponential, Weibull), covering
bounded, light-tailed half-line, and lifetime-shaped supports. New
families can be added with :func:`register_family`.

The family contract is three vectorized kernels and a support:
``_log_pdf`` (ln f), ``_log_sf`` (ln(1 - F)) and ``_quantile`` (F^-1 on
(0, 1)). Everything else derives from them: ``_pdf = exp(_log_pdf)``,
``_cdf = -expm1(_log_sf)`` and ``_log_cdf = log1mexp(_log_sf)``, so
exponent arithmetic downstream stays in log space. A family overrides a
derived kernel only where a direct form is exact or more accurate, and
``_quantile_sf`` (the inverse survival function) where its upper tail
has more resolution than ``1 - s`` can carry. The public methods
(``_Law``) are shared with the powered laws of :mod:`lehmann.extend`.

Densities and CDFs are total functions on the reals (zero / clamped
outside the support); quantiles are defined on the open interval (0, 1)
only. Parameters are validated at construction, never at evaluation, and
instances are immutable.

One fused kernel is optional: ``_log_hazard_and_kernel(x, first)``
returns ln f - w and w, with w = ln F (``first``) or ln(1 - F); the
likelihood engine forms sum(ln f - w) + n ln(lam) + lam sum(w) from
them, and the exponent MLE is -n / sum(w). The default computes w with
the separate kernel, ``_log_cdf`` or ``_log_sf``, and subtracts it from
``_log_pdf``. A family overrides it with a closed form where ln f and
w share a large term that would cancel, as the second-kind Weibull's
``z``. It is called only on samples inside the support, and its callers
silence floating-point warnings.

One fitting hook is optional too: the classmethod ``_concentrate(X,
bounds)``. At lambda = 1 the powered law is the base itself, whatever the
kind, so the restricted fit there is the family's own MLE, which often
has a closed form in some parameters. The hook returns a reduced box of
at most one side and a map from its points, one ``(R, d')`` row per
sample row of the ``(R, n)`` block X, to theta ``(R, d)`` inside the open
box; the fit searches the reduced box (none when it is empty) and scores
the mapped points. The default keeps the box and maps theta to itself.
The exponential reduces to no side (rate 1 / mean, clipped), the Weibull
to its shape (the scale is a closed form of the shape).

The log kernels (``_log_pdf``, ``_log_cdf``, ``_log_sf`` and the
optional kernel) are the kernels the likelihood engine uses. They must
also work on the unvalidated instance
:meth:`BaseDistribution._at_columns` builds, whose parameters are
``(R, 1)`` columns broadcasting against an
``(R, n)`` sample block or one ``(1, n)`` sample, return one row per
parameter row, and give each row the bits a scalar instance would.
Elementwise numpy does that, with one exception: numpy computes ``y ** k``
as a square or square root when the one exponent k is 2 or 1/2, but not
on the rows of a column of exponents. So never use ``**`` with a
parameter exponent; write the power as ``exp(k * log(y))``.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError

_LN2 = math.log(2.0)


def log1mexp(z):
    """log(1 - exp(z)) for z <= 0, stable near both ends."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _log1mexp(z)


def _log1mexp(z):
    # log1mexp for an array z, floating-point warnings silenced by the caller
    return np.where(z > -_LN2, np.log(-np.expm1(z)), np.log1p(-np.exp(z)))


def _ret(out, x):
    """Collapse a 0-d result back to a Python float."""
    return float(out) if np.ndim(x) == 0 else out


# open-interval clamp targets for arguments fed to quantile kernels
_OPEN_LO = float(np.nextafter(0.0, 1.0))
_OPEN_HI = float(np.nextafter(1.0, 0.0))


def _open_unit(v):
    """``v`` clamped into the open interval (0, 1), elementwise."""
    return np.minimum(np.maximum(v, _OPEN_LO), _OPEN_HI)


def _is_real(value) -> bool:
    # a bool is an int and float("2") parses, but neither is a number here
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value) -> bool:
    # a bool is an int, but no count, order, seed or kind is a truth value;
    # an integral float is refused too, as a float seed would be truncated
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite_positive(name: str, value) -> float:
    """``value`` as a float; DomainError unless it is a finite real > 0."""
    if not _is_real(value):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {v!r}")
    return v


@dataclass(frozen=True)
class Support:
    """A closed real interval; its members are finite reals, so an infinite
    bound is an open end."""

    lower: float
    upper: float

    def contains(self, x):
        """Elementwise membership test (scalar in, bool out); inf and nan fail."""
        x = np.asarray(x, dtype=float)
        ok = np.isfinite(x) & (x >= self.lower) & (x <= self.upper)
        return bool(ok) if ok.ndim == 0 else ok


class _Law:
    """The public evaluation layer over a law's vectorized kernels.

    A law implements ``_log_pdf``, ``_log_sf`` and ``_quantile``; the
    other kernels default to their log-space derivations below. The
    public methods handle scalar round-tripping and argument validation.
    """

    def pdf(self, x):
        """Density; zero outside the support."""
        arr = np.asarray(x, dtype=float)
        return _ret(self._pdf(arr), x)

    def log_pdf(self, x):
        """Log density; -inf where the density vanishes."""
        arr = np.asarray(x, dtype=float)
        return _ret(self._log_pdf(arr), x)

    def cdf(self, x):
        """Distribution function, clamped to [0, 1] on the whole real line."""
        arr = np.asarray(x, dtype=float)
        return _ret(self._cdf(arr), x)

    def log_cdf(self, x):
        """Log of the distribution function, computed in log space."""
        arr = np.asarray(x, dtype=float)
        return _ret(self._log_cdf(arr), x)

    def log_sf(self, x):
        """Log survival function ln(1 - CDF)."""
        arr = np.asarray(x, dtype=float)
        return _ret(self._log_sf(arr), x)

    def quantile(self, u):
        """Inverse distribution function for u strictly inside (0, 1)."""
        arr = np.asarray(u, dtype=float)
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise DomainError("quantile requires u strictly inside (0, 1)")
        return _ret(self._quantile(arr), u)

    def _pdf(self, x):
        with np.errstate(over="ignore"):
            return np.exp(self._log_pdf(x))

    def _cdf(self, x):
        return -np.expm1(self._log_sf(x))

    def _log_cdf(self, x):
        return log1mexp(self._log_sf(x))


class BaseDistribution(_Law, ABC):
    """A base law F(x | theta) with closed-form quantile.

    Subclasses are frozen dataclasses whose fields are the parameters, in
    ``param_names`` order. They implement ``support`` and the kernels
    ``_log_pdf``, ``_log_sf`` and ``_quantile``, and may override the
    fused ``_log_hazard_and_kernel`` and the fitting hook ``_concentrate``
    (see the module docstring); the log kernels also accept parameter
    columns (see :meth:`_at_columns`).
    """

    family_id: ClassVar[str]
    param_names: ClassVar[tuple[str, ...]]

    # -- parameter plumbing -------------------------------------------------

    @property
    def theta(self) -> tuple[float, ...]:
        """Parameter vector, in ``param_names`` order."""
        return tuple(getattr(self, name) for name in self.param_names)

    @classmethod
    def _at_columns(cls, theta: np.ndarray) -> "BaseDistribution":
        """Unvalidated instance whose parameters are the columns of theta.

        ``theta`` has shape ``(R, len(param_names))``; each parameter
        becomes an ``(R, 1)`` column, so the log kernels evaluate R
        parameter points against an ``(R, n)`` block, or R points against
        one ``(1, n)`` sample, in one call. The
        caller validates the parameter box once; nothing else may be
        called on the result.
        """
        obj = object.__new__(cls)
        for j, name in enumerate(cls.param_names):
            object.__setattr__(obj, name, theta[:, j:j + 1])
        return obj

    @classmethod
    def from_theta(cls, theta) -> "BaseDistribution":
        """Construct from a parameter vector (validated as usual)."""
        theta = tuple(float(t) for t in theta)
        if len(theta) != len(cls.param_names):
            raise DomainError(
                f"{cls.family_id} expects {len(cls.param_names)} "
                f"parameter(s) {cls.param_names}, got {len(theta)}"
            )
        return cls(*theta)

    def describe(self) -> str:
        """Descriptor text, e.g. ``exponential(rate=1.5)``."""
        args = ",".join(f"{n}={getattr(self, n)!r}" for n in self.param_names)
        return f"{self.family_id}({args})"

    @property
    @abstractmethod
    def support(self) -> Support: ...

    # -- the kernel contract ------------------------------------------------

    @abstractmethod
    def _log_pdf(self, x): ...

    @abstractmethod
    def _log_sf(self, x): ...

    @abstractmethod
    def _quantile(self, u): ...

    def _log_hazard_and_kernel(self, x, first):
        # (ln f - w, w) with w = ln F if first else ln(1 - F); see the module docstring
        w = self._log_cdf(x) if first else self._log_sf(x)
        return self._log_pdf(x) - w, w

    def _quantile_sf(self, s):
        # inverse survival kernel on (0, 1]; this default loses the upper
        # tail once s drops below one ulp of 1, families override where
        # the tail has more resolution than 1 - s can carry
        u = np.minimum(1.0 - np.asarray(s, dtype=float), _OPEN_HI)
        return self._quantile(u)

    @classmethod
    def _concentrate(cls, X, bounds):
        # the reduced box of the fit at lambda = 1 and the map from its
        # points to theta; see the module docstring. By default nothing reduces
        return bounds, lambda v: v


def _open_box(lo, hi):
    """The float bounds one step inside the box side (lo, hi)."""
    return np.nextafter(lo, hi), np.nextafter(hi, lo)


# -- bundled families -------------------------------------------------------

FAMILIES: dict[str, type[BaseDistribution]] = {}


def register_family(cls):
    """Register a family under its ``family_id`` for descriptor parsing.

    Usable as a class decorator; returns ``cls``.
    """
    FAMILIES[cls.family_id] = cls
    return cls


def lookup_family(name: str) -> type[BaseDistribution]:
    """The family registered under ``name``; DomainError if there is none."""
    family = FAMILIES.get(name)
    if family is None:
        raise DomainError(
            f"unknown base family {name!r} (known: {', '.join(sorted(FAMILIES))})")
    return family


@register_family
@dataclass(frozen=True)
class Uniform(BaseDistribution):
    """Uniform law on the closed unit interval. No free parameters."""

    family_id: ClassVar[str] = "uniform"
    param_names: ClassVar[tuple[str, ...]] = ()

    @property
    def support(self) -> Support:
        return Support(0.0, 1.0)

    def _log_pdf(self, x):
        return np.where((x >= 0.0) & (x <= 1.0), 0.0, -np.inf)

    # F(x) = x is exact; the derived forms would round it
    def _cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def _log_cdf(self, x):
        with np.errstate(divide="ignore"):
            return np.log(np.clip(x, 0.0, 1.0))

    def _log_sf(self, x):
        with np.errstate(divide="ignore"):
            return np.log1p(-np.clip(x, 0.0, 1.0))

    def _quantile(self, u):
        return u + 0.0

    def _quantile_sf(self, s):
        return 1.0 - np.asarray(s, dtype=float)


@register_family
@dataclass(frozen=True)
class Exponential(BaseDistribution):
    """Exponential law with rate parameter (support [0, inf))."""

    rate: float = 1.0

    family_id: ClassVar[str] = "exponential"
    param_names: ClassVar[tuple[str, ...]] = ("rate",)

    def __post_init__(self):
        rate = _finite_positive(f"{self.family_id}: rate", self.rate)
        object.__setattr__(self, "rate", rate)

    @property
    def support(self) -> Support:
        return Support(0.0, math.inf)

    def _log_sf(self, x):
        # x < 0 maps to the lower endpoint; near the float maximum rate * x
        # overflows to its limit, -inf, once rate > 1
        with np.errstate(over="ignore"):
            return -self.rate * np.maximum(x, 0.0)

    # the direct product is more accurate than exp(_log_pdf)
    def _pdf(self, x):
        return np.where(x >= 0.0, self.rate * np.exp(self._log_sf(x)), 0.0)

    def _log_pdf(self, x):
        return np.where(x >= 0.0, np.log(self.rate) + self._log_sf(x), -np.inf)

    # the hazard is the rate: ln f - ln(1 - F) = ln(rate) on the support
    def _log_hazard_and_kernel(self, x, first):
        log_rate, t = np.log(self.rate), self.rate * x
        if first:
            w = _log1mexp(-t)
            return log_rate - t - w, w
        return np.broadcast_to(log_rate, t.shape), -t

    def _quantile(self, u):
        return -np.log1p(-u) / self.rate

    def _quantile_sf(self, s):
        return -np.log(s) / self.rate

    # ln L(rate) = n ln(rate) - rate sum x is concave, so the box maximum is
    # 1 / mean clipped into the open box: nothing is left to search
    @classmethod
    def _concentrate(cls, X, bounds):
        (side,) = bounds
        with np.errstate(divide="ignore", over="ignore"):
            rate = np.clip(1.0 / X.mean(axis=1, keepdims=True), *_open_box(*side))
        return (), lambda v: rate


@register_family
@dataclass(frozen=True)
class Weibull(BaseDistribution):
    """Weibull law with shape and scale parameters (support [0, inf))."""

    shape: float = 1.0
    scale: float = 1.0

    family_id: ClassVar[str] = "weibull"
    param_names: ClassVar[tuple[str, ...]] = ("shape", "scale")

    def __post_init__(self):
        shape = _finite_positive(f"{self.family_id}: shape", self.shape)
        scale = _finite_positive(f"{self.family_id}: scale", self.scale)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "scale", scale)

    @property
    def support(self) -> Support:
        return Support(0.0, math.inf)

    def _log_terms(self, x):
        # ly = ln(x/scale), -inf at x <= 0, and z = (x/scale)**shape as
        # exp(shape * ly); floating-point warnings silenced by the caller
        ly = np.log(np.maximum(x, 0.0)) - np.log(self.scale)
        return ly, np.exp(self.shape * ly)

    def _log_pdf_at(self, x, ly, z):
        # ln f given _log_terms(x); floating-point warnings silenced by the caller
        k, s = self.shape, self.scale
        body = np.log(k) - np.log(s) + (k - 1.0) * ly - z
        # shape 1 takes the exponential form: the general body is
        # 0 * ln(0) = nan at x = 0
        ones = np.equal(k, 1.0)
        if ones.any():
            body = np.where(ones, -np.log(s) - x / s, body)
        return np.where((x >= 0.0) & (x < np.inf), body, -np.inf)  # body is nan at inf

    def _log_pdf(self, x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self._log_pdf_at(x, *self._log_terms(x))

    def _log_sf(self, x):
        with np.errstate(divide="ignore", over="ignore"):
            return -self._log_terms(x)[1]

    # ln f - ln(1 - F) = ln(k) - ln(s) + (k - 1) ln(x/s): z cancels, so a
    # large shape loses no digits to ln f + z
    def _log_hazard_and_kernel(self, x, first):
        ly, z = self._log_terms(x)
        if first:
            w = _log1mexp(-z)
            return self._log_pdf_at(x, ly, z) - w, w
        k, s = self.shape, self.scale
        body = np.log(k) - np.log(s) + (k - 1.0) * ly
        ones = np.equal(k, 1.0)  # 0 * ln(0) = nan at x = 0, as in _log_pdf_at
        if ones.any():
            body = np.where(ones, -np.log(s), body)
        return body, -z

    # at a fixed shape k, ln L is concave in t = scale**-k with its maximum
    # at scale**k = mean x**k, so that scale clipped into the box is the box
    # maximum at k; what is left is a line search over ln k (over k where
    # the side reaches 0). It runs a little past both ends, where k is
    # clipped to the end itself: a line search closes short of an edge, but
    # reaches a flat stretch beyond it
    @classmethod
    def _concentrate(cls, X, bounds):
        (k_lo, k_hi), (scale_lo, scale_hi) = (_open_box(*side) for side in bounds)
        log = bounds[0][0] > 0.0
        lo, hi = (math.log(k_lo), math.log(k_hi)) if log else (k_lo, k_hi)
        pad = 1e-3 * (hi - lo)
        with np.errstate(divide="ignore"):
            log_x = np.log(X)

        def to_theta(v):
            k = np.clip(np.exp(v) if log else v, k_lo, k_hi)
            # ln mean x**k, shifted by the row's largest k ln x against overflow
            kx = k * log_x
            top = kx.max(axis=1, keepdims=True)
            log_mean = top + np.log(np.exp(kx - top).mean(axis=1, keepdims=True))
            return np.hstack([k, np.clip(np.exp(log_mean / k), scale_lo, scale_hi)])

        return ((lo - pad, hi + pad),), to_theta

    # quantiles never see parameter columns, so ``**`` is safe below
    def _quantile(self, u):
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)

    def _quantile_sf(self, s):
        return self.scale * (-np.log(s)) ** (1.0 / self.shape)
