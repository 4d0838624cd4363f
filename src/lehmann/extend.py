"""Exponentiated (power-transformed) distributions and sampling.

Raising a base CDF to a positive power, ``G(x) = F(x)**lam``, or raising
its survival function, ``G(x) = 1 - (1 - F(x))**lam``, generates a family
of alternatives indexed by the exponent. This module builds those laws
from any :class:`~lehmann.base_dist.BaseDistribution`, evaluates them,
samples them by inverse transform, composes exponents, and computes
moments by quadrature of the quantile function.

Conventions:

- ``Kind.FIRST`` powers the CDF, ``Kind.SECOND`` powers the survival
  function. For integer ``lam = m`` these are the laws of the maximum
  and minimum of an m-fold base sample.
- All exponent arithmetic happens in log space; direct powering of F
  would underflow for large ``lam``.
- At a support boundary where F(x) = 0 (first kind) or F(x) = 1 (second
  kind) and ``lam < 1``, the density diverges; ``pdf`` returns positive
  infinity there. Such x are boundary points, not interior mass.
- Sampling and the quadrature node map share one inverse, which hands
  the smaller of the base fraction and its complement to the base inverse
  it belongs to, CDF or survival, so both tails keep full precision.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from ._quadrature import integrate_unit
from .base_dist import (
    BaseDistribution,
    Support,
    _finite_positive,
    _integer,
    _Law,
    _open_unit,
    log1mexp,
)
from .errors import DomainError, ParseError
from .rng import GENERATOR_ID, open_uniform, substream

logger = logging.getLogger("lehmann.extend")

_LN_HALF = math.log(0.5)

# exponents above this are accepted but almost certainly a typo
_LAMBDA_SANITY_CAP = 1e8


class Kind(enum.Enum):
    """Which function gets powered: the CDF or the survival function."""

    FIRST = 1
    SECOND = 2

    @property
    def tag(self) -> str:
        """Descriptor prefix, ``lehmann1`` or ``lehmann2``."""
        return f"lehmann{self.value}"


def _coerce_kind(kind) -> Kind:
    if isinstance(kind, Kind):
        return kind
    # a bool is an int and 1.0 == 1, but neither names a kind
    if _integer(kind) and kind in (1, 2):
        return Kind(kind)
    raise DomainError(f"kind must be Kind.FIRST, Kind.SECOND, 1 or 2, got {kind!r}")


def _kernel_log(kind: Kind, base, x):
    """ln F (first kind) or ln(1 - F) (second kind): the powered side."""
    return base._log_cdf(x) if kind is Kind.FIRST else base._log_sf(x)


@dataclass(frozen=True)
class ExtendedDistribution(_Law):
    """The law G(x) = F(x)**lam (first kind) or 1-(1-F(x))**lam (second).

    ``lam`` must be strictly positive. ``lam == 1`` reproduces the base
    exactly: ``__post_init__`` decides it once, binding the base's own
    kernels to the instance, so no kernel below tests for it. The support
    equals the base support for every ``lam``. Instances are immutable
    and safe to share across threads.
    """

    base: BaseDistribution
    lam: float
    kind: Kind = Kind.FIRST

    def __post_init__(self):
        object.__setattr__(self, "lam", _finite_positive("lambda", self.lam))
        object.__setattr__(self, "kind", _coerce_kind(self.kind))
        if self.lam > _LAMBDA_SANITY_CAP:
            logger.warning(
                "lambda=%r exceeds %g; accepted, but this is likely a user error",
                self.lam,
                _LAMBDA_SANITY_CAP,
            )
        if self.lam == 1.0:
            for name in ("_log_pdf", "_log_sf", "_log_cdf", "_cdf", "_pdf", "_quantile"):
                object.__setattr__(self, name, getattr(self.base, name))

    @property
    def support(self) -> Support:
        return self.base.support

    def describe(self) -> str:
        """Descriptor text, e.g. ``lehmann1(base=uniform(),lambda=2.0)``."""
        return f"{self.kind.tag}(base={self.base.describe()},lambda={self.lam!r})"

    def compose(self, lambda_prime: float) -> "ExtendedDistribution":
        """Apply a further exponent: same base and kind, lam*lambda_prime."""
        return replace(self, lam=self.lam * _finite_positive("lambda_prime", lambda_prime))

    # -- kernels --------------------------------------------------------------
    #
    # z = lam * ln F (first kind) or lam * ln(1 - F) (second kind) is the
    # log of the powered side; the other side is log1mexp(z).

    def _z(self, x):
        with np.errstate(over="ignore"):  # lam * ln(1 - F) can pass -1.8e308
            return self.lam * _kernel_log(self.kind, self.base, x)

    def _log_pdf(self, x):
        # w = -inf with lam < 1 gives +inf: the boundary divergence; outside
        # the support lp = -inf must win over it. Huge x overflows to -inf.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lp = self.base._log_pdf(x)
            w = _kernel_log(self.kind, self.base, x)
            out = math.log(self.lam) + lp + (self.lam - 1.0) * w
        return np.where(np.isneginf(lp), -np.inf, out)

    def _log_sf(self, x):
        z = self._z(x)
        return z if self.kind is Kind.SECOND else log1mexp(z)

    def _log_cdf(self, x):
        z = self._z(x)
        return z if self.kind is Kind.FIRST else log1mexp(z)

    def _cdf(self, x):
        z = self._z(x)
        return np.exp(z) if self.kind is Kind.FIRST else -np.expm1(z)

    def _quantile(self, u):
        first = self.kind is Kind.FIRST
        return self._base_inverse((np.log(u) if first else np.log1p(-u)) / self.lam)

    def _base_inverse(self, log_w):
        """x with ln F(x) = log_w (first kind) or ln(1 - F(x)) = log_w (second).

        Of w = exp(log_w) and 1 - w, the one below 1/2 goes to its own base
        inverse, CDF or survival: forming 1 - w would lose the other tail.
        Both inverses see every point, clamped into (0, 1) so neither overflows.
        """
        first = self.kind is Kind.FIRST
        q_small = self.base._quantile if first else self.base._quantile_sf
        q_large = self.base._quantile_sf if first else self.base._quantile
        return np.where(log_w < _LN_HALF, q_small(_open_unit(np.exp(log_w))),
                        q_large(_open_unit(-np.expm1(log_w))))

    # defined on this class too, not only inherited: perfbench/tracer.py
    # wraps methods in the __dict__ of the class that defines them
    quantile = _Law.quantile

    def moment(self, k: int) -> float:
        """k-th raw moment, E[X**k], by quadrature on the unit interval.

        Substituting t = F(x)**lam (first kind) or t = (1-F(x))**lam
        (second kind) turns the moment integral into
        ``integral of Q(t**(1/lam))**k dt`` over (0, 1), with no
        endpoint weight to go singular for lam < 1; Q inverts through the
        other side where t**(1/lam) >= 1/2, as sampling does. Raises
        :class:`~lehmann.errors.NumericalError` (carrying the best
        estimate) if the quadrature does not converge, which is also how
        a divergent moment surfaces.
        """
        if not _integer(k) or k < 1:
            raise DomainError(f"moment order k must be a positive integer, got {k!r}")
        order = int(k)
        x_at = _node_map(self)
        # a power past the float range is inf, which the quadrature reports
        with np.errstate(over="ignore"):
            value, _err = integrate_unit(lambda t: x_at(t) ** order)
        return value


def _node_map(dist: ExtendedDistribution):
    """The quadrature change of variables t -> x for integrals against dist.

    Returns the array map taking nodes t in (0, 1) to the points x with
    t = F(x)**lam (first kind) or t = (1-F(x))**lam (second kind), through
    the law's own inverse, so x stays sharp near both support ends.
    """
    inv = 1.0 / dist.lam

    def x_at(t: np.ndarray) -> np.ndarray:
        # extreme refinement can round a node onto an endpoint
        return dist._base_inverse(np.log(_open_unit(t)) * inv)

    return x_at


def extend(base: BaseDistribution, lam: float, kind=Kind.FIRST) -> ExtendedDistribution:
    """Construct the exponentiated law G from a base distribution."""
    return ExtendedDistribution(base, lam, kind)


# -- sampling ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Sample:
    """Observations plus the provenance needed to regenerate them."""

    values: np.ndarray
    seed: int
    source: str
    generator: str = GENERATOR_ID

    def __len__(self) -> int:
        return len(self.values)


def sample(dist, n: int, seed: int) -> Sample:
    """Draw n values from ``dist`` by inverse transform.

    ``dist`` is any object with ``quantile`` and ``describe`` (base or
    extended). The uniform stream is derived deterministically from the
    seed, so identical (dist, n, seed) always reproduces the identical
    sample. Uniforms are drawn on the open interval (0, 1).
    """
    if not _integer(n) or n < 1:
        raise DomainError(f"sample size n must be a positive integer, got {n!r}")
    if not _integer(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    size, key = int(n), int(seed)
    u = open_uniform(substream(key), size)
    values = np.asarray(dist.quantile(u), dtype=float)
    return Sample(values=values, seed=key, source=dist.describe())


def sample_values(s) -> np.ndarray:
    """Accept a Sample or a bare array-like; return the values array."""
    return np.asarray(getattr(s, "values", s), dtype=float)


# -- CSV round trip ----------------------------------------------------------


def sample_to_csv(s: Sample) -> str:
    """Serialize: `#` metadata lines, a `value` header, one value per row."""
    lines = [
        f"# seed: {s.seed}",
        f"# source: {s.source}",
        f"# generator: {s.generator}",
        "value",
    ]
    lines.extend(map(repr, sample_values(s).tolist()))
    return "\n".join(lines) + "\n"


def sample_from_csv(text: str) -> Sample:
    """Parse the format written by :func:`sample_to_csv`."""
    meta: dict[str, str] = {}
    values: list[float] | np.ndarray = []
    saw_header = False
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, val = line[1:].partition(":")
            if sep:
                meta[key.strip()] = val.strip()
            continue
        if not saw_header:
            if line != "value":
                raise ParseError(
                    f"line {lineno}: sample CSV must start with a 'value' header row",
                    text=raw, expected="value",
                )
            saw_header = True
            # when every later line is a number, float() reads them in one
            # pass; a blank, '#' or bad line raises, and the loop goes on
            body = lines[lineno:]
            try:
                values = np.fromiter(map(float, body), float, len(body))
                break
            except ValueError:
                continue
        try:
            values.append(float(line))
        except ValueError:
            raise ParseError(
                f"line {lineno}: bad numeric row {line!r}", text=raw,
                expected="a real number",
            ) from None
    if not saw_header:
        raise ParseError("sample CSV has no 'value' header row", expected="value")
    try:
        seed = int(meta.get("seed", "0"))
    except ValueError:
        raise ParseError(f"bad seed metadata {meta.get('seed')!r}") from None
    return Sample(
        values=np.asarray(values, dtype=float),
        seed=seed,
        source=meta.get("source", ""),
        generator=meta.get("generator", GENERATOR_ID),
    )
