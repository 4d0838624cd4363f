"""Text descriptors for distributions.

Grammar (whitespace allowed between tokens):

    descriptor := name "(" [arg ("," arg)*] ")"
    arg        := name "=" (number | descriptor)

Base families use their registered id and parameter names, e.g.
``exponential(rate=1.5)``, ``weibull(shape=2,scale=1)``, ``uniform()``.
The powered laws nest a base descriptor:
``lehmann1(base=exponential(rate=1.0),lambda=2.0)`` and ``lehmann2(...)``.

``describe()`` output round-trips through :func:`parse_distribution`.
Errors carry the character position and the tokens that were expected.
"""

from __future__ import annotations

import re
from functools import partial

from .base_dist import FAMILIES, BaseDistribution, lookup_family
from .errors import DomainError, ParseError
from .extend import ExtendedDistribution, Kind

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")

_KIND_BY_TAG = {kind.tag: kind for kind in Kind}


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def fail(self, expected: str) -> ParseError:
        found = self.text[self.pos : self.pos + 12] or "end of input"
        return ParseError(
            f"found {found!r}", text=self.text, position=self.pos, expected=expected
        )

    def match(self, pattern: re.Pattern, expected: str) -> str:
        self._skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            raise self.fail(expected)
        self.pos = m.end()
        return m.group(0)

    def literal(self, char: str) -> None:
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise self.fail(f"'{char}'")
        self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos : self.pos + 1]

    def at_end(self) -> bool:
        self._skip_ws()
        return self.pos >= len(self.text)


def _parse_args(sc: _Scanner) -> dict[str, object]:
    """Parse `( name=value, ... )`; values are floats or nested descriptors."""
    sc.literal("(")
    args: dict[str, object] = {}
    if sc.peek() == ")":
        sc.literal(")")
        return args
    while True:
        name = sc.match(_NAME, "a parameter name")
        sc.literal("=")
        sc._skip_ws()
        if _NAME.match(sc.text, sc.pos) and not _NUMBER.match(sc.text, sc.pos):
            value: object = _parse_descriptor(sc)
        else:
            value = float(sc.match(_NUMBER, "a number or a nested descriptor"))
        if name in args:
            raise ParseError(
                f"duplicate parameter {name!r}", text=sc.text, position=sc.pos
            )
        args[name] = value
        if sc.peek() == ",":
            sc.literal(",")
            continue
        sc.literal(")")
        return args


def _parse_descriptor(sc: _Scanner):
    head_pos = sc.pos
    name = sc.match(_NAME, "a distribution name")
    args = _parse_args(sc)

    def fail(message, expected=None):
        return ParseError(message, text=sc.text, position=head_pos, expected=expected)

    if name in _KIND_BY_TAG:
        if set(args) != {"base", "lambda"}:
            raise fail(f"{name} takes exactly base=<descriptor> and lambda=<real>",
                       "base=..., lambda=...")
        if not isinstance(args["base"], BaseDistribution):
            raise fail("base= must be a base-family descriptor (compose exponents "
                       "instead of nesting lehmann1/lehmann2)")
        if not isinstance(args["lambda"], float):
            raise fail("lambda= must be a number")
        make = partial(ExtendedDistribution, args["base"], args["lambda"], _KIND_BY_TAG[name])
    else:
        try:
            family = lookup_family(name)
        except DomainError as exc:
            raise fail(str(exc), f"a base family, {' or '.join(_KIND_BY_TAG)}") from exc
        bad = set(args) - set(family.param_names)
        if bad:
            raise fail(f"unknown parameter(s) {sorted(bad)} for {name}",
                       ", ".join(family.param_names) or "no parameters")
        if any(not isinstance(v, float) for v in args.values()):
            raise fail(f"parameters of {name} must be numbers")
        make = partial(family, **args)
    try:
        return make()
    except DomainError as exc:
        raise fail(str(exc)) from exc


def parse_distribution(text: str):
    """Parse a descriptor into a base or extended distribution.

    Raises :class:`~lehmann.errors.ParseError` with position and the
    expected tokens on malformed input.
    """
    sc = _Scanner(str(text))
    dist = _parse_descriptor(sc)
    if not sc.at_end():
        raise sc.fail("end of input")
    return dist


def parse_base(text: str) -> BaseDistribution:
    """Parse a descriptor that must name a base family."""
    dist = parse_distribution(text)
    if not isinstance(dist, BaseDistribution):
        raise ParseError(
            f"expected a base-family descriptor, got {text!r}",
            text=str(text), position=0,
            expected=", ".join(sorted(FAMILIES)),
        )
    return dist
