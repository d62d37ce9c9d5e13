"""Exact nonnegative rationals extended with infinity.

All distances and equation indices in the engine are values of this type.
Arithmetic never rounds; infinity is absorbing for addition and positive
scaling, and 0 * inf is a hard error instead of a convention.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rationalish = Union[int, str, Fraction]


class UndefinedProduct(ArithmeticError):
    """Raised on 0 * inf, which the engine never needs to evaluate."""


class ExtValue:
    """A nonnegative exact rational, or infinity (the top element)."""

    __slots__ = ("_q",)

    def __init__(self, value: Union[Rationalish, "ExtValue", None]):
        if isinstance(value, ExtValue):
            self._q = value._q
            return
        if value is None:
            self._q = None  # infinity
            return
        if isinstance(value, str) and value.strip() == "inf":
            self._q = None
            return
        q = value if type(value) is Fraction else Fraction(value)
        if q.numerator < 0:
            raise ValueError(f"ExtValue must be nonnegative, got {q}")
        self._q = q

    @property
    def is_inf(self) -> bool:
        return self._q is None

    @property
    def rational(self) -> Fraction:
        if self._q is None:
            raise ValueError("infinite ExtValue has no rational part")
        return self._q

    def __add__(self, other: "ExtValue") -> "ExtValue":
        other = _coerce(other)
        if self._q is None or other._q is None:
            return INF
        return ExtValue(self._q + other._q)

    def scaled(self, c: Rationalish) -> "ExtValue":
        """Scale by an exact rational c >= 0.  0 * inf is rejected."""
        c = c if type(c) is Fraction else Fraction(c)
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        if self._q is None:
            if c == 0:
                raise UndefinedProduct("0 * inf is undefined")
            return INF
        return ExtValue(self._q * c)

    def truncated(self, cap: "ExtValue") -> "ExtValue":
        return self if self <= cap else cap

    def __eq__(self, other) -> bool:
        if type(other) is not ExtValue:
            if not isinstance(other, (ExtValue, int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        return self._q == other._q

    def __lt__(self, other) -> bool:
        b = (other if type(other) is ExtValue else _coerce(other))._q
        return self._q is not None and (b is None or self._q < b)

    def __le__(self, other) -> bool:
        b = (other if type(other) is ExtValue else _coerce(other))._q
        return b is None or (self._q is not None and self._q <= b)

    def __gt__(self, other) -> bool:
        return not self <= other

    def __ge__(self, other) -> bool:
        return not self < other

    def __hash__(self) -> int:
        return hash(self._q)

    def __repr__(self) -> str:
        return f"ExtValue({str(self)!r})"

    def __str__(self) -> str:
        return "inf" if self._q is None else str(self._q)


def _coerce(x) -> ExtValue:
    return x if isinstance(x, ExtValue) else ExtValue(x)


INF = ExtValue(None)
ZERO = ExtValue(0)
ONE = ExtValue(1)


def ext(value: Union[Rationalish, ExtValue, None]) -> ExtValue:
    """Shorthand constructor accepting ints, 'p/q' strings, 'inf', Fractions."""
    return ExtValue(value)


def ext_max(*values: ExtValue) -> ExtValue:
    """The first largest of the values (ZERO if there are none)."""
    out = values[0] if values else ZERO
    for v in values:
        if v > out:
            out = v
    return out


def ext_sum(values) -> ExtValue:
    out = ZERO
    for v in values:
        out = out + v
    return out
