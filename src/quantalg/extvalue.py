"""Exact nonnegative rationals extended with infinity.

All distances and equation indices in the engine are values of this type, a
reduced pair of ints (n, d): n/d with d > 0, or infinity as (1, 0).
Arithmetic is exact on the ints (only the constructor and `rational` meet
`Fraction`); infinity is absorbing for addition and positive scaling, and
0 * inf is a hard error instead of a convention.  Kernels that run on ints
over a common scale hold infinity as `INT_INF`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from typing import Optional, Tuple, Union

Rationalish = Union[int, str, Fraction]


class UndefinedProduct(ArithmeticError):
    """Raised on 0 * inf, which the engine never needs to evaluate."""


class ExtValue:
    """A nonnegative exact rational, or infinity (the top element).
    `ExtValue(n, d)` is n/d for ints n >= 0 and d > 0."""

    __slots__ = ("_n", "_d")

    def __init__(self, value: Union[Rationalish, "ExtValue", None],
                 denominator: Optional[int] = None):
        if denominator is not None:
            if value < 0 or denominator <= 0:
                raise ValueError(f"ExtValue needs n >= 0 and d > 0, got {value}/{denominator}")
            g = gcd(value, denominator)
            self._n, self._d = value // g, denominator // g
        elif isinstance(value, ExtValue):
            self._n, self._d = value._n, value._d
        elif value is None or (isinstance(value, str) and value.strip() == "inf"):
            self._n, self._d = 1, 0
        else:
            q = value if type(value) in (int, Fraction) else Fraction(value)
            if q < 0:
                raise ValueError(f"ExtValue must be nonnegative, got {q}")
            self._n, self._d = q.numerator, q.denominator

    @property
    def is_inf(self) -> bool:
        return not self._d

    @property
    def ratio(self) -> Tuple[int, int]:
        """The reduced pair (n, d) of ints; (1, 0) for infinity."""
        return self._n, self._d

    @property
    def rational(self) -> Fraction:
        if not self._d:
            raise ValueError("infinite ExtValue has no rational part")
        return Fraction(self._n, self._d)

    def __add__(self, other: "ExtValue") -> "ExtValue":
        if type(other) is not ExtValue:
            other = _coerce(other)
        na, da, nb, db = self._n, self._d, other._n, other._d
        if not (da and db):
            return INF
        g = gcd(da, db)  # Fraction's sum: reduce by what the denominators share
        if g == 1:
            return _make(na * db + da * nb, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g = gcd(t, g)
        return _make(t // g, s * (db // g))

    def scaled(self, c: Rationalish) -> "ExtValue":
        """Scale by an exact rational c >= 0.  0 * inf is rejected."""
        nc, dc = (c if type(c) in (int, Fraction) else Fraction(c)).as_integer_ratio()
        if nc < 0:
            raise ValueError("scale factor must be nonnegative")
        if not self._d:
            if not nc:
                raise UndefinedProduct("0 * inf is undefined")
            return INF
        g1, g2 = gcd(self._n, dc), gcd(nc, self._d)
        return _make((self._n // g1) * (nc // g2), (self._d // g2) * (dc // g1))

    def truncated(self, cap: "ExtValue") -> "ExtValue":
        return self if self <= cap else cap

    def __eq__(self, other) -> bool:
        if type(other) is not ExtValue:
            if not isinstance(other, (ExtValue, int, Fraction)):
                return NotImplemented
            other = _coerce(other)
        return self._n == other._n and self._d == other._d

    def __lt__(self, other) -> bool:
        b = other if type(other) is ExtValue else _coerce(other)
        return self._d != 0 and (not b._d or self._n * b._d < b._n * self._d)

    def __le__(self, other) -> bool:
        b = other if type(other) is ExtValue else _coerce(other)
        return not b._d or (self._d != 0 and self._n * b._d <= b._n * self._d)

    def __gt__(self, other) -> bool:
        b = other if type(other) is ExtValue else _coerce(other)
        return b._d != 0 and (not self._d or b._n * self._d < self._n * b._d)

    def __ge__(self, other) -> bool:
        b = other if type(other) is ExtValue else _coerce(other)
        return not self._d or (b._d != 0 and b._n * self._d <= self._n * b._d)

    def __hash__(self) -> int:  # Fraction's, so equal ints and Fractions hash alike
        try:
            return hash(hash(self._n) * pow(self._d, -1, sys.hash_info.modulus))
        except ValueError:  # no inverse: infinity, or d a multiple of the modulus
            return sys.hash_info.inf

    def __repr__(self) -> str:
        return f"ExtValue({str(self)!r})"

    def __str__(self) -> str:
        return "inf" if not self._d else f"{self._n}/{self._d}" if self._d > 1 else str(self._n)


def _make(n: int, d: int) -> ExtValue:
    """n/d for coprime ints n >= 0 and d > 0, unchecked."""
    v = object.__new__(ExtValue)
    v._n, v._d = n, d
    return v


def _coerce(x) -> ExtValue:
    return x if isinstance(x, ExtValue) else ExtValue(x)


INF = ExtValue(None)
ZERO = ExtValue(0)
ONE = ExtValue(1)


class _IntInf:
    """Infinity among ints: above every int, absorbing for + and for * by
    an int > 0.  It compares equal only to itself (object identity), so a
    list of ints tests membership of it at C speed."""

    __slots__ = ()

    def __gt__(self, other) -> bool:
        return other is not self

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return other is self

    def __add__(self, other) -> "_IntInf":
        return self

    __radd__ = __mul__ = __rmul__ = __add__

    def __repr__(self) -> str:
        return "INT_INF"


INT_INF = _IntInf()


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
