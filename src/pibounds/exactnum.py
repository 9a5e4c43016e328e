"""Exact numeric substrate: rationals, decimal fixed point, interval
arithmetic with directed rounding, and the text of every printed number.

Everything here runs on unbounded Python integers.  An ``Interval`` stores its
endpoints as integer mantissas at a decimal scale of ``10**-precision``; every
operation rounds the lower endpoint toward -inf and the upper endpoint toward
+inf, so the exact mathematical result applied to any points of the inputs is
always contained in the output.  That containment guarantee is what turns the
polygon recurrence upstairs into *certified* bounds rather than estimates.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

Rational = Fraction

# Reference digits of pi (12 decimals), exact as a rational.  For tests and
# reports only: bound computations never read this value.
PI_REFERENCE = Rational(3141592653589, 10**12)


class PiBoundsError(Exception):
    """Root of the reported errors; faults such as NegativeRadicand stay out."""


class UsageError(PiBoundsError, ValueError):
    """Invalid input from the caller: the one class of argument error.

    Only it maps to the CLI's exit 2; any other ValueError is a fault.
    """


class DivisionByZeroInterval(ZeroDivisionError):
    """Raised when an interval divisor encloses zero."""


class NegativeRadicand(ValueError):
    """Raised when taking the square root of an interval with lo < 0."""


class Side(Enum):
    """Certified position of a rational relative to an interval.

    BELOW and ABOVE are certified strict comparisons against the enclosed
    value; WITHIN means the comparison is *not* decided at this precision.
    """

    BELOW = "below"
    WITHIN = "within"
    ABOVE = "above"


def ceil_div(a: int, b: int) -> int:
    """Ceiling division on integers (Python's // already floors)."""
    return -((-a) // b)


def isqrt_ceil(n: int) -> int:
    """Smallest integer r with r*r >= n, for n >= 0.

    For n >= 1 it is isqrt(n - 1) + 1, as s = isqrt(n - 1) is the largest
    s with s*s < n; so no full-size square is taken to test for an exact root.
    """
    return math.isqrt(n - 1) + 1 if n else 0


def int_str(m: int) -> str:
    """Digits of every printed numerator, denominator, mantissa, coefficient.
    Past ``sys.get_int_max_str_digits()`` (4300 by default) ``str`` refuses
    an int, so ``Decimal``, whose conversion has no limit, writes it."""
    try:
        return str(m)
    except ValueError:
        return str(Decimal(m))


class _Ratio(NamedTuple):
    """n/d as two ints, not reduced.  `side_of` and `decimal_str` read only
    ``numerator`` and ``denominator``, so a pair they compare or round needs
    no gcd, which building a Fraction takes."""

    numerator: int
    denominator: int


def fraction_str(q: Rational) -> str:
    """``numerator/denominator``; an int or a Convergent is written the same."""
    return f"{int_str(q.numerator)}/{int_str(q.denominator)}"


def _mantissa_str(m: int, digits: int) -> str:
    sign = "-" if m < 0 else ""
    text = int_str(abs(m)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def decimal_str(q: Rational, digits: int) -> str:
    """``q`` as a plain decimal to ``digits`` places, nearest, ties to even.

    One integer divmod; like `side_of` it reads only ``q.numerator`` and
    ``q.denominator``.  Outward: ``make_interval(q, digits).decimal_bounds()``.
    """
    if digits < 0:
        raise UsageError("digits must be >= 0")
    d = q.denominator
    m, r = divmod(q.numerator * 10**digits, d)
    if 2 * r > d or (2 * r == d and m % 2):
        m += 1
    return _mantissa_str(m, digits)


class Interval(namedtuple("Interval", "lo hi precision")):
    """Closed interval [lo, hi] * 10**-precision with integer mantissas.

    An immutable named tuple whose ``__new__`` checks the fields; `_make`,
    which ``_replace`` calls, goes through it, so no path skips the checks.
    """

    __slots__ = ()
    lo: int
    hi: int
    precision: int

    def __new__(cls, lo: int, hi: int, precision: int) -> Interval:
        if precision < 1:
            raise ValueError("precision must be >= 1")
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        return tuple.__new__(cls, (lo, hi, precision))

    @classmethod
    def _make(cls, fields: Iterable[int]) -> Interval:
        return cls(*fields)

    @property
    def lo_rational(self) -> Rational:
        return Rational(self.lo, 10**self.precision)

    @property
    def hi_rational(self) -> Rational:
        return Rational(self.hi, 10**self.precision)

    @property
    def width(self) -> Rational:
        return Rational(self.hi - self.lo, 10**self.precision)

    def midpoint(self) -> Rational:
        return Rational(self.lo + self.hi, 2 * 10**self.precision)

    def contains(self, q: Rational | int) -> bool:
        return side_of(q, self) is Side.WITHIN

    def overlaps(self, other: Interval) -> bool:
        a, b, _ = _aligned(self, other)
        return a.lo <= b.hi and b.lo <= a.hi

    def with_precision(self, precision: int) -> Interval:
        """Re-scale to another decimal precision.

        Scaling up is exact; scaling down rounds outward, so the result always
        contains the original interval.
        """
        if precision >= self.precision:
            f = 10 ** (precision - self.precision)
            return Interval(self.lo * f, self.hi * f, precision)
        f = 10 ** (self.precision - precision)
        return Interval(self.lo // f, ceil_div(self.hi, f), precision)

    def decimal_bounds(self, digits: int | None = None) -> tuple[str, str]:
        """Endpoint decimal strings, outward-rounded to ``digits`` places."""
        iv = self if digits in (None, self.precision) else self.with_precision(digits)
        return _mantissa_str(iv.lo, iv.precision), _mantissa_str(iv.hi, iv.precision)

    def __str__(self) -> str:
        return "[{}, {}]".format(*self.decimal_bounds())


def make_interval(q: Rational | int, precision: int) -> Interval:
    """Tightest interval at the given scale containing the exact rational q."""
    if precision < 1:
        raise UsageError("precision must be >= 1")
    q = Rational(q)
    # one divmod: the remainder is nonzero exactly when the floor is inexact
    m, r = divmod(q.numerator * 10**precision, q.denominator)
    return Interval(m, m + (r != 0), precision)


def _aligned(a: Interval, b: Interval) -> tuple[Interval, Interval, int]:
    p = max(a.precision, b.precision)
    return a.with_precision(p), b.with_precision(p), p


def interval_add(a: Interval, b: Interval) -> Interval:
    a, b, p = _aligned(a, b)
    return Interval(a.lo + b.lo, a.hi + b.hi, p)


def interval_sub(a: Interval, b: Interval) -> Interval:
    a, b, p = _aligned(a, b)
    return Interval(a.lo - b.hi, a.hi - b.lo, p)


def interval_mul(a: Interval, b: Interval) -> Interval:
    a, b, p = _aligned(a, b)
    # mantissa products live at scale 2p; one directed division brings them back
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    s = 10**p
    return Interval(min(products) // s, ceil_div(max(products), s), p)


def interval_div(a: Interval, b: Interval) -> Interval:
    a, b, p = _aligned(a, b)
    if b.lo <= 0 <= b.hi:
        raise DivisionByZeroInterval(f"divisor {b} encloses zero")
    s = 10**p
    # one divmod per corner; it floors for either sign of divisor, and the
    # ceiling is one more when the remainder is nonzero
    corners = [divmod(x * s, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(q for q, _ in corners),
                    max(q + (r != 0) for q, r in corners), p)


_OPS = {
    "add": interval_add,
    "sub": interval_sub,
    "mul": interval_mul,
    "div": interval_div,
}


def interval_arith(op: str, a: Interval, b: Interval) -> Interval:
    """Dispatch one of the four directed-rounded operations by name."""
    try:
        fn = _OPS[op]
    except KeyError:
        raise UsageError(f"unknown interval operation {op!r}") from None
    return fn(a, b)


def interval_sqrt(a: Interval) -> Interval:
    """Certified square root.

    sqrt(m * 10**-p) = sqrt(m * 10**p) * 10**-p, so both endpoints reduce to
    integer square roots with a floor (lower) / ceiling (upper) correction.
    """
    if a.lo < 0:
        raise NegativeRadicand(f"interval {a} has negative lower endpoint")
    s = 10**a.precision
    return Interval(math.isqrt(a.lo * s), isqrt_ceil(a.hi * s), a.precision)


def side_of(q: Rational | int, iv: Interval) -> Side:
    """Certified comparison of an exact rational against an enclosure.

    BELOW means q < every point of iv (hence q is strictly less than whatever
    value iv encloses); ABOVE the mirror image; WITHIN means undecided, and
    covers q equal to an endpoint.

    The test is integer cross-multiplication: with q = n/d (d > 0) and the
    endpoints m * 10**-p, q < lo exactly when n * 10**p < lo * d.  Only
    ``q.numerator`` and ``q.denominator`` are read, so an int, a Fraction, a
    contfrac.Convergent or a `_Ratio` is compared without building a
    Fraction or taking a gcd.
    """
    scaled = q.numerator * 10**iv.precision
    d = q.denominator
    if scaled < iv.lo * d:
        return Side.BELOW
    if scaled > iv.hi * d:
        return Side.ABOVE
    return Side.WITHIN
