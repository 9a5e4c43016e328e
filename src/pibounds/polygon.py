"""Archimedean polygon doubling with certified enclosures.

For a circle of unit diameter the inscribed and circumscribed regular n-gons
have perimeters

    c_n = n * sin(180/n),        C_n = n * tan(180/n),

and c_n < pi < C_n.  Archimedes' Prop. 3, in Pfaff's form, doubles n with a
harmonic and then a geometric mean (Phillips, "Archimedes the Numerical
Analyst", 1981):

    C_2n = 2 c_n C_n / (c_n + C_n),        c_2n = sqrt(c_n * C_2n).

Restricted to n = 3 * 2**k, the ladder starts at the triangle, c_3 =
sqrt(27/4) and C_3 = sqrt(27), and runs on certified divisions and square
roots alone.  No numeric angle is ever stored: an angle exists only as the
label 180/n, because writing it in radians would smuggle in the very constant
we are bounding.  Nor is a cosine: c_n / C_n = cos(180/n), but no output
needs it.

Both means are homogeneous of degree 1, so a relative error passes through
them unchanged and each rung adds only its own roundings, a few units in the
last place; `ladder` needs only O(log K) guard digits.  (Carrying the sine
instead, as c_n = n * sin, would multiply the sine's error by n.)

Both means also increase in each argument.  So `halve_angle` works on the raw
mantissas and rounds each endpoint once, in its own direction, lower ends from
lower ends and upper from upper, instead of taking the four corners of generic
interval operations (Moore, Kearfott & Cloud, *Introduction to Interval
Analysis*, 2009).  The positivity check that raises `PrecisionExhausted` is
what makes these directions valid.  The lower ends take one long division and
one integer square root per rung; the upper ends, a few units away, follow
from the lower ends' remainders exactly, in linear time.

`doublings` is the one loop over the step.  `ladder` runs it from the
triangle, yielding rungs k = 0..K as they are made, and `bounds_at` is its
last rung; `series` runs it from the 4-gon (c_4 = sqrt(8), C_4 = 4) as
Viete's product.

The module also builds and evaluates the nested-radical closed forms
n * sqrt(2 - sqrt(2 + ... sqrt(3)))/2 that the doubling produces for each n.
A tower is stored flat, as the tuple of its signs from the outermost
sqrt(2 +/- ...) inwards, with () for sqrt(3) itself; so rendering, evaluating,
comparing and hashing a tower all take one loop, and parsing one regular
expression match, at any depth.
"""

from __future__ import annotations

import math
import re
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator
from decimal import Decimal
from itertools import islice
from typing import NamedTuple

from .exactnum import (
    Interval,
    PiBoundsError,
    Rational,
    UsageError,
    ceil_div,
    int_str,
    interval_add,
    interval_div,
    interval_mul,
    interval_sqrt,
    interval_sub,
    isqrt_ceil,
    make_interval,
)

DEFAULT_MAX_PRECISION = 10000

_SQRT = "√"   # square-root sign
_MINUS = "−"  # true minus sign
_DOT = "·"    # multiplication dot


class PrecisionExhausted(PiBoundsError, ArithmeticError):
    """An enclosure degenerated (a perimeter's lower end not positive) or
    came out wider than the digits asked for."""


class ResourceLimit(PiBoundsError, RuntimeError):
    """A request's rung budget exceeds the configured max_precision."""


def _doubling_index(n: int) -> int:
    if n >= 3 and n % 3 == 0:
        m = n // 3
        if m & (m - 1) == 0:
            return m.bit_length() - 1
    raise UsageError(f"side count must be 3 * 2**k, got {int_str(n)}")


class PolygonBounds(NamedTuple):
    """Enclosures of the inscribed (lower) and circumscribed (upper) perimeters."""

    n: int
    lower: Interval
    upper: Interval


def seed_state(precision: int) -> PolygonBounds:
    """Starting triangle: c_3 = sqrt(27/4) and C_3 = sqrt(27)."""
    if precision < 1:
        raise UsageError("precision must be >= 1")
    return PolygonBounds(
        n=3, lower=interval_sqrt(make_interval(Rational(27, 4), precision)),
        upper=interval_sqrt(make_interval(27, precision)))


def halve_angle(bounds: PolygonBounds) -> PolygonBounds:
    """One doubling step n -> 2n: Archimedes' Prop. 3 in Pfaff's form.

    With c = c_n and t = C_n, C_2n = 2 c t / (c + t) is
    [2 c.lo t.lo // (c.lo + t.lo), ceil(2 c.hi t.hi / (c.hi + t.hi))], then
    c_2n = sqrt(c C_2n) is [isqrt(c.lo C_2n.lo), isqrt_ceil(c.hi C_2n.hi)].
    Both means are homogeneous of degree 1, so they act on the mantissas at
    any one scale.

    Only the lower ends take a full-size division and square root.  The upper
    ends are a few units away, so they follow from the lower ends' remainders
    in linear time.  With dc = c.hi - c.lo and dt = t.hi - t.lo:

    - h, r = divmod(2 c.lo t.lo, c.lo + t.lo) gives C_2n.lo = h.  Expanding
      c.hi = c.lo + dc and t.hi = t.lo + dt, 2 c.hi t.hi = h (c.hi + t.hi) + R
      with R = r + 2 (dc t.lo + dt c.lo + dc dt) - h (dc + dt).  R >= 0, as
      the harmonic mean increases in each argument, so
      C_2n.hi = h + ceil(R / (c.hi + t.hi)), a division with a small quotient.
    - g = isqrt(c.lo h) gives c_2n.lo = g, and g >= 1, since c.lo, t.lo >= 1
      make h >= min(c.lo, t.lo) >= 1.  Then c.hi C_2n.hi = g**2 + over with
      over = (c.lo h - g**2) + dc h + c.hi (C_2n.hi - h) >= 0, and
      c_2n.hi = g + e for the least e >= 0 with e (2g + e) >= over.
    - e0 = ceil(over / 2g) satisfies that, so e <= e0.  If e0**2 < 2g, then
      e >= e0 - 1: for e0 >= 2, 2g > e0**2 > (e0 - 2)**2 gives
      over > 2g (e0 - 1) = 2g (e0 - 2) + 2g > (e0 - 2)(2g + e0 - 2).  So one
      test decides between e0 - 1 and e0 (at e0 = 0, over = 0 and it keeps
      e0).  Otherwise (a box wide for its scale) c_2n.hi is
      isqrt_ceil(c.hi C_2n.hi) itself.

    So a rung costs one full-size division, one integer square root and three
    full-size products (c.lo t.lo, c.lo h, g**2); every other product has a
    factor of the size of the widths, and every mantissa is the one the
    formulas above give.
    """
    n, (c_lo, c_hi, p), (t_lo, t_hi, t_p) = bounds
    if p != t_p:
        raise UsageError(f"perimeter precisions differ: {p} and {t_p}")
    if c_lo <= 0 or t_lo <= 0:
        raise PrecisionExhausted(f"perimeter enclosure not positive at n={int_str(n)}")
    dc, dt = c_hi - c_lo, t_hi - t_lo
    h, r = divmod(2 * c_lo * t_lo, c_lo + t_lo)
    h_hi = h + ceil_div(r + 2 * (dc * t_lo + dt * c_lo + dc * dt) - h * (dc + dt),
                        c_hi + t_hi)
    radicand = c_lo * h
    g = math.isqrt(radicand)
    over = radicand - g * g + dc * h + c_hi * (h_hi - h)
    e = ceil_div(over, 2 * g)
    if e * e < 2 * g:
        if (e - 1) * (2 * g + e - 1) >= over:
            e -= 1
        g_hi = g + e
    else:
        g_hi = isqrt_ceil(c_hi * h_hi)
    return PolygonBounds(2 * n, Interval(g, g_hi, p), Interval(h, h_hi, p))


def doublings(bounds: PolygonBounds) -> Iterator[PolygonBounds]:
    """``bounds``, then each doubling of it: the one loop over the recurrence."""
    while True:
        yield bounds
        bounds = halve_angle(bounds)


def _checked(bounds: PolygonBounds, limit: int) -> PolygonBounds:
    n, (c_lo, c_hi, _), (t_lo, t_hi, _) = bounds
    if max(c_hi - c_lo, t_hi - t_lo) >= limit:
        raise PrecisionExhausted(f"perimeter enclosure too wide at n={int_str(n)}")
    return bounds


def ladder(max_k: int, digits: int,
           max_precision: int = DEFAULT_MAX_PRECISION) -> Iterator[PolygonBounds]:
    """Certified perimeter bounds for k = 0..max_k, each with width < 10**-digits.

    The arguments and the rung budget digits + 10 + max_k (which fails a
    10**5-rung table although it needs few digits) are checked at the call,
    before any work.  One pass at p = digits + 6 + len(str(max_k)) digits
    then makes each rung as it is read; one too wide would raise
    PrecisionExhausted before it is yielded.  It cannot be.  H and G, the
    harmonic and geometric means, never fall below their smaller argument,
    so neither lower end ever falls below the seed's smaller one (> 0 at any
    p) and nothing degenerates.  Both means increase in each argument and are
    homogeneous of degree 1: with s = 10**p, lower ends c.lo >= (1 - a) c_n s
    and C.lo >= (1 - a) C_n s give H >= (1 - a) C_2n s, and G likewise, and
    the upper ends mirror this.  So a relative error passes each mean
    unchanged, and a rung's two roundings, each under 1 unit, add
    < 1/(C_2n s) + 1/(c_2n s) < (1/pi + 1/3)/s < 0.652/s.
    The seed's relative errors are < 0.54/s, so both ends of both perimeters
    are within 0.652(k + 1)/s of the true value, relatively.  So c_n < pi is
    < 4.1(k + 1) units wide, and C_n (1 unit wide at k = 0, < 2 sqrt(3)
    after) < 4.6(k + 1), against 10**(p - digits) >= 10**6 * (max_k + 1).
    """
    if max_k < 0:
        raise UsageError("doubling count must be >= 0")
    if digits < 1:
        raise UsageError("digits must be >= 1")
    if max_precision < 1:
        raise UsageError("max_precision must be >= 1")
    if digits + 10 + max_k > max_precision:
        raise ResourceLimit(f"needed precision exceeds max_precision={max_precision}")
    precision = digits + 6 + len(str(max_k))
    limit = 10 ** (precision - digits)
    return (_checked(bounds, limit)
            for bounds in islice(doublings(seed_state(precision)), max_k + 1))


def bounds_at(k: int, digits: int,
              max_precision: int = DEFAULT_MAX_PRECISION) -> PolygonBounds:
    """Certified perimeter bounds after k doublings: the last rung of ``ladder``."""
    return deque(ladder(k, digits, max_precision), maxlen=1).pop()


# ---------------------------------------------------------------------------
# nested-radical closed forms
# ---------------------------------------------------------------------------

class RadicalExpr(namedtuple("RadicalExpr", "multiplier numerator denominator")):
    """multiplier * numerator / denominator, all parts exact.

    A tower is the tuple of its signs, outermost first: ``()`` is sqrt(3),
    ``("-", "+")`` is sqrt(2 - sqrt(2 + sqrt(3))).  ``numerator`` is a tower
    or None (meaning 1); ``denominator`` is the integer 1 or 2, or a tower.
    A named tuple whose ``__new__`` checks the signs; `_make`, which
    ``_replace`` calls, goes through it.
    """

    __slots__ = ()
    multiplier: int
    numerator: tuple[str, ...] | None
    denominator: tuple[str, ...] | int

    def __new__(cls, multiplier: int, numerator: tuple[str, ...] | None,
                denominator: tuple[str, ...] | int) -> RadicalExpr:
        for tower in (numerator, denominator):
            if isinstance(tower, tuple) and not set(tower) <= {"+", "-"}:
                raise ValueError("tower signs must be '+' or '-'")
        return tuple.__new__(cls, (multiplier, numerator, denominator))

    @classmethod
    def _make(cls, fields: Iterable[object]) -> RadicalExpr:
        return cls(*fields)

    def render(self) -> str:
        parts = [int_str(self.multiplier)]
        if self.numerator is not None:
            if self.numerator:
                parts.append(_DOT)
            parts.append(_render_tower(self.numerator))
        if isinstance(self.denominator, tuple):
            parts.append("/" + _render_tower(self.denominator))
        elif self.denominator != 1:
            parts.append("/" + str(self.denominator))
        return "".join(parts)


# the opening of one radical per sign; RadicalExpr admits no other sign
_OPENINGS = {"+": f"{_SQRT}(2+", "-": f"{_SQRT}(2{_MINUS}"}


def _render_tower(signs: tuple[str, ...]) -> str:
    opens = "".join(map(_OPENINGS.__getitem__, signs))
    return f"{opens}{_SQRT}3{')' * len(signs)}"


# A tower is the openings "√(2±" (the sign at offset 3 of each), then √3, then
# one ")" per opening; the match leaves the count of ")" to compare.
_TOWER = rf"((?:{_SQRT}\(2[-+{_MINUS}])*){_SQRT}3(\)*)"
# multiplier, optional numerator tower, optional "/" and an integer or a tower,
# integers in ASCII digits (matched with re.ASCII); kept a string: it is
# compiled (and cached) by the first parse, not at import
_RADICAL_PATTERN = rf"(\d+)(?:{_DOT}?{_TOWER})?(?:/(?:(\d+)|{_TOWER}))?"


def parse_radical_expr(text: str) -> RadicalExpr:
    """Inverse of RadicalExpr.render (ASCII '-' accepted for the minus sign).
    Integers are read by Decimal, which has no digit limit where ``int(str)``
    has one."""
    m = re.fullmatch(_RADICAL_PATTERN, text, re.ASCII)
    if m is None or any(opens is not None and len(opens) != 4 * len(closes)
                        for opens, closes in (m.group(2, 3), m.group(5, 6))):
        raise UsageError(f"cannot parse radical expression {text!r}")
    numerator, denominator = (
        None if opens is None else tuple(opens[3::4].replace(_MINUS, "-"))
        for opens in (m[2], m[5]))
    if denominator is None:
        denominator = int(Decimal(m[4] or 1))
    return RadicalExpr(int(Decimal(m[1])), numerator, denominator)


def nested_radical_form(n: int, which: str) -> RadicalExpr:
    """Closed form of c_n ("c") or C_n ("C") for n = 3 * 2**k.

    The tower pattern starts at n = 12; the n = 3 and n = 6 rows are the fixed
    literals 3*sqrt(3)/2, 3*sqrt(3), 3, 2*sqrt(3).
    """
    if which not in ("c", "C"):
        raise UsageError(f"which must be 'c' or 'C', got {which!r}")
    k = _doubling_index(n)
    if k == 0:
        if which == "c":
            return RadicalExpr(3, (), 2)             # 3*sqrt(3)/2
        return RadicalExpr(3, (), 1)                 # 3*sqrt(3)
    if k == 1:
        if which == "c":
            return RadicalExpr(3, None, 1)           # 3
        return RadicalExpr(2, (), 1)                 # 2*sqrt(3)
    inner = ("+",) * (k - 2)
    if which == "c":
        return RadicalExpr(n, ("-", *inner), 2)
    return RadicalExpr(n, ("-", *inner), ("+", *inner))


def _eval_tower(signs: tuple[str, ...], precision: int) -> Interval:
    two = make_interval(2, precision)
    value = interval_sqrt(make_interval(3, precision))
    for sign in reversed(signs):
        inner = (interval_add(two, value) if sign == "+"
                 else interval_sub(two, value))
        value = interval_sqrt(inner)
    return value


def eval_radical(expr: RadicalExpr, precision: int) -> Interval:
    """Certified enclosure of a radical expression's value."""
    value = make_interval(expr.multiplier, precision)
    if expr.numerator is not None:
        value = interval_mul(value, _eval_tower(expr.numerator, precision))
    if isinstance(expr.denominator, tuple):
        value = interval_div(value, _eval_tower(expr.denominator, precision))
    elif expr.denominator != 1:
        value = interval_div(value, make_interval(expr.denominator, precision))
    return value
