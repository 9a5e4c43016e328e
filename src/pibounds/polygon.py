"""Archimedean polygon doubling with certified enclosures.

For a circle of unit diameter the inscribed and circumscribed regular n-gons
have perimeters

    c_n = n * sin(180/n),        C_n = n * tan(180/n) = c_n / cos(180/n),

and c_n < pi < C_n.  Restricting to n = 3 * 2**k, every needed cosine follows
from cos(60 deg) = 1/2 through the half-angle identity

    cos(x) = sqrt((1 + cos(2x)) / 2),

so the whole ladder runs on certified square roots alone.  No numeric angle is
ever stored: an angle exists only as the label 180/n, because writing it in
radians would smuggle in the very constant we are bounding.

The state carries the inscribed perimeter, not the sine: since c_2n =
2n sin(x/2) = n sin(x) / cos(x/2), a doubling is c_2n = c_n / cos(180/2n),
free of the cancellation that makes sqrt(1 - cos^2) collapse as cos -> 1.
Its relative error grows by a few units in the last place per rung, where
n * sin would multiply the sine's error by n, so `ladder` needs only
O(log K) guard digits.

Every step is monotone on positive inputs: sqrt((1 + cos)/2) increases with
cos, and c/cos increases with c and decreases with cos.  So `halve_angle` and
`perimeters` work on the raw mantissas at scale 10**p and round each endpoint
once, in its own direction, instead of taking the four corners of a generic
interval division (Moore, Kearfott & Cloud, *Introduction to Interval
Analysis*, 2009).  The halving is folded into the square-root argument, which
leaves two long divisions for c_2n and two for C_n per rung.  The positivity
checks that raise `PrecisionExhausted` are what make these directions valid.

`doublings` is the one loop over the step.  `ladder` runs it from the
triangle, yielding rungs k = 0..K as they are made, and `bounds_at` is its
last rung; `series` runs it from the 2-gon (cos 90 deg = 0) as Viete's product.

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
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from itertools import islice

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
    """An intermediate enclosure degenerated (e.g. a cosine bound hit zero)."""


class ResourceLimit(PiBoundsError, RuntimeError):
    """A request's rung budget exceeds the configured max_precision."""


def _doubling_index(n: int) -> int:
    if n >= 3 and n % 3 == 0:
        m = n // 3
        if m & (m - 1) == 0:
            return m.bit_length() - 1
    raise UsageError(f"side count must be 3 * 2**k, got {int_str(n)}")


@dataclass(frozen=True)
class AngleState:
    """Enclosures of cos(180/n) and of c_n; n = 3 * 2**k, or 2**(k+1) for Viete."""

    k: int
    n: int
    cos_enc: Interval
    c_enc: Interval
    precision: int


@dataclass(frozen=True)
class PolygonBounds:
    """Enclosures of the inscribed (lower) and circumscribed (upper) perimeters."""

    n: int
    lower: Interval
    upper: Interval


def seed_state(precision: int) -> AngleState:
    """Starting triangle: cos(60 deg) = 1/2 exactly, c_3 = sqrt(27/4)."""
    if precision < 1:
        raise UsageError("precision must be >= 1")
    cos_enc = make_interval(Rational(1, 2), precision)
    c_enc = interval_sqrt(make_interval(Rational(27, 4), precision))
    return AngleState(k=0, n=3, cos_enc=cos_enc, c_enc=c_enc,
                      precision=precision)


def halve_angle(state: AngleState) -> AngleState:
    """One doubling step n -> 2n via the half-angle identity.

    With s = 10**p the new cosine is [isqrt((s + lo) * s/2),
    isqrt_ceil((s + hi) * s/2)] (s is even, so s/2 is exact) and the new
    perimeter c_2n = c_n / cos' is [c.lo * s // cos'.hi, ceil(c.hi * s / cos'.lo)].
    """
    p = state.precision
    s = 10**p
    half = s // 2
    cos_lo = math.isqrt((s + state.cos_enc.lo) * half)
    if cos_lo <= 0:
        raise PrecisionExhausted(
            f"cosine enclosure degenerated at n={int_str(2 * state.n)}, precision={p}")
    cos_hi = isqrt_ceil((s + state.cos_enc.hi) * half)
    c = state.c_enc
    return AngleState(k=state.k + 1, n=2 * state.n,
                      cos_enc=Interval(cos_lo, cos_hi, p),
                      c_enc=Interval(c.lo * s // cos_hi, ceil_div(c.hi * s, cos_lo), p),
                      precision=p)


def perimeters(state: AngleState) -> PolygonBounds:
    """c_n as carried, and C_n = c_n / cos: its lower end rounded down
    against cos.hi, its upper end up against cos.lo."""
    cos, c = state.cos_enc, state.c_enc
    if cos.lo <= 0 or c.lo <= 0:
        raise PrecisionExhausted(
            f"cosine or perimeter enclosure not positive at n={int_str(state.n)}")
    s = 10**state.precision
    return PolygonBounds(
        n=state.n, lower=c,
        upper=Interval(c.lo * s // cos.hi, ceil_div(c.hi * s, cos.lo),
                       state.precision))


def doublings(state: AngleState) -> Iterator[AngleState]:
    """``state``, then each halving of it: the one loop over the recurrence."""
    while True:
        yield state
        state = halve_angle(state)


def _checked(bounds: PolygonBounds, limit: int) -> PolygonBounds:
    if max(bounds.lower.hi - bounds.lower.lo, bounds.upper.hi - bounds.upper.lo) >= limit:
        raise PrecisionExhausted(f"perimeter enclosure too wide at n={int_str(bounds.n)}")
    return bounds


def ladder(max_k: int, digits: int,
           max_precision: int = DEFAULT_MAX_PRECISION) -> Iterator[PolygonBounds]:
    """Certified perimeter bounds for k = 0..max_k, each with width < 10**-digits.

    The arguments and the rung budget digits + 10 + max_k (which fails a
    10**5-rung table although it needs few digits) are checked at the call,
    before any work.  One pass at p = digits + 6 + len(str(max_k)) digits
    then makes each rung as it is read; one too wide would raise
    PrecisionExhausted before it is yielded.  It cannot be: with s = 10**p,
    cos.lo >= s/2 and cos.hi <= s, so nothing degenerates and c.lo never
    shrinks; cos' has slope 1/(4 cos') < 0.29, so it stays <= 2 units wide;
    a step adds < 2 pi/cos'^2 + 2 < 10.4 units to width(c)/cos'; and the
    1/cos' multiply to c_n/c_3 < pi/c_3 < 1.21.  So c_n is < 13(k + 1) units
    wide and C_n < 15(k + 1), against 10**(p - digits) >= 10**6 * (max_k + 1).
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
    return (_checked(perimeters(state), limit)
            for state in islice(doublings(seed_state(precision)), max_k + 1))


def bounds_at(k: int, digits: int,
              max_precision: int = DEFAULT_MAX_PRECISION) -> PolygonBounds:
    """Certified perimeter bounds after k doublings: the last rung of ``ladder``."""
    return deque(ladder(k, digits, max_precision), maxlen=1).pop()


# ---------------------------------------------------------------------------
# nested-radical closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadicalExpr:
    """multiplier * numerator / denominator, all parts exact.

    A tower is the tuple of its signs, outermost first: ``()`` is sqrt(3),
    ``("-", "+")`` is sqrt(2 - sqrt(2 + sqrt(3))).  ``numerator`` is a tower
    or None (meaning 1); ``denominator`` is the integer 1 or 2, or a tower.
    """

    multiplier: int
    numerator: tuple[str, ...] | None
    denominator: tuple[str, ...] | int

    def __post_init__(self) -> None:
        for tower in (self.numerator, self.denominator):
            if isinstance(tower, tuple) and not set(tower) <= {"+", "-"}:
                raise ValueError("tower signs must be '+' or '-'")

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


def _render_tower(signs: tuple[str, ...]) -> str:
    opens = "".join(f"{_SQRT}(2{'+' if sign == '+' else _MINUS}" for sign in signs)
    return f"{opens}{_SQRT}3{')' * len(signs)}"


# A tower is the openings "√(2±" (the sign at offset 3 of each), then √3, then
# one ")" per opening; the match leaves the count of ")" to compare.
_TOWER = rf"((?:{_SQRT}\(2[-+{_MINUS}])*){_SQRT}3(\)*)"
# multiplier, optional numerator tower, optional "/" and an integer or a tower;
# kept a string: it is compiled (and cached) by the first parse, not at import
_RADICAL_PATTERN = rf"(\d+)(?:{_DOT}?{_TOWER})?(?:/(?:(\d+)|{_TOWER}))?"


def parse_radical_expr(text: str) -> RadicalExpr:
    """Inverse of RadicalExpr.render (ASCII '-' accepted for the minus sign).
    Integers are read by Decimal, which has no digit limit where ``int(str)``
    has one."""
    m = re.fullmatch(_RADICAL_PATTERN, text)
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
