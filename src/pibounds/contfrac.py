"""Continued fractions of exact rationals and certified rational pi bounds.

Expanding the outward-rounded decimal value of an enclosure of pi (such as a
polygon perimeter) and walking its convergents yields small-denominator
fractions that can be *certified* against the enclosure: a convergent
strictly below the inscribed perimeter is a proven lower bound for pi, one
strictly above the circumscribed perimeter a proven upper bound.

A convergent h_i/k_i is kept as its two integers.  They are coprime by
construction, since h_i k_{i-1} - h_{i-1} k_i = (-1)**(i-1), so no gcd is
needed to build one, and certifying it is integer cross-multiplication
against the enclosure's mantissas (`exactnum.side_of`).  The Fraction
``value`` is built only when read.

Few convergents need that comparison.  Those on the far side of the outward
decimal are certified by their index parity; those on the near side approach
the decimal monotonically, so their verdicts form three runs whose ends two
bisections find: O(log n) ``side_of`` calls for n convergents.  A
`BoundExpansion` lays those runs out once, by list slicing, as one verdict
per convergent (the last convergent's is its own ``side_of``), and keeps the
end of the prefix of denominators under the cap (the denominators increase,
so one more bisection finds it).  Its per-convergent records,
`BoundCandidate`, are built only when ``candidates`` is read.

Their text is made apart from the ints: `convergent_texts` runs the same
forward recurrence again on exact ``Decimal`` integers, whose text is
written in linear time, where CPython's ``str(int)`` is quadratic and would
be most of the cost of printing a long list.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Iterable, Iterator
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded
from typing import NamedTuple

from . import polygon
from .exactnum import (Interval, PiBoundsError, Rational, Side, UsageError, _Ratio,
                       decimal_str, fraction_str, int_str, side_of)

# the whole string, in ASCII digits: optional integer part, optional fraction
# part, at least one digit, no sign, exponent or newline ("3", "3.14", ".5";
# not "", ".", "3.", "1e3", "3.14\n", "٣.١٤"); kept a string: it is compiled
# (and cached) by the first parse, not at import
_DECIMAL_PATTERN = r"(\d+)?(?:\.(\d+))?"


class NoValidBound(PiBoundsError, LookupError):
    """No convergent under the denominator cap is certified on the needed side."""


class ContinuedFraction(namedtuple("ContinuedFraction", "coeffs")):
    """Coefficients [a0; a1, a2, ...] of a finite simple continued fraction.

    A named tuple whose ``__new__`` checks them; `_make`, which ``_replace``
    calls, goes through it.
    """

    __slots__ = ()
    coeffs: tuple[int, ...]

    def __new__(cls, coeffs: tuple[int, ...]) -> ContinuedFraction:
        if not coeffs:
            raise ValueError("continued fraction needs at least one coefficient")
        if coeffs[0] < 0 or any(a < 1 for a in coeffs[1:]):
            raise ValueError("need a0 >= 0 and a_i >= 1 for i >= 1")
        return tuple.__new__(cls, (coeffs,))

    @classmethod
    def _make(cls, fields: Iterable[tuple[int, ...]]) -> ContinuedFraction:
        return cls(*fields)

    def __str__(self) -> str:
        head, *tail = map(int_str, self.coeffs)
        if not tail:
            return f"[{head}]"
        return f"[{head}; " + ", ".join(tail) + "]"


class Convergent(NamedTuple):
    """The ``index``-th convergent numerator/denominator, coprime, denominator >= 1."""

    numerator: int
    denominator: int
    index: int

    @property
    def value(self) -> Rational:
        return Rational(self.numerator, self.denominator)


def parse_decimal(text: str) -> Rational:
    """Exact rational value of a decimal literal (d / 10**m, stored reduced),
    read by Decimal, which has no digit limit where ``int(str)`` has one."""
    m = re.fullmatch(_DECIMAL_PATTERN, text, re.ASCII)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise UsageError(f"not a plain positive decimal: {text!r}")
    value = Rational(Decimal(text))
    if value <= 0:
        raise UsageError(f"value must be > 0, got {text!r}")
    return value


def expand(q: Rational) -> ContinuedFraction:
    """Euclidean-algorithm coefficients of a positive rational (raw output,
    no renormalization of a trailing 1)."""
    if q <= 0:
        raise UsageError(f"can only expand positive rationals, got {fraction_str(q)}")
    n, d = q.numerator, q.denominator
    coeffs = []
    while True:
        a, r = divmod(n, d)
        coeffs.append(a)
        if r == 0:
            return ContinuedFraction(tuple(coeffs))
        n, d = d, r


def _recurrence(coeffs: Iterable[int]) -> tuple[list[int], list[int]]:
    """Numerators h_i and denominators k_i of every convergent, by the
    standard forward recurrence on plain ints (no gcd is taken)."""
    hs, ks = [], []
    h, h_prev = 1, 0   # h_{-1}, h_{-2}
    k, k_prev = 0, 1   # k_{-1}, k_{-2}
    for a in coeffs:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        hs.append(h)
        ks.append(k)
    return hs, ks


def convergents(cf: ContinuedFraction) -> list[Convergent]:
    """All convergents h_i/k_i via the standard forward recurrence, as
    coprime integer pairs (no gcd is taken)."""
    return [Convergent(h, k, i)
            for i, (h, k) in enumerate(zip(*_recurrence(cf.coeffs)))]


def convergent_texts(cf: ContinuedFraction) -> Iterator[str]:
    """``fraction_str`` of each convergent, in order, in linear time each.

    The forward recurrence of `convergents` runs again, on exact ``Decimal``
    integers, whose text is written in linear time where ``str(int)`` is
    quadratic.  Their context has the largest precision and exponent range
    and traps Inexact and Rounded, so a rounding would raise instead of
    printing; the text does not depend on the caller's context, which is
    left as it was.
    """
    fma = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded]).fma
    h, h_prev, k, k_prev = map(Decimal, (1, 0, 0, 1))
    for a in map(Decimal, cf.coeffs):
        h, h_prev = fma(a, h, h_prev), h
        k, k_prev = fma(a, k, k_prev), k
        yield f"{h!s}/{k!s}"


def reconstruct(cf: ContinuedFraction) -> Rational:
    """Exact value a0 + 1/(a1 + 1/(...)): the last convergent."""
    hs, ks = _recurrence(cf.coeffs)
    return Rational(hs[-1], ks[-1])


# ---------------------------------------------------------------------------
# certified bounds for pi
# ---------------------------------------------------------------------------

class BoundCandidate(NamedTuple):
    convergent: Convergent
    verdict: Side
    within_cap: bool


# per side: the parity of the convergent indices on the far side of the
# outward decimal, the verdict that certifies a bound, and the opposite one
_SIDES = {"lower": (0, Side.BELOW, Side.ABOVE), "upper": (1, Side.ABOVE, Side.BELOW)}


class BoundExpansion(NamedTuple):
    """An enclosure's outward decimal, its expansion, the verdict of each
    convergent, and a cap end.

    ``verdicts[i]`` is convergent i's ``side_of`` the enclosure.  The first
    ``cap_end`` convergents have denominators <= the cap.  Records are built
    only when ``candidates`` is read.
    """

    which: str                  # "lower" (c_n) or "upper" (C_n)
    n: int
    digits: int
    decimal: Rational           # the d-digit decimal fed into the expansion
    cf: ContinuedFraction
    verdicts: tuple[Side, ...]  # one per convergent
    cap_end: int                # convergents with denominator <= den_cap

    @property
    def decimal_text(self) -> str:
        # ``decimal`` is exact at ``digits`` places, so no rounding happens here
        return decimal_str(self.decimal, self.digits)

    @property
    def candidates(self) -> tuple[BoundCandidate, ...]:
        """One record per convergent, built on each read."""
        return tuple(BoundCandidate(conv, verdict, conv.index < self.cap_end)
                     for conv, verdict in zip(convergents(self.cf), self.verdicts))


class CertifiedBounds(NamedTuple):
    n: int
    den_cap: int
    lower: Rational
    upper: Rational
    lower_expansion: BoundExpansion
    upper_expansion: BoundExpansion


def _expansion(enclosure: Interval, which: str, digits: int, den_cap: int,
               n: int) -> BoundExpansion:
    """Expand the ``digits``-place decimal of ``enclosure`` rounded outward
    (down for the "lower" side, up for the "upper"), and find its verdicts
    and cap end by bisection, building no per-convergent record."""
    parity, far_side, opposite = _SIDES[which]
    # round the decimal outward so it stays on the certified side of pi
    rounded = enclosure.with_precision(digits)
    decimal = rounded.lo_rational if which == "lower" else rounded.hi_rational
    cf = expand(decimal)
    hs, ks = _recurrence(cf.coeffs)
    # The convergents alternate around the decimal D, even indices below it
    # and odd ones above, strictly except the last, which is D.  As D <= lo
    # (lower) or D >= hi (upper), one on the far side of D is certified by
    # its index parity alone.  The near-side ones move monotonically toward
    # D, across the enclosure, so their verdicts are three runs in order:
    # opposite, WITHIN, far_side.  Two bisections find where the runs end.
    near = range(1 - parity, len(ks), 2)

    def verdict(i: int) -> Side:
        return side_of(_Ratio(hs[i], ks[i]), enclosure)

    past_opposite = bisect_left(near, True, key=lambda i: verdict(i) is not opposite)
    past_within = bisect_left(near, True, past_opposite,
                              key=lambda i: verdict(i) is far_side)
    verdicts = [far_side] * len(ks)
    verdicts[1 - parity::2] = ([opposite] * past_opposite
                               + [Side.WITHIN] * (past_within - past_opposite)
                               + [far_side] * (len(near) - past_within))
    # the last convergent is D itself, which parity cannot certify: it may
    # sit on lo (hi) exactly
    verdicts[-1] = side_of(decimal, enclosure)
    return BoundExpansion(which=which, n=n, digits=digits, decimal=decimal, cf=cf,
                          verdicts=tuple(verdicts),
                          # denominators never decrease, k_0 = 1 <= k_1 < k_2 < ...
                          cap_end=bisect_right(ks, den_cap))


def bound_expansion(k: int, digits: int, which: str,
                    max_precision: int = polygon.DEFAULT_MAX_PRECISION,
                    ) -> BoundExpansion:
    """Expansion of one perimeter bound after k doublings (see _expansion)."""
    if which not in ("lower", "upper"):
        raise UsageError(f"which must be 'lower' or 'upper', got {which!r}")
    bounds = polygon.bounds_at(k, digits, max_precision)
    return _expansion(getattr(bounds, which), which, digits, 0, bounds.n)


def certified_rational_bounds(k: int, digits: int, den_cap: int,
                              max_precision: int = polygon.DEFAULT_MAX_PRECISION,
                              ) -> CertifiedBounds:
    """A certified rational bracket of pi from the k-th doubling.

    Both perimeter decimals are expanded; the returned lower (upper) bound is
    the largest-denominator convergent under ``den_cap`` certified BELOW the
    inscribed (ABOVE the circumscribed) enclosure.  Convergent denominators
    increase, so the last eligible candidate wins.  That is not the best
    bracket under the cap, which may end at a semiconvergent: at k = 13,
    12 digits and ``den_cap`` 1000 this returns 333/106 < pi < 355/113,
    although 2818/897 is also certified below c_n.
    """
    if den_cap < 1:
        raise UsageError("den_cap must be >= 1")
    bounds = polygon.bounds_at(k, digits, max_precision)
    lower_exp = _expansion(bounds.lower, "lower", digits, den_cap, bounds.n)
    upper_exp = _expansion(bounds.upper, "upper", digits, den_cap, bounds.n)

    def pick(exp: BoundExpansion, wanted: Side) -> Rational:
        # the last convergent under the cap with the wanted (far-side)
        # verdict: every far-parity one but the last is certified, so this
        # steps back from the cap end at most twice
        i = exp.cap_end - 1
        while i >= 0 and exp.verdicts[i] is not wanted:
            i -= 1
        if i < 0:
            raise NoValidBound(
                f"no convergent with denominator <= {den_cap} certified "
                f"{wanted.value} the {exp.which} enclosure at n={int_str(exp.n)}")
        return reconstruct(ContinuedFraction(exp.cf.coeffs[:i + 1]))

    return CertifiedBounds(n=bounds.n, den_cap=den_cap,
                           lower=pick(lower_exp, Side.BELOW),
                           upper=pick(upper_exp, Side.ABOVE),
                           lower_expansion=lower_exp,
                           upper_expansion=upper_exp)
