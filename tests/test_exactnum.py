"""Tests for the exact fixed-point interval substrate.

Independent oracles used here:
  * decimal long division (for make_interval endpoints),
  * bisection integer square root (for interval_sqrt endpoints),
  * exact Fraction arithmetic (for containment of every operation).
"""

from __future__ import annotations

import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pibounds.exactnum import (
    PI_REFERENCE,
    DivisionByZeroInterval,
    Interval,
    NegativeRadicand,
    Side,
    decimal_str,
    fraction_str,
    int_str,
    interval_arith,
    interval_div,
    interval_sqrt,
    isqrt_ceil,
    make_interval,
    side_of,
)
from pibounds.contfrac import Convergent, bound_expansion
from pibounds.polygon import bounds_at


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def long_division(num: int, den: int, digits: int) -> tuple[str, bool]:
    """Decimal expansion of num/den (num, den > 0) by schoolbook long division.

    Returns the truncated string and whether the expansion terminated.
    """
    whole, rem = divmod(num, den)
    out = [str(whole), "."]
    for _ in range(digits):
        rem *= 10
        d, rem = divmod(rem, den)
        out.append(str(d))
    return "".join(out), rem == 0


def isqrt_bisect(n: int) -> int:
    """Floor integer square root by pure bisection."""
    lo, hi = 0, max(1, n)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def assert_contains(iv: Interval, q: Fraction) -> None:
    assert iv.lo_rational <= q <= iv.hi_rational, f"{q} not in {iv}"


rationals = st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000),
                         max_denominator=10**6)
positive_rationals = st.fractions(min_value=Fraction(1, 10**6),
                                  max_value=Fraction(1000),
                                  max_denominator=10**6)
precisions = st.integers(min_value=1, max_value=30)
mantissas = st.integers(min_value=-10**12, max_value=10**12)


def ceil_div_reference(a: int, b: int) -> int:
    return -((-a) // b)


def make_interval_reference(q: Fraction, p: int) -> Interval:
    """make_interval by two divisions, a floor and a ceiling."""
    s = 10**p
    return Interval(q.numerator * s // q.denominator,
                    ceil_div_reference(q.numerator * s, q.denominator), p)


def interval_div_reference(a: Interval, b: Interval) -> Interval:
    """interval_div by eight divisions: a floor and a ceiling per corner."""
    p = max(a.precision, b.precision)
    a, b = a.with_precision(p), b.with_precision(p)
    s = 10**p
    corners = [(x * s, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(x // y for x, y in corners),
                    max(ceil_div_reference(x, y) for x, y in corners), p)


def side_of_reference(q, iv: Interval) -> Side:
    """side_of by exact Fraction comparison against the endpoints: the
    reference the integer cross-multiplication must agree with."""
    q = Fraction(q.numerator, q.denominator)
    if q < iv.lo_rational:
        return Side.BELOW
    if q > iv.hi_rational:
        return Side.ABOVE
    return Side.WITHIN


# ---------------------------------------------------------------------------
# make_interval
# ---------------------------------------------------------------------------

class TestMakeInterval:
    def test_exactly_representable(self):
        iv = make_interval(Fraction(1, 2), 5)
        assert (iv.lo, iv.hi) == (50000, 50000)
        assert iv.decimal_bounds() == ("0.50000", "0.50000")

    def test_directed_rounding_forced(self):
        iv = make_interval(Fraction(1, 3), 5)
        assert (iv.lo, iv.hi) == (33333, 33334)

    def test_against_long_division_oracle(self):
        iv = make_interval(Fraction(22, 7), 6)
        floor_str, exact = long_division(22, 7, 6)
        assert not exact
        lo_str, hi_str = iv.decimal_bounds()
        assert lo_str == floor_str == "3.142857"
        assert hi_str == "3.142858"

    def test_width_bound_and_containment(self):
        for q in (Fraction(7, 13), Fraction(-355, 113), Fraction(10**9, 7)):
            for p in (1, 4, 9):
                iv = make_interval(q, p)
                assert_contains(iv, q)
                assert iv.width <= Fraction(1, 10**p)

    def test_precision_must_be_positive(self):
        with pytest.raises(ValueError):
            make_interval(Fraction(1), 0)

    @given(q=rationals, p=precisions)
    def test_matches_two_division_reference(self, q, p):
        assert make_interval(q, p) == make_interval_reference(q, p)

    def test_matches_two_division_reference_on_random_rationals(self):
        rng = random.Random(2520)
        for _ in range(2000):
            q = Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**30))
            p = rng.randint(1, 60)
            assert make_interval(q, p) == make_interval_reference(q, p)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def exact_iv(lo: Fraction | int, hi: Fraction | int, p: int) -> Interval:
    a = make_interval(Fraction(lo), p)
    b = make_interval(Fraction(hi), p)
    return Interval(a.lo, b.hi, p)


class TestIntervalArith:
    def test_add(self):
        out = interval_arith("add", exact_iv(1, 2, 5), exact_iv(3, 4, 5))
        assert (out.lo_rational, out.hi_rational) == (4, 6)

    def test_mul_mixed_signs(self):
        out = interval_arith("mul", exact_iv(-1, 2, 5), exact_iv(3, 4, 5))
        assert (out.lo_rational, out.hi_rational) == (-4, 8)

    def test_div_matches_one_third(self):
        out = interval_arith("div", exact_iv(1, 1, 5), exact_iv(3, 3, 5))
        assert (out.lo, out.hi) == (33333, 33334)

    def test_div_by_zero_interval(self):
        with pytest.raises(DivisionByZeroInterval):
            interval_arith("div", exact_iv(1, 1, 5), exact_iv(-1, 1, 5))
        with pytest.raises(DivisionByZeroInterval):
            interval_arith("div", exact_iv(1, 1, 5), exact_iv(0, 2, 5))

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            interval_arith("pow", exact_iv(1, 1, 5), exact_iv(1, 1, 5))

    def test_mixed_precision_alignment(self):
        out = interval_arith("add", make_interval(Fraction(1, 3), 4),
                             make_interval(Fraction(1, 3), 8))
        assert out.precision == 8
        assert_contains(out, Fraction(2, 3))

    @given(q1=rationals, q2=rationals, p=precisions,
           op=st.sampled_from(["add", "sub", "mul", "div"]))
    def test_containment_property(self, q1, q2, p, op):
        a = make_interval(q1, p)
        b = make_interval(q2, p)
        if op == "div":
            if b.lo <= 0 <= b.hi:
                with pytest.raises(DivisionByZeroInterval):
                    interval_arith(op, a, b)
                return
            exact = q1 / q2
        else:
            exact = {"add": q1 + q2, "sub": q1 - q2, "mul": q1 * q2}[op]
        assert_contains(interval_arith(op, a, b), exact)

    @given(q1=rationals, q2=rationals, p=st.integers(1, 12),
           extra=st.integers(1, 12),
           op=st.sampled_from(["add", "sub", "mul", "div"]))
    def test_monotone_precision(self, q1, q2, p, extra, op):
        """Higher working precision, outward-rounded back, never does worse."""
        a1, b1 = make_interval(q1, p), make_interval(q2, p)
        a2, b2 = make_interval(q1, p + extra), make_interval(q2, p + extra)
        if op == "div" and (b1.lo <= 0 <= b1.hi or b2.lo <= 0 <= b2.hi):
            return
        coarse = interval_arith(op, a1, b1)
        fine = interval_arith(op, a2, b2).with_precision(p)
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi

    @given(m1=mantissas, m2=mantissas, m3=mantissas, m4=mantissas,
           p1=precisions, p2=precisions)
    def test_div_matches_eight_division_reference(self, m1, m2, m3, m4, p1, p2):
        a = Interval(*sorted((m1, m2)), p1)
        b = Interval(*sorted((m3, m4)), p2)
        if b.lo <= 0 <= b.hi:
            with pytest.raises(DivisionByZeroInterval):
                interval_div(a, b)
            return
        assert interval_div(a, b) == interval_div_reference(a, b)

    def test_div_matches_eight_division_reference_on_random_intervals(self):
        """Both signs of each endpoint, exact and inexact corners, and
        precisions that differ, so alignment runs first."""
        rng = random.Random(2521)
        for _ in range(2000):
            p1, p2 = rng.randint(1, 40), rng.randint(1, 40)
            a = Interval(*sorted(rng.randint(-10**p1, 10**p1) * rng.choice((1, 7))
                                 for _ in range(2)), p1)
            b = Interval(*sorted(rng.randint(1, 10**p2) * rng.choice((1, 3))
                                 for _ in range(2)), p2)
            if rng.random() < 0.5:
                b = Interval(-b.hi, -b.lo, p2)
            assert interval_div(a, b) == interval_div_reference(a, b)


# ---------------------------------------------------------------------------
# sqrt
# ---------------------------------------------------------------------------

class TestIntervalSqrt:
    def test_perfect_square(self):
        out = interval_sqrt(exact_iv(4, 4, 5))
        assert (out.lo_rational, out.hi_rational) == (2, 2)

    def test_sqrt2_against_bisection_oracle(self):
        out = interval_sqrt(make_interval(Fraction(2), 12))
        assert out.lo == isqrt_bisect(2 * 10**24)
        assert out.lo == 1414213562373
        assert_contains(out, Fraction(1414213562373, 10**12))

    def test_sin60_against_bisection_oracle(self):
        out = interval_sqrt(make_interval(Fraction(3, 4), 12))
        assert out.lo == isqrt_bisect(75 * 10**22)
        assert_contains(out, Fraction(866025403784, 10**12))

    def test_negative_radicand(self):
        with pytest.raises(NegativeRadicand):
            interval_sqrt(exact_iv(-1, 4, 5))

    def test_isqrt_ceil_helper(self):
        assert isqrt_ceil(0) == 0
        assert isqrt_ceil(16) == 4
        assert isqrt_ceil(17) == 5

    def test_isqrt_ceil_is_the_least_root(self):
        """r = isqrt_ceil(n) is the least r >= 0 with r*r >= n: for n up to
        10**4, around the squares of large k, and at 4000 digits."""
        def least_root(n, r):
            return r >= 0 and r * r >= n and (r == 0 or (r - 1) ** 2 < n)

        assert all(least_root(n, isqrt_ceil(n)) for n in range(10**4 + 1))
        rng = random.Random(19)
        for k in (10**50 + 7, 3**300, rng.getrandbits(6000) | 1):
            assert isqrt_ceil(k * k) == k
            assert isqrt_ceil(k * k - 1) == k
            assert isqrt_ceil(k * k + 1) == k + 1
        n = rng.randrange(10**3999, 10**4000)
        assert least_root(n, isqrt_ceil(n))

    @given(n=st.integers(min_value=0, max_value=10**24))
    @settings(max_examples=50)
    def test_bisection_oracle_agrees_with_isqrt(self, n):
        assert isqrt_bisect(n) == math.isqrt(n)

    @given(q=st.fractions(min_value=0, max_value=1000,
                          max_denominator=10**6), p=precisions)
    def test_sqrt_brackets_radicand(self, q, p):
        out = interval_sqrt(make_interval(q, p))
        assert out.lo_rational ** 2 <= q <= out.hi_rational ** 2


# ---------------------------------------------------------------------------
# side_of
# ---------------------------------------------------------------------------

class TestSideOf:
    def test_examples(self):
        iv = exact_iv(Fraction(314, 100), Fraction(315, 100), 4)
        assert side_of(3, iv) is Side.BELOW
        assert side_of(4, iv) is Side.ABOVE
        assert side_of(PI_REFERENCE, iv) is Side.WITHIN

    @given(a=rationals, b=rationals, q=rationals, p=precisions)
    def test_trichotomy_and_soundness(self, a, b, q, p):
        lo, hi = sorted((a, b))
        iv = Interval(make_interval(lo, p).lo, make_interval(hi, p).hi, p)
        verdict = side_of(q, iv)
        # exactly one verdict, and certified ones are never wrong
        if verdict is Side.BELOW:
            assert q < iv.lo_rational <= hi
        elif verdict is Side.ABOVE:
            assert q > iv.hi_rational >= lo
        else:
            assert iv.lo_rational <= q <= iv.hi_rational

    def test_endpoints_are_within(self):
        iv = Interval(-31416, 31416, 4)
        for q in (Fraction(-31416, 10**4), Fraction(31416, 10**4),
                  Convergent(-3927, 1250, 0), Convergent(3927, 1250, 0)):
            assert side_of(q, iv) is Side.WITHIN
        point = Interval(20000, 20000, 4)
        assert side_of(2, point) is Side.WITHIN
        assert side_of(Fraction(19999, 10**4), point) is Side.BELOW
        assert side_of(Fraction(20001, 10**4), point) is Side.ABOVE

    @given(m1=mantissas, m2=mantissas, p=precisions, data=st.data())
    def test_matches_fraction_reference(self, m1, m2, p, data):
        lo, hi = sorted((m1, m2))
        iv = Interval(lo, hi, p)
        # q at an endpoint, or within a few units of 10**-p / scale of one
        near = st.builds(lambda m, scale, step: Fraction(m * scale + step, 10**p * scale),
                         st.sampled_from([lo, hi]), st.integers(1, 10**6),
                         st.integers(-2, 2))
        exact = st.one_of(st.integers(-10**6, 10**6), rationals, near)
        q = data.draw(st.one_of(
            exact,
            exact.map(lambda f: Convergent(f.numerator, f.denominator, 0))))
        assert side_of(q, iv) is side_of_reference(q, iv)
        assert iv.contains(q) == (side_of_reference(q, iv) is Side.WITHIN)

    @given(m1=mantissas, m2=mantissas, m3=mantissas, m4=mantissas,
           p1=precisions, p2=precisions)
    def test_overlaps_matches_fraction_reference(self, m1, m2, m3, m4, p1, p2):
        a = Interval(*sorted((m1, m2)), p1)
        b = Interval(*sorted((m3, m4)), p2)
        expected = (a.lo_rational <= b.hi_rational
                    and b.lo_rational <= a.hi_rational)
        assert a.overlaps(b) == b.overlaps(a) == expected

    @pytest.mark.parametrize("k,digits", [(41, 400), (120, 400)])
    def test_deep_bound_expansion_matches_fraction_reference(self, k, digits):
        bounds = bounds_at(k, digits)
        for which, enclosure in (("lower", bounds.lower), ("upper", bounds.upper)):
            exp = bound_expansion(k, digits, which)
            assert len(exp.candidates) > 100
            for cand in exp.candidates:
                assert cand.verdict is side_of_reference(cand.convergent.value, enclosure)


# ---------------------------------------------------------------------------
# interval plumbing
# ---------------------------------------------------------------------------

class TestInterval:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Interval(2, 1, 5)
        with pytest.raises(ValueError):
            Interval(0, 1, 0)
        # _replace builds through the same checks
        with pytest.raises(ValueError):
            Interval(1, 2, 5)._replace(lo=3)
        with pytest.raises(ValueError):
            Interval(1, 2, 5)._replace(precision=0)

    def test_zero_width_is_legal(self):
        iv = Interval(31415, 31415, 4)
        assert iv.width == 0
        assert iv.midpoint() == Fraction(31415, 10**4)

    def test_with_precision_up_is_exact(self):
        iv = Interval(333, 334, 3)
        up = iv.with_precision(6)
        assert (up.lo, up.hi) == (333000, 334000)

    def test_with_precision_down_rounds_outward(self):
        iv = Interval(333333, 666666, 6)
        down = iv.with_precision(2)
        assert (down.lo, down.hi) == (33, 67)
        assert down.lo_rational <= iv.lo_rational
        assert down.hi_rational >= iv.hi_rational

    def test_decimal_bounds_at_fewer_digits(self):
        iv = make_interval(Fraction(1, 3), 10)
        assert iv.decimal_bounds(4) == ("0.3333", "0.3334")

    def test_str(self):
        assert str(Interval(-5, 5, 1)) == "[-0.5, 0.5]"


class TestDecimalStr:
    @pytest.mark.parametrize("q,digits,mode,expected", [
        (Fraction(1, 8), 2, "floor", "0.12"),
        (Fraction(1, 8), 2, "ceil", "0.13"),
        (Fraction(1, 8), 2, "nearest", "0.12"),   # tie -> even
        (Fraction(3, 8), 2, "nearest", "0.38"),   # tie -> even
        (Fraction(-1, 3), 4, "floor", "-0.3334"),
        (Fraction(-1, 3), 4, "ceil", "-0.3333"),
        (Fraction(-1, 3), 4, "nearest", "-0.3333"),
        (Fraction(22, 7), 8, "nearest", "3.14285714"),
        (Fraction(5), 0, "nearest", "5"),
    ])
    def test_modes(self, q, digits, mode, expected):
        # decimal_str rounds to nearest; floor and ceil are the outward ends
        # of the tightest enclosure
        if mode == "nearest":
            assert decimal_str(q, digits) == expected
        else:
            lo, hi = make_interval(q, digits).decimal_bounds()
            assert (lo if mode == "floor" else hi) == expected

    def test_nearest_is_the_only_mode(self):
        assert list(inspect.signature(decimal_str).parameters) == ["q", "digits"]

    def test_reads_only_numerator_and_denominator(self):
        conv = Convergent(22, 7, 1)
        assert decimal_str(conv, 8) == decimal_str(Fraction(22, 7), 8)
        assert decimal_str(5, 2) == "5.00"


class TestIntStr:
    """int_str is str, and keeps working past the int-to-str digit limit."""

    @pytest.mark.parametrize("m", [0, 7, -42, 10**20 + 3])
    def test_small_ints_are_str(self, m):
        assert int_str(m) == str(m)

    def test_past_the_default_limit(self):
        assert int_str(10**5000) == "1" + "0" * 5000
        assert int_str(-(10**5000 - 1)) == "-" + "9" * 5000

    def test_mantissa_past_the_default_limit(self):
        q = Fraction(10**5000 // 3, 10**4400)
        assert decimal_str(q, 4400) == "3" * 600 + "." + "3" * 4400
        lo, hi = make_interval(q, 4400).decimal_bounds()
        assert lo == hi == decimal_str(q, 4400)

    def test_fraction_str(self):
        assert fraction_str(Fraction(22, 7)) == "22/7"
        assert fraction_str(Fraction(3)) == "3/1"
        assert fraction_str(Convergent(355, 113, 3)) == "355/113"
        assert fraction_str(Fraction(1, 10**4400)) == "1/1" + "0" * 4400


def test_pi_reference_value():
    assert PI_REFERENCE == Fraction(3141592653589, 10**12)


def test_containment_bulk_random():
    """1000 seeded random triples against the exact Fraction oracle."""
    rng = random.Random(20260809)
    ops = ("add", "sub", "mul", "div")
    checked = 0
    while checked < 1000:
        q1 = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        q2 = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        p = rng.randint(1, 25)
        op = ops[checked % 4]
        a, b = make_interval(q1, p), make_interval(q2, p)
        if op == "div" and b.lo <= 0 <= b.hi:
            continue
        exact = {"add": lambda: q1 + q2, "sub": lambda: q1 - q2,
                 "mul": lambda: q1 * q2, "div": lambda: q1 / q2}[op]()
        assert_contains(interval_arith(op, a, b), exact)
        checked += 1
