"""Tests for the polygon doubling ladder and the nested-radical closed forms.

The classical 8-decimal perimeter values for n = 3 .. 96 are frozen below;
enclosures must contain each within one unit in the 8th decimal place (the
printing rule of the source table is not specified, so +-1 ulp is the honest
comparison).  Algebraic identities such as cos(15)^2 = (2 + sqrt(3))/4, taken
on cos = c_n / C_n, and exact squarings such as C_6^2 = 12 give oracle-free
brackets for the recurrence outputs.

The sine recurrence and the cosine kernel that Archimedes' step replaced are
kept below as differential references, and the step with both ends taken in
full as the oracle of its linear-time upper ends.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import pibounds.polygon as polygon_module
from pibounds.cli import main
from pibounds.exactnum import (
    PI_REFERENCE,
    Interval,
    Rational,
    UsageError,
    ceil_div,
    decimal_str,
    interval_add,
    interval_div,
    interval_mul,
    interval_sqrt,
    interval_sub,
    isqrt_ceil,
    make_interval,
)
from pibounds.polygon import (
    PolygonBounds,
    PrecisionExhausted,
    RadicalExpr,
    ResourceLimit,
    bounds_at,
    eval_radical,
    halve_angle,
    ladder,
    nested_radical_form,
    parse_radical_expr,
    seed_state,
)

# classical 8-decimal perimeters of the inscribed (c) and circumscribed (C)
# n-gons around a unit-diameter circle
KNOWN_PERIMETERS = {
    3: ("2.59807621", "5.19615242"),
    6: ("3.00000000", "3.46410161"),
    12: ("3.10582854", "3.21539031"),
    24: ("3.13262861", "3.15965994"),
    48: ("3.13935020", "3.14608622"),
    96: ("3.14103195", "3.14271460"),
}

KNOWN_FORMS = {
    (3, "c"): "3√3/2",
    (3, "C"): "3√3",
    (6, "c"): "3",
    (6, "C"): "2√3",
    (12, "c"): "12·√(2−√3)/2",
    (12, "C"): "12·√(2−√3)/√(2+√3)",
    (24, "c"): "24·√(2−√(2+√3))/2",
    (24, "C"): "24·√(2−√(2+√3))/√(2+√(2+√3))",
    (48, "c"): "48·√(2−√(2+√(2+√3)))/2",
    (48, "C"): "48·√(2−√(2+√(2+√3)))/√(2+√(2+√(2+√3)))",
    (96, "c"): "96·√(2−√(2+√(2+√(2+√3))))/2",
    (96, "C"): "96·√(2−√(2+√(2+√(2+√3))))/√(2+√(2+√(2+√(2+√3))))",
}


towers = st.lists(st.sampled_from(["+", "-"]), max_size=60).map(tuple)
radical_exprs = st.builds(
    RadicalExpr,
    multiplier=st.integers(min_value=1, max_value=10**6),
    numerator=st.none() | towers,
    denominator=st.integers(min_value=1, max_value=10**6) | towers)


def as_fraction(decimal: str) -> Fraction:
    whole, _, frac = decimal.partition(".")
    return Fraction(int(whole + frac), 10 ** len(frac))


def encloses_within(iv, decimal: str, tol_digits: int = 8) -> bool:
    """Enclosure contains the printed value up to 1 ulp at tol_digits."""
    v = as_fraction(decimal)
    tol = Fraction(1, 10**tol_digits)
    return iv.lo_rational - tol <= v <= iv.hi_rational + tol


def cosine(b):
    """cos(180/n) = c_n / C_n, by the generic interval division."""
    return interval_div(b.lower, b.upper)


def sine_enclosure(b):
    """sin(180/n) = c_n / n, rounded outward."""
    c = b.lower
    return Interval(c.lo // b.n, ceil_div(c.hi, b.n), c.precision)


def sine_from_cosine(cos: Interval) -> Interval:
    """sin = sqrt(1 - cos^2): the direct identity, as a cross-check.

    Not used by the ladder, because of cancellation widening as cos -> 1.
    """
    one = make_interval(1, cos.precision)
    return interval_sqrt(interval_sub(one, interval_mul(cos, cos)))


def pythagorean_sum(b):
    cos, sin = cosine(b), sine_enclosure(b)
    return interval_add(interval_mul(cos, cos), interval_mul(sin, sin))


def brackets(iv: Interval, square: int) -> bool:
    """iv.lo**2 <= square <= iv.hi**2, in integers at iv's scale."""
    s = 10**iv.precision
    return iv.lo**2 <= square * s * s <= iv.hi**2


def doubled(p: int, k: int):
    b = seed_state(p)
    for _ in range(k):
        b = halve_angle(b)
    return b


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

class TestSeedState:
    def test_cosine_is_exact_half(self):
        """cos(60) = 1/2: c_3 / C_3 contains 1/2, and C_3**2 brackets 27."""
        b = seed_state(8)
        assert b.n == 3
        cos = cosine(b)
        assert cos.contains(Fraction(1, 2))
        assert cos.hi - cos.lo <= 3
        assert decimal_str(cos.midpoint(), 7) == "0.5000000"
        assert brackets(b.upper, 27)
        assert b.upper.hi - b.upper.lo == 1

    def test_perimeter_matches_3sqrt3_over_2(self):
        s = seed_state(12)
        assert s.lower.contains(Fraction(2598076211353, 10**12))
        # exact bracket: c_3^2 = 27/4, to one unit of the last place
        assert s.lower.lo_rational ** 2 <= Fraction(27, 4)
        assert s.lower.hi_rational ** 2 >= Fraction(27, 4)
        assert s.lower.hi - s.lower.lo <= 1

    @pytest.mark.parametrize("p", [1, 2, 8, 20])
    def test_pythagorean_identity(self, p):
        assert pythagorean_sum(seed_state(p)).contains(1)


class TestHalveAngle:
    def test_first_doubling_reaches_hexagon(self):
        b = halve_angle(seed_state(15))
        assert b.n == 6
        # cos(30)^2 = 3/4 exactly
        cos = cosine(b)
        assert cos.lo_rational ** 2 <= Fraction(3, 4) <= cos.hi_rational ** 2
        assert b.lower.contains(3)
        # C_6 = 2 sqrt(3)
        assert brackets(b.upper, 12)

    def test_second_doubling_reaches_dodecagon(self):
        b = doubled(15, 2)
        assert b.n == 12
        # cos(15)^2 = (2+sqrt(3))/4, i.e. (4cos^2 - 2)^2 brackets 3
        cos = cosine(b)
        g = lambda c: (4 * c * c - 2) ** 2
        assert g(cos.lo_rational) <= 3 <= g(cos.hi_rational)
        # c_12 = 12 sin(15) and sin(15)^2 = (2-sqrt(3))/4, so (2 - c^2/36)^2
        # brackets 3 (decreasing in c)
        h = lambda c: (2 - c * c / 36) ** 2
        assert h(b.lower.hi_rational) <= 3 <= h(b.lower.lo_rational)
        # C_12 = 12 tan(15) = 12 (2 - sqrt(3)), so (2 - C/12)^2 brackets 3
        t = lambda C: (2 - C / 12) ** 2
        assert t(b.upper.hi_rational) <= 3 <= t(b.upper.lo_rational)
        # the decimals the enclosures certify
        assert decimal_str(cos.midpoint(), 8) == "0.96592583"
        assert decimal_str(b.lower.midpoint(), 8) == "3.10582854"

    def test_doubling_count(self):
        b = doubled(25, 7)
        assert b.n == 3 * 2**7
        assert b.lower.precision == b.upper.precision == 25

    @pytest.mark.parametrize("k", range(1, 9))
    def test_pythagorean_drift(self, k):
        assert pythagorean_sum(doubled(30, k)).contains(1)

    def test_state_stays_in_open_unit_range(self):
        b = seed_state(30)
        for _ in range(10):
            b = halve_angle(b)
            cos = cosine(b)
            assert 0 < cos.lo
            assert cos.hi < 10**cos.precision  # cos < 1 for k >= 1
            # 0 < c_n < pi < 22/7
            assert 0 < b.lower.lo and 7 * b.lower.hi < 22 * 10**b.lower.precision

    def test_eq4_cross_check_small_depth(self):
        """sqrt(1 - cos^2) must agree with the propagated c_n / n for k <= 4."""
        b = seed_state(25)
        for _ in range(4):
            b = halve_angle(b)
            assert sine_from_cosine(cosine(b)).overlaps(sine_enclosure(b))

    def test_tiny_scale_widens_instead_of_degenerating(self):
        """At one working digit the enclosures only widen: the means never
        fall below their smaller argument, so no lower end shrinks below the
        seed's, no rung degenerates and each still contains pi's bounds."""
        b = seed_state(1)
        floor = min(b.lower.lo, b.upper.lo)
        for _ in range(8):
            b = halve_angle(b)
            assert min(b.lower.lo, b.upper.lo) >= floor > 0
            assert b.lower.lo_rational <= PI_REFERENCE <= b.upper.hi_rational

    def test_nonpositive_lower_end_raises(self):
        """A perimeter enclosure reaching 0 leaves no valid rounding direction."""
        b = seed_state(8)
        for end in ("lower", "upper"):
            iv = getattr(b, end)
            for lo in (0, -1, -10**8):
                bad = b._replace(**{end: Interval(lo, iv.hi, iv.precision)})
                with pytest.raises(PrecisionExhausted, match="not positive at n=3$"):
                    halve_angle(bad)

    def test_mismatched_precisions_raise(self):
        """Mantissas at two scales would make an enclosure that looks
        certified but is not."""
        mixed = PolygonBounds(3, seed_state(8).lower, seed_state(9).upper)
        with pytest.raises(UsageError, match="perimeter precisions differ: 8 and 9") as info:
            halve_angle(mixed)
        assert type(info.value) is UsageError
        mixed = PolygonBounds(3, seed_state(9).lower, seed_state(8).upper)
        with pytest.raises(UsageError, match="perimeter precisions differ: 9 and 8"):
            halve_angle(mixed)


class TestPerimeters:
    @pytest.mark.parametrize("k,n", [(0, 3), (1, 6), (5, 96)])
    def test_known_values(self, k, n):
        b = doubled(25, k)
        assert b.n == n
        c_dec, t_dec = KNOWN_PERIMETERS[n]
        assert encloses_within(b.lower, c_dec)
        assert encloses_within(b.upper, t_dec)

    def test_hexagon_lower_is_exactly_three(self):
        assert halve_angle(seed_state(25)).lower.contains(3)


class TestBoundsAt:
    def test_width_postcondition(self):
        for k, d in ((0, 8), (5, 8), (7, 3)):
            b = bounds_at(k, d)
            assert b.lower.width < Fraction(1, 10**d)
            assert b.upper.width < Fraction(1, 10**d)

    def test_bounds_certifiably_separated(self):
        for k in (0, 3, 6):
            b = bounds_at(k, 8)
            assert b.lower.hi_rational < b.upper.lo_rational

    def test_table_row_96(self):
        b = bounds_at(5, 8)
        assert b.n == 96
        assert encloses_within(b.lower, "3.14103195")
        assert encloses_within(b.upper, "3.14271460")

    def test_table_row_3(self):
        b = bounds_at(0, 8)
        assert b.n == 3
        assert encloses_within(b.lower, "2.59807621")
        assert encloses_within(b.upper, "5.19615242")

    def test_deep_doubling_24576(self):
        b = bounds_at(13, 12)
        assert b.n == 24576
        assert encloses_within(b.lower, "3.141592645034", 12)
        assert encloses_within(b.upper, "3.141592670702", 12)

    def test_two_sided_enclosure_of_reference(self):
        for k in range(0, 11):
            b = bounds_at(k, 12)
            assert b.lower.lo_rational <= PI_REFERENCE <= b.upper.hi_rational

    def test_monotone_improvement(self):
        prev = bounds_at(0, 15)
        for k in range(1, 11):
            cur = bounds_at(k, 15)
            assert prev.lower.hi_rational < cur.lower.lo_rational
            assert prev.upper.lo_rational > cur.upper.hi_rational
            prev = cur

    def test_quadratic_convergence_ratio(self):
        gaps = {}
        for k in range(3, 12):
            b = bounds_at(k, 15)
            gaps[k] = b.upper.midpoint() - b.lower.midpoint()
        for k in range(3, 11):
            ratio = gaps[k] / gaps[k + 1]
            assert Fraction(39, 10) <= ratio <= Fraction(41, 10), (k, ratio)

    def test_resource_limit(self):
        with pytest.raises(ResourceLimit):
            bounds_at(0, 8, max_precision=5)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bounds_at(-1, 8)
        with pytest.raises(ValueError):
            bounds_at(0, 0)


class TestLadder:
    def test_one_rung_per_doubling(self):
        rungs = list(ladder(5, 8))
        assert [b.n for b in rungs] == [3, 6, 12, 24, 48, 96]
        for b in rungs:
            assert b.lower.width < Fraction(1, 10**8)
            assert b.upper.width < Fraction(1, 10**8)
        assert rungs[-1] == bounds_at(5, 8)

    @pytest.mark.parametrize("max_k", [0, 5, 13, 40])
    @pytest.mark.parametrize("digits", [1, 3, 8, 12, 50])
    def test_printed_cells_match_bounds_at(self, max_k, digits):
        """Rung k of a deeper pass prints exactly what bounds_at(k) prints,
        although it ran at max_k - k more working digits."""
        def cells(b):
            return b.lower.decimal_bounds(digits) + b.upper.decimal_bounds(digits)
        rungs = list(ladder(max_k, digits))
        assert len(rungs) == max_k + 1
        for k, b in enumerate(rungs):
            assert cells(b) == cells(bounds_at(k, digits)), k

    def test_returns_an_iterator(self):
        rungs = ladder(5, 8)
        assert iter(rungs) is rungs
        assert [next(rungs).n, next(rungs).n] == [3, 6]

    def test_resource_limit_before_any_work(self, monkeypatch):
        def no_work(precision):
            raise AssertionError("the ladder started")
        monkeypatch.setattr(polygon_module, "seed_state", no_work)
        with pytest.raises(ResourceLimit):
            ladder(100000, 5)
        with pytest.raises(ResourceLimit):
            ladder(13, 8, max_precision=25)

    @pytest.fixture
    def precisions(self, monkeypatch):
        """Working precision of each pass, in order."""
        seen = []

        def seed(precision):
            seen.append(precision)
            return seed_state(precision)

        monkeypatch.setattr(polygon_module, "seed_state", seed)
        return seen

    def test_guard_digits_grow_with_log_of_rung_count(self, precisions):
        """digits + 6 + len(str(K)) working digits carry K = 1000 rungs in
        one pass: c's error grows by a few ulps per rung, not by n.  The
        pass is seeded when ladder is called, before any rung is read."""
        rungs = ladder(1000, 8)
        assert precisions == [18]
        rungs = list(rungs)
        assert precisions == [18]
        assert len(rungs) == 1001
        assert all(b.lower.width < Fraction(1, 10**8) and
                   b.upper.width < Fraction(1, 10**8) for b in rungs)

    @pytest.mark.parametrize("digits", [1, 2, 3, 8, 30])
    def test_rung_widths_within_documented_bound(self, digits):
        """The bound in ladder's docstring, in units of the working precision:
        c_n under 4.1(k + 1) wide and C_n under 4.6(k + 1).  It is what makes
        the per-rung width check unreachable."""
        for max_k in (*range(61), 99, 100, 999, 1000, 3000):
            for k, b in enumerate(ladder(max_k, digits)):
                assert 10 * (b.lower.hi - b.lower.lo) < 41 * (k + 1), (max_k, k)
                assert 10 * (b.upper.hi - b.upper.lo) < 46 * (k + 1), (max_k, k)

    FAILING_REQUESTS = [
        "bounds --doublings 4 --digits 8",
        *(f"table --max-doublings 4 --digits 8 --format {fmt}"
          for fmt in ("text", "csv", "json")),
        "export-fig3 --max-doublings 4 --digits 8",
    ]

    def assert_nothing_printed(self, capsys):
        for argv in self.FAILING_REQUESTS:
            assert main(argv.split()) == 3, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: "), argv

    def test_too_wide_rung_raises_before_it_is_yielded(self, monkeypatch, capsys):
        """A rung as wide as 10**-digits ends the pass: no rung wider than the
        limit is ever yielded or printed, and nothing reruns the pass."""
        def widened(bounds):
            b = halve_angle(bounds)
            if b.n != 12:
                return b
            p = b.lower.precision
            wide = Interval(b.lower.lo, b.lower.lo + 10 ** (p - 8), p)
            return PolygonBounds(b.n, wide, b.upper)

        monkeypatch.setattr(polygon_module, "halve_angle", widened)
        rungs = ladder(4, 8)
        assert [next(rungs).n, next(rungs).n] == [3, 6]
        with pytest.raises(PrecisionExhausted):
            next(rungs)
        with pytest.raises(PrecisionExhausted):
            list(ladder(4, 8))
        self.assert_nothing_printed(capsys)

    def test_degenerate_enclosure_ends_the_pass(self, monkeypatch, capsys):
        def halve(bounds):
            if bounds.n == 6:
                raise PrecisionExhausted("forced")
            return halve_angle(bounds)

        monkeypatch.setattr(polygon_module, "halve_angle", halve)
        with pytest.raises(PrecisionExhausted):
            list(ladder(4, 8))
        self.assert_nothing_printed(capsys)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            ladder(-1, 8)
        with pytest.raises(ValueError):
            ladder(3, 0)


# ---------------------------------------------------------------------------
# differential checks of the fused monotone kernel
# ---------------------------------------------------------------------------

def generic_halve(b):
    """The doubling step composed from generic interval operations."""
    c, t = b.lower, b.upper
    two = make_interval(2, c.precision)
    t2 = interval_div(interval_mul(two, interval_mul(c, t)), interval_add(c, t))
    return interval_sqrt(interval_mul(c, t2)), t2


def inside(inner: Interval, outer: Interval) -> bool:
    assert inner.precision == outer.precision
    return outer.lo <= inner.lo <= inner.hi <= outer.hi


DIFF_PRECISIONS = [25, 50, 100, 200]


@pytest.mark.parametrize("p", DIFF_PRECISIONS)
def test_fused_kernel_inside_generic_composition(p):
    b = seed_state(p)
    for k in range(1, 61):
        c_half, t_half = generic_halve(b)
        b = halve_angle(b)
        assert inside(b.lower, c_half) and inside(b.upper, t_half), k


@pytest.mark.parametrize("p", DIFF_PRECISIONS)
def test_fused_kernel_bounds_exact_image_of_input_box(p):
    """Each endpoint is the tight floor or ceiling of the exact image of its
    own corner of the input box, checked in integers: C' = 2 c C / (c + C),
    c' = sqrt(c C').  Being no wider than the generic path does not show
    this: a bound that is too tight by less than one ulp passes both other
    checks."""
    s = 10**p
    b = seed_state(p)
    c, t = b.lower, b.upper
    assert 4 * c.lo**2 <= 27 * s * s <= 4 * c.hi**2
    assert t.lo**2 <= 27 * s * s <= t.hi**2
    for k in range(1, 61):
        b = halve_angle(b)
        c2, t2 = b.lower, b.upper
        assert t2.lo * (c.lo + t.lo) <= 2 * c.lo * t.lo < (t2.lo + 1) * (c.lo + t.lo), k
        assert (t2.hi - 1) * (c.hi + t.hi) < 2 * c.hi * t.hi <= t2.hi * (c.hi + t.hi), k
        assert c2.lo**2 <= c.lo * t2.lo < (c2.lo + 1) ** 2, k
        assert (c2.hi - 1) ** 2 < c.hi * t2.hi <= c2.hi**2, k
        c, t = c2, t2


@pytest.mark.parametrize("p", DIFF_PRECISIONS)
def test_fused_kernel_contains_mpmath_values(p):
    mpmath = pytest.importorskip("mpmath")

    def contains(iv, value):
        # value carries 2p digits; allow its own error, far below one ulp of iv
        scaled = value * mpmath.mpf(10) ** p
        slack = mpmath.mpf(10) ** (-p // 2)
        return iv.lo - slack <= scaled <= iv.hi + slack

    b = seed_state(p)
    with mpmath.workdps(2 * p):
        for k in range(61):
            angle = mpmath.pi / b.n
            cos, sin = mpmath.cos(angle), mpmath.sin(angle)
            assert contains(cosine(b), cos), k
            assert contains(b.lower, b.n * sin), k
            assert contains(b.upper, b.n * sin / cos), k
            if k < 60:
                b = halve_angle(b)


@pytest.mark.parametrize("max_k", [1000, 3000])
@pytest.mark.parametrize("digits", [8, 50])
def test_deep_rungs_contain_mpmath_values(max_k, digits):
    """Every rung of a deep pass contains n sin(pi/n) and n tan(pi/n), taken
    in mpmath at 2p + 10 digits for working precision p."""
    mpmath = pytest.importorskip("mpmath")
    rungs = list(ladder(max_k, digits))
    p = rungs[0].lower.precision
    s = 10**p
    with mpmath.workdps(2 * p + 10):
        for k, b in enumerate(rungs):
            angle = mpmath.pi / b.n
            assert b.lower.lo <= b.n * mpmath.sin(angle) * s <= b.lower.hi, k
            assert b.upper.lo <= b.n * mpmath.tan(angle) * s <= b.upper.hi, k


def half_angle_cosine(cos: Interval) -> Interval:
    """cos(x/2) = sqrt((1 + cos x)/2), each end rounded in its own direction."""
    s = 10**cos.precision
    half = s // 2
    return Interval(math.isqrt((s + cos.lo) * half),
                    isqrt_ceil((s + cos.hi) * half), cos.precision)


def over_cosine(c: Interval, cos: Interval) -> Interval:
    """c / cos for positive c and cos, each end rounded in its own direction."""
    s = 10**c.precision
    return Interval(c.lo * s // cos.hi, ceil_div(c.hi * s, cos.lo), c.precision)


# Two earlier kernels, kept as differential references for Archimedes' step.
# The sine recurrence, sin(x/2) = sin(x) / (2 cos(x/2)) with c_n = n sin,
# whose error n multiplies; its state is (n, cos, sin).  The cosine kernel,
# c_2n = c_n / cos(x/2) and C_n = c_n / cos(x), which carried a cosine no
# output needs and divided a third time per endpoint; its state is (n, cos, c).

def sine_seed(p):
    return (3, make_interval(Rational(1, 2), p),
            interval_sqrt(make_interval(Rational(3, 4), p)))


def sine_halve(state):
    n, cos, sin = state
    s = 10**sin.precision
    cos_half = half_angle_cosine(cos)
    return (2 * n, cos_half,
            Interval(sin.lo * s // (2 * cos_half.hi),
                     ceil_div(sin.hi * s, 2 * cos_half.lo), sin.precision))


def sine_perimeters(state):
    n, cos, sin = state
    c = Interval(n * sin.lo, n * sin.hi, sin.precision)
    return c, over_cosine(c, cos)


def cosine_seed(p):
    return (3, make_interval(Rational(1, 2), p),
            interval_sqrt(make_interval(Rational(27, 4), p)))


def cosine_halve(state):
    n, cos, c = state
    cos_half = half_angle_cosine(cos)
    return (2 * n, cos_half, over_cosine(c, cos_half))


def cosine_perimeters(state):
    n, cos, c = state
    return c, over_cosine(c, cos)


def assert_no_wider(b, reference, k):
    """c_n and C_n overlap the reference's enclosures and are no wider, in
    units of the working precision and printed at any digits."""
    def printed_width(iv, digits):
        scaled = iv.with_precision(digits)
        return scaled.hi - scaled.lo

    for new, old in zip((b.lower, b.upper), reference):
        assert new.overlaps(old), k
        assert new.hi - new.lo <= old.hi - old.lo, k
        for d in range(1, new.precision + 1):
            assert printed_width(new, d) <= printed_width(old, d), (k, d)


@pytest.mark.parametrize("p", DIFF_PRECISIONS)
def test_perimeter_kernel_against_sine_reference(p):
    """At every rung k <= 60, c_n / C_n overlaps the reference's cosine, and
    c_n and C_n overlap the reference's enclosures and print no wider."""
    b, ref = seed_state(p), sine_seed(p)
    for k in range(61):
        assert ref[0] == b.n and cosine(b).overlaps(ref[1]), k
        assert_no_wider(b, sine_perimeters(ref), k)
        if k < 60:
            b, ref = halve_angle(b), sine_halve(ref)


@pytest.mark.parametrize("p", DIFF_PRECISIONS)
def test_perimeter_kernel_against_cosine_reference(p):
    """At every rung k <= 60, c_n and C_n overlap the cosine kernel's and
    are no wider, in ulps and printed at every d in 1..p."""
    b, ref = seed_state(p), cosine_seed(p)
    assert b.lower == ref[2]
    for k in range(61):
        assert ref[0] == b.n, k
        assert_no_wider(b, cosine_perimeters(ref), k)
        if k < 60:
            b, ref = halve_angle(b), cosine_halve(ref)


# ---------------------------------------------------------------------------
# the two-full-ends kernel, kept as the oracle of the linear-time upper ends
# ---------------------------------------------------------------------------

def full_halve(b):
    """Archimedes' step with each end taken in full: two long divisions and
    two integer square roots per rung."""
    c, t = b.lower, b.upper
    t_lo = 2 * c.lo * t.lo // (c.lo + t.lo)
    t_hi = ceil_div(2 * c.hi * t.hi, c.hi + t.hi)
    p = c.precision
    return PolygonBounds(2 * b.n,
                         Interval(math.isqrt(c.lo * t_lo), isqrt_ceil(c.hi * t_hi), p),
                         Interval(t_lo, t_hi, p))


def widened(b, w):
    """``b`` with each end moved w units outward, lower ends kept >= 1."""
    def widen(iv):
        return Interval(max(1, iv.lo - w), iv.hi + w, iv.precision)
    return PolygonBounds(b.n, widen(b.lower), widen(b.upper))


@pytest.mark.parametrize("p", [1, 2, 3, 7, 40, 310, 1007])
def test_kernel_equals_full_ends_kernel(p):
    """Every rung k < 150, and the same boxes widened by 3, 50 and 10**(p/2)
    units, give the mantissas of the two-full-ends kernel."""
    b = seed_state(p)
    for k in range(150):
        for w in (0, 3, 50, 10 ** (p // 2)):
            box = widened(b, w)
            assert halve_angle(box) == full_halve(box), (k, w)
        b = halve_angle(b)


def test_kernel_on_tiny_boxes_reaches_every_branch(monkeypatch):
    """20 000 seeded boxes at precision 1, lower ends 1 to 60 units and up to
    30 units wide, give the mantissas of the two-full-ends kernel.  The upper
    end c_2n.hi = g + e (see halve_angle) takes each way: e0 - 1, e0, and
    the isqrt_ceil fallback when e0**2 >= 2g, which is the only call of
    isqrt_ceil."""
    fallbacks = []

    def counting_isqrt_ceil(n):
        fallbacks.append(n)
        return isqrt_ceil(n)

    monkeypatch.setattr(polygon_module, "isqrt_ceil", counting_isqrt_ceil)
    rng = random.Random(19)
    branches = Counter()
    for _ in range(20000):
        c_lo, t_lo = rng.randint(1, 60), rng.randint(1, 60)
        box = PolygonBounds(3, Interval(c_lo, c_lo + rng.randint(0, 30), 1),
                            Interval(t_lo, t_lo + rng.randint(0, 30), 1))
        calls = len(fallbacks)
        got, want = halve_angle(box), full_halve(box)
        assert got == want, box
        g = want.lower.lo
        e0 = ceil_div(box.lower.hi * want.upper.hi - g * g, 2 * g)
        if e0 * e0 >= 2 * g:
            branch = "fallback"
        else:
            assert want.lower.hi in (g + e0 - 1, g + e0), box
            branch = "e0" if want.lower.hi == g + e0 else "e0 - 1"
        assert (len(fallbacks) > calls) == (branch == "fallback"), box
        branches[branch] += 1
    assert set(branches) == {"fallback", "e0", "e0 - 1"}, branches


def test_one_integer_square_root_per_rung(monkeypatch):
    """Consuming ladder(200, 50) takes 200 + 4 integer square roots: one per
    rung, and two for each of the seed's two perimeters."""
    calls = []
    isqrt = math.isqrt

    def counting_isqrt(n):
        calls.append(n)
        return isqrt(n)

    monkeypatch.setattr(math, "isqrt", counting_isqrt)
    rungs = list(ladder(200, 50))
    assert len(rungs) == 201
    assert len(calls) == 200 + 4


# ---------------------------------------------------------------------------
# nested radicals
# ---------------------------------------------------------------------------

class TestNestedRadicalForm:
    @pytest.mark.parametrize("n,which", sorted(KNOWN_FORMS))
    def test_rendered_strings(self, n, which):
        assert nested_radical_form(n, which).render() == KNOWN_FORMS[(n, which)]

    @pytest.mark.parametrize("n,which", sorted(KNOWN_FORMS))
    def test_render_parse_roundtrip(self, n, which):
        expr = nested_radical_form(n, which)
        text = expr.render()
        assert parse_radical_expr(text) == expr
        assert parse_radical_expr(text).render() == text

    @given(expr=radical_exprs)
    def test_random_render_parse_roundtrip(self, expr):
        assert parse_radical_expr(expr.render()) == expr

    def test_parse_accepts_ascii_minus(self):
        assert (parse_radical_expr("12·√(2-√3)/2")
                == nested_radical_form(12, "c"))
        assert parse_radical_expr("12√3") == RadicalExpr(12, (), 1)
        assert (parse_radical_expr("48·√(2−√(2+√3))/√(2-√(2+√3))")
                == RadicalExpr(48, ("-", "+"), ("-", "+")))

    def test_unsupported_side_counts(self):
        for n in (0, 1, 2, 4, 5, 7, 9, 15, 240):
            with pytest.raises(UsageError,
                               match=rf"side count must be 3 \* 2\*\*k, got {n}$"):
                nested_radical_form(n, "c")

    def test_which_validation(self):
        with pytest.raises(ValueError):
            nested_radical_form(12, "x")

    def test_parse_rejects_garbage(self):
        for text in ("", "12·", "√3", "12·√(2*√3)",
                     "12·√(2+√3", "3/2extra", "12·√(2+√3))",
                     "12·√(2−√(2+√3)", "12/√(2+√3))", "12//2", "·√3",
                     "12·/2"):
            with pytest.raises(UsageError, match="cannot parse radical expression"):
                parse_radical_expr(text)

    def test_radical_node_validation(self):
        # a bad sign, a missing inner tower, a leaf with a tower inside it
        with pytest.raises(ValueError):
            RadicalExpr(1, ("*",), 1)
        with pytest.raises(ValueError):
            RadicalExpr(1, ("+", None), 1)
        with pytest.raises(ValueError):
            RadicalExpr(1, None, (None, "+"))
        # _replace builds through the same checks
        expr = RadicalExpr(12, ("-",), 2)
        with pytest.raises(ValueError, match="tower signs"):
            expr._replace(numerator=("*",))
        with pytest.raises(ValueError, match="tower signs"):
            expr._replace(denominator=("+", "/"))


class TestEvalRadical:
    def test_dodecagon_lower(self):
        iv = eval_radical(nested_radical_form(12, "c"), 12)
        assert encloses_within(iv, "3.10582854")

    def test_48gon_upper(self):
        iv = eval_radical(nested_radical_form(48, "C"), 14)
        assert encloses_within(iv, "3.14608622")

    @pytest.mark.parametrize("n,k", [(3, 0), (6, 1), (12, 2), (24, 3),
                                     (48, 4), (96, 5)])
    def test_overlaps_recurrence(self, n, k):
        b = bounds_at(k, 10)
        assert eval_radical(nested_radical_form(n, "c"), 12).overlaps(b.lower)
        assert eval_radical(nested_radical_form(n, "C"), 12).overlaps(b.upper)

    def test_plain_integer_expression(self):
        iv = eval_radical(RadicalExpr(3, None, 1), 6)
        assert (iv.lo_rational, iv.hi_rational) == (3, 3)

    def test_tiny_precision_still_contains_true_value(self):
        # loose but sound: the p=1 enclosure must overlap a tight one
        loose = eval_radical(nested_radical_form(96, "c"), 1)
        assert loose.overlaps(bounds_at(5, 10).lower)

    def test_deep_tower_k1500(self):
        """Render, parse, compare, hash and evaluate a tower far deeper than
        the call stack."""
        n = 3 * 2**1500
        for which in ("c", "C"):
            expr = nested_radical_form(n, which)
            text = expr.render()
            assert text.count("√") == (3000 if which == "C" else 1500)
            parsed = parse_radical_expr(text)
            assert parsed.render() == text
            assert parsed == expr
            assert hash(parsed) == hash(expr)
            assert repr(parsed)
            iv = eval_radical(parsed, 1200)
            # c_n and C_n are within 10**-900 of pi here
            assert PI_REFERENCE <= iv.lo_rational
            assert iv.hi_rational <= PI_REFERENCE + Fraction(1, 10**12)

    def test_sqrt3_leaf(self):
        iv = eval_radical(RadicalExpr(1, (), 1), 12)
        assert iv.lo_rational ** 2 <= 3 <= iv.hi_rational ** 2


def test_ladder_never_reads_reference_digits():
    source = Path(polygon_module.__file__).read_text()
    assert "PI_REFERENCE" not in source
