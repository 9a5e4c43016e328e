"""Tests for the polygon doubling ladder and the nested-radical closed forms.

The classical 8-decimal perimeter values for n = 3 .. 96 are frozen below;
enclosures must contain each within one unit in the 8th decimal place (the
printing rule of the source table is not specified, so +-1 ulp is the honest
comparison).  Algebraic identities such as cos(15)^2 = (2 + sqrt(3))/4 give
exact, oracle-free brackets for the recurrence outputs.

The sine recurrence that the perimeter kernel replaced is kept below as a
differential reference.
"""

from __future__ import annotations

import math
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
    perimeters,
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


def sine_enclosure(state):
    """sin(180/n) = c_n / n, rounded outward."""
    c = state.c_enc
    return Interval(c.lo // state.n, ceil_div(c.hi, state.n), state.precision)


def sine_from_cosine(cos_enc: Interval) -> Interval:
    """sin = sqrt(1 - cos^2): the direct identity, as a cross-check.

    Not used by the ladder, because of cancellation widening as cos -> 1.
    """
    one = make_interval(1, cos_enc.precision)
    return interval_sqrt(interval_sub(one, interval_mul(cos_enc, cos_enc)))


def pythagorean_sum(state):
    sin = sine_enclosure(state)
    return interval_add(interval_mul(state.cos_enc, state.cos_enc),
                        interval_mul(sin, sin))


# ---------------------------------------------------------------------------
# recurrence
# ---------------------------------------------------------------------------

class TestSeedState:
    def test_cosine_is_exact_half(self):
        s = seed_state(8)
        assert s.k == 0 and s.n == 3
        assert s.cos_enc.decimal_bounds() == ("0.50000000", "0.50000000")

    def test_perimeter_matches_3sqrt3_over_2(self):
        s = seed_state(12)
        assert s.c_enc.contains(Fraction(2598076211353, 10**12))
        # exact bracket: c_3^2 = 27/4, to one unit of the last place
        assert s.c_enc.lo_rational ** 2 <= Fraction(27, 4)
        assert s.c_enc.hi_rational ** 2 >= Fraction(27, 4)
        assert s.c_enc.hi - s.c_enc.lo <= 1

    @pytest.mark.parametrize("p", [1, 2, 8, 20])
    def test_pythagorean_identity(self, p):
        assert pythagorean_sum(seed_state(p)).contains(1)


class TestHalveAngle:
    def test_first_doubling_reaches_hexagon(self):
        s = halve_angle(seed_state(15))
        assert s.n == 6
        # cos(30)^2 = 3/4 exactly
        assert s.cos_enc.lo_rational ** 2 <= Fraction(3, 4) <= s.cos_enc.hi_rational ** 2
        assert s.c_enc.contains(3)

    def test_second_doubling_reaches_dodecagon(self):
        s = halve_angle(halve_angle(seed_state(15)))
        assert s.n == 12
        # cos(15)^2 = (2+sqrt(3))/4, i.e. (4cos^2 - 2)^2 brackets 3
        g = lambda c: (4 * c * c - 2) ** 2
        assert g(s.cos_enc.lo_rational) <= 3 <= g(s.cos_enc.hi_rational)
        # c_12 = 12 sin(15) and sin(15)^2 = (2-sqrt(3))/4, so (2 - c^2/36)^2
        # brackets 3 (decreasing in c)
        h = lambda c: (2 - c * c / 36) ** 2
        assert h(s.c_enc.hi_rational) <= 3 <= h(s.c_enc.lo_rational)
        # the decimals the enclosures certify
        from pibounds.exactnum import decimal_str
        assert decimal_str(s.cos_enc.midpoint(), 8) == "0.96592583"
        assert decimal_str(s.c_enc.midpoint(), 8) == "3.10582854"

    def test_doubling_count(self):
        s = seed_state(25)
        for _ in range(7):
            s = halve_angle(s)
        assert s.k == 7 and s.n == 3 * 2**7

    @pytest.mark.parametrize("k", range(1, 9))
    def test_pythagorean_drift(self, k):
        s = seed_state(30)
        for _ in range(k):
            s = halve_angle(s)
        assert pythagorean_sum(s).contains(1)

    def test_state_stays_in_open_unit_range(self):
        s = seed_state(30)
        for _ in range(10):
            s = halve_angle(s)
            assert 0 < s.cos_enc.lo
            assert s.cos_enc.hi < 10**s.precision  # cos < 1 for k >= 1
            # 0 < c_n < pi < 22/7
            assert 0 < s.c_enc.lo and 7 * s.c_enc.hi < 22 * 10**s.precision

    def test_eq4_cross_check_small_depth(self):
        """sqrt(1 - cos^2) must agree with the propagated c_n / n for k <= 4."""
        s = seed_state(25)
        for _ in range(4):
            s = halve_angle(s)
            assert sine_from_cosine(s.cos_enc).overlaps(sine_enclosure(s))

    def test_tiny_scale_widens_instead_of_degenerating(self):
        """At one working digit the enclosures only widen: c_n / cos' stays
        positive, so no rung degenerates and each still contains pi's bounds."""
        s = seed_state(1)
        for _ in range(8):
            s = halve_angle(s)
            b = perimeters(s)
            assert b.lower.lo_rational <= PI_REFERENCE <= b.upper.hi_rational

    def test_degenerate_cosine_raises(self):
        """A cosine enclosure reaching -1 leaves no positive half-angle cosine."""
        p = 8
        s = seed_state(p)
        bad = polygon_module.AngleState(
            k=s.k, n=s.n, cos_enc=Interval(-10**p, s.cos_enc.hi, p),
            c_enc=s.c_enc, precision=p)
        with pytest.raises(PrecisionExhausted):
            halve_angle(bad)
        with pytest.raises(PrecisionExhausted):
            perimeters(bad)


class TestPerimeters:
    @pytest.mark.parametrize("k,n", [(0, 3), (1, 6), (5, 96)])
    def test_known_values(self, k, n):
        s = seed_state(25)
        for _ in range(k):
            s = halve_angle(s)
        b = perimeters(s)
        assert b.n == n
        c_dec, t_dec = KNOWN_PERIMETERS[n]
        assert encloses_within(b.lower, c_dec)
        assert encloses_within(b.upper, t_dec)

    def test_hexagon_lower_is_exactly_three(self):
        s = halve_angle(seed_state(25))
        assert perimeters(s).lower.contains(3)


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
        c_n under 13(k + 1) wide and C_n under 15(k + 1).  It is what makes
        the per-rung width check unreachable."""
        for max_k in (*range(61), 99, 100, 999, 1000, 3000):
            for k, b in enumerate(ladder(max_k, digits)):
                assert b.lower.hi - b.lower.lo < 13 * (k + 1), (max_k, k)
                assert b.upper.hi - b.upper.lo < 15 * (k + 1), (max_k, k)

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
        def widened(state):
            b = perimeters(state)
            if state.k != 2:
                return b
            p = state.precision
            wide = Interval(b.lower.lo, b.lower.lo + 10 ** (p - 8), p)
            return PolygonBounds(b.n, wide, b.upper)

        monkeypatch.setattr(polygon_module, "perimeters", widened)
        rungs = ladder(4, 8)
        assert [next(rungs).n, next(rungs).n] == [3, 6]
        with pytest.raises(PrecisionExhausted):
            next(rungs)
        with pytest.raises(PrecisionExhausted):
            list(ladder(4, 8))
        self.assert_nothing_printed(capsys)

    def test_degenerate_enclosure_ends_the_pass(self, monkeypatch, capsys):
        def halve(state):
            if state.k == 1:
                raise PrecisionExhausted("forced")
            return halve_angle(state)

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

def generic_halve(state):
    """The half-angle step composed from generic interval operations."""
    p = state.precision
    one, two = make_interval(1, p), make_interval(2, p)
    cos_half = interval_sqrt(interval_div(interval_add(one, state.cos_enc), two))
    return cos_half, interval_div(state.c_enc, cos_half)


def generic_perimeters(state):
    return state.c_enc, interval_div(state.c_enc, state.cos_enc)


def inside(inner: Interval, outer: Interval) -> bool:
    assert inner.precision == outer.precision
    return outer.lo <= inner.lo <= inner.hi <= outer.hi


DIFF_PRECISIONS = [25, 50, 100, 200]


@pytest.mark.parametrize("p", DIFF_PRECISIONS)
def test_fused_kernel_inside_generic_composition(p):
    state = seed_state(p)
    for _ in range(61):
        lower, upper = generic_perimeters(state)
        fused = perimeters(state)
        assert inside(fused.lower, lower) and inside(fused.upper, upper), state.k
        if state.k == 60:
            break
        cos_half, c_half = generic_halve(state)
        state = halve_angle(state)
        assert inside(state.cos_enc, cos_half), state.k
        assert inside(state.c_enc, c_half), state.k


@pytest.mark.parametrize("p", DIFF_PRECISIONS)
def test_fused_kernel_bounds_exact_image_of_input_box(p):
    """Each endpoint bounds the exact image of the whole input box, checked
    in integers: cos' = sqrt((1 + cos)/2), c' = c / cos', C = c / cos.
    Being no wider than the generic path does not show this: a bound that is
    too tight by less than one ulp passes both other checks."""
    s = 10**p
    state = seed_state(p)
    assert state.c_enc.lo**2 * 4 <= 27 * s * s <= state.c_enc.hi**2 * 4
    for _ in range(61):
        cos, c = state.cos_enc, state.c_enc
        b = perimeters(state)
        assert b.lower == c
        assert b.upper.lo * cos.hi <= c.lo * s, state.k
        assert b.upper.hi * cos.lo >= c.hi * s, state.k
        if state.k == 60:
            break
        state = halve_angle(state)
        cos2, c2 = state.cos_enc, state.c_enc
        assert 2 * cos2.lo**2 <= (s + cos.lo) * s, state.k
        assert 2 * cos2.hi**2 >= (s + cos.hi) * s, state.k
        # c2.lo <= c.lo / sqrt((1 + cos.hi)/2), and c2.hi the mirror image
        assert c2.lo**2 * (s + cos.hi) <= 2 * c.lo**2 * s, state.k
        assert c2.hi**2 * (s + cos.lo) >= 2 * c.hi**2 * s, state.k


@pytest.mark.parametrize("p", DIFF_PRECISIONS)
def test_fused_kernel_contains_mpmath_values(p):
    mpmath = pytest.importorskip("mpmath")

    def contains(iv, value):
        # value carries 2p digits; allow its own error, far below one ulp of iv
        scaled = value * mpmath.mpf(10) ** p
        slack = mpmath.mpf(10) ** (-p // 2)
        return iv.lo - slack <= scaled <= iv.hi + slack

    state = seed_state(p)
    with mpmath.workdps(2 * p):
        for k in range(61):
            angle = mpmath.pi / state.n
            cos, sin = mpmath.cos(angle), mpmath.sin(angle)
            b = perimeters(state)
            assert contains(state.cos_enc, cos), k
            assert contains(state.c_enc, state.n * sin), k
            assert contains(b.lower, state.n * sin), k
            assert contains(b.upper, state.n * sin / cos), k
            if k < 60:
                state = halve_angle(state)


# The sine recurrence, sin(x/2) = sin(x) / (2 cos(x/2)) with c_n = n sin,
# whose error n multiplies: the differential reference for the perimeter
# kernel.  A state is the tuple (n, cos, sin, precision).

def sine_seed(p):
    return (3, make_interval(Rational(1, 2), p),
            interval_sqrt(make_interval(Rational(3, 4), p)), p)


def sine_halve(state):
    n, cos, sin, p = state
    s = 10**p
    half = s // 2
    cos_lo = math.isqrt((s + cos.lo) * half)
    cos_hi = isqrt_ceil((s + cos.hi) * half)
    return (2 * n, Interval(cos_lo, cos_hi, p),
            Interval(sin.lo * s // (2 * cos_hi),
                     ceil_div(sin.hi * s, 2 * cos_lo), p), p)


def sine_perimeters(state):
    n, cos, sin, p = state
    s = 10**p
    c_lo, c_hi = n * sin.lo, n * sin.hi
    return (Interval(c_lo, c_hi, p),
            Interval(c_lo * s // cos.hi, ceil_div(c_hi * s, cos.lo), p))


@pytest.mark.parametrize("p", DIFF_PRECISIONS)
def test_perimeter_kernel_against_sine_reference(p):
    """At every rung k <= 60 the cosine is the reference's, and c_n and C_n
    overlap the reference's enclosures and print no wider at any digits."""
    def printed_width(iv, digits):
        scaled = iv.with_precision(digits)
        return scaled.hi - scaled.lo

    state, ref = seed_state(p), sine_seed(p)
    for k in range(61):
        assert state.cos_enc == ref[1], k
        b = perimeters(state)
        for new, old in zip((b.lower, b.upper), sine_perimeters(ref)):
            assert new.overlaps(old), k
            assert new.hi - new.lo <= old.hi - old.lo, k
            for d in range(1, p + 1):
                assert printed_width(new, d) <= printed_width(old, d), (k, d)
        if k < 60:
            state, ref = halve_angle(state), sine_halve(ref)


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
