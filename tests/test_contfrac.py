"""Tests for continued fractions and the certified rational pi bracket."""

from __future__ import annotations

import decimal
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pibounds.contfrac as contfrac_module
import pibounds.polygon as polygon_module
from pibounds.cli import main
from pibounds.contfrac import (
    ContinuedFraction,
    NoValidBound,
    bound_expansion,
    certified_rational_bounds,
    convergent_texts,
    convergents,
    expand,
    parse_decimal,
    reconstruct,
)
from pibounds.exactnum import (PI_REFERENCE, Interval, Side, UsageError, fraction_str,
                               side_of)
from pibounds.polygon import PolygonBounds, bounds_at

positive_rationals = st.fractions(min_value=Fraction(1, 10**6),
                                  max_value=Fraction(10**6),
                                  max_denominator=10**6)


class TestParseDecimal:
    @pytest.mark.parametrize("text,expected", [
        ("3.14", Fraction(157, 50)),
        ("3", Fraction(3)),
        ("3.14103195", Fraction(314103195, 10**8)),
        (".5", Fraction(1, 2)),
        ("0.25", Fraction(1, 4)),
    ])
    def test_values(self, text, expected):
        assert parse_decimal(text) == expected

    @pytest.mark.parametrize("text", ["", ".", "3.", "1e3", "-2", "+3",
                                      "3.14.5", "a.b", " 3.14", "3,14"])
    def test_malformed(self, text):
        with pytest.raises(UsageError, match="not a plain positive decimal"):
            parse_decimal(text)

    def test_past_the_default_int_digit_limit(self):
        assert parse_decimal("1" * 5000) == (10**5000 - 1) // 9
        assert parse_decimal("." + "0" * 4999 + "5") == Fraction(1, 2 * 10**4999)

    @pytest.mark.parametrize("text", ["0", "0.00", ".0"])
    def test_non_positive(self, text):
        with pytest.raises(UsageError, match="value must be > 0"):
            parse_decimal(text)


class TestExpand:
    def test_157_over_50(self):
        assert expand(Fraction(157, 50)).coeffs == (3, 7, 7)

    def test_eight_digit_inscribed_value(self):
        cf = expand(Fraction(314103195, 10**8))
        assert cf.coeffs == (3, 7, 11, 25, 1, 25, 1, 27, 13)

    def test_integer(self):
        assert expand(Fraction(3)).coeffs == (3,)

    def test_less_than_one(self):
        assert expand(Fraction(1, 2)).coeffs == (0, 2)

    def test_rejects_non_positive(self):
        for q in (Fraction(0), Fraction(-22, 7)):
            with pytest.raises(UsageError, match="can only expand positive rationals"):
                expand(q)

    def test_coefficient_invariants_enforced(self):
        with pytest.raises(ValueError):
            ContinuedFraction(())
        with pytest.raises(ValueError):
            ContinuedFraction((-1, 2))
        with pytest.raises(ValueError):
            ContinuedFraction((3, 0, 2))
        with pytest.raises(ValueError):
            ContinuedFraction((3, 7))._replace(coeffs=())

    def test_str(self):
        assert str(ContinuedFraction((3, 7, 7))) == "[3; 7, 7]"
        assert str(ContinuedFraction((3,))) == "[3]"


class TestConvergents:
    def test_157_over_50(self):
        values = [c.value for c in convergents(expand(Fraction(157, 50)))]
        assert values == [Fraction(3), Fraction(22, 7), Fraction(157, 50)]

    def test_inscribed_96gon_decimal(self):
        values = [c.value for c in convergents(expand(Fraction(314103195, 10**8)))]
        assert values[:4] == [Fraction(3), Fraction(22, 7),
                              Fraction(245, 78), Fraction(6147, 1957)]

    def test_deep_circumscribed_decimal(self):
        values = [c.value for c in convergents(expand(Fraction(314159267, 10**8)))]
        assert values[:4] == [Fraction(3), Fraction(22, 7),
                              Fraction(333, 106), Fraction(355, 113)]

    def test_indices(self):
        convs = convergents(expand(Fraction(157, 50)))
        assert [c.index for c in convs] == [0, 1, 2]

    @given(q=positive_rationals)
    def test_prefix_reconstruction_oracle(self, q):
        """Forward recurrence must equal the bottom-up fold of each prefix."""
        cf = expand(q)
        for conv in convergents(cf):
            prefix = ContinuedFraction(cf.coeffs[:conv.index + 1])
            assert conv.value == reconstruct(prefix)

    @given(q=positive_rationals)
    def test_alternation(self, q):
        convs = convergents(expand(q))
        for conv in convs[:-1]:
            if conv.index % 2 == 0:
                assert conv.value < q
            else:
                assert conv.value > q
        assert convs[-1].value == q

    @given(q=positive_rationals)
    def test_error_strictly_decreases(self, q):
        convs = convergents(expand(q))
        errors = [abs(q - c.value) for c in convs]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    @given(q=positive_rationals)
    def test_denominators_increase(self, q):
        dens = [c.value.denominator for c in convergents(expand(q))]
        assert all(a < b for a, b in zip(dens[1:], dens[2:]))
        if len(dens) > 1:
            assert dens[0] <= dens[1]

    @given(q=positive_rationals)
    def test_coprime_integer_pairs(self, q):
        for conv in convergents(expand(q)):
            h, k = conv.numerator, conv.denominator
            assert k >= 1 and math.gcd(h, k) == 1
            assert conv.value == Fraction(h, k)
            assert (conv.value.numerator, conv.value.denominator) == (h, k)


def per_convergent_texts(cf):
    return [fraction_str(c) for c in convergents(cf)]


class TestConvergentTexts:
    def test_157_over_50(self):
        assert list(convergent_texts(expand(Fraction(157, 50)))) == ["3/1", "22/7", "157/50"]

    @given(q=positive_rationals)
    def test_equal_to_fraction_str_of_each_convergent(self, q):
        cf = expand(q)
        assert list(convergent_texts(cf)) == per_convergent_texts(cf)

    def test_random_rationals(self):
        """a0 = 0, integers, and numerators and denominators up to 10**60."""
        rng = random.Random(19)
        for _ in range(500):
            q = Fraction(rng.randint(1, 10 ** rng.randint(1, 60)),
                         rng.randint(1, 10 ** rng.randint(1, 60)))
            cf = expand(q)
            assert list(convergent_texts(cf)) == per_convergent_texts(cf), q
        for q in (Fraction(1, 7), Fraction(2, 3), Fraction(5), Fraction(10**70)):
            cf = expand(q)
            assert list(convergent_texts(cf)) == per_convergent_texts(cf), q

    def test_past_the_int_digit_limit(self):
        """A coefficient of 4401 digits, and a 5000-digit decimal."""
        big = expand(Fraction(10**4400 + 1, 10**4400 * 7 + 3))
        assert max(big.coeffs) > 10**4300
        rng = random.Random(5000)
        decimal = expand(Fraction(rng.randrange(10**5000, 4 * 10**5000), 10**5000))
        for cf in (big, decimal):
            texts = list(convergent_texts(cf))
            assert texts == per_convergent_texts(cf)
            assert len(texts[-1]) > 4300

    def test_ignores_the_callers_decimal_context(self):
        """Three digits of precision and no traps would round every long
        convergent if the caller's context were used."""
        expansions = (expand(Fraction(157, 50)), bound_expansion(5, 8, "lower").cf,
                      bound_expansion(40, 400, "lower").cf)
        expected = [list(convergent_texts(cf)) for cf in expansions]
        outer, outer_state = decimal.getcontext(), repr(decimal.getcontext())
        with decimal.localcontext(decimal.Context(prec=3, traps=[])) as context:
            assert [list(convergent_texts(cf)) for cf in expansions] == expected
            assert decimal.getcontext() is context
            assert context.prec == 3 and not any(context.flags.values())
        assert decimal.getcontext() is outer and repr(outer) == outer_state


class TestReconstruct:
    def test_golden(self):
        assert reconstruct(ContinuedFraction((3, 7, 7))) == Fraction(157, 50)
        assert reconstruct(ContinuedFraction((3,))) == Fraction(3)

    def test_roundtrip_1000_random_rationals(self):
        rng = random.Random(4059)
        for _ in range(1000):
            q = Fraction(rng.randint(1, 10**9), rng.randint(1, 10**9))
            assert reconstruct(expand(q)) == q

    @given(q=positive_rationals)
    def test_roundtrip_property(self, q):
        assert reconstruct(expand(q)) == q

    @staticmethod
    def fold_reference(cf: ContinuedFraction) -> Fraction:
        """a0 + 1/(a1 + 1/(...)) folded bottom-up in Fractions."""
        value = Fraction(cf.coeffs[-1])
        for a in reversed(cf.coeffs[:-1]):
            value = a + 1 / value
        return value

    @given(coeffs=st.lists(st.integers(1, 10**12), min_size=1, max_size=60),
           a0=st.integers(0, 10**12))
    def test_matches_bottom_up_fold(self, coeffs, a0):
        # any coefficients, a trailing 1 included, not only those expand writes
        for cf in (ContinuedFraction((a0, *coeffs)), ContinuedFraction((a0,))):
            assert reconstruct(cf) == self.fold_reference(cf)

    def test_matches_bottom_up_fold_on_a_deep_bound(self):
        cf = bound_expansion(120, 1000, "lower").cf
        assert len(cf.coeffs) > 1000
        assert reconstruct(cf) == self.fold_reference(cf)


class TestCertifiedRationalBounds:
    def test_classic_bracket(self):
        result = certified_rational_bounds(5, 8, 100)
        assert (result.lower, result.upper) == (Fraction(245, 78), Fraction(22, 7))
        assert result.n == 96

    def test_cap_below_78_falls_back_to_3(self):
        result = certified_rational_bounds(5, 8, 75)
        assert (result.lower, result.upper) == (Fraction(3), Fraction(22, 7))

    def test_cap_7(self):
        result = certified_rational_bounds(5, 8, 7)
        assert (result.lower, result.upper) == (Fraction(3), Fraction(22, 7))

    def test_deep_doubling_finds_355_113(self):
        result = certified_rational_bounds(13, 8, 200)
        assert result.upper == Fraction(355, 113)
        assert result.lower == Fraction(333, 106)
        assert result.n == 24576

    def test_soundness_against_reference(self):
        for k, cap in ((5, 100), (8, 500), (13, 200)):
            result = certified_rational_bounds(k, 12, cap)
            assert result.lower < PI_REFERENCE < result.upper

    def test_no_valid_bound(self):
        # at n=3 no convergent of denominator 1 exceeds the circumscribed bound
        with pytest.raises(NoValidBound):
            certified_rational_bounds(0, 8, 1)

    def test_candidates_annotated(self):
        result = certified_rational_bounds(5, 8, 100)
        lower_cands = result.lower_expansion.candidates
        assert [c.convergent.value for c in lower_cands][:3] == \
            [Fraction(3), Fraction(22, 7), Fraction(245, 78)]
        assert [c.verdict for c in lower_cands][:3] == \
            [Side.BELOW, Side.ABOVE, Side.BELOW]
        assert [c.within_cap for c in lower_cands][:4] == [True, True, True, False]
        assert result.upper_expansion.candidates[1].verdict is Side.ABOVE

    def test_decimals_stay_on_certified_side(self):
        result = certified_rational_bounds(5, 8, 100)
        b = bounds_at(5, 8)
        assert result.lower_expansion.decimal <= b.lower.lo_rational
        assert result.upper_expansion.decimal >= b.upper.hi_rational
        assert result.lower_expansion.decimal_text == "3.14103195"
        assert result.upper_expansion.decimal_text == "3.14271460"

    def test_den_cap_validation(self):
        with pytest.raises(ValueError):
            certified_rational_bounds(5, 8, 0)

    @given(precision=st.integers(1, 30), digits=st.integers(1, 40),
           data=st.data())
    @settings(max_examples=300)
    def test_pick_is_the_last_certified_convergent_under_the_cap(
            self, precision, digits, data):
        """On synthetic enclosures, the bracket is what a scan of every
        convergent finds: the last one with denominator <= cap whose
        ``side_of`` is BELOW the enclosure (lower) or ABOVE it (upper)."""
        lo = data.draw(st.integers(10**precision, 10**(precision + 1)))
        scale = data.draw(st.integers(0, precision))
        enclosure = Interval(lo, lo + data.draw(st.integers(0, 10**scale)),
                             precision)
        rounded = enclosure.with_precision(digits)
        convs = {"lower": convergents(expand(rounded.lo_rational)),
                 "upper": convergents(expand(rounded.hi_rational))}
        dens = sorted({c.denominator for side in convs.values() for c in side})
        # a cap at a denominator, 1 (below every denominator after k_0 = 1,
        # and k_1 when a_1 = 1), above the last one, or anywhere
        cap = data.draw(st.one_of(st.sampled_from(dens), st.just(1),
                                  st.integers(dens[-1], dens[-1] + 10),
                                  st.integers(1, 10**(precision + 2))))
        wanted = {"lower": Side.BELOW, "upper": Side.ABOVE}
        expected = {}
        for which, side_convs in convs.items():
            eligible = [c for c in side_convs if c.denominator <= cap
                        and side_of(c, enclosure) is wanted[which]]
            expected[which] = eligible[-1].value if eligible else None
        polygon = PolygonBounds(n=96, lower=enclosure, upper=enclosure)
        with mock.patch.object(polygon_module, "bounds_at",
                               lambda k, digits, max_precision: polygon):
            missing = [w for w in ("lower", "upper") if expected[w] is None]
            if missing:
                message = (f"no convergent with denominator <= {cap} certified "
                           f"{wanted[missing[0]].value} the {missing[0]} "
                           f"enclosure at n=96")
                with pytest.raises(NoValidBound) as caught:
                    certified_rational_bounds(0, digits, cap)
                assert str(caught.value) == message
                return
            result = certified_rational_bounds(0, digits, cap)
        assert (result.lower, result.upper) == (expected["lower"], expected["upper"])
        for exp in (result.lower_expansion, result.upper_expansion):
            scanned = [c for c in exp.candidates
                       if c.within_cap and c.verdict is wanted[exp.which]]
            assert scanned[-1].convergent.value == expected[exp.which]
            assert [c.within_cap for c in exp.candidates] == \
                [c.denominator <= cap for c in convs[exp.which]]


class TestBoundExpansion:
    def test_lower_coefficients_match_decimal_expansion(self):
        exp = bound_expansion(5, 8, "lower")
        assert exp.cf.coeffs == (3, 7, 11, 25, 1, 25, 1, 27, 13)
        assert exp.n == 96

    def test_which_validation(self):
        with pytest.raises(ValueError):
            bound_expansion(5, 8, "middle")

    @pytest.mark.parametrize("k,digits", [(5, 8), (41, 400), (120, 400)])
    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_parity_certifies_half_the_candidates(self, k, digits, which,
                                                  monkeypatch):
        """A convergent on the far side of the outward decimal is certified
        by its index parity, so side_of runs for about half of them."""
        calls = 0

        def counting_side_of(q, iv):
            nonlocal calls
            calls += 1
            return side_of(q, iv)

        monkeypatch.setattr(contfrac_module, "side_of", counting_side_of)
        exp = bound_expansion(k, digits, which)
        assert calls <= len(exp.candidates) // 2 + 1, (calls, len(exp.candidates))
        far = Side.BELOW if which == "lower" else Side.ABOVE
        assert all(c.verdict is far for c in exp.candidates[:-1]
                   if c.convergent.index % 2 == (which == "upper"))

    def test_last_convergent_at_the_endpoint_is_within(self):
        """The last convergent is the decimal itself; when that decimal is
        the enclosure's endpoint exactly, parity must not certify it."""
        enclosures = {"lower": Interval(314000, 314100, 5),
                      "upper": Interval(314900, 315000, 5)}
        for which, coeffs in (("lower", (3, 7, 7)), ("upper", (3, 6, 1, 2))):
            exp = contfrac_module._expansion(enclosures[which], which, 2, 100, 96)
            assert exp.cf.coeffs == coeffs
            assert len(coeffs) % 2 == (which == "lower")  # last index on the far side
            assert exp.candidates[-1].verdict is Side.WITHIN

    @pytest.mark.parametrize("k,digits", [(41, 400), (120, 1000)])
    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_bisection_bounds_side_of_calls(self, k, digits, which, monkeypatch):
        """Near-side verdicts are found by two bisections, plus one side_of
        for the last convergent."""
        calls = 0

        def counting_side_of(q, iv):
            nonlocal calls
            calls += 1
            return side_of(q, iv)

        monkeypatch.setattr(contfrac_module, "side_of", counting_side_of)
        exp = bound_expansion(k, digits, which)
        n = len(exp.candidates)
        assert calls <= 2 * math.ceil(math.log2(n / 2 + 1)) + 1, (calls, n)
        enclosure = getattr(bounds_at(k, digits), which)
        assert all(c.verdict is side_of(c.convergent, enclosure)
                   for c in exp.candidates)

    def test_no_records_on_the_hot_path(self, monkeypatch, capsys):
        """Expanding, certifying and printing a long list builds no
        Convergent or BoundCandidate; reading ``candidates`` builds them."""
        built = Counter()

        def counting(cls):
            class Counting(cls):
                __slots__ = ()

                def __new__(cls_, *args, **kwargs):
                    built[cls.__name__] += 1
                    return super().__new__(cls_, *args, **kwargs)
            return Counting

        for name in ("Convergent", "BoundCandidate"):
            monkeypatch.setattr(contfrac_module, name,
                                counting(getattr(contfrac_module, name)))
        cap = 10**333
        expansions = [bound_expansion(120, 1000, which)
                      for which in ("lower", "upper")]
        result = certified_rational_bounds(119, 998, cap)
        for which in ("lower", "upper"):
            assert main(["cf", "--from-bound", which, "--doublings", "120",
                         "--digits", "1000"]) == 0
        assert main(["approx", "--doublings", "119", "--digits", "998",
                     "--den-cap", str(cap)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > 2 * 1800 and out.count("(over cap)") > 1800
        assert built == Counter()

        expansions += [result.lower_expansion, result.upper_expansion]
        for exp, k, digits in zip(expansions, (120, 120, 119, 119),
                                  (1000, 1000, 998, 998)):
            enclosure = getattr(bounds_at(k, digits), exp.which)
            cands = exp.candidates
            assert len(cands) > 1800
            assert [c.convergent for c in cands] == convergents(exp.cf)
            assert all(c.verdict is side_of(c.convergent, enclosure) for c in cands)
        assert built["BoundCandidate"] == sum(len(e.cf.coeffs) for e in expansions)

    @given(precision=st.integers(1, 30), digits=st.integers(1, 40),
           data=st.data())
    @settings(max_examples=300)
    def test_every_verdict_is_side_of(self, precision, digits, data):
        lo = data.draw(st.integers(10**precision, 10**(precision + 1)))
        scale = data.draw(st.integers(0, precision))
        enclosure = Interval(lo, lo + data.draw(st.integers(0, 10**scale)),
                             precision)
        for which in ("lower", "upper"):
            exp = contfrac_module._expansion(enclosure, which, digits, 100, 96)
            for c in exp.candidates:
                assert c.verdict is side_of(c.convergent, enclosure), (which, c)

    @pytest.mark.parametrize("which,enclosure,near_verdicts", [
        # odd convergents of 3.14159265 fall toward it: 22/7, 355/113 and
        # 102928/32763 are above 3.141592650100, 411357/130939 lies in the
        # enclosure, 1953857/621932 and the decimal itself are below it
        ("lower", Interval(3141592650001, 3141592650100, 12),
         ["above"] * 3 + ["within"] + ["below"] * 2),
        # even convergents of 3.14159265 rise toward it: up to 308429/98176
        # below 3.141592649990, 1542500/490993 within, 15219499/4844517 above
        ("upper", Interval(3141592649990, 3141592649999, 12),
         ["below"] * 4 + ["within"] + ["above"]),
    ])
    def test_near_side_with_all_three_runs(self, which, enclosure, near_verdicts):
        exp = contfrac_module._expansion(enclosure, which, 8, 100, 96)
        assert exp.decimal_text == "3.14159265"
        assert exp.cf.coeffs == (3, 7, 15, 1, 288, 1, 2, 1, 3, 1, 7, 4)
        near = exp.candidates[(which == "lower")::2]
        assert [c.verdict.value for c in near] == near_verdicts
        assert all(c.verdict is side_of(c.convergent, enclosure)
                   for c in exp.candidates)


def tower_below(radicals: int, r: Fraction) -> bool:
    """T < r exactly, for the tower T = sqrt(2 + sqrt(2 + ... sqrt(3))) of
    ``radicals`` >= 1 square roots: T < r iff r > 0 and the next tower down
    is < r**2 - 2, ending at sqrt(3) < r iff r > 0 and 3 < r**2."""
    for _ in range(radicals - 1):
        if r <= 0:
            return False
        r = r * r - 2
    return r > 0 and 3 < r * r


def exact_side(q: Fraction, k: int, which: str) -> Side:
    """Where q > 0 lies against c_n = n sin(pi/n) ("lower") or
    C_n = n tan(pi/n) ("upper"), n = 3 * 2**k, decided in exact rationals.

    For k >= 2, with T = 2 cos(2 pi/n), the tower of k - 1 radicals (so
    irrational, and no rational equals c_n or C_n):
    q < c_n iff (q/n)**2 < sin**2 = (2 - T)/4 iff T < 2 - (2q/n)**2, and
    q > C_n iff u = (q/n)**2 > tan**2 = (2 - T)/(2 + T) iff
    T > 2(1 - u)/(1 + u).  For k = 0 and 1 the closed forms are squared:
    c_3 = 3 sqrt(3)/2, C_3 = 3 sqrt(3), c_6 = 3 and C_6 = 2 sqrt(3).
    WITHIN is returned only for q = c_6 = 3.
    """
    if k <= 1:
        square = {(0, "lower"): Fraction(27, 4), (0, "upper"): 27,
                  (1, "lower"): 9, (1, "upper"): 12}[k, which]
        if q * q == square:
            return Side.WITHIN
        return Side.BELOW if q * q < square else Side.ABOVE
    n = 3 * 2**k
    if which == "lower":
        below = tower_below(k - 1, 2 - (2 * q / n) ** 2)
        return Side.BELOW if below else Side.ABOVE
    u = (q / n) ** 2
    above = not tower_below(k - 1, 2 * (1 - u) / (1 + u))
    return Side.ABOVE if above else Side.BELOW


class TestExactVerdicts:
    def test_tower_below(self):
        # sqrt(3) = 1.732..., sqrt(2 + sqrt(3)) = 1.9318...
        assert tower_below(1, Fraction(1733, 1000))
        assert not tower_below(1, Fraction(1732, 1000))
        assert not tower_below(1, Fraction(-2))
        assert tower_below(2, Fraction(19319, 10000))
        assert not tower_below(2, Fraction(19318, 10000))
        assert not tower_below(2, Fraction(-19319, 10000))

    @pytest.mark.parametrize("k", range(12))
    @pytest.mark.parametrize("which", ["lower", "upper"])
    def test_every_certified_verdict_is_exact(self, k, which):
        """Every BELOW/ABOVE verdict of a 12-digit expansion agrees with the
        exact comparison against the true perimeter, decided with no
        precision at all."""
        exp = bound_expansion(k, 12, which)
        decided = [c for c in exp.candidates if c.verdict is not Side.WITHIN]
        assert decided
        for c in decided:
            assert exact_side(c.convergent.value, k, which) is c.verdict, (k, c)


class TestClassicChain:
    def test_223_71_and_22_7(self):
        """223/71 < 245/78 < c_96 < C_96 < 22/7, every step certified."""
        b = bounds_at(5, 8)
        assert Fraction(223, 71) < Fraction(245, 78)
        assert side_of(Fraction(223, 71), b.lower) is Side.BELOW
        assert side_of(Fraction(245, 78), b.lower) is Side.BELOW
        assert side_of(Fraction(22, 7), b.upper) is Side.ABOVE

    def test_223_71_is_not_a_convergent_here(self):
        """The historical lower bound does not appear among the convergents of
        the 8-digit inscribed decimal; 245/78 is the pipeline's answer."""
        exp = bound_expansion(5, 8, "lower")
        values = [c.convergent.value for c in exp.candidates]
        assert Fraction(223, 71) not in values
        assert Fraction(245, 78) in values
