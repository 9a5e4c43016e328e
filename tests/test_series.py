"""Tests for the classical series evaluators."""

from __future__ import annotations

from fractions import Fraction

import pytest

from pibounds import polygon as polygon_module
from pibounds.exactnum import (
    PI_REFERENCE,
    Interval,
    UsageError,
    decimal_str,
    interval_add,
    interval_div,
    interval_mul,
    interval_sqrt,
    make_interval,
)
from pibounds.polygon import bounds_at
from pibounds.series import (
    SERIES_NAMES,
    SeriesEstimate,
    convergence_report,
    evaluate_series,
    iter_report,
)


def est(series: str, terms: int, precision: int = 8):
    return evaluate_series(series, terms, precision).estimate


# From-scratch reference evaluators: each call restarts its sum, product or
# radical tower from the first term; Brouncker folds bottom-up in
# `ref_brouncker` and runs its forward recurrence in `ref_brouncker_forward`.


def ref_leibniz(n: int) -> Fraction:
    total = Fraction(0)
    for i in range(n):
        total += Fraction((-1) ** i, 2 * i + 1)
    return 4 * total


def ref_nilakantha(n: int) -> Fraction:
    if n == 0:
        return Fraction(0)
    total = Fraction(3, 4)
    for j in range(2, n + 1):
        base = 2 * (j - 1)
        term = Fraction(1, base * (base + 1) * (base + 2))
        total += term if j % 2 == 0 else -term
    return 4 * total


def ref_brouncker(n: int) -> Fraction:
    tail = Fraction(0)
    for i in range(n, 0, -1):
        tail = Fraction((2 * i - 1) ** 2) / (2 + tail)
    return 4 / (1 + tail)


def ref_brouncker_forward(n: int) -> Fraction:
    """4 k_n / h_n from the convergent recurrence of 1 + 1^2/(2 + 3^2/(2 + ...)),
    x_i = 2 x_{i-1} + (2i-1)^2 x_{i-2}, on unreduced ints; one Fraction, at
    the end.  It does not rely on Euler's identity, as the series does."""
    h_prev, h, k_prev, k = 1, 1, 0, 1
    for i in range(1, n + 1):
        a = (2 * i - 1) ** 2
        h_prev, h = h, 2 * h + a * h_prev
        k_prev, k = k, 2 * k + a * k_prev
    return Fraction(4 * k, h)


def ref_wallis(n: int) -> Fraction:
    product = Fraction(1)
    for j in range(1, n + 1):
        product *= Fraction(4 * j * j, 4 * j * j - 1)
    return 2 * product


def ref_viete(n: int, precision: int) -> Interval:
    two = make_interval(2, precision)
    factor = interval_sqrt(two)
    product = factor
    for _ in range(n - 1):
        factor = interval_sqrt(interval_add(two, factor))
        product = interval_mul(product, factor)
    return interval_div(make_interval(2 ** (n + 1), precision), product)


def error_text(value: Fraction, precision: int) -> str:
    diff = value - PI_REFERENCE
    return ("+" if diff >= 0 else "-") + decimal_str(abs(diff), precision)


def contains_viete_product(iv: Interval, n: int) -> bool:
    """iv contains 2 / prod_{j=1..n} cos(90/2**j) = 2**(n+1) sin(90/2**n),
    taken in mpmath at twice the digits of iv."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(2 * iv.precision + 10):
        exact = 2 ** (n + 1) * mpmath.sin(mpmath.pi / 2 ** (n + 1))
        return iv.lo <= exact * 10**iv.precision <= iv.hi


def check_row(row: SeriesEstimate, series: str, terms: int, precision: int) -> None:
    """A rational row equals the from-scratch reference.  A Viete row
    contains the truncated product (mpmath at twice the digits), lies inside
    the reference's interval and is at most 2 ulps wide."""
    if series != "viete":
        value = {"leibniz": ref_leibniz, "nilakantha": ref_nilakantha,
                 "brouncker": ref_brouncker, "wallis": ref_wallis}[series](terms)
        assert row == SeriesEstimate(series, terms, value)
        assert row.cells(precision)[1] == error_text(value, precision)
        return
    iv = row.estimate
    assert (row.series, row.terms, iv.precision) == (series, terms, precision)
    assert contains_viete_product(iv, terms), (terms, precision)
    ref = ref_viete(terms, precision)
    assert ref.lo <= iv.lo <= iv.hi <= ref.hi, (terms, precision)
    assert iv.hi - iv.lo <= 2, (terms, precision)
    assert row.cells(precision)[1] == error_text(iv.midpoint(), precision)


class TestSinglePass:
    @pytest.mark.parametrize("precision", [1, 12, 200])
    def test_report_matches_from_scratch_reference(self, precision):
        rows = convergence_report(list(SERIES_NAMES), 60, precision)
        assert len(rows) == 300
        expected = [(name, n) for name in SERIES_NAMES for n in range(1, 61)]
        for row, (name, n) in zip(rows, expected):
            check_row(row, name, n, precision)

    @pytest.mark.parametrize("name,terms", [
        *((name, 0) for name in ("nilakantha", "brouncker", "wallis")),
        *((name, n) for name in SERIES_NAMES for n in (1, 7, 120))])
    @pytest.mark.parametrize("precision", [1, 12, 200])
    def test_evaluate_series_is_reference_row(self, name, terms, precision):
        check_row(evaluate_series(name, terms, precision), name, terms, precision)

    def test_viete_report_does_linear_work(self, monkeypatch):
        """One pass: N rows take N halving steps, not N(N+1)/2."""
        calls = 0
        halve_angle = polygon_module.halve_angle

        def counting_halve(state):
            nonlocal calls
            calls += 1
            return halve_angle(state)

        monkeypatch.setattr(polygon_module, "halve_angle", counting_halve)
        rows = convergence_report(["viete"], 200, 50)
        assert len(rows) == 200
        assert calls <= 201

    @pytest.mark.parametrize("name", ["leibniz", "nilakantha", "brouncker", "wallis"])
    def test_rational_report_does_one_operation_per_row(self, name, monkeypatch):
        """One pass: N rows take N Fraction operations, each a full gcd on
        CPython 3.10 and 3.11, not two."""
        calls = 0

        def counting(op):
            def counting_op(*args):
                nonlocal calls
                calls += 1
                return op(*args)
            return counting_op

        for op in ("__add__", "__radd__", "__sub__", "__rsub__",
                   "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(Fraction, op, counting(getattr(Fraction, op)))
        rows = convergence_report([name], 60, 8)
        assert len(rows) == 60
        assert calls <= 61


class TestRationalSeries:
    @pytest.mark.parametrize("terms,expected", [
        (1, Fraction(4)),
        (2, Fraction(8, 3)),
        (3, Fraction(52, 15)),
    ])
    def test_leibniz(self, terms, expected):
        assert est("leibniz", terms) == expected

    @pytest.mark.parametrize("terms,expected", [
        (0, Fraction(0)),
        (1, Fraction(3)),
        (2, Fraction(19, 6)),
        (3, Fraction(47, 15)),
    ])
    def test_nilakantha(self, terms, expected):
        assert est("nilakantha", terms) == expected

    @pytest.mark.parametrize("terms,expected", [
        (0, Fraction(4)),
        (1, Fraction(8, 3)),
        (2, Fraction(52, 15)),
    ])
    def test_brouncker(self, terms, expected):
        assert est("brouncker", terms) == expected

    @pytest.mark.parametrize("terms,expected", [
        (0, Fraction(2)),
        (1, Fraction(8, 3)),
        (2, Fraction(128, 45)),
    ])
    def test_wallis(self, terms, expected):
        assert est("wallis", terms) == expected

    def test_estimates_are_exact_rationals(self):
        for name in ("leibniz", "nilakantha", "brouncker", "wallis"):
            assert isinstance(est(name, 3), Fraction)

    @pytest.mark.parametrize("terms", [0, 1, 2, 300, 2000, 5000])
    def test_brouncker_is_forward_recurrence(self, terms):
        assert est("brouncker", terms) == ref_brouncker_forward(terms)

    def test_brouncker_report_is_forward_recurrence(self):
        rows = list(iter_report(["brouncker"], 400, 8))
        assert [row.terms for row in rows] == list(range(1, 401))
        for row in rows:
            value = ref_brouncker_forward(row.terms)
            assert row == SeriesEstimate("brouncker", row.terms, value)
            assert row.cells(8)[1] == error_text(value, 8)

    def test_brouncker_equals_leibniz_shifted(self):
        """Depth-d truncation collapses to the (d+1)-term alternating sum."""
        for d in range(0, 21):
            assert est("brouncker", d) == est("leibniz", d + 1)

    def test_leibniz_brackets_reference(self):
        for n in range(1, 51):
            value = est("leibniz", n)
            if n % 2:
                assert value > PI_REFERENCE
            else:
                assert value < PI_REFERENCE

    def test_wallis_monotone_below_reference(self):
        prev = est("wallis", 1)
        for n in range(2, 51):
            cur = est("wallis", n)
            assert prev < cur < PI_REFERENCE
            prev = cur


class TestViete:
    @pytest.mark.parametrize("precision", [1, 8, 20, 50])
    def test_rows_contain_product_inside_reference_within_2_ulps(self, precision):
        """Row N, N = 1..200, against the product and the 4-corner reference;
        that reference is 85 ulps wide at N = 40 and 20 digits."""
        for row in convergence_report(["viete"], 200, precision):
            check_row(row, "viete", row.terms, precision)

    def test_returns_interval(self):
        assert isinstance(est("viete", 1, 12), Interval)

    def test_depth_two_value(self):
        iv = est("viete", 2, 12)
        # 8 / (sqrt(2) * sqrt(2 + sqrt(2))) = 3.061467458920...
        v = Fraction(3061467458920, 10**12)
        assert iv.lo_rational - Fraction(1, 10**10) <= v <= iv.hi_rational + Fraction(1, 10**10)

    def test_certified_monotone_increase(self):
        prev = est("viete", 1, 20)
        for n in range(2, 13):
            cur = est("viete", n, 20)
            assert prev.hi_rational < cur.lo_rational
            prev = cur

    def test_below_reference_like_inscribed_polygons(self):
        for n in range(1, 13):
            assert est("viete", n, 20).hi_rational < PI_REFERENCE
        for k in range(0, 9):
            assert bounds_at(k, 12).lower.hi_rational < PI_REFERENCE


class TestCells:
    """`SeriesEstimate.cells`, the one writer of a series row."""

    @pytest.mark.parametrize("digits", [1, 8, 20, 200])
    def test_viete_cells(self, digits):
        for row in convergence_report(["viete"], 300, digits):
            assert row.cells(digits) == (
                str(row.estimate), error_text(row.estimate.midpoint(), digits))

    def test_rational_cells(self):
        assert SeriesEstimate("leibniz", 1, Fraction(4)).cells(3) == \
            ("4.000 (4)", "+0.858")
        assert SeriesEstimate("nilakantha", 3, Fraction(47, 15)).cells(12) == \
            ("3.133333333333 (47/15)", "-0.008259320256")

    def test_sign_of_zero(self):
        below = SeriesEstimate("leibniz", 1, PI_REFERENCE - Fraction(1, 10**20))
        assert below.cells(8)[1] == "-0.00000000"
        assert SeriesEstimate("leibniz", 1, PI_REFERENCE).cells(8)[1] == "+0.00000000"

    @pytest.mark.parametrize("digits", [1, 5, 19])
    def test_viete_cell_below_row_precision_is_outward(self, digits):
        for row in convergence_report(["viete"], 40, 20):
            lo, hi = row.cells(digits)[0].strip("[]").split(", ")
            assert len(lo.split(".")[1]) == len(hi.split(".")[1]) == digits
            assert Fraction(lo) <= row.estimate.lo_rational
            assert row.estimate.hi_rational <= Fraction(hi)

    def test_no_fraction_subtraction_while_writing(self, monkeypatch):
        rows = convergence_report(list(SERIES_NAMES), 300, 12)
        expected = [row.cells(12) for row in rows]

        def refuse(*args):
            raise AssertionError("Fraction subtraction while writing a row")

        monkeypatch.setattr(Fraction, "__sub__", refuse)
        monkeypatch.setattr(Fraction, "__rsub__", refuse)
        assert [row.cells(12) for row in rows] == expected


class TestValidation:
    def test_unknown_series(self):
        with pytest.raises(UsageError, match="unknown series 'machin'"):
            evaluate_series("machin", 3, 8)

    @pytest.mark.parametrize("name,terms", [
        ("leibniz", 0), ("viete", 0), ("nilakantha", -1),
        ("brouncker", -1), ("wallis", -2),
    ])
    def test_bad_term_counts(self, name, terms):
        with pytest.raises(UsageError, match=f"{name} needs terms >= "):
            evaluate_series(name, terms, 8)

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            evaluate_series("leibniz", 3, 0)

    def test_check_order(self):
        """Series name first, then precision, then term count."""
        with pytest.raises(UsageError, match="unknown series 'machin'"):
            evaluate_series("machin", -1, 0)
        with pytest.raises(UsageError, match="precision must be >= 1"):
            evaluate_series("leibniz", 0, 0)
        with pytest.raises(UsageError, match="viete needs terms >= 1, got 0"):
            evaluate_series("viete", 0, 8)


class TestConvergenceReport:
    def test_empty_series_list(self):
        assert convergence_report([], 5, 8) == []

    def test_row_order_and_values(self):
        rows = convergence_report(["leibniz", "wallis"], 3, 8)
        assert [(r.series, r.terms) for r in rows] == [
            ("leibniz", 1), ("leibniz", 2), ("leibniz", 3),
            ("wallis", 1), ("wallis", 2), ("wallis", 3)]
        assert [r.estimate for r in rows[:3]] == \
            [Fraction(4), Fraction(8, 3), Fraction(52, 15)]

    def test_leibniz_error_signs_alternate(self):
        rows = convergence_report(["leibniz"], 4, 8)
        assert [r.cells(8)[1][0] for r in rows] == ["+", "-", "+", "-"]

    def test_viete_rows_increase_toward_pi(self):
        rows = convergence_report(["viete"], 3, 10)
        prefixes = ["2.8284271", "3.0614674", "3.1214451"]
        for row, prefix in zip(rows, prefixes):
            lo, _ = row.estimate.decimal_bounds(7)
            assert lo.startswith(prefix[:9])

    def test_all_names_evaluate(self):
        rows = convergence_report(list(SERIES_NAMES), 2, 8)
        assert len(rows) == 10

    def test_bad_n_max(self):
        with pytest.raises(UsageError, match="n_max must be >= 1, got 0"):
            convergence_report(["leibniz"], 0, 8)

    def test_iter_report_checks_every_input_then_yields_lazily(self):
        with pytest.raises(UsageError, match="n_max"):
            iter_report(["machin"], 0, 8)
        with pytest.raises(UsageError, match="unknown series 'machin'"):
            iter_report(["leibniz", "machin"], 3, 8)
        with pytest.raises(UsageError, match="precision"):
            iter_report(["leibniz"], 3, 0)
        # a billion rows: only a lazy report gets to the first one
        rows = iter_report(["leibniz", "wallis"], 10**9, 8)
        assert next(rows) == convergence_report(["leibniz"], 1, 8)[0]
