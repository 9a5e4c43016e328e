"""Classical formulas for pi, evaluated exactly in one pass per series.

Five truncation families, each converted to a pi estimate:

  leibniz      pi/4 = 1 - 1/3 + 1/5 - 1/7 + ...          (N summands)
  nilakantha   pi/4 = 3/4 + 1/(2*3*4) - 1/(4*5*6) + ...  (3/4 is term 1)
  brouncker    4/pi = 1 + 1^2/(2 + 3^2/(2 + 5^2/(2 + ...)))  (N levels)
  wallis       pi/2 = (2/1 * 2/3) * (4/3 * 4/5) * ...    (N factor pairs)
  viete        2/pi = (sqrt(2)/2) * (sqrt(2+sqrt(2))/2) * ...  (N factors)

Each formula is one generator of its estimates from its first row, written
beside it in `_PASSES` (N = 1 for Leibniz and Viete, N = 0 for the others).
The running value is the estimate itself (4 S_N for the N-term Leibniz sum,
2 P_N for the N-pair Wallis product), so row N is row N - 1 with one exact
operation: `convergence_report` costs O(N) terms, not O(N^2), and
`iter_report` hands the rows out one at a time as the pass makes them.
Brouncker's row N is 4 S_{N+1} (Euler's identity, proved in `_brouncker`),
so its pass is Leibniz's.  The first four truncations are rational and exact.
Viete's row N, 2 / prod_{j=1..N} cos(90/2**j) = 2**(N+1) sin(90/2**N), is
the inscribed perimeter c_n of the n-gon, n = 2**(N+1): its pass is
`polygon.doublings` seeded at the 4-gon (c_4 = sqrt(8), C_4 = 4), and each
row is that certified interval rounded outward to ``precision`` digits.  A
row holds values only; `SeriesEstimate.cells` writes its text.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count, islice
from typing import NamedTuple

from . import polygon
from .exactnum import (PI_REFERENCE, Interval, Rational, UsageError, _Ratio,
                       decimal_str, fraction_str, int_str, interval_sqrt,
                       make_interval)


class SeriesEstimate(NamedTuple):
    series: str
    terms: int
    estimate: Rational | Interval

    def cells(self, digits: int) -> tuple[str, str]:
        """Estimate and signed error vs `PI_REFERENCE` at ``digits`` places: a
        rational as ``decimal (p/q)``, Viete's interval outward.  The error
        (a Viete row's at its midpoint) is one integer cross-multiplication."""
        est = self.estimate
        if isinstance(est, Interval):
            cell = str(est.with_precision(digits))
            num, den = est.lo + est.hi, 2 * 10**est.precision
        else:
            exact = int_str(est.numerator) if est.denominator == 1 else fraction_str(est)
            cell = f"{decimal_str(est, digits)} ({exact})"
            num, den = est.numerator, est.denominator
        diff = num * PI_REFERENCE.denominator - PI_REFERENCE.numerator * den
        # nearest rounding needs no reduced fraction, so no gcd is taken
        error = decimal_str(_Ratio(abs(diff), den * PI_REFERENCE.denominator), digits)
        return cell, ("+" if diff >= 0 else "-") + error


def _leibniz(precision: int) -> Iterator[Rational]:
    total = Rational(0)
    for i in count():
        total += Rational(4 * (-1) ** i, 2 * i + 1)
        yield total


def _nilakantha(precision: int) -> Iterator[Rational]:
    yield Rational(0)
    total = Rational(3)
    for j in count(1):
        yield total
        total += Rational(4 * (-1) ** (j + 1), 2 * j * (2 * j + 1) * (2 * j + 2))


def _brouncker(precision: int) -> Iterator[Rational]:
    """Leibniz's pass as it is: Brouncker's row N is Leibniz's row N + 1.

    This is Euler's identity (Introductio in analysin infinitorum, 1748,
    ch. 18).  Row N is 4 k_N / h_N, where h_N / k_N is the N-level
    convergent of 1 + 1^2/(2 + 3^2/(2 + ...)), from the forward recurrence
    x_N = 2 x_{N-1} + (2N-1)^2 x_{N-2} with h_{-1} = h_0 = 1, k_{-1} = 0 and
    k_0 = 1.  Let S_m be the m-term Leibniz sum.  Then h_N = (2N+1)!! and
    k_N = h_N S_{N+1}, since both satisfy that recurrence from those values:
    - h: (2N-1)!! (2 + 2N - 1) = (2N+1)!!;
    - k: dividing by (2N-1)!! leaves 2 S_N + (2N-1) S_{N-1} = (2N+1) S_{N+1},
      which holds by S_N = S_{N-1} + e/(2N-1) and S_{N+1} = S_N - e/(2N+1),
      with e = (-1)**(N-1): both sides are (2N+1) S_N - e.
    (They agree at N = -1 and 0 as S_0 = 0 and S_1 = 1.)  So row N,
    4 k_N / h_N = 4 S_{N+1}, is Leibniz's row N + 1.  Brouncker's rows
    therefore alternate around pi as Leibniz's partial sums of an
    alternating series with decreasing terms do: above it for even N, below
    it for odd N.
    """
    return _leibniz(precision)


def _wallis(precision: int) -> Iterator[Rational]:
    product = Rational(2)
    for j in count(1):
        yield product
        product *= Rational(4 * j * j, 4 * j * j - 1)


def _viete(precision: int) -> Iterator[Interval]:
    # row N >= 1 is c_n from the 4-gon, n = 2**(N+1).  c's enclosure widens by
    # under 4.1 units of its last place per row (the bound proved in
    # `polygon.ladder`), so 10 guard digits keep every row within 2 units of
    # ``precision`` to N ~ 10**9
    p = precision + 10
    four_gon = polygon.PolygonBounds(4, interval_sqrt(make_interval(8, p)),
                                     make_interval(4, p))
    for bounds in polygon.doublings(four_gon):
        yield bounds.lower.with_precision(precision)


_PASSES = {"leibniz": (_leibniz, 1), "nilakantha": (_nilakantha, 0),
           "brouncker": (_brouncker, 0), "wallis": (_wallis, 0), "viete": (_viete, 1)}
SERIES_NAMES = tuple(_PASSES)


def _rows(series: str, first: int, precision: int) -> Iterator[SeriesEstimate]:
    """Rows N = first, first + 1, ... of one pass over ``series``.

    The inputs are checked when this is called; rows are computed as read.
    """
    if series not in _PASSES:
        raise UsageError(f"unknown series {series!r}")
    if precision < 1:
        raise UsageError("precision must be >= 1")
    make_pass, min_terms = _PASSES[series]
    if first < min_terms:
        raise UsageError(f"{series} needs terms >= {min_terms}, got {first}")
    estimates = islice(make_pass(precision), first - min_terms, None)
    return (SeriesEstimate(series, n, estimate)
            for n, estimate in enumerate(estimates, first))


def evaluate_series(series: str, terms: int, precision: int) -> SeriesEstimate:
    """Exact truncation of one series, converted to a pi estimate.

    This is row ``terms`` of the series' pass.  ``precision`` sets the Viete
    interval scale; the rational series are exact regardless.
    """
    return next(_rows(series, terms, precision))


def iter_report(series_list: list[str], n_max: int,
                precision: int) -> Iterator[SeriesEstimate]:
    """The rows of `convergence_report`, computed one at a time as read.

    Every input is checked when this is called, before any row is made, so
    a caller can print rows as they come and still fail before printing.
    """
    if n_max < 1:
        raise UsageError(f"n_max must be >= 1, got {n_max}")
    passes = [_rows(series, 1, precision) for series in series_list]
    return (row for rows in passes for row in islice(rows, n_max))


def convergence_report(series_list: list[str], n_max: int,
                       precision: int) -> list[SeriesEstimate]:
    """One row per (series, N) for N = 1..n_max, in the given series order.

    Each series is one pass, one exact operation per row.
    """
    return list(iter_report(series_list, n_max, precision))
