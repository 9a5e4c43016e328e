"""Five classical formulas for pi, racing the polygon ladder.

The sums and products are exact rationals, so they carry no rounding error;
the nested-radical product needs square roots and returns certified intervals
instead.  Each row writes itself (`SeriesEstimate.cells`), with its error
against the 12-digit reference.
"""

from pibounds import bounds_at, convergence_report

REPORT_DIGITS = 10

rows = convergence_report(
    ["leibniz", "nilakantha", "brouncker", "wallis", "viete"],
    n_max=5, precision=REPORT_DIGITS)

print(f"{'series':<12} {'N':>2}  {'estimate':<28} {'error vs reference':>20}")
for row in rows:
    cell, error = row.cells(REPORT_DIGITS)
    print(f"{row.series:<12} {row.terms:>2}  {cell:<28} {error:>20}")

print()
print("For comparison, five doublings of the polygon ladder:")
b = bounds_at(5, REPORT_DIGITS)
print(f"  96-gon bracket: {b.lower} .. {b.upper}")
print()
print("The alternating sum crawls (error ~ 1/N); the polygon ladder and the")
print("nested-radical product both gain a fixed factor per step.")
