"""From decimal perimeters to small-denominator brackets of pi.

A continued-fraction expansion turns a decimal into its best rational
approximants.  Feeding it the outward-rounded perimeter decimals and keeping
only convergents certified on the correct side of the enclosure produces
proven brackets like 245/78 < pi < 22/7 -- a sharper lower bound than the
classical 223/71, found purely mechanically.
"""

from fractions import Fraction

from pibounds import (
    Side,
    bounds_at,
    certified_rational_bounds,
    convergents,
    expand,
    parse_decimal,
    side_of,
)

# Warm-up: the expansion machinery on 3.14.
q = parse_decimal("3.14")
cf = expand(q)
print(f"3.14 = {q} has continued fraction {cf}")
print("approximants:", ", ".join(str(c.value) for c in convergents(cf)))
print()

# The real thing: expand the certified 8-digit perimeter decimals of the
# 96-gon and certify each convergent against the enclosures.
result = certified_rational_bounds(k=5, digits=8, den_cap=100)
print(f"96-gon decimals: c >= {result.lower_expansion.decimal_text}, "
      f"C <= {result.upper_expansion.decimal_text}")
print(f"inscribed expansion:    {result.lower_expansion.cf}")
for cand in result.lower_expansion.candidates[:4]:
    print(f"   {str(cand.convergent.value):>12}  {cand.verdict.value}"
          + ("" if cand.within_cap else "  (over cap)"))
print(f"certified bracket: {result.lower} < pi < {result.upper}")
print()

# The classical 223/71 is *valid* (it sits below the inscribed enclosure) but
# it is not a convergent of the 8-digit decimal, and 245/78 beats it.
b96 = bounds_at(5, 8)
assert side_of(Fraction(223, 71), b96.lower) is Side.BELOW
assert Fraction(223, 71) < Fraction(245, 78)
print("223/71 is certified below c_96 too, but 245/78 is closer to pi.")
print()

# Twelve doublings reproduce the famous 355/113 upper bound: the 12288-gon is
# the first whose circumscribed perimeter is certified below it.
deep = certified_rational_bounds(k=12, digits=8, den_cap=200)
assert deep.upper == Fraction(355, 113)
assert side_of(Fraction(355, 113), bounds_at(11, 12).upper) is not Side.ABOVE
print(f"12288-gon bracket under cap 200: {deep.lower} < pi < {deep.upper}")
