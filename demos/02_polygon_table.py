"""The polygon ladder: from the triangle to the 96-gon.

Doubling the side count of inscribed and circumscribed polygons squeezes the
circle's circumference from both sides.  Starting at the triangle, c_3 =
sqrt(27/4) and C_3 = sqrt(27), Archimedes' step (the harmonic mean of c_n and
C_n gives C_2n, then the geometric mean of c_n and C_2n gives c_2n) produces
every later perimeter from square roots and divisions alone; the closed forms
below are the nested square roots it reaches.
"""

from pibounds import bounds_at, eval_radical, ladder, nested_radical_form

print(f"{'n':>5}  {'inscribed c_n':<28} {'closed form':<30} "
      f"{'circumscribed C_n':<28}")
for bounds in ladder(5, 8):
    c_lo, c_hi = bounds.lower.decimal_bounds(8)
    t_lo, t_hi = bounds.upper.decimal_bounds(8)
    form = nested_radical_form(bounds.n, "c").render()
    print(f"{bounds.n:>5}  [{c_lo}, {c_hi}]  {form:<30} [{t_lo}, {t_hi}]")

print()
print("The symbolic column evaluates to the same enclosures:")
for n, k in ((12, 2), (96, 5)):
    sym = eval_radical(nested_radical_form(n, "c"), 12)
    rec = bounds_at(k, 10).lower
    print(f"  n={n}: closed form {sym} vs recurrence {rec}")
    assert sym.overlaps(rec)

print()
print("Both routes agree, and every interval above provably contains the")
print("true perimeter: pi is trapped between the c and C columns.")
