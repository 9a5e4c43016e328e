"""Independent correctness oracle for pibounds CLI output.

Nothing here imports pibounds.  Pi comes from Machin's formula in integer
fixed point; polygon perimeters c_n = n sin(pi/n) and C_n = n tan(pi/n) come
from Taylor series in integer fixed point.  Every value is an exact rational
enclosure [lo, hi] with a rigorous error bound, so each check below either
proves the printed claim or reports it as refuted.

``check(argv, rc, expect, out)`` raises ``CheckFailed`` when a response is
wrong: a printed enclosure that misses its true value or is wider than
``--digits`` promises, a rational bound on the wrong side of pi, a continued
fraction that does not reconstruct its input, a series estimate off its exact
truncation, or an unexpected exit code.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple


class CheckFailed(Exception):
    """A response contradicts the oracle."""


class Enclosure(NamedTuple):
    lo: Fraction
    hi: Fraction


def _require(ok: bool, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# pi and perimeters
# ---------------------------------------------------------------------------

def machin_pi(digits: int) -> Enclosure:
    """pi = 16 atan(1/5) - 4 atan(1/239), to ``digits`` decimals, rigorously."""
    scale = 10 ** (digits + 10)

    def atan_inv(x: int) -> tuple[int, int]:
        # power = floor(scale / x**(2i+1)) exactly (nested floors compose);
        # each term is floored once, and the alternating tail is < 1 unit.
        total, power, i = 0, scale // x, 0
        while power:
            term = power // (2 * i + 1)
            total += -term if i % 2 else term
            power //= x * x
            i += 1
        return total, i + 1

    a, err_a = atan_inv(5)
    b, err_b = atan_inv(239)
    mid, err = 16 * a - 4 * b, 16 * err_a + 4 * err_b
    return Enclosure(Fraction(mid - err, scale), Fraction(mid + err, scale))


def _sin_cos(x: int, scale: int) -> tuple[int, int, int]:
    """Taylor sums for sin and cos of x/scale (0 < x/scale < 1) at ``scale``.

    Returns (sin, cos, err): both results lie within err units of the true
    values at the point x/scale.  Each term is one floored product of the
    previous term, so its error stays below 2 units; the tail is < 1 unit.
    """
    x2 = x * x // scale
    sin, term, i = 0, x, 0
    while term:
        sin += -term if i % 2 else term
        term = term * x2 // (scale * (2 * i + 2) * (2 * i + 3))
        i += 1
    cos, term, j = 0, scale, 0
    while term:
        cos += -term if j % 2 else term
        term = term * x2 // (scale * (2 * j + 1) * (2 * j + 2))
        j += 1
    return sin, cos, 2 * max(i, j) + 2


class Oracle:
    """Caches pi and perimeter enclosures at the precisions requests need."""

    def __init__(self, digits: int = 1200) -> None:
        self._pi_digits = 0
        self._pi = Enclosure(Fraction(3), Fraction(4))
        self._perimeters: dict[tuple[int, int], tuple[Enclosure, Enclosure]] = {}
        self.pi(digits)

    def pi(self, digits: int) -> Enclosure:
        if digits > self._pi_digits:
            self._pi_digits = digits + 100
            self._pi = machin_pi(self._pi_digits)
        return self._pi

    def perimeters(self, n: int, digits: int) -> tuple[Enclosure, Enclosure]:
        """Enclosures of c_n = n sin(pi/n) and C_n = n tan(pi/n), n >= 3."""
        key = (n, digits)
        if key not in self._perimeters:
            self._perimeters[key] = self._compute_perimeters(n, digits)
        return self._perimeters[key]

    def _compute_perimeters(self, n: int, digits: int) -> tuple[Enclosure, Enclosure]:
        q = digits + len(str(n)) + 25
        scale = 10 ** q
        pi = self.pi(q + 5)
        x_lo = pi.lo * scale // n                    # floor
        x_hi = -((-pi.hi * scale) // n)              # ceil
        # on (0, pi/3] sin increases and cos decreases
        s_lo, c_at_lo, e1 = _sin_cos(x_lo, scale)
        s_hi, c_at_hi, e2 = _sin_cos(x_hi, scale)
        err = max(e1, e2)
        sin = Enclosure(Fraction(s_lo - err, scale), Fraction(s_hi + err, scale))
        cos = Enclosure(Fraction(c_at_hi - err, scale), Fraction(c_at_lo + err, scale))
        inscribed = Enclosure(n * sin.lo, n * sin.hi)
        if n == 6:                                   # c_6 = 3 exactly
            inscribed = Enclosure(Fraction(3), Fraction(3))
        circumscribed = Enclosure(n * sin.lo / cos.hi, n * sin.hi / cos.lo)
        return inscribed, circumscribed


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _decimal(text: str, digits: int) -> Fraction:
    """A printed decimal with exactly ``digits`` fractional digits."""
    _require(re.fullmatch(rf"-?\d+\.\d{{{digits}}}", text) is not None,
             f"{text[:40]!r} is not a decimal with {digits} places")
    return Fraction(text)


def _fraction(text: str) -> Fraction:
    _require(re.fullmatch(r"\d+(/\d+)?", text) is not None,
             f"{text[:40]!r} is not a fraction p/q")
    return Fraction(text)


def _coefficients(line: str) -> list[int]:
    m = re.fullmatch(r"coefficients = \[(\d+)(?:; ([\d, ]+))?\]", line)
    _require(m is not None, f"bad coefficients line {line[:60]!r}")
    coeffs = [int(m.group(1))]
    if m.group(2):
        coeffs += [int(a) for a in m.group(2).split(", ")]
    return coeffs


def _convergents(coeffs: list[int]) -> list[Fraction]:
    h, h_prev, k, k_prev = 1, 0, 0, 1
    out = []
    for a in coeffs:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        out.append(Fraction(h, k))
    return out


def _options(argv: tuple[str, ...]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

class Checker:
    def __init__(self) -> None:
        self.oracle = Oracle()

    def check(self, argv: tuple[str, ...], rc: int | None, expect: int,
              out: str) -> None:
        _require(rc == expect, f"exit code {rc}, expected {expect}")
        if expect != 0:
            _require(out == "", "a failing request printed to stdout")
            return
        opts = _options(argv)
        handler = getattr(self, "_" + argv[0].replace("-", "_"))
        handler(opts, out.splitlines())

    # -- enclosures ---------------------------------------------------------

    def _contains(self, lo_s: str, hi_s: str, digits: int, true: Enclosure,
                  label: str) -> tuple[Fraction, Fraction]:
        lo, hi = _decimal(lo_s, digits), _decimal(hi_s, digits)
        # a point enclosure is right only for an exact value (c_6 = 3)
        _require(lo < hi or lo == hi == true.lo == true.hi,
                 f"{label}: degenerate enclosure [{lo_s}, {hi_s}]")
        _require(hi - lo <= Fraction(2, 10 ** digits),
                 f"{label}: wider than --digits {digits} promises")
        _require(lo <= true.lo and true.hi <= hi,
                 f"{label}: [{lo_s[:30]}.., {hi_s[:30]}..] misses the true value")
        return lo, hi

    def _row(self, n: int, k: int, digits: int, cells: list[str]) -> None:
        _require(n == 3 * 2 ** k, f"row k={k} has n={n}")
        inscribed, circumscribed = self.oracle.perimeters(n, digits)
        c_lo, _ = self._contains(cells[0], cells[1], digits, inscribed, f"c_{n}")
        _, t_hi = self._contains(cells[2], cells[3], digits, circumscribed, f"C_{n}")
        pi = self.oracle.pi(digits)
        _require(c_lo < pi.lo and pi.hi < t_hi, f"n={n}: rows do not bracket pi")

    def _bounds(self, opts: dict[str, str], lines: list[str]) -> None:
        k, digits = int(opts["--doublings"]), int(opts["--digits"])
        fmt = opts.get("--format", "text")
        if fmt == "csv":
            _require(lines[0] == "n,c_lo,c_hi,C_lo,C_hi" and len(lines) == 2,
                     "bad bounds csv")
            n, *cells = lines[1].split(",")
        elif fmt == "json":
            _require(len(lines) == 1, "bounds json is not one line")
            obj = json.loads(lines[0])
            n, cells = obj["n"], [obj["c_lo"], obj["c_hi"], obj["C_lo"], obj["C_hi"]]
        else:
            m = [re.fullmatch(r"n = (\d+)", lines[0]),
                 re.fullmatch(r"c_n in \[(\S+), (\S+)\]", lines[1]),
                 re.fullmatch(r"C_n in \[(\S+), (\S+)\]", lines[2])]
            _require(all(m) and len(lines) == 3, "bad bounds text")
            n, cells = m[0].group(1), [*m[1].groups(), *m[2].groups()]
        self._row(int(n), k, digits, list(cells))

    def _table(self, opts: dict[str, str], lines: list[str]) -> None:
        kmax, digits = int(opts["--max-doublings"]), int(opts["--digits"])
        fmt = opts.get("--format", "text")
        if fmt == "csv":
            _require(lines[0] == "n,c_form,c_lo,c_hi,C_form,C_lo,C_hi", "bad table csv")
            rows = [line.split(",") for line in lines[1:]]
        elif fmt == "json":
            obj = json.loads("\n".join(lines))
            rows = [[r["n"], r["c_form"], r["c_lo"], r["c_hi"], r["C_form"],
                     r["C_lo"], r["C_hi"]] for r in obj["rows"]]
        else:
            pattern = re.compile(r"(\d+) +(\S+) +\[(\S+), (\S+)\] +(\S+) +\[(\S+), (\S+)\]")
            rows = []
            for line in lines[1:]:
                m = pattern.fullmatch(line)
                _require(m is not None, f"bad table row {line[:60]!r}")
                rows.append(list(m.groups()))
        _require(len(rows) == kmax + 1, f"table has {len(rows)} rows, wanted {kmax + 1}")
        for k, (n, c_form, c_lo, c_hi, t_form, t_lo, t_hi) in enumerate(rows):
            _require(bool(c_form) and bool(t_form), f"row {k}: empty closed form")
            self._row(int(n), k, digits, [c_lo, c_hi, t_lo, t_hi])

    def _export_fig3(self, opts: dict[str, str], lines: list[str]) -> None:
        kmax, digits = int(opts["--max-doublings"]), int(opts["--digits"])
        _require(lines[0] == "n,c_n,c_n_hi,C_n,C_n_hi", "bad export-fig3 header")
        rows, refs = lines[1:kmax + 2], lines[kmax + 2:]
        _require(len(rows) == kmax + 1, "export-fig3 row count")
        for k, line in enumerate(rows):
            n, *cells = line.split(",")
            self._row(int(n), k, digits, cells)
        references = {"22/7": Fraction(22, 7), "223/71": Fraction(223, 71),
                      "245/78": Fraction(245, 78)}
        _require([r.split(",")[0] for r in refs] == [*references, "pi_reference"],
                 "export-fig3 reference rows")
        pi = self.oracle.pi(digits)
        for line in refs:
            label, *cells = line.split(",")
            if label == "pi_reference":
                target, tol = pi.lo, Fraction(1, 10 ** min(digits, 12))
            else:
                target, tol = references[label], Fraction(1, 10 ** digits)
            _require(len(cells) == 4, f"{label}: cell count")
            for cell in cells:
                _require(abs(_decimal(cell, digits) - target) <= tol,
                         f"{label}: {cell} is off")

    # -- continued fractions ------------------------------------------------

    def _verdict(self, conv: Fraction, verdict: str, true: Enclosure,
                 digits: int, label: str) -> None:
        if verdict == "below":
            _require(conv < true.lo, f"{label}: {conv} is not below")
        elif verdict == "above":
            _require(conv > true.hi, f"{label}: {conv} is not above")
        else:
            _require(verdict == "within", f"{label}: verdict {verdict!r}")
            slack = Fraction(1, 10 ** digits)
            _require(true.lo - slack <= conv <= true.hi + slack,
                     f"{label}: {conv} is not within the enclosure")

    def _cf(self, opts: dict[str, str], lines: list[str]) -> None:
        if "--value" in opts:
            text = opts["--value"]
            value = Fraction(text)
            m = re.fullmatch(r"value = (\S+) = (\S+)", lines[0])
            _require(m is not None and m.group(1) == text, "bad cf value line")
            _require(_fraction(m.group(2)) == value, "cf: p/q is not the value")
            coeffs = _coefficients(lines[1])
            convs = _convergents(coeffs)
            _require(convs[-1] == value, "cf: coefficients do not reconstruct the value")
            self._convergent_lines(lines[2:], convs, None)
            return
        which, k = opts["--from-bound"], int(opts["--doublings"])
        digits = int(opts["--digits"])
        n = 3 * 2 ** k
        label = "c_n" if which == "lower" else "C_n"
        _require(lines[0] == f"bound = {which} ({label}), n = {n}, digits = {digits}",
                 f"bad cf header {lines[0][:60]!r}")
        m = re.fullmatch(r"decimal = (\S+) = (\S+)", lines[1])
        _require(m is not None, "bad cf decimal line")
        decimal = _decimal(m.group(1), digits)
        _require(_fraction(m.group(2)) == decimal, "cf: p/q is not the decimal")
        inscribed, circumscribed = self.oracle.perimeters(n, digits)
        true = inscribed if which == "lower" else circumscribed
        self._outward(decimal, which, true)
        coeffs = _coefficients(lines[2])
        convs = _convergents(coeffs)
        _require(convs[-1] == decimal, "cf: coefficients do not reconstruct the decimal")
        verdicts = self._convergent_lines(lines[3:], convs, True)
        for conv, verdict in zip(convs, verdicts):
            self._verdict(conv, verdict, true, digits, f"cf {which} n={n}")

    @staticmethod
    def _outward(decimal: Fraction, which: str, true: Enclosure) -> None:
        if which == "lower":
            _require(decimal <= true.lo, "lower decimal is above c_n")
        else:
            _require(decimal >= true.hi, "upper decimal is below C_n")

    @staticmethod
    def _convergent_lines(lines: list[str], convs: list[Fraction],
                          with_verdicts: bool | None) -> list[str]:
        _require(lines[0] == "convergents:" and len(lines) == len(convs) + 1,
                 "convergent count")
        verdicts = []
        for i, (line, conv) in enumerate(zip(lines[1:], convs)):
            parts = line.split()
            _require(parts[0] == f"{i}:" and _fraction(parts[1]) == conv,
                     f"convergent {i} is wrong")
            if with_verdicts:
                _require(len(parts) == 3, f"convergent {i} has no verdict")
                verdicts.append(parts[2])
        return verdicts

    def _approx(self, opts: dict[str, str], lines: list[str]) -> None:
        k, digits = int(opts["--doublings"]), int(opts["--digits"])
        cap = int(opts["--den-cap"])
        n = 3 * 2 ** k
        _require(len(lines) == 6 and lines[0] == f"n = {n}, den_cap = {cap}",
                 "bad approx header")
        inscribed, circumscribed = self.oracle.perimeters(n, digits)
        for line, which, true in ((lines[1], "lower", inscribed),
                                  (lines[2], "upper", circumscribed)):
            m = re.fullmatch(rf"{which} candidates \(from (\S+)\): (.*)", line)
            _require(m is not None, f"bad {which} candidates line")
            self._outward(_decimal(m.group(1), digits), which, true)
            for item in m.group(2).split("; "):
                parts = item.split(" ")
                conv = _fraction(parts[0])
                over = parts[2:] == ["(over", "cap)"]
                _require(over == (conv.denominator > cap) and len(parts) in (2, 4),
                         f"{which} candidate {parts[0][:30]}: cap flag")
                self._verdict(conv, parts[1], true, digits, f"approx {which} n={n}")
        m_lo = re.fullmatch(r"lower = (\S+) \(certified below the c_n enclosure\)", lines[3])
        m_hi = re.fullmatch(r"upper = (\S+) \(certified above the C_n enclosure\)", lines[4])
        _require(m_lo is not None and m_hi is not None, "bad approx result lines")
        lower, upper = _fraction(m_lo.group(1)), _fraction(m_hi.group(1))
        _require(lines[5] == f"{m_lo.group(1)} < pi < {m_hi.group(1)}", "bad bracket line")
        _require(lower.denominator <= cap and upper.denominator <= cap,
                 "approx: bound over the denominator cap")
        _require(lower < inscribed.lo and upper > circumscribed.hi,
                 "approx: bound not certified against the perimeters")
        pi = self.oracle.pi(digits)
        _require(lower < pi.lo and pi.hi < upper, "approx: p/q < pi < P/Q fails")

    # -- series -------------------------------------------------------------

    def _series(self, opts: dict[str, str], lines: list[str]) -> None:
        name, terms, digits = opts["--series"], int(opts["--terms"]), int(opts["--digits"])
        _require(len(lines) == terms, f"series printed {len(lines)} rows, wanted {terms}")
        pattern = re.compile(rf"{name}  N=(\d+)  (.*)  error=\S+")
        pi = self.oracle.pi(digits)
        exact = _series_partials(name, terms)
        for row, line in enumerate(lines, start=1):
            m = pattern.fullmatch(line)
            _require(m is not None and int(m.group(1)) == row, f"bad series row {row}")
            cell = m.group(2)
            if name == "viete":
                iv = re.fullmatch(r"\[(\S+), (\S+)\]", cell)
                _require(iv is not None, f"viete row {row}: no interval")
                # the N-factor product is exactly 2^(N+1) sin(pi / 2^(N+1))
                truncated, _ = self.oracle.perimeters(2 ** (row + 1), digits)
                lo, hi = _decimal(iv.group(1), digits), _decimal(iv.group(2), digits)
                _require(lo <= truncated.lo and truncated.hi <= hi,
                         f"viete N={row}: interval misses the truncated product")
                _require(lo < pi.lo, f"viete N={row}: interval lies above pi")
                continue
            parts = re.fullmatch(r"(\S+) \((\S+)\)", cell)
            _require(parts is not None, f"{name} row {row}: bad estimate cell")
            value = _fraction(parts.group(2))
            _require(value == exact[row], f"{name} N={row}: estimate is not the truncation")
            _require(abs(_decimal(parts.group(1), digits) - value) <= Fraction(1, 10 ** digits),
                     f"{name} N={row}: decimal does not match the fraction")
            lo_bound, hi_bound = _truncation_bracket(name, row, value)
            _require(lo_bound < pi.lo and pi.hi < hi_bound,
                     f"{name} N={row}: pi escapes the truncation bound")


def _series_partials(name: str, terms: int) -> list[Fraction]:
    """Exact pi estimates after N = 0..terms terms, built incrementally."""
    if name == "viete":
        return []
    out = []
    if name in ("leibniz", "brouncker"):
        # Euler: Brouncker's N-level fraction equals Leibniz's (N+1)-term sum
        shift = 1 if name == "brouncker" else 0
        total = Fraction(0)
        for i in range(terms + 1 + shift):
            if i >= shift:
                out.append(4 * total)
            total += Fraction((-1) ** i, 2 * i + 1)
    elif name == "nilakantha":
        total = Fraction(0)
        out.append(total)
        for j in range(1, terms + 1):
            if j == 1:
                total = Fraction(3)
            else:
                b = 2 * (j - 1)
                total += Fraction(4 if j % 2 == 0 else -4, b * (b + 1) * (b + 2))
            out.append(total)
    else:  # wallis
        product = Fraction(2)
        out.append(product)
        for j in range(1, terms + 1):
            product *= Fraction(4 * j * j, 4 * j * j - 1)
            out.append(product)
    return out


def _truncation_bracket(name: str, n: int, value: Fraction) -> tuple[Fraction, Fraction]:
    """An interval that must contain pi, from the series' known remainder."""
    if name == "wallis":
        # Wallis: S_N < pi <= S_N (2N+1)/(2N)
        return value, value * Fraction(2 * n + 1, 2 * n)
    if name in ("leibniz", "brouncker"):
        m = n + (name == "brouncker")              # summands in the Leibniz sum
        rest = Fraction(4, 2 * m + 1)
        above = m % 2 == 1
    else:  # nilakantha: alternating, next term 4/(b(b+1)(b+2)) with b = 2N
        b = 2 * n
        rest = Fraction(4, b * (b + 1) * (b + 2))
        above = n % 2 == 0
    return (value - rest, value) if above else (value, value + rest)
