"""Seeded request lists for the benchmark workloads.

Each workload is a fixed design (which subcommands, formats and size levels
appear, and how often) that the seed fills in: it jitters every size within a
narrow band around its level, picks literals, and shuffles the order.  The design keeps the total cost of a list nearly the same from seed to
seed, so run-to-run spread measures the program, not the draw.  The program
only ever sees the generated ``argv`` lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FORMATS = ("text", "csv", "json")
SERIES = ("leibniz", "nilakantha", "brouncker", "wallis", "viete")

# Why each workload exists; mirrored in BENCHMARK.json.
WHY = {
    "classic_mix": "all six subcommands at the paper's sizes, with fail-fast "
                   "exits 3 and 4; argparse rebuild and rendering in cli dominate",
    "rung_sweep": "table/export-fig3 at K 40-100, digits 100-300: the ladder is "
                  "rerun per row (O(K^2) halve_angle), interval_div bound",
    "deep_certify": "single-rung bounds/approx/cf at k 40-120, digits 400-1000: "
                    "contfrac and side_of Fraction work; ladder reuse is bypassed",
    "series_race": "series reports for all five formulas at N 150-300, Viete at "
                   "~200 digits: the only workload where series does most work",
}


@dataclass(frozen=True)
class Request:
    """One CLI invocation and the exit code it must produce."""

    argv: tuple[str, ...]
    expect: int = 0


def _jitter(rng: random.Random, level: int, spread: int, lo: int, hi: int) -> int:
    return min(hi, max(lo, level + rng.randint(-spread, spread)))


def classic_mix(rng: random.Random, smoke: bool) -> list[Request]:
    ks = range(0, 6) if smoke else range(0, 14)          # k <= 13, n <= 24576
    reps = 1 if smoke else 2
    out: list[Request] = []

    def digits() -> str:
        return str(rng.randint(8, 12))

    for _ in range(reps):
        for k in ks:
            for fmt in FORMATS:
                out.append(Request(("bounds", "--doublings", str(k),
                                    "--digits", digits(), "--format", fmt)))
            out.append(Request(("table", "--max-doublings", str(k),
                                "--digits", digits(),
                                "--format", rng.choice(FORMATS))))
            out.append(Request(("export-fig3", "--max-doublings", str(k),
                                "--digits", digits())))
            out.append(Request(("approx", "--doublings", str(k),
                                "--digits", digits(),
                                "--den-cap", str(int(10 ** rng.uniform(1, 4))))))
            if k >= 2:
                out.append(Request(("cf", "--from-bound", rng.choice(("lower", "upper")),
                                    "--doublings", str(k), "--digits", digits())))
            whole = rng.randint(0, 400)
            frac = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 12)))
            if whole == 0 and int(frac) == 0:
                frac = frac[:-1] + "7"
            out.append(Request(("cf", "--value", f"{whole}.{frac}")))
    # The slowest requests set latency_tail_ms, so the top level is not drawn
    # and comes once per repetition: below 10**9 a mantissa fits one 30-bit
    # digit, and --digits 8 against 12 moves a Viete report by a fifth.
    levels = (5, 15) if smoke else (10, 20, 30, 40, 50)
    for _ in range(reps):
        for name in SERIES:
            for level in levels:
                top = level == levels[-1]
                terms = level if top else _jitter(rng, level, 4, 1, 50)
                out.append(Request(("series", "--series", name, "--terms", str(terms),
                                    "--digits", "12" if top else digits())))
    # Fail-fast requests.  A working precision below the requested digits can
    # never certify a width of 10**-digits (exit 3); no convergent with
    # denominator 1 lies above pi's upper enclosures (exit 4).
    for k in (ks[1], ks[-1]):
        d = rng.randint(8, 12)
        cap = str(rng.randint(1, d - 1))
        out.append(Request(("bounds", "--doublings", str(k), "--digits", str(d),
                            "--max-precision", cap), 3))
        out.append(Request(("table", "--max-doublings", str(k), "--digits", str(d),
                            "--max-precision", cap), 3))
        out.append(Request(("approx", "--doublings", str(k), "--digits", str(d),
                            "--den-cap", "1"), 4))
        out.append(Request(("approx", "--doublings", str(k), "--digits", str(d),
                            "--den-cap", "100", "--max-precision", cap), 3))
    rng.shuffle(out)
    return out


def rung_sweep(rng: random.Random, smoke: bool) -> list[Request]:
    ks, ds = ((4, 8), (20, 30)) if smoke else ((40, 60, 80, 100), (100, 300))
    out = []
    # a checkerboard gives table and export-fig3 every size; formats rotate
    for i, (k_level, d_level) in enumerate((k, d) for k in ks for d in ds):
        k = _jitter(rng, k_level, 1, ks[0], ks[-1])
        d = _jitter(rng, d_level, 3, ds[0], ds[-1])
        if (i + i // len(ds)) % 2:
            argv = ("export-fig3", "--max-doublings", str(k), "--digits", str(d))
        else:
            argv = ("table", "--max-doublings", str(k), "--digits", str(d),
                    "--format", FORMATS[(i // 2) % 3])
        out.append(Request(argv))
    rng.shuffle(out)
    return out


def deep_certify(rng: random.Random, smoke: bool) -> list[Request]:
    ks, ds = ((10, 20), (40, 80)) if smoke else ((40, 120), (400, 1000))
    out = []
    for i, (k_level, d_level) in enumerate((k, d) for k in ks for d in ds):
        k = str(_jitter(rng, k_level, 1, ks[0], ks[-1]))
        d = _jitter(rng, d_level, 4, ds[0], ds[-1])
        cap = str(rng.randint(1, 9) * 10 ** (d // 3))
        out.append(Request(("bounds", "--doublings", k, "--digits", str(d),
                            "--format", FORMATS[i % 3])))
        out.append(Request(("approx", "--doublings", k, "--digits", str(d),
                            "--den-cap", cap)))
        for which in ("lower", "upper"):
            out.append(Request(("cf", "--from-bound", which, "--doublings", k,
                                "--digits", str(d))))
    rng.shuffle(out)
    return out


def series_race(rng: random.Random, smoke: bool) -> list[Request]:
    levels = (10, 20) if smoke else (160, 290)
    out = []
    for name in SERIES:
        for level in levels:
            n = _jitter(rng, level, 2, 1, 300)
            d = (_jitter(rng, 40 if smoke else 200, 3, 10, 400) if name == "viete"
                 else rng.randint(20, 60))
            out.append(Request(("series", "--series", name, "--terms", str(n),
                                "--digits", str(d))))
    rng.shuffle(out)
    return out


GENERATORS = {
    "classic_mix": classic_mix,
    "rung_sweep": rung_sweep,
    "deep_certify": deep_certify,
    "series_race": series_race,
}


def requests_for(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """The workload's request list for ``seed``; same seed, same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), smoke)
