"""Byte-level goldens of the CLI: one SHA-256 per request.

Each request on the grid below is run in-process through `cli.main`, and the
triple (exit code, stdout, stderr) is hashed.  The stored hashes pin every
byte the polygon commands, `cf`, `approx`, the rational series and the
library-level exit-2/3/4 messages print, so a refactor of the arithmetic
underneath them has to reproduce the output exactly.

Viete rows are not on the grid: they are checked for containment and width in
`test_series.py` instead of byte equality.  Argument errors that argparse
itself reports are left out too, since their text follows the interpreter's
argparse version, not this package.

To rewrite the goldens after a deliberate output change:

    PYTHONPATH=src python tests/test_goldens.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from pibounds.cli import main

GOLDENS = Path(__file__).with_name("goldens") / "cli.json"
# a 200-digit decimal literal: ten copies of the digits 31415926535897932384,
# with the point after the first
LONG_LITERAL = "3." + ("31415926535897932384" * 10)[1:]


def requests() -> list[str]:
    """The grid, one space-separated argv per request, in a fixed order."""
    out = []
    for k in (0, 1, 2, 5, 13, 40, 120):
        for d in (1, 8, 50):
            for fmt in ("text", "csv", "json"):
                out.append(f"bounds --doublings {k} --digits {d} --format {fmt}")
                out.append(f"table --max-doublings {k} --digits {d} --format {fmt}")
            out.append(f"export-fig3 --max-doublings {k} --digits {d}")
    # rung counts where the guard digit count len(str(K)) steps up
    for k in (9, 10, 99, 100, 999, 1000):
        for d in (1, 8):
            out.append(f"bounds --doublings {k} --digits {d}")
    for k in (99, 100, 1000):
        out.append(f"export-fig3 --max-doublings {k} --digits 8")
    for k in (0, 5, 41, 120):
        for d in (8, 400):
            out.append(f"cf --from-bound lower --doublings {k} --digits {d}")
            out.append(f"cf --from-bound upper --doublings {k} --digits {d}")
            for cap in (100, 10**6):
                out.append(f"approx --doublings {k} --digits {d} --den-cap {cap}")
    for value in ("3", "3.14", ".5", "007.250", "355.113", LONG_LITERAL):
        out.append(f"cf --value {value}")
    for name in ("leibniz", "nilakantha", "brouncker", "wallis"):
        for n, d in ((30, 8), (30, 30), (1, 1), (60, 200)):
            out.append(f"series --series {name} --terms {n} --digits {d}")
    out += [
        # exit 3: the precision a request needs is over --max-precision
        "table --max-doublings 100000 --digits 5",
        "export-fig3 --max-doublings 100000 --digits 5",
        "bounds --doublings 5 --digits 20 --max-precision 10",
        "bounds --doublings 0 --digits 8 --max-precision 5",
        "export-fig3 --max-doublings 13 --digits 8 --max-precision 25",
        "approx --doublings 13 --digits 8 --max-precision 25",
        "cf --from-bound upper --doublings 13 --digits 8 --max-precision 25",
        # exit 4: no convergent under the cap is certified
        "approx --doublings 0 --digits 8 --den-cap 1",
        "approx --doublings 5 --digits 8 --den-cap 2",
        # exit 2: invalid values that the library rejects
        "bounds --doublings -1",
        "bounds --doublings 3 --digits 0",
        "table --max-doublings 2 --digits 0",
        "table --max-doublings -1 --digits 8",
        "export-fig3 --max-doublings 2 --digits 0",
        "approx --doublings 5 --den-cap 0",
        "cf --value 3.14.5",
        "cf --value 0",
        "cf --value .",
        "cf --value 3.",
        "cf --value 1e3",
        "cf --value 0.000",
        "series --series leibniz --terms 0",
        "series --series wallis --terms 3 --digits 0",
        "bounds --doublings 0 --digits 1 --max-precision -5",
    ]
    return out


def digest(argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    blob = json.dumps([code, out.getvalue(), err.getvalue()], ensure_ascii=False)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_goldens_cover_the_grid():
    assert list(json.loads(GOLDENS.read_text())) == requests()


def test_cli_output_matches_goldens():
    goldens = json.loads(GOLDENS.read_text())
    for argv in requests():
        assert digest(argv) == goldens[argv], f"first differing request: {argv}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps({argv: digest(argv) for argv in requests()},
                                  indent=1) + "\n")
