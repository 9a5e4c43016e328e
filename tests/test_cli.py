"""CLI tests: command output, exit codes, determinism, format agreement."""

from __future__ import annotations

import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import pibounds
from pibounds import cli, contfrac, polygon, series
from pibounds.cli import EXIT_CODES, main
from pibounds.exactnum import (
    DivisionByZeroInterval,
    NegativeRadicand,
    PiBoundsError,
    UsageError,
    decimal_str,
    fraction_str,
    interval_arith,
    make_interval,
)

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv: str, capsys) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBounds:
    def test_text_96(self, capsys):
        code, out = run_cli("bounds", "--doublings", "5", "--digits", "8",
                            capsys=capsys)
        assert code == 0
        assert "n = 96" in out
        assert "3.14103195" in out
        assert "3.14271460" in out

    def test_text_deep(self, capsys):
        code, out = run_cli("bounds", "--doublings", "13", "--digits", "12",
                            capsys=capsys)
        assert code == 0
        assert "3.141592645034" in out
        assert "3.141592670702" in out

    def test_csv_columns(self, capsys):
        code, out = run_cli("bounds", "--doublings", "1", "--digits", "8",
                            "--format", "csv", capsys=capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["n"] == "6"
        assert set(rows[0]) == {"n", "c_lo", "c_hi", "C_lo", "C_hi"}
        # outward-rounded endpoints straddle the exact perimeter 3
        assert rows[0]["c_lo"] == "2.99999999"
        assert rows[0]["c_hi"] == "3.00000001"
        assert rows[0]["C_lo"] == "3.46410161"

    def test_json_matches_csv(self, capsys):
        code, csv_out = run_cli("bounds", "--doublings", "5", "--format",
                                "csv", capsys=capsys)
        assert code == 0
        code, json_out = run_cli("bounds", "--doublings", "5", "--format",
                                 "json", capsys=capsys)
        assert code == 0
        row = list(csv.DictReader(io.StringIO(csv_out)))[0]
        obj = json.loads(json_out)
        for key in ("c_lo", "c_hi", "C_lo", "C_hi"):
            assert obj[key] == row[key]


class TestTable:
    def test_six_rows_with_symbolic_towers(self, capsys):
        code, out = run_cli("table", "--max-doublings", "5", "--digits", "8",
                            capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7  # header + six rows
        assert "2.59807621" in out and "3.10582854" in out
        assert "3.14103195" in out and "3.14271460" in out
        assert "48·√(2−√(2+√(2+√3)))/2" in out

    def test_enclosures_bracket_the_classical_prints(self, capsys):
        """Each numeric cell is a two-endpoint enclosure containing the
        classical 8-decimal value within one ulp."""
        from fractions import Fraction
        classical = {"3": ("2.59807621", "5.19615242"),
                     "6": ("3.00000000", "3.46410161"),
                     "12": ("3.10582854", "3.21539031"),
                     "96": ("3.14103195", "3.14271460")}
        code, out = run_cli("table", "--max-doublings", "5", "--digits", "8",
                            "--format", "csv", capsys=capsys)
        assert code == 0
        ulp = Fraction(1, 10**8)
        for row in csv.DictReader(io.StringIO(out)):
            if row["n"] not in classical:
                continue
            c_dec, t_dec = classical[row["n"]]
            assert Fraction(row["c_lo"]) - ulp <= Fraction(c_dec) <= Fraction(row["c_hi"]) + ulp
            assert Fraction(row["C_lo"]) - ulp <= Fraction(t_dec) <= Fraction(row["C_hi"]) + ulp

    def test_single_row(self, capsys):
        code, out = run_cli("table", "--max-doublings", "0", capsys=capsys)
        assert code == 0
        assert len(out.splitlines()) == 2
        assert "3√3/2" in out

    def test_format_agreement(self, capsys):
        """csv, json and text renderings carry identical numeric strings."""
        code, text_out = run_cli("table", "--max-doublings", "5",
                                 "--digits", "8", capsys=capsys)
        code_csv, csv_out = run_cli("table", "--max-doublings", "5",
                                    "--digits", "8", "--format", "csv",
                                    capsys=capsys)
        code_json, json_out = run_cli("table", "--max-doublings", "5",
                                      "--digits", "8", "--format", "json",
                                      capsys=capsys)
        assert code == code_csv == code_json == 0
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        json_rows = json.loads(json_out)["rows"]
        assert len(csv_rows) == len(json_rows) == 6
        for crow, jrow in zip(csv_rows, json_rows):
            for key in ("n", "c_form", "c_lo", "c_hi", "C_form", "C_lo", "C_hi"):
                assert crow[key] == str(jrow[key])
            assert crow["c_lo"] in text_out and crow["c_hi"] in text_out
            assert crow["C_lo"] in text_out and crow["C_hi"] in text_out
            assert crow["c_form"] in text_out
            assert crow["C_form"] in text_out


class TestCf:
    def test_value_157_50(self, capsys):
        code, out = run_cli("cf", "--value", "3.14", capsys=capsys)
        assert code == 0
        assert "[3; 7, 7]" in out
        assert "3/1" in out and "22/7" in out and "157/50" in out

    def test_from_lower_bound(self, capsys):
        code, out = run_cli("cf", "--from-bound", "lower", "--doublings", "5",
                            "--digits", "8", capsys=capsys)
        assert code == 0
        assert "[3; 7, 11, 25, 1, 25, 1, 27, 13]" in out
        assert "below" in out and "above" in out

    def test_zu_chongzhi_convergents(self, capsys):
        code, out = run_cli("cf", "--value", "3.14159267", capsys=capsys)
        assert code == 0
        assert "333/106" in out and "355/113" in out

    def test_malformed_decimal_exits_2(self, capsys):
        assert main(["cf", "--value", "3.14.5"]) == 2

    def test_requires_exactly_one_source(self, capsys):
        assert main(["cf", "--value", "3.14", "--from-bound", "lower"]) == 2
        assert main(["cf"]) == 2


class TestApprox:
    def test_classic(self, capsys):
        code, out = run_cli("approx", "--doublings", "5", "--digits", "8",
                            "--den-cap", "100", capsys=capsys)
        assert code == 0
        assert "245/78 < pi < 22/7" in out
        assert "below" in out and "above" in out

    def test_cap_7(self, capsys):
        code, out = run_cli("approx", "--doublings", "5", "--digits", "8",
                            "--den-cap", "7", capsys=capsys)
        assert code == 0
        assert "3/1 < pi < 22/7" in out

    def test_deep(self, capsys):
        code, out = run_cli("approx", "--doublings", "13", "--digits", "8",
                            "--den-cap", "200", capsys=capsys)
        assert code == 0
        assert "upper = 355/113" in out

    def test_no_valid_bound_exits_4(self, capsys):
        assert main(["approx", "--doublings", "0", "--digits", "8",
                     "--den-cap", "1"]) == 4


def per_line_cf(exp: contfrac.BoundExpansion, texts: list[str]) -> str:
    """``cf --from-bound`` stdout, given ``fraction_str`` of each convergent."""
    width = max(map(len, texts))
    label = "c_n" if exp.which == "lower" else "C_n"
    lines = [f"bound = {exp.which} ({label}), n = {exp.n}, digits = {exp.digits}",
             f"decimal = {exp.decimal_text} = {fraction_str(exp.decimal)}",
             f"coefficients = {exp.cf}",
             "convergents:"]
    for cand, text in zip(exp.candidates, texts, strict=True):
        lines.append(f"  {cand.convergent.index}: {text.ljust(width)}  "
                     f"{cand.verdict.value}".rstrip())
    return "\n".join(lines) + "\n"


def per_line_approx(result: contfrac.CertifiedBounds,
                    texts: dict[str, list[str]]) -> str:
    """``approx`` stdout, given ``fraction_str`` of each convergent."""
    def summary(exp):
        return "; ".join(
            f"{text} {cand.verdict.value}{'' if cand.within_cap else ' (over cap)'}"
            for cand, text in zip(exp.candidates, texts[exp.which], strict=True))

    lower, upper = fraction_str(result.lower), fraction_str(result.upper)
    return (f"n = {result.n}, den_cap = {result.den_cap}\n"
            f"lower candidates (from {result.lower_expansion.decimal_text}): "
            f"{summary(result.lower_expansion)}\n"
            f"upper candidates (from {result.upper_expansion.decimal_text}): "
            f"{summary(result.upper_expansion)}\n"
            f"lower = {lower} (certified below the c_n enclosure)\n"
            f"upper = {upper} (certified above the C_n enclosure)\n"
            f"{lower} < pi < {upper}\n")


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, reporting the first difference in a few dozen
    characters rather than a diff of megabytes."""
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        around = slice(max(0, at - 40), at + 40)
        pytest.fail(f"first difference at character {at}: "
                    f"{got[around]!r} != {want[around]!r}")


class TestConvergentText:
    """The convergents' text, made by `contfrac.convergent_texts` as each line
    is written, is the text of ``fraction_str`` of each convergent."""

    @pytest.mark.parametrize("k,digits,den_cap", [(119, 998, 10**333), (5, 4400, 100)])
    def test_same_stdout_as_per_line_fraction_str(self, k, digits, den_cap, capsys):
        """The stdout of the old renderer, which wrote ``fraction_str`` of
        each convergent; at 4400 digits every text is past the limit."""
        texts = {}
        for which in ("lower", "upper"):
            exp = contfrac.bound_expansion(k, digits, which)
            texts[which] = [fraction_str(c.convergent) for c in exp.candidates]
            code, out = run_cli("cf", "--from-bound", which, "--doublings", str(k),
                                "--digits", str(digits), capsys=capsys)
            assert code == 0
            assert_same_text(out, per_line_cf(exp, texts[which]))
        code, out = run_cli("approx", "--doublings", str(k), "--digits", str(digits),
                            "--den-cap", str(den_cap), capsys=capsys)
        assert code == 0
        result = contfrac.certified_rational_bounds(k, digits, den_cap)
        assert_same_text(out, per_line_approx(result, texts))

    @pytest.mark.parametrize("argv", [
        "cf --from-bound lower --doublings 119 --digits 998",
        "cf --from-bound upper --doublings 119 --digits 998",
        "approx --doublings 119 --digits 998 --den-cap 100",
        "cf --value 3." + str(7**1200)[:998],
    ])
    def test_fraction_str_calls_do_not_grow_with_the_list(self, argv, monkeypatch,
                                                          capsys):
        """About 1900 convergents per list, and at most 4 ``fraction_str``
        calls per request: the decimal's and the bracket's."""
        calls = []

        def counting(q):
            calls.append(q)
            return fraction_str(q)

        monkeypatch.setattr(cli, "fraction_str", counting)
        monkeypatch.setattr(contfrac, "fraction_str", counting)
        assert main(argv.split()) == 0
        assert capsys.readouterr().out.count("/") > 1800
        assert len(calls) <= 4


class TestSeriesCmd:
    def test_leibniz_3(self, capsys):
        code, out = run_cli("series", "--series", "leibniz", "--terms", "3",
                            capsys=capsys)
        assert code == 0
        assert "3.46666667 (52/15)" in out
        assert len(out.splitlines()) == 3

    def test_viete_interval_row(self, capsys):
        code, out = run_cli("series", "--series", "viete", "--terms", "2",
                            "--digits", "8", capsys=capsys)
        assert code == 0
        assert "3.0614674" in out

    def test_bad_terms_exit_2(self, capsys):
        assert main(["series", "--series", "leibniz", "--terms", "0"]) == 2

    def test_unknown_series_exit_2(self, capsys):
        assert main(["series", "--series", "machin", "--terms", "3"]) == 2


class TestExportFig3:
    def test_row_counts_and_references(self, capsys):
        code, out = run_cli("export-fig3", "--max-doublings", "5",
                            "--digits", "8", capsys=capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,c_n,c_n_hi,C_n,C_n_hi"
        assert len(lines) == 1 + 6 + 4
        labels = [line.split(",")[0] for line in lines[7:]]
        assert labels == ["22/7", "223/71", "245/78", "pi_reference"]

    def test_96_row_matches_classical_values(self, capsys):
        code, out = run_cli("export-fig3", "--max-doublings", "5",
                            "--digits", "8", capsys=capsys)
        row96 = [line for line in out.splitlines()
                 if line.startswith("96,")][0]
        assert "3.14103195" in row96
        assert "3.14271460" in row96

    def test_reference_values(self, capsys):
        code, out = run_cli("export-fig3", "--max-doublings", "0",
                            "--digits", "8", capsys=capsys)
        ref = {line.split(",")[0]: line.split(",")[1]
               for line in out.splitlines()[2:]}
        assert ref["22/7"] == "3.14285714"
        assert ref["223/71"] == "3.14084507"
        assert ref["245/78"] == "3.14102564"
        assert ref["pi_reference"] == "3.14159265"


class TestRungWriters:
    """bounds, table and export-fig3 write a rung's cells alike."""

    @pytest.mark.parametrize("digits", [1, 8, 50])
    @pytest.mark.parametrize("k", [0, 1, 5, 13])
    def test_the_three_writers_agree(self, k, digits, capsys):
        def out(*argv: str) -> str:
            code, text = run_cli(*argv, "--digits", str(digits), capsys=capsys)
            assert code == 0
            return text

        bounds_csv = out("bounds", "--doublings", str(k), "--format", "csv")
        bounds_json = json.loads(out("bounds", "--doublings", str(k), "--format", "json"))
        fig3 = out("export-fig3", "--max-doublings", str(k)).splitlines()
        table_csv = out("table", "--max-doublings", str(k), "--format", "csv").splitlines()
        table_json = json.loads(out("table", "--max-doublings", str(k),
                                    "--format", "json"))["rows"]

        header, line = bounds_csv.splitlines()
        assert header == "n,c_lo,c_hi,C_lo,C_hi"
        assert line == fig3[1 + k]
        fields = table_csv[1 + k].split(",")
        assert ",".join(fields[i] for i in (0, 2, 3, 5, 6)) == line
        assert {key: bounds_json[key] for key in header.split(",")} == {
            key: value for key, value in table_json[k].items()
            if key not in ("c_form", "C_form")}


class TestClosedPipe:
    def test_reader_closing_stdout_exits_1_without_traceback(self):
        """The output is far larger than a pipe's buffer, so the writer is
        still writing when the reader leaves after one line."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "pibounds", "export-fig3",
             "--max-doublings", "2000", "--digits", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"n,c_n,c_n_hi,C_n,C_n_hi\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""

    @pytest.mark.parametrize("argv", [["--help"], ["cf", "--help"]])
    def test_help_to_a_closed_stdout_exits_1_without_traceback(self, argv):
        """Help is written by argparse, which then exits; stdout is buffered
        (no PYTHONUNBUFFERED), so the write fails only when it is flushed."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        try:
            proc = subprocess.run([sys.executable, "-m", "pibounds", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["bounds"]) == 2
        assert main(["nonsense"]) == 2

    def test_precision_failure_exits_3(self, capsys):
        assert main(["bounds", "--doublings", "0", "--digits", "8",
                     "--max-precision", "5"]) == 3

    def test_negative_doublings_exit_2(self, capsys):
        assert main(["bounds", "--doublings", "-1"]) == 2

    @pytest.mark.parametrize("argv,message", [
        ("bounds --doublings -1", "doubling count must be >= 0"),
        ("bounds --doublings 3 --digits 0", "digits must be >= 1"),
        ("table --max-doublings 2 --digits 0", "digits must be >= 1"),
        ("export-fig3 --max-doublings 2 --digits 0", "digits must be >= 1"),
        ("approx --doublings 5 --den-cap 0", "den_cap must be >= 1"),
        ("series --series leibniz --terms 3 --digits 0", "precision must be >= 1"),
        ("series --series leibniz --terms 0", "n_max must be >= 1, got 0"),
        ("series --series leibniz --terms 0 --digits 0", "n_max must be >= 1, got 0"),
        ("cf --value 3.14.5", "not a plain positive decimal: '3.14.5'"),
        ("cf --value 0", "value must be > 0, got '0'"),
        ("bounds --doublings 0 --digits 1 --max-precision 0",
         "max_precision must be >= 1"),
        ("approx --doublings 5 --max-precision -5", "max_precision must be >= 1"),
    ])
    def test_bad_values_exit_2(self, argv, message, capsys):
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("cls,base,code", [
        (UsageError, ValueError, 2),
        (polygon.PrecisionExhausted, ArithmeticError, 3),
        (polygon.ResourceLimit, RuntimeError, 3),
        (contfrac.NoValidBound, LookupError, 4),
    ])
    def test_error_root(self, cls, base, code):
        """Each reported error sits under PiBoundsError and keeps its stdlib base."""
        assert issubclass(cls, PiBoundsError) and issubclass(cls, base)
        assert EXIT_CODES[cls] == code

    def test_error_root_is_exported_and_excludes_faults(self):
        assert pibounds.PiBoundsError is PiBoundsError
        assert "PiBoundsError" in pibounds.__all__
        assert set(PiBoundsError.__subclasses__()) == set(EXIT_CODES)
        for fault in (NegativeRadicand, DivisionByZeroInterval):
            assert not issubclass(fault, PiBoundsError)

    def test_internal_fault_is_not_a_usage_error(self, monkeypatch):
        """Only UsageError maps to exit 2; any other ValueError propagates."""
        def faulty_ladder(*args):
            raise NegativeRadicand("interval has negative lower endpoint")
        monkeypatch.setattr(polygon, "ladder", faulty_ladder)
        with pytest.raises(NegativeRadicand):
            main(["table", "--max-doublings", "2"])

    @pytest.mark.parametrize("fn,args", [
        (polygon.seed_state, (0,)),
        (make_interval, (1, 0)),
        (decimal_str, (Fraction(1, 3), -1)),
        (interval_arith, ("pow", make_interval(1, 2), make_interval(1, 2))),
        (contfrac.bound_expansion, (5, 8, "middle")),
        (polygon.nested_radical_form, (12, "x")),
        (polygon.parse_radical_expr, ("12/",)),
        (polygon.nested_radical_form, (5, "c")),
        (polygon.ladder, (1, 8, 0)),
        (contfrac.parse_decimal, ("3.",)),
        (contfrac.parse_decimal, ("0.000",)),
        (contfrac.parse_decimal, ("3.14\n",)),
        (contfrac.parse_decimal, ("٣.١٤",)),
        (polygon.parse_radical_expr, ("١٢√3",)),
        (contfrac.expand, (Fraction(0),)),
        (series.evaluate_series, ("pi", 3, 8)),
        (series.evaluate_series, ("viete", 0, 8)),
        (series.iter_report, (["leibniz"], 0, 8)),
    ], ids=["seed_state", "make_interval", "decimal_str", "interval_arith",
            "bound_expansion", "nested_radical_form", "parse_radical_expr",
            "side_count", "max_precision", "malformed_decimal", "zero_decimal",
            "trailing_newline_decimal", "non_ascii_decimal", "non_ascii_radical",
            "expand_zero", "series_name", "term_count", "n_max"])
    def test_argument_checks_raise_usage_error(self, fn, args):
        """Every argument check raises UsageError itself, not a subclass."""
        with pytest.raises(UsageError) as exc_info:
            fn(*args)
        assert type(exc_info.value) is UsageError

    def test_huge_table_fails_fast(self, capsys):
        """The precision a table needs is known before any rung is computed."""
        start = time.perf_counter()
        code, out = run_cli("table", "--max-doublings", "100000",
                            "--digits", "5", capsys=capsys)
        assert code == 3 and out == ""
        assert time.perf_counter() - start < 1.0

    def test_failed_export_prints_nothing(self, capsys):
        code, out = run_cli("export-fig3", "--max-doublings", "13",
                            "--digits", "8", "--max-precision", "25",
                            capsys=capsys)
        assert code == 3 and out == ""


class TestSharedParser:
    ARGVS = (("bounds", "--doublings", "5", "--format", "json"),
             ("table", "--max-doublings", "4", "--format", "text"),
             ("export-fig3", "--max-doublings", "3"),
             ("approx", "--doublings", "5"),
             ("cf", "--from-bound", "upper", "--doublings", "4"),
             ("cf", "--value", "3.14159"),
             ("series", "--series", "viete", "--terms", "5"))

    def test_requests_leave_no_cyclic_garbage(self, capsys):
        """Nothing a request leaves behind waits for the cyclic collector.

        A parser built per call left hundreds of objects in cycles, and the
        collections they set off were pauses inside later requests.
        """
        for argv in self.ARGVS:
            main(list(argv))
        gc.collect()
        gc.disable()
        try:
            for argv in self.ARGVS:
                assert main(list(argv)) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_errors_leave_the_parser_usable(self, capsys):
        first = run_cli(*self.ARGVS[1], capsys=capsys)
        assert main(["table", "--max-doublings", "x"]) == 2
        assert main(["table"]) == 2
        assert main(["cf", "--value", "3", "--from-bound", "upper"]) == 2
        capsys.readouterr()
        assert run_cli(*self.ARGVS[1], capsys=capsys) == first

    def test_handler_is_looked_up_per_call(self, monkeypatch, capsys):
        """A cmd_* function replaced after the parser was built is the one
        that runs, as span tracing (bench/tracing.py) needs."""
        main(["bounds", "--doublings", "1"])
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: print("patched"))
        capsys.readouterr()
        assert run_cli("bounds", "--doublings", "1", capsys=capsys) == (0, "patched\n")


class TestDeterminism:
    def _run(self, *argv: str) -> bytes:
        proc = subprocess.run([sys.executable, "-m", "pibounds", *argv],
                              capture_output=True, check=True)
        return proc.stdout

    def test_table_runs_are_byte_identical(self):
        first = self._run("table", "--max-doublings", "5", "--digits", "8")
        second = self._run("table", "--max-doublings", "5", "--digits", "8")
        assert first == second

    def test_bounds_runs_are_byte_identical(self):
        first = self._run("bounds", "--doublings", "5", "--digits", "8",
                          "--format", "json")
        second = self._run("bounds", "--doublings", "5", "--digits", "8",
                           "--format", "json")
        assert first == second


class TestIntDigitLimit:
    """Output is the same past the interpreter's int-to-str digit limit."""

    # each prints integers or mantissas of more than 640 digits
    REQUESTS = [
        "bounds --doublings 5 --digits 1000",
        "table --max-doublings 2 --digits 1000",
        "export-fig3 --max-doublings 2 --digits 1000",
        "cf --from-bound lower --doublings 5 --digits 1000",
        "approx --doublings 5 --digits 1000 --den-cap 100",
        "series --series viete --terms 3 --digits 1000",
        "series --series wallis --terms 700 --digits 8",
        "cf --value 3." + ("31415926535897932384" * 45)[1:],
        # n = 3 * 2**2200 has 664 digits
        "bounds --doublings 2200 --digits 1",
        "bounds --doublings 2200 --digits 1 --format csv",
        "bounds --doublings 2200 --digits 1 --format json",
        "export-fig3 --max-doublings 2200 --digits 1",
        "cf --from-bound lower --doublings 2200 --digits 1",
        "approx --doublings 2200 --digits 1 --den-cap 10",
    ]
    SCRIPT = ("import contextlib, io, json, sys\n"
              "from pibounds.cli import main\n"
              "results = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out, err = io.StringIO(), io.StringIO()\n"
              "    try:\n"
              "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
              "            code = main(argv.split())\n"
              "    except Exception as exc:\n"
              "        code = repr(exc)\n"
              "    results.append([code, out.getvalue(), err.getvalue()])\n"
              "print(json.dumps(results))\n")

    def _run(self, *flags: str) -> list[list]:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, *flags, "-c", self.SCRIPT, json.dumps(self.REQUESTS)],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        return json.loads(proc.stdout)

    def test_same_bytes_under_a_640_digit_limit(self):
        unlimited = self._run()
        limited = self._run("-X", "int_max_str_digits=640")
        for argv, want, got in zip(self.REQUESTS, unlimited, limited):
            assert want[0] == 0 and want[2] == "", argv
            assert got == want, argv

    N_TEXT = str(3 * 2**2200)  # written before any test lowers the limit

    @pytest.fixture
    def limit_640(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("argv,line", [
        ("bounds --doublings 2200 --digits 1", "n = {n}"),
        ("bounds --doublings 2200 --digits 1 --format csv", "{n},3.1,3.2,3.1,3.2"),
        ("bounds --doublings 2200 --digits 1 --format json",
         '{{"command": "bounds", "doublings": 2200, "digits": 1, "n": {n}, '
         '"c_lo": "3.1", "c_hi": "3.2", "C_lo": "3.1", "C_hi": "3.2"}}'),
        ("export-fig3 --max-doublings 2200 --digits 1", "{n},3.1,3.2,3.1,3.2"),
        ("cf --from-bound lower --doublings 2200 --digits 1",
         "bound = lower (c_n), n = {n}, digits = 1"),
        ("approx --doublings 2200 --digits 1 --den-cap 10", "n = {n}, den_cap = 10"),
    ])
    def test_printed_n_is_three_times_two_to_the_k(self, argv, line, limit_640,
                                                   capsys):
        assert main(argv.split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert line.format(n=self.N_TEXT) in captured.out.splitlines()

    def test_no_bound_message_past_the_limit(self, limit_640, capsys):
        assert main("approx --doublings 2200 --digits 1 --den-cap 1".split()) == 4
        assert f"enclosure at n={self.N_TEXT}\n" in capsys.readouterr().err

    JSON_OBJ = {"command": "table", "rows": [{"n": 3 * 2**2200, "c_form": "3√3/2"}]}
    JSON_TEXT = json.dumps(JSON_OBJ, ensure_ascii=False)

    def test_json_text_past_the_limit(self, limit_640):
        with pytest.raises(ValueError):
            json.dumps(self.JSON_OBJ)
        assert cli._json_text(self.JSON_OBJ) == self.JSON_TEXT

    def test_radical_form_past_the_limit(self, limit_640):
        form = polygon.nested_radical_form(3 * 2**2200, "c")
        text = form.render()
        assert text.startswith(self.N_TEXT + "·√(2−√(2+")
        assert polygon.parse_radical_expr(text) == form

    def test_bounds_past_the_default_limit(self, capsys):
        assert main("bounds --doublings 5 --digits 4400".split()) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        cells = re.findall(r"\d+\.(\d+)", captured.out)
        assert [len(c) for c in cells] == [4400] * 4
