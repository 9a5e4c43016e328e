"""pibounds benchmark: seeded CLI request streams, an independent oracle, and
a traced per-layer breakdown.

Usage (from the repository root):

    python3 bench/run.py --workload classic_mix --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload rung_sweep --seed 1 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 1 --trace 1 --smoke

Requests go through ``pibounds.cli.main(argv)`` in this process, with stdout
captured: one client, closed loop, no threads.  Every pass over the request
list must reproduce the first pass byte for byte, and a last pass is checked
response by response by ``oracle.py``.

``--trace 0`` reports the end-to-end metrics: the list is replayed until
``--seconds`` is used up and timings are medians over the passes.
``--trace 1`` reports the per-layer metrics from a traced pass (see
``tracing.py``), runs a second traced pass that must give identical counts,
and times the exactnum kernels at 10**2, 10**3 and 10**4 digits.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, including the
stdout digest and the tail percentile used, goes to
``bench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_CODE = ("import time; t = time.perf_counter(); import sys; "
              "sys.path.insert(0, sys.argv[1]); import pibounds.cli as cli; "
              "cli.build_parser(); print(time.perf_counter() - t)")
PROBE_DIGITS = (100, 1000, 10000)


# ---------------------------------------------------------------------------
# running requests
# ---------------------------------------------------------------------------

class _HashingRaw(io.RawIOBase):
    """Byte sink that keeps only a SHA-256 and a length of what it is given."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.size = 0

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        self.sha.update(data)
        self.size += len(data)
        return len(data)


def run_request(cli, argv, keep_text: bool = False, tracer=None):
    """One request through cli.main, stdout captured.

    Returns (latency_s, exit code, stdout digest, stdout size, text).  Unless
    ``keep_text``, stdout goes through a text layer like the real one into a
    hashing sink, so no copy of the output is held.
    """
    raw = _HashingRaw()
    out = io.StringIO() if keep_text else io.TextIOWrapper(raw, encoding="utf-8",
                                                             newline="\n")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        sid = tracer.begin() if tracer is not None else None
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if sid is not None:
            tracer.finish(sid)
    if keep_text:
        text = out.getvalue()
        raw.write(text.encode())
    else:
        out.flush()
        text = None
    return t1 - t0, rc, raw.sha.hexdigest(), raw.size, text


class Session:
    """Runs one workload's request list and keeps the failure tally.

    The first pass records each response's exit code and stdout digest; every
    later pass, and the oracle pass, must reproduce them byte for byte.
    """

    def __init__(self, cli, workload: str, requests):
        self.cli = cli
        self.workload = workload
        self.requests = requests
        self.attempted = 0
        self.failures: list[str] = []
        self.expected: list[tuple[object, str]] = []
        self.stdout_sha256 = ""
        self.stdout_bytes = 0
        self.rows = 0

    def fail(self, req, msg: str) -> None:
        self.failures.append(f"{' '.join(req.argv)[:120]}: {msg}")

    def replay(self, tracer=None) -> list[float]:
        """One pass over the list; returns the latencies."""
        first = not self.expected
        latencies = []
        for i, req in enumerate(self.requests):
            dt, rc, digest, size, _ = run_request(self.cli, req.argv, tracer=tracer)
            latencies.append(dt)
            self.attempted += 1
            if first:
                self.expected.append((rc, digest))
                self.stdout_bytes += size
                if rc == 0 and req.argv[0] in ("bounds", "table", "export-fig3"):
                    self.rows += 1 if req.argv[0] == "bounds" else int(req.argv[2]) + 1
            elif (rc, digest) != self.expected[i]:
                self.fail(req, f"output differs from the first pass (exit {rc})")
        return latencies

    def check(self, checker: oracle.Checker) -> None:
        """One more pass with every response checked by the oracle."""
        workload_sha = hashlib.sha256()
        for req, want in zip(self.requests, self.expected):
            _, rc, digest, _, text = run_request(self.cli, req.argv, keep_text=True)
            self.attempted += 1
            workload_sha.update(text.encode())
            if (rc, digest) != want:
                self.fail(req, f"output differs from the first pass (exit {rc})")
            try:
                checker.check(req.argv, rc if isinstance(rc, int) else None,
                              req.expect, text)
            except oracle.CheckFailed as exc:
                self.fail(req, f"oracle: {exc}")
            except (ValueError, KeyError, IndexError) as exc:
                self.fail(req, f"unparseable output: {type(exc).__name__}: {exc}")
        self.stdout_sha256 = workload_sha.hexdigest()


# ---------------------------------------------------------------------------
# measurements
# ---------------------------------------------------------------------------

def measure_setup(samples: int) -> list[float]:
    """Import pibounds.cli and build the parser in fresh interpreters."""
    times = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=True)
        if i:                                  # the first run also writes bytecode
            times.append(float(proc.stdout))
    return times


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def time_per_call(fn, args, quick: bool) -> float:
    reps = 1
    while not quick:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        if time.perf_counter() - t0 >= 0.02:
            break
        reps *= 2
    batches = []
    for _ in range(1 if quick else 5):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        batches.append((time.perf_counter() - t0) / reps)
    return statistics.median(batches)


def kernel_probes(seed: int, quick: bool) -> dict[str, float]:
    """Per-call time of interval_div/mul/sqrt on seeded operands."""
    from pibounds import exactnum
    out = {}
    for d in PROBE_DIGITS:
        rng = random.Random(f"probe:{seed}:{d}")

        def operand():
            lo = rng.randrange(10 ** d, 9 * 10 ** d)
            return exactnum.Interval(lo, lo + rng.randrange(1, 10 ** (d // 2)), d)

        a, b = operand(), operand()
        for op, fn, args in (("div", exactnum.interval_div, (a, b)),
                             ("mul", exactnum.interval_mul, (a, b)),
                             ("sqrt", exactnum.interval_sqrt, (a,))):
            out[f"exactnum.probe.{op}_us.d{d}"] = time_per_call(fn, args, quick) * 1e6
    return out


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def end_to_end(session: Session, seconds: float, smoke: bool):
    setup = measure_setup(1 if smoke else 7)
    rounds: list[list[float]] = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(session.replay())
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            break
    # read before the oracle pass, whose parsing is the benchmark's, not the program's
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    session.check(oracle.Checker())
    # Each request's median over the passes damps the multi-second phases in
    # which a shared machine runs slower; wall_s is one pass at those medians.
    per_request = [statistics.median(r[i] for r in rounds) for i in range(len(rounds[0]))]
    samples = [x for r in rounds for x in r]
    tail_value, tail_pct, beyond = tail(samples)
    metrics = {
        "wall_s": (sum(per_request), "s"),
        "latency_p50_ms": (statistics.median(per_request) * 1e3, "ms"),
        "latency_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    info = {"rounds": len(rounds), "latency_samples": len(samples),
            "tail_percentile": round(tail_pct, 2), "tail_samples_beyond": beyond,
            "setup_samples_s": setup}
    return metrics, info


def per_layer(session: Session, seed: int, smoke: bool):
    untraced = sum(session.replay())
    tracers, walls, latencies = [], [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            latencies.append(sum(session.replay(tracer)))
            walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        tracer.counters["cli.stdout_bytes"] = session.stdout_bytes
        tracer.counters["polygon.rows_emitted"] = session.rows
        tracers.append(tracer)
    a, b = tracers
    counts_a, counts_b = a.exact_counts(), b.exact_counts()
    mismatched = sorted(k for k in counts_a.keys() | counts_b.keys()
                        if counts_a.get(k) != counts_b.get(k))
    if mismatched:
        session.failures.append(f"exact-count check: traced passes differ in {mismatched}")

    # Self times of all spans (layers, plus the benchmark's own request spans)
    # and the loop's time outside the timed requests must make up the wall time.
    summary = a.summary()
    layer_self = summary["layer_self_s"]
    loop_overhead = walls[0] - latencies[0]
    unaccounted = walls[0] - sum(layer_self.values()) - loop_overhead
    if abs(unaccounted) > 0.01 * walls[0] + 1e-3:
        session.failures.append(f"self times leave {unaccounted:.6f} s of the traced "
                                f"{walls[0]:.6f} s unaccounted")
    if summary["min_self_s"] < -1e-6:
        session.failures.append("a span's children outlast it")
    a.write_spans(RESULTS / f"{session.workload}-seed{seed}.spans.jsonl.gz")
    session.check(oracle.Checker())

    calls, incl = summary["calls"], summary["s"]
    within, c = summary["within_s"], a.counters

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
        "cli.main.self_s": (within.get("cli.main", 0.0), "s"),
        "cli.build_parser.s": (incl.get("cli.build_parser", 0.0), "s"),
        "cli.stdout_bytes": (c["cli.stdout_bytes"], "bytes"),
        "polygon.bounds_at.calls": (calls.get("polygon.bounds_at", 0), "count"),
        "polygon.bounds_at.s": (incl.get("polygon.bounds_at", 0.0), "s"),
        "polygon.seed_state.calls": (calls.get("polygon.seed_state", 0), "count"),
        "polygon.escalation_yield": (ratio(c["polygon.bounds_at.returned"],
                                           calls.get("polygon.seed_state", 0)), "ratio"),
        "polygon.halve_angle.calls": (calls.get("polygon.halve_angle", 0), "count"),
        "polygon.halve_angle.self_s": (within.get("polygon.halve_angle", 0.0), "s"),
        "polygon.rung_yield": (ratio(c["polygon.rows_emitted"],
                                     calls.get("polygon.halve_angle", 0)), "ratio"),
        "polygon.working_digits.max": (c["polygon.working_digits.max"], "digits"),
        "polygon.working_digits.mean": (ratio(c["polygon.working_digits.sum"],
                                              c["polygon.working_digits.count"]), "digits"),
        "polygon.perimeters.s": (incl.get("polygon.perimeters", 0.0), "s"),
        "polygon.nested_radical_form.s": (incl.get("polygon.nested_radical_form", 0.0), "s"),
        "polygon.self_s": (layer_self.get("polygon", 0.0), "s"),
    }
    for op in ("interval_div", "interval_mul", "interval_sqrt", "make_interval", "side_of"):
        metrics[f"exactnum.{op}.calls"] = (calls.get(f"exactnum.{op}", 0), "count")
        metrics[f"exactnum.{op}.s"] = (incl.get(f"exactnum.{op}", 0.0), "s")
    for op in ("interval_add", "interval_sub"):
        metrics[f"exactnum.{op}.calls"] = (calls.get(f"exactnum.{op}", 0), "count")
    metrics.update({
        "exactnum.decimal_str.s": (incl.get("exactnum.decimal_str", 0.0), "s"),
        "exactnum.self_s": (layer_self.get("exactnum", 0.0), "s"),
        "contfrac.expand.calls": (calls.get("contfrac.expand", 0), "count"),
        "contfrac.expand.s": (incl.get("contfrac.expand", 0.0), "s"),
        "contfrac.cf_terms": (c["contfrac.cf_terms"], "count"),
        "contfrac.convergents.s": (incl.get("contfrac.convergents", 0.0), "s"),
        "contfrac.self_s": (layer_self.get("contfrac", 0.0), "s"),
        "contfrac.cap_yield": (ratio(c["contfrac.cap_within"], c["contfrac.cap_examined"]),
                               "ratio"),
        "series.evaluate_series.calls": (calls.get("series.evaluate_series", 0), "count"),
        "series.terms_evaluated": (c["series.terms_evaluated"], "count"),
        "series.rational.s": (c["series.rational.ns"] / 1e9, "s"),
        "series.viete.s": (c["series.viete.ns"] / 1e9, "s"),
        "series.convergence_report.self_s": (within.get("series.convergence_report", 0.0),
                                             "s"),
        "trace.overhead_ratio": (ratio(latencies[0], untraced), "ratio"),
    })
    for name, value in kernel_probes(seed, smoke).items():
        metrics[name] = (value, "us")
    info = {"untraced_wall_s": untraced, "traced_wall_s": latencies,
            "traced_loop_s": walls, "loop_overhead_s": loop_overhead, "spans": len(a.start),
            "unaccounted_s": unaccounted, "exact_counts": counts_a,
            "function_self_s": summary["self_s"], "layer_self_s": layer_self}
    return metrics, info


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_workload(cli, name: str, seed: int, seconds: float, trace: int, smoke: bool):
    session = Session(cli, name, workloads.requests_for(name, seed, smoke))
    if trace:
        metrics, info = per_layer(session, seed, smoke)
    else:
        metrics, info = end_to_end(session, seconds, smoke)
    failed = len(session.failures)
    info.update({
        "workload": name, "seed": seed, "trace": trace, "smoke": smoke,
        "why": workloads.WHY[name], "requests": len(session.requests),
        "attempted": session.attempted, "failed": failed,
        "error_rate": failed / session.attempted,
        "stdout_sha256": session.stdout_sha256, "failures": session.failures[:50],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(),
    })
    return metrics, info


def report(name: str, metrics, info) -> None:
    print(f"== {name} (seed {info['seed']}, {info['requests']} requests"
          + (f", {info['rounds']} passes" if "rounds" in info else "") + ")")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    print(f"  error_rate = {info['error_rate']:.6g} ratio "
          f"({info['failed']} of {info['attempted']} attempted)")
    if "tail_percentile" in info:
        print(f"  latency_tail_ms is p{info['tail_percentile']} of "
              f"{info['latency_samples']} samples, {info['tail_samples_beyond']} beyond it")
    if "unaccounted_s" in info:
        print(f"  traced {info['spans']} spans; time not accounted to a layer "
              f"or the benchmark: {info['unaccounted_s']:.6f} s")
    print(f"  stdout_sha256 = {info['stdout_sha256']}")
    for failure in info["failures"][:10]:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pibounds benchmark")
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.GENERATORS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny request lists, for a quick self-test")
    args = parser.parse_args(argv)

    if not (SRC / "pibounds" / "cli.py").is_file():
        print(f"error: no pibounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pibounds.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "pibounds":
        print(f"error: imported pibounds from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    combined, attempted, failed = {}, 0, 0
    RESULTS.mkdir(exist_ok=True)
    for name in names:
        metrics, info = run_workload(cli, name, args.seed, args.seconds,
                                     args.trace, args.smoke)
        report(name, metrics, info)
        record = {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  **info}
        path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        prefix = "" if len(names) == 1 else f"{name}."
        for key, (value, unit) in metrics.items():
            combined[prefix + key] = {"value": value, "unit": unit}
        attempted += info["attempted"]
        failed += info["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
