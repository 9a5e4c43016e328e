"""Span tracing of the pibounds layers, applied from outside the package.

``Tracer.install()`` replaces every public module-level function of the five
layer modules with a timing wrapper, in every pibounds module that holds a
reference to it: ``polygon.interval_div`` is patched as well as
``exactnum.interval_div``, because ``polygon`` imported the name.  Spans
(name, start, end, parent) are kept in flat in-memory arrays and written out
only when the run ends.  ``uninstall()`` restores the originals.

The integer helpers ``exactnum.ceil_div`` and ``exactnum.isqrt_ceil`` stay
unwrapped: they are called inside every interval operation, and a span each
would multiply the tracing cost without adding a layer boundary.  Their time
is self time of their callers.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
import types
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "polygon", "contfrac", "series", "exactnum")
UNWRAPPED = {"exactnum.ceil_div", "exactnum.isqrt_ceil"}
ROOT = "bench.request"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter[str] = Counter()
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _wrap(self, name: str, fn, hook=None):
        idx = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, ends[sid] - starts[sid])
            return result

        return wrapper

    def begin(self) -> int:
        """Open a root span for one request; returns its id."""
        sid = len(self.start)
        self.name.append(self._name_id(ROOT))
        self.parent.append(-1)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"pibounds.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        wrappers = {}
        for layer, mod in mods.items():
            for attr, value in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED
                        or not isinstance(value, types.FunctionType)
                        or value.__module__ != mod.__name__):
                    continue
                wrappers[id(value)] = self._wrap(name, value, hooks.get(name))
        package = importlib.import_module("pibounds")
        for mod in (package, *mods.values()):
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _hooks(self):
        c = self.counters

        def expand(args, kwargs, result, dur):
            c["contfrac.cf_terms"] += len(result.coeffs)

        def certified(args, kwargs, result, dur):
            for exp in (result.lower_expansion, result.upper_expansion):
                c["contfrac.cap_examined"] += len(exp.candidates)
                c["contfrac.cap_within"] += sum(x.within_cap for x in exp.candidates)

        def evaluate(args, kwargs, result, dur):
            series = args[0] if args else kwargs["series"]
            terms = args[1] if len(args) > 1 else kwargs["terms"]
            c["series.terms_evaluated"] += terms
            kind = "viete" if series == "viete" else "rational"
            c[f"series.{kind}.ns"] += round(dur * 1e9)

        def seed(args, kwargs, result, dur):
            digits = args[0] if args else kwargs["precision"]
            c["polygon.working_digits.sum"] += digits
            c["polygon.working_digits.count"] += 1
            c["polygon.working_digits.max"] = max(c["polygon.working_digits.max"], digits)

        def bounds(args, kwargs, result, dur):
            c["polygon.bounds_at.returned"] += 1

        return {
            "contfrac.expand": expand,
            "contfrac.certified_rational_bounds": certified,
            "series.evaluate_series": evaluate,
            "polygon.seed_state": seed,
            "polygon.bounds_at": bounds,
        }

    # -- analysis -----------------------------------------------------------

    def exact_counts(self) -> dict[str, int]:
        """Counters that must repeat exactly for the same request list."""
        counts = Counter(self.names[i] + ".calls" for i in self.name)
        for key, value in self.counters.items():
            if not key.endswith(".ns"):
                counts[key] = value
        return dict(sorted(counts.items()))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-function calls, inclusive time and self time; per-layer self time.

        ``within[f]`` is the self time of f plus the same-layer functions it
        calls, i.e. the time under f that no other layer's span covers.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        calls: Counter[str] = Counter()
        incl: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        layer_self: Counter[str] = Counter()
        chains: list[frozenset[int]] = [frozenset()] * n
        within: Counter[str] = Counter()
        worst = 0.0
        for i in range(n):
            idx, p = self.name[i], self.parent[i]
            name = self.names[idx]
            own = dur[i] - child[i]
            worst = min(worst, own)
            calls[name] += 1
            incl[name] += dur[i]
            self_s[name] += own
            layer_self[layer_of[idx]] += own
            same = p >= 0 and layer_of[self.name[p]] == layer_of[idx]
            chain = chains[p] | {idx} if same else frozenset((idx,))
            chains[i] = chain
            for j in chain:
                within[self.names[j]] += own
        return {"calls": dict(calls), "s": dict(incl), "self_s": dict(self_s),
                "layer_self_s": dict(layer_self), "within_s": dict(within),
                "min_self_s": worst}

    def write_spans(self, path: Path) -> None:
        """Spans as gzip'd JSON lines: a name table, then [id, name, parent, start, end]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "clock": "perf_counter",
                                 "t0": t0}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{i},{self.name[i]},{self.parent[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}]\n")
