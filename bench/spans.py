"""Spans and counts around calls into the program's public functions.

:class:`Tracer` replaces each traced function by a wrapper in every
``aztecdimers`` module namespace that holds it, so calls through
``from .x import f`` bindings are seen as well as calls through the
defining module.  Each call to a timed function records a span
``[name, start, end, parent]``; spans stay in memory until
:meth:`Tracer.write_spans`.  A layer's self time is its spans' duration
minus the time covered by their direct child spans.

``combinatorics.krawtchouk`` runs about 10^7 times per round, so it gets a
count-only wrapper: a span per call would cost more than the call itself
and distort every self time above it.  Its time shows in its caller's self
time (``coupling.self_s``).

A function missing from the program (renamed or deleted by a later change)
is not wrapped and reads as 0 calls.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import time
from typing import Callable

#: Functions that get a timed span, by module.
TIMED = {
    "cli": ("main",),
    "lattice": ("build_diamond", "validate_pattern"),
    "coupling": ("coupling", "coupling_signed", "pattern_probability"),
    "exactlinalg": ("det", "invert"),
    "kasteleyn": ("kasteleyn_matrix", "count_matchings_det", "inverse_coupling_matrix", "signed_hole_cofactor"),
    "enumerate": ("enumerate_matchings", "weighted_count"),
}
#: Functions that only get a call count.
COUNTED = {"combinatorics": ("krawtchouk",)}

#: Per-layer metrics reported from a traced round: name -> unit.
METRICS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "lattice.build_diamond.calls": "count",
    "lattice.build_diamond.self_s": "s",
    "lattice.validate_pattern.self_s": "s",
    "coupling.coupling.calls": "count",
    "coupling.coupling_signed.calls": "count",
    "coupling.pattern_probability.calls": "count",
    "coupling.self_s": "s",
    "combinatorics.krawtchouk.calls": "count",
    "combinatorics.krawtchouk_row.hits": "count",
    "combinatorics.krawtchouk_row.misses": "count",
    "combinatorics.krawtchouk_row.hit_ratio": "ratio",
    "combinatorics.krawtchouk_row.currsize": "count",
    "exactlinalg.det.calls": "count",
    "exactlinalg.det.self_s": "s",
    "exactlinalg.det.max_order": "count",
    "exactlinalg.invert.calls": "count",
    "exactlinalg.invert.self_s": "s",
    "kasteleyn.kasteleyn_matrix.self_s": "s",
    "kasteleyn.count_matchings_det.calls": "count",
    "kasteleyn.inverse_coupling_matrix.calls": "count",
    "kasteleyn.self_s": "s",
    "enumerate.enumerate_matchings.calls": "count",
    "enumerate.enumerate_matchings.self_s": "s",
    "enumerate.matchings_found": "count",
    "enumerate.weighted_count.calls": "count",
}


def _module(name: str):
    # Never through package attributes: ``aztecdimers.coupling`` may be the
    # function of that name rather than the submodule.
    return importlib.import_module(f"aztecdimers.{name}")


def _order(m) -> int:
    return m.rows if hasattr(m, "rows") else len(m)


class Tracer:
    """Records spans and counts for one round; install before, uninstall after."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack = [-1]
        self._counters: dict[str, itertools.count] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.det_max_order = 0
        self.matchings_found = 0

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so each call records a span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def counted(*args):
            tick()
            return fn(*args)

        return counted

    def _observe_det(self, fn: Callable) -> Callable:
        def det(m):
            self.det_max_order = max(self.det_max_order, _order(m))
            return fn(m)

        return det

    def _observe_enumeration(self, fn: Callable) -> Callable:
        def enumerate_matchings(*args, **kwargs):
            found = fn(*args, **kwargs)
            self.matchings_found += found
            return found

        return enumerate_matchings

    def install(self) -> None:
        wrappers = {}
        for mod, names in TIMED.items():
            for fname in names:
                fn = getattr(_module(mod), fname, None)
                if fn is None:
                    continue
                inner = fn
                if (mod, fname) == ("exactlinalg", "det"):
                    inner = self._observe_det(fn)
                elif (mod, fname) == ("enumerate", "enumerate_matchings"):
                    inner = self._observe_enumeration(fn)
                wrappers[id(fn)] = (fn, self.span(f"{mod}.{fname}", inner))
        for mod, names in COUNTED.items():
            for fname in names:
                fn = getattr(_module(mod), fname, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._counted(f"{mod}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "aztecdimers" and not modname.startswith("aztecdimers."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded; call once, after the round."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_s):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - inner)
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + (end - start - inner)
        for name, counter in self._counters.items():
            calls[name] = next(counter)

        row = getattr(_module("combinatorics"), "krawtchouk_row", None)
        info = row.cache_info() if hasattr(row, "cache_info") else None
        hits, misses = (info.hits, info.misses) if info else (0, 0)
        values = {
            "combinatorics.krawtchouk_row.hits": hits,
            "combinatorics.krawtchouk_row.misses": misses,
            "combinatorics.krawtchouk_row.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "combinatorics.krawtchouk_row.currsize": info.currsize if info else 0,
            "exactlinalg.det.max_order": self.det_max_order,
            "enumerate.matchings_found": self.matchings_found,
        }
        for metric in METRICS:
            if metric in values:
                continue
            key, _, field = metric.rpartition(".")
            values[metric] = calls.get(key, 0) if field == "calls" else self_s.get(key, 0.0)
        return values

    def write_spans(self, path) -> None:
        """Write every span as CSV: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent}\n")
