"""One round of a workload, in a fresh interpreter.

Usage: ``python3 bench/round.py SPEC_JSON`` from the repository root, with
``src`` on ``PYTHONPATH``.  ``SPEC_JSON`` holds ``workload``, ``seed``,
``toy``, ``trace``, ``normalize`` (scale times to the nominal host speed),
``workdir`` and ``spans`` (where a traced round writes its spans).  The
round writes its inputs into ``workdir``, times each operation of the
workload's fixed list in-process, checks every output, and prints one JSON
object as its last stdout line: op latencies, the wall time of the list,
peak RSS, failures, output digests and, when traced, the per-layer metrics.  ``run.py`` launches one such process per round, so no
cache survives from one round to the next.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import speed
import workloads
from spans import Tracer


class Round:
    def __init__(self, spec: dict) -> None:
        self.workload = spec["workload"]
        self.size = workloads.TOY if spec["toy"] else workloads.FULL
        self.ops = workloads.make_ops(self.workload, spec["seed"], self.size)
        self.workdir = Path(spec["workdir"])
        self.cli = importlib.import_module("aztecdimers.cli")
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.stdout = hashlib.sha256()
        self.group_sums: dict[int, Fraction] = {}

    def prepare(self) -> list:
        """Per-op callables, with every pattern file written before timing starts."""
        runs = []
        for i, op in enumerate(self.ops):
            if op.kind == "heatmap":
                n, d0, d1 = op.params
                out = self.workdir / f"heatmap-{i}.csv"
                argv = ["heatmap", "--n", str(n), "--d0", str(d0), "--d1", str(d1), "--out", str(out)]
            elif op.kind == "prob":
                path = self.workdir / f"pattern-{i}.json"
                path.write_text(json.dumps(workloads.pattern_document(*op.params)), encoding="utf-8")
                argv = ["prob", str(path)]
            elif op.kind == "coupling":
                n, (wx, wy), (bx, by) = op.params
                argv = ["coupling", "--n", str(n), "--white", str(wx), str(wy), "--black", str(bx), str(by)]
            elif op.kind == "count":
                argv = ["count", "--n", str(op.params[0])]
            else:
                runs.append(getattr(self, f"_{op.kind}")(*op.params))
                continue
            runs.append(self._command(argv))
        return runs

    def _command(self, argv: list[str]):
        def run() -> str:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code
            if code != 0:
                raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
            return out.getvalue()

        return run

    def _inverse(self, n: int):
        kasteleyn = importlib.import_module("aztecdimers.kasteleyn")
        coupling = importlib.import_module("aztecdimers.coupling")

        def run() -> str:
            oracle = kasteleyn.inverse_coupling_matrix(n)
            bad = [
                (v, w)
                for (v, w), entry in oracle.items()
                if coupling.coupling_signed(n, v.x, w.x - v.x, w.y, v.y - w.y).to_fraction() != entry
            ]
            if bad:
                raise AssertionError(f"{len(bad)} signed entries differ from the inverse, first {bad[0]}")
            return f"{len(oracle)} entries\n"

        return run

    def _holes(self, n: int, w0: int, d0: int, w1: int, d1: int):
        enum = importlib.import_module("aztecdimers.enumerate")
        kasteleyn = importlib.import_module("aztecdimers.kasteleyn")

        def run() -> str:
            spec = enum.HoleSpec(w0, d0, w1, d1)
            lhs = enum.weighted_count(n, spec)
            cof = kasteleyn.signed_hole_cofactor(n, spec.white_hole, spec.black_hole)
            rhs = cof if (d0 + d1 + 1) % 2 == 0 else -cof
            if lhs != rhs:
                raise AssertionError(f"{spec}: signed enumeration {lhs} != cofactor relation {rhs}")
            return f"{lhs}\n"

        return run

    def check(self, i: int, op, out: str) -> None:
        """Judge one operation's output; raises on any mismatch."""
        if op.kind == "heatmap":
            n, d0, d1 = op.params
            path = self.workdir / f"heatmap-{i}.csv"
            data = path.read_bytes()
            path.unlink()
            workloads.parse_heatmap(data.decode("utf-8"), n, d0, d1)
            self.digests[f"heatmap n={n} d0={d0} d1={d1}"] = hashlib.sha256(data).hexdigest()
            rows = workloads.heatmap_cell_count(n, d0, d1)
            if out != f"wrote {rows} entries to {path}\n":
                raise ValueError(f"heatmap printed {out!r}")
        elif op.kind == "coupling":
            self.stdout.update(out.encode("utf-8"))
            workloads.check_coupling(op.params[0], out)
        elif op.kind == "prob":
            self.stdout.update(out.encode("utf-8"))
            p = workloads.parse_prob(out)
            if op.group is not None:
                self.group_sums[op.group] = self.group_sums.get(op.group, Fraction(0)) + p
        elif op.kind == "count":
            workloads.check_count(op.params[0], out)

    def gate(self) -> None:
        """Untimed whole-round checks, after the timed operations."""
        for group, total in sorted(self.group_sums.items()):
            if total != 1:
                self.failures.append(f"normalization group {group} sums to {total}, not 1")
        if self.workload == "pattern-queries":
            self.digests["prob/coupling stdout"] = self.stdout.hexdigest()
        if self.workload == "heatmap-sweep":
            self._heatmap_vs_inverse()

    def _heatmap_vs_inverse(self) -> None:
        kasteleyn = importlib.import_module("aztecdimers.kasteleyn")
        lattice = importlib.import_module("aztecdimers.lattice")
        n = self.size.heatmap_gate_order
        oracle = kasteleyn.inverse_coupling_matrix(n)
        for op in self.ops:
            _, d0, d1 = op.params
            out = self.workdir / "heatmap-gate.csv"
            try:
                self._command(
                    ["heatmap", "--n", str(n), "--d0", str(d0), "--d1", str(d1), "--out", str(out)]
                )()
                entries = workloads.parse_heatmap(out.read_text(encoding="utf-8"), n, d0, d1)
            except Exception as exc:  # a failed check, recorded like any other
                self.failures.append(f"heatmap n={n} d0={d0} d1={d1}: {exc!r}")
                continue
            wrong = [
                cell
                for cell, value in entries.items()
                if value != oracle[lattice.white(cell[0], cell[1] + d1), lattice.black(cell[0] + d0, cell[1])]
            ]
            if wrong:
                self.failures.append(f"heatmap n={n} d0={d0} d1={d1} differs from the inverse at {wrong[:3]}")


class SpeedSampler:
    """Times ``speed.reference_work`` every ``INTERVAL_S`` from a SIGALRM handler.

    The handler runs between the program's bytecodes, so the samples follow
    the host's speed through long operations as well as short ones.  It
    costs about 5% of the round's CPU time.
    """

    INTERVAL_S = 0.06
    #: Each sample is smoothed with the median of the samples this close.
    WINDOW_S = 0.25

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.durations.append(speed.time_reference())

    def __enter__(self) -> "SpeedSampler":
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)
        # Host speed relative to nominal, piecewise constant from each sample on.
        self.scale = [
            speed.REF_NOMINAL_S / statistics.median(self.durations[
                bisect.bisect_left(self.starts, t - self.WINDOW_S):
                bisect.bisect_right(self.starts, t + self.WINDOW_S)
            ])
            for t in self.starts
        ]

    def normalize(self, start: float, end: float) -> float:
        """``end - start`` with each stretch scaled by the host speed during it."""
        i = max(0, bisect.bisect_right(self.starts, start) - 1)
        total, t = 0.0, start
        while t < end:
            upto = self.starts[i + 1] if i + 1 < len(self.starts) else end
            step = min(upto, end) - t
            total += step * self.scale[i]
            t += step
            i = min(i + 1, len(self.starts) - 1)
        return total


def run_ops(runs: list) -> tuple[list[tuple[float, float]], list]:
    """Each operation's (start, end) and its output, or the exception it raised."""
    intervals, outputs = [], []
    clock = time.perf_counter
    for run in runs:
        start = clock()
        try:
            out = run()
        except Exception as exc:  # the op failed; judged with the others later
            out = exc
        intervals.append((start, clock()))
        outputs.append(out)
    return intervals, outputs


def main() -> None:
    spec = json.loads(sys.argv[1])
    rnd = Round(spec)
    runs = rnd.prepare()
    tracer = Tracer() if spec["trace"] else None
    per_layer = None
    if tracer:
        tracer.install()
        runs = [tracer.span(f"bench.{op.kind}", run) for op, run in zip(rnd.ops, runs)]
        intervals, outputs = run_ops(runs)
        tracer.uninstall()
    elif spec["normalize"]:
        with SpeedSampler() as sampler:
            intervals, outputs = run_ops(runs)
    else:
        intervals, outputs = run_ops(runs)
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = [end - start for start, end in intervals]
    latencies = [sampler.normalize(*iv) for iv in intervals] if spec["normalize"] else raw
    if tracer:
        per_layer = tracer.metrics()
        tracer.write_spans(spec["spans"])

    for i, (op, out) in enumerate(zip(rnd.ops, outputs)):
        try:
            if isinstance(out, Exception):
                raise out
            rnd.check(i, op, out)
        except Exception as exc:  # a failed check, recorded like any other
            rnd.failures.append(f"op {i} {op.kind} {op.params}: {exc!r}")
    rnd.gate()
    print(json.dumps({
        "ops": len(rnd.ops),
        "failed": len(rnd.failures),
        "failures": rnd.failures[:20],
        "latencies": latencies,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(raw),
        "peak_rss_mb": peak_rss_kib / 1024,
        "digests": rnd.digests,
        "per_layer": per_layer,
    }))


if __name__ == "__main__":
    main()
