"""Benchmark of the ``aztec-dimers`` program: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload heatmap-sweep --seed 1 --seconds 20 --trace 0

Workloads are ``heatmap-sweep``, ``pattern-queries`` and ``oracle-certify``
(see ``workloads.py`` and ``README.md``).  The run

1. measures ``setup_s``: the median time a fresh interpreter takes to
   ``import aztecdimers.cli``, over several launches;
2. repeats rounds of the workload's fixed operation list, each round in a
   fresh interpreter (``round.py``), until ``--seconds`` have passed and at
   least three rounds are done;
3. checks every output, and on the default seed compares the outputs with
   the digests recorded in ``digests.json``;
4. prints, as its last stdout line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

End-to-end times are scaled to a nominal host speed (see ``speed.py``):
on a shared host the raw times drift too much from run to run to bound.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``wall_s`` (median seconds per round to run the operation list),
``op_p50_ms``/``op_p99_ms`` (percentiles over the list's operations of each
operation's median latency over the rounds; the summary line gives the
operation count) and ``peak_rss_mb`` (median peak RSS of a round process).  With ``--trace 1`` untraced and traced rounds alternate
and the metrics are the per-layer ones of ``spans.METRICS``, medians over
the traced rounds, plus ``trace.overhead_s`` (traced minus untraced
``wall_s``).  ``--toy`` shrinks every workload for the smoke test.

Exit codes: 0 when every output is correct, 1 when any check failed or a
round crashed, 2 when the checkout holds no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench-work"

MIN_ROUNDS = 3
SETUP_LAUNCHES = 15
#: No round starts if the previous round's duration would carry the run past this.
RUN_LIMIT_S = 150.0
ROUND_TIMEOUT_S = 170.0


class RoundError(RuntimeError):
    """A round process crashed or printed no result."""


def pinned_env() -> dict[str, str]:
    """The environment every child sees: single-threaded, ``src`` first, fixed hashing."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "AZTEC_DIMERS_"))
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env: dict[str, str], launches: int) -> float:
    """Median normalized time of ``import aztecdimers.cli`` in a fresh interpreter.

    One unmeasured launch first compiles the bytecode.
    """
    times = []
    for i in range(launches + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "import_probe.py")],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True, timeout=60,
        )
        elapsed, reference = map(float, proc.stdout.split())
        if i:
            times.append(elapsed * speed.REF_NOMINAL_S / reference)
    return statistics.median(times)


def run_round(spec: dict, env: dict[str, str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "round.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_rounds(args, env: dict[str, str], inputs: Path) -> tuple[list[dict], list[dict]]:
    """Untraced and traced round results; traced rounds only with ``--trace 1``."""
    plain: list[dict] = []
    traced: list[dict] = []
    last = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        minimum_met = len(plain) >= (1 if args.trace else MIN_ROUNDS) and len(traced) >= args.trace
        if minimum_met and (elapsed >= args.seconds or elapsed + last > RUN_LIMIT_S):
            return plain, traced
        trace = bool(args.trace) and len(traced) < len(plain)
        spec = {
            "workload": args.workload,
            "seed": args.seed,
            "toy": args.toy,
            "trace": trace,
            "normalize": not args.trace,
            "workdir": str(inputs),
            "spans": str(WORK / f"spans-{args.workload}.csv"),
        }
        began = time.perf_counter()
        result = run_round(spec, env, max(1.0, ROUND_TIMEOUT_S - elapsed))
        last = time.perf_counter() - began
        (traced if trace else plain).append(result)


def digest_failures(args, rounds: list[dict]) -> list[str]:
    """Outputs of the default seed that differ from the recorded digests."""
    if args.seed != workloads.DEFAULT_SEED or args.toy:
        return []
    want = json.loads((BENCH / "digests.json").read_text(encoding="utf-8")).get(args.workload)
    if want is None:
        return []
    return [
        f"round {i}: {key} digest {r['digests'].get(key)} != recorded {digest}"
        for i, r in enumerate(rounds)
        for key, digest in want.items()
        if r["digests"].get(key) != digest
    ]


def end_to_end(plain: list[dict], env: dict[str, str], launches: int) -> dict[str, tuple[float, str]]:
    # Each operation's latency is its median over the rounds; the
    # percentiles run over the operations of the list.
    latencies = [statistics.median(ts) for ts in zip(*(r["latencies"] for r in plain))]
    return {
        "setup_s": (measure_setup(env, launches), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p99_ms": (statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MiB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    values = {
        name: (statistics.median_low(r["per_layer"][name] for r in traced), unit)
        for name, unit in spans.METRICS.items()
    }
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    values["trace.overhead_s"] = (overhead, "s")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="minimum measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "aztecdimers" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'aztecdimers'}", file=sys.stderr)
        return 2
    env = pinned_env()
    inputs = WORK / f"{args.workload}-inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    try:
        plain, traced = run_rounds(args, env, inputs)
        if args.trace:
            metrics = per_layer(plain, traced)
        else:
            metrics = end_to_end(plain, env, 3 if args.toy else SETUP_LAUNCHES)
    except (subprocess.SubprocessError, RoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    rounds = plain + traced
    mismatched = digest_failures(args, rounds)
    failures = [f for r in rounds for f in r["failures"]] + mismatched
    failed = sum(r["failed"] for r in rounds) + len(mismatched)
    for failure in failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(plain)} untraced + {len(traced)} traced rounds, "
        f"{len(plain[0]['latencies'])} ops per round, measured round wall_s "
        + " ".join(f"{r['raw_wall_s']:.3f}" for r in rounds)
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
