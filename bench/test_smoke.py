"""Smoke test of the benchmark: every workload at toy size, gate included.

Run from the repository root::

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import round as bench_round  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_passes_its_gate_at_toy_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(workloads.HELD_OUT_SEED), "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_seed_fixes_the_operation_list():
    for workload in workloads.WORKLOADS:
        ops = workloads.make_ops(workload, 5, workloads.FULL)
        assert ops == workloads.make_ops(workload, 5, workloads.FULL)
        assert ops != workloads.make_ops(workload, 6, workloads.FULL)


def test_heatmap_offsets_cover_both_branches():
    for seed in range(20):
        d1s = [op.params[2] for op in workloads.make_ops("heatmap-sweep", seed, workloads.FULL)]
        assert min(d1s) <= 0 < max(d1s)


def test_hole_pair_matching_counts():
    enum = importlib.import_module("aztecdimers.enumerate")
    lattice = importlib.import_module("aztecdimers.lattice")
    board = lattice.build_diamond(workloads.HOLE_ORDER)
    for spec, want in zip(workloads.hole_pairs(workloads.HOLE_ORDER), workloads.ORDER4_HOLE_MATCHINGS):
        holes = enum.HoleSpec(*spec)
        assert enum.enumerate_matchings(lattice.remove_vertices(board, [holes.white_hole, holes.black_hole])) == want


def test_output_checks_reject_wrong_outputs():
    workloads.check_count(3, "64 (= 2^6)\n")
    workloads.check_coupling(2, "1 / 2^2 (0.25)\n")
    assert workloads.parse_prob("1/4 (0.25)\n") == workloads.Fraction(1, 4)
    for check, n, bad in ((workloads.check_count, 3, "65\n"),
                          (workloads.check_coupling, 2, "2 / 2^2 (0.5)\n"),
                          (workloads.check_coupling, 2, "1 / 2^2 (0.250)\n")):
        with pytest.raises(ValueError):
            check(n, bad)
    for bad in ("1/4 (0.3)\n", "2/8 (0.25)\n", "1/3 (0.333333333333)\n", "5/4 (1.25)\n"):
        with pytest.raises(ValueError):
            workloads.parse_prob(bad)
    good = "w0,w1,numerator,scale,approx\n1,1,1,1,0.5\n"
    assert workloads.parse_heatmap(good, 1, 1, 1) == {(1, 1): workloads.Fraction(1, 2)}
    for bad in (good.replace("0.5", "0.50"), good.rstrip("\n"), good + "1,2,1,1,0.5\n"):
        with pytest.raises(ValueError):
            workloads.parse_heatmap(bad, 1, 1, 1)


def test_gate_catches_a_wrong_heatmap_and_normalization(tmp_path, monkeypatch):
    cli = importlib.import_module("aztecdimers.cli")
    real = cli.coupling_signed
    monkeypatch.setattr(cli, "coupling_signed", lambda n, w0, d0, w1, d1: -real(n, w0, d0, w1, d1))
    spec = {"workload": "heatmap-sweep", "seed": 1, "toy": True, "workdir": str(tmp_path)}
    rnd = bench_round.Round(spec)
    rnd.gate()
    assert len(rnd.failures) == len(rnd.ops)

    rnd = bench_round.Round({**spec, "workload": "pattern-queries"})
    rnd.group_sums = {0: workloads.Fraction(1), 1: workloads.Fraction(3, 4)}
    rnd.gate()
    assert rnd.failures == ["normalization group 1 sums to 3/4, not 1"]
