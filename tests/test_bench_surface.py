"""The program surface that the benchmark under ``bench/`` reads.

``bench/spans.py`` wraps each function it names and silently skips one that
is missing, so a rename or deletion would read as 0 calls with nothing
failing.  These checks fail instead.
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


def _module(name):
    return importlib.import_module(f"aztecdimers.{name}")


# Functions deleted on purpose, whose metrics read 0 on every side; dropping them from bench/spans.py
# is a change to bench/.  combinatorics.krawtchouk went with the Krawtchouk table.
# lattice.validate_pattern went once the product checked patterns on integers: no program path
# called it, and lattice.validate_pattern.self_s already read 0 on every workload.
KNOWN_MISSING = {("combinatorics", "krawtchouk"), ("lattice", "validate_pattern")}


def _assert_present(table):
    for mod, names in table.items():
        for name in names:
            if (mod, name) not in KNOWN_MISSING:
                assert callable(getattr(_module(mod), name, None)), f"{mod}.{name}"


def test_every_timed_function_exists():
    _assert_present(spans.TIMED)


def test_every_counted_function_exists():
    _assert_present(spans.COUNTED)
    for mod, name in KNOWN_MISSING:
        assert not hasattr(_module(mod), name), f"{mod}.{name} is back: drop it from KNOWN_MISSING"
    assert hasattr(_module("combinatorics").krawtchouk_row, "cache_info")


def test_attributes_the_rounds_and_smoke_test_read():
    cli, coupling, kasteleyn = _module("cli"), _module("coupling"), _module("kasteleyn")
    enum, lattice = _module("enumerate"), _module("lattice")
    assert callable(cli.main)
    assert callable(cli.coupling_signed)  # bench/test_smoke.py patches it
    assert abs(coupling.coupling_signed(1, 1, 0, 1, 0).to_fraction()) == Fraction(1, 2)
    entries = kasteleyn.inverse_coupling_matrix(1)
    v, w = next(iter(entries))
    assert kasteleyn.signed_hole_cofactor(1, v, w) in (-1, 1)
    spec = enum.HoleSpec(1, 1, 1, 1)
    assert (spec.white_hole, spec.black_hole) == (lattice.white(1, 2), lattice.black(2, 1))
    assert enum.weighted_count(2, spec) in range(-8, 9)
    board = lattice.remove_vertices(lattice.build_diamond(2), [spec.white_hole, spec.black_hole])
    assert enum.enumerate_matchings(board) >= 0


def test_det_order_reads_plain_rows():
    # exactlinalg.det.max_order reads a matrix's order through spans._order.
    k = _module("kasteleyn").kasteleyn_matrix(_module("lattice").build_diamond(2))
    assert spans._order(k) == 6
