"""The self-check suite, including a mutation smoke test."""

import importlib
import pkgutil
import sys
from collections import Counter
from itertools import accumulate
from operator import mul

import pytest

import aztecdimers
from aztecdimers import coupling as coupling_mod
from aztecdimers import enumerate as enum
from aztecdimers import kasteleyn, verify
from aztecdimers.lattice import black, white
from derivation import sign_relation_sweep


def test_quick_level_passes():
    results = verify.run_checks()
    assert results, "suite must run at least one check"
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_verify_runs_no_two_hole_count(monkeypatch):
    # The two-hole sign lemma is a proof step, certified by the tests; verify checks the product.
    def refuse(*args):
        raise AssertionError("verify ran a two-hole count")

    monkeypatch.setattr(enum, "weighted_count", refuse)
    monkeypatch.setattr(kasteleyn, "signed_hole_cofactor", refuse)
    results = verify.run_checks()
    assert len(results) == 5
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_check_result_repr_names_its_fields():
    assert repr(verify.CheckResult("normalization", True, "every vertex up to order 6")) == (
        "CheckResult(name='normalization', ok=True, detail='every vertex up to order 6')"
    )


# Each mutation maps the real (row, column) builders to mutated ones, which take the builders'
# ``size`` as a prefix of the mutated line.


def _odd_coefficients_negated(row, column):
    # Negates Kr(a, b, c) for every odd a: a row at its odd entries, a column whole.
    return (
        lambda b, c, size=None: tuple(-v if a % 2 else v for a, v in enumerate(row(b, c, size))),
        lambda a, b, size=None: tuple(-v for v in column(a, b, size)) if a % 2 else column(a, b, size),
    )


def _mistranscribed_c(row, column):
    # Reads Kr(a, b, c) as Kr(a, b, b - c): the (1-x) and (1+x) exponents swapped.  A prefix of the
    # mistranscribed column is cut from the whole reversed column.
    return lambda b, c, size=None: row(b, b - c, size), lambda a, b, size=None: column(a, b)[::-1][:size]


def test_seeded_mutation_is_caught():
    # Each check that reads the Krawtchouk lines fails on a wrong value, not by raising.
    real = coupling_mod.krawtchouk_row, coupling_mod.krawtchouk_column
    for mutation in (_odd_coefficients_negated, _mistranscribed_c):
        with pytest.MonkeyPatch.context() as mp:
            row, column = mutation(*real)
            mp.setattr(coupling_mod, "krawtchouk_row", row)
            mp.setattr(coupling_mod, "krawtchouk_column", column)
            results = verify.run_checks()
        failed = {r.name: r.detail for r in results if not r.ok}
        for name in ("local-inverse", "normalization", "pattern-vs-transfer"):
            assert name in failed, (mutation.__name__, name)
        assert not [d for d in failed.values() if d.startswith("raised")], (mutation.__name__, failed)


_real_coupling_signed = coupling_mod.coupling_signed


def _lone_value_negated(n, w0, d0, w1, d1):
    num, scale = _real_coupling_signed(n, w0, d0, w1, d1)
    return coupling_mod.Dyadic(-num, scale)


def _lone_column_read_one_late(n, w0, d0, w1, d1):
    # coupling_signed summing over column[m + 1:] instead of column[m:].
    m, stop = coupling_mod._branch_cut(n + 1, w0, d0)
    row, column = coupling_mod.krawtchouk_row(n, w1 + d1 - 1), coupling_mod.krawtchouk_column(w1 - 1, n - 1)
    s = sum(map(mul, row[:stop], column[m + 1:]))
    return coupling_mod.lowest_terms(-s if coupling_mod._negated(d0, d1) else s, n)


@pytest.mark.parametrize("mutant", [_lone_value_negated, _lone_column_read_one_late])
def test_wrong_lone_value_is_caught(monkeypatch, mutant):
    # The coupling command's lone path sums whole cached lines, which neither the sweep nor the
    # pattern evaluator reads; normalization reads every edge through it.
    monkeypatch.setattr(coupling_mod, "coupling_signed", mutant)
    failed = {r.name: r.detail for r in verify.run_checks() if not r.ok}
    assert "normalization" in failed, failed
    assert not failed["normalization"].startswith("raised"), failed


_real_next_column, _real_edge_sign = coupling_mod.next_krawtchouk_column, kasteleyn.edge_sign


def _walk_step_last_entry_off(f, a):
    # One step of the sweeps' column walk with its last entry off by one.
    g = _real_next_column(f, a)
    return (*g[:-1], g[-1] + 1)


def _branch_sums_never_reversed(row, column, shift):
    # The sweep kernel without its reversal for shift <= 0.
    return list(accumulate(map(mul, row, column[shift - 1 if shift > 0 else -shift:])))


def _one_edge_sign_flipped(v, b):
    # edge_sign negated on the single edge W(2,2)-B(2,2): not a Kasteleyn signing.
    sign = _real_edge_sign(v, b)
    return -sign if (v, b) == (white(2, 2), black(2, 2)) else sign


def _gauge_negated(n, v, w):
    # coupling() at the white v = (x, y) and the black w = (x', y') with its gauge (-1)^{x'-x+y}
    # negated: every value the coupling command prints.  A Vertex in place of a cell fails to unpack.
    (x, y), (x2, y2) = v, w
    num, scale = coupling_mod.coupling_signed(n, x, x2 - x, y2, y - y2)
    return coupling_mod.Dyadic(num if (x2 - x + y) % 2 else -num, scale)


@pytest.mark.parametrize("module, name, mutant, caught_by", [
    (coupling_mod, "next_krawtchouk_column", _walk_step_last_entry_off, {"local-inverse"}),
    (coupling_mod, "_branch_sums", _branch_sums_never_reversed, {"local-inverse"}),
    (kasteleyn, "edge_sign", _one_edge_sign_flipped, {"counts", "normalization"}),
    (coupling_mod, "coupling", _gauge_negated, {"normalization"}),
], ids=["walk-step", "branch-sums-reversal", "one-edge-sign", "coupling-gauge"])
def test_each_mutant_fails_exactly_its_checks(monkeypatch, module, name, mutant, caught_by):
    # The sweep mutants reach local-inverse alone.  counts and normalization read edge_sign on
    # every edge, local-inverse once per step at an interior white, so a one-edge flip passes it.
    # normalization reads every edge through coupling(), so it pins that function's gauge.
    monkeypatch.setattr(module, name, mutant)
    failed = {r.name: r.detail for r in verify.run_checks() if not r.ok}
    assert set(failed) == caught_by, failed
    assert not [d for d in failed.values() if d.startswith("raised")], failed


def _all_plus(v, b):
    # Not a Kasteleyn signing: every face multiplies to +1.
    return 1


def _minus_on_step_1_0(v, b):
    # A valid Kasteleyn signing in another gauge: |det K| is right, the signed entries are not.
    return -1 if (b.x - v.x, b.y - v.y) == (1, 0) else 1


def _clear_oracle_cache():
    kasteleyn._diamond_inverse.cache_clear()


def test_wrong_edge_sign_is_caught():
    assert sign_relation_sweep(3) == (None, 46)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kasteleyn, "edge_sign", _all_plus)
            results = {r.name: r for r in verify.run_checks()}
        assert len(results) == len(verify._CHECKS)
        for name in ("counts", "local-inverse", "normalization"):
            assert not results[name].ok, name
        _clear_oracle_cache()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kasteleyn, "edge_sign", _minus_on_step_1_0)
            results = {r.name: r.ok for r in verify.run_checks()}
            first_failure, _ = sign_relation_sweep(3)
        assert results["counts"]
        assert not results["local-inverse"]
        assert not results["normalization"]
        # The signed two-hole counts use no Kasteleyn sign, so the cofactors alone go wrong.
        assert first_failure is not None
    finally:
        _clear_oracle_cache()


_real_crossing_weight = enum.crossing_weight


def _bound_one_short(clause):
    # crossing_weight with one clause's strict bound lowered by one: ``b.x < w0 + d0 - 1``
    # (clause 1) or ``w.x < w0 - 1`` (clause 2).  Raising it by one instead would change
    # nothing, since the vertex at the bound is the hole.
    def mutant(matching, spec):
        w0, d0, w1, d1 = spec.w0, spec.d0, spec.w1, spec.d1
        dropped = sum(
            1 for w, b in matching
            if (clause == 1 and w.y == w1 + 1 and b.y == w1 and b.x == w0 + d0 - 1)
            or (clause == 2 and w.y == w1 + d1 and b.y == w1 + d1 - 1 and w.x == w0 - 1)
        )
        return _real_crossing_weight(matching, spec) - dropped

    return mutant


@pytest.mark.parametrize("clause", [1, 2])
def test_off_by_one_crossing_weight_is_caught(monkeypatch, clause):
    assert sign_relation_sweep(3) == (None, 46)
    monkeypatch.setattr(enum, "crossing_weight", _bound_one_short(clause))
    assert sign_relation_sweep(3)[0] is not None


def test_local_inverse_reads_kernel_integers(monkeypatch):
    # local-inverse reads the sweeps' integers times 2^n as the kernel emits them, weighted by
    # edge_sign at each step; it makes no lowest_terms pair and builds no Kasteleyn matrix.
    built, real = [], coupling_mod.lowest_terms

    def spy(num, scale):
        built.append(None)
        return real(num, scale)

    def refuse(board):
        raise AssertionError("local-inverse built K")

    monkeypatch.setattr(coupling_mod, "lowest_terms", spy)
    monkeypatch.setattr(kasteleyn, "kasteleyn_matrix", refuse)
    assert verify._local_inverse(False) == (True, "11568 identities up to order 8")
    assert built == []


def test_package_attributes_are_its_submodules():
    # A re-export that reuses a submodule's name (``from .coupling import
    # coupling``) hides the module from ``from aztecdimers import coupling``.
    for info in pkgutil.iter_modules(aztecdimers.__path__):
        name = f"aztecdimers.{info.name}"
        importlib.import_module(name)
        assert getattr(aztecdimers, info.name) is sys.modules[name], name


def test_local_inverse_walks_each_d1_once_per_order(monkeypatch):
    # local-inverse builds each order's sweeps from one walk per d1; no other check walks lines.
    walks, real = Counter(), coupling_mod.line_walk

    def spy(n, d1):
        walks[n] += 1
        return real(n, d1)

    monkeypatch.setattr(coupling_mod, "line_walk", spy)
    assert all(r.ok for r in verify.run_checks())
    assert walks == {n: 2 * n for n in range(1, 9)}
    walks.clear()
    assert all(r.ok for r in verify.run_checks())
    assert walks == {n: 2 * n for n in range(1, 9)}


def test_pattern_check_certifies_far_ends_and_transposed_readings(monkeypatch):
    # Patterns at every order sum from the nearer end of their lines and read the nearer
    # orientation, so pattern-vs-transfer holds both far-end sums and transposed patterns to
    # transfer-matrix counts.  A reading is transposed when its whites are not the pattern's.
    far_ends, patterns, readings = [], [], []
    delannoy, probability, lines = coupling_mod._delannoy, coupling_mod.pattern_probability, coupling_mod._lines

    def delannoy_spy(*args):
        far_ends.append(args)
        return delannoy(*args)

    def probability_spy(n, pattern):
        patterns.append(pattern)
        return probability(n, pattern)

    def lines_spy(n, whites, blacks):
        readings.append(whites)
        return lines(n, whites, blacks)

    monkeypatch.setattr(coupling_mod, "_delannoy", delannoy_spy)
    monkeypatch.setattr(coupling_mod, "pattern_probability", probability_spy)
    monkeypatch.setattr(coupling_mod, "_lines", lines_spy)
    assert verify._pattern_vs_transfer(False) == (True, "40 seeded patterns up to order 8")
    assert far_ends
    assert len(readings) == len(patterns) == 40
    assert any(whites != [v[1:] for v, _ in p] for whites, p in zip(readings, patterns))
