"""The self-check suite, including a mutation smoke test."""

import importlib
import pkgutil
import sys
from collections import Counter

import pytest

import aztecdimers
from aztecdimers import coupling as coupling_mod
from aztecdimers import enumerate as enum
from aztecdimers import kasteleyn, verify
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


# Each mutation maps the real (row, column) builders to mutated ones.


def _odd_coefficients_negated(row, column):
    # Negates Kr(a, b, c) for every odd a: a row at its odd entries, a column whole.
    return (
        lambda b, c: tuple(-v if a % 2 else v for a, v in enumerate(row(b, c))),
        lambda a, b: tuple(-v for v in column(a, b)) if a % 2 else column(a, b),
    )


def _mistranscribed_c(row, column):
    # Reads Kr(a, b, c) as Kr(a, b, b - c): the (1-x) and (1+x) exponents swapped.
    return lambda b, c: row(b, b - c), lambda a, b: column(a, b)[::-1]


def test_seeded_mutation_is_caught():
    real = coupling_mod.krawtchouk_row, coupling_mod.krawtchouk_column
    for mutation in (_odd_coefficients_negated, _mistranscribed_c):
        with pytest.MonkeyPatch.context() as mp:
            row, column = mutation(*real)
            mp.setattr(coupling_mod, "krawtchouk_row", row)
            mp.setattr(coupling_mod, "krawtchouk_column", column)
            results = verify.run_checks()
        failed = [r.name for r in results if not r.ok]
        assert "local-inverse" in failed, mutation.__name__
        assert "pattern-vs-transfer" in failed, mutation.__name__


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
        for name in ("counts-vs-enumeration", "counts-power-of-two", "local-inverse"):
            assert not results[name].ok, name
        _clear_oracle_cache()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kasteleyn, "edge_sign", _minus_on_step_1_0)
            results = {r.name: r.ok for r in verify.run_checks()}
            first_failure, _ = sign_relation_sweep(3)
        assert results["counts-vs-enumeration"]
        assert not results["local-inverse"]
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
    # The two coupling checks read the kernel's integers times 2^n from one table per order;
    # neither makes a lowest_terms pair.
    built, real = [], coupling_mod.lowest_terms

    def spy(num, scale):
        built.append(None)
        return real(num, scale)

    monkeypatch.setattr(coupling_mod, "lowest_terms", spy)
    run = verify._Run(False)
    results = [check(run) for check in (verify._local_inverse, verify._normalization)]
    assert results == [
        (True, "11568 identities up to order 8"),
        (True, "every vertex up to order 6"),
    ]
    assert built == []


def test_package_attributes_are_its_submodules():
    # A re-export that reuses a submodule's name (``from .coupling import
    # coupling``) hides the module from ``from aztecdimers import coupling``.
    for info in pkgutil.iter_modules(aztecdimers.__path__):
        name = f"aztecdimers.{info.name}"
        importlib.import_module(name)
        assert getattr(aztecdimers, info.name) is sys.modules[name], name


def test_each_signed_table_is_built_once_per_run(monkeypatch):
    # local-inverse and normalization read the same table per order; a build walks once per d1.
    walks, real = Counter(), coupling_mod.line_walk

    def spy(n, w1s, d1):
        walks[n] += 1
        return real(n, w1s, d1)

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
    assert verify._pattern_vs_transfer(verify._Run(False)) == (True, "40 seeded patterns up to order 8")
    assert far_ends
    assert len(readings) == len(patterns) == 40
    assert any(whites != [v[1:] for v, _ in p] for whites, p in zip(readings, patterns))
