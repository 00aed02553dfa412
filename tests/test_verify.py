"""The self-check suite, including a mutation smoke test."""

import importlib
import pkgutil
import sys

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
    assert len(results) == 6
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
        assert "coupling-vs-oracle" in failed, mutation.__name__
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
    _clear_oracle_cache()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kasteleyn, "edge_sign", _all_plus)
            results = {r.name: r for r in verify.run_checks()}
        assert len(results) == len(verify._CHECKS)
        for name in ("counts-vs-enumeration", "counts-power-of-two", "coupling-vs-oracle"):
            assert not results[name].ok, name
        # K is singular under this rule: the dense inverse raises, and the check records it.
        assert results["coupling-vs-oracle"].detail == "raised SingularMatrixError: matrix is singular"
        _clear_oracle_cache()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kasteleyn, "edge_sign", _minus_on_step_1_0)
            results = {r.name: r.ok for r in verify.run_checks()}
            first_failure, _ = sign_relation_sweep(3)
        assert results["counts-vs-enumeration"]
        for name in ("coupling-vs-oracle", "local-inverse"):
            assert not results[name], name
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
    # The three coupling checks read the kernel's integers times 2^n from one table per order;
    # none of them builds a DyadicRational.
    built, init = [], coupling_mod.DyadicRational.__init__

    def spy(self, numerator, scale):
        built.append(None)
        init(self, numerator, scale)

    monkeypatch.setattr(coupling_mod.DyadicRational, "__init__", spy)
    results = [check(False) for check in (verify._coupling_vs_oracle, verify._local_inverse, verify._normalization)]
    assert results == [
        (True, "184 pairs up to order 3"),
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
