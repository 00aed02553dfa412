"""The self-check suite, including a mutation smoke test."""

import importlib
import pkgutil
import sys

import pytest

import aztecdimers
from aztecdimers import coupling as coupling_mod
from aztecdimers import verify


def test_quick_level_passes():
    results = verify.run_checks("quick")
    assert results, "suite must run at least one check"
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        verify.run_checks("paranoid")


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
            results = verify.run_checks("quick")
        failed = [r.name for r in results if not r.ok]
        assert "coupling-vs-oracle" in failed, mutation.__name__
        assert "local-inverse" in failed, mutation.__name__


def test_local_inverse_reads_kernel_integers(monkeypatch):
    # The identities are checked on the kernel's integers times 2^n; no DyadicRational is built.
    built, post_init = [], coupling_mod.DyadicRational.__post_init__

    def spy(self):
        built.append(None)
        post_init(self)

    monkeypatch.setattr(coupling_mod.DyadicRational, "__post_init__", spy)
    result = verify._local_inverse(False)
    assert result.ok and result.detail == "11568 identities up to order 8"
    assert built == []


def test_package_attributes_are_its_submodules():
    # A re-export that reuses a submodule's name (``from .coupling import
    # coupling``) hides the module from ``from aztecdimers import coupling``.
    for info in pkgutil.iter_modules(aztecdimers.__path__):
        name = f"aztecdimers.{info.name}"
        importlib.import_module(name)
        assert getattr(aztecdimers, info.name) is sys.modules[name], name
