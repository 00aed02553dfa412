"""The self-check suite, and the table of mutants it must catch.

Each row of the table is a one-line edit of one file under ``src/aztecdimers/``: a snippet that
must occur exactly once in it, its replacement, and the exact set of checks that must fail.  The
row copies ``src/``, edits the copy and runs ``python -m aztecdimers.cli verify --level quick`` on
it in a fresh interpreter whose ``PYTHONPATH`` names the copy alone and whose path holds no
site-packages, so an installed package is never what runs.  A refactor that deletes a snippet
fails its row until it supplies the matching mutant of the new code, so the suite's reach cannot
shrink unseen.  The other tests run the suite in-process; their spies count calls and change no
value.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import aztecdimers
from aztecdimers import coupling as coupling_mod
from aztecdimers import enumerate as enum
from aztecdimers import cli, kasteleyn, verify
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


_SRC = Path(aztecdimers.__file__).resolve().parent.parent


def _python(src, *args, cwd=None):
    """``python *args`` in a fresh interpreter that imports the package from ``src`` alone: ``-S`` keeps
    site-packages, where an installed copy may sit, off its path, and saves the import of ``site``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-S", *args], env=env, cwd=cwd, capture_output=True, text=True)


_PATTERN = {"pattern-vs-transfer", "symmetry"}  # the checks that read pattern_probability
_LINES = {"local-inverse", "normalization", *_PATTERN}  # every check that reads Krawtchouk lines

# id: (file, snippet, replacement, the checks that fail).  The sweep's walk steps and its reversal
# reach local-inverse alone, which reads heatmap's coupling_signed_rows.  counts and normalization
# read edge_sign on every edge, local-inverse once per step at an interior white, so a one-edge flip
# passes it; a signing in another gauge keeps |det K| and passes counts.  normalization reads every
# edge through coupling(), so it pins that function's gauge and the lone sums under it.  counts reads
# the count command's text and |det K|, whose Bareiss elimination prob's det shares.  The pattern
# path's far-end sign, column extents and transposed reading reach pattern-vs-transfer, and symmetry
# at orders past the oracles.  The Krawtchouk builders feed every evaluator.
_MUTANTS = {
    "unedited": ("", "", "", set()),
    "walk-step": ("combinatorics.py", "g, last = [cur], f[0]", "g, last = [cur + 1], f[0]", {"local-inverse"}),
    "row-walk-step": ("combinatorics.py", "last, cur = v, v - last - cur", "last, cur = v, v - last + cur",
                      {"local-inverse"}),
    "branch-sums-reversal": ("coupling.py", "sums.reverse()", "pass", {"local-inverse"}),
    "one-edge-sign": ("kasteleyn.py", "== (1, -1)", "== (1, -1) or (v.x, v.y, b.x, b.y) == (2, 2, 2, 2)",
                      {"counts", "normalization"}),
    "all-plus-edge-sign": ("kasteleyn.py", "return -1 if (b.x - v.x, b.y - v.y) == (1, -1) else 1", "return 1",
                           {"counts", "local-inverse", "normalization"}),
    "minus-on-step-1-0": ("kasteleyn.py", "== (1, -1)", "== (1, 0)", {"local-inverse", "normalization"}),
    "coupling-gauge": ("coupling.py", "Dyadic(-num if (x2 - x + y) % 2 else num, scale)",
                       "Dyadic(num if (x2 - x + y) % 2 else -num, scale)", {"normalization"}),
    "lone-value-negated": ("coupling.py", "lowest_terms(-s if _negated(d0, d1) else s, n)",
                           "lowest_terms(s if _negated(d0, d1) else -s, n)", {"normalization"}),
    "lone-column-read-one-late": ("coupling.py", "krawtchouk_column(w1 - 1, n - 1)[m:]",
                                  "krawtchouk_column(w1 - 1, n - 1)[m + 1:]", {"normalization"}),
    "odd-coefficients-negated": ("combinatorics.py", "p.append(cur)", "p.append(-cur if a % 2 == 0 else cur)",
                                 _LINES),
    "odd-coefficients-negated-column": ("combinatorics.py", "f = [cur]", "f = [-cur if a % 2 else cur]", _LINES),
    "mistranscribed-c": ("combinatorics.py", "b - 2 * c, 0, 1", "2 * c - b, 0, 1", _LINES),
    "mistranscribed-c-column": ("combinatorics.py", "b - 2 * a, 0, comb(b, a)", "2 * a - b, 0, comb(b, a)",
                                _LINES - {"symmetry"}),
    "count-exponent": ("cli.py", "(args.n + 1) // 2", "(args.n + 1) // 2 + 1", {"counts"}),
    "bareiss-divisor": ("exactlinalg.py", "divisor[r] = p", "divisor[r] = prev", {"counts", "pattern-vs-transfer"}),
    "far-end-sign-dropped": ("coupling.py", " ^ d % 2", "", _PATTERN),
    "column-below-one-short": ("coupling.py", "max(below, m + 1)", "max(below, m)", _PATTERN),
    "transposed-blacks-unreversed": ("coupling.py", "[w[::-1] for w in blacks]", "list(blacks)", _PATTERN),
}
_VERDICT = re.compile(r"(PASS|FAIL)  ([a-z-]+) \((.*)\)")


@pytest.mark.parametrize("path, snippet, replacement, caught_by", _MUTANTS.values(), ids=_MUTANTS)
def test_each_mutant_fails_exactly_its_checks(tmp_path, path, snippet, replacement, caught_by):
    # Each mutant fails its checks by a wrong value, not by raising; the unedited copy passes all five.
    src = tmp_path / "src"
    shutil.copytree(_SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if path:
        target = src / "aztecdimers" / path
        text = target.read_text(encoding="utf-8")
        assert text.count(snippet) == 1, (path, snippet)
        target.write_text(text.replace(snippet, replacement), encoding="utf-8")
    proc = _python(src, "-m", "aztecdimers.cli", "verify", "--level", "quick", cwd=tmp_path)
    assert proc.stderr == "", proc.stderr
    *lines, summary = proc.stdout.splitlines()
    verdicts = [_VERDICT.fullmatch(line).groups() for line in lines]
    failed = {name: detail for status, name, detail in verdicts if status == "FAIL"}
    assert (proc.returncode, len(verdicts)) == (1 if caught_by else 0, 5), proc.stdout
    assert summary == (f"{len(caught_by)} of 5 checks failed" if caught_by else "all 5 checks passed")
    assert set(failed) == caught_by, failed
    assert not [d for d in failed.values() if d.startswith("raised")], failed


def test_every_module_a_product_command_loads_has_a_mutant(tmp_path):
    # count, coupling, prob and heatmap, run in one fresh interpreter, load only modules that some row
    # of the table edits.
    pattern = tmp_path / "p.json"
    pattern.write_text(json.dumps({"format": 1, "n": 3, "dominoes": [[["white", 1, 1], ["black", 1, 1]]]}))
    commands = [["count", "--n", "5"], ["coupling", "--n", "4", "--white", "1", "1", "--black", "2", "1"],
                ["prob", str(pattern)],
                ["heatmap", "--n", "6", "--d0", "1", "--d1", "0", "--out", str(tmp_path / "h.csv")]]
    probe = (f"import sys; from aztecdimers.cli import main; print([main(a) for a in {commands!r}]); "
             "print(*sorted(sys.modules))")
    proc = _python(_SRC, "-c", probe)
    *_, codes, modules = proc.stdout.splitlines()
    assert codes == "[0, 0, 0, 0]", proc.stderr
    loaded = {m.split(".")[1] + ".py" for m in modules.split() if m.startswith("aztecdimers.")}
    assert loaded == {"cli.py", "coupling.py", "combinatorics.py", "exactlinalg.py"}
    assert loaded <= {path for path, *_ in _MUTANTS.values()}


def test_wrong_edge_sign_is_caught(monkeypatch):
    # A valid Kasteleyn signing in another gauge, -1 on the step (1, 0): |det K| is right, the signed
    # cofactors are not, and the signed two-hole counts use no Kasteleyn sign, so the sign relation
    # fails.  The table holds verify to this signing and to others.
    assert sign_relation_sweep(3) == (None, 46)
    kasteleyn._diamond_inverse.cache_clear()
    monkeypatch.setattr(kasteleyn, "edge_sign", lambda v, b: -1 if (b.x - v.x, b.y - v.y) == (1, 0) else 1)
    try:
        assert sign_relation_sweep(3)[0] is not None
    finally:
        kasteleyn._diamond_inverse.cache_clear()


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


def test_local_inverse_sweeps_each_offset_pair_once_per_order(monkeypatch):
    # local-inverse reads each order's sweeps through heatmap's coupling_signed_rows, one call per
    # offset pair; no other check sweeps.
    sweeps, real = Counter(), coupling_mod.coupling_signed_rows

    def spy(n, d0, d1):
        sweeps[n, d0, d1] += 1
        return real(n, d0, d1)

    monkeypatch.setattr(coupling_mod, "coupling_signed_rows", spy)
    want = Counter({(n, d0, d1): 1 for n in range(1, 9) for d0 in range(1 - n, n + 1) for d1 in range(1 - n, n + 1)})
    for _ in range(2):
        sweeps.clear()
        assert all(r.ok for r in verify.run_checks())
        assert sweeps == want


def test_verify_reads_only_the_coupling_names_the_commands_import():
    # verify certifies what the commands run: every coupling.<name> it reads is a name cli.py
    # imports from coupling, or lowest_terms, and it imports no coupling name another way, so no
    # refactor can give verify a private path to a computation unseen.
    def imports_from_coupling(tree):
        return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "coupling" and node.level == 1 for alias in node.names}

    checks = ast.parse(inspect.getsource(verify))
    read = {node.attr for node in ast.walk(checks) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "coupling"}
    assert "coupling_signed_rows" in read
    assert read <= imports_from_coupling(ast.parse(inspect.getsource(cli))) | {"lowest_terms"}
    assert imports_from_coupling(checks) == set()


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
