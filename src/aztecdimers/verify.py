"""Self-check suite: every closed form against its independent oracle.

Backs the ``verify`` CLI command, which runs five checks, each of the product
or of the oracle that certifies it.  ``quick`` keeps most boards small and
runs in a few seconds; ``full`` pushes each check to the largest size the
oracles handle comfortably, and reaches :func:`run_checks` as ``full=True``.
Each check reads the level from the :class:`_Run` it is given.  Orders below
are ``quick``/``full``.
Ground truth is the transfer-matrix count :func:`enumerate.weighted_matchings`,
which uses neither Kasteleyn signs nor Krawtchouk sums:
``counts-vs-enumeration`` (3/8) holds ``|det K|`` to it on diamonds, so the one
Kasteleyn sign rule is checked against counts, not against a second rule, and
``counts-power-of-two`` (5/10) holds it to ``2^{n(n+1)/2}``.
``pattern-vs-transfer`` (8) holds the product's pattern probabilities to
counts of the diamond with the pattern removed, each side an integer over a
power of two in :func:`coupling.lowest_terms`.  Its patterns are read as at
every order, in the nearer orientation and each entry from the nearer end of
its lines, so it certifies the far-end sums and the transposed reading too.
The paper's two-hole sign lemma is a proof step, not the product: the tier-1
tests certify it (acceptance criterion 11, on every hole pair to order 6).
The two coupling checks read one table per order and run, every signed entry as an
integer times ``2^n``, built from kernel rows, one per ``(d0, w1, d1)``, over
Krawtchouk lines walked once per ``d1``.
``local-inverse`` (8/16) checks ``K C^T = I`` on the nonzeros of one row of
:func:`kasteleyn.kasteleyn_matrix` at a time; ``det K`` is never 0, so this
forces ``C = K^{-T}`` and no inverse is built.  ``normalization`` (6/10) checks
that the dominoes at every white and every black have weights summing to 1.
Each check returns ``(ok, detail)``; the runner names its :class:`CheckResult`
after the function, ``_local_inverse`` as ``local-inverse``, records a check
that raises as a failure naming the exception, and any failure makes the
command exit nonzero.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Callable, NamedTuple

from . import enumerate as enum  # noqa: A001 - package-local module name
from . import coupling, kasteleyn
from .lattice import Board, Edge, build_diamond, remove_vertices


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


class _Run:
    """One run of the suite: ``full`` selects the sizes, and ``table(n)`` is :func:`_signed_table`
    cached for this run alone, so that both coupling checks read one build per order."""

    def __init__(self, full: bool) -> None:
        self.full = full
        self.table = lru_cache(maxsize=None)(_signed_table)


def _count(board: Board) -> int:
    """Perfect matchings of ``board``, by transfer matrix."""
    return enum.weighted_matchings(board, lambda w, b: 1)


def _counts_vs_enumeration(run: _Run) -> tuple[bool, str]:
    top = 8 if run.full else 3
    for n in range(1, top + 1):
        board = build_diamond(n)
        got, want = kasteleyn.count_matchings_det(board), _count(board)
        if got != want:
            return False, f"n={n}: det {got} != transfer matrix {want}"
    return True, f"diamonds up to order {top}"


def _counts_power_of_two(run: _Run) -> tuple[bool, str]:
    top = 10 if run.full else 5
    for n in range(1, top + 1):
        want = 2 ** (n * (n + 1) // 2)
        got = kasteleyn.count_matchings_det(build_diamond(n))
        if got != want:
            return False, f"n={n}: {got} != 2^{n*(n+1)//2}"
    return True, f"diamonds up to order {top}"


def _signed_table(n: int) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], list[int]]]:
    """Every signed entry of the order-``n`` diamond times ``2^n``, as ``(index, table)``:
    ``index`` numbers the blacks ``(x', y')`` in board order, and ``table[x, y][index[x', y']]``
    is the entry of white ``(x, y)`` and black ``(x', y')``.  One :func:`coupling.line_walk` per
    ``d1`` over its :func:`coupling.hole_ranges`, and each walked pair of lines gives the kernel
    row of every ``d0``, so both branches are read at every offset.  Keyed by integer pairs, not
    vertices, so that filling the table builds no ``Vertex`` per entry."""
    index = {(b.x, b.y): j for j, b in enumerate(build_diamond(n).black_vertices)}
    table = {(x, y): [0] * len(index) for y in range(1, n + 2) for x in range(1, n + 1)}
    for d1 in range(1 - n, n + 1):
        w1s = coupling.hole_ranges(n, 0, d1)[1]
        lines = list(coupling.line_walk(n, w1s, d1))
        for d0 in range(1 - n, n + 1):
            w0s = coupling.hole_ranges(n, d0, d1)[0]
            for w1, row in zip(w1s, coupling.signed_rows(lines, w0s, d0, d1)):
                for w0, entry in zip(w0s, row):
                    table[w0, w1 + d1][index[w0 + d0, w1]] = entry
    return index, table


def _local_inverse(run: _Run) -> tuple[bool, str]:
    # sum_{b ~ v} K(v, b) c_signed(v', b) = delta(v, v') for all whites v, v' says that the
    # signed entries are (K^{-1})^T, since det K = +-2^{n(n+1)/2} is never 0.  Scaled by 2^n, as
    # the table holds each entry, whose blacks are numbered in board order, as K's columns are.
    top = 16 if run.full else 8
    cases = 0
    for n in range(1, top + 1):
        board = build_diamond(n)
        _, table = run.table(n)
        whites = board.white_vertices
        k_rows = [(v, [(sign, j) for j, sign in enumerate(row) if sign])
                  for v, row in zip(whites, kasteleyn.kasteleyn_matrix(board))]
        for v2 in whites:
            entries = table[v2.x, v2.y]
            for v, k_row in k_rows:
                total = sum(sign * entries[j] for sign, j in k_row)
                if total != (2**n if v == v2 else 0):
                    return False, f"n={n} {v!r},{v2!r}: {total} / 2^{n}"
                cases += 1
    return True, f"{cases} identities up to order {top}"


def _normalization(run: _Run) -> tuple[bool, str]:
    # One domino covers each vertex, so the |c| of the dominoes at a white or a black sum to 1:
    # 2^n on the table's integers.
    top = 10 if run.full else 6
    for n in range(1, top + 1):
        board = build_diamond(n)
        index, table = run.table(n)
        sums = [(v, sum(abs(table[v.x, v.y][index[b.x, b.y]]) for b in board.neighbors(v)))
                for v in board.white_vertices]
        sums += [(b, sum(abs(table[v.x, v.y][index[b.x, b.y]]) for v in board.neighbors(b)))
                 for b in board.black_vertices]
        for u, total in sums:
            if total != 2**n:
                return False, f"n={n} {u!r}: sum {total} / 2^{n} != 1"
    return True, f"every vertex up to order {top}"


def _random_pattern(rng: random.Random, board: Board, size: int) -> list[Edge]:
    # Up to ``size`` disjoint dominoes; a white whose neighbours are all taken is skipped.
    pattern: list[Edge] = []
    taken = set()
    whites = board.white_vertices
    for v in rng.sample(whites, min(size, len(whites))):
        free = [b for b in board.neighbors(v) if b not in taken]
        if free:
            b = rng.choice(free)
            taken.add(b)
            pattern.append((v, b))
    return pattern


def _pattern_vs_transfer(run: _Run) -> tuple[bool, str]:
    # P(pattern) = #matchings of the diamond minus the pattern's cells / 2^{n(n+1)/2}.
    top, per_order = (8, 20) if run.full else (8, 5)
    rng = random.Random(12)
    cases = 0
    for n in range(1, top + 1):
        board = build_diamond(n)
        for _ in range(per_order):
            pattern = _random_pattern(rng, board, rng.randint(1, 4))
            rest = remove_vertices(board, [v for edge in pattern for v in edge])
            want = coupling.lowest_terms(_count(rest), n * (n + 1) // 2)
            got = coupling.pattern_probability(n, pattern)
            if got != want:
                return False, f"n={n} {pattern}: {got} != {want}"
            cases += 1
    return True, f"{cases} seeded patterns up to order {top}"


_CHECKS: tuple[Callable[[_Run], tuple[bool, str]], ...] = (
    _counts_vs_enumeration,
    _counts_power_of_two,
    _local_inverse,
    _normalization,
    _pattern_vs_transfer,
)


def _result(check: Callable[[_Run], tuple[bool, str]], run: _Run) -> CheckResult:
    # A check that raises fails alone; the rest of the suite still runs.
    name = check.__name__.lstrip("_").replace("_", "-")
    try:
        return CheckResult(name, *check(run))
    except Exception as exc:
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")


def run_checks(full: bool = False) -> list[CheckResult]:
    """Run the oracle suite, at the ``full`` sizes or the quick ones."""
    run = _Run(full)
    return [_result(check, run) for check in _CHECKS]
