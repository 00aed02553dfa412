"""Self-check suite: every closed form against its independent oracle.

Backs the ``verify`` CLI command, which runs seven checks.  ``quick`` keeps
most boards small and runs in a few seconds; ``full`` pushes each check to the
largest size the oracles handle comfortably.  Orders are ``quick``/``full``.
Ground truth is the transfer-matrix count :func:`enumerate.weighted_matchings`,
which uses neither Kasteleyn signs nor Krawtchouk sums:
``counts-vs-enumeration`` (3/8) holds ``|det K|`` to it on diamonds, so the one
Kasteleyn sign rule is checked against counts, not against a second rule, and
``counts-power-of-two`` (5/10) holds it to ``2^{n(n+1)/2}``.  ``sign-relation``
(3/6) holds the signed two-hole counts to the Kasteleyn cofactors
``(K^{-1})^T[v, w] |det K|``, read from the cached inverse, on every hole pair,
and ``pattern-vs-transfer`` (8) holds the product's pattern probabilities to
counts of the diamond with the pattern removed.
The three coupling checks read one table per order, every signed entry as an
integer times ``2^n``, built from kernel rows, one per ``(d0, w1, d1)``.
``coupling-vs-oracle`` (3/12) holds it to the exact inverse Kasteleyn matrix.
``local-inverse`` (8/16) needs no oracle matrix: it checks ``K C^T = I`` one
sparse row of ``K`` at a time.  ``normalization`` (6/10) checks that the
dominoes at every white and every black have weights summing to 1.
Each check returns a :class:`CheckResult`; a check that raises is recorded
as a failure naming the exception, and any failure makes the command exit
nonzero.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

from . import enumerate as enum  # noqa: A001 - package-local module name
from . import coupling, kasteleyn
from .lattice import Board, Edge, build_diamond, remove_vertices


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


LEVELS = ("quick", "full")


def _count(board: Board) -> int:
    """Perfect matchings of ``board``, by transfer matrix."""
    return enum.weighted_matchings(board, lambda w, b: 1)


def _counts_vs_enumeration(full: bool) -> CheckResult:
    top = 8 if full else 3
    for n in range(1, top + 1):
        board = build_diamond(n)
        got, want = kasteleyn.count_matchings_det(board), _count(board)
        if got != want:
            return CheckResult("counts-vs-enumeration", False, f"n={n}: det {got} != transfer matrix {want}")
    return CheckResult("counts-vs-enumeration", True, f"diamonds up to order {top}")


def _counts_power_of_two(full: bool) -> CheckResult:
    top = 10 if full else 5
    for n in range(1, top + 1):
        want = 2 ** (n * (n + 1) // 2)
        got = kasteleyn.count_matchings_det(build_diamond(n))
        if got != want:
            return CheckResult("counts-power-of-two", False, f"n={n}: {got} != 2^{n*(n+1)//2}")
    return CheckResult("counts-power-of-two", True, f"diamonds up to order {top}")


def _signed_table(n: int) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], list[int]]]:
    """Every signed entry of the order-``n`` diamond times ``2^n``, as ``(index, table)``:
    ``index`` numbers the blacks ``(x', y')`` in board order, and ``table[x, y][index[x', y']]``
    is the entry of white ``(x, y)`` and black ``(x', y')``.  One kernel row per ``(d0, w1, d1)``
    over :func:`coupling.hole_ranges`, so both branches are read at every offset.  Keyed by
    integer pairs, not vertices, so that filling the table builds no ``Vertex`` per entry."""
    index = {(b.x, b.y): j for j, b in enumerate(build_diamond(n).black_vertices)}
    table = {(x, y): [0] * len(index) for y in range(1, n + 2) for x in range(1, n + 1)}
    for d0 in range(1 - n, n + 1):
        for d1 in range(1 - n, n + 1):
            w0s, w1s = coupling.hole_ranges(n, d0, d1)
            for w1 in w1s:
                for w0, entry in zip(w0s, coupling.coupling_signed_row(n, w0s, d0, w1, d1)):
                    table[w0, w1 + d1][index[w0 + d0, w1]] = entry
    return index, table


def _coupling_vs_oracle(full: bool) -> CheckResult:
    top = 12 if full else 3
    pairs = 0
    for n in range(1, top + 1):
        index, table = _signed_table(n)
        for (v, w), entry in kasteleyn.inverse_coupling_matrix(n).items():
            if table[v.x, v.y][index[w.x, w.y]] * entry.denominator != entry.numerator << n:
                return CheckResult("coupling-vs-oracle", False, f"n={n} signed c({v!r},{w!r}) mismatch")
            pairs += 1
    return CheckResult("coupling-vs-oracle", True, f"{pairs} pairs up to order {top}")


def _local_inverse(full: bool) -> CheckResult:
    # sum_{b ~ v} K(v, b) c_signed(v', b) = delta(v, v') for all whites v, v' says that the
    # signed entries are (K^{-1})^T, since det K = +-2^{n(n+1)/2} is never 0.  Scaled by 2^n,
    # as the table holds each entry.
    top = 16 if full else 8
    cases = 0
    for n in range(1, top + 1):
        board = build_diamond(n)
        index, table = _signed_table(n)
        k_rows = [(v, [(kasteleyn.edge_sign(v, b), index[b.x, b.y]) for b in board.neighbors(v)])
                  for v in board.white_vertices]
        for v2 in board.white_vertices:
            entries = table[v2.x, v2.y]
            for v, k_row in k_rows:
                total = sum(sign * entries[j] for sign, j in k_row)
                if total != (2**n if v == v2 else 0):
                    return CheckResult("local-inverse", False, f"n={n} {v!r},{v2!r}: {total} / 2^{n}")
                cases += 1
    return CheckResult("local-inverse", True, f"{cases} identities up to order {top}")


def _normalization(full: bool) -> CheckResult:
    # One domino covers each vertex, so the |c| of the dominoes at a white or a black sum to 1:
    # 2^n on the table's integers.
    top = 10 if full else 6
    for n in range(1, top + 1):
        board = build_diamond(n)
        index, table = _signed_table(n)
        sums = [(v, sum(abs(table[v.x, v.y][index[b.x, b.y]]) for b in board.neighbors(v)))
                for v in board.white_vertices]
        sums += [(b, sum(abs(table[v.x, v.y][index[b.x, b.y]]) for v in board.neighbors(b)))
                 for b in board.black_vertices]
        for u, total in sums:
            if total != 2**n:
                return CheckResult("normalization", False, f"n={n} {u!r}: sum {total} / 2^{n} != 1")
    return CheckResult("normalization", True, f"every vertex up to order {top}")


def _sign_relation(full: bool) -> CheckResult:
    top = 6 if full else 3
    cases = 0
    for n in range(1, top + 1):
        for d0, d1 in product(range(1, n + 1), repeat=2):
            w0s, w1s = coupling.hole_ranges(n, d0, d1)
            for w0, w1 in product(w0s, w1s):
                spec = enum.HoleSpec(w0, d0, w1, d1)
                lhs = enum.weighted_count(n, spec)
                cof = kasteleyn.signed_hole_cofactor(n, spec.white_hole, spec.black_hole)
                rhs = cof if (d0 + d1 + 1) % 2 == 0 else -cof
                if lhs != rhs:
                    return CheckResult("sign-relation", False, f"n={n} {spec}: {lhs} != {rhs}")
                cases += 1
    return CheckResult("sign-relation", True, f"{cases} hole pairs up to order {top}")


def _random_pattern(rng: random.Random, board: Board, size: int) -> list[Edge]:
    # Up to ``size`` disjoint dominoes; a white whose neighbours are all taken is skipped.
    pattern: list[Edge] = []
    taken = set()
    for v in rng.sample(board.white_vertices, min(size, len(board.white_vertices))):
        free = [b for b in board.neighbors(v) if b not in taken]
        if free:
            b = rng.choice(free)
            taken.add(b)
            pattern.append((v, b))
    return pattern


def _pattern_vs_transfer(full: bool) -> CheckResult:
    # P(pattern) = #matchings of the diamond minus the pattern's cells / 2^{n(n+1)/2}.
    top, per_order = (8, 20) if full else (8, 5)
    rng = random.Random(12)
    cases = 0
    for n in range(1, top + 1):
        board = build_diamond(n)
        for _ in range(per_order):
            pattern = _random_pattern(rng, board, rng.randint(1, 4))
            want = Fraction(_count(remove_vertices(board, [v for edge in pattern for v in edge])),
                            2 ** (n * (n + 1) // 2))
            got = coupling.pattern_probability(n, pattern)
            if got != want:
                return CheckResult("pattern-vs-transfer", False, f"n={n} {pattern}: {got} != {want}")
            cases += 1
    return CheckResult("pattern-vs-transfer", True, f"{cases} seeded patterns up to order {top}")


_CHECKS: tuple[Callable[[bool], CheckResult], ...] = (
    _counts_vs_enumeration,
    _counts_power_of_two,
    _coupling_vs_oracle,
    _local_inverse,
    _normalization,
    _sign_relation,
    _pattern_vs_transfer,
)


def _run(check: Callable[[bool], CheckResult], full: bool) -> CheckResult:
    # A check that raises fails alone; the rest of the suite still runs.
    try:
        return check(full)
    except Exception as exc:
        name = check.__name__.lstrip("_").replace("_", "-")
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the oracle suite; ``level`` is ``"quick"`` or ``"full"``."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    full = level == "full"
    return [_run(check, full) for check in _CHECKS]
