"""Self-check suite: each product path against an independent oracle.

Backs the ``verify`` CLI command.  Each check is a function of the level,
``full`` or quick, and certifies one product path; orders are quick/full:

- ``counts`` (5/10): ``count --n N``'s text, read through ``cli.main``, names ``|det K|`` and the transfer-matrix count.
- ``local-inverse`` (8/16): ``heatmap``'s ``coupling_signed_rows``, one sweep per offset pair, satisfy ``K C^T = I``.
- ``normalization`` (6/10): ``coupling``'s gauged values give ``K C^T``, ``C^T K`` unit diagonals; ``|c|`` sum to 1.
- ``pattern-vs-transfer`` (8): ``prob``'s probabilities are transfer-matrix counts of the diamond less the pattern.
- ``symmetry`` (50..200, 1000): ``prob``'s patterns and ``coupling``'s ``|c|`` equal their reflected images.

The transfer-matrix count :func:`enumerate.weighted_matchings` uses neither
Kasteleyn signs nor Krawtchouk sums, so ``counts`` holds the one Kasteleyn sign
rule to counts, not to a second rule; ``det K`` is then never 0, so ``K C^T = I``
forces ``C = K^{-T}`` and no inverse is built.  ``pattern-vs-transfer`` reads
its patterns as at every order, in the nearer orientation and each entry from
the nearer end of its lines, so it certifies the far-end sums and the
transposed reading too; ``symmetry`` is consistency, not proof, at orders no
oracle reaches.  The paper's two-hole sign lemma is a proof step, not the
product: the tier-1 tests certify it.  Each check returns ``(ok, detail)``; the
runner names its :class:`CheckResult` after the function, ``_local_inverse`` as
``local-inverse``, records a check that raises as a failure naming the
exception, and any failure makes the command exit nonzero.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import redirect_stdout
from io import StringIO
from itertools import product
from operator import add, sub
from typing import Callable, NamedTuple, Sequence

from . import enumerate as enum  # noqa: A001 - package-local module name
from . import cli, coupling, kasteleyn
from .lattice import Board, Edge, Vertex, black, build_diamond, remove_vertices, white


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _counts(full: bool) -> tuple[bool, str]:
    # The count command's own text, read through cli.main, names the power of two that |det K| and
    # the transfer-matrix count are.
    top = 10 if full else 5
    for n in range(1, top + 1):
        board = build_diamond(n)
        det, transfer = kasteleyn.count_matchings_det(board), enum.weighted_matchings(board, lambda w, b: 1)
        with redirect_stdout(StringIO()) as out:
            code = cli.main(["count", "--n", str(n)])
        text, e = out.getvalue(), det.bit_length() - 1
        if not (det == transfer == 1 << e and code == 0 and text == f"{det} (= 2^{e})\n"):
            return False, f"n={n}: det {det}, transfer matrix {transfer}, count printed {text!r} (exit {code})"
    return True, f"diamonds up to order {top}"


def _local_inverse(full: bool) -> tuple[bool, str]:
    # sum_{b ~ v} K(v, b) c_signed(v', b) = delta(v, v') for all whites v, v' says that the signed
    # entries are (K^{-1})^T, since det K = +-2^{n(n+1)/2} is never 0.  With v = v' + (dx, dy) and
    # b = v + (ex, ey), the term at b is v''s sweep entry at offsets (dx + ex, -dy - ey), times 2^n, so
    # the identities of one (dx, dy) are four sweeps added row by row onto a grid over v'.  K(v, b) is
    # +-1 and depends on the step alone, so each step's sign is read once, at an interior white.
    top = 16 if full else 8
    v = white(1, 2)
    steps = [(b.x - v.x, b.y - v.y, {1: add, -1: sub}[kasteleyn.edge_sign(v, b)])
             for b in build_diamond(2).neighbors(v)]
    cases = 0
    for n in range(1, top + 1):
        sweeps = {}  # (d0, d1) -> the grid index (y' - 1, x' - 1) of its first entry, and its rows
        for d1, d0 in product(range(1 - n, n + 1), repeat=2):
            w0s, w1s = coupling.hole_ranges(n, d0, d1)
            sweeps[d0, d1] = w1s.start + d1 - 1, w0s.start - 1, list(coupling.coupling_signed_rows(n, d0, d1))
        for dx in range(1 - n, n):
            for dy in range(-n, n + 1):
                grid = [[0] * n for _ in range(n + 1)]
                for ex, ey, op in steps:
                    if (dx + ex, -dy - ey) in sweeps:
                        y0, x0, rows = sweeps[dx + ex, -dy - ey]
                        for line, row in zip(grid[y0:], rows):
                            line[x0:x0 + len(row)] = map(op, line[x0:x0 + len(row)], row)
                xs, ys = slice(max(0, -dx), min(n, n - dx)), range(max(1, 1 - dy), min(n + 1, n + 1 - dy) + 1)
                want = [2**n if dx == dy == 0 else 0] * (xs.stop - xs.start)
                for y in ys:  # the v' whose v is on the board
                    if grid[y - 1][xs] != want:
                        x, total = next((x, t) for x, t in enumerate(grid[y - 1][xs], xs.start + 1) if t != want[0])
                        return False, f"n={n} {white(x + dx, y + dy)!r},{white(x, y)!r}: {total} / 2^{n}"
                cases += len(ys) * len(want)
    return True, f"{cases} identities up to order {top}"


def _normalization(full: bool) -> tuple[bool, str]:
    # At a white v, sum_{b ~ v} K(v, b) c_signed(v, b) is the diagonal of K C^T = I, and at a black
    # the same sum over its whites that of C^T K = I: 1 each.  One domino covers each vertex, so the
    # |c| there, each a domino's probability, sum to 1 as well; so no K(v, b) c_signed(v, b) is
    # negative.  2^n on integers, each edge read once through coupling(): c_signed = (-1)^{x'-x+y} c.
    top = 10 if full else 6
    for n in range(1, top + 1):
        board = build_diamond(n)
        signed: Counter[Vertex] = Counter()
        total: Counter[Vertex] = Counter()
        for v in board.white_vertices:
            for b in board.neighbors(v):
                num, scale = coupling.coupling(n, v[1:], b[1:])
                entry = num << (n - scale)
                sign = kasteleyn.edge_sign(v, b) * (-1) ** (b.x - v.x + v.y)
                for u in (v, b):
                    signed[u] += sign * entry
                    total[u] += abs(entry)
        for u in total:
            if signed[u] != 2**n or total[u] != 2**n:
                return False, f"n={n} {u!r}: signed sum {signed[u]}, absolute sum {total[u]} / 2^{n} != 1"
    return True, f"every vertex up to order {top}"


def _cells(pattern: Sequence[Edge]) -> list[coupling.Domino]:
    # The product API's reading of a pattern: each vertex as its (x, y), white then black.
    return [(v[1:], b[1:]) for v, b in pattern]


def _random_pattern(rng: random.Random, board: Board, whites: Sequence[Vertex], size: int) -> list[Edge]:
    # Up to ``size`` disjoint dominoes at whites drawn from ``whites``; a white whose neighbours are
    # all taken is skipped.
    pattern: list[Edge] = []
    taken = set()
    for v in rng.sample(whites, min(size, len(whites))):
        free = [b for b in board.neighbors(v) if b not in taken]
        if free:
            b = rng.choice(free)
            taken.add(b)
            pattern.append((v, b))
    return pattern


def _pattern_vs_transfer(full: bool) -> tuple[bool, str]:
    # P(pattern) = #matchings of the diamond minus the pattern's cells / 2^{n(n+1)/2}.
    top, per_order = (8, 20) if full else (8, 5)
    rng = random.Random(12)
    cases = 0
    for n in range(1, top + 1):
        board = build_diamond(n)
        for _ in range(per_order):
            pattern = _random_pattern(rng, board, board.white_vertices, rng.randint(1, 4))
            rest = remove_vertices(board, [v for edge in pattern for v in edge])
            want = coupling.lowest_terms(enum.weighted_matchings(rest, lambda w, b: 1), n * (n + 1) // 2)
            got = coupling.pattern_probability(n, _cells(pattern))
            if got != want:
                return False, f"n={n} {pattern}: {got} != {want}"
            cases += 1
    return True, f"{cases} seeded patterns up to order {top}"


def _reflections(n: int, pattern: Sequence[Edge]) -> tuple[list[Edge], list[Edge]]:
    """``pattern``'s images under ``cx -> 2n - cx``, white ``(x, y) -> (n+1-x, y)`` and black
    ``(x, y) -> (n+2-x, y)``, and ``cy -> 2n - cy``, white ``(x, y) -> (x, n+2-y)`` and black
    ``(x, y) -> (x, n+1-y)``."""
    return ([(white(n + 1 - v.x, v.y), black(n + 2 - b.x, b.y)) for v, b in pattern],
            [(white(v.x, n + 2 - v.y), black(b.x, n + 1 - b.y)) for v, b in pattern])


def _symmetry(full: bool) -> tuple[bool, str]:
    # A reflected uniform tiling is a uniform tiling, so each reflection keeps every pattern's
    # probability.  It takes K to K with signs on its rows and columns, so it keeps |c| at every
    # pair, adjacent or not.  Patterns of 2-6 dominoes whose whites lie in one 4x4 window.
    per_order, lone = (20, 20) if full else (3, 4)
    rng = random.Random(35)
    cases = 0
    for n in (50, 100, 150, 200):
        board = build_diamond(n)
        for _ in range(per_order):
            x0, y0 = rng.randint(1, n - 3), rng.randint(1, n - 2)
            window = [white(x, y) for y in range(y0, y0 + 4) for x in range(x0, x0 + 4)]
            pattern = _random_pattern(rng, board, window, rng.randint(2, 6))
            want = coupling.pattern_probability(n, _cells(pattern))
            for image in _reflections(n, pattern):
                if coupling.pattern_probability(n, _cells(image)) != want:
                    return False, f"n={n} {pattern}: its reflection {image} has another probability"
                cases += 1
    n = 1000
    for _ in range(lone):
        v, b = white(rng.randint(1, n), rng.randint(1, n + 1)), black(rng.randint(1, n + 1), rng.randint(1, n))
        num, scale = coupling.coupling(n, v[1:], b[1:])
        for (image,) in _reflections(n, [(v, b)]):
            got, got_scale = coupling.coupling(n, image[0][1:], image[1][1:])
            if (abs(got), got_scale) != (abs(num), scale):
                return False, f"n={n} {v!r},{b!r}: its reflection {image} has another |c|"
            cases += 1
    return True, f"{cases} reflected images, patterns to order 200 and |c| at order {n}"


_CHECKS: tuple[Callable[[bool], tuple[bool, str]], ...] = (
    _counts,
    _local_inverse,
    _normalization,
    _pattern_vs_transfer,
    _symmetry,
)


def _result(check: Callable[[bool], tuple[bool, str]], full: bool) -> CheckResult:
    # A check that raises fails alone; the rest of the suite still runs.
    name = check.__name__.lstrip("_").replace("_", "-")
    try:
        return CheckResult(name, *check(full))
    except Exception as exc:
        return CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")


def run_checks(full: bool = False) -> list[CheckResult]:
    """Run the oracle suite, at the ``full`` sizes or the quick ones."""
    return [_result(check, full) for check in _CHECKS]
