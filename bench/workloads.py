"""Seeded inputs and correctness checks for the three benchmark workloads.

Everything here is plain data and pure functions: :func:`make_ops` turns a
workload name, a seed and a :class:`Size` into the fixed list of operations
one round performs, and the ``check_*`` functions judge one operation's
output.  Nothing in this module imports :mod:`aztecdimers`; the round
process (``round.py``) runs the operations against the program.

Workloads
---------
``heatmap-sweep``
    Three ``heatmap`` commands, one per order in ``Size.heatmap_orders``,
    at offsets drawn from [-3, 3]^2, with ``d1 <= 0`` at the first and third
    order and ``d1 >= 1`` at the second.  The product path: nearly all time is per-term Krawtchouk
    lookups inside the coupling branch sums.
``pattern-queries``
    About 1500 ``prob`` (80%) and ``coupling`` (20%) commands spread evenly
    over ``Size.pattern_orders``.  Each ``prob`` pattern is a local cluster
    of 1..8 dominoes inside a 4x4 window of white vertices; a few ``prob``
    commands form normalization groups (the four single dominoes at one
    white vertex, whose probabilities sum to exactly 1).  Scattered single
    lookups: per-entry cost, small determinants, JSON loading and board
    construction dominate.
``oracle-certify``
    ``count`` at each order in ``Size.count_orders``, the full inverse
    Kasteleyn matrix at each order in ``Size.inverse_orders`` compared entry
    by entry with ``coupling_signed``, and signed enumeration of seeded hole
    pairs compared with the signed Kasteleyn cofactor.  The oracle layers
    (``exactlinalg``, ``kasteleyn``, ``enumerate``) do the work.

The mix per order, per domino count and per command kind is fixed; the seed
only chooses positions and offsets, so seeds differ little in total work.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from typing import Optional

WORKLOADS = ("heatmap-sweep", "pattern-queries", "oracle-certify")

#: Seed whose outputs are pinned by ``digests.json``.
DEFAULT_SEED = 1
#: Seed kept out of tuning, for confirming a claim on fresh inputs.
HELD_OUT_SEED = 977

# A white vertex (x, y) touches the black vertices (x+dx, y+dy).
WHITE_TO_BLACK = ((0, 0), (1, 0), (0, -1), (1, -1))


@dataclass(frozen=True)
class Size:
    heatmap_orders: tuple[int, ...]
    #: Order of the untimed heatmap compared with the dense inverse (<= 8).
    heatmap_gate_order: int
    pattern_orders: tuple[int, ...]
    pattern_ops_per_order: int
    count_orders: tuple[int, ...]
    inverse_orders: tuple[int, ...]
    hole_pairs: int


FULL = Size(
    heatmap_orders=(120, 160, 200),
    heatmap_gate_order=6,
    pattern_orders=(24, 60, 120, 200),
    pattern_ops_per_order=375,
    count_orders=(10, 12, 14, 16),
    inverse_orders=(5, 6, 7, 8),
    hole_pairs=30,
)

#: Seconds-scale sizes for the smoke test.
TOY = Size(
    heatmap_orders=(8, 10, 12),
    heatmap_gate_order=4,
    pattern_orders=(6, 10),
    pattern_ops_per_order=40,
    count_orders=(2, 4),
    inverse_orders=(3, 4),
    hole_pairs=5,
)


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``kind`` is a CLI command (``heatmap``, ``prob``, ``coupling``,
    ``count``) or an in-process oracle comparison (``inverse``, ``holes``).
    ``params`` holds the command's inputs; for ``prob`` it is the order and
    the pattern's dominoes, each ``((wx, wy), (bx, by), white_first)``.
    ``group`` ties the four ``prob`` operations of a normalization group.
    """

    kind: str
    params: tuple
    group: Optional[int] = None


def make_ops(workload: str, seed: int, size: Size) -> list[Op]:
    """The fixed operation list of one round; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "heatmap-sweep":
        return _heatmap_ops(rng, size)
    if workload == "pattern-queries":
        return _pattern_ops(rng, size)
    if workload == "oracle-certify":
        return _oracle_ops(rng, size)
    raise ValueError(f"unknown workload {workload!r}")


def _heatmap_ops(rng: random.Random, size: Size) -> list[Op]:
    # Orders alternate between d1 <= 0 (the half-turn branch, about 8% slower
    # per entry) and d1 >= 1, so every seed sends the same share of the work
    # down each branch.
    return [
        Op("heatmap", (n, rng.randint(-3, 3), rng.randint(*((-3, 0) if i % 2 == 0 else (1, 3)))))
        for i, n in enumerate(size.heatmap_orders)
    ]


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in [lo, hi], one from each of ``count`` equal strata, shuffled.

    A coupling entry costs about as many Krawtchouk terms as its x position
    (or n+1 minus it), so stratifying x keeps the work, and the latency tail,
    nearly the same from seed to seed.
    """
    width = (hi - lo + 1) / count
    values = [lo + int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(values)
    return values


def _cluster(rng: random.Random, n: int, k: int, x0: int) -> tuple:
    """``k`` disjoint dominoes whose whites lie in a 4x4 window at column ``x0``."""
    while True:
        y0 = rng.randint(1, n - 2)
        edges = [
            ((x, y), (x + dx, y + dy))
            for x in range(x0, x0 + 4)
            for y in range(y0, y0 + 4)
            for dx, dy in WHITE_TO_BLACK
            if 1 <= x + dx <= n + 1 and 1 <= y + dy <= n
        ]
        rng.shuffle(edges)
        used, chosen = set(), []
        for w, b in edges:
            if ("w", w) not in used and ("b", b) not in used:
                used.update((("w", w), ("b", b)))
                chosen.append((w, b, rng.random() < 0.5))
                if len(chosen) == k:
                    return tuple(chosen)


def _interleave(rng: random.Random, classes: list[list[Op]]) -> list[Op]:
    """Every class of operations spread evenly through the list, at seeded offsets.

    The first operations at each order pay for cold caches.  Spreading each
    class (order, command, domino count) evenly keeps the number of heavy
    operations that run cold, and with it the latency tail, nearly the same
    from seed to seed.
    """
    keyed = [((j + rng.random()) / len(ops), op) for ops in classes for j, op in enumerate(ops)]
    keyed.sort(key=lambda pair: pair[0])
    return [op for _, op in keyed]


def _pattern_ops(rng: random.Random, size: Size) -> list[Op]:
    classes = []
    group = 0
    for n in size.pattern_orders:
        couplings = size.pattern_ops_per_order // 5
        classes.append([
            Op("coupling", (n, (x, rng.randint(1, n + 1)), (rng.randint(1, n + 1), rng.randint(1, n))))
            for x in _stratified(rng, 1, n, couplings)
        ])
        clusters = (size.pattern_ops_per_order - couplings - 4) // 8
        for k in range(1, 9):
            classes.append([
                Op("prob", (n, _cluster(rng, n, k, x0))) for x0 in _stratified(rng, 1, n - 3, clusters)
            ])
        # Four single-domino patterns at a white vertex with all four
        # neighbours: their probabilities sum to exactly 1.
        x, y = rng.randint(1, n), rng.randint(2, n)
        classes.append([
            Op("prob", (n, (((x, y), (x + dx, y + dy), True),)), group) for dx, dy in WHITE_TO_BLACK
        ])
        group += 1
    return _interleave(rng, classes)


def hole_pairs(n: int) -> list[tuple[int, int, int, int]]:
    """Every hole pair ``(w0, d0, w1, d1)`` with ``d0, d1 >= 1`` on the order-``n`` diamond."""
    return [
        (w0, d0, w1, d1)
        for w0 in range(1, n + 1)
        for d0 in range(1, n + 2 - w0)
        for w1 in range(1, n + 1)
        for d1 in range(1, n + 2 - w1)
    ]


#: Order of the diamonds whose hole pairs ``oracle-certify`` enumerates.
HOLE_ORDER = 4

#: Perfect matchings of the order-4 diamond with each hole pair of
#: ``hole_pairs(4)`` removed, in that order (the smoke test recounts them).
#: Enumeration time is nearly proportional to this count, which spans 64 to
#: 1344, so a plain random sample of pairs would make the work differ by seed.
ORDER4_HOLE_MATCHINGS = (
    64, 64, 64, 64, 192, 192, 192, 192, 192, 64,
    64, 64, 64, 64, 96, 96, 96, 96, 96, 64,
    64, 64, 64, 64, 96, 96, 96, 96, 96, 64,
    64, 64, 64, 64, 192, 192, 192, 192, 192, 64,
    192, 96, 96, 192, 192, 160, 288, 320, 480, 320,
    192, 96, 96, 192, 160, 224, 384, 224, 384, 320,
    192, 96, 96, 192, 288, 384, 704, 480, 832, 320,
    192, 96, 96, 192, 320, 224, 480, 320, 480, 704,
    192, 96, 96, 192, 480, 384, 832, 480, 1344, 704,
    64, 64, 64, 64, 320, 320, 320, 704, 704, 960,
)


def _oracle_ops(rng: random.Random, size: Size) -> list[Op]:
    ops = [Op("count", (n,)) for n in size.count_orders]
    ops += [Op("inverse", (n,)) for n in size.inverse_orders]
    # One pair from each of ``hole_pairs`` strata of the pairs ranked by cost.
    ranked = sorted(
        zip(ORDER4_HOLE_MATCHINGS, (rng.random() for _ in ORDER4_HOLE_MATCHINGS), hole_pairs(HOLE_ORDER))
    )
    for i in _stratified(rng, 0, len(ranked) - 1, size.hole_pairs):
        ops.append(Op("holes", (HOLE_ORDER, *ranked[i][2])))
    return ops


def pattern_document(n: int, dominoes: tuple) -> dict:
    """The pattern file contents for a ``prob`` operation."""
    cells = []
    for (wx, wy), (bx, by), white_first in dominoes:
        w, b = ["white", wx, wy], ["black", bx, by]
        cells.append([w, b] if white_first else [b, w])
    return {"format": 1, "n": n, "dominoes": cells}


def heatmap_cell_count(n: int, d0: int, d1: int) -> int:
    """Hole positions ``(w0, w1)`` whose white and black vertex both lie on the board."""
    w0s = sum(1 for w0 in range(1, n + 1) if 1 <= w0 + d0 <= n + 1)
    w1s = sum(1 for w1 in range(1, n + 1) if 1 <= w1 + d1 <= n + 1)
    return w0s * w1s


# ---------------------------------------------------------------------------
# Output checks: each raises ValueError when the output is wrong.
# ---------------------------------------------------------------------------

_APPROX = Context(prec=12, rounding=ROUND_HALF_EVEN)
_PROB_LINE = re.compile(r"(\d+)/(\d+) \((\S+)\)\n")
_COUPLING_LINE = re.compile(r"(-?\d+) / 2\^(\d+) \((\S+)\)\n")


def approx(numerator: int, denominator: int) -> str:
    """12-significant-digit round-half-even decimal of ``numerator / denominator``."""
    return str(_APPROX.divide(Decimal(numerator), Decimal(denominator)))


def _is_power_of_two(q: int) -> bool:
    return q > 0 and q & (q - 1) == 0


def check_count(n: int, out: str) -> None:
    e = n * (n + 1) // 2
    want = f"{2 ** e} (= 2^{e})\n"
    if out != want:
        raise ValueError(f"count n={n}: printed {out!r}, want {want!r}")


def parse_prob(out: str) -> Fraction:
    """The exact probability printed by ``prob``; raises ValueError if malformed or wrong."""
    m = _PROB_LINE.fullmatch(out)
    if not m:
        raise ValueError(f"malformed prob output {out!r}")
    p, q = int(m[1]), int(m[2])
    value = Fraction(p, q)
    if (value.numerator, value.denominator) != (p, q) or not _is_power_of_two(q) or p > q:
        raise ValueError(f"prob {p}/{q} is not a reduced dyadic probability")
    if m[3] != approx(p, q):
        raise ValueError(f"prob {p}/{q}: approx {m[3]} != {approx(p, q)}")
    return value


def check_coupling(n: int, out: str) -> None:
    m = _COUPLING_LINE.fullmatch(out)
    if not m:
        raise ValueError(f"malformed coupling output {out!r}")
    num, scale = int(m[1]), int(m[2])
    if scale > n or (num % 2 == 0 and (num, scale) != (0, 0)):
        raise ValueError(f"coupling {num} / 2^{scale} is not a normalized dyadic value of order {n}")
    if m[3] != approx(num, 2**scale):
        raise ValueError(f"coupling {num} / 2^{scale}: approx {m[3]} != {approx(num, 2**scale)}")


def parse_heatmap(text: str, n: int, d0: int, d1: int) -> dict[tuple[int, int], Fraction]:
    """Entries of a heatmap CSV by ``(w0, w1)``; raises ValueError on any bad row."""
    lines = text.split("\n")
    if lines[0] != "w0,w1,numerator,scale,approx" or lines[-1] != "":
        raise ValueError("heatmap CSV lacks its header or final newline")
    entries = {}
    for line in lines[1:-1]:
        w0, w1, num, scale, text_approx = line.split(",")
        num, scale = int(num), int(scale)
        if text_approx != approx(num, 2**scale):
            raise ValueError(f"heatmap row {line!r}: approx != {approx(num, 2**scale)}")
        entries[int(w0), int(w1)] = Fraction(num, 2**scale)
    if len(entries) != len(lines) - 2 or len(entries) != heatmap_cell_count(n, d0, d1):
        raise ValueError(f"heatmap has {len(lines) - 2} rows, want {heatmap_cell_count(n, d0, d1)}")
    return entries
