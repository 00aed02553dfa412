"""Matching counts without determinants: the ground-truth oracle layer.

These routines certify the determinant and closed-form layers, so neither
uses Kasteleyn signs or Krawtchouk sums.  Two counters:

* :func:`weighted_matchings`, a transfer matrix that adds up edge-weight
  products over the perfect matchings of any board, one white at a time in
  row-major order.  Its states are the sets of taken blacks on the frontier
  between processed and unprocessed whites: the row-by-row view of the
  diamond of Elkies, Kuperberg, Larsen and Propp, *Alternating-sign matrices
  and domino tilings* (1992).  Its states grow with the board's width, not
  its area, so it counts order-13 diamonds, far past the enumerator's 5.
* :func:`enumerate_matchings`, a plain backtracking search that visits each
  matching, always branching on an uncovered vertex of minimum remaining
  degree.  It is the small reference the transfer matrix is held to, and is
  capped at :data:`MAX_ENUMERATION_VERTICES`.

Besides plain counting, this module evaluates the signed counts
``sum_T (-1)^{w(T)}`` over matchings of a two-hole diamond, where ``w(T)``
counts the matched edges that descend into the two hole rows to the left of
the holes; see :func:`crossing_weight`.  They serve the paper's sign lemma,
not the product: only the tests and the benchmark read :class:`HoleSpec`,
:func:`crossing_weight` and :func:`weighted_count`, and they move into
``tests/`` once the benchmark stops reading them (ROADMAP item 1b).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

from .lattice import Board, Color, Edge, Vertex, black, build_diamond, remove_vertices, white

#: Boards above this size are refused, with no override: the search time grows
#: exponentially with the board, and every oracle check fits under this size.
MAX_ENUMERATION_VERTICES = 60


class EnumerationLimitError(ValueError):
    """Board too large for exhaustive enumeration."""


def enumerate_matchings(board: Board, visitor: Optional[Callable[[tuple[Edge, ...]], None]] = None) -> int:
    """Visit every perfect matching of ``board`` exactly once; return the count.

    ``visitor``, if given, receives each matching as a tuple of
    (white, black) edges sorted by white vertex, itself a pattern.
    Unmatchable boards (including color-unbalanced ones) yield 0.
    """
    whites, blacks = board.white_vertices, board.black_vertices
    vertices = whites + blacks
    if len(vertices) > MAX_ENUMERATION_VERTICES:
        raise EnumerationLimitError(
            f"{len(vertices)} vertices exceeds the enumeration limit ({MAX_ENUMERATION_VERTICES})"
        )
    if len(whites) != len(blacks):
        return 0
    adjacency = {v: board.neighbors(v) for v in vertices}
    matched: dict[Vertex, Vertex] = {}
    count = 0

    def bound_degree(v: Vertex) -> int:
        return sum(1 for u in adjacency[v] if u not in matched)

    def recurse() -> None:
        nonlocal count
        pivot = None
        pivot_degree = None
        for v in vertices:
            if v in matched:
                continue
            d = bound_degree(v)
            if d == 0:
                return  # uncoverable vertex: dead branch
            if pivot_degree is None or d < pivot_degree:
                pivot, pivot_degree = v, d
                if d == 1:
                    break
        if pivot is None:
            count += 1
            if visitor is not None:
                visitor(_canonical(matched))
            return
        for u in adjacency[pivot]:
            if u in matched:
                continue
            matched[pivot] = u
            matched[u] = pivot
            recurse()
            del matched[pivot], matched[u]

    recurse()
    return count


def weighted_matchings(board: Board, weight: Callable[[Vertex, Vertex], int]) -> int:
    """``sum_M prod_{(w, b) in M} weight(w, b)`` over the perfect matchings ``M`` of ``board``.

    Whites are matched one at a time in row-major order.  A state is the set,
    as a bitmask, of the blacks already taken that still have an unmatched
    white neighbour; each state carries the summed weight of the partial
    matchings that reach it.  A black is retired after its last white
    neighbour, and states that leave it free are dropped.  Unmatchable boards
    (including color-unbalanced ones) yield 0.
    """
    whites, blacks = board.white_vertices, board.black_vertices
    if len(whites) != len(blacks):
        return 0
    bit = {b: 1 << j for j, b in enumerate(blacks)}
    edges = [[(bit[b], weight(w, b)) for b in board.neighbors(w)] for w in whites]
    last: dict[int, int] = {}  # black's bit -> index of its last white neighbour
    for i, row in enumerate(edges):
        for mask, _ in row:
            last[mask] = i
    retired = [0] * len(whites)
    for mask, i in last.items():
        retired[i] |= mask
    states = {0: 1}
    for row, done in zip(edges, retired):
        nxt: dict[int, int] = {}
        for state, total in states.items():
            for mask, factor in row:
                if state & mask:
                    continue
                taken = state | mask
                if taken & done == done:
                    nxt[taken ^ done] = nxt.get(taken ^ done, 0) + total * factor
        states = nxt
    return states.get(0, 0)


def _canonical(matched: dict[Vertex, Vertex]) -> tuple[Edge, ...]:
    edges = [(v, matched[v]) for v in matched if v.color is Color.WHITE]
    edges.sort(key=lambda e: (e[0].y, e[0].x))
    return tuple(edges)


class HoleSpec(NamedTuple):
    """Hole pair of a diamond: black at ``(w0+d0, w1)``, white at ``(w0, w1+d1)``."""

    w0: int
    d0: int
    w1: int
    d1: int

    @property
    def white_hole(self) -> Vertex:
        return white(self.w0, self.w1 + self.d1)

    @property
    def black_hole(self) -> Vertex:
        return black(self.w0 + self.d0, self.w1)


def crossing_weight(matching: Iterable[Edge], spec: HoleSpec) -> int:
    """The weight ``w(T)``: descending edges left of the holes, in two rows.

    Counts, with multiplicity across the two clauses,

    * edges from white row ``w1+1`` down to black row ``w1`` whose black
      endpoint has ``x < w0 + d0``, and
    * edges from white row ``w1+d1`` down to black row ``w1+d1-1`` whose
      white endpoint has ``x < w0``.

    Only its parity is ever used.
    """
    w0, d0, w1, d1 = spec.w0, spec.d0, spec.w1, spec.d1
    total = 0
    for w, b in matching:
        if w.y == w1 + 1 and b.y == w1 and b.x < w0 + d0:
            total += 1
        if w.y == w1 + d1 and b.y == w1 + d1 - 1 and w.x < w0:
            total += 1
    return total


def weighted_count(n: int, spec: HoleSpec) -> int:
    """``sum_T (-1)^{w(T)}`` over matchings of the two-hole diamond, by transfer matrix.

    ``w(T)`` is a sum over edges, so ``(-1)^{w(T)}`` is the product of each
    edge's sign ``(-1)^{crossing_weight((edge,))}``.
    """
    board = remove_vertices(build_diamond(n), [spec.white_hole, spec.black_hole])
    return weighted_matchings(board, lambda w, b: -1 if crossing_weight(((w, b),), spec) % 2 else 1)

