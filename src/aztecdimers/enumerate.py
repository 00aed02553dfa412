"""Brute-force matching enumeration: the ground-truth oracle layer.

Everything here is deliberately slow and simple.  These routines exist to
certify the determinant and closed-form layers on desk-scale boards, so
they favour obviousness over speed: a plain backtracking search that always
branches on an uncovered vertex of minimum remaining degree (which resolves
forced zig-zag regions without branching).

Besides plain counting, this module evaluates the signed counts
``sum_T (-1)^{w(T)}`` over matchings of a two-hole diamond, where ``w(T)``
counts the matched edges that descend into the two hole rows to the left of
the holes; see :func:`crossing_weight`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

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
    if board.vertex_count() > MAX_ENUMERATION_VERTICES:
        raise EnumerationLimitError(
            f"{board.vertex_count()} vertices exceeds the enumeration limit ({MAX_ENUMERATION_VERTICES})"
        )
    whites = board.white_vertices
    blacks = board.black_vertices
    if len(whites) != len(blacks):
        return 0
    adjacency = {v: board.neighbors(v) for v in whites + blacks}
    vertices = whites + blacks
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


def _canonical(matched: dict[Vertex, Vertex]) -> tuple[Edge, ...]:
    edges = [(v, matched[v]) for v in matched if v.color is Color.WHITE]
    edges.sort(key=lambda e: (e[0].y, e[0].x))
    return tuple(edges)


@dataclass(frozen=True)
class HoleSpec:
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
    """``sum_T (-1)^{w(T)}`` over matchings of the two-hole diamond, by enumeration."""
    board = remove_vertices(build_diamond(n), [spec.white_hole, spec.black_hole])
    total = 0

    def visit(matching: tuple[Edge, ...]) -> None:
        nonlocal total
        total += -1 if crossing_weight(matching, spec) % 2 else 1

    enumerate_matchings(board, visit)
    return total

