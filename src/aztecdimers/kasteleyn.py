"""Kasteleyn matrices and the determinant-based oracles built on them.

A Kasteleyn matrix is a signed bipartite adjacency matrix whose
determinant's absolute value equals the number of perfect matchings.  Two
sign conventions are supported.  Both classify an edge as *horizontal* or
*vertical* in the untilted drawing of the board, where the square lattice
has its usual axis-parallel edges; a vertical edge between rows ``l`` and
``l+1`` gets sign ``(-1)^k`` with

* ``k`` = number of board vertices in row ``l`` strictly to the left
  (:attr:`SignConvention.WILSON_VERTICES`), or
* ``k`` = number of vertical board edges from row ``l`` to ``l+1`` strictly
  to the left (:attr:`SignConvention.VERTICAL_EDGES`).

Horizontal edges get ``+1`` and non-edges ``0``.  The untilted drawing is
derived from diagonal coordinates by the fixed embedding ``white (x, y) ->
(x+y, y-x)``, ``black (x, y) -> (x+y, y-x+1)``, under which the four
white-to-black adjacency offsets become the four unit steps.

Rows are white vertices and columns black vertices, each in row-major
order of their diagonal coordinates.  Any fixed ordering changes the
determinant only by a global sign, which every consumer here either takes
the absolute value of or normalizes away (see :func:`signed_hole_cofactor`).

The oracles are deliberately slow and simple; they certify the closed-form
coupling layer, which never touches a matrix.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from . import exactlinalg
from .exactlinalg import IntMatrix, ShapeError
from .lattice import Board, Color, Pattern, Vertex, build_diamond, check_diamond_pair, validate_pattern


class SignConvention(Enum):
    WILSON_VERTICES = "wilson-vertices"
    VERTICAL_EDGES = "vertical-edges"


#: The convention used by all downstream formulas; valid for boards (like
#: diamonds and rectangles) whose loops enclose only board vertices.
DEFAULT_CONVENTION = SignConvention.VERTICAL_EDGES


def untilted(v: Vertex) -> tuple[int, int]:
    """(column, row) of the vertex in the untilted square-lattice drawing."""
    if v.color is Color.WHITE:
        return (v.x + v.y, v.y - v.x)
    return (v.x + v.y, v.y - v.x + 1)


def kasteleyn_matrix(board: Board, convention: SignConvention = DEFAULT_CONVENTION) -> IntMatrix:
    """Signed adjacency matrix of ``board`` under the given convention."""
    whites = board.white_vertices
    blacks = board.black_vertices
    if len(whites) != len(blacks):
        raise ShapeError(
            f"board has {len(whites)} white but {len(blacks)} black vertices"
        )
    verticals_by_row: dict[int, list[int]] = {}
    vertices_by_row: dict[int, list[int]] = {}
    for v in whites + blacks:
        col, row = untilted(v)
        vertices_by_row.setdefault(row, []).append(col)
    for w in whites:
        wc, wr = untilted(w)
        for b in board.neighbors(w):
            bc, br = untilted(b)
            if bc == wc:
                verticals_by_row.setdefault(min(wr, br), []).append(wc)
    for cols in verticals_by_row.values():
        cols.sort()
    for cols in vertices_by_row.values():
        cols.sort()

    col_index = {b: j for j, b in enumerate(blacks)}
    rows = []
    for w in whites:
        wc, wr = untilted(w)
        row = [0] * len(blacks)
        for b in board.neighbors(w):
            bc, br = untilted(b)
            if bc != wc:
                sign = 1
            else:
                lower = min(wr, br)
                if convention is SignConvention.VERTICAL_EDGES:
                    k = bisect_left(verticals_by_row[lower], wc)
                else:
                    k = bisect_left(vertices_by_row[lower], wc)
                sign = -1 if k % 2 else 1
            row[col_index[b]] = sign
        rows.append(tuple(row))
    return IntMatrix(tuple(rows))


def edge_sign(v: Vertex, b: Vertex) -> int:
    """The entry ``K(v, b)`` of a diamond's Kasteleyn matrix under :data:`DEFAULT_CONVENTION`,
    for white ``v`` and an adjacent black ``b``, at every order: -1 on the step
    ``b = v + (1, -1)`` and +1 on the other three."""
    return -1 if (b.x - v.x, b.y - v.y) == (1, -1) else 1


def count_matchings_det(board: Board, convention: SignConvention = DEFAULT_CONVENTION) -> int:
    """Number of perfect matchings, as ``|det K|``; 0 on an unbalanced board."""
    if len(board.white_vertices) != len(board.black_vertices):
        return 0
    return abs(exactlinalg.det(kasteleyn_matrix(board, convention)))


@lru_cache(maxsize=None)
def _diamond_system(n: int):
    board = build_diamond(n)
    k = kasteleyn_matrix(board)
    d = exactlinalg.det(k)
    index_w = {v: i for i, v in enumerate(board.white_vertices)}
    index_b = {v: j for j, v in enumerate(board.black_vertices)}
    return board, k, d, index_w, index_b


def _cofactor(n: int, v: Vertex, w: Vertex) -> tuple[int, int]:
    """The signed cofactor of ``K`` at white ``v`` and black ``w``, and ``det K``."""
    check_diamond_pair(n, v, w)
    _, k, d, index_w, index_b = _diamond_system(n)
    i, j = index_w[v], index_b[w]
    cof = (-1) ** ((i + j) % 2) * exactlinalg.det(exactlinalg.minor(k, [i], [j]))
    return cof, d


def pattern_probability_oracle(n: int, pattern: Pattern) -> Fraction:
    """Probability of a pattern, as a ratio of Kasteleyn determinants.

    The numerator is the minor of ``K`` with the pattern's white rows and
    black columns deleted; the denominator is ``det K`` itself.
    """
    board, k, d, index_w, index_b = _diamond_system(n)
    whites, blacks = validate_pattern(board, pattern)
    sub = exactlinalg.minor(k, [index_w[v] for v in whites], [index_b[v] for v in blacks])
    return Fraction(abs(exactlinalg.det(sub)), abs(d))


def inverse_coupling_oracle(n: int, v: Vertex, w: Vertex) -> Fraction:
    """The exact ``(v, w)`` entry of ``(K^{-1})^T``: cofactor over determinant."""
    cof, d = _cofactor(n, v, w)
    return Fraction(cof, d)


@lru_cache(maxsize=8)
def inverse_coupling_matrix(n: int) -> dict[tuple[Vertex, Vertex], Fraction]:
    """All entries of ``(K^{-1})^T`` at once, via one Gauss-Jordan inversion.

    Equal entry-by-entry to :func:`inverse_coupling_oracle`; cached because
    exhaustive sweeps ask for every pair.
    """
    board, k, _, _, _ = _diamond_system(n)
    inv = exactlinalg.invert(k)
    return {
        (v, w): inv[j][i]
        for i, v in enumerate(board.white_vertices)
        for j, w in enumerate(board.black_vertices)
    }


def signed_hole_cofactor(n: int, v: Vertex, w: Vertex) -> int:
    """Ordering-independent signed cofactor for the hole pair ``(v, w)``.

    This is ``(K^{-1})^T[v, w] * |det K|``: the determinant of ``K`` with
    ``v``'s row and ``w``'s column replaced by unit vectors, normalized by
    the sign of ``det K`` so that the value does not depend on the chosen
    vertex ordering.  Raises :class:`ValueError` unless ``v`` is a white and
    ``w`` a black vertex of the order-``n`` diamond.
    """
    cof, d = _cofactor(n, v, w)
    return cof if d > 0 else -cof
