"""Kasteleyn matrices and the determinant-based oracles built on them.

A Kasteleyn matrix is a signed bipartite adjacency matrix whose
determinant's absolute value equals the number of perfect matchings
(Kasteleyn, *The statistics of dimers on a lattice*, 1961; Kenyon, *Local
statistics of lattice dimers*, 1997).  One sign rule, :func:`edge_sign`,
gives every entry: ``-1`` on the white-to-black step ``(1, -1)`` in
diagonal coordinates, ``+1`` on the other three steps, ``0`` off the edges.

Why it is a Kasteleyn signing: every face of the square lattice is a
4-cycle of two whites and two blacks, and exactly one of its four
white-to-black steps is ``(1, -1)``.  So the signs around every face
multiply to ``-1``, which is Kasteleyn's condition for a face of length 4.
The rule therefore holds on every board whose bounded faces are lattice
faces: diamonds, rectangles, and boards with holes on the boundary.  A
hole strictly inside the board merges lattice faces into a longer bounded
face, for which this argument says nothing; such boards are not supported.

Rows are white vertices and columns black vertices, each in row-major
order of their diagonal coordinates.  Any fixed ordering changes the
determinant only by a global sign, which every consumer here either takes
the absolute value of or normalizes away (see :func:`signed_hole_cofactor`).

The oracles are deliberately slow and simple; they certify the closed-form
coupling layer, which never touches a matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import exactlinalg
from .exactlinalg import ShapeError
from .lattice import Board, Edge, Vertex, build_diamond, check_diamond_pair, validate_pattern


def edge_sign(v: Vertex, b: Vertex) -> int:
    """The Kasteleyn entry ``K(v, b)`` for white ``v`` and an adjacent black ``b``:
    -1 on the step ``b = v + (1, -1)`` and +1 on the other three."""
    return -1 if (b.x - v.x, b.y - v.y) == (1, -1) else 1


def kasteleyn_matrix(board: Board) -> tuple[tuple[int, ...], ...]:
    """Signed adjacency matrix of ``board`` under :func:`edge_sign`, as a tuple of rows."""
    whites = board.white_vertices
    blacks = board.black_vertices
    if len(whites) != len(blacks):
        raise ShapeError(
            f"board has {len(whites)} white but {len(blacks)} black vertices"
        )
    col_index = {b: j for j, b in enumerate(blacks)}
    rows = []
    for w in whites:
        row = [0] * len(blacks)
        for b in board.neighbors(w):
            row[col_index[b]] = edge_sign(w, b)
        rows.append(tuple(row))
    return tuple(rows)


def count_matchings_det(board: Board) -> int:
    """Number of perfect matchings, as ``|det K|``; 0 on an unbalanced board."""
    if len(board.white_vertices) != len(board.black_vertices):
        return 0
    return abs(exactlinalg.det(kasteleyn_matrix(board)))


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


def pattern_probability_oracle(n: int, pattern: Sequence[Edge]) -> Fraction:
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
    """All entries of ``(K^{-1})^T`` at once, from one :func:`exactlinalg.invert`:
    a forward fraction-free elimination of ``[K | I]`` and back substitution.

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
