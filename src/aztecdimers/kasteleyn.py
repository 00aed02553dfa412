"""Kasteleyn matrices and the oracles built on them.

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
coupling layer, which never touches a matrix.  Each diamond order gets one
cached elimination of ``[K | I]``; ``det K``, every inverse entry and every
signed cofactor are read from it, and no minor of ``K`` is formed.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from . import exactlinalg
from .exactlinalg import ShapeError
from .lattice import Board, Vertex, build_diamond, check_diamond_pair


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
    """Number of perfect matchings, as ``|det K|``; 0 on an unbalanced board, which has no ``K``."""
    try:
        k = kasteleyn_matrix(board)
    except ShapeError:
        return 0
    return abs(exactlinalg.det(k))


@lru_cache(maxsize=8)
def _diamond_inverse(n: int) -> tuple[int, Mapping[tuple[Vertex, Vertex], Fraction]]:
    """``det K`` and the entries of ``(K^{-1})^T`` keyed by ``(white, black)``, for
    the order-``n`` diamond from one :func:`exactlinalg.invert`; cached because
    exhaustive sweeps ask for every pair, and read-only because every caller
    shares them."""
    board = build_diamond(n)
    d, inv = exactlinalg.invert(kasteleyn_matrix(board))
    blacks = board.black_vertices
    return d, MappingProxyType({
        (v, w): inv[j][i]
        for i, v in enumerate(board.white_vertices)
        for j, w in enumerate(blacks)
    })


def inverse_coupling_matrix(n: int) -> Mapping[tuple[Vertex, Vertex], Fraction]:
    """All entries of ``(K^{-1})^T``, keyed by ``(white, black)``: the cached
    elimination of ``[K | I]`` for the order-``n`` diamond."""
    return _diamond_inverse(n)[1]


def signed_hole_cofactor(n: int, v: Vertex, w: Vertex) -> int:
    """Ordering-independent signed cofactor for the hole pair ``(v, w)``.

    This is ``(K^{-1})^T[v, w] * |det K|``: the determinant of ``K`` with
    ``v``'s row and ``w``'s column replaced by unit vectors, normalized by
    the sign of ``det K`` so that the value does not depend on the chosen
    vertex ordering.  Both factors are read from the cached elimination.
    Raises :class:`ValueError` unless ``v`` is a white and ``w`` a black
    vertex of the order-``n`` diamond.  Only the tests and the benchmark
    read it, for the two-hole sign lemma; it moves into ``tests/`` once the
    benchmark stops reading it (ROADMAP item 1b).
    """
    check_diamond_pair(n, v, w)
    d, entries = _diamond_inverse(n)
    return int(entries[v, w] * abs(d))
