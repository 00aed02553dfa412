"""Boards for the dimer model: the Aztec diamond and its holed copies.

Every board lives on the square lattice drawn tilted 45 degrees, so each
vertex carries two coordinate systems:

* Cartesian ``(cx, cy)``: the tilted drawing.  The order-``n`` diamond has
  vertices ``(2r+1, 2s)`` for ``0 <= r < n``, ``0 <= s <= n`` (one color
  class) and ``(2r, 2s+1)`` for ``0 <= r <= n``, ``0 <= s < n`` (the other),
  joined in quadrilaterals around each ``(2r+1, 2s+1)``.

* Diagonal ``(x, y)``: integer labels along the two diagonal directions,
  assigned per color class.  White vertices of the order-``n`` diamond fill
  ``1 <= x <= n``, ``1 <= y <= n+1``; black vertices fill ``1 <= x <= n+1``,
  ``1 <= y <= n``.  White ``(x, y)`` is adjacent to the black vertices
  ``(x, y)``, ``(x+1, y)``, ``(x, y-1)`` and ``(x+1, y-1)`` that exist.

The two systems are related by the fixed affine bijection

    white (x, y)  <->  cart (2x-1, 2y-2)
    black (x, y)  <->  cart (2x-2, 2y-1)

All formulas in :mod:`aztecdimers.coupling` consume diagonal coordinates
in the canonical labelling above, with no re-orientation.  The bijection
stays the link to the tilted drawing; boards themselves never use it.

This module is the board model of the oracles (:mod:`~aztecdimers.kasteleyn`,
:mod:`~aztecdimers.enumerate`, :mod:`~aztecdimers.verify`) and of the tests.
The product takes plain ``(x, y)`` integer pairs and checks them on integers,
so no valid ``count``, ``coupling``, ``prob`` or ``heatmap`` command imports
this module; ``coupling`` and ``prob`` load it only for the :class:`BoardError`
or :class:`PatternError` they raise, whose text names :class:`Vertex` values.

A board's kind decides which vertices it has, by a few range comparisons
in ``v in kind``, so building a board costs O(1); its vertex tuples are
built from that test on each read.  The product's one kind is :class:`Diamond`,
whose ``__contains__`` states the diamond's bounds once.  Any other kind (the test
suite builds the paper's Aztec rectangles this way) supplies the same three
members: ``v in kind``, and the bounding box ``1 <= x <= kind.n + 1``,
``1 <= y <= kind.rows + 1`` that holds all of its vertices.  Vertices, diamonds
and boards are named tuples, so they are immutable and compare and hash as
their fields; removing vertices returns a new board with the holes recorded.
:class:`Color` hashes by identity, so hashing a :class:`Vertex` costs a tuple hash.

An edge, or domino, is a plain ``(white, black)`` tuple of adjacent vertices
(:data:`Edge`), and a pattern is a sequence of them, such as a matching from
:func:`aztecdimers.enumerate.enumerate_matchings`.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple


class Color(Enum):
    WHITE = "white"
    BLACK = "black"
    __hash__ = object.__hash__


class BoardError(ValueError):
    """Invalid board construction or hole operation."""


class PatternError(ValueError):
    """A pattern does not fit on the board."""


class Vertex(NamedTuple):
    """A colored lattice vertex in diagonal coordinates."""

    color: Color
    x: int
    y: int

    def __repr__(self) -> str:
        return f"{self.color.value[0].upper()}({self.x},{self.y})"


#: A domino: a (white, black) adjacent pair.  A pattern is a sequence of them.
Edge = tuple[Vertex, Vertex]


def white(x: int, y: int) -> Vertex:
    return Vertex(Color.WHITE, x, y)


def black(x: int, y: int) -> Vertex:
    return Vertex(Color.BLACK, x, y)


# Offsets from a white vertex to its four potential black neighbors.
_WHITE_TO_BLACK = ((0, 0), (1, 0), (0, -1), (1, -1))


class Diamond(NamedTuple):
    n: int

    @property
    def rows(self) -> int:
        return self.n

    def __contains__(self, v: Vertex) -> bool:
        """Whether ``v`` is a vertex of the order-``n`` diamond."""
        n = self.n
        if v.color is Color.WHITE:
            return 1 <= v.x <= n and 1 <= v.y <= n + 1
        return 1 <= v.x <= n + 1 and 1 <= v.y <= n


def check_diamond_pair(n: int, v: Vertex, w: Vertex) -> None:
    """Raise ``BoardError`` unless white ``v`` and black ``w`` are on the order-``n`` diamond."""
    if n < 1:
        raise BoardError(f"diamond order must be positive, got {n}")
    diamond = Diamond(n)
    if v.color is not Color.WHITE or v not in diamond:
        raise BoardError(f"{v!r} is not a white vertex of the order-{n} diamond")
    if w.color is not Color.BLACK or w not in diamond:
        raise BoardError(f"{w!r} is not a black vertex of the order-{n} diamond")


class Board(NamedTuple):
    """A board: ``v in board`` means ``v in board.kind and v not in
    board.holes``.  Each color's vertex tuple is generated from that test
    over the kind's bounding box on each read, in row-major order (by
    ``y``, then ``x``), the row and column order of every matrix built from
    the board.  A named tuple, so boards are immutable and compare and hash
    as the tuple ``(kind, holes)``."""

    kind: Diamond
    holes: frozenset[Vertex] = frozenset()

    def __repr__(self) -> str:
        # Holes in a fixed order, whites then blacks, each by (y, x): a set's order follows hashes.
        holes = ", ".join(map(repr, sorted(self.holes, key=lambda v: (v.color is Color.BLACK, v.y, v.x))))
        return f"Board(kind={self.kind!r}, holes=frozenset({'{' + holes + '}' if holes else ''}))"

    def _generate(self, color: Color) -> tuple[Vertex, ...]:
        kind = self.kind
        cands = (Vertex(color, x, y) for y in range(1, kind.rows + 2) for x in range(1, kind.n + 2))
        return tuple(v for v in cands if v in self)

    @property
    def white_vertices(self) -> tuple[Vertex, ...]:
        """White vertices on the board, holes excluded, in row-major order."""
        return self._generate(Color.WHITE)

    @property
    def black_vertices(self) -> tuple[Vertex, ...]:
        return self._generate(Color.BLACK)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.kind and v not in self.holes

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        """Adjacent opposite-color vertices, holes excluded."""
        if v not in self:
            raise BoardError(f"{v!r} is not on the board")
        if v.color is Color.WHITE:
            cands = (black(v.x + dx, v.y + dy) for dx, dy in _WHITE_TO_BLACK)
        else:
            cands = (white(v.x - dx, v.y - dy) for dx, dy in _WHITE_TO_BLACK)
        return tuple(u for u in cands if u in self)


def build_diamond(n: int) -> Board:
    """Aztec diamond of order ``n``; its vertices are generated on demand."""
    if n < 1:
        raise BoardError(f"diamond order must be positive, got {n}")
    return Board(Diamond(n))


def remove_vertices(board: Board, holes: Iterable[Vertex]) -> Board:
    """Return ``board`` with ``holes`` punched out."""
    new_holes = set(board.holes)
    for v in holes:
        if v not in board.kind:
            raise BoardError(f"{v!r} is not a vertex of the board")
        if v in new_holes:
            raise BoardError(f"{v!r} removed twice")
        new_holes.add(v)
    return Board(board.kind, frozenset(new_holes))

