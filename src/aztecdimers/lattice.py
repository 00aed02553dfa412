"""Boards for the dimer model: Aztec diamonds and Aztec rectangles.

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
in the canonical labelling above, with no re-orientation.

Rectangles come in two flavours.  A *black-edged* ``n x m`` rectangle with
dents at ``1 <= x_1 < ... <= n+1`` has white vertices ``(i, j)`` for
``i <= n``, ``j <= m``, black vertices ``(i, j)`` for ``i <= n+1``,
``j <= m-1``, and black top-row vertices ``(i, m)`` for every non-dent
``i``.  A *white-edged* ``n x m`` rectangle with teeth at
``1 <= y_1 < ... <= n`` has the full white and black grids up to row ``m``
plus white "teeth" ``(y_k, m+1)``.

Boards are immutable; removing vertices returns a new board with the holes
recorded, and adjacency queries skip holed vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence, Union


class Color(Enum):
    WHITE = "white"
    BLACK = "black"

    @property
    def opposite(self) -> "Color":
        return Color.BLACK if self is Color.WHITE else Color.WHITE


class BoardError(ValueError):
    """Invalid board construction or hole operation."""


class PatternError(ValueError):
    """A pattern does not fit on the board."""


@dataclass(frozen=True)
class Vertex:
    """A colored lattice vertex in diagonal coordinates."""

    color: Color
    x: int
    y: int

    @property
    def cart(self) -> tuple[int, int]:
        """Cartesian pair of the tilted drawing."""
        if self.color is Color.WHITE:
            return (2 * self.x - 1, 2 * self.y - 2)
        return (2 * self.x - 2, 2 * self.y - 1)

    @classmethod
    def from_cart(cls, cx: int, cy: int) -> "Vertex":
        """Inverse of :attr:`cart`; rejects off-lattice parities."""
        if cx % 2 == 1 and cy % 2 == 0:
            return cls(Color.WHITE, (cx + 1) // 2, cy // 2 + 1)
        if cx % 2 == 0 and cy % 2 == 1:
            return cls(Color.BLACK, cx // 2 + 1, (cy + 1) // 2)
        raise BoardError(f"({cx}, {cy}) is not a lattice vertex")

    def __repr__(self) -> str:
        return f"{self.color.value[0].upper()}({self.x},{self.y})"


def white(x: int, y: int) -> Vertex:
    return Vertex(Color.WHITE, x, y)


def black(x: int, y: int) -> Vertex:
    return Vertex(Color.BLACK, x, y)


def row_major(v: Vertex) -> tuple[int, int]:
    """Sort key fixing the row/column order used for matrix indexing."""
    return (v.y, v.x)


# Offsets from a white vertex to its four potential black neighbors.
_WHITE_TO_BLACK = ((0, 0), (1, 0), (0, -1), (1, -1))


@dataclass(frozen=True)
class Diamond:
    n: int


@dataclass(frozen=True)
class BlackRect:
    n: int
    m: int
    dents: tuple[int, ...]


@dataclass(frozen=True)
class WhiteRect:
    n: int
    m: int
    teeth: tuple[int, ...]


BoardKind = Union[Diamond, BlackRect, WhiteRect]


@dataclass(frozen=True)
class Board:
    """An immutable board: full vertex sets plus a record of holes."""

    kind: BoardKind
    whites: tuple[Vertex, ...]
    blacks: tuple[Vertex, ...]
    holes: frozenset[Vertex] = frozenset()

    @cached_property
    def _present(self) -> frozenset[Vertex]:
        return frozenset(self.whites + self.blacks) - self.holes

    @property
    def white_vertices(self) -> tuple[Vertex, ...]:
        """White vertices still on the board, in row-major order."""
        return tuple(v for v in self.whites if v not in self.holes)

    @property
    def black_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.blacks if v not in self.holes)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._present

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        """Adjacent opposite-color vertices, holes excluded."""
        if v not in self._present:
            raise BoardError(f"{v!r} is not on the board")
        if v.color is Color.WHITE:
            cands = (black(v.x + dx, v.y + dy) for dx, dy in _WHITE_TO_BLACK)
        else:
            cands = (white(v.x - dx, v.y - dy) for dx, dy in _WHITE_TO_BLACK)
        return tuple(u for u in cands if u in self._present)

    def is_edge(self, w: Vertex, b: Vertex) -> bool:
        if w.color is not Color.WHITE or b.color is not Color.BLACK:
            return False
        if w not in self._present or b not in self._present:
            return False
        return (b.x - w.x, b.y - w.y) in _WHITE_TO_BLACK

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """All edges as (white, black) pairs, row-major in the white vertex."""
        for w in self.white_vertices:
            for b in self.neighbors(w):
                yield (w, b)

    def vertex_count(self) -> int:
        return len(self._present)


def build_diamond(n: int) -> Board:
    """Aztec diamond of order ``n``, built from its Cartesian vertex ranges."""
    if n < 1:
        raise BoardError(f"diamond order must be positive, got {n}")
    first = [Vertex.from_cart(2 * r + 1, 2 * s) for r in range(n) for s in range(n + 1)]
    second = [Vertex.from_cart(2 * r, 2 * s + 1) for r in range(n + 1) for s in range(n)]
    whites = sorted((v for v in first + second if v.color is Color.WHITE), key=row_major)
    blacks = sorted((v for v in first + second if v.color is Color.BLACK), key=row_major)
    return Board(Diamond(n), tuple(whites), tuple(blacks))


def _check_notches(notches: Sequence[int], m: int, hi: int, what: str) -> tuple[int, ...]:
    notches = tuple(notches)
    if len(notches) > m:
        raise BoardError(f"at most {m} {what} allowed, got {len(notches)}")
    if any(b <= a for a, b in zip(notches, notches[1:])):
        raise BoardError(f"{what} must be strictly increasing: {notches}")
    if notches and not (1 <= notches[0] and notches[-1] <= hi):
        raise BoardError(f"{what} must lie in [1, {hi}]: {notches}")
    return notches


def build_rectangle(kind, n: int, m: int, notches: Sequence[int]) -> Board:
    """Aztec rectangle of the given kind (:class:`BlackRect` or :class:`WhiteRect`).

    ``notches`` are dents (removed black top-row vertices) for a black-edged
    rectangle and teeth (extra white row-``m+1`` vertices) for a white-edged
    one.  Color-balanced boards need exactly ``m`` notches; fewer are legal
    and arise when a hole will be punched afterwards.
    """
    if n < 1 or m < 1:
        raise BoardError(f"rectangle sides must be positive, got {n}x{m}")
    whites = [white(i, j) for j in range(1, m + 1) for i in range(1, n + 1)]
    if kind is BlackRect:
        dents = _check_notches(notches, m, n + 1, "dents")
        blacks = [black(i, j) for j in range(1, m) for i in range(1, n + 2)]
        blacks += [black(i, m) for i in range(1, n + 2) if i not in dents]
        board_kind: BoardKind = BlackRect(n, m, dents)
    elif kind is WhiteRect:
        teeth = _check_notches(notches, m, n, "teeth")
        blacks = [black(i, j) for j in range(1, m + 1) for i in range(1, n + 2)]
        whites += [white(t, m + 1) for t in teeth]
        board_kind = WhiteRect(n, m, teeth)
    else:
        raise BoardError(f"unknown rectangle kind: {kind!r}")
    whites.sort(key=row_major)
    blacks.sort(key=row_major)
    return Board(board_kind, tuple(whites), tuple(blacks))


def remove_vertices(board: Board, holes: Iterable[Vertex]) -> Board:
    """Return ``board`` with ``holes`` punched out."""
    new_holes = set(board.holes)
    for v in holes:
        if v not in set(board.whites) | set(board.blacks):
            raise BoardError(f"{v!r} is not a vertex of the board")
        if v in new_holes:
            raise BoardError(f"{v!r} removed twice")
        new_holes.add(v)
    return replace(board, holes=frozenset(new_holes))


@dataclass(frozen=True)
class Pattern:
    """A set of dominoes, each a (white, black) adjacent pair."""

    dominoes: tuple[tuple[Vertex, Vertex], ...]

    @classmethod
    def of(cls, *dominoes: tuple[Vertex, Vertex]) -> "Pattern":
        return cls(tuple(dominoes))


def validate_pattern(board: Board, pattern: Pattern) -> tuple[list[Vertex], list[Vertex]]:
    """Split a pattern into its white and black vertex lists, order preserved.

    Raises :class:`PatternError` if a pair is not a board edge or a vertex
    repeats.
    """
    whites: list[Vertex] = []
    blacks: list[Vertex] = []
    seen: set[Vertex] = set()
    for w, b in pattern.dominoes:
        if not board.is_edge(w, b):
            raise PatternError(f"({w!r}, {b!r}) is not a domino of the board")
        for v in (w, b):
            if v in seen:
                raise PatternError(f"vertex {v!r} covered twice")
            seen.add(v)
        whites.append(w)
        blacks.append(b)
    return whites, blacks
