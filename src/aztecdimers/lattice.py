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
in the canonical labelling above, with no re-orientation.  The bijection
stays the link to the tilted drawing; boards themselves never use it.

Rectangles come in two flavours.  A *black-edged* ``n x m`` rectangle with
dents at ``1 <= x_1 < ... <= n+1`` has white vertices ``(i, j)`` for
``i <= n``, ``j <= m``, black vertices ``(i, j)`` for ``i <= n+1``,
``j <= m-1``, and black top-row vertices ``(i, m)`` for every non-dent
``i``.  A *white-edged* ``n x m`` rectangle with teeth at
``1 <= t_1 < ... <= n`` has the full white and black grids up to row ``m``
plus white "teeth" ``(t_k, m+1)``.

A board's kind (:class:`Diamond`, :class:`BlackRect`, :class:`WhiteRect`)
decides which vertices it has, by a few range comparisons in ``v in kind``,
so building a board costs O(1).  Boards are immutable; removing vertices
returns a new board with the holes recorded.
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


# Offsets from a white vertex to its four potential black neighbors.
_WHITE_TO_BLACK = ((0, 0), (1, 0), (0, -1), (1, -1))


def _in_diamond(n: int, v: Vertex) -> bool:
    """Whether ``v`` is a vertex of the order-``n`` diamond."""
    if v.color is Color.WHITE:
        return 1 <= v.x <= n and 1 <= v.y <= n + 1
    return 1 <= v.x <= n + 1 and 1 <= v.y <= n


def check_diamond_pair(n: int, v: Vertex, w: Vertex) -> None:
    """Raise ``BoardError`` unless white ``v`` and black ``w`` are on the order-``n`` diamond."""
    if n < 1:
        raise BoardError(f"diamond order must be positive, got {n}")
    if v.color is not Color.WHITE or not _in_diamond(n, v):
        raise BoardError(f"{v!r} is not a white vertex of the order-{n} diamond")
    if w.color is not Color.BLACK or not _in_diamond(n, w):
        raise BoardError(f"{w!r} is not a black vertex of the order-{n} diamond")


@dataclass(frozen=True)
class Diamond:
    n: int

    def __contains__(self, v: Vertex) -> bool:
        return _in_diamond(self.n, v)


@dataclass(frozen=True)
class BlackRect:
    n: int
    m: int
    dents: tuple[int, ...]

    def __contains__(self, v: Vertex) -> bool:
        if v.color is Color.WHITE:
            return 1 <= v.x <= self.n and 1 <= v.y <= self.m
        return (1 <= v.x <= self.n + 1 and 1 <= v.y <= self.m
                and (v.y < self.m or v.x not in self.dents))


@dataclass(frozen=True)
class WhiteRect:
    n: int
    m: int
    teeth: tuple[int, ...]

    def __contains__(self, v: Vertex) -> bool:
        if v.color is Color.WHITE:
            return 1 <= v.x <= self.n and (1 <= v.y <= self.m
                                           or (v.y == self.m + 1 and v.x in self.teeth))
        return 1 <= v.x <= self.n + 1 and 1 <= v.y <= self.m


BoardKind = Union[Diamond, BlackRect, WhiteRect]


@dataclass(frozen=True)
class Board:
    """An immutable board: ``v in board`` means ``v in board.kind and v not
    in board.holes``.  The vertex tuples are generated from the kind's test
    in row-major order (by ``y``, then ``x``), the row and column order of
    every matrix built from the board."""

    kind: BoardKind
    holes: frozenset[Vertex] = frozenset()

    def _generate(self, color: Color) -> tuple[Vertex, ...]:
        # Every kind fits in the box 1 <= x <= n+1, 1 <= y <= (n or m)+1.
        kind = self.kind
        rows = range(1, (kind.n if isinstance(kind, Diamond) else kind.m) + 2)
        cands = (Vertex(color, x, y) for y in rows for x in range(1, kind.n + 2))
        return tuple(v for v in cands if v in kind)

    @cached_property
    def whites(self) -> tuple[Vertex, ...]:
        """White vertices of the kind, holes included, in row-major order."""
        return self._generate(Color.WHITE)

    @cached_property
    def blacks(self) -> tuple[Vertex, ...]:
        return self._generate(Color.BLACK)

    @property
    def white_vertices(self) -> tuple[Vertex, ...]:
        """White vertices still on the board, in row-major order."""
        return tuple(v for v in self.whites if v not in self.holes)

    @property
    def black_vertices(self) -> tuple[Vertex, ...]:
        return tuple(v for v in self.blacks if v not in self.holes)

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

    def is_edge(self, w: Vertex, b: Vertex) -> bool:
        return (w.color is Color.WHITE and b.color is Color.BLACK and w in self and b in self
                and (b.x - w.x, b.y - w.y) in _WHITE_TO_BLACK)

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """All edges as (white, black) pairs, row-major in the white vertex."""
        for w in self.white_vertices:
            for b in self.neighbors(w):
                yield (w, b)

    def vertex_count(self) -> int:
        return len(self.white_vertices) + len(self.black_vertices)


def build_diamond(n: int) -> Board:
    """Aztec diamond of order ``n``; its vertices are generated on demand."""
    if n < 1:
        raise BoardError(f"diamond order must be positive, got {n}")
    return Board(Diamond(n))


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
    if kind is BlackRect:
        return Board(BlackRect(n, m, _check_notches(notches, m, n + 1, "dents")))
    if kind is WhiteRect:
        return Board(WhiteRect(n, m, _check_notches(notches, m, n, "teeth")))
    raise BoardError(f"unknown rectangle kind: {kind!r}")


def remove_vertices(board: Board, holes: Iterable[Vertex]) -> Board:
    """Return ``board`` with ``holes`` punched out."""
    new_holes = set(board.holes)
    for v in holes:
        if v not in board.kind:
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
