"""Board construction, coordinates, and pattern validation."""

import copy
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from aztecdimers.lattice import (
    Board,
    BoardError,
    Color,
    Diamond,
    PatternError,
    Vertex,
    black,
    build_diamond,
    remove_vertices,
    validate_pattern,
    white,
)
from derivation import BlackRect, WhiteRect, build_rectangle, cart, from_cart


def _edges(board):
    """Every edge as a (white, black) pair, row-major in the white vertex."""
    return [(w, b) for w in board.white_vertices for b in board.neighbors(w)]


def test_diamond_order_one():
    board = build_diamond(1)
    assert len(board.white_vertices) + len(board.black_vertices) == 4
    assert len(_edges(board)) == 4


@pytest.mark.parametrize("n,vertices,edges", [(2, 12, 16), (3, 24, 36)])
def test_diamond_small_counts(n, vertices, edges):
    board = build_diamond(n)
    assert len(board.white_vertices) + len(board.black_vertices) == vertices
    assert len(_edges(board)) == edges


@pytest.mark.parametrize("n", range(1, 9))
def test_diamond_counts_general(n):
    board = build_diamond(n)
    assert len(board.white_vertices) == len(board.black_vertices) == n * (n + 1)
    assert len(_edges(board)) == 4 * n * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diamond_edges_are_the_quadrilateral_families(n):
    # The quadrilateral around each (2r+1, 2s+1) contributes four edges.
    quads = set()
    for r in range(n):
        for s in range(n):
            corners = [(2 * r, 2 * s + 1), (2 * r + 1, 2 * s + 2),
                       (2 * r + 2, 2 * s + 1), (2 * r + 1, 2 * s)]
            for a, b in zip(corners, corners[1:] + corners[:1]):
                quads.add(frozenset((a, b)))
    board = build_diamond(n)
    built = {frozenset((cart(w), cart(b))) for w, b in _edges(board)}
    assert built == quads


def _cartesian_diamond(n):
    """Reference vertex lists of the order-``n`` diamond from its Cartesian
    ranges, sorted by ``(y, x)``."""
    cells = [(2 * r + 1, 2 * s) for r in range(n) for s in range(n + 1)]
    cells += [(2 * r, 2 * s + 1) for r in range(n + 1) for s in range(n)]
    vertices = sorted((from_cart(*c) for c in cells), key=lambda v: (v.y, v.x))
    return ([v for v in vertices if v.color is Color.WHITE],
            [v for v in vertices if v.color is Color.BLACK])


def test_diamond_diagonal_ranges():
    for n in range(1, 9):
        board = build_diamond(n)
        assert {(v.x, v.y) for v in board.white_vertices} == {
            (x, y) for x in range(1, n + 1) for y in range(1, n + 2)
        }
        assert {(v.x, v.y) for v in board.black_vertices} == {
            (x, y) for x in range(1, n + 2) for y in range(1, n + 1)
        }
        whites, blacks = _cartesian_diamond(n)
        assert list(board.white_vertices) == whites
        assert list(board.black_vertices) == blacks


def _reference_vertices(kind):
    """The full vertex set of a board kind, listed from its definition."""
    if isinstance(kind, Diamond):
        whites, blacks = _cartesian_diamond(kind.n)
        return set(whites + blacks)
    n, m = kind.n, kind.m
    vs = {white(i, j) for i in range(1, n + 1) for j in range(1, m + 1)}
    vs |= {black(i, j) for i in range(1, n + 2) for j in range(1, m)}
    if isinstance(kind, BlackRect):
        return vs | {black(i, m) for i in range(1, n + 2) if i not in kind.dents}
    return vs | {black(i, m) for i in range(1, n + 2)} | {white(t, m + 1) for t in kind.teeth}


@st.composite
def _boards(draw):
    """A board and the board it was holed from (itself when it has no holes)."""
    shape = draw(st.sampled_from(["diamond", "holed", "black", "white"]))
    n = draw(st.integers(1, 6))
    if shape in ("diamond", "holed"):
        board = build_diamond(n)
        if shape == "holed":
            # Reading the parent's lists first builds them, so the holed board must not reuse them.
            vertices = board.white_vertices + board.black_vertices
            return board, remove_vertices(board, draw(st.lists(st.sampled_from(vertices), unique=True,
                                                               min_size=1, max_size=4)))
        return board, board
    m = draw(st.integers(1, 4))
    top = n + 1 if shape == "black" else n
    notches = sorted(draw(st.sets(st.integers(1, top), max_size=min(m, top))))
    board = build_rectangle(BlackRect if shape == "black" else WhiteRect, n, m, notches)
    return board, board


@given(boards=_boards(), data=st.data())
def test_membership_is_the_vertex_set(boards, data):
    parent, board = boards
    present = _reference_vertices(board.kind) - board.holes
    listed = board.white_vertices + board.black_vertices
    assert set(listed) == present and len(listed) == len(present)
    for vs in (board.white_vertices, board.black_vertices):
        assert list(vs) == sorted(vs, key=lambda v: (v.y, v.x))
    # Each list is built once per board.
    assert board.white_vertices is board.white_vertices
    assert board.black_vertices is board.black_vertices
    if board is not parent:
        # A holed board's lists are its parent's, holes dropped, order kept.
        parent_listed = parent.white_vertices + parent.black_vertices
        assert listed != parent_listed
        assert listed == tuple(v for v in parent_listed if v not in board.holes)
    top = max(board.kind.n, getattr(board.kind, "m", 0)) + 3
    coords = st.integers(-2, top)
    for v in data.draw(st.lists(st.builds(Vertex, st.sampled_from(Color), coords, coords),
                                min_size=1, max_size=40)):
        assert (v in board) == (v in present) == (v in listed)


def test_invalid_order_rejected():
    with pytest.raises(BoardError):
        build_diamond(0)
    with pytest.raises(BoardError):
        build_diamond(-2)


def test_vertices_are_read_only_values_with_short_reprs():
    v = white(1, 2)
    with pytest.raises(AttributeError):
        v.x = 3
    assert white(1, 1) != black(1, 1)
    assert white(2, 3) == Vertex(Color.WHITE, 2, 3)
    assert hash(white(2, 3)) == hash(Vertex(Color.WHITE, 2, 3))
    assert repr(v) == "W(1,2)" and repr(black(3, 1)) == "B(3,1)"


def test_hashing_a_vertex_runs_no_python_function():
    # Color hashes by identity, so a vertex hash is a tuple hash of C-level hashes.
    v = white(1, 2)
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        hash(v)
    finally:
        sys.setprofile(None)
    assert "call" not in events
    seen = {v, black(1, 2)}
    assert pickle.loads(pickle.dumps(white(1, 2))) in seen and copy.deepcopy(black(1, 2)) in seen
    assert Color.WHITE != "white" and Color("white") is Color.WHITE


def test_boards_are_read_only_and_equal_by_kind_and_holes():
    holes = [white(1, 1), black(1, 1)]
    a = remove_vertices(build_diamond(2), holes)
    b = remove_vertices(build_diamond(2), holes[::-1])
    with pytest.raises(AttributeError):
        a.holes = frozenset()
    with pytest.raises(AttributeError):
        a.kind = Diamond(3)
    with pytest.raises(AttributeError):
        del a.kind
    assert a.white_vertices  # the cached vertex tuples take no part in equality
    assert a == b == Board(Diamond(2), frozenset(holes)) and hash(a) == hash(b)
    assert a != build_diamond(2) and build_diamond(2) != build_diamond(3)
    assert build_diamond(2) == Board(Diamond(2)) and hash(build_diamond(2)) == hash(Board(Diamond(2)))
    assert len({a, b, build_diamond(2), build_diamond(3)}) == 3


def test_board_repr_lists_holes_in_a_fixed_order():
    # Whites then blacks, each by (y, x), whatever order the holes were punched in.
    holes = [black(2, 2), white(2, 2), black(3, 1), white(1, 1)]
    want = "Board(kind=Diamond(n=3), holes=frozenset({W(1,1), W(2,2), B(3,1), B(2,2)}))"
    assert repr(remove_vertices(build_diamond(3), holes)) == want
    assert repr(remove_vertices(build_diamond(3), holes[::-1])) == want
    assert repr(build_diamond(2)) == "Board(kind=Diamond(n=2), holes=frozenset())"


@given(
    color=st.sampled_from([Color.WHITE, Color.BLACK]),
    x=st.integers(-30, 30),
    y=st.integers(-30, 30),
)
def test_cart_roundtrip_is_identity(color, x, y):
    v = Vertex(color, x, y)
    assert from_cart(*cart(v)) == v


def test_from_cart_rejects_off_lattice():
    with pytest.raises(BoardError):
        from_cart(0, 0)
    with pytest.raises(BoardError):
        from_cart(1, 1)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_adjacency_symmetric_and_bipartite(n):
    board = build_diamond(n)
    for v in board.white_vertices + board.black_vertices:
        for u in board.neighbors(v):
            assert u.color is not v.color
            assert v in board.neighbors(u)


def test_white_rectangle_example():
    board = build_rectangle(WhiteRect, 2, 1, [1])
    assert len(board.white_vertices) == 3  # 2 grid whites + 1 tooth
    assert len(board.black_vertices) == 3
    assert white(1, 2) in board


def test_black_rectangle_too_many_dents():
    with pytest.raises(BoardError):
        build_rectangle(BlackRect, 2, 1, [1, 2])


def test_black_rectangle_single_edge():
    board = build_rectangle(BlackRect, 1, 1, [1])
    assert len(board.white_vertices) == 1 and len(board.black_vertices) == 1
    assert _edges(board) == [(white(1, 1), black(2, 1))]


def test_rectangle_notch_validation():
    with pytest.raises(BoardError):
        build_rectangle(BlackRect, 2, 2, [2, 1])  # not increasing
    with pytest.raises(BoardError):
        build_rectangle(BlackRect, 2, 2, [1, 4])  # out of range
    with pytest.raises(BoardError):
        build_rectangle(WhiteRect, 2, 2, [1, 3])  # teeth capped at n
    with pytest.raises(BoardError):
        build_rectangle(object, 2, 2, [1])


def test_remove_no_vertices_is_identity():
    board = build_diamond(2)
    assert remove_vertices(board, []) == board


def test_remove_vertices_counts_and_queries():
    board = build_diamond(2)
    holed = remove_vertices(board, [white(1, 1), black(1, 1)])
    assert holed.vertex_count() == 10
    assert white(1, 1) not in holed
    assert all(white(1, 1) not in holed.neighbors(b) for b in holed.black_vertices)


def test_remove_two_whites_is_legal():
    board = build_diamond(2)
    holed = remove_vertices(board, [white(1, 1), white(2, 1)])
    assert len(holed.white_vertices) == len(holed.black_vertices) - 2


def test_remove_vertex_errors():
    board = build_diamond(2)
    with pytest.raises(BoardError):
        remove_vertices(board, [white(9, 9)])
    with pytest.raises(BoardError):
        remove_vertices(board, [white(1, 1), white(1, 1)])
    holed = remove_vertices(board, [white(1, 1)])
    with pytest.raises(BoardError):
        remove_vertices(holed, [white(1, 1)])


def test_validate_empty_pattern():
    assert validate_pattern(build_diamond(2), ()) == ([], [])


def test_validate_single_domino():
    board = build_diamond(2)
    w, b = _edges(board)[0]
    assert validate_pattern(board, ((w, b),)) == ([w], [b])


def test_validate_rejects_overlap():
    board = build_diamond(2)
    w = white(1, 1)
    b1, b2 = board.neighbors(w)
    with pytest.raises(PatternError):
        validate_pattern(board, ((w, b1), (w, b2)))


def test_validate_rejects_non_edge():
    board = build_diamond(2)
    with pytest.raises(PatternError):
        validate_pattern(board, ((white(1, 1), black(3, 2)),))
    # color roles must be (white, black)
    with pytest.raises(PatternError):
        validate_pattern(board, ((black(1, 1), white(1, 1)),))


def test_validate_skips_holed_edges():
    board = remove_vertices(build_diamond(2), [black(1, 1)])
    with pytest.raises(PatternError):
        validate_pattern(board, ((white(1, 1), black(1, 1)),))


def test_validation_on_a_huge_diamond_is_arithmetic():
    # Building the order-10^9 board costs O(1), so off-board dominoes fail at once.
    board = build_diamond(10**9)
    for w, b in [(white(0, 1), black(1, 1)), (white(10**9 + 1, 1), black(10**9 + 1, 1)),
                 (white(1, 1), black(3, 1))]:
        with pytest.raises(PatternError):
            validate_pattern(board, ((w, b),))
    assert validate_pattern(board, ((white(1, 1), black(1, 1)),)) == (
        [white(1, 1)], [black(1, 1)]
    )
