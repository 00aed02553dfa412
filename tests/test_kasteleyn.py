"""Kasteleyn matrices, the cached inverse, and the determinant ratios behind them."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from aztecdimers import exactlinalg, kasteleyn, verify
from aztecdimers.enumerate import enumerate_matchings
from aztecdimers.exactlinalg import ShapeError, det
from aztecdimers.kasteleyn import (
    count_matchings_det,
    edge_sign,
    inverse_coupling_matrix,
    kasteleyn_matrix,
    signed_hole_cofactor,
)
from aztecdimers.lattice import Board, BoardError, Color, black, build_diamond, remove_vertices, white
from derivation import BlackRect, WhiteRect, build_rectangle, minor


def _determinant_ratio(board, pattern):
    # P(pattern) = |det K of the board minus the pattern's cells| / |det K|: the
    # deleted rows and columns leave the Kasteleyn matrix of the smaller board.
    cells = [v for edge in pattern for v in edge]
    return Fraction(count_matchings_det(remove_vertices(board, cells)), count_matchings_det(board))


def _cofactor(n, v, w):
    # The signed cofactor of K at white v and black w, and det K, from a minor.
    board = build_diamond(n)
    k = kasteleyn_matrix(board)
    i, j = board.white_vertices.index(v), board.black_vertices.index(w)
    return (-1) ** ((i + j) % 2) * det(minor(k, [i], [j])), det(k)


def test_diamond_one_matrix():
    k = kasteleyn_matrix(build_diamond(1))
    assert len(k) == 2 and all(len(row) == 2 for row in k)
    assert all(v in (-1, 1) for row in k for v in row)
    assert abs(det(k)) == 2


def test_diamond_two_det():
    assert count_matchings_det(build_diamond(2)) == 8


def test_single_edge_board():
    board = build_rectangle(BlackRect, 1, 1, [1])
    k = kasteleyn_matrix(board)
    assert k in (((1,),), ((-1,),))
    assert count_matchings_det(board) == 1


def test_unbalanced_board_rejected():
    board = remove_vertices(build_diamond(2), [white(1, 1)])
    with pytest.raises(ShapeError):
        kasteleyn_matrix(board)


def test_unbalanced_board_count_is_zero():
    board = remove_vertices(build_diamond(2), [white(1, 1), white(2, 1)])
    assert count_matchings_det(board) == 0


def test_counters_read_each_vertex_tuple_once(monkeypatch):
    # A board builds its vertex tuples on each read, so each counter, the cached inverse and
    # verify's random patterns read each color they need once.
    calls = []

    def spy(self, color, real=Board._generate):
        calls.append(color)
        return real(self, color)

    monkeypatch.setattr(Board, "_generate", spy)
    assert count_matchings_det(build_diamond(6)) == 2**21
    assert sorted(calls, key=repr) == [Color.BLACK, Color.WHITE]
    calls.clear()
    assert enumerate_matchings(remove_vertices(build_diamond(4), [white(1, 2), black(2, 1)])) > 0
    assert sorted(calls, key=repr) == [Color.BLACK, Color.WHITE]
    calls.clear()
    kasteleyn._diamond_inverse.cache_clear()
    try:
        assert len(inverse_coupling_matrix(3)) == 12 * 12
    finally:
        kasteleyn._diamond_inverse.cache_clear()
    assert sorted(calls, key=repr) == [Color.BLACK, Color.WHITE]
    calls.clear()
    board = build_diamond(4)
    assert len(verify._random_pattern(random.Random(12), board, board.white_vertices, 3)) > 0
    assert calls == [Color.WHITE]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counts_match_enumeration(n):
    board = build_diamond(n)
    assert count_matchings_det(board) == enumerate_matchings(board)


@pytest.mark.parametrize("n", range(1, 7))
def test_counts_are_powers_of_two(n):
    assert count_matchings_det(build_diamond(n)) == 2 ** (n * (n + 1) // 2)


def _suite_rectangles(top_n=4, top_m=3):
    for n in range(1, top_n + 1):
        for m in range(1, top_m + 1):
            for dents in combinations(range(1, n + 2), m):
                yield build_rectangle(BlackRect, n, m, dents)
            for teeth in combinations(range(1, n + 1), m):
                yield build_rectangle(WhiteRect, n, m, teeth)


def test_det_counts_rectangles():
    for board in _suite_rectangles(3, 2):
        assert count_matchings_det(board) == enumerate_matchings(board), board.kind


def test_empty_pattern_probability_is_one():
    assert _determinant_ratio(build_diamond(2), ()) == 1


def test_full_matching_probability():
    board = build_diamond(2)
    matchings = []
    enumerate_matchings(board, matchings.append)
    assert len(matchings) == 8
    for m in matchings[:3]:
        assert _determinant_ratio(board, m) == Fraction(1, 8)


def test_single_domino_probability_matches_brute_force():
    board = build_diamond(2)
    w = white(1, 1)
    b = board.neighbors(w)[0]
    containing = 0

    def visit(m):
        nonlocal containing
        containing += (w, b) in m

    total = enumerate_matchings(board, visit)
    assert _determinant_ratio(board, ((w, b),)) == Fraction(containing, total)


@pytest.mark.parametrize("n", [2, 3])
def test_domino_probabilities_sum_to_one(n):
    board = build_diamond(n)
    for v in board.white_vertices:
        total = sum(
            _determinant_ratio(board, ((v, w),)) for w in board.neighbors(v)
        )
        assert total == 1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_domino_probabilities_sum_to_one_via_inverse(n):
    # Same identity at larger orders through the cached full inverse
    # (entrywise equal to the minor route; see the cofactor tests below).
    inv = inverse_coupling_matrix(n)
    board = build_diamond(n)
    for v in board.white_vertices:
        assert sum(abs(inv[(v, w)]) for w in board.neighbors(v)) == 1


def test_adjacent_entry_equals_domino_probability():
    board = build_diamond(2)
    w = white(1, 1)
    b = board.neighbors(w)[0]
    entry = inverse_coupling_matrix(2)[w, b]
    assert abs(entry) == _determinant_ratio(board, ((w, b),))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_matrix_matches_cofactor_route(n):
    inv = inverse_coupling_matrix(n)
    for (v, w), entry in inv.items():
        cof, d = _cofactor(n, v, w)
        assert Fraction(cof, d) == entry


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cramer_consistency(n):
    # |entry| * count = |det of K with the row and column deleted|.
    board = build_diamond(n)
    k = kasteleyn_matrix(board)
    count = count_matchings_det(board)
    index_w = {v: i for i, v in enumerate(board.white_vertices)}
    index_b = {v: j for j, v in enumerate(board.black_vertices)}
    for v in board.white_vertices:
        for w in board.black_vertices:
            entry = inverse_coupling_matrix(n)[v, w]
            sub = abs(det(minor(k, [index_w[v]], [index_b[w]])))
            assert abs(entry) * count == sub


@pytest.mark.parametrize("n", [2, 3])
def test_entry_denominators_divide_global_power_of_two(n):
    for entry in inverse_coupling_matrix(n).values():
        assert 2 ** (n * (n + 1) // 2) % entry.denominator == 0


def test_oracle_rejects_foreign_vertices():
    # A BoardError from the pair check, never a KeyError from the cached entries.
    for v, w in [(white(5, 5), black(1, 1)), (white(1, 1), white(1, 2)),
                 (black(1, 1), black(1, 1)), (white(1, 1), black(3, 3))]:
        with pytest.raises(BoardError):
            signed_hole_cofactor(2, v, w)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signed_hole_cofactor_matches_minor_route(n):
    board = build_diamond(n)
    for v in board.white_vertices:
        for w in board.black_vertices:
            cof, d = _cofactor(n, v, w)
            got = signed_hole_cofactor(n, v, w)
            assert type(got) is int and got == (cof if d > 0 else -cof), (v, w)


def test_one_elimination_per_order(monkeypatch):
    # The whole inverse and every signed cofactor of an order come from one
    # elimination of [K | I].
    orders = []
    real = exactlinalg._bareiss

    def spy(a):
        orders.append(len(a))
        return real(a)

    kasteleyn._diamond_inverse.cache_clear()
    monkeypatch.setattr(exactlinalg, "_bareiss", spy)
    for n in (1, 2, 3, 4):
        board = build_diamond(n)
        inverse_coupling_matrix(n)
        for v in board.white_vertices:
            for w in board.black_vertices:
                signed_hole_cofactor(n, v, w)
        inverse_coupling_matrix(n)
    assert orders == [n * (n + 1) for n in (1, 2, 3, 4)]


def test_cached_inverse_is_read_only():
    # Every caller shares the cached entries, signed_hole_cofactor included.
    entries = inverse_coupling_matrix(2)
    v, w = next(iter(entries))
    with pytest.raises(TypeError):
        entries[v, w] = 0
    assert signed_hole_cofactor(2, v, w) == entries[v, w] * 8


def test_signed_hole_cofactor_is_ordering_free():
    # Against the intrinsic definition: entry * |det K|.
    n = 3
    inv = inverse_coupling_matrix(n)
    count = count_matchings_det(build_diamond(n))
    for (v, w), entry in inv.items():
        assert signed_hole_cofactor(n, v, w) == entry * count


# SHA-256 of repr(kasteleyn_matrix(build_diamond(n))).  The oracle-certify benchmark
# compares signed inverse entries, so these bytes must not move.
DIAMOND_MATRIX_SHA256 = {
    1: "238c21417f5803da60fc6aafd76e1f7c36f0b305d2f48d348e64488b23431621",
    2: "d716ea234a5ffc53c2c2daa11f393388f9498f7d256faeafc98dc20ef06c5537",
    3: "87b1f5579d111bc50e4e1baae57b17ac6c970d1ff79b6605fb5eb563f29f038a",
    4: "eaf712a232b7586223854f607be9e41db5f51841eaa4a2e0c405b9936d87e2fd",
    5: "3b0861f5fbe4fc5b9de3a3a5e325f15710fe2ccdc3d996f4280925749933487d",
    6: "f42cd10602f858b48e0be20e82d69fb75b8d55c85890d3f4e9bb3f3d14af16fb",
    7: "2f867575024ad9aff4ff5c4ff55119816faa21fb83028cf60f81b4e076ef0e99",
    8: "9d01fb9aeb27b05bc73be8e9e505a76f0375e9efe46c60b9b9e8d506cdc359c3",
}


@pytest.mark.parametrize("n", sorted(DIAMOND_MATRIX_SHA256))
def test_edge_sign_is_the_kasteleyn_entry(n):
    # The matrix built from edge_sign is, byte for byte, the pinned diamond matrix.
    k = kasteleyn_matrix(build_diamond(n))
    assert hashlib.sha256(repr(k).encode()).hexdigest() == DIAMOND_MATRIX_SHA256[n]


def _faces(board):
    """Every 4-cycle of the board, once each, as the set of its four ``(white, black)`` edges."""
    faces = set()
    for w in board.white_vertices:
        for b, b2 in combinations(board.neighbors(w), 2):
            for w2 in set(board.neighbors(b)) & set(board.neighbors(b2)) - {w}:
                faces.add(frozenset([(w, b), (w, b2), (w2, b), (w2, b2)]))
    return faces


def _components(board):
    seen, count = set(), 0
    for start in board.white_vertices + board.black_vertices:
        if start not in seen:
            count += 1
            stack = [start]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack.extend(board.neighbors(v))
    return count


@pytest.mark.parametrize(
    "board",
    [build_diamond(n) for n in range(1, 9)]
    + list(_suite_rectangles())
    + [remove_vertices(build_diamond(n), [white(1, 2), black(2, 1)]) for n in (2, 3)],
    ids=lambda board: f"{board.kind!r}{'-holed' if board.holes else ''}",
)
def test_edge_sign_satisfies_kasteleyn_condition(board):
    # Every bounded face is a lattice 4-face (Euler: E - V + components bounded faces),
    # and the signs around each multiply to -1.
    faces = _faces(board)
    edges = sum(len(board.neighbors(w)) for w in board.white_vertices)
    assert len(faces) == edges - len(board.white_vertices) - len(board.black_vertices) + _components(board)
    for face in faces:
        assert prod(edge_sign(w, b) for w, b in face) == -1, sorted(face, key=repr)
