"""Kasteleyn matrices and the determinant oracles."""

from fractions import Fraction
from itertools import combinations

import pytest

from aztecdimers.enumerate import enumerate_matchings
from aztecdimers.exactlinalg import ShapeError, det, minor
from aztecdimers.kasteleyn import (
    SignConvention,
    count_matchings_det,
    edge_sign,
    inverse_coupling_matrix,
    inverse_coupling_oracle,
    kasteleyn_matrix,
    pattern_probability_oracle,
    signed_hole_cofactor,
)
from aztecdimers.lattice import (
    BlackRect,
    Pattern,
    black,
    build_diamond,
    build_rectangle,
    remove_vertices,
    white,
)

CONVENTIONS = tuple(SignConvention)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_diamond_one_matrix(convention):
    k = kasteleyn_matrix(build_diamond(1), convention)
    assert k.rows == k.cols == 2
    assert all(v in (-1, 1) for row in k.entries for v in row)
    assert abs(det(k)) == 2


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_diamond_two_det(convention):
    assert count_matchings_det(build_diamond(2), convention) == 8


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_single_edge_board(convention):
    board = build_rectangle(BlackRect, 1, 1, [1])
    k = kasteleyn_matrix(board, convention)
    assert k.entries in (((1,),), ((-1,),))
    assert count_matchings_det(board, convention) == 1


def test_unbalanced_board_rejected():
    board = remove_vertices(build_diamond(2), [white(1, 1)])
    with pytest.raises(ShapeError):
        kasteleyn_matrix(board)


def test_unbalanced_board_count_is_zero():
    board = remove_vertices(build_diamond(2), [white(1, 1), white(2, 1)])
    assert count_matchings_det(board) == 0


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counts_match_enumeration(n, convention):
    board = build_diamond(n)
    assert count_matchings_det(board, convention) == enumerate_matchings(board)


@pytest.mark.parametrize("n", range(1, 7))
def test_counts_are_powers_of_two(n):
    assert count_matchings_det(build_diamond(n)) == 2 ** (n * (n + 1) // 2)


def test_conventions_agree_on_rectangles():
    for n in (1, 2, 3):
        for m in (1, 2):
            for dents in combinations(range(1, n + 2), m):
                board = build_rectangle(BlackRect, n, m, dents)
                assert (
                    count_matchings_det(board, SignConvention.WILSON_VERTICES)
                    == count_matchings_det(board, SignConvention.VERTICAL_EDGES)
                    == enumerate_matchings(board)
                )


def test_empty_pattern_probability_is_one():
    assert pattern_probability_oracle(2, Pattern.of()) == 1


def test_full_matching_probability():
    board = build_diamond(2)
    matchings = []
    enumerate_matchings(board, matchings.append)
    assert len(matchings) == 8
    for m in matchings[:3]:
        assert pattern_probability_oracle(2, Pattern(m)) == Fraction(1, 8)


def test_single_domino_probability_matches_brute_force():
    board = build_diamond(2)
    w = white(1, 1)
    b = board.neighbors(w)[0]
    containing = 0

    def visit(m):
        nonlocal containing
        containing += (w, b) in m

    total = enumerate_matchings(board, visit)
    assert pattern_probability_oracle(2, Pattern.of((w, b))) == Fraction(containing, total)


@pytest.mark.parametrize("n", [2, 3])
def test_domino_probabilities_sum_to_one(n):
    board = build_diamond(n)
    for v in board.white_vertices:
        total = sum(
            pattern_probability_oracle(n, Pattern.of((v, w))) for w in board.neighbors(v)
        )
        assert total == 1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_domino_probabilities_sum_to_one_via_inverse(n):
    # Same identity at larger orders through the cached full inverse
    # (entrywise equal to the minor route; see the consistency test below).
    inv = inverse_coupling_matrix(n)
    board = build_diamond(n)
    for v in board.white_vertices:
        assert sum(abs(inv[(v, w)]) for w in board.neighbors(v)) == 1


def test_adjacent_entry_equals_domino_probability():
    board = build_diamond(2)
    w = white(1, 1)
    b = board.neighbors(w)[0]
    entry = inverse_coupling_oracle(2, w, b)
    assert abs(entry) == pattern_probability_oracle(2, Pattern.of((w, b)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_matrix_matches_cofactor_route(n):
    inv = inverse_coupling_matrix(n)
    for (v, w), entry in inv.items():
        assert inverse_coupling_oracle(n, v, w) == entry


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
            entry = inverse_coupling_oracle(n, v, w)
            sub = abs(det(minor(k, [index_w[v]], [index_b[w]])))
            assert abs(entry) * count == sub


@pytest.mark.parametrize("n", [2, 3])
def test_entry_denominators_divide_global_power_of_two(n):
    for entry in inverse_coupling_matrix(n).values():
        assert 2 ** (n * (n + 1) // 2) % entry.denominator == 0


def test_oracle_rejects_foreign_vertices():
    for oracle in (inverse_coupling_oracle, signed_hole_cofactor):
        for v, w in [(white(5, 5), black(1, 1)), (white(1, 1), white(1, 2)),
                     (black(1, 1), black(1, 1)), (white(1, 1), black(3, 3))]:
            with pytest.raises(ValueError):
                oracle(2, v, w)


def test_signed_hole_cofactor_is_ordering_free():
    # Against the intrinsic definition: entry * |det K|.
    n = 3
    inv = inverse_coupling_matrix(n)
    count = count_matchings_det(build_diamond(n))
    for (v, w), entry in inv.items():
        assert signed_hole_cofactor(n, v, w) == entry * count


@pytest.mark.parametrize("n", range(1, 9))
def test_edge_sign_is_the_kasteleyn_entry(n):
    board = build_diamond(n)
    k = kasteleyn_matrix(board).entries
    col = {b: j for j, b in enumerate(board.black_vertices)}
    for i, v in enumerate(board.white_vertices):
        neighbors = {col[b]: edge_sign(v, b) for b in board.neighbors(v)}
        assert k[i] == tuple(neighbors.get(j, 0) for j in range(len(col))), v
