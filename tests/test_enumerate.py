"""Brute-force enumeration and signed hole counts."""

import random
from itertools import combinations

import pytest

from aztecdimers.enumerate import (
    EnumerationLimitError,
    HoleSpec,
    crossing_weight,
    enumerate_matchings,
    weighted_count,
    weighted_matchings,
)
from aztecdimers.kasteleyn import count_matchings_det
from aztecdimers.lattice import black, build_diamond, remove_vertices, white
from derivation import (
    BlackRect,
    WhiteRect,
    build_rectangle,
    dented_rectangle_matchings,
    toothed_rectangle_matchings,
    weighted_count_rect,
)


def test_diamond_one_has_two_matchings():
    matchings = []
    assert enumerate_matchings(build_diamond(1), matchings.append) == 2
    assert len(set(matchings)) == 2


def test_diamond_three_matches_det_oracle():
    board = build_diamond(3)
    assert enumerate_matchings(board) == count_matchings_det(board) == 64


def test_holed_board_matches_det_oracle():
    board = remove_vertices(build_diamond(2), [white(1, 1), black(1, 1)])
    assert enumerate_matchings(board) == count_matchings_det(board)


def test_unbalanced_board_counts_zero():
    board = remove_vertices(build_diamond(2), [white(1, 1), white(2, 1)])
    assert enumerate_matchings(board) == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_duplicate_visits(n):
    seen = []
    count = enumerate_matchings(build_diamond(n), seen.append)
    assert count == len(seen) == len(set(seen))


def test_rectangle_counts_match_det():
    for kind, notches in ((BlackRect, (1, 3)), (WhiteRect, (1, 2))):
        board = build_rectangle(kind, 2, 2, notches)
        assert enumerate_matchings(board) == count_matchings_det(board)


def test_size_guard():
    board = build_diamond(6)  # 84 vertices
    with pytest.raises(EnumerationLimitError):
        enumerate_matchings(board)
    # Diamond(5) sits exactly at the limit.
    assert enumerate_matchings(build_diamond(5)) == 2 ** 15


def _literal_weight(matching, spec):
    # The four edge families transcribed one by one, as an independent
    # double-entry of crossing_weight.
    w0, d0, w1, d1 = spec.w0, spec.d0, spec.w1, spec.d1
    edges = set(matching)
    total = 0
    for i in range(1, w0 + d0):
        if (white(i - 1, w1 + 1), black(i, w1)) in edges:
            total += 1
        if (white(i, w1 + 1), black(i, w1)) in edges:
            total += 1
    for i in range(1, w0):
        if (white(i, w1 + d1), black(i, w1 + d1 - 1)) in edges:
            total += 1
        if (white(i, w1 + d1), black(i + 1, w1 + d1 - 1)) in edges:
            total += 1
    return total


@pytest.mark.parametrize("n", [2, 3])
def test_crossing_weight_two_transcriptions_agree(n):
    for w0 in range(1, n + 1):
        for d0 in range(1, n + 2 - w0):
            for w1 in range(1, n + 1):
                for d1 in range(1, n + 2 - w1):
                    spec = HoleSpec(w0, d0, w1, d1)
                    board = remove_vertices(
                        build_diamond(n), [spec.white_hole, spec.black_hole]
                    )
                    matchings = []
                    enumerate_matchings(board, matchings.append)
                    for m in matchings:
                        assert crossing_weight(m, spec) == _literal_weight(m, spec)


def test_crossing_weight_zero_away_from_holes():
    spec = HoleSpec(1, 1, 1, 1)
    # An edge in row 3 touches neither weighted row of this spec.
    assert crossing_weight([(white(1, 3), black(1, 2))], spec) == 0


def test_crossing_weight_order_independent():
    spec = HoleSpec(2, 1, 1, 2)
    edges = [(white(1, 2), black(1, 1)), (white(1, 3), black(1, 2)), (white(2, 2), black(2, 1))]
    rng = random.Random(1)
    baseline = crossing_weight(edges, spec)
    for _ in range(5):
        rng.shuffle(edges)
        assert crossing_weight(edges, spec) % 2 == baseline % 2


def test_weighted_count_adjacent_corner_holes():
    # Holes at the white (1,2)/black (2,1) corner pair of the order-2
    # diamond: every matching has even weight there, so the signed count
    # is the plain count.
    spec = HoleSpec(1, 1, 1, 1)
    board = remove_vertices(build_diamond(2), [spec.white_hole, spec.black_hole])
    weights = []
    enumerate_matchings(board, lambda m: weights.append(crossing_weight(m, spec)))
    assert all(w % 2 == 0 for w in weights)
    assert weighted_count(2, spec) == len(weights)


def test_weighted_count_magnitude_matches_coupling():
    from aztecdimers.coupling import coupling

    for n in (2, 3):
        for w0 in range(1, n + 1):
            for d0 in range(1, n + 2 - w0):
                for w1 in range(1, n + 1):
                    for d1 in range(1, n + 2 - w1):
                        spec = HoleSpec(w0, d0, w1, d1)
                        c = coupling(n, spec.white_hole, spec.black_hole)
                        lhs = abs(weighted_count(n, spec))
                        assert lhs == abs(c.to_fraction()) * 2 ** (n * (n + 1) // 2)


def test_weighted_count_rect_unmatchable_is_zero():
    # A full tooth set plus a hole leaves the board color-unbalanced.
    board = build_rectangle(WhiteRect, 2, 1, [1])
    assert weighted_count_rect(board, black(3, 1)) == 0


def test_weighted_count_rect_even_weights_reduce_to_count():
    # Hole in the top black row of a white-edged rectangle with the tooth
    # far to the left: no descending edge can sit left of the hole.
    board = build_rectangle(WhiteRect, 3, 1, [1])
    holed = remove_vertices(board, [black(1, 1)])
    plain = enumerate_matchings(holed)
    assert weighted_count_rect(board, black(1, 1)) == plain


def test_weighted_count_rect_requires_black_hole():
    board = build_rectangle(WhiteRect, 2, 1, [1])
    with pytest.raises(ValueError):
        weighted_count_rect(board, white(1, 1))


# The transfer matrix held to the backtracking enumerator on boards the enumerator accepts.


def _one(w, b):
    return 1


def _hole_specs(n):
    return [
        HoleSpec(w0, d0, w1, d1)
        for w0 in range(1, n + 1)
        for d0 in range(1, n + 2 - w0)
        for w1 in range(1, n + 1)
        for d1 in range(1, n + 2 - w1)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transfer_matrix_counts_diamonds(n):
    assert weighted_matchings(build_diamond(n), _one) == enumerate_matchings(build_diamond(n))


def test_transfer_matrix_counts_diamond_five():
    # test_size_guard enumerates the order-5 diamond to 2^15, the slowest enumeration in the
    # suite; doing it a second time here would add nothing.
    assert weighted_matchings(build_diamond(5), _one) == 2 ** 15


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transfer_matrix_signed_hole_counts(n):
    # weighted_count's per-edge sign product against the visitor sum of (-1)^crossing_weight.
    for spec in _hole_specs(n):
        board = remove_vertices(build_diamond(n), [spec.white_hole, spec.black_hole])
        total = 0

        def visit(matching):
            nonlocal total
            total += -1 if crossing_weight(matching, spec) % 2 else 1

        enumerate_matchings(board, visit)
        assert weighted_count(n, spec) == total, spec


def test_transfer_matrix_counts_suite_rectangles():
    # Every dented and toothed rectangle with n <= 4 and m <= 3: the enumerator, the
    # product formula and |det K| all equal the transfer-matrix count.
    cases = 0
    for n in range(1, 5):
        for m in range(1, 4):
            for kind, top, closed_form in (
                (BlackRect, n + 1, dented_rectangle_matchings),
                (WhiteRect, n, toothed_rectangle_matchings),
            ):
                for notches in combinations(range(1, top + 1), m):
                    board = build_rectangle(kind, n, m, notches)
                    want = weighted_matchings(board, _one)
                    got = enumerate_matchings(board), closed_form(n, m, notches), count_matchings_det(board)
                    assert got == (want, want, want), (kind, n, m, notches)
                    cases += 1
    assert cases == 74


def test_transfer_matrix_weights_multiply_per_edge():
    # Weight 2 on every edge scales each matching of the order-n diamond by 2^{n(n+1)}.
    for n in (1, 2, 3):
        assert weighted_matchings(build_diamond(n), lambda w, b: 2) == 2 ** (n * (n + 1)) * 2 ** (n * (n + 1) // 2)


def test_transfer_matrix_unbalanced_board_is_zero():
    board = remove_vertices(build_diamond(2), [white(1, 1), white(2, 1)])
    assert weighted_matchings(board, _one) == enumerate_matchings(board) == 0


@pytest.mark.parametrize(
    "holes",
    [
        # Black (1,1) loses both white neighbours.
        [white(1, 1), white(1, 2), black(3, 1), black(3, 2)],
        # White (1,1) loses both black neighbours; every black keeps a white one.
        [black(1, 1), black(2, 1), white(1, 3), white(2, 3)],
    ],
)
def test_transfer_matrix_unmatchable_balanced_board_is_zero(holes):
    board = remove_vertices(build_diamond(2), holes)
    assert len(board.white_vertices) == len(board.black_vertices)
    assert weighted_matchings(board, _one) == enumerate_matchings(board) == 0
