"""The coupling function against the matrix oracles."""

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from aztecdimers import coupling as coupling_mod
from aztecdimers.cli import _heatmap_rows
from aztecdimers.combinatorics import krawtchouk_column, krawtchouk_row
from aztecdimers.coupling import (
    DyadicRational,
    coupling,
    coupling_signed,
    coupling_signed_row,
    pattern_probability,
)
from aztecdimers.enumerate import enumerate_matchings, weighted_matchings
from aztecdimers.kasteleyn import inverse_coupling_matrix
from aztecdimers.lattice import BoardError, black, build_diamond, check_diamond_pair, remove_vertices, white
from derivation import first_column_hole_count, krawtchouk_convolution


# ---------------------------------------------------------------------------
# DyadicRational
# ---------------------------------------------------------------------------


def test_dyadic_normalization():
    assert DyadicRational(2, 2) == DyadicRational(1, 1)
    assert DyadicRational(0, 7) == DyadicRational(0, 0)
    assert DyadicRational(-4, 3) == DyadicRational(-1, 1)
    assert DyadicRational(3, 0).to_fraction() == 3
    assert DyadicRational(3 << 500, 600) == DyadicRational(3, 100)
    assert DyadicRational(1 << 700, 600) == DyadicRational(1 << 100, 0)
    assert DyadicRational(-(5 << 64), 64) == DyadicRational(-5, 0)
    assert DyadicRational(7 << 3, 1000) == DyadicRational(7, 997)
    assert str(DyadicRational(3, 2)) == "3 / 2^2"


def test_dyadic_rejects_negative_scale():
    with pytest.raises(ValueError):
        DyadicRational(1, -1)


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_master_equivalence(n):
    for (v, w), entry in inverse_coupling_matrix(n).items():
        assert abs(coupling(n, v, w).to_fraction()) == abs(entry)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_signed_equivalence_all_offsets(n):
    for (v, w), entry in inverse_coupling_matrix(n).items():
        value = coupling_signed(n, v.x, w.x - v.x, w.y, v.y - w.y)
        assert value.to_fraction() == entry


def _branch_sum_per_term(n, x, y, x2, y2):
    """The coupling formula's branch sum, one term at a time, with the
    binomial-convolution form of the Krawtchouk coefficients."""
    shift = x2 - x
    js = range(x) if shift > 0 else range(x, n + 1)
    total = sum(
        krawtchouk_convolution(j, n, y - 1) * krawtchouk_convolution(y2 - 1, n - 1, n - (j + shift))
        for j in js
    )
    return total if shift > 0 else -total


def test_kernel_matches_the_per_term_sum_on_every_pair():
    for n in range(1, 9):
        board = build_diamond(n)
        for v in board.white_vertices:
            for w in board.black_vertices:
                want = DyadicRational(_branch_sum_per_term(n, v.x, v.y, w.x, w.y), n)
                assert coupling(n, v, w) == want, (n, v, w)


@given(st.data())
def test_kernel_matches_the_per_term_sum_on_sampled_pairs(data):
    n = data.draw(st.integers(1, 30), label="n")
    v = white(data.draw(st.integers(1, n)), data.draw(st.integers(1, n + 1)))
    w = black(data.draw(st.integers(1, n + 1)), data.draw(st.integers(1, n)))
    assert coupling(n, v, w) == DyadicRational(_branch_sum_per_term(n, v.x, v.y, w.x, w.y), n)


def _on_board(n, shift):
    """The white columns ``x`` whose black partner ``x + shift`` is on the order-``n`` diamond."""
    return range(max(1, 1 - shift), min(n, n + 1 - shift) + 1)


def _branch_sign(y, y2, shift):
    """The sign the reflections put on the kernel's unsigned sums: the branch sum is
    ``(-1)^(y2-1)`` times the sum for ``shift > 0`` and ``(-1)^y`` times it otherwise."""
    return (-1) ** ((y2 - 1) if shift > 0 else y)


def test_range_kernel_matches_the_per_term_sum_on_every_range():
    # Every (y, y2, shift), the extreme shifts 1 - n and n included, and every
    # contiguous range of x, the single columns included.
    for n in range(1, 9):
        for shift in range(1 - n, n + 1):
            cols = _on_board(n, shift)
            for y in range(1, n + 2):
                for y2 in range(1, n + 1):
                    sign = _branch_sign(y, y2, shift)
                    want = [sign * _branch_sum_per_term(n, x, y, x + shift, y2) for x in cols]
                    for lo, hi in combinations(range(len(cols) + 1), 2):
                        got = coupling_mod._branch_sums(n, y, y2, shift, cols[lo:hi])
                        assert got == want[lo:hi], (n, y, y2, shift, cols[lo:hi])


@given(st.data())
def test_range_kernel_matches_the_per_term_sum_on_sampled_ranges(data):
    n = data.draw(st.integers(1, 30), label="n")
    shift = data.draw(st.integers(1 - n, n), label="shift")
    y, y2 = data.draw(st.integers(1, n + 1), label="y"), data.draw(st.integers(1, n), label="y2")
    cols = _on_board(n, shift)
    lo = data.draw(st.integers(0, len(cols) - 1), label="lo")
    xs = cols[lo:data.draw(st.integers(lo + 1, len(cols)), label="hi")]
    want = [_branch_sign(y, y2, shift) * _branch_sum_per_term(n, x, y, x + shift, y2) for x in xs]
    assert coupling_mod._branch_sums(n, y, y2, shift, xs) == want


def test_signed_row_equals_its_cells():
    # Every offset at every order to 12.  To order 9 every sub-range of w0 is
    # one row, the single columns included, so each branch of the kernel starts
    # and stops at every x; above that, the whole row.
    for n in range(1, 13):
        for d0 in range(1 - n, n + 1):
            w0s = _on_board(n, d0)
            for w1 in range(1, n + 1):
                for d1 in range(1 - w1, n + 2 - w1):
                    cells = [coupling_signed(n, w0, d0, w1, d1) for w0 in w0s]
                    scaled = [c.numerator << (n - c.scale) for c in cells]
                    spans = combinations(range(len(w0s) + 1), 2) if n <= 9 else [(0, len(w0s))]
                    for lo, hi in spans:
                        row = coupling_signed_row(n, w0s[lo:hi], d0, w1, d1)
                        assert row == scaled[lo:hi], (n, w0s[lo:hi], d0, w1, d1)


def _branch_sum_from_lines(n, x, y, x2, y2):
    """The coupling formula's branch sum read from one built row and column in
    the formula's own orientation, with no reflection."""
    row, column = krawtchouk_row(n, y - 1), krawtchouk_column(y2 - 1, n - 1)
    shift = x2 - x
    if shift > 0:
        return sum(row[j] * column[n - j - shift] for j in range(x))
    return -sum(row[j] * column[n - j - shift] for j in range(x, n + 1))


@pytest.mark.parametrize("n", [200, 201])
def test_signed_row_matches_the_formula_on_sampled_ranges_at_large_order(n):
    # n = 200 reads a row of even order b = n and a column of odd order
    # b = n - 1, n = 201 the reverse; the offsets alternate between the two
    # branches.
    rng = random.Random(n)
    for i in range(40):
        d0 = rng.randint(1, n) if i % 2 else rng.randint(1 - n, 0)
        w1 = rng.randint(1, n)
        d1 = rng.randint(1 - w1, n + 1 - w1)
        cols = _on_board(n, d0)
        lo = rng.randrange(len(cols))
        w0s = cols[lo:rng.randint(lo + 1, min(len(cols), lo + 8))]
        sign = -1 if (d0 + d1 + w1) % 2 else 1
        want = [sign * _branch_sum_from_lines(n, w0, w1 + d1, w0 + d0, w1) for w0 in w0s]
        assert coupling_signed_row(n, w0s, d0, w1, d1) == want, (n, w0s, d0, w1, d1)


@pytest.mark.parametrize("w0s", [range(0, 3), range(1, 5), range(4, 5)])
def test_signed_row_rejects_an_end_off_the_board(w0s):
    with pytest.raises(BoardError):
        coupling_signed_row(3, w0s, 0, 1, 0)


def test_signed_row_checks_its_ends_like_check_diamond_pair():
    # The integer bounds test rejects exactly the rows check_diamond_pair rejects,
    # with its message.
    for n in range(0, 4):
        for w0, d0, w1, d1 in product(range(-1, 6), range(-5, 6), range(-1, 6), range(-5, 6)):
            for w0s in (range(w0, w0 + 1), range(w0, w0 + 2)):
                try:
                    for x in (w0s[0], w0s[-1]):
                        check_diamond_pair(n, white(x, w1 + d1), black(x + d0, w1))
                    want = None
                except BoardError as exc:
                    want = str(exc)
                try:
                    coupling_signed_row(n, w0s, d0, w1, d1)
                    got = None
                except BoardError as exc:
                    got = str(exc)
                assert got == want, (n, w0s, d0, w1, d1)


def test_signed_entry_on_the_board_builds_no_vertex(monkeypatch):
    def no_vertex(x, y):
        raise AssertionError("vertex built")

    want = coupling_signed(5, 2, 1, 3, -1)
    monkeypatch.setattr(coupling_mod, "white", no_vertex)
    monkeypatch.setattr(coupling_mod, "black", no_vertex)
    assert coupling_signed(5, 2, 1, 3, -1) == want
    assert coupling_signed_row(5, range(1, 5), 1, 3, -1)[1] == want.numerator * 2 ** (5 - want.scale)


def test_pattern_entries_are_not_rechecked(monkeypatch):
    # validate_pattern has put every white and black on the board; coupling()
    # alone still checks its pair.
    pattern = ((white(2, 2), black(2, 2)), (white(3, 3), black(4, 2)))
    want = pattern_probability(4, pattern)

    def no_check(n, v, w):
        raise AssertionError("entry rechecked")

    monkeypatch.setattr(coupling_mod, "check_diamond_pair", no_check)
    assert pattern_probability(4, pattern) == want
    with pytest.raises(AssertionError, match="entry rechecked"):
        coupling(4, white(2, 2), black(2, 2))


def test_a_lone_entry_keeps_only_a_row_and_a_column():
    # One mid-board entry at n = 1200 needs one white row and one black column
    # of n + 1 integers each, well under 8 MiB; whole Krawtchouk tables of
    # orders n and n - 1 would hold about 300 MiB.
    tracemalloc.start()
    try:
        coupling(1200, white(600, 600), black(601, 600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_corner_domino_probability_matches_brute_force():
    board = build_diamond(2)
    v = white(1, 1)
    w = board.neighbors(v)[0]
    containing = 0

    def visit(m):
        nonlocal containing
        containing += (v, w) in m

    total = enumerate_matchings(board, visit)
    assert abs(coupling(2, v, w).to_fraction()) == Fraction(containing, total)


def test_coupling_scale_never_exceeds_order():
    for n in (2, 3):
        board = build_diamond(n)
        for v in board.white_vertices:
            for w in board.black_vertices:
                assert coupling(n, v, w).scale <= n


def test_coupling_range_errors():
    with pytest.raises(BoardError):
        coupling(2, white(3, 1), black(1, 1))
    with pytest.raises(BoardError):
        coupling(2, white(1, 1), black(1, 3))
    with pytest.raises(BoardError):
        coupling_signed(2, 1, 3, 1, 1)


# ---------------------------------------------------------------------------
# The signed entry's structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_half_turn_identity(n):
    # Rotating the board half a turn sends (w0,d0,w1,d1) to
    # (n+1-w0, 1-d0, n+1-w1, 1-d1) and scales the entry by (-1)^{d0+d1+1};
    # the closed form evaluates both sides directly.
    for (v, w), _ in inverse_coupling_matrix(n).items():
        w0, d0, w1, d1 = v.x, w.x - v.x, w.y, v.y - w.y
        lhs = coupling_signed(n, w0, d0, w1, d1).to_fraction()
        rhs = coupling_signed(n, n + 1 - w0, 1 - d0, n + 1 - w1, 1 - d1).to_fraction()
        assert lhs == (rhs if (d0 + d1) % 2 else -rhs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_column_reduction(n):
    # At w0 = 1 the signed entry is the first-column closed form over the
    # full tiling count, up to the sign-relation factor.
    denom = 2 ** (n * (n + 1) // 2)
    for d0 in range(1, n + 1):
        for w1 in range(1, n + 1):
            for d1 in range(1, n + 2 - w1):
                value = coupling_signed(n, 1, d0, w1, d1).to_fraction()
                want = Fraction(
                    (-1) ** ((d0 + d1 + 1) % 2) * first_column_hole_count(n, d0, w1), denom
                )
                assert value == want


# ---------------------------------------------------------------------------
# Pattern probabilities
# ---------------------------------------------------------------------------


def test_empty_pattern_probability():
    assert pattern_probability(3, ()) == 1


def test_complete_matchings_of_order_two():
    matchings = []
    enumerate_matchings(build_diamond(2), matchings.append)
    assert len(matchings) == 8
    for m in matchings:
        assert pattern_probability(2, m) == Fraction(1, 8)


def _transfer_ratio(board, pattern):
    # Ground truth: matchings of the board minus the pattern's cells over all matchings.
    rest = remove_vertices(board, [v for edge in pattern for v in edge])
    return Fraction(weighted_matchings(rest, lambda w, b: 1), weighted_matchings(board, lambda w, b: 1))


@pytest.mark.parametrize("n", [2, 3])
def test_pattern_probabilities_match_oracle(n):
    board = build_diamond(n)
    dominoes = [(v, w) for v in board.white_vertices for w in board.neighbors(v)]
    for d in dominoes:
        assert pattern_probability(n, (d,)) == _transfer_ratio(board, (d,))
    # A sample of two-domino patterns; the exhaustive sweep lives in the
    # acceptance suite.
    checked = 0
    for d1, d2 in combinations(dominoes, 2):
        if len({d1[0], d2[0]}) + len({d1[1], d2[1]}) < 4:
            continue
        p = (d1, d2)
        assert pattern_probability(n, p) == _transfer_ratio(board, p)
        checked += 1
        if checked >= 40:
            break


def test_probabilities_bounded_with_dyadic_denominator():
    n = 3
    board = build_diamond(n)
    dominoes = [(v, w) for v in board.white_vertices for w in board.neighbors(v)]
    disjoint = [
        (d1, d2)
        for d1, d2 in combinations(dominoes, 2)
        if d1[0] != d2[0] and d1[1] != d2[1]
    ]
    for d1, d2 in disjoint[:60]:
        p = pattern_probability(n, (d1, d2))
        assert 0 <= p <= 1
        assert 2 ** (n * (n + 1) // 2) % p.denominator == 0


def test_disjoint_blocks_factorize():
    # Dominoes with vanishing cross-couplings make the probability
    # determinant block-diagonal, so probabilities multiply.
    n = 3
    board = build_diamond(n)
    dominoes = [(v, w) for v in board.white_vertices for w in board.neighbors(v)]
    found = 0
    for (v1, w1), (v2, w2) in combinations(dominoes, 2):
        if len({v1, v2}) < 2 or len({w1, w2}) < 2:
            continue
        if coupling(n, v1, w2).numerator or coupling(n, v2, w1).numerator:
            continue
        joint = pattern_probability(n, ((v1, w1), (v2, w2)))
        split = pattern_probability(n, ((v1, w1),)) * pattern_probability(
            n, ((v2, w2),)
        )
        assert joint == split
        found += 1
    assert found > 0


# ---------------------------------------------------------------------------
# Board symmetry
# ---------------------------------------------------------------------------


def test_transpose_orientation_defines_the_same_values():
    # Transposing the board maps white (x, y) to black (y, x) and black
    # (x', y') to white (y', x'), i.e. swaps (w0, d0) with (w1, d1); the
    # signed entries, and so the probabilities, are unchanged.
    for n in range(1, 5):
        board = build_diamond(n)
        for v in board.white_vertices:
            for w in board.black_vertices:
                w0, d0, w1, d1 = v.x, w.x - v.x, w.y, v.y - w.y
                assert coupling_signed(n, w0, d0, w1, d1) == coupling_signed(n, w1, d1, w0, d0)
                transposed = coupling(n, white(w.y, w.x), black(v.y, v.x))
                assert abs(coupling(n, v, w).to_fraction()) == abs(transposed.to_fraction())
    # Whole kernel rows, as the heatmap reads them: the rows over w0s, transposed, are the rows over w1s.
    for n, d0, d1 in product(range(1, 13), range(-4, 5), range(-4, 5)):
        w0s, w1s = _heatmap_rows(n, d0, d1)
        if w0s and w1s:
            rows = [coupling_signed_row(n, w0s, d0, w1, d1) for w1 in w1s]
            assert [list(c) for c in zip(*rows)] == [coupling_signed_row(n, w1s, d1, w0, d0) for w0 in w0s]


def test_mistranscribed_formula_fails_calibration():
    # Reading Kr(a, b, c) as Kr(a, b, b - c) must leave some signed entry at
    # n = 3 off the inverse-Kasteleyn oracle, so the oracle comparison sees it.
    row, column = coupling_mod.krawtchouk_row, coupling_mod.krawtchouk_column
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling_mod, "krawtchouk_row", lambda b, c: row(b, b - c))
        mp.setattr(coupling_mod, "krawtchouk_column", lambda a, b: column(a, b)[::-1])
        mismatches = [
            (v, w)
            for (v, w), entry in inverse_coupling_matrix(3).items()
            if coupling_signed(3, v.x, w.x - v.x, w.y, v.y - w.y).to_fraction() != entry
        ]
    assert mismatches
