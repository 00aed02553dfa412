"""Closed-form counting formulas against the enumeration oracles."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from aztecdimers.combinatorics import krawtchouk_column, krawtchouk_row, next_krawtchouk_column, next_krawtchouk_row
from aztecdimers.enumerate import HoleSpec, enumerate_matchings, weighted_count
from aztecdimers.exactlinalg import det
from aztecdimers.lattice import black
from derivation import (
    BlackRect,
    DeltaOperator,
    TruncationError,
    WhiteRect,
    annihilator_coeffs,
    binomial_poly,
    build_rectangle,
    delta_symbol_coefficient,
    dented_rectangle_matchings,
    first_column_hole_count,
    hole_pair_determinant,
    hole_pair_determinant_telescoped,
    hole_pair_prefactor,
    holed_rectangle_closed_form,
    krawtchouk,
    krawtchouk_convolution,
    laplace_block_identity,
    poly_eval,
    poly_forward_difference,
    poly_mul,
    superfactorial,
    toothed_rectangle_matchings,
    vandermonde,
    weighted_count_rect,
)


# ---------------------------------------------------------------------------
# Krawtchouk coefficients
# ---------------------------------------------------------------------------


def test_krawtchouk_examples():
    assert krawtchouk(0, 5, 2) == 1
    assert krawtchouk(2, 4, 0) == 6
    assert krawtchouk(1, 5, 2) == 5 - 2 * 2
    assert krawtchouk(1, 6, 1) == 6 - 2 * 1


def test_krawtchouk_out_of_range_is_zero():
    assert krawtchouk(-1, 5, 2) == 0
    assert krawtchouk(6, 5, 2) == 0
    assert krawtchouk(2, 5, -1) == 0
    assert krawtchouk(2, 5, 6) == 0


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
def test_krawtchouk_matches_convolution_fast_path(a, b, c):
    assert krawtchouk(a, b, c) == krawtchouk_convolution(a, b, c)


def test_krawtchouk_rows_and_columns_are_the_polynomial_products():
    for b in range(41):
        # rows[c][a] is the coefficient of x^a in (1-x)^c (1+x)^{b-c}; every row
        # has all b + 1 coefficients, as the product has degree exactly b.
        rows = [poly_mul(binomial_poly(c, -1), binomial_poly(b - c, +1)) for c in range(b + 1)]
        for c, row in enumerate(rows):
            assert krawtchouk_row(b, c) == row
            assert row == tuple(krawtchouk_convolution(a, b, c) for a in range(b + 1))
        for a in range(b + 1):
            assert krawtchouk_column(a, b) == tuple(row[a] for row in rows)
    for bad in ((-1, 0), (2, 3), (2, -1)):
        with pytest.raises(ValueError):
            krawtchouk_row(*bad)
    for bad in ((0, -1), (3, 2), (-1, 2)):
        with pytest.raises(ValueError):
            krawtchouk_column(*bad)


def test_krawtchouk_reflection():
    for b in range(13):
        for c in range(b + 1):
            for a in range(b + 1):
                assert krawtchouk(a, b, c) == (-1) ** a * krawtchouk(a, b, b - c)


def test_krawtchouk_row_reflection():
    for b in range(13):
        for c in range(b + 1):
            for a in range(b + 1):
                assert krawtchouk(b - a, b, c) == (-1) ** c * krawtchouk(a, b, c)


@pytest.mark.parametrize("b", [199, 200, 401])
def test_krawtchouk_lines_match_convolution_at_large_order(b):
    # Each builder runs its recurrence to the middle index and reflects the
    # rest; the ends and both middle indices are where an off-by-one shows.
    rng = random.Random(b)
    indices = sorted({0, 1, b // 2, (b + 1) // 2, b - 1, b, *rng.sample(range(b + 1), 8)})
    for i in indices:
        row, column = krawtchouk_row(b, i), krawtchouk_column(i, b)
        assert len(row) == len(column) == b + 1
        for j in indices:
            assert row[j] == krawtchouk_convolution(j, b, i), (b, j, i)
            assert column[j] == krawtchouk_convolution(i, b, j), (b, i, j)


def test_one_step_builders_equal_the_recurrences():
    # Every step between lines of order b <= 40, then steps at b = 200 and 400 from both ends and
    # across both middle indices, where an off-by-one in the run to the middle would show.
    steps = [(b, i) for b in range(41) for i in range(b)]
    for b in (200, 400):
        rng = random.Random(b)
        steps += [(b, i) for i in sorted({0, 1, b // 2 - 1, b // 2, b - 2, b - 1, *rng.sample(range(b), 8)})]
    for b, i in steps:
        assert next_krawtchouk_row(krawtchouk_row(b, i), i) == krawtchouk_row(b, i + 1), (b, i)
        assert next_krawtchouk_column(krawtchouk_column(i, b), i) == krawtchouk_column(i + 1, b), (b, i)
    # No step leaves the last line, or starts from an index the line does not have.
    for b, i in ((0, 0), (3, 3), (3, -1)):
        with pytest.raises(ValueError):
            next_krawtchouk_row(krawtchouk_row(b, min(max(i, 0), b)), i)
        with pytest.raises(ValueError):
            next_krawtchouk_column(krawtchouk_column(min(max(i, 0), b), b), i)


def test_krawtchouk_row_sums():
    for b in range(13):
        for c in range(b + 1):
            total = sum(krawtchouk(a, b, c) for a in range(b + 1))
            assert total == (2**b if c == 0 else 0)


# ---------------------------------------------------------------------------
# Rectangle product formulas
# ---------------------------------------------------------------------------


def test_superfactorial_examples():
    assert superfactorial(0) == 1
    assert superfactorial(3) == 12
    assert superfactorial(4) == 288
    with pytest.raises(ValueError):
        superfactorial(-1)


def test_vandermonde_matches_determinant():
    xs = (1, 3, 4, 7)
    m = [[x ** j for j in range(len(xs))] for x in xs]
    assert vandermonde(xs) == det(m)


def test_rectangle_formula_base_cases():
    assert dented_rectangle_matchings(3, 1, [2]) == 1
    assert toothed_rectangle_matchings(3, 1, [2]) == 2
    assert dented_rectangle_matchings(1, 2, [1, 2]) == 2


def test_rectangle_formula_repeats_are_zero():
    assert dented_rectangle_matchings(2, 2, [2, 2]) == 0
    assert toothed_rectangle_matchings(2, 2, [1, 1]) == 0


def test_rectangle_formula_validation():
    with pytest.raises(ValueError):
        dented_rectangle_matchings(2, 2, [1])
    with pytest.raises(ValueError):
        dented_rectangle_matchings(2, 2, [0, 1])
    with pytest.raises(ValueError):
        toothed_rectangle_matchings(2, 2, [1, 3])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rectangle_formulas_match_enumeration(n):
    for m in (1, 2, 3):
        for dents in combinations(range(1, n + 2), m):
            want = enumerate_matchings(build_rectangle(BlackRect, n, m, dents))
            assert dented_rectangle_matchings(n, m, dents) == want
        for teeth in combinations(range(1, n + 1), m):
            want = enumerate_matchings(build_rectangle(WhiteRect, n, m, teeth))
            assert toothed_rectangle_matchings(n, m, teeth) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tooth_sum_recursion(n):
    # Toothed counts as sums of dented counts over x_i in {y_i, y_i + 1}.
    for m in (1, 2, 3):
        for teeth in combinations(range(1, n + 1), m):
            total = sum(
                dented_rectangle_matchings(n, m, [y + e for y, e in zip(teeth, bumps)])
                for bumps in product((0, 1), repeat=m)
            )
            assert toothed_rectangle_matchings(n, m, teeth) == total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dent_sum_recursion(n):
    # Dented counts one row up as interleaved sums of toothed counts.
    for m in (1, 2):
        for dents in combinations(range(1, n + 2), m + 1):
            total = 0
            for teeth in product(*(range(dents[i], dents[i + 1]) for i in range(m))):
                total += toothed_rectangle_matchings(n, m, teeth)
            assert dented_rectangle_matchings(n, m + 1, dents) == total


# ---------------------------------------------------------------------------
# Operator calculus
# ---------------------------------------------------------------------------


def test_forward_difference_of_square():
    # x^2 -> 2x + 1
    assert poly_forward_difference((0, 0, 1)) == (1, 2)


def test_delta_operator_annihilates_low_degree():
    for m in range(1, 6):
        op = DeltaOperator.delta(m + 1) ** m
        assert op.apply([0] * (m - 1) + [1]) == ()  # delta^m kills x^{m-1}


def test_truncated_inverse_is_two_sided():
    for trunc in range(1, 9):
        inverse = DeltaOperator.inverse_two_i_plus_delta(trunc)
        forward = DeltaOperator.two_i_plus_delta(trunc)
        for k in range(trunc):
            monomial = [0] * k + [1]
            assert forward.apply(inverse.apply(monomial)) == tuple(monomial)
            assert inverse.apply(forward.apply(monomial)) == tuple(monomial)


def test_operator_truncation_guard():
    op = DeltaOperator.identity(3)
    with pytest.raises(TruncationError):
        op.apply([0, 0, 0, 1])
    with pytest.raises(TruncationError):
        op.monomial_value(3)
    with pytest.raises(ValueError):
        op.compose(DeltaOperator.identity(4))


def test_monomial_value_matches_apply():
    rng = random.Random(2)
    for _ in range(20):
        trunc = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(trunc)]
        op = DeltaOperator.from_delta_coeffs(coeffs, trunc)
        degree = rng.randrange(trunc)
        applied = op.apply([0] * degree + [1])
        assert op.monomial_value(degree) == poly_eval(applied, 1)


def test_shift_operator_evaluates_polynomials():
    # (I + delta)^{w-1} applied at 1 evaluates at w.
    for w in range(1, 6):
        op = DeltaOperator.one_plus_delta(5) ** (w - 1)
        for degree in range(5):
            assert op.monomial_value(degree) == w ** degree


# ---------------------------------------------------------------------------
# Holed rectangles
# ---------------------------------------------------------------------------


def _rect_cases(top_n, top_size):
    for n in range(1, top_n + 1):
        for size in range(1, top_size + 1):
            for d1 in range(size):
                yield n, size, d1


def test_holed_rectangle_formula_matches_enumeration():
    for n, size, d1 in _rect_cases(3, 3):
        m = size - d1
        for w0 in range(1, n + 2):
            for teeth in combinations(range(1, n + 1), size - 1):
                board = build_rectangle(WhiteRect, n, size, teeth)
                want = weighted_count_rect(board, black(w0, m))
                assert holed_rectangle_closed_form(WhiteRect, n, m, d1, w0, teeth) == want
            if d1 < 1:
                continue
            for dents in combinations(range(1, n + 2), size - 1):
                board = build_rectangle(BlackRect, n, size, dents)
                want = weighted_count_rect(board, black(w0, m))
                assert holed_rectangle_closed_form(BlackRect, n, m, d1, w0, dents) == want


def test_holed_rectangle_black_needs_positive_offset():
    with pytest.raises(ValueError):
        holed_rectangle_closed_form(BlackRect, 2, 2, 0, 1, [1])


def test_holed_rectangle_validation():
    with pytest.raises(ValueError):
        holed_rectangle_closed_form(WhiteRect, 2, 2, 0, 1, [1, 2])  # too many teeth
    with pytest.raises(ValueError):
        holed_rectangle_closed_form(WhiteRect, 2, 1, 1, 5, [1])  # hole off board
    with pytest.raises(ValueError):
        holed_rectangle_closed_form(object, 2, 1, 1, 1, [1])


def test_dented_top_row_hole_is_a_board_sign():
    # A hole in the dented top row is just one more dent; the shifted-row
    # determinant (hole row pasted on top) then carries the board-level
    # sign (-1)^{#dents left of the hole} relative to the plain count.
    from aztecdimers.lattice import remove_vertices

    for n in (2, 3):
        for m in (2, 3):
            for dents in combinations(range(1, n + 2), m - 1):
                for w0 in range(1, n + 2):
                    if w0 in dents:
                        continue
                    merged = tuple(sorted(dents + (w0,)))
                    plain = dented_rectangle_matchings(n, m, merged)
                    holed = remove_vertices(
                        build_rectangle(BlackRect, n, m, dents), [black(w0, m)]
                    )
                    assert enumerate_matchings(holed) == plain
                    shifted = (
                        2 ** (m * (m - 1) // 2) * vandermonde((w0,) + dents)
                    ) / superfactorial(m - 1)
                    sign = (-1) ** sum(1 for x in dents if x < w0)
                    assert shifted == sign * plain


def test_white_to_black_hole_recursion():
    # Summing the white-edged formula over interleaved teeth reproduces the
    # black-edged formula one row up (the d1 = 1 case).
    for n in (2, 3):
        for m in (1, 2):
            size = m + 1
            for dents in combinations(range(1, n + 2), size - 1):
                for w0 in range(1, n + 2):
                    lhs = holed_rectangle_closed_form(BlackRect, n, m, 1, w0, dents)
                    total = 0
                    ranges = [range(dents[i], dents[i + 1]) for i in range(len(dents) - 1)]
                    for teeth in product(*ranges):
                        total += holed_rectangle_closed_form(WhiteRect, n, m, 0, w0, teeth)
                    assert lhs == total


# ---------------------------------------------------------------------------
# Diamond hole-pair formulas
# ---------------------------------------------------------------------------


def _hole_specs(n):
    for w0 in range(1, n + 1):
        for d0 in range(1, n + 2 - w0):
            for w1 in range(1, n + 1):
                for d1 in range(1, n + 2 - w1):
                    yield w0, d0, w1, d1


def test_first_column_base_case():
    for n in (1, 2, 3, 4):
        assert first_column_hole_count(n, 1, 1) == 2 ** (n * (n - 1) // 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_first_column_matches_weighted_count(n):
    for d0 in range(1, n + 1):
        for w1 in range(1, n + 1):
            want = first_column_hole_count(n, d0, w1)
            for d1 in range(1, n + 2 - w1):
                assert weighted_count(n, HoleSpec(1, d0, w1, d1)) == want


def test_first_column_range_check():
    with pytest.raises(ValueError):
        first_column_hole_count(3, 4, 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_annihilator_identities(n):
    for s in range(1, n + 2):
        a = annihilator_coeffs(n, s)
        for j in range(2, s + 1):
            assert sum(a[k] * (k + 1) ** (j - 2) for k in range(n + 1)) == 0
        for j in range(s + 1, n + 2):
            assert sum(a[k] * (-1) ** k * (k + 1) ** (j - s - 1) for k in range(n + 1)) == 0


def test_annihilator_degenerate_case():
    n = 5
    a = annihilator_coeffs(n, n + 1)
    from math import comb

    assert a == tuple((-1) ** (n - k) * comb(n, k) for k in range(n + 1))


def test_telescoped_collapses_at_first_column():
    for n in (2, 3):
        for d0 in (1, 2):
            for w1 in (1, 2):
                direct = hole_pair_determinant(n, 1, d0, w1, 1)
                assert hole_pair_determinant_telescoped(n, 1, d0, w1, 1) == direct


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_telescoped_equals_direct(n):
    for w0, d0, w1, d1 in _hole_specs(n):
        assert hole_pair_determinant(n, w0, d0, w1, d1) == hole_pair_determinant_telescoped(
            n, w0, d0, w1, d1
        )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prefactor_times_determinant_is_weighted_count(n):
    for w0, d0, w1, d1 in _hole_specs(n):
        value = hole_pair_prefactor(n, w1, d1) * hole_pair_determinant(n, w0, d0, w1, d1)
        assert value == weighted_count(n, HoleSpec(w0, d0, w1, d1))


def test_hole_pair_range_checks():
    with pytest.raises(ValueError):
        hole_pair_determinant(3, 1, 0, 1, 1)
    with pytest.raises(ValueError):
        hole_pair_determinant(3, 3, 2, 1, 1)


# ---------------------------------------------------------------------------
# Block Laplace expansion and the series identity
# ---------------------------------------------------------------------------


def test_laplace_block_trivial_splits():
    assert laplace_block_identity([[1, 2], [3, 4]], 2, 0)
    assert laplace_block_identity([[1, 2], [-3, -4]], 0, 2)


def test_laplace_block_identity_matrix():
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    rows = [[v * ((-1) ** i if j >= 2 else 1) for j, v in enumerate(row)] for i, row in enumerate(rows)]
    assert laplace_block_identity(rows, 2, 2)


def test_laplace_block_random_structured():
    rng = random.Random(17)
    for _ in range(12):
        m1, m2 = rng.randint(0, 3), rng.randint(0, 3)
        size = m1 + m2
        c = [[rng.randint(-5, 5) for _ in range(m1)] for _ in range(size)]
        d = [[rng.randint(-5, 5) for _ in range(m2)] for _ in range(size)]
        rows = [c[i] + [(-1) ** i * v for v in d[i]] for i in range(size)]
        assert laplace_block_identity(rows, m1, m2)


def test_delta_symbol_coefficient_is_scaled_krawtchouk():
    for n in range(1, 11):
        for w1 in range(1, n + 1):
            for d0 in range(1, n + 1):
                lhs = delta_symbol_coefficient(n, w1, d0)
                assert lhs == Fraction(krawtchouk(w1 - 1, n - 1, n - d0), 2**n)
