"""Exact determinants and inverses, with minors as the cofactor reference."""

import random
from fractions import Fraction

import pytest

from aztecdimers.exactlinalg import (
    ShapeError,
    SingularMatrixError,
    det,
    invert,
)
from aztecdimers.kasteleyn import kasteleyn_matrix
from aztecdimers.lattice import build_diamond
from derivation import det_fractions, minor

# Matrices are plain rows; ragged rows and non-square rows are both shape errors.
NOT_SQUARE = ([[1, 2], [3]], [[1, 2, 3], [4, 5, 6]], [[1, 2]], ((1,), (2,)))


def _identity(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def test_det_empty_matrix_is_one():
    assert det(()) == 1
    assert det([]) == 1


def test_det_identity():
    assert det(_identity(3)) == 1


def test_det_two_by_two():
    assert det([[1, 2], [3, 4]]) == -2
    assert det(((1, 2), (3, 4))) == -2
    assert det([(1, 2), [3, 4]]) == -2


def test_det_requires_square():
    for rows in NOT_SQUARE:
        with pytest.raises(ShapeError):
            det(rows)


def test_det_singular_with_pivot_swap():
    m = [[0, 1, 2], [0, 2, 4], [1, 0, 0]]
    assert det(m) == 0


def _random_matrix(rng, k, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(k)] for _ in range(k)]


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _cofactor_entry(m, i, j):
    # Entry (i, j) of m^{-1}: the signed cofactor of (j, i) over det m.
    return Fraction((-1) ** ((i + j) % 2) * det(minor(m, [j], [i])), det(m))


def test_det_multiplicative():
    rng = random.Random(7)
    for _ in range(25):
        k = rng.randint(1, 5)
        a, b = _random_matrix(rng, k), _random_matrix(rng, k)
        assert det(_matmul(a, b)) == det(a) * det(b)


def test_det_matches_laplace_expansion():
    rng = random.Random(11)
    for _ in range(15):
        k = rng.randint(1, 5)
        m = _random_matrix(rng, k)
        row = rng.randrange(k)
        expansion = sum(
            (-1) ** ((row + j) % 2) * m[row][j] * det(minor(m, [row], [j]))
            for j in range(k)
        )
        assert det(m) == expansion


def test_minor_identity_and_full_deletion():
    m = ((1, 2), (3, 4))
    # Lists and tuples alike come back as a tuple of row tuples.
    for rows in (m, [[1, 2], [3, 4]]):
        assert minor(rows, [], []) == m
        assert minor(rows, [0], [0]) == ((4,),)
        assert minor(rows, [1], [0]) == ((2,),)
        assert minor(rows, [0, 1], [0, 1]) == ()


def test_inverse_entry_identity_and_diagonal():
    assert _cofactor_entry(_identity(4), 2, 2) == 1
    assert invert(_identity(4))[1][2][2] == 1
    m = [[2, 0], [0, 4]]
    assert _cofactor_entry(m, 1, 1) == Fraction(1, 4)
    assert _cofactor_entry(m, 0, 1) == 0
    assert invert(m) == (8, ((Fraction(1, 2), 0), (0, Fraction(1, 4))))


def test_inverse_entry_singular():
    m = [[1, 1], [1, 1]]
    assert det(m) == 0
    with pytest.raises(ZeroDivisionError):
        _cofactor_entry(m, 0, 0)
    with pytest.raises(SingularMatrixError):
        invert(m)


def test_random_inverse_roundtrip():
    rng = random.Random(3)
    done = 0
    while done < 10:
        m = _random_matrix(rng, 4)
        if det(m) == 0:
            continue
        d, inv = invert(m)
        assert d == det(m)
        for i in range(4):
            for j in range(4):
                prod = sum(Fraction(m[i][k]) * inv[k][j] for k in range(4))
                assert prod == (1 if i == j else 0)
        done += 1


def test_inverse_entry_agrees_with_invert():
    rng = random.Random(5)
    done = 0
    while done < 8:
        m = _random_matrix(rng, 5)
        if det(m) == 0:
            continue
        d, inv = invert(m)
        assert d == det(m)
        for i in range(5):
            for j in range(5):
                assert _cofactor_entry(m, i, j) == inv[i][j]
        done += 1


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert([[1, 2], [2, 4]])


def test_det_fractions_matches_integer_det():
    rng = random.Random(13)
    for _ in range(10):
        k = rng.randint(0, 4)
        m = _random_matrix(rng, k)
        assert det_fractions([[Fraction(v) for v in row] for row in m]) == det(m)


def test_invert_needs_pivot_swaps_and_square_input():
    m = [[0, 1, 0], [0, 0, 2], [3, 0, 0]]
    want = ((0, 0, Fraction(1, 3)), (1, 0, 0), (0, Fraction(1, 2), 0))
    assert invert(m) == (6, want)
    assert invert(tuple(map(tuple, m))) == (6, want)
    assert invert(()) == (1, ())
    for rows in NOT_SQUARE:
        with pytest.raises(ShapeError):
            invert(rows)


def test_det_fractions_rational_rows():
    # Dividing row i of an integer matrix by s_i divides its determinant by
    # the product of the s_i.
    rng = random.Random(17)
    for _ in range(20):
        k = rng.randint(1, 5)
        m = _random_matrix(rng, k)
        scales = [rng.randint(1, 12) for _ in range(k)]
        rows = [[Fraction(v, s) for v in row] for row, s in zip(m, scales)]
        want = Fraction(det(m))
        for s in scales:
            want /= s
        assert det_fractions(rows) == want
    assert det_fractions([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]) == Fraction(1, 60)
    with pytest.raises(ShapeError):
        det_fractions([[Fraction(1)], [Fraction(2)]])


# ---------------------------------------------------------------------------
# Sparse matrices: the elimination skips rows with a zero in the pivot column
# ---------------------------------------------------------------------------


def _laplace(m):
    # Full cofactor expansion along the first row; shares no code with det.
    if not m:
        return 1
    rest = m[1:]
    return sum(
        (-1) ** j * v * _laplace([row[:j] + row[j + 1:] for row in rest])
        for j, v in enumerate(m[0])
        if v
    )


def _sparse_matrix(rng, k):
    # About 70% zeros.
    return [[rng.randint(-9, 9) if rng.random() < 0.3 else 0 for _ in range(k)] for _ in range(k)]


def _longest_skip_before_a_swapped_in_pivot(m):
    """Eager elimination over Fractions with the same pivot rule as ``det``:
    the most steps in a row that a row swapped in as pivot went untouched,
    0 when no pivot is swapped in."""
    a = [[Fraction(v) for v in row] for row in m]
    level = [0] * len(a)  # one past the step that last updated each row
    longest = 0
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            break
        if pivot != c:
            longest = max(longest, c - level[pivot])
            a[c], a[pivot] = a[pivot], a[c]
            level[c], level[pivot] = level[pivot], level[c]
        for r in range(c + 1, len(a)):
            if a[r][c]:
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
                level[r] = c + 1
    return longest


def test_skipped_row_swapped_in_as_pivot():
    # Row 4 has zeros in columns 0..2, so steps 0..2 skip it; step 3 finds a zero
    # on the diagonal and swaps it in, rescaled by p_2 = 25.  The row it displaces
    # was last updated at step 0 and is rescaled at step 4.
    m = [
        [2, 1, 0, 0, 0],
        [1, 3, 0, 0, 0],
        [0, 0, 5, 0, 1],
        [2, 1, 0, 0, 7],
        [0, 0, 0, 3, 1],
    ]
    assert _longest_skip_before_a_swapped_in_pivot(m) == 3
    assert det(m) == _laplace(m) == -525
    d, inv = invert(m)
    assert d == -525
    assert _matmul(inv, m) == [list(row) for row in _identity(5)]


def test_sparse_det_matches_laplace_and_inverse_roundtrips():
    rng = random.Random(29)
    singular = swapped_in_late = 0
    for _ in range(1000):
        k = rng.randint(1, 7)
        m = _sparse_matrix(rng, k)
        want = _laplace(m)
        assert det(m) == want, m
        if want == 0:
            singular += 1
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                invert(m)
            continue
        d, inv = invert(m)
        assert d == want, m
        assert _matmul(inv, m) == [list(row) for row in _identity(k)], m
        assert _matmul(m, inv) == [list(row) for row in _identity(k)], m
        swapped_in_late += _longest_skip_before_a_swapped_in_pivot(m) >= 2
    # The sample reaches both the singular exits and the lazy rescale of a pivot row.
    assert singular >= 100 and swapped_in_late >= 20, (singular, swapped_in_late)


@pytest.mark.parametrize("n", range(1, 11))
def test_kasteleyn_inverse_and_determinant(n):
    board = build_diamond(n)
    k = kasteleyn_matrix(board)
    assert abs(det(k)) == 2 ** (n * (n + 1) // 2)
    d, inv = invert(k)
    assert d == det(k)
    # K has at most four nonzeros per row: multiply over them only.
    for i, row in enumerate(k):
        support = [(j, v) for j, v in enumerate(row) if v]
        for c in range(len(k)):
            assert sum(v * inv[j][c] for j, v in support) == (i == c), (n, i, c)
