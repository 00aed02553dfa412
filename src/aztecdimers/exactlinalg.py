"""Exact linear algebra over arbitrary-precision integers and rationals.

Python's ``int`` and :class:`fractions.Fraction` supply the scalar types;
this module adds the dense matrix operations that pattern probabilities and
the oracles need: integer determinants, minors and whole inverses.  A matrix
is plain data, a sequence of equal-length int rows (lists and tuples alike);
``minor`` and ``invert`` return tuples of row tuples.  Both eliminations,
determinant and inverse, run through one fraction-free (Bareiss) core over
integer rows, so intermediate values stay integers.

Matrices at play are small (a desk-scale Kasteleyn matrix is at most a few
dozen rows), so everything is dense and single-threaded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


class ShapeError(ValueError):
    """Operation applied to a matrix of the wrong shape."""


class SingularMatrixError(ZeroDivisionError):
    """Inverse of a singular matrix requested."""


#: A matrix is a sequence of equal-length rows of ints, lists and tuples alike.
Matrix = Sequence[Sequence[int]]


def _order(m: Matrix) -> int:
    """The order of a square ``m``; raises :class:`ShapeError` on ragged or non-square rows."""
    k = len(m)
    if any(len(row) != k for row in m):
        raise ShapeError(f"not a square matrix: {k} rows of lengths {sorted({len(r) for r in m})}")
    return k


def _bareiss(a: list[list[int]], jordan: bool) -> int:
    """Fraction-free elimination of the square left block ``K`` of ``a``, in place.

    Column by column, each pivot row clears the rows below it (and, with
    ``jordan``, the rows above it too) by Bareiss' exact update
    ``a[r][j] = (a[r][j]*p - a[r][c]*a[c][j]) // prev`` on every column to
    the right of the pivot.  Returns ``det K``, which is 0 when ``K`` is
    singular.  After a Gauss-Jordan run every diagonal entry of ``K``'s
    block equals the last pivot ``p``, the rest of the block is zero, and
    each column ``b`` to its right has become ``p * K^{-1} b``.
    """
    k = len(a)
    sign = 1
    prev = 1
    for c in range(k):
        pivot = next((r for r in range(c, k) if a[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            sign = -sign
        p, tail = a[c][c], a[c][c + 1:]
        for r in range(0 if jordan else c + 1, k):
            if r == c:
                continue
            other, f = a[r], a[r][c]
            # Exact by the Bareiss identity; // never truncates here.
            other[c + 1:] = [(x * p - f * y) // prev for x, y in zip(other[c + 1:], tail)]
            other[c] = 0
            if r < c:
                other[r] = other[r] * p // prev
        prev = p
    return sign * prev


def det(m: Matrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    The 0x0 determinant is 1 (empty product).
    """
    _order(m)
    return _bareiss([list(row) for row in m], jordan=False)


def minor(m: Matrix, drop_rows: Sequence[int], drop_cols: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Submatrix of a square ``m`` with the listed rows and columns deleted, order preserved."""
    k = _order(m)
    if len(drop_rows) != len(drop_cols):
        raise ShapeError("must delete as many rows as columns")
    for name, idxs in (("row", drop_rows), ("column", drop_cols)):
        if len(set(idxs)) != len(idxs):
            raise IndexError(f"duplicate {name} index in {list(idxs)}")
        if any(not 0 <= i < k for i in idxs):
            raise IndexError(f"{name} index out of range in {list(idxs)}")
    rset, cset = set(drop_rows), set(drop_cols)
    return tuple(
        tuple(v for j, v in enumerate(row) if j not in cset)
        for i, row in enumerate(m)
        if i not in rset
    )


def invert(m: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Full inverse by fraction-free Gauss-Jordan elimination on ``[m | I]``."""
    k = _order(m)
    a = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(m)]
    if _bareiss(a, jordan=True) == 0:
        raise SingularMatrixError("matrix is singular")
    return tuple(tuple(Fraction(v, row[i]) for v in row[k:]) for i, row in enumerate(a))

