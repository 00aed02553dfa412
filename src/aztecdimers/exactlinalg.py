"""Exact linear algebra over arbitrary-precision integers and rationals.

Python's ``int`` and :class:`fractions.Fraction` supply the scalar types;
this module adds the matrix operations that pattern probabilities and the
oracles need: integer determinants and whole inverses.  A matrix is plain
data, a sequence of equal-length int rows (lists and tuples alike).  Both
operations run through one forward fraction-free (Bareiss) elimination over
integer rows, so intermediate values stay integers; ``invert`` finishes by
integer back substitution and returns the determinant with the inverse, as
:class:`~fractions.Fraction` entries that it alone imports, once per call.

Rows are stored dense, but each elimination step touches only the rows with
a nonzero in its pivot column.  A Kasteleyn matrix has at most four nonzeros
per row and little fill-in, so most rows are skipped at most steps.
Everything is single-threaded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from fractions import Fraction

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


def _bareiss(a: list[list[int]]) -> int:
    """Forward fraction-free elimination of the square left block ``K`` of ``a``, in place.

    Returns ``det K``, which is 0 when ``K`` is singular.  Otherwise ``a``
    ends as ``[U | Y]``, an integer combination of the rows of the input,
    with ``U`` upper triangular and the pivots ``p_0 .. p_{k-1}`` on its
    diagonal; ``p_{k-1} = +-det K``, the sign counting the row swaps.

    Step ``c`` takes as pivot ``p_c`` the first row from ``c`` on with a
    nonzero in column ``c`` (and ``p_{-1} = 1``).  Eager Bareiss would
    update every row below it by ``x -> (x*p_c - f*y) // p_{c-1}``, with
    ``f`` the row's column-``c`` entry and ``y`` the pivot row.  On a row
    with ``f = 0`` that is the bare rescale ``x*p_c // p_{c-1}``, so such a
    row is skipped.  A row last updated at step ``t - 1`` (never, if
    ``t = 0``) and skipped at steps ``t .. c-1`` thus holds its eager values
    divided by the product of the skipped scalings ``p_i / p_{i-1}``, which
    telescopes to ``p_{c-1} / p_{t-1}``.  It is brought up to date once, when
    next touched: updated at step ``c``, it takes ``(x*p_c - f*y) // p_{t-1}``,
    the rescale folded into the update; swapped in as pivot, it first takes
    ``x * p_{c-1} // p_{t-1}``.  Each division is exact, because its result
    is the eager value, an integer minor of the input (Sylvester's
    identity).  ``divisor[r]`` holds row ``r``'s ``p_{t-1}``.
    """
    k = len(a)
    sign = 1
    prev = 1
    divisor = [1] * k
    for c in range(k):
        rows = [r for r in range(c, k) if a[r][c] != 0]
        if not rows:
            return 0
        pivot = rows[0]
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            divisor[c], divisor[pivot] = divisor[pivot], divisor[c]
            sign = -sign
        pivot_row = a[c]
        if divisor[c] != prev:
            pivot_row[c:] = [x * prev // divisor[c] for x in pivot_row[c:]]
        p, tail = pivot_row[c], pivot_row[c + 1:]
        for r in rows[1:]:
            other, f, d = a[r], a[r][c], divisor[r]
            # Exact by the Bareiss identity; // never truncates here.
            other[c + 1:] = [(x * p - f * y) // d for x, y in zip(other[c + 1:], tail)]
            other[c] = 0
            divisor[r] = p
        prev = p
    return sign * prev


def det(m: Matrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    The 0x0 determinant is 1 (empty product).
    """
    _order(m)
    return _bareiss([list(row) for row in m])


def invert(m: Matrix) -> tuple[int, tuple[tuple[Fraction, ...], ...]]:
    """``(det m, m^{-1})``: forward fraction-free elimination of ``[m | I]``,
    then back substitution; the inverse is a tuple of row tuples.

    The forward pass returns ``d = det m`` and leaves ``[U | Y]``, an integer
    combination of the rows of ``[m | I]``, so ``U m^{-1} = Y``.  The rows
    ``x_r`` of ``d m^{-1} = adj(m)`` are integers, so back substitution over
    the nonzeros of ``U`` stays in integers and each division is exact:
    ``x_r = (d*y_r - sum_{j>r, U[r][j] != 0} U[r][j]*x_j) // U[r][r]``.
    Each entry is returned as ``Fraction(x, d)``, alongside ``d`` itself.
    """
    from fractions import Fraction
    k = _order(m)
    a = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(m)]
    d = _bareiss(a)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    x: list[list[int]] = [[]] * k
    for r in reversed(range(k)):
        row = a[r]
        acc = [d * y for y in row[k:]]
        for j in range(r + 1, k):
            u = row[j]
            if u:
                acc = [s - u * t for s, t in zip(acc, x[j])]
        x[r] = [s // row[r] for s in acc]
    return d, tuple(tuple(Fraction(v, d) for v in xr) for xr in x)
