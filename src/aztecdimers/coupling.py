"""The coupling function of the Aztec diamond and its pattern probabilities.

The coupling function ``c(v, w)`` at a white vertex ``v = (x, y)`` and a
black vertex ``w = (x', y')`` of the order-``n`` diamond is

    2^{-n} * sum_{j=0}^{x-1}  Kr(j, n, y-1) * Kr(y'-1, n-1, n-(j+x'-x))

for ``x' > x`` and

    -2^{-n} * sum_{j=x}^{n}   Kr(j, n, y-1) * Kr(y'-1, n-1, n-(j+x'-x))

for ``x' <= x``, with ``Kr`` the Krawtchouk coefficient (out-of-range
indices contribute 0).  The probability that a random tiling contains a
given pattern with whites ``v_1..v_k`` and blacks ``w_1..w_k`` is
``|det[c(v_i, w_j)]|``.  Every value is an integer multiple of ``2^{-n}``,
so sums stay in integers and a value is returned as a :class:`DyadicRational`.

Both branches sum terms that depend on ``y``, ``y'`` and ``x' - x`` only,
over ``j`` below ``x`` or from ``x`` on.  So one list of running sums
(:func:`_row_sums`) serves a whole row of ``x``.  Its terms read one white
row ``Kr(., n, y-1)`` and one black column ``Kr(y'-1, n-1, .)``, each built
by :mod:`~aztecdimers.combinatorics` in ``O(n)`` big-integer operations.
So an entry costs ``O(n)`` operations and ``O(n)`` live integers, and a
sweep that keeps its row fixed while ``x`` varies costs ``O(1)`` per
further entry.

The signed inverse-Kasteleyn entry is exposed as :func:`coupling_signed`:
``(-1)^{d0+d1+w1}`` times ``c(v, w)`` for every hole offset.  Both
functions evaluate the same formula in the canonical diagonal labelling of
:mod:`aztecdimers.lattice`, which the ``verify`` suite and the tests hold
against the exact inverse-Kasteleyn oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .combinatorics import krawtchouk_column, krawtchouk_row
from .exactlinalg import IntMatrix, det
from .lattice import Color, Pattern, Vertex, build_diamond, check_diamond_pair, validate_pattern


@dataclass(frozen=True)
class DyadicRational:
    """Exact ``numerator / 2^scale`` in lowest terms: the numerator is odd
    whenever ``scale > 0``, and zero has scale 0."""

    numerator: int
    scale: int

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"negative scale {self.scale}")
        num, scale = self.numerator, self.scale
        shift = min(scale, (num & -num).bit_length() - 1) if num else scale
        object.__setattr__(self, "numerator", num >> shift)
        object.__setattr__(self, "scale", scale - shift)

    def to_fraction(self) -> Fraction:
        return Fraction(self.numerator, 2**self.scale)

    def __str__(self) -> str:
        return f"{self.numerator} / 2^{self.scale}"


@lru_cache(maxsize=1)
def _row_sums(n: int, y: int, y2: int, shift: int) -> tuple[int, ...]:
    """The branch sums, sign included, of every white column ``x`` at once.

    With ``y``, ``y2`` and ``shift = x' - x`` fixed, the formula's terms
    ``t_j = Kr(j, n, y-1) * Kr(y2-1, n-1, n-j-shift)`` do not depend on
    ``x``, so one list of ``n + 1`` terms serves the whole row: entry ``x``
    is ``sum_{j<x} t_j`` for ``shift > 0`` and ``-sum_{j>=x} t_j``
    otherwise.  The one-row cache is what makes a sweep along ``x`` cost
    ``O(n)`` per row instead of ``O(n)`` per entry.
    """
    white_row = krawtchouk_row(n, y - 1)
    black_column = krawtchouk_column(y2 - 1, n - 1)
    terms = (
        white_row[j] * black_column[n - j - shift] if 0 < j + shift <= n else 0
        for j in range(n + 1)
    )
    sums = list(accumulate(terms, initial=0))
    if shift > 0:
        return tuple(sums)
    total = sums[-1]
    return tuple(s - total for s in sums)


def _entry(n: int, v: Vertex, w: Vertex, sign: int) -> DyadicRational:
    """``sign * 2^{-n}`` times the branch sum at white ``v`` and black ``w``."""
    check_diamond_pair(n, v, w)
    return DyadicRational(sign * _row_sums(n, v.y, w.y, w.x - v.x)[v.x], n)


def coupling(n: int, v: Vertex, w: Vertex) -> DyadicRational:
    """The coupling function ``c(v, w)`` on the order-``n`` diamond.

    Its absolute value is the probability weight entering pattern
    determinants; for the signed inverse-Kasteleyn entry use
    :func:`coupling_signed`.
    """
    return _entry(n, v, w, 1)


def coupling_signed(n: int, w0: int, d0: int, w1: int, d1: int) -> DyadicRational:
    """Signed inverse-Kasteleyn entry for the black vertex ``(w0+d0, w1)``
    and white vertex ``(w0, w1+d1)``: ``(-1)^{d0+d1+w1}`` times their
    coupling value, for offsets of either sign.
    """
    sign = -1 if (d0 + d1 + w1) % 2 else 1
    return _entry(n, Vertex(Color.WHITE, w0, w1 + d1), Vertex(Color.BLACK, w0 + d0, w1), sign)


def pattern_probability(n: int, pattern: Pattern) -> Fraction:
    """Probability of a pattern in a uniform tiling: ``|det[c(v_i, w_j)]|``.

    The pattern is validated by the diamond's membership test, at a cost
    that does not grow with ``n``.  Exact: values are scaled to a common
    power of two and the determinant is taken over integers.
    """
    whites, blacks = validate_pattern(build_diamond(n), pattern)
    k = len(whites)
    entries = []
    for v in whites:
        row = []
        for w in blacks:
            c = coupling(n, v, w)
            row.append(c.numerator << (n - c.scale))
        entries.append(tuple(row))
    d = det(IntMatrix(tuple(entries)))
    return Fraction(abs(d), 2 ** (n * k))

