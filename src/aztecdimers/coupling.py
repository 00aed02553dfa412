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
over ``j`` below ``x`` or from ``x`` on.  So one range kernel with no cache
(:func:`_branch_sums`) serves any run of consecutive ``x`` in one pass over
its branch's terms, which read one white row ``Kr(., n, y-1)`` and one black
column ``Kr(y'-1, n-1, .)``, each built by :mod:`~aztecdimers.combinatorics`
in ``O(n)`` big-integer operations.  A lone entry is a run of one ``x`` and
sums only its own ``x`` or ``n+1-x`` terms; a heatmap row is one call.

The signed inverse-Kasteleyn entry is :func:`coupling_signed`, ``(-1)^{d0+d1+w1}``
times ``c(v, w)`` for every hole offset, and a row of them :func:`coupling_signed_row`.
All evaluate the same formula in the canonical diagonal labelling of
:mod:`aztecdimers.lattice`, which the ``verify`` suite and the tests hold
against the exact inverse-Kasteleyn oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul

from .combinatorics import krawtchouk_column, krawtchouk_row
from .exactlinalg import IntMatrix, det
from .lattice import Pattern, Vertex, black, build_diamond, check_diamond_pair, validate_pattern, white


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


def _branch_sums(n: int, y: int, y2: int, shift: int, xs: range) -> list[int]:
    """The branch sums, sign included, at each white column ``x`` of ``xs``.

    With ``y``, ``y2`` and ``shift = x' - x`` fixed, the terms
    ``t_j = Kr(j, n, y-1) * Kr(y2-1, n-1, n-j-shift)`` do not depend on ``x``:
    entry ``x`` is ``sum_{j<x} t_j`` for ``shift > 0``, accumulated up to the
    last ``x``, and ``-sum_{j>=x} t_j`` otherwise, accumulated from ``j = n``
    down to the first.  ``xs`` is a nonempty step-1 range of pairs on the
    diamond, so every such term exists.
    """
    row, column = krawtchouk_row(n, y - 1), krawtchouk_column(y2 - 1, n - 1)
    first, last = xs[0], xs[-1]
    if shift > 0:
        terms = map(mul, row[:last], column[n + 1 - shift - last:n + 1 - shift][::-1])
        return list(accumulate(terms, initial=0))[first:]
    terms = map(mul, row[first:][::-1], column[-shift:n + 1 - shift - first])
    return [-s for s in list(accumulate(terms, initial=0))[n + 1 - last:][::-1]]


def coupling(n: int, v: Vertex, w: Vertex) -> DyadicRational:
    """The coupling function ``c(v, w)`` on the order-``n`` diamond.

    Its absolute value is the probability weight entering pattern
    determinants; for the signed inverse-Kasteleyn entry use
    :func:`coupling_signed`.
    """
    check_diamond_pair(n, v, w)
    return DyadicRational(_branch_sums(n, v.y, w.y, w.x - v.x, range(v.x, v.x + 1))[0], n)


def coupling_signed_row(n: int, w0s: range, d0: int, w1: int, d1: int) -> list[DyadicRational]:
    """:func:`coupling_signed` at each ``w0`` of a nonempty step-1 range, in one
    kernel call.  Each color class of the diamond is an x-range times a y-range,
    so the row lies on the diamond when both of its ends do."""
    for w0 in {w0s[0], w0s[-1]}:
        check_diamond_pair(n, white(w0, w1 + d1), black(w0 + d0, w1))
    sign = -1 if (d0 + d1 + w1) % 2 else 1
    return [DyadicRational(sign * s, n) for s in _branch_sums(n, w1 + d1, w1, d0, w0s)]


def coupling_signed(n: int, w0: int, d0: int, w1: int, d1: int) -> DyadicRational:
    """Signed inverse-Kasteleyn entry for the black vertex ``(w0+d0, w1)``
    and white vertex ``(w0, w1+d1)``: ``(-1)^{d0+d1+w1}`` times their
    coupling value, for offsets of either sign.
    """
    return coupling_signed_row(n, range(w0, w0 + 1), d0, w1, d1)[0]


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

