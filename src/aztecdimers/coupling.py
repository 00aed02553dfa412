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
so sums stay in integers: a lone value is returned as a :class:`DyadicRational`,
while a row and the pattern determinant use the numerators over ``2^n`` as they
are, and :func:`lowest_terms` is the one rule that reduces such a numerator.

Both branches sum terms that depend on ``y``, ``y'`` and ``x' - x`` only,
over ``j`` below ``x`` or from ``x`` on.  So one range kernel with no cache
(:func:`_branch_sums`) serves any run of consecutive ``x`` in one pass over
its branch's terms, which read one white row ``Kr(., n, y-1)`` and one black
column ``Kr(y'-1, n-1, .)``, each built by :mod:`~aztecdimers.combinatorics`
in ``O(n)`` big-integer operations.  The reflections of those lines make
both branches forward prefix sums of ``t_j = Kr(j, n, y-1) * Kr(y'-1, n-1,
j+o)``: for ``x' > x``, ``o = x'-x-1`` and ``c(v, w)`` is ``(-1)^{y'-1}
2^{-n} sum_{j<x} t_j``; for ``x' <= x``, ``o = x-x'`` and it is ``(-1)^y 2^{-n}
sum_{j<=n-x} t_j``.  A lone entry is a run of one ``x`` and sums only its own
``x`` or ``n+1-x`` terms; a heatmap row is one call.

The signed inverse-Kasteleyn entry is :func:`coupling_signed`, ``(-1)^{d0+d1+w1}``
times ``c(v, w)`` for every hole offset, and a row of them, as numerators over
``2^n``, :func:`coupling_signed_row`.  The kernel returns its prefix sums
unsigned, and each caller applies one sign: a lone ``c(v, w)`` its branch
sign, and a signed row the product of both, ``(-1)^{d0+d1+1}`` for ``d0 > 0``
and ``(-1)^{d0}`` otherwise.
All evaluate the same formula in the canonical diagonal labelling of
:mod:`aztecdimers.lattice`, which the ``verify`` suite and the tests hold
against the exact inverse-Kasteleyn oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from operator import mul
from typing import Sequence

from .combinatorics import krawtchouk_column, krawtchouk_row
from .exactlinalg import det
from .lattice import Edge, Vertex, black, build_diamond, check_diamond_pair, validate_pattern, white


def lowest_terms(num: int, scale: int) -> tuple[int, int]:
    """``num / 2^scale`` as ``(numerator, scale)`` in lowest terms: the numerator is
    odd whenever the scale is positive, and zero has scale 0."""
    shift = min(scale, (num & -num).bit_length() - 1) if num else scale
    return num >> shift, scale - shift


@dataclass(frozen=True)
class DyadicRational:
    """Exact ``numerator / 2^scale`` in lowest terms: the numerator is odd
    whenever ``scale > 0``, and zero has scale 0."""

    numerator: int
    scale: int

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"negative scale {self.scale}")
        num, scale = lowest_terms(self.numerator, self.scale)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "scale", scale)

    def to_fraction(self) -> Fraction:
        return Fraction(self.numerator, 2**self.scale)

    def __str__(self) -> str:
        return f"{self.numerator} / 2^{self.scale}"


def _branch_sums(n: int, y: int, y2: int, shift: int, xs: range) -> list[int]:
    """The branch sums at each white column ``x`` of ``xs``, without the
    branch sign, which the caller applies.

    With ``y``, ``y2`` and ``shift = x' - x`` fixed, the terms
    ``Kr(j, n, y-1) * Kr(y2-1, n-1, n-j-shift)`` do not depend on ``x``.  The
    column reflection ``Kr(a, b, b-c) = (-1)^a Kr(a, b, c)`` (for ``shift > 0``)
    or the row reflection ``Kr(b-a, b, c) = (-1)^c Kr(a, b, c)`` (for
    ``shift <= 0``, with ``j`` read as ``n - j``) turns both branches into
    forward prefix sums of ``t_j = row[j] * column[j + offset]``:

    * ``shift > 0``: ``sum_{j<x} t_j`` with ``offset = shift-1``, the branch
      sum times ``(-1)^(y2-1)``;
    * ``shift <= 0``: ``sum_{j<=n-x} t_j`` with ``offset = -shift``, the
      branch sum times ``(-1)^y``.

    The terms before the range's first prefix are summed directly, so a lone
    entry builds no list of partial sums.  ``xs`` is a nonempty step-1 range
    of pairs on the diamond, so every such term exists.
    """
    row, column = krawtchouk_row(n, y - 1), krawtchouk_column(y2 - 1, n - 1)
    if shift > 0:
        offset, lo, hi = shift - 1, xs[0], xs[-1]
    else:
        offset, lo, hi = -shift, n + 1 - xs[-1], n + 1 - xs[0]
    terms = map(mul, row, column[offset:])
    head = sum(islice(terms, lo))
    sums = list(accumulate(islice(terms, hi - lo), initial=head))
    if shift <= 0:
        sums.reverse()
    return sums


def _coupling_sum(n: int, v: Vertex, w: Vertex) -> int:
    """``c(v, w)`` times ``2^n``: the one branch sum of a lone entry, for a
    white ``v`` and a black ``w`` the caller has put on the diamond."""
    shift = w.x - v.x
    total = _branch_sums(n, v.y, w.y, shift, range(v.x, v.x + 1))[0]
    return -total if (w.y - 1 if shift > 0 else v.y) % 2 else total


def coupling(n: int, v: Vertex, w: Vertex) -> DyadicRational:
    """The coupling function ``c(v, w)`` on the order-``n`` diamond.

    Its absolute value is the probability weight entering pattern
    determinants; for the signed inverse-Kasteleyn entry use
    :func:`coupling_signed`.
    """
    check_diamond_pair(n, v, w)
    return DyadicRational(_coupling_sum(n, v, w), n)


def coupling_signed_row(n: int, w0s: range, d0: int, w1: int, d1: int) -> list[int]:
    """:func:`coupling_signed` at each ``w0`` of a nonempty step-1 range, in one
    kernel call, as integers: entry ``i`` is the value at ``w0s[i]`` times ``2^n``,
    not reduced.  Each color class of the diamond is an x-range times a y-range,
    so the row lies on the diamond when both of its ends do; that is checked on
    integers, and only a failure builds the vertices that word the error."""
    first, last = w0s[0], w0s[-1]
    if not (1 <= first and last <= n and 1 <= first + d0 and last + d0 <= n + 1
            and 1 <= w1 <= n and 1 <= w1 + d1 <= n + 1):
        for w0 in (first, last):
            check_diamond_pair(n, white(w0, w1 + d1), black(w0 + d0, w1))
    sums = _branch_sums(n, w1 + d1, w1, d0, w0s)
    return [-s for s in sums] if (d0 + d1 + 1 if d0 > 0 else d0) % 2 else sums


def coupling_signed(n: int, w0: int, d0: int, w1: int, d1: int) -> DyadicRational:
    """Signed inverse-Kasteleyn entry for the black vertex ``(w0+d0, w1)``
    and white vertex ``(w0, w1+d1)``: ``(-1)^{d0+d1+w1}`` times their
    coupling value, for offsets of either sign.
    """
    return DyadicRational(coupling_signed_row(n, range(w0, w0 + 1), d0, w1, d1)[0], n)


def pattern_probability(n: int, pattern: Sequence[Edge]) -> Fraction:
    """Probability of a pattern in a uniform tiling: ``|det[c(v_i, w_j)]|``.

    The pattern is validated by the diamond's membership test, at a cost
    that does not grow with ``n``; that puts every white and black on the
    diamond, so the entries are not checked again.  Exact: values are scaled
    to a common power of two and the determinant is taken over integers.
    """
    whites, blacks = validate_pattern(build_diamond(n), pattern)
    d = det([[_coupling_sum(n, v, w) for w in blacks] for v in whites])
    return Fraction(abs(d), 2 ** (n * len(whites)))

