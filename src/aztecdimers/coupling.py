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
are; :func:`lowest_terms` reduces a lone value, and ``heatmap`` inlines it per
cell.  Importing this module loads neither :mod:`fractions`, bound by :func:`_fraction`
on first use, nor ``det``, imported by :func:`pattern_probability` when it runs.

Each branch sums terms ``row[j] * column[j + offset]`` of one white row
``Kr(., n, y-1)`` and one black column ``Kr(y'-1, n-1, .)``, each built by
:mod:`~aztecdimers.combinatorics` in ``O(n)`` big-integer operations; which
terms are summed and the sign depend on ``y``, ``y'`` and ``x' - x`` only.
:func:`_branch_terms` is the one branch rule and :func:`_negated` the one sign
rule, and two evaluators with no cache of their own read them: prefix sums
along a row of consecutive ``x`` (:func:`_branch_sums`, one call per heatmap
or ``verify`` row), and scattered direct sums (:func:`_entry`), one per lone
value or pattern entry, over lines built once per value or pattern.

The signed inverse-Kasteleyn entry at hole offsets ``(w0, d0, w1, d1)`` pairs the
white ``(w0, w1+d1)`` with the black ``(w0+d0, w1)``; its sign is the branch sign
times ``(-1)^{d0+d1+w1}``.  Every other value is read from it:
``c(v, w) = (-1)^{x'-x+y}`` times the signed entry at
``(x, x'-x, y', y-y')``.  That sign is a row sign ``(-1)^{y-x}`` times a column
sign ``(-1)^{x'}``, so a determinant over signed entries has the ``|det|`` of one
over ``c``, as in Kenyon's local statistics over inverse-Kasteleyn entries.
:func:`hole_ranges` gives the hole positions that fit the diamond at fixed offsets.
All evaluate the same formula in the canonical diagonal labelling of
:mod:`aztecdimers.lattice`, which the ``verify`` suite and the tests hold
against the exact inverse-Kasteleyn oracle.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .combinatorics import krawtchouk_column, krawtchouk_row
from .lattice import Edge, Vertex, black, build_diamond, check_diamond_pair, validate_pattern, white

if TYPE_CHECKING:
    from fractions import Fraction


def lowest_terms(num: int, scale: int) -> tuple[int, int]:
    """``num / 2^scale`` as ``(numerator, scale)`` in lowest terms: the numerator is
    odd whenever the scale is positive, and zero has scale 0."""
    shift = min(scale, (num & -num).bit_length() - 1) if num else scale
    return num >> shift, scale - shift


def _fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)``; the first call rebinds this name to the class itself."""
    global _fraction
    from fractions import Fraction as _fraction
    return _fraction(numerator, denominator)


class DyadicRational:
    """Exact ``numerator / 2^scale`` in lowest terms: the numerator is odd
    whenever ``scale > 0``, and zero has scale 0.  Read-only, equal by value."""

    __slots__ = ("numerator", "scale")

    def __init__(self, numerator: int, scale: int) -> None:
        if scale < 0:
            raise ValueError(f"negative scale {scale}")
        num, scale = lowest_terms(numerator, scale)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "scale", scale)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{name!r} is read-only: DyadicRational is immutable")
    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return (self.numerator, self.scale) == (other.numerator, other.scale) if same else NotImplemented

    def __hash__(self) -> int:
        return hash((self.numerator, self.scale))

    def __repr__(self) -> str:
        return f"DyadicRational(numerator={self.numerator!r}, scale={self.scale!r})"

    def to_fraction(self) -> Fraction:
        return _fraction(self.numerator, 2**self.scale)

    def __str__(self) -> str:
        return f"{self.numerator} / 2^{self.scale}"


def _branch_terms(row: Sequence[int], column: Sequence[int], x: int, shift: int) -> tuple[Sequence[int], ...]:
    """The built row ``Kr(., n, y-1)`` and column ``Kr(y2-1, n-1, .)`` cut to the factors of the
    branch sum at ``x`` and ``shift = x' - x``, paired term by term and without the branch sign.

    The column reflection ``Kr(a, b, b-c) = (-1)^a Kr(a, b, c)`` (for ``shift > 0``) or the row
    reflection ``Kr(b-a, b, c) = (-1)^c Kr(a, b, c)`` (for ``shift <= 0``, with ``j`` read as
    ``n - j``) turns both branches into forward prefix sums of ``t_j = row[j] * column[j + offset]``:

    * ``shift > 0``: ``sum_{j<x} t_j`` with ``offset = shift-1``, the branch sum times ``(-1)^(y2-1)``;
    * ``shift <= 0``: ``sum_{j<=n-x} t_j`` with ``offset = -shift``, the branch sum times ``(-1)^y``.
    """
    if shift > 0:
        return row[:x], column[shift - 1:]
    return row[:len(row) - x], column[-shift:]


def _negated(d0: int, d1: int) -> bool:
    """Whether the signed entry is minus its reflected sum: the branch sign times ``(-1)^{d0+d1+w1}``."""
    return bool((d0 + d1 + 1 if d0 > 0 else d0) % 2)


def _entry(row: Sequence[int], column: Sequence[int], x: int, d0: int, d1: int) -> int:
    """The signed entry at ``w0 = x`` times ``2^n``: one direct sum over its built row and column."""
    s = sum(map(mul, *_branch_terms(row, column, x, d0)))
    return -s if _negated(d0, d1) else s


def _branch_sums(n: int, y: int, y2: int, shift: int, xs: range) -> list[int]:
    """The branch sums at each white column ``x`` of a nonempty step-1 range ``xs`` of pairs on
    the diamond, without the branch sign, which the caller applies.

    The terms of :func:`_branch_terms` do not depend on ``x``, and its prefix grows with ``x`` for
    ``shift > 0`` and shrinks otherwise.  So the terms of the range's longest prefix are read once:
    those of its shortest prefix are summed directly, and each later term gives the next sum.
    """
    row, column = krawtchouk_row(n, y - 1), krawtchouk_column(y2 - 1, n - 1)
    lines = _branch_terms(row, column, xs[-1] if shift > 0 else xs[0], shift)
    terms = map(mul, *lines)
    sums = list(accumulate(terms, initial=sum(islice(terms, len(lines[0]) - len(xs) + 1))))
    if shift <= 0:
        sums.reverse()
    return sums


def hole_ranges(n: int, d0: int, d1: int) -> tuple[range, range]:
    """The ``w0`` and ``w1`` ranges that put the white ``(w0, w1+d1)`` and the black ``(w0+d0, w1)``
    on the order-``n`` diamond.  Whites fill ``x <= n``, ``y <= n+1`` and blacks ``x <= n+1``,
    ``y <= n``, all from 1, so ``w0`` and ``w1`` are bounded apart and every pair fits."""
    w0s = range(max(1, 1 - d0), min(n, n + 1 - d0) + 1)
    return w0s, range(max(1, 1 - d1), min(n, n + 1 - d1) + 1)


def _check_pairs(n: int, first: int, last: int, d0: int, w1: int, d1: int) -> None:
    """Raise ``BoardError`` unless the pairs at ``w0`` from ``first`` to ``last`` lie on the diamond.
    Each color class is an x-range times a y-range, so they do when both ends do; that is checked
    on integers, and only a failure builds the vertices that word the error."""
    if not (1 <= first and last <= n and 1 <= first + d0 and last + d0 <= n + 1
            and 1 <= w1 <= n and 1 <= w1 + d1 <= n + 1):
        for w0 in (first, last):
            check_diamond_pair(n, white(w0, w1 + d1), black(w0 + d0, w1))


def coupling_signed_row(n: int, w0s: range, d0: int, w1: int, d1: int) -> list[int]:
    """:func:`coupling_signed` at each ``w0`` of a nonempty step-1 range, in one kernel call, as
    integers: entry ``i`` is the value at ``w0s[i]`` times ``2^n``, not reduced."""
    _check_pairs(n, w0s[0], w0s[-1], d0, w1, d1)
    sums = _branch_sums(n, w1 + d1, w1, d0, w0s)
    return [-s for s in sums] if _negated(d0, d1) else sums


def coupling_signed(n: int, w0: int, d0: int, w1: int, d1: int) -> DyadicRational:
    """Signed inverse-Kasteleyn entry for the black vertex ``(w0+d0, w1)`` and white vertex
    ``(w0, w1+d1)``: ``(-1)^{d0+d1+w1}`` times their coupling value, for offsets of either sign."""
    _check_pairs(n, w0, w0, d0, w1, d1)
    row, column = krawtchouk_row(n, w1 + d1 - 1), krawtchouk_column(w1 - 1, n - 1)
    return DyadicRational(_entry(row, column, w0, d0, d1), n)


def coupling(n: int, v: Vertex, w: Vertex) -> DyadicRational:
    """The coupling function ``c(v, w)`` on the order-``n`` diamond, ``(-1)^{x'-x+y}`` times the
    signed entry; its absolute value is the probability of the domino ``(v, w)``."""
    check_diamond_pair(n, v, w)
    d0 = w.x - v.x
    signed = _entry(krawtchouk_row(n, v.y - 1), krawtchouk_column(w.y - 1, n - 1), v.x, d0, v.y - w.y)
    return DyadicRational(-signed if (d0 + v.y) % 2 else signed, n)


def pattern_probability(n: int, pattern: Sequence[Edge]) -> Fraction:
    """Probability of a pattern in a uniform tiling: ``|det[c(v_i, w_j)]|``, taken exactly over the
    signed entries, which have the same ``|det|``, as integers over a common power of two.  The pattern
    is validated by the diamond's membership test, at a cost that does not grow with ``n``; then each
    distinct white row and black column is built once, and each entry is one direct sum over them."""
    from .exactlinalg import det  # here, so that commands without a pattern never load it
    whites, blacks = validate_pattern(build_diamond(n), pattern)
    rows = {y: krawtchouk_row(n, y - 1) for y in {v.y for v in whites}}
    columns = {y: krawtchouk_column(y - 1, n - 1) for y in {w.y for w in blacks}}
    d = det([[_entry(rows[v.y], columns[w.y], v.x, w.x - v.x, v.y - w.y) for w in blacks] for v in whites])
    return _fraction(abs(d), 2 ** (n * len(whites)))
