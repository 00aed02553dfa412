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
so sums stay in integers: a row is returned as its numerators over ``2^n`` as
they are, and a lone value or a ``k``-domino probability as the :func:`lowest_terms`
pair of its numerator over ``2^n`` or ``2^{nk}``; ``heatmap`` inlines that one
reduction rule per cell.  Importing this module loads neither :mod:`fractions`,
imported by :meth:`Dyadic.to_fraction` alone, nor ``det``, imported by
:func:`pattern_probability` when it runs.

Each branch sums terms ``row[j] * column[j + offset]`` of one white row
``Kr(., n, y-1)`` and one black column ``Kr(y'-1, n-1, .)``, each built by
:mod:`~aztecdimers.combinatorics` in ``O(n)`` big-integer operations; which
terms are summed and the sign depend on ``y``, ``y'`` and ``x' - x`` only.
:func:`_branch_terms` is the one branch rule and :func:`_negated` the one sign
rule, and two evaluators with no cache of their own read them.  Prefix sums
along a row of consecutive ``x`` (:func:`_branch_sums`) serve sweeps: at fixed
offsets, consecutive ``w1`` read consecutive lines, so :func:`line_walk` takes
only the first pair from the cached builders and steps to each next pair by
the one-step identity of :mod:`~aztecdimers.combinatorics`, and
:func:`signed_rows` turns each walked pair into one signed row.  ``heatmap``
reads one such sweep per command and ``verify`` one walk per ``d1``, reused
for every ``d0``.  Scattered direct sums (:func:`_entry`), one per lone value
or pattern entry, read lines built by the cached builders once per value or
pattern.

The signed inverse-Kasteleyn entry at hole offsets ``(w0, d0, w1, d1)`` pairs the
white ``(w0, w1+d1)`` with the black ``(w0+d0, w1)``; its sign is the branch sign
times ``(-1)^{d0+d1+w1}``.  Every other value is read from it:
``c(v, w) = (-1)^{x'-x+y}`` times the signed entry at
``(x, x'-x, y', y-y')``.  That sign is a row sign ``(-1)^{y-x}`` times a column
sign ``(-1)^{x'}``, so a determinant over signed entries has the ``|det|`` of one
over ``c``, as in Kenyon's local statistics over inverse-Kasteleyn entries.
:func:`hole_ranges` gives the hole positions that fit the diamond at fixed offsets.
All evaluate the same formula in the canonical diagonal labelling of
:mod:`aztecdimers.lattice`, which the ``verify`` suite holds to ``K C^T = I`` and
the tests to the exact inverse-Kasteleyn oracle.
"""

from __future__ import annotations

from itertools import accumulate, islice
from operator import mul
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .combinatorics import krawtchouk_column, krawtchouk_row, next_krawtchouk_column, next_krawtchouk_row
from .lattice import Edge, Vertex, black, build_diamond, check_diamond_pair, validate_pattern, white

if TYPE_CHECKING:
    from fractions import Fraction


class Dyadic(NamedTuple):
    """Exact ``numerator / 2^scale``, as :func:`lowest_terms` builds it: equal to, and hashed
    as, the plain pair, and read-only."""

    numerator: int
    scale: int

    def to_fraction(self) -> Fraction:
        import fractions  # only the benchmark and the tests read a Fraction; "from" is slower per call
        return fractions.Fraction(self.numerator, 2**self.scale)


def lowest_terms(num: int, scale: int) -> Dyadic:
    """``num / 2^scale`` in lowest terms: the numerator is odd whenever the scale is positive, and
    zero has scale 0.  A negative scale makes the shift negative, which raises ``ValueError``."""
    shift = min(scale, (num & -num).bit_length() - 1) if num else scale
    return Dyadic(num >> shift, scale - shift)


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


def _branch_sums(row: Sequence[int], column: Sequence[int], shift: int, xs: range) -> list[int]:
    """The branch sums over a built white row ``Kr(., n, y-1)`` and black column ``Kr(y2-1, n-1, .)``
    at each white column ``x`` of a nonempty step-1 range ``xs`` of pairs on the diamond, without
    the branch sign, which the caller applies.

    The terms of :func:`_branch_terms` do not depend on ``x``, and its prefix grows with ``x`` for
    ``shift > 0`` and shrinks otherwise.  So the terms of the range's longest prefix are read once:
    those of its shortest prefix are summed directly, and each later term gives the next sum.
    """
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


def line_walk(n: int, w1s: range, d1: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The white row ``Kr(., n, w1+d1-1)`` and black column ``Kr(w1-1, n-1, .)`` of the signed entries
    at each ``w1`` of a nonempty step-1 range, in order.  Only the first pair comes from the cached
    builders; each later pair is one step of :func:`~aztecdimers.combinatorics.next_krawtchouk_row`
    and :func:`~aztecdimers.combinatorics.next_krawtchouk_column` from the pair before it."""
    c, a = w1s[0] + d1 - 1, w1s[0] - 1
    row, column = krawtchouk_row(n, c), krawtchouk_column(a, n - 1)
    yield row, column
    for k in range(len(w1s) - 1):
        row, column = next_krawtchouk_row(row, c + k), next_krawtchouk_column(column, a + k)
        yield row, column


def signed_rows(lines: Iterable[tuple[Sequence[int], Sequence[int]]], w0s: range, d0: int, d1: int
                ) -> Iterator[list[int]]:
    """For each ``(row, column)`` pair of :func:`line_walk`, the signed entries at each ``w0`` of a
    nonempty step-1 range, as integers: entry ``i`` is the value at ``w0s[i]`` times ``2^n``, not
    reduced.  The pairs are not checked; the sign is taken once."""
    negated = _negated(d0, d1)
    for row, column in lines:
        sums = _branch_sums(row, column, d0, w0s)
        yield [-s for s in sums] if negated else sums


def coupling_signed_rows(n: int, w0s: range, d0: int, w1s: range, d1: int) -> Iterator[list[int]]:
    """:func:`coupling_signed` at each ``(w0, w1)`` of two nonempty step-1 ranges, one row over
    ``w0s`` per ``w1`` in order, each row one kernel call over walked lines: entry ``i`` of a row is
    the value at ``w0s[i]`` times ``2^n``, not reduced.  The four corners are checked before the
    sweep starts, so an off-board sweep raises ``BoardError`` here, not at its first row."""
    for w1 in (w1s[0], w1s[-1]):
        _check_pairs(n, w0s[0], w0s[-1], d0, w1, d1)
    return signed_rows(line_walk(n, w1s, d1), w0s, d0, d1)


def coupling_signed(n: int, w0: int, d0: int, w1: int, d1: int) -> Dyadic:
    """Signed inverse-Kasteleyn entry for the black vertex ``(w0+d0, w1)`` and white vertex
    ``(w0, w1+d1)``: ``(-1)^{d0+d1+w1}`` times their coupling value, for offsets of either sign."""
    _check_pairs(n, w0, w0, d0, w1, d1)
    row, column = krawtchouk_row(n, w1 + d1 - 1), krawtchouk_column(w1 - 1, n - 1)
    return lowest_terms(_entry(row, column, w0, d0, d1), n)


def coupling(n: int, v: Vertex, w: Vertex) -> Dyadic:
    """The coupling function ``c(v, w)`` on the order-``n`` diamond, ``(-1)^{x'-x+y}`` times the
    signed entry; its absolute value is the probability of the domino ``(v, w)``."""
    check_diamond_pair(n, v, w)
    d0 = w.x - v.x
    signed = _entry(krawtchouk_row(n, v.y - 1), krawtchouk_column(w.y - 1, n - 1), v.x, d0, v.y - w.y)
    return lowest_terms(-signed if (d0 + v.y) % 2 else signed, n)


def pattern_probability(n: int, pattern: Sequence[Edge]) -> Dyadic:
    """Probability of a ``k``-domino pattern in a uniform tiling, ``|det[c(v_i, w_j)]|``, as the
    :func:`lowest_terms` pair of an integer over ``2^{nk}``: the determinant is taken exactly over the
    signed entries, which have the same ``|det|``, as integers over ``2^n``.  The pattern is validated
    by the diamond's membership test, at a cost that does not grow with ``n``; then each distinct white
    row and black column is built once, and each entry is one direct sum over them."""
    from .exactlinalg import det  # here, so that commands without a pattern never load it
    whites, blacks = validate_pattern(build_diamond(n), pattern)
    rows = {y: krawtchouk_row(n, y - 1) for y in {v.y for v in whites}}
    columns = {y: krawtchouk_column(y - 1, n - 1) for y in {w.y for w in blacks}}
    d = det([[_entry(rows[v.y], columns[w.y], v.x, w.x - v.x, v.y - w.y) for w in blacks] for v in whites])
    return lowest_terms(abs(d), n * len(whites))
