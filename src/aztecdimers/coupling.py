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
:func:`_branch_cut` is the one branch rule and :func:`_negated` the one sign
rule, and two evaluators with no cache of their own read them, each with one
rule.  Sweeps and lone values read whole lines and sum from the near end.
A sweep covers every hole position of its offsets (:func:`hole_ranges`).
Along its ``w0`` range the sums are the running sums of one row-by-column
product (:func:`_branch_sums`), and its consecutive ``w1`` read consecutive
lines, so :func:`line_walk` takes only the first pair from the cached builders
and steps to each next pair by the one-step identity of
:mod:`~aztecdimers.combinatorics`; :func:`signed_rows` turns each walked pair
into one signed row.  ``heatmap`` reads one sweep per command and ``verify``
one walk per ``d1``, reused for every ``d0``.  A lone value
(:func:`coupling_signed`) is one such sum over its whole row and column from
the caches, so the thousands of lone values an oracle comparison reads at one
small order build each line once.  Pattern entries (:func:`_entry`) read prefix
lines built by :func:`_lines` once per pattern, and each is summed from the
nearer end of its lines.

A branch is ``sum_{j<stop} row[j] * column[j+m]``, ``m >= 0``, over the row
``Kr(., n, c)`` and the column ``Kr(a, n-1, .)``, whose polynomial extension in
``t`` is ``f(t) = [x^a] (1-x)^t (1+x)^{n-1-t}``, read as a power series.  With
``d = a - c`` (that is ``-d1``) the full sum over the extended column is closed:

    sum_{j=0}^{n} row[j] * f(j+m) = 2^n [x^d] (1-x)^m (1+x)^{-1-m} = (-1)^d 2^n D(m, d),

with ``D(m, d) = sum_i C(m, i) C(d, i) 2^i`` the Delannoy number, and 0 for
``d < 0``.  Proof: ``sum_j Kr(j, n, c) u^j = (1-u)^c (1+u)^{n-c}``, which at
``u = (1-x)/(1+x)`` is ``2^n x^c (1+x)^{-n}``; ``f(j+m)`` is ``[x^a]`` of
``(1-x)^m (1+x)^{n-1-m} u^j``; so the sum is ``[x^a]`` of their product.
Read with ``j = n-i``, by the reflections ``row[n-i] = (-1)^c row[i]`` and
``f(n-1-t) = (-1)^a f(t)``, its terms from ``stop`` on sum to ``(-1)^d
sum_{i<=n-stop} row[i] f(i-m-1)``.  So the branch is also one sum from the far
end, ``(-1)^d (2^n D(m, d) - sum_{i<=n-stop} row[i] f(i-m-1))``, over a row
prefix and the column extended below 0 by ``f(-1) = sum_{i<=a} C(n, i)``, a
prefix sum of one binomial row cached per order, and ``m`` more values of the
column recurrence ``(b-t) f(t+1) = (b-2a) f(t) - t f(t-1)``, ``b = n-1``, run
down once per column (:func:`_extended_column`).  So every pattern entry sums
``min(x, n+1-x)`` terms, and :func:`_lines` builds each line as a prefix only as
long as its pattern's entries read it.

A pattern can also be read transposed.  The signed entry at ``(x, x'-x, y',
y-y')`` equals the one at ``(y', y-y', x, x'-x)``, so the transposed pattern,
with whites ``(y', x')`` and blacks ``(y, x)``, has the transposed matrix, whose
rows are indexed by the blacks' ``x'`` and columns by the whites' ``x``.
:func:`pattern_probability` reads the orientation whose white rows lie nearer
the diamond's edge, by the sum of ``min(x, n+1-x)`` over them, so a pattern near
any edge sums few terms.

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

from functools import lru_cache
from itertools import accumulate
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


def _branch_cut(size: int, x: int, shift: int) -> tuple[int, int]:
    """``(m, count)``: over the built row ``Kr(., n, y-1)`` of ``size = n+1`` entries and the column
    ``Kr(y2-1, n-1, .)``, the branch sum at ``x`` and ``shift = x' - x``, without the branch sign, is
    ``sum_{j<count} row[j] * column[j+m]``, with column entries past its end read as 0.

    The column reflection ``Kr(a, b, b-c) = (-1)^a Kr(a, b, c)`` (for ``shift > 0``) or the row
    reflection ``Kr(b-a, b, c) = (-1)^c Kr(a, b, c)`` (for ``shift <= 0``, with ``j`` read as
    ``n - j``) turns both branches into forward prefix sums of ``t_j = row[j] * column[j + m]``:

    * ``shift > 0``: ``sum_{j<x} t_j`` with ``m = shift-1``, the branch sum times ``(-1)^(y2-1)``;
    * ``shift <= 0``: ``sum_{j<=n-x} t_j`` with ``m = -shift``, the branch sum times ``(-1)^y``.
    """
    if shift > 0:
        return shift - 1, x
    return -shift, size - x


def _negated(d0: int, d1: int) -> bool:
    """Whether the signed entry is minus its reflected sum: the branch sign times ``(-1)^{d0+d1+w1}``."""
    return bool((d0 + d1 + 1 if d0 > 0 else d0) % 2)


@lru_cache(maxsize=4)
def _binomial_prefix_sums(n: int) -> tuple[int, ...]:
    """``sum_{i<=a} C(n, i)`` for ``a = 0..n``: the extended column's value ``f(-1)`` at each ``a``."""
    terms, c = [], 1
    for i in range(n + 1):
        terms.append(c)
        c = c * (n - i) // (i + 1)
    return tuple(accumulate(terms))


@lru_cache(maxsize=256)
def _delannoy(m: int, d: int) -> int:
    """The Delannoy number ``D(m, d) = sum_i C(m, i) C(d, i) 2^i``, one term from the next; 0 for ``d < 0``."""
    full = term = int(d >= 0)
    for i in range(min(d, m)):
        term = 2 * term * (m - i) * (d - i) // ((i + 1) * (i + 1))
        full += term
    return full


def _extended_column(n: int, a: int, below: int, size: int) -> list[int]:
    """``f(-below), ..., f(size-1)`` of the column ``Kr(a, n-1, .)`` extended to all ``t``: a built prefix,
    and below it the column recurrence run down from ``f(0)`` and ``f(-1)``, each division exact."""
    column, b = krawtchouk_column(a, n - 1, size), n - 1
    values = [_binomial_prefix_sums(n)[a], column[0]]  # f(-1), f(0); each step puts f(t-1) in front
    for t in range(-1, -below, -1):
        values.insert(0, ((b - 2 * a) * values[0] - (b - t) * values[1]) // t)
    return values[-1 - below:-1] + list(column)


def _lines(n: int, whites: Sequence[tuple[int, int]], blacks: Sequence[tuple[int, int]]) -> tuple[list, list]:
    """Each white ``(x, y)`` as ``(x, y-1, row)`` and black ``(x', y')`` as ``(x', y'-1, column, below)``,
    :func:`_entry`'s arguments: the line its entries read, the column from ``f(-below)`` on.  Each
    distinct line is built once, as a prefix only as long as its entries read it."""
    lengths: dict[int, int] = {}
    for x, y in whites:  # each sum reads min(x, n+1-x) entries of its row
        lengths[y] = max(lengths.get(y, 0), min(x, n + 1 - x))
    rows = {y: krawtchouk_row(n, y - 1, size) for y, size in lengths.items()}
    # Near sums read a column to x'-1 (whites left of the middle) or n+1-x' (right); far ones to -d0 or d0-1.
    xs = [x for x, _ in whites]
    left, right = 2 * min(xs, default=n + 1) <= n + 1, 2 * max(xs, default=0) >= n + 1
    nearest = min([x for x in xs if 2 * x > n + 1], default=n + 2)
    farthest = max([x for x in xs if 2 * x < n + 1], default=0)
    needs: dict[int, tuple[int, int]] = {}
    for x, y in blacks:
        below, size = needs.get(y, (0, 1))
        needs[y] = (max(below, x - nearest, 1 + farthest - x),
                    max(size, x - 1 if left else 1, n + 1 - x if right else 1))
    columns = {y: (_extended_column(n, y - 1, *need), need[0]) for y, need in needs.items()}
    return [(x, y - 1, rows[y]) for x, y in whites], [(x, y - 1, *columns[y]) for x, y in blacks]


def _entry(n: int, x: int, c: int, row: Sequence[int], x2: int, a: int, column: Sequence[int], below: int) -> int:
    """The signed entry between a white and a black of :func:`_lines`, times ``2^n``: the branch sum of
    :func:`_branch_cut`, or, where fewer terms, ``(-1)^d (2^n D(m, d) - sum_{i<=n-stop} row[i] f(i-m-1))``."""
    d0, d = x2 - x, a - c
    m, stop = _branch_cut(n + 1, x, d0)
    if 2 * stop > n + 1:
        s = (_delannoy(m, d) << n) - sum(map(mul, row[:n + 1 - stop], column[below - m - 1:]))
        return -s if _negated(d0, -d) ^ d % 2 else s
    s = sum(map(mul, row[:stop], column[below + m:]))
    return -s if _negated(d0, -d) else s


def _branch_sums(row: Sequence[int], column: Sequence[int], shift: int) -> list[int]:
    """The branch sums over a built white row ``Kr(., n, y-1)`` and black column ``Kr(y2-1, n-1, .)``
    at each white column ``x`` of the ``w0`` range of :func:`hole_ranges` at ``d0 = shift``, in order,
    without the branch sign, which the caller applies.

    The terms of :func:`_branch_cut` do not depend on ``x``, and its prefix grows with ``x`` for
    ``shift > 0`` and shrinks otherwise, so the sums are the running sums of those terms, reversed
    for ``shift <= 0``.  The column from ``m`` on has one entry per ``x``, so the products stop there.
    """
    sums = list(accumulate(map(mul, row, column[shift - 1 if shift > 0 else -shift:])))
    if shift <= 0:
        sums.reverse()
    return sums


def hole_ranges(n: int, d0: int, d1: int) -> tuple[range, range]:
    """The ``w0`` and ``w1`` ranges that put the white ``(w0, w1+d1)`` and the black ``(w0+d0, w1)``
    on the order-``n`` diamond.  Whites fill ``x <= n``, ``y <= n+1`` and blacks ``x <= n+1``,
    ``y <= n``, all from 1, so ``w0`` and ``w1`` are bounded apart and every pair fits."""
    w0s = range(max(1, 1 - d0), min(n, n + 1 - d0) + 1)
    return w0s, range(max(1, 1 - d1), min(n, n + 1 - d1) + 1)


def line_walk(n: int, d1: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The white row ``Kr(., n, w1+d1-1)`` and black column ``Kr(w1-1, n-1, .)`` of the signed entries
    at each ``w1`` of the :func:`hole_ranges` at ``d1``, a nonempty range, in order.  Only the first
    pair comes from the cached builders; each later pair is one step of
    :func:`~aztecdimers.combinatorics.next_krawtchouk_row` and
    :func:`~aztecdimers.combinatorics.next_krawtchouk_column` from the pair before it."""
    w1s = hole_ranges(n, 0, d1)[1]
    c, a = w1s[0] + d1 - 1, w1s[0] - 1
    row, column = krawtchouk_row(n, c), krawtchouk_column(a, n - 1)
    yield row, column
    for k in range(len(w1s) - 1):
        row, column = next_krawtchouk_row(row, c + k), next_krawtchouk_column(column, a + k)
        yield row, column


def signed_rows(lines: Iterable[tuple[Sequence[int], Sequence[int]]], d0: int, d1: int) -> Iterator[list[int]]:
    """For each ``(row, column)`` pair of :func:`line_walk`, the signed entries at each ``w0`` of the
    :func:`hole_ranges` at ``d0``, as integers: entry ``i`` is the value at the ``i``-th ``w0`` times
    ``2^n``, not reduced.  The sign is taken once."""
    negated = _negated(d0, d1)
    for row, column in lines:
        sums = _branch_sums(row, column, d0)
        yield [-s for s in sums] if negated else sums


def coupling_signed_rows(n: int, d0: int, d1: int) -> Iterator[list[int]]:
    """:func:`coupling_signed` at every hole position of offsets that fit the diamond, :func:`hole_ranges`:
    one row over its ``w0`` range per ``w1`` of its ``w1`` range, in order, each row one kernel call over
    walked lines.  Entry ``i`` of a row is the value at the ``i``-th ``w0`` times ``2^n``, not reduced.
    Every position of the ranges is on the diamond, so nothing is checked."""
    return signed_rows(line_walk(n, d1), d0, d1)


def coupling_signed(n: int, w0: int, d0: int, w1: int, d1: int) -> Dyadic:
    """Signed inverse-Kasteleyn entry for the black vertex ``(w0+d0, w1)`` and white vertex
    ``(w0, w1+d1)``: ``(-1)^{d0+d1+w1}`` times their coupling value, for offsets of either sign.  The
    pair is checked on integers, and only a pair off the diamond builds the vertices that word the error."""
    if not (1 <= w0 <= n and 1 <= w0 + d0 <= n + 1 and 1 <= w1 <= n and 1 <= w1 + d1 <= n + 1):
        check_diamond_pair(n, white(w0, w1 + d1), black(w0 + d0, w1))
    m, stop = _branch_cut(n + 1, w0, d0)
    s = sum(map(mul, krawtchouk_row(n, w1 + d1 - 1)[:stop], krawtchouk_column(w1 - 1, n - 1)[m:]))
    return lowest_terms(-s if _negated(d0, d1) else s, n)


def coupling(n: int, v: Vertex, w: Vertex) -> Dyadic:
    """The coupling function ``c(v, w)`` on the order-``n`` diamond, ``(-1)^{x'-x+y}`` times the
    signed entry; its absolute value is the probability of the domino ``(v, w)``."""
    check_diamond_pair(n, v, w)
    num, scale = coupling_signed(n, v.x, w.x - v.x, w.y, v.y - w.y)
    return Dyadic(-num if (w.x - v.x + v.y) % 2 else num, scale)


def pattern_probability(n: int, pattern: Sequence[Edge]) -> Dyadic:
    """Probability of a ``k``-domino pattern in a uniform tiling, ``|det[c(v_i, w_j)]|``, as the
    :func:`lowest_terms` pair of an integer over ``2^{nk}``: the determinant is taken exactly over the
    signed entries, which have the same ``|det|``, as integers over ``2^n``.  The pattern is validated
    by the diamond's membership test, at a cost that does not grow with ``n``; then the pattern is read
    in the orientation that sums fewer terms, each distinct white row and black column of that
    orientation is built once, as far as its entries read it, and each entry is one sum over them."""
    from .exactlinalg import det  # here, so that commands without a pattern never load it
    whites, blacks = validate_pattern(build_diamond(n), pattern)
    whites, blacks = [v[1:] for v in whites], [w[1:] for w in blacks]
    if sum([min(y, n + 1 - y) for _, y in blacks]) < sum([min(x, n + 1 - x) for x, _ in whites]):
        # The transposed pattern: its matrix is the transpose, with the same det.
        whites, blacks = [w[::-1] for w in blacks], [v[::-1] for v in whites]
    whites, blacks = _lines(n, whites, blacks)
    d = det([[_entry(n, *v, *w) for w in blacks] for v in whites])
    return lowest_terms(abs(d), n * len(whites))
