"""The coupling function against the matrix oracles."""

import json
import random
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations, cycle, islice, product
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from aztecdimers import coupling as coupling_mod
from aztecdimers.cli import load_pattern_file
from aztecdimers.combinatorics import krawtchouk_column, krawtchouk_row
from aztecdimers.coupling import (
    coupling,
    coupling_signed,
    coupling_signed_rows,
    hole_ranges,
    lowest_terms,
    pattern_probability,
)
from aztecdimers.enumerate import enumerate_matchings, weighted_matchings
from aztecdimers.exactlinalg import det
from aztecdimers.kasteleyn import inverse_coupling_matrix
from aztecdimers.lattice import BoardError, black, build_diamond, check_diamond_pair, remove_vertices, white
from aztecdimers.verify import _reflections
from derivation import first_column_hole_count, krawtchouk_convolution


# ---------------------------------------------------------------------------
# lowest_terms pairs
# ---------------------------------------------------------------------------


def test_dyadic_normalization():
    assert lowest_terms(2, 2) == lowest_terms(1, 1) == (1, 1)
    assert lowest_terms(0, 7) == lowest_terms(0, 0) == (0, 0)
    assert lowest_terms(-4, 3) == lowest_terms(-1, 1) == (-1, 1)
    assert lowest_terms(3, 0).to_fraction() == 3
    assert lowest_terms(3 << 500, 600) == lowest_terms(3, 100) == (3, 100)
    assert lowest_terms(1 << 700, 600) == lowest_terms(1 << 100, 0) == (1 << 100, 0)
    assert lowest_terms(-(5 << 64), 64) == lowest_terms(-5, 0) == (-5, 0)
    assert lowest_terms(7 << 3, 1000) == lowest_terms(7, 997) == (7, 997)


def test_dyadic_rejects_negative_scale():
    with pytest.raises(ValueError):
        lowest_terms(1, -1)


def test_dyadic_is_a_read_only_value():
    value = lowest_terms(2, 3)
    assert value == (1, 2) and value != (1, 3) and hash(value) == hash((1, 2))
    assert (value.numerator, value.scale) == (1, 2)
    with pytest.raises(AttributeError):
        value.numerator = 3
    with pytest.raises(AttributeError):
        value.scale = 0
    with pytest.raises(AttributeError):
        del value.scale
    with pytest.raises(AttributeError):
        value.extra = 0
    assert value.to_fraction() == Fraction(1, 4) and type(value.to_fraction()) is Fraction
    assert lowest_terms(-(3 << 5), 405).to_fraction() == Fraction(-3, 2**400)


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_master_equivalence(n):
    for (v, w), entry in inverse_coupling_matrix(n).items():
        assert abs(coupling(n, v, w).to_fraction()) == abs(entry)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_signed_equivalence_all_offsets(n):
    for (v, w), entry in inverse_coupling_matrix(n).items():
        value = coupling_signed(n, v.x, w.x - v.x, w.y, v.y - w.y)
        assert value.to_fraction() == entry


def _branch_sum_per_term(n, x, y, x2, y2):
    """The coupling formula's branch sum, one term at a time, with the
    binomial-convolution form of the Krawtchouk coefficients."""
    shift = x2 - x
    js = range(x) if shift > 0 else range(x, n + 1)
    total = sum(
        krawtchouk_convolution(j, n, y - 1) * krawtchouk_convolution(y2 - 1, n - 1, n - (j + shift))
        for j in js
    )
    return total if shift > 0 else -total


def test_kernel_matches_the_per_term_sum_on_every_pair():
    for n, v, w in _every_pair(8):
        assert coupling(n, v, w) == lowest_terms(_branch_sum_per_term(n, v.x, v.y, w.x, w.y), n), (n, v, w)


@given(st.data())
def test_kernel_matches_the_per_term_sum_on_sampled_pairs(data):
    n = data.draw(st.integers(1, 30), label="n")
    v = white(data.draw(st.integers(1, n)), data.draw(st.integers(1, n + 1)))
    w = black(data.draw(st.integers(1, n + 1)), data.draw(st.integers(1, n)))
    assert coupling(n, v, w) == lowest_terms(_branch_sum_per_term(n, v.x, v.y, w.x, w.y), n)


def test_hole_ranges_are_the_positions_on_the_diamond():
    # Every offset in [-n-1, n+1], so the ranges that fit nowhere are tested too.  Row y = 1 and
    # column x = 1 hold whites and blacks alike, so each range is read off the membership test alone.
    for n in range(1, 7):
        board = build_diamond(n)
        near = range(-n - 2, 2 * n + 4)
        for d0, d1 in product(range(-n - 1, n + 2), repeat=2):
            w0s, w1s = hole_ranges(n, d0, d1)
            assert w0s.step == w1s.step == 1
            assert list(w0s) == [w0 for w0 in near if white(w0, 1) in board and black(w0 + d0, 1) in board]
            assert list(w1s) == [w1 for w1 in near if white(1, w1 + d1) in board and black(1, w1) in board]
            cells = {(w0, w1) for w0, w1 in product(near, near)
                     if white(w0, w1 + d1) in board and black(w0 + d0, w1) in board}
            assert set(product(w0s, w1s)) == cells, (n, d0, d1)


def _branch_sign(y, y2, shift):
    """The sign the reflections put on the kernel's unsigned sums: the branch sum is
    ``(-1)^(y2-1)`` times the sum for ``shift > 0`` and ``(-1)^y`` times it otherwise."""
    return (-1) ** ((y2 - 1) if shift > 0 else y)


def test_range_kernel_matches_the_per_term_sum_on_every_range():
    # Every (y, y2, shift), the extreme shifts 1 - n and n included, over the whole range of x at
    # that shift; the shifts -n and n + 1 just past them fit nowhere and give no sums.
    for n in range(1, 9):
        for shift in range(-n, n + 2):
            cols = hole_ranges(n, shift, 0)[0]
            for y in range(1, n + 2):
                for y2 in range(1, n + 1):
                    sign = _branch_sign(y, y2, shift)
                    lines = krawtchouk_row(n, y - 1), krawtchouk_column(y2 - 1, n - 1)
                    want = [sign * _branch_sum_per_term(n, x, y, x + shift, y2) for x in cols]
                    assert coupling_mod._branch_sums(*lines, shift) == want, (n, y, y2, shift)


@given(st.data())
def test_range_kernel_matches_the_per_term_sum_on_sampled_ranges(data):
    n = data.draw(st.integers(1, 30), label="n")
    shift = data.draw(st.integers(1 - n, n), label="shift")
    y, y2 = data.draw(st.integers(1, n + 1), label="y"), data.draw(st.integers(1, n), label="y2")
    want = [_branch_sign(y, y2, shift) * _branch_sum_per_term(n, x, y, x + shift, y2)
            for x in hole_ranges(n, shift, 0)[0]]
    lines = krawtchouk_row(n, y - 1), krawtchouk_column(y2 - 1, n - 1)
    assert coupling_mod._branch_sums(*lines, shift) == want


def _signed_row(n, d0, w1, d1):
    """The kernel row of the signed entries at ``w1`` over the whole ``w0`` range of the offsets."""
    (row,) = coupling_mod.signed_rows([(krawtchouk_row(n, w1 + d1 - 1), krawtchouk_column(w1 - 1, n - 1))], d0, d1)
    return row


def test_signed_row_equals_its_cells():
    # Every offset at every order to 12, so each branch of the kernel starts and stops at every x.
    for n in range(1, 13):
        for d0 in range(1 - n, n + 1):
            w0s = hole_ranges(n, d0, 0)[0]
            for w1 in range(1, n + 1):
                for d1 in range(1 - w1, n + 2 - w1):
                    assert _signed_row(n, d0, w1, d1) == _scaled_cells(n, w0s, d0, w1, d1), (n, d0, w1, d1)


def _scaled_cells(n, w0s, d0, w1, d1):
    return [c.numerator << (n - c.scale) for c in (coupling_signed(n, w0, d0, w1, d1) for w0 in w0s)]


def test_walked_rows_equal_the_lone_entries_on_every_offset_pair():
    # Every offset pair that fits, so both branches, at every order to 10: each row of the sweep
    # over all of w1s, the first from the cached lines and the rest walked, against its lone entries.
    for n in range(1, 11):
        for d0, d1 in product(range(1 - n, n + 1), repeat=2):
            w0s, w1s = hole_ranges(n, d0, d1)
            rows = list(coupling_signed_rows(n, d0, d1))
            assert rows == [_scaled_cells(n, w0s, d0, w1, d1) for w1 in w1s], (n, d0, d1)


def test_walked_rows_equal_the_lone_entries_at_large_order():
    # Seeded offsets at n = 200, alternately with d0 > 0 and d0 <= 0, and d1 at both extremes,
    # where the walk's row reaches c = n or its column a = n - 1; sampled rows and the last row,
    # which has taken the most steps.
    n = 200
    rng = random.Random(n)
    d1s = [1 - n, n, *(rng.randint(1 - n, n) for _ in range(8))]
    for i, d1 in enumerate(d1s):
        d0 = rng.randint(1, n) if i % 2 else rng.randint(1 - n, 0)
        w0s, w1s = hole_ranges(n, d0, d1)
        picks = {0, len(w1s) - 1, *rng.sample(range(len(w1s)), min(3, len(w1s)))}
        for k, row in enumerate(coupling_signed_rows(n, d0, d1)):
            if k in picks:
                assert row == _scaled_cells(n, w0s, d0, w1s[k], d1), (n, d0, w1s[k], d1)


def _branch_sum_from_lines(n, x, y, x2, y2):
    """The coupling formula's branch sum read from one built row and column in
    the formula's own orientation, with no reflection."""
    row, column = krawtchouk_row(n, y - 1), krawtchouk_column(y2 - 1, n - 1)
    shift = x2 - x
    if shift > 0:
        return sum(row[j] * column[n - j - shift] for j in range(x))
    return -sum(row[j] * column[n - j - shift] for j in range(x, n + 1))


@pytest.mark.parametrize("n", [200, 201])
def test_signed_row_matches_the_formula_on_sampled_ranges_at_large_order(n):
    # n = 200 reads a row of even order b = n and a column of odd order
    # b = n - 1, n = 201 the reverse; the offsets alternate between the two
    # branches.  Up to 8 consecutive cells of each whole row are checked.
    rng = random.Random(n)
    for i in range(40):
        d0 = rng.randint(1, n) if i % 2 else rng.randint(1 - n, 0)
        w1 = rng.randint(1, n)
        d1 = rng.randint(1 - w1, n + 1 - w1)
        cols = hole_ranges(n, d0, 0)[0]
        lo = rng.randrange(len(cols))
        hi = rng.randint(lo + 1, min(len(cols), lo + 8))
        sign = -1 if (d0 + d1 + w1) % 2 else 1
        want = [sign * _branch_sum_from_lines(n, w0, w1 + d1, w0 + d0, w1) for w0 in cols[lo:hi]]
        assert _signed_row(n, d0, w1, d1)[lo:hi] == want, (n, cols[lo:hi], d0, w1, d1)


def _row_cell(n, v, w):
    """The cell of ``v.x`` in the kernel row of the offsets of ``(v, w)``."""
    d0 = w.x - v.x
    return _signed_row(n, d0, w.y, v.y - w.y)[hole_ranges(n, d0, 0)[0].index(v.x)]


def _pair_entry(n, v, w):
    """The pattern entry at ``(v, w)``, over the lines of the pair alone."""
    (white_side,), (black_side,) = coupling_mod._lines(n, [v[1:]], [w[1:]])
    return coupling_mod._entry(n, *white_side, *black_side)


def _check_direct_sums_against_the_row_cell(n, v, w, cell):
    """``coupling_signed`` and ``coupling`` at ``(v, w)`` against ``cell``, its kernel-row cell."""
    w0, d0, w1, d1 = v.x, w.x - v.x, w.y, v.y - w.y
    assert coupling_signed(n, w0, d0, w1, d1) == lowest_terms(cell, n), (n, v, w)
    assert coupling(n, v, w) == lowest_terms(-cell if (d0 + v.y) % 2 else cell, n), (n, v, w)


def _every_pair(top):
    """Each order to ``top`` with each white and each black of its diamond."""
    for n in range(1, top + 1):
        board = build_diamond(n)
        for v, w in product(board.white_vertices, board.black_vertices):
            yield n, v, w


def _every_row_cell(top):
    """Each order to ``top`` with each white and each black of its diamond and their cell in the
    kernel row of their offsets, each row built once."""
    for n in range(1, top + 1):
        for d0, w1 in product(range(1 - n, n + 1), range(1, n + 1)):
            for d1 in range(1 - w1, n + 2 - w1):
                for w0, cell in zip(hole_ranges(n, d0, 0)[0], _signed_row(n, d0, w1, d1)):
                    yield n, white(w0, w1 + d1), black(w0 + d0, w1), cell


@pytest.fixture
def far_ends(monkeypatch):
    """The far-end sums during one test, each of which reads one Delannoy number."""
    calls, real = [], coupling_mod._delannoy

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(coupling_mod, "_delannoy", spy)
    return calls


def test_direct_sums_equal_the_row_cells_on_every_pair():
    # Both branches meet every x, the board's edges included, at every order to 9.
    cells = list(_every_row_cell(9))
    assert len(cells) == sum((n * (n + 1)) ** 2 for n in range(1, 10))
    for n, v, w, cell in cells:
        _check_direct_sums_against_the_row_cell(n, v, w, cell)


def test_far_end_sums_equal_the_row_cells_on_every_pair(far_ends):
    # Pattern entries, summed from whichever end of their lines has fewer terms, meet every pair to
    # order 9; one Delannoy number is read per entry that the far end sums, and some do.
    far = 0
    for n, v, w, cell in _every_row_cell(9):
        assert _pair_entry(n, v, w) == cell, (n, v, w)
        far += 2 * coupling_mod._branch_cut(n + 1, v.x, w.x - v.x)[1] > n + 1
    assert len(far_ends) == far > 0


def _general_binomial(z, i):
    """The coefficient of ``x^i`` in ``(1+x)^z`` for any integer ``z``."""
    num = 1
    for r in range(i):
        num *= z - r
    return num // factorial(i)


def _extended_column(a, b, t):
    """``[x^a] (1-x)^t (1+x)^{b-t}`` as a power series, for any integer ``t``: the polynomial in ``t``
    that the column ``Kr(a, b, .)`` samples at ``t = 0..b``."""
    return sum((-1) ** i * _general_binomial(t, i) * _general_binomial(b - t, a - i) for i in range(a + 1))


def test_the_full_sum_over_the_extended_column_is_closed():
    # sum_j Kr(j, n, c) f(j+m) = (-1)^d 2^n sum_{i<=min(d,m)} C(m, i) C(m+d-i, d-i) with d = a - c,
    # and 0 for d < 0, for every row and column to order 14 and m <= 6.  Its part from j = stop on is
    # its reflected complement: for every stop, with D the kernel's Delannoy number,
    #     sum_{j<stop} row[j] f(j+m) = (-1)^d (2^n D(m, d) - sum_{i<=n-stop} row[i] f(i-m-1)).
    # The kernel's extended column holds the same values below 0.
    for n in range(1, 15):
        for a in range(n):
            column = krawtchouk_column(a, n - 1)
            f = {t: _extended_column(a, n - 1, t) for t in range(-7, n + 7)}
            assert tuple(f[t] for t in range(n)) == column
            assert coupling_mod._extended_column(n, a, 7, n) == [f[t] for t in range(-7, n)], (n, a)
            for c in range(n + 1):
                row, d = krawtchouk_row(n, c), a - c
                for m in range(7):
                    closed = sum(comb(m, i) * comb(m + d - i, d - i) for i in range(min(d, m) + 1))
                    assert coupling_mod._delannoy(m, d) == (closed if d >= 0 else 0), (m, d)
                    want = (-1) ** d * 2**n * closed if d >= 0 else 0
                    near = list(accumulate((r * f[j + m] for j, r in enumerate(row)), initial=0))
                    assert near[-1] == want, (n, a, c, m)
                    far = list(accumulate((r * f[i - m - 1] for i, r in enumerate(row)), initial=0))
                    for stop in range(n + 2):
                        assert near[stop] == want - (-1) ** d * far[n + 1 - stop], (n, a, c, m, stop)


@pytest.mark.parametrize("n", [200, 201, 400])
def test_direct_sums_equal_the_row_cells_at_large_order(n):
    # Seeded pairs, alternately with d0 > 0 and d0 <= 0, each against its cell in
    # the whole kernel row of its offsets.
    rng = random.Random(n)
    for i in range(40):
        v = white(rng.randint(1, n), rng.randint(1, n + 1))
        x2 = rng.randint(v.x + 1, n + 1) if i % 2 else rng.randint(1, v.x)
        w = black(x2, rng.randint(1, n))
        cell = _row_cell(n, v, w)
        _check_direct_sums_against_the_row_cell(n, v, w, cell)
        assert _pair_entry(n, v, w) == cell, (n, v, w)


@pytest.fixture
def line_builds(monkeypatch):
    """Every line build and kernel-row call, by kind, during one test."""
    calls = {"row": [], "column": [], "branch_sums": []}
    for name, key in (("krawtchouk_row", "row"), ("krawtchouk_column", "column"), ("_branch_sums", "branch_sums")):
        def spy(*args, real=getattr(coupling_mod, name), key=key):
            calls[key].append(args)
            return real(*args)

        monkeypatch.setattr(coupling_mod, name, spy)
    return calls


def _bench_shaped_pattern(rng, n, k, window=None):
    """``k`` disjoint dominoes whose whites lie in a 4x4 window, at ``window`` or at random, each
    listed white first or black first at random, as the benchmark's ``prob`` patterns are."""
    x0, y0 = window or (rng.randint(1, n - 3), rng.randint(1, n - 2))
    board = build_diamond(n)
    edges = [(v, w) for x in range(x0, x0 + 4) for y in range(y0, y0 + 4)
             if (v := white(x, y)) in board for w in board.neighbors(v)]
    rng.shuffle(edges)
    used, chosen = set(), []
    for v, w in edges:
        if v not in used and w not in used and len(chosen) < k:
            used.update((v, w))
            chosen.append((v, w))
    cells = [[[v.color.value, v.x, v.y], [w.color.value, w.x, w.y]][::rng.choice((1, -1))] for v, w in chosen]
    return tuple(chosen), {"format": 1, "n": n, "dominoes": cells}


def _prefixes_read(n, whites, blacks):
    """The row and column builds, with their lengths, that the entries between ``whites`` and
    ``blacks`` read, and each column's ``below`` by its ``y'``: a sum of ``stop`` terms from the near
    end reads ``row[:stop]`` and ``column[m:m+stop]``; one from the far end reads ``row[:n+1-stop]``
    and ``f(-m-1), ..., f(n-stop-m-1)``, whose values below 0 are stepped down from ``f(0)``."""
    rows, columns, belows = {}, {}, {}
    for (x, y), (x2, y2) in product(whites, blacks):
        d0 = x2 - x
        stop, m = (x, d0 - 1) if d0 > 0 else (n + 1 - x, -d0)
        far = n + 1 - stop < stop
        rows[y] = max(rows.get(y, 0), n + 1 - stop if far else stop)
        columns[y2] = max(columns.get(y2, 0), max(n - stop - m, 1) if far else m + stop)
        belows[y2] = max(belows.get(y2, 0), m + 1 if far else 0)
    return (sorted((n, y - 1, size) for y, size in rows.items()),
            sorted((y - 1, n - 1, size) for y, size in columns.items())), belows


@pytest.mark.parametrize("window", [(200, 3, 194), (200, 98, 98), (200, 196, 3), (24, 10, 10), (8, 2, 5),
                                    (200, 99, 99)])
def test_a_pattern_asks_for_no_longer_lines_than_its_sums_read(line_builds, window):
    # A bench-shaped 8-domino pattern, at the order and window corner given: at n = 200 near a corner,
    # mid-board or near the edge x = n; mid-board at n = 24 and n = 8, where it reads 64 entries from
    # 9 lines transposed and from 7 as given; and at n = 200 straddling the middle, where, read
    # transposed, whites on both sides of it read one column from the far end, whose below is 2.  It
    # builds each distinct line of the orientation it reads once, as a prefix exactly as long as its
    # entries read it, and reads no kernel row; in either orientation each column starts as far below
    # 0 as its far sums read, more than 1 below for some column.
    n, *corner = window
    pattern, _ = _bench_shaped_pattern(random.Random(n), n, 8, corner)
    assert len(pattern) == 8
    pattern_probability(n, pattern)
    whites, blacks = [v[1:] for v, _ in pattern], [w[1:] for _, w in pattern]
    orientations = (whites, blacks), ([w[::-1] for w in blacks], [v[::-1] for v in whites])
    reads = [_prefixes_read(n, *sides) for sides in orientations]
    assert (sorted(line_builds["row"]), sorted(line_builds["column"])) in [builds for builds, _ in reads]
    assert line_builds["branch_sums"] == []
    for sides, (_, belows) in zip(orientations, reads):
        _, columns = coupling_mod._lines(n, *sides)
        assert {a + 1: below for _, a, _, below in columns} == belows, sides
        assert max(belows.values()) > 1


@pytest.mark.parametrize("n", [8, 200])
def test_lone_entries_miss_each_line_cache_once(line_builds, n):
    # One row and one column, read whole from the caches by every entry that pairs them, at any
    # order, as the benchmark's inverse comparison reads them: 100 calls miss each cache once.
    w1, d1 = 3, 2
    krawtchouk_row.cache_clear()
    krawtchouk_column.cache_clear()
    pairs = [(w0, d0) for w0 in range(1, n + 1) for d0 in range(1 - w0, n + 2 - w0)]
    for w0, d0 in islice(cycle(pairs), 100):
        coupling_signed(n, w0, d0, w1, d1)
    assert krawtchouk_row.cache_info().misses == krawtchouk_column.cache_info().misses == 1
    assert krawtchouk_row.cache_info().hits == krawtchouk_column.cache_info().hits == 99
    assert {*line_builds["row"]} == {(n, w1 + d1 - 1)} and {*line_builds["column"]} == {(w1 - 1, n - 1)}
    assert line_builds["branch_sums"] == []


@pytest.fixture
def products(monkeypatch):
    """One entry per term the coupling kernel multiplies, direct or far-end, during one test."""
    terms, real = [], coupling_mod.mul

    def counted(p, q):
        terms.append(None)
        return real(p, q)

    monkeypatch.setattr(coupling_mod, "mul", counted)
    return terms


def _direct_terms(n, x, x2):
    """The products of the near-end sum between a white at ``x`` and a black at ``x'`` over whole
    lines: ``stop`` row entries against the ``n - m`` column entries from ``m`` on."""
    m, stop = (x2 - x - 1, x) if x2 > x else (x - x2, n + 1 - x)
    return max(0, min(stop, n - m))


@pytest.mark.parametrize("window, transposed", [((3, 194), False), ((98, 195), True)])
def test_a_pattern_near_an_edge_sums_few_terms(line_builds, products, window, transposed):
    # A bench-shaped 8-domino pattern near a corner, or near the edge y = n+1 only, where its
    # transposed reading is the nearer one, sums at most 45% of the terms of the direct sums in the
    # given orientation, still builds each distinct line of the orientation it reads once, and has
    # the |det| of the lone values, which read whole lines from the near end as given.
    n = 200
    pattern, _ = _bench_shaped_pattern(random.Random(n), n, 8, window)
    assert len(pattern) == 8
    got = pattern_probability(n, pattern)
    summed = len(products)
    direct = sum(_direct_terms(n, v.x, w.x) for (v, _), (_, w) in product(pattern, pattern))
    as_given = sorted({(n, v.y - 1) for v, _ in pattern}), sorted({(w.y - 1, n - 1) for _, w in pattern})
    flipped = sorted({(n, w.x - 1) for _, w in pattern}), sorted({(v.x - 1, n - 1) for v, _ in pattern})
    built = sorted(args[:2] for args in line_builds["row"]), sorted(args[:2] for args in line_builds["column"])
    assert built == flipped if transposed else built in (as_given, flipped)
    assert summed <= 0.45 * direct, (summed, direct)
    lone = [[coupling_signed(n, v.x, w.x - v.x, w.y, v.y - w.y) for _, w in pattern] for v, _ in pattern]
    assert got == lowest_terms(abs(det([[num << (n - scale) for num, scale in row] for row in lone])), 8 * n)


@given(st.data())
def test_multi_domino_patterns_equal_the_det_of_their_lone_values(data):
    # Bench-shaped 1-6-domino patterns in any 4x4 window of the board, edges included, against the
    # |det| of their lone values, which read whole lines from the near end and use no prefix lines.
    n = data.draw(st.integers(9, 80), label="n")
    window = data.draw(st.integers(1, n - 3), label="x0"), data.draw(st.integers(1, n - 2), label="y0")
    k = data.draw(st.integers(1, 6), label="k")
    pattern, _ = _bench_shaped_pattern(data.draw(st.randoms(use_true_random=False)), n, k, window)
    lone = [[coupling_signed(n, v.x, w.x - v.x, w.y, v.y - w.y) for _, w in pattern] for v, _ in pattern]
    want = lowest_terms(abs(det([[num << (n - scale) for num, scale in row] for row in lone])), n * len(pattern))
    assert pattern_probability(n, pattern) == want


def test_an_entry_never_sums_more_terms_than_its_direct_sum(products):
    # Seeded pattern entries at n = 200, each over the lines of its pair alone, counted by its
    # products against the near-end sum over whole lines; the far end is taken only where it
    # multiplies fewer terms, and the entry equals the lone value.
    n, rng = 200, random.Random(7)
    fewer = 0
    for _ in range(200):
        v, w = (rng.randint(1, n), rng.randint(1, n + 1)), (rng.randint(1, n + 1), rng.randint(1, n))
        (white_side,), (black_side,) = coupling_mod._lines(n, [v], [w])
        products.clear()
        got = coupling_mod._entry(n, *white_side, *black_side)
        summed, direct = len(products), _direct_terms(n, v[0], w[0])
        assert lowest_terms(got, n) == coupling_signed(n, v[0], w[0] - v[0], w[1], v[1] - w[1]), (v, w)
        assert summed <= direct, (v, w, summed, direct)
        fewer += summed < direct
    assert fewer >= 10


@pytest.mark.parametrize("n", [6, 7, 8])
def test_bench_shaped_pattern_files_match_the_transfer_matrix(tmp_path, n):
    board = build_diamond(n)
    rng = random.Random(n)
    for k in range(1, 9):
        for _ in range(2):
            pattern, doc = _bench_shaped_pattern(rng, n, k)
            path = tmp_path / "pattern.json"
            path.write_text(json.dumps(doc))
            assert load_pattern_file(str(path)) == (n, pattern)
            assert pattern_probability(n, pattern) == _transfer_ratio(board, pattern), (n, pattern)


def test_far_end_bench_shaped_patterns_match_the_transfer_matrix(far_ends):
    # Both orientations, and sums from both ends, against counts of the diamond minus the pattern,
    # on patterns of their own seed; some entries are summed from the far end.
    for n in (6, 7, 8):
        board = build_diamond(n)
        rng = random.Random(f"far end {n}")
        for k in range(1, 9):
            pattern, _ = _bench_shaped_pattern(rng, n, k)
            assert pattern_probability(n, pattern) == _transfer_ratio(board, pattern), (n, pattern)
    assert far_ends


def test_an_eight_domino_pattern_keeps_only_its_lines():
    # At n = 1200 each line holds n integers of up to about n bits: the four white
    # rows and four black columns of a pattern in a 4x4 window fit well under 8 MiB.
    pattern, _ = _bench_shaped_pattern(random.Random(1200), 1200, 8)
    assert len(pattern) == 8
    tracemalloc.start()
    try:
        pattern_probability(1200, pattern)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_signed_entry_checks_its_pair_like_check_diamond_pair():
    # The integer bounds test rejects exactly the pairs check_diamond_pair rejects, with its message.
    for n in range(0, 4):
        for w0, d0, w1, d1 in product(range(-1, 6), range(-5, 6), range(-1, 6), range(-5, 6)):
            try:
                check_diamond_pair(n, white(w0, w1 + d1), black(w0 + d0, w1))
                want = None
            except BoardError as exc:
                want = str(exc)
            try:
                coupling_signed(n, w0, d0, w1, d1)
                got = None
            except BoardError as exc:
                got = str(exc)
            assert got == want, (n, w0, d0, w1, d1)


def test_signed_entry_on_the_board_builds_no_vertex(monkeypatch):
    def no_vertex(x, y):
        raise AssertionError("vertex built")

    want = coupling_signed(5, 2, 1, 3, -1)
    monkeypatch.setattr(coupling_mod, "white", no_vertex)
    monkeypatch.setattr(coupling_mod, "black", no_vertex)
    assert coupling_signed(5, 2, 1, 3, -1) == want
    assert _signed_row(5, 1, 3, -1)[1] == want.numerator * 2 ** (5 - want.scale)


def test_pattern_entries_are_not_rechecked(monkeypatch):
    # validate_pattern has put every white and black on the board; coupling()
    # alone still checks its pair.
    pattern = ((white(2, 2), black(2, 2)), (white(3, 3), black(4, 2)))
    want = pattern_probability(4, pattern)

    def no_check(n, v, w):
        raise AssertionError("entry rechecked")

    monkeypatch.setattr(coupling_mod, "check_diamond_pair", no_check)
    assert pattern_probability(4, pattern) == want
    with pytest.raises(AssertionError, match="entry rechecked"):
        coupling(4, white(2, 2), black(2, 2))


def test_a_lone_entry_keeps_only_a_row_and_a_column():
    # One mid-board entry at n = 1200 needs one white row and one black column
    # of n + 1 integers each, well under 8 MiB; whole Krawtchouk tables of
    # orders n and n - 1 would hold about 300 MiB.
    tracemalloc.start()
    try:
        coupling(1200, white(600, 600), black(601, 600))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_corner_domino_probability_matches_brute_force():
    board = build_diamond(2)
    v = white(1, 1)
    w = board.neighbors(v)[0]
    containing = 0

    def visit(m):
        nonlocal containing
        containing += (v, w) in m

    total = enumerate_matchings(board, visit)
    assert abs(coupling(2, v, w).to_fraction()) == Fraction(containing, total)


def test_coupling_scale_never_exceeds_order():
    for n in (2, 3):
        board = build_diamond(n)
        for v in board.white_vertices:
            for w in board.black_vertices:
                assert coupling(n, v, w).scale <= n


def test_coupling_range_errors():
    with pytest.raises(BoardError):
        coupling(2, white(3, 1), black(1, 1))
    with pytest.raises(BoardError):
        coupling(2, white(1, 1), black(1, 3))
    with pytest.raises(BoardError):
        coupling_signed(2, 1, 3, 1, 1)


# ---------------------------------------------------------------------------
# The signed entry's structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_half_turn_identity(n):
    # Rotating the board half a turn sends (w0,d0,w1,d1) to
    # (n+1-w0, 1-d0, n+1-w1, 1-d1) and scales the entry by (-1)^{d0+d1+1};
    # the closed form evaluates both sides directly.
    for (v, w), _ in inverse_coupling_matrix(n).items():
        w0, d0, w1, d1 = v.x, w.x - v.x, w.y, v.y - w.y
        lhs = coupling_signed(n, w0, d0, w1, d1).to_fraction()
        rhs = coupling_signed(n, n + 1 - w0, 1 - d0, n + 1 - w1, 1 - d1).to_fraction()
        assert lhs == (rhs if (d0 + d1) % 2 else -rhs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_first_column_reduction(n):
    # At w0 = 1 the signed entry is the first-column closed form over the
    # full tiling count, up to the sign-relation factor.
    denom = 2 ** (n * (n + 1) // 2)
    for d0 in range(1, n + 1):
        for w1 in range(1, n + 1):
            for d1 in range(1, n + 2 - w1):
                value = coupling_signed(n, 1, d0, w1, d1).to_fraction()
                want = Fraction(
                    (-1) ** ((d0 + d1 + 1) % 2) * first_column_hole_count(n, d0, w1), denom
                )
                assert value == want


# ---------------------------------------------------------------------------
# Pattern probabilities
# ---------------------------------------------------------------------------


def test_empty_pattern_probability():
    assert pattern_probability(3, ()) == lowest_terms(1, 0)


def test_complete_matchings_of_order_two():
    matchings = []
    enumerate_matchings(build_diamond(2), matchings.append)
    assert len(matchings) == 8
    for m in matchings:
        assert pattern_probability(2, m) == lowest_terms(1, 3)


def _transfer_ratio(board, pattern):
    # Ground truth: matchings of the board minus the pattern's cells over all matchings.
    rest = remove_vertices(board, [v for edge in pattern for v in edge])
    total = weighted_matchings(board, lambda w, b: 1)
    scale = total.bit_length() - 1
    assert total == 2**scale
    return lowest_terms(weighted_matchings(rest, lambda w, b: 1), scale)


@pytest.mark.parametrize("n", [2, 3])
def test_pattern_probabilities_match_oracle(n):
    board = build_diamond(n)
    dominoes = [(v, w) for v in board.white_vertices for w in board.neighbors(v)]
    for d in dominoes:
        assert pattern_probability(n, (d,)) == _transfer_ratio(board, (d,))


@pytest.mark.parametrize("n", [2, 3])
def test_far_end_pattern_probabilities_match_oracle(far_ends, n):
    # A sample of two-domino patterns, some of whose entries are summed from the far end; the
    # exhaustive sweep lives in the acceptance suite.
    board = build_diamond(n)
    dominoes = [(v, w) for v in board.white_vertices for w in board.neighbors(v)]
    checked = 0
    for d1, d2 in combinations(dominoes, 2):
        if len({d1[0], d2[0]}) + len({d1[1], d2[1]}) < 4:
            continue
        p = (d1, d2)
        assert pattern_probability(n, p) == _transfer_ratio(board, p)
        checked += 1
        if checked >= 40:
            break
    assert far_ends


def test_probabilities_bounded_with_dyadic_denominator():
    n = 3
    board = build_diamond(n)
    dominoes = [(v, w) for v in board.white_vertices for w in board.neighbors(v)]
    disjoint = [
        (d1, d2)
        for d1, d2 in combinations(dominoes, 2)
        if d1[0] != d2[0] and d1[1] != d2[1]
    ]
    for d1, d2 in disjoint[:60]:
        num, scale = pattern_probability(n, (d1, d2))
        assert 0 <= num <= 2**scale
        assert scale <= n * (n + 1) // 2
        assert (num, scale) == lowest_terms(num, scale)


def test_disjoint_blocks_factorize():
    # Dominoes with vanishing cross-couplings make the probability
    # determinant block-diagonal, so probabilities multiply.
    n = 3
    board = build_diamond(n)
    dominoes = [(v, w) for v in board.white_vertices for w in board.neighbors(v)]
    found = 0
    for (v1, w1), (v2, w2) in combinations(dominoes, 2):
        if len({v1, v2}) < 2 or len({w1, w2}) < 2:
            continue
        if coupling(n, v1, w2).numerator or coupling(n, v2, w1).numerator:
            continue
        joint = pattern_probability(n, ((v1, w1), (v2, w2)))
        (a, s), (b, t) = pattern_probability(n, ((v1, w1),)), pattern_probability(n, ((v2, w2),))
        assert joint == lowest_terms(a * b, s + t)
        found += 1
    assert found > 0


# ---------------------------------------------------------------------------
# Board symmetry
# ---------------------------------------------------------------------------


def test_transpose_orientation_defines_the_same_values():
    # Transposing the board maps white (x, y) to black (y, x) and black
    # (x', y') to white (y', x'), i.e. swaps (w0, d0) with (w1, d1); the
    # signed entries, and so the probabilities, are unchanged.
    for n in range(1, 5):
        board = build_diamond(n)
        for v in board.white_vertices:
            for w in board.black_vertices:
                w0, d0, w1, d1 = v.x, w.x - v.x, w.y, v.y - w.y
                assert coupling_signed(n, w0, d0, w1, d1) == coupling_signed(n, w1, d1, w0, d0)
                transposed = coupling(n, white(w.y, w.x), black(v.y, v.x))
                assert abs(coupling(n, v, w).to_fraction()) == abs(transposed.to_fraction())
    # Whole kernel rows, as the heatmap reads them: the rows over w0s, transposed, are the rows over w1s.
    for n, d0, d1 in product(range(1, 13), range(-4, 5), range(-4, 5)):
        w0s, w1s = hole_ranges(n, d0, d1)
        if w0s and w1s:
            rows = list(coupling_signed_rows(n, d0, d1))
            assert [list(c) for c in zip(*rows)] == list(coupling_signed_rows(n, d1, d0))


def test_patterns_equal_their_reflections_at_large_order():
    # A uniform tiling reflected is a uniform tiling, so each reflection keeps every pattern's
    # probability: a certificate with no oracle, at an order no oracle reaches.  Bench-shaped
    # 2-6-domino patterns in seeded windows.
    n, rng = 200, random.Random("reflections")
    for _ in range(100):
        pattern, _ = _bench_shaped_pattern(rng, n, rng.randint(2, 6))
        want = pattern_probability(n, pattern)
        for image in _reflections(n, pattern):
            assert pattern_probability(n, image) == want, (pattern, image)


def test_lone_couplings_equal_their_reflections_at_large_order():
    # Each reflection takes the Kasteleyn matrix to one with signs on its rows and columns, so it
    # keeps |K^{-1}|, that is |c|, at every pair, adjacent or not.
    n, rng = 1000, random.Random("lone reflections")
    for _ in range(20):
        v, w = white(rng.randint(1, n), rng.randint(1, n + 1)), black(rng.randint(1, n + 1), rng.randint(1, n))
        num, scale = coupling(n, v, w)
        for (image,) in _reflections(n, ((v, w),)):
            assert coupling(n, *image) in ((num, scale), (-num, scale)), (v, w, image)


def test_mistranscribed_formula_fails_calibration():
    # Reading Kr(a, b, c) as Kr(a, b, b - c) must leave some signed entry at
    # n = 3 off the inverse-Kasteleyn oracle, so the oracle comparison sees it.
    row, column = coupling_mod.krawtchouk_row, coupling_mod.krawtchouk_column
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coupling_mod, "krawtchouk_row", lambda b, c: row(b, b - c))
        mp.setattr(coupling_mod, "krawtchouk_column", lambda a, b: column(a, b)[::-1])
        mismatches = [
            (v, w)
            for (v, w), entry in inverse_coupling_matrix(3).items()
            if coupling_signed(3, v.x, w.x - v.x, w.y, v.y - w.y).to_fraction() != entry
        ]
    assert mismatches
