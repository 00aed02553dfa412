"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Every check is an exact identity (no tolerances anywhere); the stated
runtime budgets are asserted with ``time.monotonic``.  Run with ``-s`` to
see the verdict lines.
"""

import time
from itertools import combinations, product

from aztecdimers.coupling import coupling, lowest_terms, pattern_probability
from aztecdimers.enumerate import HoleSpec, enumerate_matchings, weighted_count, weighted_matchings
from aztecdimers.kasteleyn import count_matchings_det, inverse_coupling_matrix
from aztecdimers.lattice import black, build_diamond, remove_vertices
from derivation import (
    BlackRect,
    WhiteRect,
    annihilator_coeffs,
    build_rectangle,
    cells,
    dented_rectangle_matchings,
    first_column_hole_count,
    hole_pair_determinant,
    hole_pair_determinant_telescoped,
    holed_rectangle_closed_form,
    krawtchouk,
    sign_relation_sweep,
    toothed_rectangle_matchings,
    weighted_count_rect,
)


class _Criterion:
    """Prints the verdict line whether the body passed or failed."""

    def __init__(self, number, description):
        self.number = number
        self.description = description
        self.start = None

    def __enter__(self):
        self.start = time.monotonic()
        return self

    @property
    def elapsed(self):
        return time.monotonic() - self.start

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number:>2}: {verdict} ({self.elapsed:.1f}s) {self.description}")
        return False


def test_criterion_01_matching_counts():
    with _Criterion(1, "determinant counts match enumeration and 2^(n(n+1)/2)") as c:
        for n in (1, 2, 3, 4):
            board = build_diamond(n)
            assert count_matchings_det(board) == enumerate_matchings(board)
        for n in range(1, 7):
            assert count_matchings_det(build_diamond(n)) == 2 ** (n * (n + 1) // 2)
        assert c.elapsed < 30


def test_criterion_02_kasteleyn_counts():
    with _Criterion(2, "the Kasteleyn determinant counts every suite board"):
        boards = [build_diamond(n) for n in range(1, 5)]
        for n in range(1, 5):
            for m in range(1, 4):
                for dents in combinations(range(1, n + 2), m):
                    boards.append(build_rectangle(BlackRect, n, m, dents))
                for teeth in combinations(range(1, n + 1), m):
                    boards.append(build_rectangle(WhiteRect, n, m, teeth))
        assert len(boards) == 78
        for board in boards:
            assert count_matchings_det(board) == enumerate_matchings(board), board.kind


def test_criterion_03_rectangle_closed_forms():
    with _Criterion(3, "rectangle product formulas and their recursions") as c:
        for n in range(1, 5):
            for m in range(1, 4):
                for dents in combinations(range(1, n + 2), m):
                    want = enumerate_matchings(build_rectangle(BlackRect, n, m, dents))
                    assert dented_rectangle_matchings(n, m, dents) == want
                for teeth in combinations(range(1, n + 1), m):
                    want = enumerate_matchings(build_rectangle(WhiteRect, n, m, teeth))
                    assert toothed_rectangle_matchings(n, m, teeth) == want
            for m in range(1, 3):
                for teeth in combinations(range(1, n + 1), m):
                    total = sum(
                        dented_rectangle_matchings(n, m, [y + e for y, e in zip(teeth, bumps)])
                        for bumps in product((0, 1), repeat=m)
                    )
                    assert toothed_rectangle_matchings(n, m, teeth) == total
                for dents in combinations(range(1, n + 2), m + 1):
                    total = sum(
                        toothed_rectangle_matchings(n, m, teeth)
                        for teeth in product(
                            *(range(dents[i], dents[i + 1]) for i in range(m))
                        )
                    )
                    assert dented_rectangle_matchings(n, m + 1, dents) == total
        assert c.elapsed < 60


def test_criterion_04_annihilator_identities():
    with _Criterion(4, "annihilator row identities for every splitting point"):
        for n in range(1, 9):
            for s in range(1, n + 2):
                a = annihilator_coeffs(n, s)
                for j in range(2, s + 1):
                    assert sum(a[k] * (k + 1) ** (j - 2) for k in range(n + 1)) == 0
                for j in range(s + 1, n + 2):
                    assert (
                        sum(a[k] * (-1) ** k * (k + 1) ** (j - s - 1) for k in range(n + 1))
                        == 0
                    )


def test_criterion_05_holed_rectangle_formulas():
    with _Criterion(5, "holed-rectangle operator determinants match enumeration"):
        for n in range(1, 5):
            for size in range(1, 4):
                for d1 in range(size):
                    m = size - d1
                    for w0 in range(1, n + 2):
                        for teeth in combinations(range(1, n + 1), size - 1):
                            board = build_rectangle(WhiteRect, n, size, teeth)
                            assert holed_rectangle_closed_form(
                                WhiteRect, n, m, d1, w0, teeth
                            ) == weighted_count_rect(board, black(w0, m))
                        if d1 < 1:
                            continue
                        for dents in combinations(range(1, n + 2), size - 1):
                            board = build_rectangle(BlackRect, n, size, dents)
                            assert holed_rectangle_closed_form(
                                BlackRect, n, m, d1, w0, dents
                            ) == weighted_count_rect(board, black(w0, m))


def test_criterion_06_first_column_closed_form():
    with _Criterion(6, "first-column hole closed form equals weighted counts"):
        for n in range(1, 5):
            for d0 in range(1, n + 1):
                for w1 in range(1, n + 1):
                    want = first_column_hole_count(n, d0, w1)
                    for d1 in range(1, n + 2 - w1):
                        assert weighted_count(n, HoleSpec(1, d0, w1, d1)) == want


def test_criterion_07_telescoped_determinant():
    with _Criterion(7, "hole-pair determinant equals its telescoped Krawtchouk sum"):
        for n in range(1, 6):
            for w0 in range(1, n + 1):
                for d0 in range(1, n + 2 - w0):
                    for w1 in range(1, n + 1):
                        for d1 in range(1, n + 2 - w1):
                            assert hole_pair_determinant(
                                n, w0, d0, w1, d1
                            ) == hole_pair_determinant_telescoped(n, w0, d0, w1, d1)


def test_criterion_08_master_oracle_equivalence():
    with _Criterion(8, "closed form equals inverse-Kasteleyn oracle on every pair") as c:
        for n in range(1, 6):
            board = build_diamond(n)
            oracle = inverse_coupling_matrix(n)
            for v in board.white_vertices:
                for w in board.black_vertices:
                    assert abs(coupling(n, v[1:], w[1:]).to_fraction()) == abs(oracle[v, w])
        assert c.elapsed < 300


def test_criterion_09_pattern_probabilities():
    with _Criterion(9, "pattern determinants match transfer-matrix counts"):
        n = 3
        board = build_diamond(n)
        total = weighted_matchings(board, lambda w, b: 1)
        scale = total.bit_length() - 1
        assert total == 2**scale

        def transfer_ratio(p):
            rest = remove_vertices(board, [v for edge in p for v in edge])
            return lowest_terms(weighted_matchings(rest, lambda w, b: 1), scale)

        dominoes = [(v, w) for v in board.white_vertices for w in board.neighbors(v)]
        for d in dominoes:
            p = (d,)
            assert pattern_probability(n, cells(p)) == transfer_ratio(p)
        for d1, d2 in combinations(dominoes, 2):
            if d1[0] == d2[0] or d1[1] == d2[1]:
                continue
            p = (d1, d2)
            assert pattern_probability(n, cells(p)) == transfer_ratio(p)
        matchings = []
        enumerate_matchings(build_diamond(2), matchings.append)
        for m in matchings:
            assert pattern_probability(2, cells(m)) == lowest_terms(1, 3)


def test_criterion_10_normalization():
    with _Criterion(10, "couplings around each white vertex sum to one") as c:
        for n in range(1, 11):
            board = build_diamond(n)
            for v in board.white_vertices:
                total = sum(
                    abs(coupling(n, v[1:], w[1:]).to_fraction()) for w in board.neighbors(v)
                )
                assert total == 1
        assert c.elapsed < 60


def test_criterion_11_sign_relation():
    with _Criterion(11, "signed counts equal (-1)^(d0+d1+1) times the cofactor"):
        # Every hole pair of every diamond to order 6.
        assert sign_relation_sweep(6) == (None, 812)


def test_criterion_12_heatmap_performance(tmp_path):
    from aztecdimers.cli import main

    with _Criterion(12, "heatmap sweeps meet their time budgets, byte-stable") as c:
        first = tmp_path / "n40-a.csv"
        second = tmp_path / "n40-b.csv"
        t0 = time.monotonic()
        assert main(["heatmap", "--n", "40", "--d0", "1", "--d1", "2", "--out", str(first)]) == 0
        assert time.monotonic() - t0 < 10
        assert main(["heatmap", "--n", "40", "--d0", "1", "--d1", "2", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        big = tmp_path / "n100.csv"
        t0 = time.monotonic()
        assert main(["heatmap", "--n", "100", "--d0", "1", "--d1", "2", "--out", str(big)]) == 0
        assert time.monotonic() - t0 < 10


def test_criterion_13_krawtchouk_properties():
    with _Criterion(13, "Krawtchouk reflection and row-sum identities"):
        for b in range(13):
            for c in range(b + 1):
                for a in range(b + 1):
                    assert krawtchouk(a, b, c) == (-1) ** a * krawtchouk(a, b, b - c)
                assert sum(krawtchouk(a, b, c) for a in range(b + 1)) == (
                    2**b if c == 0 else 0
                )
