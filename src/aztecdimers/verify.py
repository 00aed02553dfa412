"""Self-check suite: every closed form against its independent oracle.

Backs the ``verify`` CLI command.  ``quick`` keeps boards to order 3 and
runs in a few seconds; ``full`` pushes each check to the largest size the
oracles handle comfortably (order 5 for the exhaustive coupling sweep).
``local-inverse`` needs no oracle matrix: it checks ``K C^T = I`` one sparse
row of ``K`` at a time, exhaustively to order 8 (``quick``) or 12 (``full``).
Each check returns a :class:`CheckResult`; any failure makes the command
exit nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from . import enumerate as enum  # noqa: A001 - package-local module name
from . import combinatorics, coupling, kasteleyn
from .lattice import BlackRect, WhiteRect, build_diamond, build_rectangle


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


LEVELS = ("quick", "full")


def _counts_vs_enumeration(full: bool) -> CheckResult:
    top = 4 if full else 3
    for n in range(1, top + 1):
        board = build_diamond(n)
        brute = enum.enumerate_matchings(board)
        for conv in kasteleyn.SignConvention:
            got = kasteleyn.count_matchings_det(board, conv)
            if got != brute:
                return CheckResult(
                    "counts-vs-enumeration", False,
                    f"n={n} {conv.value}: det {got} != brute force {brute}",
                )
    return CheckResult("counts-vs-enumeration", True, f"diamonds up to order {top}")


def _counts_power_of_two(full: bool) -> CheckResult:
    top = 6 if full else 5
    for n in range(1, top + 1):
        want = 2 ** (n * (n + 1) // 2)
        got = kasteleyn.count_matchings_det(build_diamond(n))
        if got != want:
            return CheckResult("counts-power-of-two", False, f"n={n}: {got} != 2^{n*(n+1)//2}")
    return CheckResult("counts-power-of-two", True, f"diamonds up to order {top}")


def _convention_equivalence(full: bool) -> CheckResult:
    top_n = 4 if full else 3
    top_m = 3 if full else 2
    boards = [build_diamond(n) for n in range(1, top_n + 1)]
    for n in range(1, top_n + 1):
        for m in range(1, top_m + 1):
            for dents in combinations(range(1, n + 2), m):
                boards.append(build_rectangle(BlackRect, n, m, dents))
            for teeth in combinations(range(1, n + 1), m):
                boards.append(build_rectangle(WhiteRect, n, m, teeth))
    for board in boards:
        a = kasteleyn.count_matchings_det(board, kasteleyn.SignConvention.WILSON_VERTICES)
        b = kasteleyn.count_matchings_det(board, kasteleyn.SignConvention.VERTICAL_EDGES)
        if a != b:
            return CheckResult("convention-equivalence", False, f"{board.kind}: {a} != {b}")
    return CheckResult("convention-equivalence", True, f"{len(boards)} boards")


def _coupling_vs_oracle(full: bool) -> CheckResult:
    top = 5 if full else 3
    pairs = 0
    for n in range(1, top + 1):
        oracle = kasteleyn.inverse_coupling_matrix(n)
        for (v, w), entry in oracle.items():
            if abs(coupling.coupling(n, v, w).to_fraction()) != abs(entry):
                return CheckResult("coupling-vs-oracle", False, f"n={n} |c({v!r},{w!r})| mismatch")
            signed = coupling.coupling_signed(n, v.x, w.x - v.x, w.y, v.y - w.y)
            if signed.to_fraction() != entry:
                return CheckResult("coupling-vs-oracle", False, f"n={n} signed c({v!r},{w!r}) mismatch")
            pairs += 1
    return CheckResult("coupling-vs-oracle", True, f"{pairs} pairs up to order {top}")


def _local_inverse(full: bool) -> CheckResult:
    # sum_{b ~ v} K(v, b) c_signed(v', b) = delta(v, v') for all whites v, v' says that the
    # signed entries are (K^{-1})^T, since det K = +-2^{n(n+1)/2} is never 0.  Scaled by 2^n.
    top = 12 if full else 8
    cases = 0
    for n in range(1, top + 1):
        board = build_diamond(n)
        blacks = board.black_vertices
        index = {b: j for j, b in enumerate(blacks)}
        k_rows = [(v, [(kasteleyn.edge_sign(v, b), index[b]) for b in board.neighbors(v)])
                  for v in board.white_vertices]
        for v2 in board.white_vertices:
            signed = (coupling.coupling_signed(n, v2.x, b.x - v2.x, b.y, v2.y - b.y) for b in blacks)
            scaled = [c.numerator << (n - c.scale) for c in signed]
            for v, k_row in k_rows:
                total = sum(sign * scaled[j] for sign, j in k_row)
                if total != (2**n if v == v2 else 0):
                    return CheckResult("local-inverse", False, f"n={n} {v!r},{v2!r}: {total} / 2^{n}")
                cases += 1
    return CheckResult("local-inverse", True, f"{cases} identities up to order {top}")


def _normalization(full: bool) -> CheckResult:
    top = 10 if full else 6
    for n in range(1, top + 1):
        board = build_diamond(n)
        for v in board.white_vertices:
            total = sum(abs(coupling.coupling(n, v, w).to_fraction()) for w in board.neighbors(v))
            if total != 1:
                return CheckResult("normalization", False, f"n={n} {v!r}: sum {total} != 1")
    return CheckResult("normalization", True, f"every white vertex up to order {top}")


def _sign_relation(full: bool) -> CheckResult:
    top = 4 if full else 3
    cases = 0
    for n in range(1, top + 1):
        for w0 in range(1, n + 1):
            for d0 in range(1, n + 2 - w0):
                for w1 in range(1, n + 1):
                    for d1 in range(1, n + 2 - w1):
                        spec = enum.HoleSpec(w0, d0, w1, d1)
                        lhs = enum.weighted_count(n, spec)
                        cof = kasteleyn.signed_hole_cofactor(n, spec.white_hole, spec.black_hole)
                        rhs = cof if (d0 + d1 + 1) % 2 == 0 else -cof
                        if lhs != rhs:
                            return CheckResult(
                                "sign-relation", False, f"n={n} {spec}: {lhs} != {rhs}"
                            )
                        cases += 1
    return CheckResult("sign-relation", True, f"{cases} hole pairs up to order {top}")


def _rectangle_closed_forms(full: bool) -> CheckResult:
    top_n = 4 if full else 3
    top_m = 3 if full else 2
    cases = 0
    for n in range(1, top_n + 1):
        for m in range(1, top_m + 1):
            for dents in combinations(range(1, n + 2), m):
                want = enum.enumerate_matchings(build_rectangle(BlackRect, n, m, dents))
                if combinatorics.dented_rectangle_matchings(n, m, dents) != want:
                    return CheckResult("rectangle-closed-forms", False, f"dents {n},{m},{dents}")
                cases += 1
            for teeth in combinations(range(1, n + 1), m):
                want = enum.enumerate_matchings(build_rectangle(WhiteRect, n, m, teeth))
                if combinatorics.toothed_rectangle_matchings(n, m, teeth) != want:
                    return CheckResult("rectangle-closed-forms", False, f"teeth {n},{m},{teeth}")
                cases += 1
    return CheckResult("rectangle-closed-forms", True, f"{cases} rectangles")


_CHECKS: tuple[Callable[[bool], CheckResult], ...] = (
    _counts_vs_enumeration,
    _counts_power_of_two,
    _convention_equivalence,
    _rectangle_closed_forms,
    _coupling_vs_oracle,
    _local_inverse,
    _normalization,
    _sign_relation,
)


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the oracle suite; ``level`` is ``"quick"`` or ``"full"``."""
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")
    full = level == "full"
    return [check(full) for check in _CHECKS]
