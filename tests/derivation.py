"""The paper's derivation chain, kept as a test helper: the proof steps of
arXiv math/0007136, not the product.  A polynomial toolkit, the truncated
operator calculus in the forward difference ``delta``, the dented and
toothed Aztec rectangles (their board kinds, :func:`build_rectangle`, and
their Vandermonde product counts), the holed-rectangle and hole-pair
determinants, the annihilator, Laplace and delta-symbol identities, and the
scalar Krawtchouk coefficients they read.  Nothing in ``aztecdimers`` calls
them; ``test_acceptance`` criteria 2-7 and 13 and ``test_combinatorics``
certify them against enumeration, and ``test_enumerate`` holds the
rectangle counts to the transfer matrix and ``|det K|``.  The two-hole sign
lemma, signed two-hole counts against the Kasteleyn cofactors, is one sweep
over every hole pair (:func:`sign_relation_sweep`), which criterion 11 runs
to order 6 and ``test_verify``'s mutants must fail.  Two references
the tests share close the file: the Cartesian coordinates of the tilted
drawing (:func:`cart`, :func:`from_cart`) and matrix minors, the cofactor
route to single inverse entries.  Pytest does not collect this file; tests
import it as ``from derivation import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod
from typing import Sequence

from aztecdimers.combinatorics import krawtchouk_row
from aztecdimers.coupling import hole_ranges
from aztecdimers.enumerate import HoleSpec, enumerate_matchings, weighted_count
from aztecdimers.exactlinalg import det
from aztecdimers.kasteleyn import signed_hole_cofactor
from aztecdimers.lattice import Board, BoardError, Color, Edge, Vertex, remove_vertices


class TruncationError(ValueError):
    """Operator applied to a polynomial of degree at or above its truncation."""


# ---------------------------------------------------------------------------
# Dense polynomials (ascending coefficient tuples) and Krawtchouk coefficients
# ---------------------------------------------------------------------------


def _trim(p: Sequence) -> tuple:
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


def poly_mul(a: Sequence, b: Sequence) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return _trim(out)


def binomial_poly(exponent: int, sign: int) -> tuple:
    """Coefficients of ``(1 + sign*x)^exponent`` for ``exponent >= 0``."""
    return tuple(comb(exponent, k) * sign**k for k in range(exponent + 1))


def poly_eval(p: Sequence, x0):
    acc = 0
    for c in reversed(tuple(p)):
        acc = acc * x0 + c
    return acc


def _poly_shift_one(p: Sequence) -> tuple:
    # p(x+1): out[j] = sum_i p[i] * C(i, j)
    out = [0] * len(p)
    for i, c in enumerate(p):
        if c:
            for j in range(i + 1):
                out[j] += c * comb(i, j)
    return _trim(out)


def poly_forward_difference(p: Sequence) -> tuple:
    """p(x+1) - p(x); drops the degree by at least one."""
    shifted = _poly_shift_one(p)
    size = max(len(shifted), len(p))
    return _trim(
        [
            (shifted[i] if i < len(shifted) else 0) - (p[i] if i < len(p) else 0)
            for i in range(size)
        ]
    )


def krawtchouk(a: int, b: int, c: int) -> int:
    """Coefficient of ``x^a`` in ``(1-x)^c (1+x)^{b-c}``.

    Indices outside the polynomial range (``a`` outside ``[0, b]`` or ``c``
    outside ``[0, b]``) contribute nothing and return 0.
    """
    if a < 0 or b < 0 or a > b or c < 0 or c > b:
        return 0
    return krawtchouk_row(b, c)[a]


def krawtchouk_convolution(a: int, b: int, c: int) -> int:
    """Binomial-convolution form of :func:`krawtchouk`, equal to it everywhere.

    Not used by the library: it is the independent reference that the
    tests check the recurrences of :func:`krawtchouk_row` and
    :func:`krawtchouk_column` against.
    """
    if a < 0 or b < 0 or a > b or c < 0 or c > b:
        return 0
    lo = max(0, a - (b - c))
    hi = min(c, a)
    return sum((-1) ** i * comb(c, i) * comb(b - c, a - i) for i in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Truncated operator calculus in the forward difference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaOperator:
    """An operator ``sum_k c_k delta^k`` truncated at ``delta^{truncation}``.

    Exact on polynomials of degree below ``truncation`` because ``delta^k``
    annihilates every polynomial of degree below ``k``.
    """

    coeffs: tuple[Fraction, ...]

    @property
    def truncation(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_delta_coeffs(cls, coeffs: Sequence, truncation: int) -> "DeltaOperator":
        padded = [Fraction(c) for c in coeffs[:truncation]]
        padded += [Fraction(0)] * (truncation - len(padded))
        return cls(tuple(padded))

    @classmethod
    def identity(cls, truncation: int) -> "DeltaOperator":
        return cls.from_delta_coeffs([1], truncation)

    @classmethod
    def delta(cls, truncation: int) -> "DeltaOperator":
        return cls.from_delta_coeffs([0, 1], truncation)

    @classmethod
    def one_plus_delta(cls, truncation: int) -> "DeltaOperator":
        """The shift ``p(x) -> p(x+1)``."""
        return cls.from_delta_coeffs([1, 1], truncation)

    @classmethod
    def two_i_plus_delta(cls, truncation: int) -> "DeltaOperator":
        return cls.from_delta_coeffs([2, 1], truncation)

    @classmethod
    def inverse_two_i_plus_delta(cls, truncation: int) -> "DeltaOperator":
        """Truncated ``(2I + delta)^{-1} = (1/2) sum_j (-1)^j (delta/2)^j``."""
        return cls(tuple(Fraction((-1) ** j, 2 ** (j + 1)) for j in range(truncation)))

    def compose(self, other: "DeltaOperator") -> "DeltaOperator":
        if self.truncation != other.truncation:
            raise ValueError("cannot compose operators with different truncations")
        t = self.truncation
        out = [Fraction(0)] * t
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    if cj and i + j < t:
                        out[i + j] += ci * cj
        return DeltaOperator(tuple(out))

    def __pow__(self, exponent: int) -> "DeltaOperator":
        if exponent < 0:
            raise ValueError("negative operator powers are not defined")
        acc = DeltaOperator.identity(self.truncation)
        for _ in range(exponent):
            acc = acc.compose(self)
        return acc

    def apply(self, poly: Sequence) -> tuple[Fraction, ...]:
        """Apply to a polynomial of degree below the truncation."""
        p = _trim([Fraction(c) for c in poly])
        if len(p) > self.truncation:
            raise TruncationError(
                f"degree {len(p) - 1} input to an operator truncated at {self.truncation}"
            )
        acc: list[Fraction] = []
        current = p
        for c in self.coeffs:
            if not current:
                break
            if c:
                acc += [Fraction(0)] * (len(current) - len(acc))
                for i, v in enumerate(current):
                    acc[i] += c * v
            current = poly_forward_difference(current)
        return _trim(acc)

    def monomial_value(self, degree: int, at: int = 1) -> Fraction:
        """``(op(x^degree))(at)`` without building the output polynomial."""
        if degree >= self.truncation:
            raise TruncationError(
                f"monomial degree {degree} at truncation {self.truncation}"
            )
        total = Fraction(0)
        for k, c in enumerate(self.coeffs):
            if k > degree:
                break  # delta^k annihilates x^degree
            if c:
                diff = sum(
                    (-1) ** (k - i) * comb(k, i) * (at + i) ** degree for i in range(k + 1)
                )
                total += c * diff
        return total


# ---------------------------------------------------------------------------
# Aztec rectangles and their product formulas
# ---------------------------------------------------------------------------
#
# Rectangles come in two flavours.  A *black-edged* ``n x m`` rectangle with
# dents at ``1 <= x_1 < ... <= n+1`` has white vertices ``(i, j)`` for
# ``i <= n``, ``j <= m``, black vertices ``(i, j)`` for ``i <= n+1``,
# ``j <= m-1``, and black top-row vertices ``(i, m)`` for every non-dent
# ``i``.  A *white-edged* ``n x m`` rectangle with teeth at
# ``1 <= t_1 < ... <= n`` has the full white and black grids up to row ``m``
# plus white "teeth" ``(t_k, m+1)``.  Both are board kinds of
# :class:`aztecdimers.lattice.Board`: a membership test and the bounding box
# ``1 <= x <= n+1``, ``1 <= y <= rows+1``.


@dataclass(frozen=True)
class BlackRect:
    n: int
    m: int
    dents: tuple[int, ...]

    @property
    def rows(self) -> int:
        return self.m

    def __contains__(self, v: Vertex) -> bool:
        if v.color is Color.WHITE:
            return 1 <= v.x <= self.n and 1 <= v.y <= self.m
        return (1 <= v.x <= self.n + 1 and 1 <= v.y <= self.m
                and (v.y < self.m or v.x not in self.dents))


@dataclass(frozen=True)
class WhiteRect:
    n: int
    m: int
    teeth: tuple[int, ...]

    @property
    def rows(self) -> int:
        return self.m

    def __contains__(self, v: Vertex) -> bool:
        if v.color is Color.WHITE:
            return 1 <= v.x <= self.n and (1 <= v.y <= self.m
                                           or (v.y == self.m + 1 and v.x in self.teeth))
        return 1 <= v.x <= self.n + 1 and 1 <= v.y <= self.m


def _check_notches(notches: Sequence[int], m: int, hi: int, what: str) -> tuple[int, ...]:
    notches = tuple(notches)
    if len(notches) > m:
        raise BoardError(f"at most {m} {what} allowed, got {len(notches)}")
    if any(b <= a for a, b in zip(notches, notches[1:])):
        raise BoardError(f"{what} must be strictly increasing: {notches}")
    if notches and not (1 <= notches[0] and notches[-1] <= hi):
        raise BoardError(f"{what} must lie in [1, {hi}]: {notches}")
    return notches


def build_rectangle(kind, n: int, m: int, notches: Sequence[int]) -> Board:
    """Aztec rectangle of the given kind (:class:`BlackRect` or :class:`WhiteRect`).

    ``notches`` are dents (removed black top-row vertices) for a black-edged
    rectangle and teeth (extra white row-``m+1`` vertices) for a white-edged
    one.  Color-balanced boards need exactly ``m`` notches; fewer are legal
    and arise when a hole will be punched afterwards.
    """
    if n < 1 or m < 1:
        raise BoardError(f"rectangle sides must be positive, got {n}x{m}")
    if kind is BlackRect:
        return Board(BlackRect(n, m, _check_notches(notches, m, n + 1, "dents")))
    if kind is WhiteRect:
        return Board(WhiteRect(n, m, _check_notches(notches, m, n, "teeth")))
    raise BoardError(f"unknown rectangle kind: {kind!r}")


def superfactorial(k: int) -> int:
    """``1! 2! ... k!``; the empty product 1 for ``k = 0``."""
    if k < 0:
        raise ValueError(f"superfactorial of negative {k}")
    out = 1
    for i in range(2, k + 1):
        out *= factorial(i)
    return out


def vandermonde(xs: Sequence[int]) -> int:
    """``det[x_i^{j-1}] = prod_{i<j} (x_j - x_i)``."""
    out = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out *= xs[j] - xs[i]
    return out


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division {num}/{den}")
    return q


def _check_positions(values: Sequence[int], hi: int, what: str) -> tuple:
    values = tuple(values)
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError(f"{what} must be non-decreasing: {values}")
    if values and not (1 <= values[0] and values[-1] <= hi):
        raise ValueError(f"{what} must lie in [1, {hi}]: {values}")
    return values


def dented_rectangle_matchings(n: int, m: int, dents: Sequence[int]) -> int:
    """Matchings of the black-edged ``n x m`` rectangle with the given dents.

    ``2^{m(m-1)/2} / (1! ... (m-1)!) * vandermonde(dents)``; zero when two
    dents coincide.
    """
    dents = _check_positions(dents, n + 1, "dents")
    if len(dents) != m:
        raise ValueError(f"need exactly {m} dents, got {len(dents)}")
    if any(b == a for a, b in zip(dents, dents[1:])):
        return 0
    return _exact_div(2 ** (m * (m - 1) // 2) * vandermonde(dents), superfactorial(m - 1))


def toothed_rectangle_matchings(n: int, m: int, teeth: Sequence[int]) -> int:
    """Matchings of the white-edged ``n x m`` rectangle with the given teeth."""
    teeth = _check_positions(teeth, n, "teeth")
    if len(teeth) != m:
        raise ValueError(f"need exactly {m} teeth, got {len(teeth)}")
    if any(b == a for a, b in zip(teeth, teeth[1:])):
        return 0
    return _exact_div(2 ** (m * (m + 1) // 2) * vandermonde(teeth), superfactorial(m - 1))


# ---------------------------------------------------------------------------
# Holed-board determinant formulas
# ---------------------------------------------------------------------------


def _superfactorial_or_one(k: int) -> int:
    # Prefactors of zero-width blocks need the empty-product reading at k = -1.
    return superfactorial(k) if k >= 0 else 1


def det_fractions(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a small rational matrix.

    Each row is scaled by the lcm of its denominators to integers; the
    integer determinant over the product of those scales is the answer;
    ``det`` raises ``ShapeError`` on rows that are not square.
    """
    rows = [[Fraction(v) for v in row] for row in rows]
    scales = [lcm(*(v.denominator for v in row)) for row in rows]
    ints = [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(rows, scales)]
    return Fraction(det(ints), prod(scales))


def weighted_count_rect(board: Board, hole: Vertex) -> int:
    """Signed matching count of a rectangle with one black hole.

    A matching weighs ``(-1)`` to the number of its edges descending into
    the hole row from above with black endpoint strictly left of the hole.
    """
    if hole.color is not Color.BLACK:
        raise ValueError(f"hole must be black, got {hole!r}")
    holed = remove_vertices(board, [hole])
    total = 0

    def visit(matching: tuple[Edge, ...]) -> None:
        nonlocal total
        w = sum(
            1
            for wv, bv in matching
            if wv.y == hole.y + 1 and bv.y == hole.y and bv.x < hole.x
        )
        total += -1 if w % 2 else 1

    enumerate_matchings(holed, visit)
    return total


def holed_rectangle_closed_form(kind, n: int, m: int, d1: int, w0: int, notches: Sequence[int]) -> int:
    """Signed matching count of an ``n x (m+d1)`` rectangle with a black hole.

    The hole sits at ``(w0, m)``, ``d1`` rows below the top; matchings weigh
    ``(-1)`` per edge descending into the hole row left of the hole (the
    rule of :func:`weighted_count_rect`).  Evaluates
    the operator determinant with top row
    ``((I+delta)^{w0-1} (2I+delta)^{-(d1+1)} delta^{d1})(x^{j-1})(1)`` over
    Vandermonde rows for a white-edged rectangle, and exponent ``-d1`` for a
    black-edged one (which needs ``d1 >= 1``: with the hole in the dented
    top row the weight degenerates to a board-level sign).
    """
    size = m + d1
    if kind is WhiteRect:
        if d1 < 0:
            raise ValueError("white-edged form needs d1 >= 0")
        notches = _check_positions(notches, n, "teeth")
        inverse_power = d1 + 1
        two_power = size * (size + 1) // 2
    elif kind is BlackRect:
        if d1 < 1:
            raise ValueError("black-edged form needs d1 >= 1")
        notches = _check_positions(notches, n + 1, "dents")
        inverse_power = d1
        two_power = size * (size - 1) // 2
    else:
        raise ValueError(f"unknown rectangle kind: {kind!r}")
    if len(notches) != size - 1:
        raise ValueError(f"need exactly {size - 1} notches, got {len(notches)}")
    if m < 1 or w0 < 1 or w0 > n + 1:
        raise ValueError(f"hole (w0={w0}, m={m}) out of range")

    op = (
        DeltaOperator.one_plus_delta(size) ** (w0 - 1)
    ).compose(
        DeltaOperator.inverse_two_i_plus_delta(size) ** inverse_power
    ).compose(DeltaOperator.delta(size) ** d1)
    top = [op.monomial_value(j) for j in range(size)]
    rows = [top] + [[Fraction(v ** j) for j in range(size)] for v in notches]
    value = (-1) ** (d1 % 2) * 2**two_power * det_fractions(rows) / superfactorial(size - 1)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral weighted count {value}")
    return int(value)


def first_column_hole_count(n: int, d0: int, w1: int) -> int:
    """Signed matching count of the diamond holed at white ``(1, w1+d1)``
    and black ``(d0+1, w1)``; independent of ``d1``.

    ``(-1)^{w1+1} * krawtchouk(w1-1, n-1, n-d0) * 2^{n(n-1)/2}``.
    """
    if not (1 <= d0 <= n and 1 <= w1 <= n):
        raise ValueError(f"(d0={d0}, w1={w1}) out of range for order {n}")
    return (-1) ** ((w1 + 1) % 2) * krawtchouk(w1 - 1, n - 1, n - d0) * 2 ** (n * (n - 1) // 2)


def annihilator_coeffs(n: int, s: int) -> tuple[int, ...]:
    """Coefficients ``a_0..a_n`` of ``(x-1)^{s-1} (x+1)^{n-s+1}``.

    The row ``sum_k a_k (k+1)^{j-2}`` vanishes for ``1 < j <= s`` and
    ``sum_k a_k (-1)^k (k+1)^{j-s-1}`` vanishes for ``s < j <= n+1``, which
    is what lets a power row be eliminated from the hole determinant.
    """
    if not 1 <= s <= n + 1:
        raise ValueError(f"need 1 <= s <= n+1, got s={s}")
    left = tuple((-1) ** (s - 1 - k) * comb(s - 1, k) for k in range(s))  # (x-1)^{s-1}
    right = binomial_poly(n - s + 1, +1)
    out = poly_mul(left, right)
    return tuple(out) + (0,) * (n + 1 - len(out))


def _hole_pair_entries(n: int, w0: int, d0: int, w1: int, d1: int) -> list[list[Fraction]]:
    size = n + 1
    s = w1 + d1
    op = (
        DeltaOperator.one_plus_delta(size) ** (w0 + d0 - 1)
    ).compose(
        DeltaOperator.inverse_two_i_plus_delta(size) ** d1
    ).compose(DeltaOperator.delta(size) ** (d1 - 1))
    rows: list[list[Fraction]] = []
    for i in range(1, size + 1):
        row: list[Fraction] = []
        for j in range(1, size + 1):
            if j == 1:
                row.append(Fraction(1 if i == w0 + 1 else 0))
            elif i == 1:
                row.append(op.monomial_value(j - 2) if j <= s else Fraction(0))
            elif j <= s:
                row.append(Fraction((i - 1) ** (j - 2)))
            else:
                row.append(Fraction((-1) ** ((i - 1) % 2) * (i - 1) ** (j - (s + 1))))
        rows.append(row)
    return rows


def _check_hole_pair(n: int, w0: int, d0: int, w1: int, d1: int) -> None:
    if d0 < 1 or d1 < 1:
        raise ValueError(f"need d0, d1 >= 1, got d0={d0} d1={d1}")
    if not (1 <= w0 and w0 + d0 <= n + 1 and 1 <= w1 and w1 + d1 <= n + 1):
        raise ValueError(f"hole pair (w0={w0}, d0={d0}, w1={w1}, d1={d1}) off the order-{n} diamond")


def hole_pair_determinant(n: int, w0: int, d0: int, w1: int, d1: int) -> Fraction:
    """The ``(n+1) x (n+1)`` determinant encoding the two-hole diamond count.

    Multiplied by :func:`hole_pair_prefactor` it equals the signed matching
    count ``sum_T (-1)^{w(T)}`` of the diamond with black hole
    ``(w0+d0, w1)`` and white hole ``(w0, w1+d1)``.
    """
    _check_hole_pair(n, w0, d0, w1, d1)
    return det_fractions(_hole_pair_entries(n, w0, d0, w1, d1))


def hole_pair_determinant_telescoped(n: int, w0: int, d0: int, w1: int, d1: int) -> Fraction:
    """The same determinant as a Krawtchouk-weighted sum of first-column cases."""
    _check_hole_pair(n, w0, d0, w1, d1)
    return sum(
        (
            krawtchouk(j, n, w1 + d1 - 1) * hole_pair_determinant(n, 1, j + d0, w1, d1)
            for j in range(w0)
        ),
        Fraction(0),
    )


def hole_pair_prefactor(n: int, w1: int, d1: int) -> Fraction:
    """Scalar turning :func:`hole_pair_determinant` into the signed count."""
    s = w1 + d1
    sign = (-1) ** (d1 % 2) * (-1) ** (((n + 1) // 2 - s // 2) % 2)
    power = (s - 1) * s // 2 + (n - s + 1) * (n - s + 2) // 2
    return Fraction(sign * 2**power, _superfactorial_or_one(s - 2) * _superfactorial_or_one(n - s))


def laplace_block_identity(rows: Sequence[Sequence], m1: int, m2: int) -> bool:
    """Check the block Laplace expansion used to split the hole determinant.

    ``rows`` is an ``(m1+m2)``-square matrix whose right block carries
    alternating row signs: ``rows[i][m1+j] = (-1)^i * d[i][j]``.  The claim:
    ``det(rows)`` equals ``(-1)^{floor((m1+m2)/2) - floor(m1/2)}`` times the
    sum over all row partitions of ``det(c-block) * det(d-block)``.
    """
    from itertools import combinations

    size = m1 + m2
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ValueError(f"need a {size}x{size} matrix")
    lhs = det_fractions([[Fraction(v) for v in row] for row in rows])
    c = [[Fraction(rows[i][j]) for j in range(m1)] for i in range(size)]
    d = [[Fraction(rows[i][m1 + j]) * (-1) ** (i % 2) for j in range(m2)] for i in range(size)]
    total = Fraction(0)
    for subset in combinations(range(size), m1):
        rest = [i for i in range(size) if i not in subset]
        total += det_fractions([c[i] for i in subset]) * det_fractions([d[i] for i in rest])
    sign = (-1) ** ((size // 2 - m1 // 2) % 2)
    return lhs == sign * total


def delta_symbol_coefficient(n: int, w1: int, d0: int) -> Fraction:
    """``[x^{w1-1}] ((1+x)^{d0-1} (2+x)^{-(n+1-w1)})`` by truncated series.

    Equals ``2^{-n} * krawtchouk(w1-1, n-1, n-d0)``; the identity is what
    collapses the first-column hole determinant into a single coefficient.
    """
    if not (1 <= w1 <= n):
        raise ValueError(f"need 1 <= w1 <= n, got w1={w1}")
    k = n + 1 - w1
    series = [Fraction((-1) ** j * comb(k + j - 1, j), 2 ** (k + j)) for j in range(w1)]
    poly = binomial_poly(d0 - 1, +1)[:w1]
    acc = Fraction(0)
    for i, p in enumerate(poly):
        j = w1 - 1 - i
        if 0 <= j < len(series):
            acc += p * series[j]
    return acc


# ---------------------------------------------------------------------------
# The two-hole sign lemma
# ---------------------------------------------------------------------------


def sign_relation_sweep(top: int) -> tuple[tuple[int, HoleSpec] | None, int]:
    """Hold every signed two-hole count of the diamonds of order 1 to ``top`` to its
    Kasteleyn cofactor: ``weighted_count(n, spec)`` must be ``(-1)^(d0+d1+1)`` times
    ``signed_hole_cofactor`` at the spec's two holes, that is ``(K^{-1})^T[v, w] |det K|``.

    Returns ``(first, checked)``: ``first`` is ``(n, spec)`` for the first pair that
    fails, or ``None``, and ``checked`` counts the pairs compared, that one included.
    Pairs run by order, then ``(d0, d1)`` with both at least 1, then the positions that
    :func:`aztecdimers.coupling.hole_ranges` gives.
    """
    checked = 0
    for n in range(1, top + 1):
        for d0, d1 in product(range(1, n + 1), repeat=2):
            w0s, w1s = hole_ranges(n, d0, d1)
            for w0, w1 in product(w0s, w1s):
                spec = HoleSpec(w0, d0, w1, d1)
                cofactor = signed_hole_cofactor(n, spec.white_hole, spec.black_hole)
                checked += 1
                if weighted_count(n, spec) != (cofactor if (d0 + d1) % 2 else -cofactor):
                    return (n, spec), checked
    return None, checked


# ---------------------------------------------------------------------------
# References shared by the tests
# ---------------------------------------------------------------------------


def cart(v: Vertex) -> tuple[int, int]:
    """Cartesian pair of ``v`` in the tilted drawing."""
    if v.color is Color.WHITE:
        return (2 * v.x - 1, 2 * v.y - 2)
    return (2 * v.x - 2, 2 * v.y - 1)


def from_cart(cx: int, cy: int) -> Vertex:
    """Inverse of :func:`cart`; raises ``BoardError`` on off-lattice parities."""
    if cx % 2 == 1 and cy % 2 == 0:
        return Vertex(Color.WHITE, (cx + 1) // 2, cy // 2 + 1)
    if cx % 2 == 0 and cy % 2 == 1:
        return Vertex(Color.BLACK, cx // 2 + 1, (cy + 1) // 2)
    raise BoardError(f"({cx}, {cy}) is not a lattice vertex")


def minor(m: Sequence[Sequence[int]], drop_rows: Sequence[int], drop_cols: Sequence[int]) -> tuple:
    """Submatrix of ``m`` with the listed rows and columns deleted, order preserved."""
    rset, cset = set(drop_rows), set(drop_cols)
    return tuple(
        tuple(v for j, v in enumerate(row) if j not in cset)
        for i, row in enumerate(m)
        if i not in rset
    )
