"""Closed-form counting: Krawtchouk coefficients, rectangle product formulas,
finite-difference operator calculus, and the holed-board determinants.

This layer never touches a Kasteleyn matrix.  Its outputs are certified
against :mod:`aztecdimers.enumerate` and :mod:`aztecdimers.kasteleyn` by the
test suite; the formulas themselves are:

* ``krawtchouk(a, b, c)``: the coefficient of ``x^a`` in
  ``(1-x)^c (1+x)^{b-c}``, the kernel of every closed form here.
  ``krawtchouk_row(b, c)`` (all ``a``) and ``krawtchouk_column(a, b)``
  (all ``c``) build one line of coefficients by a three-term recurrence in
  ``O(b)`` big-integer operations; each keeps its last 16 lines cached.
* Matching counts of fully dented/toothed Aztec rectangles as scaled
  Vandermonde products.
* A truncated operator calculus in the forward difference ``delta``
  (``p(x) -> p(x+1) - p(x)``), including the truncated inverse of
  ``2I + delta``, exact on polynomials below the truncation degree.
* Operator-determinant formulas for the signed matching counts of
  rectangles and diamonds with holes, plus the telescoped Krawtchouk form
  that the coupling layer ultimately uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Sequence

from .exactlinalg import det_fractions
from .lattice import BlackRect, WhiteRect


class TruncationError(ValueError):
    """Operator applied to a polynomial of degree at or above its truncation."""


# ---------------------------------------------------------------------------
# Dense polynomials (ascending coefficient tuples)
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


# ---------------------------------------------------------------------------
# Krawtchouk coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def krawtchouk_row(b: int, c: int) -> tuple[int, ...]:
    """``krawtchouk(a, b, c)`` for ``a = 0..b``, in ``O(b)`` big-integer operations.

    From ``(1-x^2) P' = ((b-2c) - b x) P`` for ``P = (1-x)^c (1+x)^{b-c}``:
    ``(a+1) p[a+1] = (b-2c) p[a] - (b-a+1) p[a-1]`` with ``p[0] = 1``; the
    division is exact.
    """
    if not 0 <= c <= b:
        raise ValueError(f"need 0 <= c <= b, got b={b}, c={c}")
    p = [0, 1]  # p[-1] = 0, p[0] = 1
    for a in range(b):
        p.append(((b - 2 * c) * p[-1] - (b - a + 1) * p[-2]) // (a + 1))
    return tuple(p[1:])


@lru_cache(maxsize=16)
def krawtchouk_column(a: int, b: int) -> tuple[int, ...]:
    """``krawtchouk(a, b, c)`` for ``c = 0..b``, in ``O(b)`` big-integer operations.

    Self-duality, ``C(b, c) Kr(a, b, c) = C(b, a) Kr(c, b, a)``, turns the
    recurrence of :func:`krawtchouk_row` into ``(b-c) f[c+1] = (b-2a) f[c] -
    c f[c-1]`` with ``f[0] = comb(b, a)``; the division is exact.
    """
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    f = [0, comb(b, a)]  # f[-1] = 0, f[0] = comb(b, a)
    for c in range(b):
        f.append(((b - 2 * a) * f[-1] - c * f[-2]) // (b - c))
    return tuple(f[1:])


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
# Superfactorials and Vandermonde products
# ---------------------------------------------------------------------------


def superfactorial(k: int) -> int:
    """``1! 2! ... k!``; the empty product 1 for ``k = 0``."""
    if k < 0:
        raise ValueError(f"superfactorial of negative {k}")
    out = 1
    for i in range(2, k + 1):
        out *= factorial(i)
    return out


def _superfactorial_or_one(k: int) -> int:
    # Prefactors of zero-width blocks need the empty-product reading at k = -1.
    return superfactorial(k) if k >= 0 else 1


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
# Holed-board determinant formulas
# ---------------------------------------------------------------------------


def holed_rectangle_closed_form(kind, n: int, m: int, d1: int, w0: int, notches: Sequence[int]) -> int:
    """Signed matching count of an ``n x (m+d1)`` rectangle with a black hole.

    The hole sits at ``(w0, m)``, ``d1`` rows below the top; matchings weigh
    ``(-1)`` per edge descending into the hole row left of the hole (the
    rule of :func:`aztecdimers.enumerate.weighted_count_rect`).  Evaluates
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
