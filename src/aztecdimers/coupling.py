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
so all arithmetic happens in :class:`DyadicRational`.

The signed inverse-Kasteleyn entry is exposed as :func:`coupling_signed`:
``(-1)^{d0+d1+w1}`` times ``c(v, w)`` for every hole offset.  Both
functions evaluate the same formula in the canonical diagonal labelling of
:mod:`aztecdimers.lattice`, which the ``verify`` suite and the tests hold
against the exact inverse-Kasteleyn oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import krawtchouk
from .exactlinalg import IntMatrix, det
from .lattice import Color, Pattern, Vertex, build_diamond, check_diamond_pair, validate_pattern


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

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        s = max(self.scale, other.scale)
        return DyadicRational(
            (self.numerator << (s - self.scale)) + (other.numerator << (s - other.scale)), s
        )

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        return self + (-other)

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(self.numerator * other.numerator, self.scale + other.scale)

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.numerator, self.scale)

    def __abs__(self) -> "DyadicRational":
        return DyadicRational(abs(self.numerator), self.scale)

    def __float__(self) -> float:
        return self.numerator / 2**self.scale

    def __str__(self) -> str:
        return f"{self.numerator} / 2^{self.scale}"


def _branch_sum(n: int, x: int, y: int, x2: int, y2: int) -> int:
    """The Krawtchouk sum of the coupling formula, sign included."""
    shift = x2 - x
    if shift > 0:
        return sum(
            krawtchouk(j, n, y - 1) * krawtchouk(y2 - 1, n - 1, n - (j + shift))
            for j in range(x)
        )
    return -sum(
        krawtchouk(j, n, y - 1) * krawtchouk(y2 - 1, n - 1, n - (j + shift))
        for j in range(x, n + 1)
    )


def _entry(n: int, v: Vertex, w: Vertex, sign: int) -> DyadicRational:
    """``sign * 2^{-n}`` times the branch sum at white ``v`` and black ``w``."""
    check_diamond_pair(n, v, w)
    return DyadicRational(sign * _branch_sum(n, v.x, v.y, w.x, w.y), n)


def coupling(n: int, v: Vertex, w: Vertex) -> DyadicRational:
    """The coupling function ``c(v, w)`` on the order-``n`` diamond.

    Its absolute value is the probability weight entering pattern
    determinants; for the signed inverse-Kasteleyn entry use
    :func:`coupling_signed`.
    """
    return _entry(n, v, w, 1)


def coupling_signed(n: int, w0: int, d0: int, w1: int, d1: int) -> DyadicRational:
    """Signed inverse-Kasteleyn entry for the black vertex ``(w0+d0, w1)``
    and white vertex ``(w0, w1+d1)``: ``(-1)^{d0+d1+w1}`` times their
    coupling value, for offsets of either sign.
    """
    sign = -1 if (d0 + d1 + w1) % 2 else 1
    return _entry(n, Vertex(Color.WHITE, w0, w1 + d1), Vertex(Color.BLACK, w0 + d0, w1), sign)


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

