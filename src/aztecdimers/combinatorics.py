"""Closed-form counting: the Krawtchouk kernel builders and the rectangle
product formulas.  This layer never touches a Kasteleyn matrix; the test
suite and ``verify`` certify it against :mod:`aztecdimers.enumerate` and
:mod:`aztecdimers.kasteleyn`.

* ``krawtchouk_row(b, c)`` and ``krawtchouk_column(a, b)``: the Krawtchouk
  coefficients ``Kr(a, b, c)`` of ``x^a`` in ``(1-x)^c (1+x)^{b-c}``, for all
  ``a`` and for all ``c``, which :mod:`aztecdimers.coupling` reads.  Each
  builds one line by a three-term recurrence in ``O(b)`` big-integer
  operations and keeps its last 16 lines cached.  Both lines are palindromes
  up to sign.  Reading ``P = (1-x)^c (1+x)^{b-c}`` backwards, ``x^b P(1/x) =
  (-1)^c P``, and swapping its factors, ``P(-x)``, give

      Kr(b-a, b, c) = (-1)^c Kr(a, b, c)   and   Kr(a, b, b-c) = (-1)^a Kr(a, b, c),

  so the entries past the middle index ``floor(b/2)`` are their mirrors'
  entries times a known sign.  Each recurrence therefore runs ``floor(b/2)``
  steps, up to the middle, and the line is completed by reflection.
* Matching counts of fully dented/toothed Aztec rectangles as scaled
  Vandermonde products.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Sequence


# ---------------------------------------------------------------------------
# Krawtchouk coefficients
# ---------------------------------------------------------------------------


def _mirrored(half: list[int], b: int, odd: int) -> tuple[int, ...]:
    """The full line ``0..b`` from its entries ``0..floor(b/2)``: entry ``b-i``
    is entry ``i``, negated when ``odd``."""
    tail = half[:b - b // 2][::-1]
    return tuple(half + ([-v for v in tail] if odd else tail))


@lru_cache(maxsize=16)
def krawtchouk_row(b: int, c: int) -> tuple[int, ...]:
    """``Kr(a, b, c)`` for ``a = 0..b``, in ``O(b)`` big-integer operations.

    From ``(1-x^2) P' = ((b-2c) - b x) P`` for ``P = (1-x)^c (1+x)^{b-c}``:
    ``(a+1) p[a+1] = (b-2c) p[a] - (b-a+1) p[a-1]`` with ``p[0] = 1``; the
    division is exact.  It runs for ``a < floor(b/2)``, and the row
    reflection ``p[b-a] = (-1)^c p[a]`` fills in the rest.
    """
    if not 0 <= c <= b:
        raise ValueError(f"need 0 <= c <= b, got b={b}, c={c}")
    slope, prev, cur = b - 2 * c, 0, 1
    p = [cur]
    for a in range(b // 2):
        prev, cur = cur, (slope * cur - (b - a + 1) * prev) // (a + 1)
        p.append(cur)
    return _mirrored(p, b, c % 2)


@lru_cache(maxsize=16)
def krawtchouk_column(a: int, b: int) -> tuple[int, ...]:
    """``Kr(a, b, c)`` for ``c = 0..b``, in ``O(b)`` big-integer operations.

    Self-duality, ``C(b, c) Kr(a, b, c) = C(b, a) Kr(c, b, a)``, turns the
    recurrence of :func:`krawtchouk_row` into ``(b-c) f[c+1] = (b-2a) f[c] -
    c f[c-1]`` with ``f[0] = comb(b, a)``; the division is exact.  It runs for
    ``c < floor(b/2)``, and the column reflection ``f[b-c] = (-1)^a f[c]``
    fills in the rest.
    """
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    slope, prev, cur = b - 2 * a, 0, comb(b, a)
    f = [cur]
    for c in range(b // 2):
        prev, cur = cur, (slope * cur - c * prev) // (b - c)
        f.append(cur)
    return _mirrored(f, b, a % 2)


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
