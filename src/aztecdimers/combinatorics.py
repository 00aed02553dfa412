"""The Krawtchouk lines that the coupling kernel of
:mod:`aztecdimers.coupling` reads.  This layer never touches a Kasteleyn
matrix; the test suite and ``verify`` certify it against
:mod:`aztecdimers.enumerate` and :mod:`aztecdimers.kasteleyn`.  It stays a
module of its own because the benchmark's tracer reads its cache counters
as ``aztecdimers.combinatorics.krawtchouk_row``.

``krawtchouk_row(b, c)`` and ``krawtchouk_column(a, b)`` are the Krawtchouk
coefficients ``Kr(a, b, c)`` of ``x^a`` in ``(1-x)^c (1+x)^{b-c}``, for all
``a`` and for all ``c``, or their first ``size``.  Each runs a three-term
recurrence, ``O(b)`` big-integer operations, and caches 16 results by length.
Both lines are palindromes up to sign.  Reading ``P = (1-x)^c (1+x)^{b-c}``
backwards, ``x^b P(1/x) = (-1)^c P``, and swapping its factors, ``P(-x)``,
give

    Kr(b-a, b, c) = (-1)^c Kr(a, b, c)   and   Kr(a, b, b-c) = (-1)^a Kr(a, b, c),

so the entries past the middle index ``floor(b/2)`` are their mirrors'
entries times a known sign.  Each recurrence therefore runs up to the
middle at most, and a longer prefix is completed by reflection.

A sweep over consecutive lines needs no recurrence per line.  Multiplying
``P_c = (1-x)^c (1+x)^{b-c}`` by ``1-x`` or ``1+x`` gives the one-step identity
``(1+x) P_{c+1} = (1-x) P_c``, whose coefficient of ``x^a`` reads

    Kr(a, b, c+1) + Kr(a-1, b, c+1) = Kr(a, b, c) - Kr(a-1, b, c).

So :func:`next_krawtchouk_row` builds row ``c+1`` from row ``c``, and, read at
``x^{a+1}``, :func:`next_krawtchouk_column` builds column ``a+1`` from column
``a``, with two subtractions per entry and no division; neither is cached.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import comb


def _mirrored(half: list[int], b: int, odd: int, size: int | None = None) -> tuple[int, ...]:
    """Entries ``0..size-1`` of the line ``0..b``, all by default, from its first ``min(size,
    floor(b/2)+1)``: entry ``b-i`` is entry ``i``, negated when ``odd``."""
    tail = half[0 if size is None else b + 1 - size:b - b // 2][::-1]
    return tuple(half + ([-v for v in tail] if odd else tail))


@lru_cache(maxsize=16)
def krawtchouk_row(b: int, c: int, size: int | None = None) -> tuple[int, ...]:
    """``Kr(a, b, c)`` for ``a = 0..b``, or for ``a < size <= b+1``, in ``O(b)`` big-integer operations.

    From ``(1-x^2) P' = ((b-2c) - b x) P`` for ``P = (1-x)^c (1+x)^{b-c}``:
    ``(a+1) p[a+1] = (b-2c) p[a] - (b-a+1) p[a-1]`` with ``p[0] = 1``; the
    division is exact.  It runs for ``a < min(size-1, floor(b/2))``, and the
    row reflection ``p[b-a] = (-1)^c p[a]`` fills in the rest.
    """
    if not 0 <= c <= b:
        raise ValueError(f"need 0 <= c <= b, got b={b}, c={c}")
    if size is not None and not 1 <= size <= b + 1:
        raise ValueError(f"need 1 <= size <= b + 1, got b={b}, size={size}")
    slope, prev, cur = b - 2 * c, 0, 1
    p = [cur]
    for a in range(b // 2 if size is None else min(size - 1, b // 2)):
        prev, cur = cur, (slope * cur - (b - a + 1) * prev) // (a + 1)
        p.append(cur)
    return _mirrored(p, b, c % 2, size)


@lru_cache(maxsize=16)
def krawtchouk_column(a: int, b: int, size: int | None = None) -> tuple[int, ...]:
    """``Kr(a, b, c)`` for ``c = 0..b``, or for ``c < size <= b+1``, in ``O(b)`` big-integer operations.

    Self-duality, ``C(b, c) Kr(a, b, c) = C(b, a) Kr(c, b, a)``, turns the
    recurrence of :func:`krawtchouk_row` into ``(b-c) f[c+1] = (b-2a) f[c] -
    c f[c-1]`` with ``f[0] = comb(b, a)``; the division is exact.  It runs for
    ``c < min(size-1, floor(b/2))``, and the column reflection ``f[b-c] =
    (-1)^a f[c]`` fills in the rest.
    """
    if not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
    if size is not None and not 1 <= size <= b + 1:
        raise ValueError(f"need 1 <= size <= b + 1, got b={b}, size={size}")
    slope, prev, cur = b - 2 * a, 0, comb(b, a)
    f = [cur]
    for c in range(b // 2 if size is None else min(size - 1, b // 2)):
        prev, cur = cur, (slope * cur - c * prev) // (b - c)
        f.append(cur)
    return _mirrored(f, b, a % 2, size)


def next_krawtchouk_row(p: tuple[int, ...], c: int) -> tuple[int, ...]:
    """``Kr(., b, c+1)`` from the row ``p = Kr(., b, c)`` of :func:`krawtchouk_row`:
    ``q[a] = p[a] - p[a-1] - q[a-1]``, with entries at ``a = -1`` read as 0, up to the
    middle index, and the row reflection for ``c+1`` fills in the rest."""
    b = len(p) - 1
    if not 0 <= c < b:
        raise ValueError(f"need 0 <= c < b, got b={b}, c={c}")
    q, last, cur = [], 0, 0
    for v in islice(p, b // 2 + 1):
        last, cur = v, v - last - cur
        q.append(cur)
    return _mirrored(q, b, (c + 1) % 2)


def next_krawtchouk_column(f: tuple[int, ...], a: int) -> tuple[int, ...]:
    """``Kr(a+1, b, .)`` from the column ``f = Kr(a, b, .)`` of :func:`krawtchouk_column`:
    ``g[c+1] = g[c] - f[c] - f[c+1]`` with ``g[0] = comb(b, a+1)``, up to the middle index,
    and the column reflection for ``a+1`` fills in the rest."""
    b = len(f) - 1
    if not 0 <= a < b:
        raise ValueError(f"need 0 <= a < b, got a={a}, b={b}")
    cur = comb(b, a + 1)
    g, last = [cur], f[0]
    for v in islice(f, 1, b // 2 + 1):
        last, cur = v, cur - last - v
        g.append(cur)
    return _mirrored(g, b, (a + 1) % 2)
