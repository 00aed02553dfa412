"""Command-line surface for exact Aztec-diamond tiling statistics.

Commands
--------
``count --n N``
    Exact number of tilings of the order-``N`` diamond, ``2^{N(N+1)/2}`` by
    the Aztec diamond theorem, annotated as that power of two; ``verify``
    holds the closed form against the Kasteleyn oracle.  When the decimal
    form would pass Python's int-to-str limit (``sys.get_int_max_str_digits()``,
    read as 4300 when it is 0), the command exits 2.

``coupling --n N --white X Y --black X Y``
    One coupling value as an exact dyadic rational plus a decimal
    approximation.  It costs ``O(N)`` big-integer operations.

``prob FILE``
    Probability of the pattern described by ``FILE`` (format below), as an
    exact reduced fraction ``p/2^s`` plus a decimal approximation.  Only this
    command loads :mod:`json`; only it and ``verify`` load ``det``, and only
    ``verify`` loads :mod:`fractions`, for the inverse-Kasteleyn oracle.

``heatmap --n N --d0 D0 --d1 D1 --out FILE``
    Signed inverse-Kasteleyn entries for every hole position ``(w0, w1)``
    at fixed offsets, as CSV with header ``w0,w1,numerator,scale,approx``.
    The exact columns are never rounded; ``approx`` is a 12-significant-
    digit round-half-even decimal and is not authoritative.  Output rows
    are sorted by ``w0`` then ``w1`` and byte-identical across runs.  The
    cells of one ``w0`` are one kernel row, written as soon as it returns.
    Its two Krawtchouk lines are one step, two subtractions per entry, from
    those of the row before, so the sweep costs ``O(N^2)`` big-integer
    operations and holds one row of output at a time; ``N`` above 400 needs
    ``--force``.

``verify --level quick|full``
    Run the oracle self-checks; exit 1 on any mismatch.  Only this command
    imports :mod:`~aztecdimers.verify` and the oracles it runs.

Only ``coupling``, ``prob`` and ``heatmap`` print a decimal, so ``count`` loads no
:mod:`decimal`; ``verify`` loads it only because :mod:`fractions` imports it.

Pattern files are JSON, one object::

    {"format": 1,
     "n": 3,
     "dominoes": [[["white", 1, 1], ["black", 1, 1]],
                  [["black", 2, 1], ["white", 1, 2]]]}

``format`` must be 1; ``format``, ``n`` and every coordinate must be JSON
integers, so ``true`` and ``false`` are rejected.  ``dominoes`` must be a
JSON list; ``[]`` is the empty pattern.  Each domino lists its
two cells as ``[color, x, y]`` triples in diagonal coordinates, one white
and one black in either order; the pair must be adjacent on the order-``n``
diamond and no cell may repeat.

Exit codes: 0 success, 1 verification failure, 2 usage error: a bad
argument or pattern file (malformed, too deeply nested, off the board), an
unreadable input or unwritable output path, or an exact value past the
int-to-str limit, which ``count``, ``coupling`` and ``prob`` name.  :func:`main`
prints every exit-2 message: argparse's, or an ``error:`` line for what a command raises.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, Optional, Sequence

# The sweep of signed kernel rows, integer numerators over 2^n, is the heatmap's one source of
# entries.  It keeps the name coupling_signed because bench/test_smoke.py patches that name with a
# five-argument function that negates its result: negating the sweep raises, so the patched heatmap
# fails every operation of the benchmark's gate, as negating a single row did before.
from .coupling import coupling, coupling_signed_rows as coupling_signed, hole_ranges, pattern_probability
from .lattice import Color, Edge, Vertex, black, white

HEATMAP_ORDER_LIMIT = 400

_COLORS = {color.value: color for color in Color}


def _divider(denominator: int) -> tuple[Callable, object]:
    """``divide`` of the one 12-significant-digit round-half-even decimal context, and ``denominator``
    as a ``Decimal``: ``str(divide(numerator, divisor))`` is the quotient's text.  The first call loads
    :mod:`decimal` and rebinds this name to a function that reuses that one context."""
    global _divider
    from decimal import Context, Decimal, ROUND_HALF_EVEN
    divide = Context(prec=12, rounding=ROUND_HALF_EVEN).divide

    def _divider(denominator: int) -> tuple[Callable, object]:
        return divide, Decimal(denominator)
    return _divider(denominator)


def _past_str_limit(what: str, limit: int) -> ValueError:
    return ValueError(f"{what} has more than {limit} digits, the int-to-str limit")


def _cmd_count(args: argparse.Namespace) -> int:
    e = args.n * (args.n + 1) // 2
    limit = sys.get_int_max_str_digits() or 4300
    if e > 4 * limit or math.floor(e * math.log10(2)) + 1 > limit:  # 2^e has over e/4 digits
        # Not 2^{e}: past about 2150-digit orders e itself is over the int-to-str limit.
        raise _past_str_limit("2^(n(n+1)/2)", limit)
    print(f"{2 ** e} (= 2^{e})")
    return 0


def _cmd_coupling(args: argparse.Namespace) -> int:
    value = coupling(args.n, white(*args.white), black(*args.black))
    divide, divisor = _divider(2**value.scale)
    try:
        print(f"{value} ({divide(value.numerator, divisor)!s})")
    except ValueError:  # str() of the numerator, before anything is printed
        raise _past_str_limit("the coupling value's numerator", sys.get_int_max_str_digits()) from None
    return 0


def _is_int(value: object) -> bool:
    """A JSON integer: ``bool`` is an ``int`` subclass, so exclude it."""
    return isinstance(value, int) and not isinstance(value, bool)


def load_pattern_file(path: str) -> tuple[int, tuple[Edge, ...]]:
    """Parse a pattern file into its diamond order and its dominoes, a tuple of
    ``(white, black)`` vertex pairs in file order, whichever cell each lists first."""
    import json  # only prob reads JSON
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        except ValueError as exc:  # an integer past the int-to-str limit
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object")
    fmt = doc.get("format")
    if not _is_int(fmt) or fmt != 1:
        raise ValueError(f"{path}: unsupported format {fmt!r} (expected 1)")
    n = doc.get("n")
    if not _is_int(n) or n < 1:
        raise ValueError(f"{path}: n must be a positive integer, got {n!r}")
    pairs = doc.get("dominoes")
    if not isinstance(pairs, list):
        raise ValueError(f"{path}: dominoes must be a JSON list, got {pairs!r}")
    dominoes = []
    for k, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"{path}: domino {k} must list exactly two cells")
        cells = []
        for cell in pair:
            if not (isinstance(cell, list) and len(cell) == 3):
                raise ValueError(f"{path}: domino {k}: cell must be [color, x, y]")
            color_name, x, y = cell
            color = _COLORS.get(color_name) if isinstance(color_name, str) else None
            if color is None:
                raise ValueError(f"{path}: domino {k}: unknown color {color_name!r}")
            if not _is_int(x) or not _is_int(y):
                raise ValueError(f"{path}: domino {k}: coordinates must be integers")
            cells.append(Vertex(color, x, y))
        if cells[0].color is cells[1].color:
            raise ValueError(f"{path}: domino {k} needs one white and one black cell")
        w, b = (cells[0], cells[1]) if cells[0].color is Color.WHITE else (cells[1], cells[0])
        dominoes.append((w, b))
    return n, tuple(dominoes)


def _cmd_prob(args: argparse.Namespace) -> int:
    n, pattern = load_pattern_file(args.pattern_file)
    num, scale = pattern_probability(n, pattern)
    denominator = 2**scale
    divide, divisor = _divider(denominator)
    try:
        print(f"{num}/{denominator} ({divide(num, divisor)!s})")
    except ValueError:  # str() of the denominator, which p <= 1 makes the longer, or the numerator
        raise _past_str_limit("the probability's denominator", sys.get_int_max_str_digits()) from None
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    n, d0, d1 = args.n, args.d0, args.d1
    w0s, w1s = hole_ranges(n, d0, d1)
    if not (w0s and w1s):
        raise ValueError(f"offsets d0={d0}, d1={d1} fit nowhere on the order-{n} diamond")
    # Opened first, so that a bad path fails before any cell is computed.
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("w0,w1,numerator,scale,approx\n")
        # s: white (x, y) <-> black (y, x) maps the diamond onto itself with K(s b, s v) = K(v, b), so
        # entry (w0, d0, w1, d1) is entry (w1, d1, w0, d0): the cells of one w0 are the kernel row over
        # w1s, and the rows of consecutive w0 are one walk.  A cell is s / 2^n for its row sum s: approx
        # divides s itself, and the exact columns are lowest_terms(s, n), inlined.  Setting bit n caps
        # the shift z at n and takes s = 0 to 0 / 2^0; |s| can exceed 2^n, so nothing else keeps z <= n.
        # Each row is one joined string and one write, with no Python call per cell: per-cell calls
        # would cost more than the kernel does.  The w0 text is made once per row and the ",w1," and
        # ",scale," pieces come from tables built here, so no small integer is formatted per cell.
        divide, divisor = _divider(2**n)
        cap = 1 << n
        w1_texts = [f",{w1}," for w1 in w1s]
        scale_texts = [f",{n - z}," for z in range(n + 1)]
        for w0_text, sums in zip(map(str, w0s), coupling_signed(n, w1s, d1, w0s, d0)):
            fh.write("".join([f"{w0_text}{w1_text}{s >> z}{scale_texts[z]}{divide(s, divisor)!s}\n"
                              for w1_text, s in zip(w1_texts, sums)
                              for low in [s | cap] for z in [(low & -low).bit_length() - 1]]))
    print(f"wrote {len(w0s) * len(w1s)} entries to {args.out}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify  # the oracles, which no other command needs

    results = verify.run_checks(args.level == "full")
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name} ({r.detail})")
        failed += 0 if r.ok else 1
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="aztec-dimers",
        description="Exact local statistics of random domino tilings of the Aztec diamond.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of tilings of the order-n diamond")
    p.add_argument("--n", type=_positive, required=True, help="diamond order")
    p.set_defaults(run=_cmd_count)

    p = sub.add_parser("coupling", help="one coupling value, exact plus decimal")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--white", type=int, nargs=2, metavar=("X", "Y"), required=True)
    p.add_argument("--black", type=int, nargs=2, metavar=("X", "Y"), required=True)
    p.set_defaults(run=_cmd_coupling)

    p = sub.add_parser("prob", help="probability of the pattern in a pattern file")
    p.add_argument("pattern_file", help="JSON pattern file (see module docs)")
    p.set_defaults(run=_cmd_prob)

    p = sub.add_parser("heatmap", help="CSV sweep of signed entries over hole positions")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--d0", type=int, required=True)
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--force", action="store_true", help="allow n beyond the cost guard")
    p.set_defaults(run=_cmd_heatmap)

    p = sub.add_parser("verify", help="run the oracle self-checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "heatmap" and args.n > HEATMAP_ORDER_LIMIT and not args.force:
        parser.error(f"n={args.n} exceeds the cost guard ({HEATMAP_ORDER_LIMIT}); pass --force")
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:  # BoardError, PatternError, the int-to-str limit
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
