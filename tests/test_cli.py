"""Command-line surface: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from decimal import Context, Decimal, ROUND_HALF_EVEN
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aztecdimers import cli
from aztecdimers import combinatorics
from aztecdimers import coupling as coupling_mod
from aztecdimers.cli import load_pattern_file, main
from aztecdimers.coupling import coupling_signed, coupling_signed_rows, lowest_terms


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_annotates_powers_of_two(capsys):
    code, out, _ = run(capsys, "count", "--n", "3")
    assert code == 0
    assert out.strip() == "64 (= 2^6)"


def test_count_order_six(capsys):
    code, out, _ = run(capsys, "count", "--n", "6")
    assert code == 0
    assert out.strip() == "2097152 (= 2^21)"


@pytest.fixture
def str_digits_limit():
    """Set the interpreter's int-to-str digit limit for one test."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("limit", [4300, 0])
def test_count_stops_at_the_int_to_str_limit(capsys, str_digits_limit, limit):
    # 2^14196 has 4274 digits and 2^14365 has 4325; a limit of 0 reads as 4300.
    # At an order of 2201 digits n(n+1)/2 itself has over 4300, so the message must not print it.
    str_digits_limit(limit)
    code, out, _ = run(capsys, "count", "--n", "168")
    assert code == 0
    assert out == f"{2 ** 14196} (= 2^14196)\n"
    for n in ("169", str(10**9), str(10**200), "1" + "0" * 2200):
        code, out, err = run(capsys, "count", "--n", n)
        assert code == 2 and out == ""
        assert err == "error: 2^(n(n+1)/2) has more than 4300 digits, the int-to-str limit\n"


def test_coupling_and_prob_stop_at_the_int_to_str_limit(tmp_path, capsys):
    # The numerator of this n = 2400 entry, and the reduced denominator of an
    # 8-domino probability at n = 300, both have more than 640 digits.
    dominoes = [[["white", x, 150], ["black", x, 150]] for x in range(150, 166, 2)]
    doc = {"format": 1, "n": 300, "dominoes": dominoes}
    path = tmp_path / "row.json"
    path.write_text(json.dumps(doc))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv, what in (
            (("coupling", "--n", "2400", "--white", "1200", "1200", "--black", "1201", "1200"),
             "the coupling value's numerator"),
            (("prob", str(path)), "the probability's denominator"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: {what} has more than 640 digits, the int-to-str limit\n"
    finally:
        sys.set_int_max_str_digits(old)


def test_count_rejects_nonpositive_order(capsys):
    assert run(capsys, "count", "--n", "0") == (2, "", "error: argument --n: must be a positive integer, got 0\n")


def test_coupling_output_format(capsys):
    code, out, _ = run(capsys, "coupling", "--n", "2", "--white", "1", "1", "--black", "2", "1")
    assert code == 0
    assert out.strip() == "1 / 2^2 (0.25)"


def test_coupling_out_of_range_is_usage_error(capsys):
    code, _, err = run(capsys, "coupling", "--n", "2", "--white", "9", "9", "--black", "1", "1")
    assert code == 2
    assert "error" in err


def test_prob_empty_pattern(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"format": 1, "n": 3, "dominoes": []}))
    code, out, _ = run(capsys, "prob", str(path))
    assert code == 0
    assert out == "1/1 (1)\n"


def test_prob_single_domino(tmp_path, capsys):
    doc = {"format": 1, "n": 2, "dominoes": [[["white", 1, 1], ["black", 1, 1]]]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "prob", str(path))
    assert code == 0
    # 6 of the 8 tilings of the order-2 diamond contain this domino.
    assert out.strip() == "3/4 (0.75)"


def test_prob_accepts_black_first_ordering(tmp_path):
    doc = {"format": 1, "n": 2, "dominoes": [[["black", 1, 1], ["white", 1, 1]]]}
    path = tmp_path / "rev.json"
    path.write_text(json.dumps(doc))
    n, pattern = load_pattern_file(str(path))
    assert n == 2
    assert pattern[0][0].color.value == "white"


@pytest.mark.parametrize(
    "text",
    [
        '{"format": 1, "n": 3}',
        '{"format": 1, "n": 3, "dominoes": {}}',
        '{"format": 1, "n": 3, "dominoes": null}',
        "[" * 100_000 + "]" * 100_000,
        '{"format": 1, "n": 3, "dominoes": ' + "[" * 100_000 + "]" * 100_000 + "}",
    ],
    ids=["missing", "object", "null", "deep-array", "deep-dominoes"],
)
def test_prob_rejects_pattern_files_without_a_dominoes_list(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "prob", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_prob_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format": 1,\n "n": 3,\n "dominoes": [[\n}')
    code, _, err = run(capsys, "prob", str(path))
    assert code == 2
    assert "line 4" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"format": 2, "n": 3, "dominoes": []},
        {"format": 1, "n": 0, "dominoes": []},
        {"format": 1, "n": 3, "dominoes": [[["white", 1, 1]]]},
        {"format": 1, "n": 3, "dominoes": [[["white", 1, 1], ["white", 1, 2]]]},
        {"format": 1, "n": 3, "dominoes": [[["mauve", 1, 1], ["black", 1, 1]]]},
        {"format": 1, "n": 3, "dominoes": [[["white", 1, "x"], ["black", 1, 1]]]},
    ],
)
def test_prob_rejects_malformed_documents(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "prob", str(path))
    assert code == 2
    assert err


@pytest.mark.parametrize("color", ["WHITE", "red", ["white"], {"c": 1}, None, 1, True])
def test_prob_names_an_unknown_color_exactly(tmp_path, capsys, color):
    # Color names are exact lowercase JSON strings; any other value, hashable
    # or not, is named by its repr, ahead of the coordinates of its own cell.
    path = tmp_path / "color.json"
    path.write_text(json.dumps({"format": 1, "n": 3, "dominoes": [
        [["white", 1, 1], ["black", 1, 1]], [[color, "x", 2], ["black", 2, 2]]]}))
    assert run(capsys, "prob", str(path)) == (2, "", f"error: {path}: domino 1: unknown color {color!r}\n")


@pytest.mark.parametrize("color", ["white", "black"])
def test_prob_names_a_domino_with_two_cells_of_one_color(tmp_path, capsys, color):
    path = tmp_path / "same.json"
    path.write_text(json.dumps({"format": 1, "n": 3, "dominoes": [[[color, 1, 1], [color, 1, 2]]]}))
    assert run(capsys, "prob", str(path)) == (2, "", f"error: {path}: domino 0 needs one white and one black cell\n")


@pytest.mark.parametrize(
    "dominoes,message",
    [
        ([[["white", 1, 1], ["black", 1, 1]], [["black", 2, 1], ["white", 1, 1]],
          [["white", 0, 1], ["black", 1, 1]]], "vertex W(1,1) covered twice"),
        ([[["white", 1, 1], ["black", 1, 1]], [["black", 1, 1], ["white", 1, 2]]], "vertex B(1,1) covered twice"),
        ([[["white", 1, 1], ["black", 1, 1]], [["white", 1, 1], ["black", 3, 1]]],
         "(W(1,1), B(3,1)) is not a domino of the board"),
        ([[["white", 2, 2], ["black", 2, 2]], [["white", 0, 1], ["black", 1, 1]]],
         "(W(0,1), B(1,1)) is not a domino of the board"),
    ],
    ids=["repeat-before-off-board", "black-repeat", "off-board-and-repeat", "off-board"],
)
def test_prob_reports_the_first_bad_domino_in_file_order(tmp_path, capsys, dominoes, message):
    # Dominoes are checked in file order, each for its edge before its repeats.
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"format": 1, "n": 3, "dominoes": dominoes}))
    assert run(capsys, "prob", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "doc",
    [
        {"format": True, "n": 1, "dominoes": [[["white", 1, 1], ["black", 1, 1]]]},
        {"format": 1, "n": True, "dominoes": [[["white", 1, 1], ["black", 1, 1]]]},
        {"format": 1, "n": 1, "dominoes": [[["white", True, 1], ["black", 1, 1]]]},
        {"format": 1, "n": 1, "dominoes": [[["white", 1, True], ["black", 1, 1]]]},
        {"format": 1, "n": 1, "dominoes": [[["white", 1, 1], ["black", True, 1]]]},
        {"format": 1, "n": 1, "dominoes": [[["white", 1, 1], ["black", 1, True]]]},
    ],
    ids=["format", "n", "white-x", "white-y", "black-x", "black-y"],
)
def test_prob_rejects_bool_typed_integers(tmp_path, capsys, doc):
    # JSON true == 1 in Python; with 1 in place of the bool each document
    # is the valid single-domino pattern of order 1.
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc).replace("true", "1"))
    assert run(capsys, "prob", str(path))[:2] == (0, "1/2 (0.5)\n")
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "prob", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_prob_names_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": 1, "n": 1, "dominoes": [], "note": "\xff"}')
    code, out, err = run(capsys, "prob", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not UTF-8") and "Traceback" not in err


def test_prob_names_a_file_with_an_integer_past_the_str_limit(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"format": 1, "n": ' + "9" * 5000 + ', "dominoes": []}')
    code, out, err = run(capsys, "prob", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


_JSON_LEAVES = st.none() | st.booleans() | st.integers(-3, 45) | st.floats() | st.text(max_size=6)
# st.recursive alone draws containers far more often than leaves.
_JSON_VALUES = _JSON_LEAVES | st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _pattern_documents(draw):
    """A pattern file of order at most 40 near the valid ones: dominoes of adjacent cells, some
    off the board or repeated, then maybe one field, domino, cell or cell entry replaced by any
    JSON value."""
    n = draw(st.integers(1, 40))
    dominoes = []
    for _ in range(draw(st.integers(0, 4))):
        x, y = draw(st.integers(0, n + 1)), draw(st.integers(0, n + 2))
        dx, dy = draw(st.sampled_from(((0, 0), (1, 0), (0, -1), (1, -1))))
        cells = [["white", x, y], ["black", x + dx, y + dy]]
        dominoes.append(cells[::-1] if draw(st.booleans()) else cells)
    doc = {"format": 1, "n": n, "dominoes": dominoes}
    where = draw(st.sampled_from(("none", "format", "n", "dominoes", "domino", "cell", "entry")))
    if where in doc:
        doc[where] = draw(_JSON_VALUES)
    elif where == "domino" and dominoes:
        dominoes[0] = draw(_JSON_VALUES)
    elif where == "cell" and dominoes:
        dominoes[0][draw(st.integers(0, 1))] = draw(_JSON_VALUES)
    elif where == "entry" and dominoes:
        dominoes[0][draw(st.integers(0, 1))][draw(st.integers(0, 2))] = draw(_JSON_VALUES)
    return json.dumps(doc).encode()


@settings(max_examples=150, deadline=None)
@given(content=st.binary(max_size=80) | _pattern_documents())
def test_prob_fuzzed_pattern_files_exit_cleanly(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.json")
        with open(path, "wb") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["prob", path])  # an uncaught exception fails the test
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""
    else:
        assert err.getvalue() == "" and "/" in out.getvalue()


# count takes any integer text, some 1..5001 digits long: past about 155 digits n(n+1)/2 overflows a float.
# Other orders stay at most 60 or pass the heatmap cost guard with no --force, so no large work starts.
_ANY_INTEGER = st.integers() | st.builds("{}{}".format, st.integers(1, 9), st.integers(0, 5000).map("0".__mul__))
_XY = st.integers(-10**30, 10**30)
_ARGV = {
    "count": st.tuples(st.just("--n"), _ANY_INTEGER),
    "coupling": st.tuples(
        st.just("--n"), st.integers(-3, 60), st.just("--white"), _XY, _XY, st.just("--black"), _XY, _XY
    ),
    "heatmap": st.tuples(
        st.just("--n"), st.integers(-3, 60) | st.integers(401, 10**30), st.just("--d0"), _XY, st.just("--d1"), _XY
    ),
}


@pytest.mark.parametrize("command", sorted(_ARGV))
@settings(max_examples=100, deadline=2000)
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *map(str, data.draw(_ARGV[command]))]
        argv += ["--out", os.path.join(tmp, "h.csv")] * (command == "heatmap")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)  # an uncaught exception fails the test
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1 and out.getvalue() == ""


_COMMAND_CHOICES = "the command must be one of count, coupling, prob, heatmap, verify"
_HEATMAP = ("heatmap", "--n", "4", "--d0", "1", "--d1", "1", "--out", "h.csv")


@pytest.mark.parametrize(
    "argv,message",
    [
        ((), f"{_COMMAND_CHOICES}, got ''"),
        (("bogus", "--n", "3"), f"{_COMMAND_CHOICES}, got 'bogus'"),
        (("count", "--m", "3"), "unrecognized argument: '--m'"),
        (("coupling", "--n", "2", "--wh", "1", "1", "--black", "2", "1"), "unrecognized argument: '--wh'"),
        (("coupling", "--n", "2", "--black", "2", "1"), "the following arguments are required: --white"),
        (("heatmap", "--n", "4", "--out", "h.csv"), "the following arguments are required: --d0, --d1"),
        (("coupling", "--n", "2", "--white", "1", "--black", "2", "1"), "argument --white: expected 2 values"),
        (("coupling", "--n", "2", "--white", "1", "1", "--black", "2"), "argument --black: expected 2 values"),
        (("coupling", "--n", "2", "--white", "1", "x", "--black", "2", "1"),
         "argument --white: invalid literal for int() with base 10: 'x'"),
        (("count", "--n", "2.5"), "argument --n: invalid literal for int() with base 10: '2.5'"),
        (("heatmap", "--n", "0", *_HEATMAP[3:]), "argument --n: must be a positive integer, got 0"),
        (("count", "--n", "-1"), "argument --n: must be a positive integer, got -1"),
        (("count", "--n", "3", "extra"), "unrecognized argument: 'extra'"),
        (("count", "", "--n", "3"), "unrecognized argument: ''"),
        (("prob",), "prob takes one pattern file, got 0 arguments"),
        (("prob", "a.json", "b.json"), "prob takes one pattern file, got 2 arguments"),
        (("count", "--n=0"), "argument --n: must be a positive integer, got 0"),
        (("count", "--n="), "argument --n: invalid literal for int() with base 10: ''"),
        (("coupling", "--n=2", "--white=1", "1", "--black", "2", "1"), "argument --white: expected 2 values"),
        ((*_HEATMAP, "--force=yes"), "argument --force: expected 0 values"),
        (("verify", "--level=bogus"), "argument --level: invalid choice: 'bogus' (choose from 'quick', 'full')"),
        (("verify", "--level"), "argument --level: expected 1 value"),
        # After a space a value may be a negative integer, but nothing else that starts with "-".
        (("heatmap", "--n", "2", "--d0", "-3", "--d1", "1", "--out", "h.csv"),
         "offsets d0=-3, d1=1 fit nowhere on the order-2 diamond"),
        (("heatmap", "--n", "4", "--d0", "1", "--d1", "1", "--out", "--force"), "argument --out: expected 1 value"),
        (("heatmap", "--n", "4", "--d0", "1", "--d1", "1", "--out", "-"), "argument --out: expected 1 value"),
    ],
)
def test_usage_errors_are_one_exact_line(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("count", "-h"), ("prob", "--help"), (*_HEATMAP, "-h")])
def test_help_prints_the_module_docstring(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, cli.__doc__, "")
    assert all(f"``{command} " in out for command in ("count", "coupling", "prob", "heatmap", "verify"))


# Tokens for argv: every option name, alone or as --opt=value, bare words (-h among them), integers and empty
# strings.  Integers stay in -3..60, so no --n starts large work, and no token is "full", so verify runs at
# most its quick checks.
_OPTION_VALUES = {"--n": 1, "--white": 2, "--black": 2, "--d0": 1, "--d1": 1, "--out": 1, "--force": 0, "--level": 1}
_COMMAND_OPTIONS = {"count": ["--n"], "coupling": ["--n", "--white", "--black"], "prob": [],
                    "heatmap": ["--n", "--d0", "--d1", "--out", "--force"], "verify": ["--level"]}
_INTEGER = st.integers(-3, 60).map(str)
_WORD = st.sampled_from(["quick", "p.json", "h.csv", "x", "-h", "--help", "-", "-x", "--", "=", "count"])
_VALUE = _INTEGER | _WORD | st.just("")
_OPTION = st.sampled_from(sorted(_OPTION_VALUES))
_TOKEN = _OPTION | st.builds("{}={}".format, _OPTION, _VALUE) | _VALUE


@st.composite
def _argv(draw):
    """One command's options in any order, each with its number of values, then up to three tokens
    replaced, inserted or deleted, or an option joined to its value by "="."""
    command = draw(st.sampled_from(sorted(_COMMAND_OPTIONS)))
    argv = ["p.json"] if command == "prob" else []
    for name in draw(st.permutations(_COMMAND_OPTIONS[command])):
        text = {"--out": st.just("h.csv"), "--level": st.just("quick")}.get(name, _INTEGER)
        argv += [name, *[draw(text) for _ in range(_OPTION_VALUES[name])]]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "join"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(_TOKEN))
        elif edit == "replace":
            argv[i] = draw(_TOKEN)
        elif edit == "delete":
            del argv[i]
        elif argv[i] in _OPTION_VALUES and i + 1 < len(argv):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return [command, *argv]


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_fuzzed_argv_tokens_exit_cleanly(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        Path("p.json").write_text(json.dumps({"format": 1, "n": 3, "dominoes": [[["white", 1, 1], ["black", 1, 1]]]}))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)  # an uncaught exception fails the test
        finally:
            os.chdir(cwd)
    assert code in (0, 2) and "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1 and out.getvalue() == ""
    else:
        assert err.getvalue() == "" and out.getvalue()


def test_prob_rejects_overlapping_pattern(tmp_path, capsys):
    doc = {
        "format": 1,
        "n": 2,
        "dominoes": [
            [["white", 1, 1], ["black", 1, 1]],
            [["white", 1, 1], ["black", 2, 1]],
        ],
    }
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "prob", str(path))
    assert code == 2
    assert "twice" in err


def test_heatmap_contents_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _, _ = run(capsys, "heatmap", "--n", "6", "--d0", "1", "--d1", "2", "--out", str(out1))
    assert code == 0
    text = out1.read_bytes()
    lines = text.decode().splitlines()
    assert lines[0] == "w0,w1,numerator,scale,approx"
    assert len(lines) == 1 + 6 * 5  # w0 in 1..6, w1 in 1..5

    cells = []
    for line in lines[1:]:
        w0, w1, num, scale, _ = line.split(",")
        value = coupling_signed(6, int(w0), 1, int(w1), 2)
        assert (value.numerator, value.scale) == (int(num), int(scale))
        cells.append((int(w0), int(w1)))
    assert cells == sorted(cells)

    code, _, _ = run(capsys, "heatmap", "--n", "6", "--d0", "1", "--d1", "2", "--out", str(out2))
    assert code == 0
    assert out2.read_bytes() == text


@pytest.fixture
def kernel_calls(monkeypatch):
    """The shift and the number of sums of every call of the coupling kernel during one test."""
    calls, kernel = [], coupling_mod._branch_sums

    def spy(row, column, shift):
        sums = kernel(row, column, shift)
        calls.append((shift, len(sums)))
        return sums

    monkeypatch.setattr(coupling_mod, "_branch_sums", spy)
    return calls


def test_heatmap_builds_each_kernel_row_once(tmp_path, capsys, kernel_calls):
    # At d1 = 2 the cells are w0 in 1..40 and w1 in 1..39.  Each w0 is one
    # row of the coupling kernel; the O(n^2) cost of the sweep rests on
    # evaluating each row in one kernel call over every w1.
    code, _, _ = run(capsys, "heatmap", "--n", "40", "--d0", "1", "--d1", "2", "--out", str(tmp_path / "h.csv"))
    assert code == 0
    assert kernel_calls == [(2, 39)] * 40


@pytest.mark.parametrize("d0,d1", [(1, 2), (-3, -1)])
def test_heatmap_sweep_misses_each_line_cache_at_most_once(tmp_path, capsys, d0, d1):
    # The first row reads its two lines from the cached builders; every later row's lines are one
    # step from the row before, so a 40-row sweep does not miss either cache again.
    combinatorics.krawtchouk_row.cache_clear()
    combinatorics.krawtchouk_column.cache_clear()
    argv = ["heatmap", "--n", "40", "--d0", str(d0), "--d1", str(d1), "--out", str(tmp_path / "h.csv")]
    assert run(capsys, *argv)[0] == 0
    assert combinatorics.krawtchouk_row.cache_info().misses == 1
    assert combinatorics.krawtchouk_column.cache_info().misses == 1


def test_heatmap_cost_guard(tmp_path, capsys, kernel_calls):
    # Checked before --out is opened, so a refused sweep leaves no file behind.
    argv = ["heatmap", "--n", "401", "--d0", "1", "--d1", "2", "--out", str(tmp_path / "x.csv")]
    assert run(capsys, *argv) == (2, "", "error: n=401 exceeds the cost guard (400); pass --force\n")
    assert not (tmp_path / "x.csv").exists() and kernel_calls == []


def test_heatmap_force_flag_accepted(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code, _, _ = run(capsys, "heatmap", "--n", "4", "--d0", "1", "--d1", "1", "--out", str(out), "--force")
    assert code == 0


def test_heatmap_unwritable_output_fails_before_the_sweep(tmp_path, capsys, kernel_calls):
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = run(capsys, "heatmap", "--n", "6", "--d0", "1", "--d1", "2", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert kernel_calls == []  # no cell was computed


# sha256 of the heatmap CSV bytes, recorded before the coupling kernel took
# whole rows at once: a faster kernel counts only if these stay the same.
HEATMAP_SHA256 = {
    (1, 1, 1): "5b08f3014f2f9d5bd6ffdbd014d878fca94f08b557b29ed419a95ff249cc1e01",
    (1, 0, 0): "5f4495f666050bc14541aaa827ea7a73bffe4a86895e9023568521d0bcf29e49",
    (2, 1, 1): "ba21d238530070afd105b926e874ba8d82be6ae11d0dd9c8ded1f945063dd223",
    (2, 0, 0): "2bd832e615ce91d1d04982647bea6faa61e8334a6de2ac08a872fbd2afe60e66",
    (2, -1, -1): "f74c1e6c1477e989ecac7016410e28929b7fea97ed539c61fd7d5d7852aa56e8",
    (2, 1, -1): "d129d0e97079daad0c6ecc5d11625d823a029fe5ded0fba74ec32e49685bed57",
    (2, -1, 2): "8058cae183cb243040dc429a4c114706f6334c5de0c3bdcd3b0c911e18957ecc",
    (3, 1, 1): "f4c9c70f5f0760d3c77097ad622e46b8b8568d8a0d309652a47840cabaf86fb3",
    (3, 0, 0): "d2ce7ff296bc511367a2b15c62328879028cdef633486a64b57172bf6d8689a1",
    (3, -1, -1): "dc826d840b1409f5bdc558a4274da46b910bdedf9a12fc07302f44354b422612",
    (3, 1, -1): "a3086579386e344bc5d1d5f75c8967b93c8d4ce6edc837cd7dc279c89ea06be3",
    (3, -1, 2): "9e463ac57879cf57fd43b68247c0a91f2939b16654ecd23d1ac93ec49165cb4d",
    (4, 1, 1): "97c4e380672f7c7917174aa992fbebe3af0d1c39adee9b79d8b322be52e5bf86",
    (4, 0, 0): "8059488532b479cd5e48b28e7c809895031b9166e32206c807c26dcc0a5736c8",
    (4, -1, -1): "f4abad6d6c933228e0bd438ab8e2032ce865f377ee845483320bf7f4c7daefd1",
    (4, 1, -1): "a42a0583e9d32bc1b2e8aa4c92fffef5f1ccc8a11bd018c9e8348ae0edd73400",
    (4, -1, 2): "2aae9c41b71494263671e7e0df56001fe27fde96d08943d9cb7982b3ff559445",
    (4, 2, -3): "838950e1fe4a911227a03a6ae980c66e5424f0da8a7d8ad5db6dde370e524a4c",
    (5, 1, 1): "8f0c5ebdfb08292fd663f6475d9e70e6e6e4a41513762df94394797a0298ec68",
    (5, 0, 0): "2da992e996a995fddbfc2d2fe16097916eb433f6fe751d1d3e81280ecd10ddcd",
    (5, -1, -1): "3b46d57c8f6315630416a4e0589e400ba00f91c13cdda7ab53c6050eb50ee34d",
    (5, 1, -1): "9cfc25161ed8d761d3bc9b158bb90e1cdba65eaa6bf6083ff700771a0467e149",
    (5, -1, 2): "80166897a3a6208685802bab293c51b5b6c563cf6899cf3b67f357a14908bb93",
    (5, 2, -3): "e78cccbd9274011fe47ed3b8629def92f2047e05108370a4cf5b4845c7fa0989",
    (6, 1, 1): "714de5f2c35cb9f63a1d499d6293a2aba9f1a35e47012ae6ea0d448e681ba4f6",
    (6, 0, 0): "3ed6e1bc1bb112313fada560058bee9578a57bdc08c3f938308f94cc62787562",
    (6, -1, -1): "b81f3b6513269640ae432f093faf7fc634200853c038d993d5cf4011abdc23cf",
    (6, 1, -1): "dab33678c46a1bb678bfa30144fb853d3b058d5b2c0e92bd55619e426156e4a0",
    (6, -1, 2): "697611cc1ea1e3d835b86dc49363933d8a649a3312d179e1d3eeed94b4fa1b48",
    (6, 2, -3): "42b0e60fc05f70c483a8b28437eed86bdfb3bd0197de5f0bd3adb6a542e6d8d7",
    (40, 1, 1): "d0ddf99ff6da1cb0d5a91e6db47aad51d7cc1b4054d3827b3b529370b674d3f3",
    (40, 0, 0): "310e016a7af2c94e1f585f6ee4c46f03a2b2898e420cbbfcee3b8305d1ffa560",
    (40, -1, -1): "7fd4087b4ca4aa4940de03b9734784f23ef77df1d469e38f907f660aecf3d3dc",
    (40, 1, -1): "7fe64db03a326230e50e3316a1b27d1d641d20401b6d7da52e8edeadc7e09867",
    (40, -1, 2): "3d23ece70c398aead23be2901cc736611494ef2bc51e5d27f3ec25894f9749c9",
    (40, 2, -3): "d23a5e9c7753c8ae149866162d051f4408fc1aaa3a836f03a13bf07a3cc9fdaa",
    (200, 1, 2): "e2e3d6b604e04627b579db0d8a7da6f6e7a542f5ef5f344efb14082d66f2ebae",
    # The benchmark's shapes, at offsets of both signs, recorded before cells skipped DyadicRational.
    (120, 2, -1): "ab1178cd7660002b7a111f38b10e63d5d8bdcf349136435dc2b17101b76d9944",
    (160, -3, 2): "171a790a6facc63043124939ea1c1049155541dce71de8db98abc428a7a790d2",
    (200, 1, -3): "cc4605bc93c19eef4517ce3d5b0fad18ee97e06849835e4ce7470a91a79c0f08",
    (200, -2, -1): "c72df773251865dab12dc65e54935e77787da552ec6ec15ad5d82cd376711b46",
    # Cells with |c| up to 82, recorded before heatmap inlined the capped cell reduction.
    (12, -6, -6): "dec037ec015380306f21e09d61b5513065e61c3a1c5becc5005398bca01492bd",
}


@pytest.mark.parametrize("n,d0,d1", sorted(HEATMAP_SHA256))
def test_heatmap_output_bytes_are_pinned(tmp_path, capsys, n, d0, d1):
    out = tmp_path / "h.csv"
    code, stdout, err = run(capsys, "heatmap", "--n", str(n), "--d0", str(d0), "--d1", str(d1), "--out", str(out))
    assert (code, err) == (0, "")
    assert stdout == f"wrote {out.read_text().count(chr(10)) - 1} entries to {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HEATMAP_SHA256[n, d0, d1]


def heatmap_lines(capsys, tmp_path, n, d0, d1):
    out = tmp_path / "h.csv"
    code, _, _ = run(capsys, "heatmap", "--n", str(n), "--d0", str(d0), "--d1", str(d1), "--out", str(out))
    assert code == 0
    return out.read_text().splitlines()[1:]


def test_heatmap_pin_past_the_unit_bound_has_cells_over_one():
    # The (12, -6, -6) pin has |s| > 2^n: no bound |s| <= 2^n backs the heatmap's capped reduction.
    n, d0, d1 = 12, -6, -6
    assert max(abs(s) for row in coupling_signed_rows(n, d1, d0) for s in row) > 82 * 2**n


def test_heatmap_caps_the_reduction_at_the_scale(tmp_path, capsys, monkeypatch):
    # Row sums with n, more than n, and no trailing zero bits, and zero, which has scale 0.
    n = 7
    sums = [0, 1, -1, 2**n, -(2**n), 3 * 2**n, 2 ** (n + 3)]
    monkeypatch.setattr(cli, "coupling_signed", lambda n, d0, d1: [sums] * n)
    row = ["0,0,0", "1,7,0.0078125", "-1,7,-0.0078125", "1,0,1", "-1,0,-1", "3,0,3", "8,0,8"]
    want = [f"{w0},{w1},{cell}" for w0 in range(1, n + 1) for w1, cell in zip(range(1, n + 1), row)]
    assert heatmap_lines(capsys, tmp_path, n, 0, 0) == want


def test_heatmap_makes_no_python_call_per_cell(tmp_path, capsys):
    # Python-level calls per sweep grow with the rows, not the cells: a call per cell would add
    # at least 79 for each row from n = 40 to n = 80.
    def python_calls(n):
        calls = []
        argv = ["heatmap", "--n", str(n), "--d0", "1", "--d1", "2", "--out", str(tmp_path / "h.csv")]
        sys.setprofile(lambda frame, event, arg: calls.append(None) if event == "call" else None)
        try:
            assert main(argv) == 0
        finally:
            sys.setprofile(None)
        return len(calls)

    python_calls(40)  # decimal loads, and its context is built, on the first call in a process
    at_40, at_80 = python_calls(40), python_calls(80)
    assert at_80 - at_40 < 20 * (80 - 40), (at_40, at_80)


def approx(numerator, denominator):
    divide, divisor = cli._divider(denominator)
    return str(divide(numerator, divisor))


@pytest.mark.parametrize(
    "num,scale,text",
    [
        (1, 18, "0.00000381469726562"),  # 5^18 = 3814697265625: a tie, rounded to the even 2
        (0, 0, "0"),
        (1, 0, "1"),
        (-1, 0, "-1"),
        (1, 400, "3.87259191485E-121"),
    ],
)
def test_dyadic_approx_fixed_cases(num, scale, text):
    assert approx(num, 2**scale) == text


@settings(max_examples=300, deadline=None)
@given(num=st.integers(-(2**420), 2**420), scale=st.integers(0, 400))
def test_heatmap_approx_rounds_the_unreduced_value_half_even(num, scale):
    # The heatmap divides the raw row sum by 2^n, and coupling divides the reduced numerator by its
    # own power of two: both must give the same text, the exact value at 12 digits, half-even.
    want = str(Context(prec=12, rounding=ROUND_HALF_EVEN).divide(Decimal(num), Decimal(2**scale)))
    reduced, reduced_scale = lowest_terms(num, scale)
    assert approx(num, 2**scale) == approx(reduced, 2**reduced_scale) == want


@pytest.fixture
def dyadic_constructions(monkeypatch):
    """A list that grows by one for every :func:`coupling.lowest_terms` pair made during one test."""
    built, real = [], coupling_mod.lowest_terms

    def spy(num, scale):
        built.append(None)
        return real(num, scale)

    monkeypatch.setattr(coupling_mod, "lowest_terms", spy)
    return built


def test_heatmap_makes_no_pair_and_prob_and_coupling_one_each(tmp_path, capsys, dyadic_constructions):
    code, _, _ = run(capsys, "heatmap", "--n", "40", "--d0", "1", "--d1", "-1", "--out", str(tmp_path / "h.csv"))
    assert code == 0 and dyadic_constructions == []  # cells inline the reduction
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"format": 1, "n": 6, "dominoes": [
        [["white", 3, 3], ["black", 3, 3]], [["white", 4, 4], ["black", 5, 4]]]}))
    code, _, _ = run(capsys, "prob", str(path))
    assert code == 0 and len(dyadic_constructions) == 1  # the probability, not one per entry
    code, _, _ = run(capsys, "coupling", "--n", "6", "--white", "3", "3", "--black", "3", "3")
    assert code == 0 and len(dyadic_constructions) == 2


def test_main_keeps_no_parsed_state(tmp_path, capsys):
    out = str(tmp_path / "h.csv")
    assert run(capsys, "heatmap", "--n", "4", "--d0", "1", "--d1", "1", "--out", out, "--force")[0] == 0
    # --force does not carry over to the next call.
    assert run(capsys, "heatmap", "--n", "401", "--d0", "1", "--d1", "1", "--out", out) == (
        2, "", "error: n=401 exceeds the cost guard (400); pass --force\n")
    assert run(capsys, "count", "--n", "3") == (0, "64 (= 2^6)\n", "")
    assert run(capsys, "coupling", "--n", "2", "--white", "1", "1", "--black", "2", "1") == (0, "1 / 2^2 (0.25)\n", "")
    assert run(capsys, "heatmap", "--n", "2", "--d0", "5", "--d1", "1", "--out", out)[0] == 2


def test_heatmap_impossible_offsets(tmp_path, capsys):
    code, out, err = run(capsys, "heatmap", "--n", "2", "--d0", "5", "--d1", "1", "--out", str(tmp_path / "x.csv"))
    assert (code, out) == (2, "")
    assert err == "error: offsets d0=5, d1=1 fit nowhere on the order-2 diamond\n"
    assert not (tmp_path / "x.csv").exists()


def test_verify_quick_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 0
    assert out == (
        "PASS  counts (diamonds up to order 5)\n"
        "PASS  local-inverse (11568 identities up to order 8)\n"
        "PASS  normalization (every vertex up to order 6)\n"
        "PASS  pattern-vs-transfer (40 seeded patterns up to order 8)\n"
        "PASS  symmetry (32 reflected images, patterns to order 200 and |c| at order 1000)\n"
        "all 5 checks passed\n"
    )


def test_verify_full_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--level", "full")
    assert code == 0
    assert out == (
        "PASS  counts (diamonds up to order 10)\n"
        "PASS  local-inverse (282336 identities up to order 16)\n"
        "PASS  normalization (every vertex up to order 10)\n"
        "PASS  pattern-vs-transfer (160 seeded patterns up to order 8)\n"
        "PASS  symmetry (200 reflected images, patterns to order 200 and |c| at order 1000)\n"
        "all 5 checks passed\n"
    )


def test_verify_level_choices_are_verify_levels(capsys):
    assert run(capsys, "verify", "--level", "bogus") == (
        2, "", "error: argument --level: invalid choice: 'bogus' (choose from 'quick', 'full')\n")


def _fresh_python(code: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a new interpreter that imports the package from this checkout,
    with ``env`` added to its environment."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **env)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)


# Loaded only by the commands that need them: verify's oracles by verify; json and exactlinalg by
# prob; decimal by the commands that print one.  fractions by none, since every exact value is an
# integer over a power of two.  dataclasses would bring inspect and ast into every command.
_ORACLES = {"aztecdimers.verify", "aztecdimers.enumerate", "aztecdimers.kasteleyn"}
_PROB_ONLY = {"json", "aztecdimers.exactlinalg"}
_NO_COMMAND = {"fractions"}
_MAIN = "import sys; from aztecdimers.cli import main; sys.exit(main(sys.argv[1:]))"


def test_importing_the_cli_loads_no_argparse_gettext_oracle_dataclasses_json_fractions_or_exactlinalg():
    # Every command pays for this import, so it holds only what every command uses.  The CLI parses its
    # own arguments: argparse, with the gettext it imports, would be about half of the import's time.
    probe = ("import sys; before = set(sys.modules); import aztecdimers.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = _fresh_python(probe)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "aztecdimers.cli" in loaded
    unwanted = {"argparse", "gettext", "dataclasses", "inspect", "decimal"} | _ORACLES | _PROB_ONLY | _NO_COMMAND
    assert sorted(loaded & unwanted) == []


def test_count_coupling_and_heatmap_load_no_oracle_json_fractions_or_exactlinalg(tmp_path):
    # Nor do count and verify, which print no decimal, load decimal.  prob loads no oracle, and
    # no command loads fractions.  One fresh interpreter per command.
    pattern = tmp_path / "p.json"
    pattern.write_text(json.dumps({"format": 1, "n": 3, "dominoes": [[["white", 1, 1], ["black", 1, 1]]]}))
    unwanted = {
        ("count", "--n", "5"): _ORACLES | _PROB_ONLY | _NO_COMMAND | {"decimal"},
        ("coupling", "--n", "4", "--white", "1", "1", "--black", "2", "1"): _ORACLES | _PROB_ONLY | _NO_COMMAND,
        ("heatmap", "--n", "6", "--d0", "1", "--d1", "0", "--out", str(tmp_path / "h.csv")):
            _ORACLES | _PROB_ONLY | _NO_COMMAND,
        ("prob", str(pattern)): _ORACLES | _NO_COMMAND,
        ("verify", "--level", "quick"): _NO_COMMAND | {"json", "decimal"},
    }
    probe = "import sys; from aztecdimers.cli import main; print(main(sys.argv[1:])); print(*sorted(sys.modules))"
    for argv, modules in unwanted.items():
        proc = _fresh_python(probe, *argv)
        assert proc.returncode == 0, proc.stderr
        *_, code, loaded = proc.stdout.splitlines()
        assert code == "0", argv
        assert sorted(set(loaded.split()) & modules) == [], argv


def test_outputs_do_not_depend_on_hash_values(tmp_path):
    # Vertex hashes come from the Color members' addresses and str hashes from the seed, so
    # no output may depend on the iteration order of a set.
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps({"format": 1, "n": 6, "dominoes": [
        [["white", 3, 3], ["black", 3, 3]], [["white", 4, 4], ["black", 5, 4]], [["black", 2, 6], ["white", 2, 7]]]}))
    out = tmp_path / "h.csv"
    commands = [("heatmap", "--n", "12", "--d0", "1", "--d1", "-1", "--out", str(out)), ("prob", str(pattern)),
                ("verify", "--level", "quick")]

    def outputs(seed):
        procs = [_fresh_python(_MAIN, *argv, PYTHONHASHSEED=seed) for argv in commands]
        csv = out.read_bytes()
        out.unlink()
        return [(p.returncode, p.stdout, p.stderr) for p in procs], csv

    first, second = outputs("1"), outputs("2")
    assert [code for code, _, _ in first[0]] == [0, 0, 0], first[0]
    assert first == second


@pytest.mark.parametrize(
    "content, first_line",
    [
        (b'{"format": 1, "n": 3, "dominoes": [[["white", 1, 1], ["black", 1, 1]], '
         b'[["black", 3, 2], ["white", 2, 2]]]}', "7/32 (0.21875)"),
        # Reduced text: zero is 0/1, the empty pattern 1/1, and |det| = 48 over 2^6 is 3/4.
        (b'{"format": 1, "n": 2, "dominoes": [[["white", 1, 1], ["black", 2, 1]], '
         b'[["white", 1, 2], ["black", 1, 2]]]}', "0/1 (0)\n"),
        (b'{"format": 1, "n": 3, "dominoes": []}', "1/1 (1)\n"),
        (b'{"format": 1, "n": 3, "dominoes": [[["white", 1, 1], ["black", 1, 1]], '
         b'[["white", 3, 1], ["black", 4, 1]]]}', "3/4 (0.75)\n"),
        (b'{"format": 1,\n "n": 3,\n "dominoes": [[\n}', "error: {path}: parse error at line 4"),
        (b'{"format": 1, "n": 1, "dominoes": [], "note": "\xff"}', "error: {path}: not UTF-8"),
    ],
    ids=["valid", "zero", "empty", "even-det", "parse-error", "not-utf8"],
)
def test_prob_prints_the_same_bytes_in_a_fresh_interpreter(tmp_path, capsys, content, first_line):
    # A fresh interpreter loads json and exactlinalg on first use, inside the command.
    path = tmp_path / "pattern.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "prob", str(path))
    proc = _fresh_python(_MAIN, "prob", str(path))
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert (out or err).startswith(first_line.format(path=path))


def test_exact_results_are_fractions_when_fractions_loads_on_first_use():
    probe = ("from aztecdimers import coupling, exactlinalg; from aztecdimers.lattice import black, white; "
             "v = coupling.coupling(2, white(1, 1), black(1, 1)); "
             "r = [v.to_fraction(), v.to_fraction(), exactlinalg.invert([[2]])[1][0][0]]; "
             "p = coupling.pattern_probability(2, [(white(1, 1), black(1, 1))]); "
             "import fractions; print(all(type(f) is fractions.Fraction for f in r), *r, p)")
    proc = _fresh_python(probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True -3/4 -3/4 1/2 Dyadic(numerator=3, scale=2)\n"


def test_verify_reports_failures(capsys, monkeypatch):
    from aztecdimers import verify as verify_mod

    def _doomed(full):
        return False, "planted failure"

    monkeypatch.setattr(verify_mod, "_CHECKS", (_doomed,))
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 1
    assert out == "FAIL  doomed (planted failure)\n1 of 1 checks failed\n"


def test_verify_records_a_raising_check_and_exits_one(capsys, monkeypatch):
    # A check that raises fails alone: the run still prints every check's line and exits 1 with
    # no traceback.
    from aztecdimers import verify as verify_mod

    def _broken(full):
        raise ZeroDivisionError("planted")

    def _fine(full):
        return True, "planted pass"

    monkeypatch.setattr(verify_mod, "_CHECKS", (_broken, _fine))
    code, out, err = run(capsys, "verify", "--level", "quick")
    assert code == 1 and err == ""
    assert out == ("FAIL  broken (raised ZeroDivisionError: planted)\n"
                   "PASS  fine (planted pass)\n"
                   "1 of 2 checks failed\n")


def test_prob_off_board_domino_on_a_huge_diamond(tmp_path, capsys):
    # The pattern is checked arithmetically; no order-10^9 board is built.
    doc = {"format": 1, "n": 10**9, "dominoes": [[["white", 0, 1], ["black", 1, 1]]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "prob", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not a domino of the board" in err
