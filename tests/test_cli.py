"""Command-line surface: formats, exit codes, determinism."""

import json
import sys

import pytest

from aztecdimers import coupling as coupling_mod
from aztecdimers.cli import load_pattern_file, main
from aztecdimers.coupling import coupling_signed


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
    str_digits_limit(limit)
    code, out, _ = run(capsys, "count", "--n", "168")
    assert code == 0
    assert out == f"{2 ** 14196} (= 2^14196)\n"
    for n in ("169", str(10**9)):
        code, out, err = run(capsys, "count", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_coupling_and_prob_stop_at_the_int_to_str_limit(tmp_path, capsys, str_digits_limit):
    # The numerator of this n = 2400 entry, and the reduced denominator of an
    # 8-domino probability at n = 300, both have more than 640 digits.
    str_digits_limit(640)
    dominoes = [[["white", x, 150], ["black", x, 150]] for x in range(150, 166, 2)]
    doc = {"format": 1, "n": 300, "dominoes": dominoes}
    path = tmp_path / "row.json"
    path.write_text(json.dumps(doc))
    for argv in (
        ("coupling", "--n", "2400", "--white", "1200", "1200", "--black", "1201", "1200"),
        ("prob", str(path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "640 digits" in err and "Traceback" not in err


def test_count_rejects_nonpositive_order(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "0"])
    assert exc.value.code == 2


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
    assert out.startswith("1/1")


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
    assert pattern.dominoes[0][0].color.value == "white"


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


def test_heatmap_builds_each_kernel_row_once(tmp_path, capsys):
    # At d1 = 2 the cells are w0 in 1..40 and w1 in 1..39.  Each w1 is one
    # row of the coupling kernel; the O(n^2) cost of the sweep rests on
    # evaluating the cells row by row, so every row is built exactly once.
    coupling_mod._row_sums.cache_clear()
    code, _, _ = run(capsys, "heatmap", "--n", "40", "--d0", "1", "--d1", "2", "--out", str(tmp_path / "h.csv"))
    assert code == 0
    info = coupling_mod._row_sums.cache_info()
    assert (info.misses, info.hits) == (39, 39 * 39)


def test_heatmap_cost_guard(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["heatmap", "--n", "401", "--d0", "1", "--d1", "2", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_heatmap_force_flag_accepted(tmp_path, capsys):
    out = tmp_path / "f.csv"
    code, _, _ = run(capsys, "heatmap", "--n", "4", "--d0", "1", "--d1", "1", "--out", str(out), "--force")
    assert code == 0


def test_heatmap_unwritable_output_fails_before_the_sweep(tmp_path, capsys):
    coupling_mod._row_sums.cache_clear()
    out = tmp_path / "missing" / "x.csv"
    code, stdout, err = run(capsys, "heatmap", "--n", "6", "--d0", "1", "--d1", "2", "--out", str(out))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert coupling_mod._row_sums.cache_info().misses == 0  # no cell was computed


def test_heatmap_impossible_offsets(tmp_path, capsys):
    code, _, err = run(capsys, "heatmap", "--n", "2", "--d0", "5", "--d1", "1", "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert "fit" in err


def test_verify_quick_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 0
    assert "all" in out and "passed" in out
    assert out.count("PASS") >= 5


def test_verify_full_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--level", "full")
    assert code == 0
    assert out.count("PASS") == 7
    assert "all 7 checks passed" in out


def test_verify_reports_failures(capsys, monkeypatch):
    from aztecdimers import verify as verify_mod

    monkeypatch.setattr(
        verify_mod,
        "_CHECKS",
        (lambda full: verify_mod.CheckResult("doomed", False, "planted failure"),),
    )
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 1
    assert "FAIL" in out


def test_prob_off_board_domino_on_a_huge_diamond(tmp_path, capsys):
    # The pattern is checked arithmetically; no order-10^9 board is built.
    doc = {"format": 1, "n": 10**9, "dominoes": [[["white", 0, 1], ["black", 1, 1]]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "prob", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not a domino of the board" in err
