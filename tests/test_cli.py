"""Drive the command-line interface through main(argv) and check text, JSON,
and exit codes."""

import argparse
import csv
import io
import json
import sys

import pytest

from vtcodes.analysis import binary_census
from vtcodes.cli import EXIT_CODEC, EXIT_OK, EXIT_USAGE, build_parser, main

REF_ARGS = ["--q", "8", "--n", "16", "--a", "0", "--b", "1"]
REF_WORD_TEXT = "7 2 0 7 7 3 6 3 2 5 1 0 7 2 5 0"
REF_MESSAGE = "1100010001110101010001001011"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------- commands


def test_encode_binary_text(capsys):
    code, out = run(
        capsys, "encode", "--q", "2", "--n", "7", "--a", "0", "--message", "0000"
    )
    assert code == EXIT_OK
    assert out.strip() == "0 0 0 0 0 0 0"


def test_encode_qary_json(capsys):
    code, payload = run_json(capsys, "encode", *REF_ARGS, "--message", REF_MESSAGE)
    assert code == EXIT_OK
    assert payload == {"codeword": [int(s) for s in REF_WORD_TEXT.split()]}


def test_extract_round_trip(capsys):
    code, out = run(capsys, "extract", *REF_ARGS, "--word", REF_WORD_TEXT)
    assert code == EXIT_OK
    assert out.strip() == REF_MESSAGE


def test_encode_extract_pipeline_is_lossless(capsys):
    for flags, message in [
        (["--q", "2", "--n", "10", "--a", "3"], "110101"),
        (["--q", "4", "--n", "8", "--a", "2", "--b", "3"], "10110"),
        (["--q", "3", "--n", "10", "--a", "4", "--b", "1"], "011"),
    ]:
        code, out = run(capsys, "encode", *flags, "--message", message)
        assert code == EXIT_OK
        code, out = run(capsys, "extract", *flags, "--word", out.strip())
        assert code == EXIT_OK
        assert out.strip() == message


def test_member_true_and_false(capsys):
    code, out = run(capsys, "member", *REF_ARGS, "--word", REF_WORD_TEXT)
    assert code == EXIT_OK and out.strip() == "true"
    other = "0 " + REF_WORD_TEXT[2:]
    code, payload = run_json(capsys, "member", *REF_ARGS, "--word", other)
    assert code == EXIT_OK and payload == {"member": False}


def test_correct_deletion_json(capsys):
    received = REF_WORD_TEXT.split()[1:]
    code, payload = run_json(
        capsys, "correct", *REF_ARGS, "--word", " ".join(received)
    )
    assert code == EXIT_OK
    assert payload["edit"] == "deletion"
    assert payload["codeword"] == [int(s) for s in REF_WORD_TEXT.split()]


def test_correct_identity_text(capsys):
    code, out = run(capsys, "correct", *REF_ARGS, "--word", REF_WORD_TEXT)
    assert code == EXIT_OK
    assert out.strip() == REF_WORD_TEXT


def test_enumerate_csv_partitions(capsys):
    code, out = run(capsys, "enumerate", "--q", "4", "--n", "6")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "q,n,a,b,count,size_lower,size_upper"
    assert len(lines) == 1 + 6 * 4
    assert sum(int(line.split(",")[4]) for line in lines[1:]) == 4**6


@pytest.mark.parametrize("extra", [[], ["--a", "2"], ["--b", "1"]])
def test_enumerate_csv_ends_in_one_newline(capsys, extra):
    code, out = run(capsys, "enumerate", "--q", "3", "--n", "6", *extra)
    assert code == EXIT_OK
    assert out.endswith("\n") and not out.endswith("\n\n")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["q", "n", "a", "b", "count", "size_lower", "size_upper"]
    assert all(rows), "csv.reader saw an empty row"


def test_enumerate_filtered_json(capsys):
    code, payload = run_json(capsys, "enumerate", "--q", "2", "--n", "7", "--a", "3")
    assert code == EXIT_OK
    assert payload["counts"] == [{"a": 3, "b": None, "count": 16}]
    assert payload["rates"]["k"] == 4


def test_bounds_binary_json(capsys):
    code, payload = run_json(capsys, "bounds", "--q", "2", "--n", "7")
    assert code == EXIT_OK
    assert payload["k"] == 4
    assert payload["encoder_rate"] == round(4 / 7, 6)
    assert payload["size_lower"] < 16 < payload["size_upper"]


def test_bounds_qary_text_and_json(capsys):
    code, payload = run_json(capsys, "bounds", "--q", "8", "--n", "16")
    assert code == EXIT_OK
    assert payload["encoder_rate"] == 1.75
    assert payload["size_lower_bound"] == 719323136
    code, out = run(capsys, "bounds", "--q", "8", "--n", "16")
    assert code == EXIT_OK
    assert "encoder_rate = 1.75" in out


def test_simulate_json(capsys):
    code, payload = run_json(
        capsys, "simulate", *REF_ARGS, "--channel", "mixed",
        "--trials", "50", "--seed", "3",
    )
    assert code == EXIT_OK
    assert payload["successes"] == 50
    assert payload["rate"] == 1.0
    assert payload["failures"] == []


def test_tables_json(capsys):
    code, payload = run_json(capsys, "tables", "--q", "4")
    assert code == EXIT_OK
    assert payload["pairs"] == [
        [1, 1], [1, 2], [1, 3],
        [2, 0], [2, 2], [2, 3],
        [3, 0], [3, 1], [3, 3],
    ]
    assert payload["singles"] == [0, 1, 3]
    assert (payload["pair_bits"], payload["single_bits"]) == (3, 1)


def test_tables_report_the_pinned_position_5_at_q3(capsys):
    # the q = 3 encoder pins position 5 to 2 (pair 3) and carries no bits there
    code, out = run(capsys, "tables", "--q", "3")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "q = 3", "pair_bits = 2", "single_bits = 0",
        "pair 0 = 1 1", "pair 1 = 1 2", "pair 2 = 2 0", "pair 3 = 2 2",
        "single 0 = 2",
    ]
    code, payload = run_json(capsys, "tables", "--q", "3")
    assert code == EXIT_OK
    assert payload == {
        "q": 3, "pair_bits": 2, "single_bits": 0,
        "pairs": [[1, 1], [1, 2], [2, 0], [2, 2]], "singles": [2],
    }


def test_validate_positions(capsys):
    code, out = run(capsys, "validate-positions", "--n", "7", "--positions", "1 2 4")
    assert code == EXIT_OK and out.strip() == "true"
    code, payload = run_json(
        capsys, "validate-positions", "--n", "6", "--positions", "2 4"
    )
    assert code == EXIT_OK and payload == {"valid": False}


# -------------------------------------------------------------- exit codes


def test_usage_errors_exit_1(capsys):
    cases = [
        # missing required flag
        ["encode", "--q", "2", "--n", "7", "--a", "0"],
        # unknown command
        ["frobnicate"],
        # --b with a binary code
        ["encode", "--q", "2", "--n", "7", "--a", "0", "--b", "1",
         "--message", "0000"],
        # --b missing for q >= 3
        ["encode", "--q", "4", "--n", "8", "--a", "0", "--message", "00000"],
        # unsupported length 2**m + 1
        ["encode", "--q", "3", "--n", "9", "--a", "0", "--b", "0",
         "--message", "0"],
        # wrong message length
        ["encode", "--q", "2", "--n", "7", "--a", "0", "--message", "00"],
        # enumeration limit
        ["enumerate", "--q", "2", "--n", "25"],
        # a message for a code that carries none
        ["encode", "--q", "3", "--n", "6", "--a", "0", "--b", "0",
         "--message", "1"],
        # word symbols out of the alphabet
        ["member", "--q", "2", "--n", "7", "--a", "0", "--word", "0 1 2 0 0 0 0"],
    ]
    for argv in cases:
        assert main(argv) == EXIT_USAGE, argv
        capsys.readouterr()


def test_codec_errors_exit_2(capsys):
    # uncorrectable word of codeword length
    assert main(
        ["correct", "--q", "2", "--n", "3", "--a", "2", "--word", "0 0 0"]
    ) == EXIT_CODEC
    capsys.readouterr()
    # extraction from a non-member, q-ary and binary
    assert main(
        ["extract", "--q", "8", "--n", "16", "--a", "1", "--b", "1",
         "--word", REF_WORD_TEXT]
    ) == EXIT_CODEC
    capsys.readouterr()
    assert main(
        ["extract", "--q", "2", "--n", "7", "--a", "0", "--word", "0 0 1 0 1 1 0"]
    ) == EXIT_CODEC
    err = capsys.readouterr().err
    assert err.startswith("error:")


# Each subcommand's options in order, as (flag, required, default, type, choices).
CODE_FLAGS = [
    ("--q", True, None, int, None),
    ("--n", True, None, int, None),
    ("--a", True, None, int, None),
    ("--b", False, None, int, None),
]
JSON_FLAG = ("--json", False, False, None, None)
FLAGS = {
    "encode": [*CODE_FLAGS, ("--message", True, None, None, None), JSON_FLAG],
    "extract": [*CODE_FLAGS, ("--word", True, None, None, None), JSON_FLAG],
    "correct": [*CODE_FLAGS, ("--word", True, None, None, None), JSON_FLAG],
    "member": [*CODE_FLAGS, ("--word", True, None, None, None), JSON_FLAG],
    "enumerate": [
        ("--q", True, None, int, None),
        ("--n", True, None, int, None),
        ("--a", False, None, int, None),
        ("--b", False, None, int, None),
        ("--limit", False, None, int, None),
        JSON_FLAG,
    ],
    "bounds": [("--q", True, None, int, None), ("--n", True, None, int, None), JSON_FLAG],
    "simulate": [
        *CODE_FLAGS,
        ("--channel", False, "mixed", None, ("deletion", "insertion", "mixed", "identity")),
        ("--trials", True, None, int, None),
        ("--seed", True, None, int, None),
        JSON_FLAG,
    ],
    "tables": [("--q", True, None, int, None), JSON_FLAG],
    "validate-positions": [
        ("--n", True, None, int, None),
        ("--positions", True, None, None, None),
        JSON_FLAG,
    ],
}


def test_help_exits_0(capsys):
    for argv in (["--help"], *([name, "--help"] for name in FLAGS)):
        assert main(argv) == EXIT_OK, argv
        assert capsys.readouterr().out.startswith("usage: vtcodes"), argv


def test_subcommand_flags_match_the_contract():
    parser = build_parser()
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(FLAGS)
    for name, sub in subs.choices.items():
        found = [
            (*a.option_strings, a.required, a.default, a.type, a.choices)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert found == FLAGS[name], name


def test_received_word_far_from_code_length_exits_1(capsys):
    assert main(
        ["correct", "--q", "2", "--n", "7", "--a", "0", "--word", "0 0"]
    ) == EXIT_USAGE
    capsys.readouterr()


def test_enumerate_past_the_float_range_leaves_the_bounds_empty(capsys):
    code, report = run_json(capsys, "enumerate", "--q", "2", "--n", "1100", "--limit", "1100")
    assert code == EXIT_OK
    assert report["bounds"] == {"size_lower": None, "size_upper": None}
    assert sum(row["count"] for row in report["counts"]) == 2**1100
    code, out = run(capsys, "enumerate", "--q", "2", "--n", "1100", "--limit", "1100", "--a", "0")
    assert code == EXIT_OK
    assert out.splitlines()[1].endswith(",,")


@pytest.mark.parametrize("q, n", [("2", "1100"), ("4", "1000"), ("256", "130")])
def test_bounds_past_the_float_range_exit_1(capsys, q, n):
    for extra in ([], ["--json"]):
        assert main(["bounds", "--q", q, "--n", n, *extra]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: size bounds at (n={n}, q={q}) exceed the float range\n"


def test_enumerate_prints_counts_past_the_int_str_digit_limit(capsys):
    digits = sys.get_int_max_str_digits()
    argv = ["enumerate", "--q", "2", "--n", "14400", "--limit", "14400", "--a", "0"]
    code, out = run(capsys, *argv)
    assert code == EXIT_OK
    text = out.splitlines()[1].split(",")[4]
    code, out = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert sys.get_int_max_str_digits() == digits  # main puts the limit back
    assert len(text) > 4300
    sys.set_int_max_str_digits(0)
    try:
        expected = binary_census(14400, limit=14400)[0]
        assert int(text) == expected
        assert json.loads(out)["counts"] == [{"a": 0, "b": None, "count": expected}]
    finally:
        sys.set_int_max_str_digits(digits)
