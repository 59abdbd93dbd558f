"""The censuses against the brute-force oracle and against the list dynamic
programmes they replaced, and the checks only they can reach: size bounds
and even splits at lengths far past any brute-force word space."""

import math
import sys
from decimal import Decimal
from itertools import compress, count
from operator import lt

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from vtcodes import analysis
from vtcodes.analysis import (
    CSV_COLUMNS,
    binary_census,
    binary_rates,
    binary_size_bounds,
    binary_size_within_bounds,
    census_report,
    census_csv,
    census_rows,
    enumerate_binary,
    enumerate_q,
    float_bound,
    qary_census,
    qary_size_lower_bound,
    rate_bounds,
    rows_report,
    single_deletion_size_bound,
)
from vtcodes.cli import EXIT_USAGE, main
from vtcodes.errors import ParameterError
from vtcodes.qary import message_length

# every q-ary shape with q in 3..8, n >= 2 and at most 2**20 words, which
# includes lengths the encoder refuses (n < 6, n = 2**m + 1)
ORACLE_SHAPES = [(n, q) for q in range(3, 9) for n in range(2, 21) if q**n <= 1 << 20]


@pytest.mark.parametrize("n, q", ORACLE_SHAPES)
def test_qary_census_matches_brute_force(n, q):
    assert qary_census(n, q) == oracle.qary_census(n, q)


def test_binary_census_matches_brute_force():
    for n in range(1, 21):
        assert binary_census(n) == oracle.binary_census(n)


@pytest.mark.parametrize("q", range(3, 10))
def test_lane_census_matches_the_dp(q):
    for n in range(2, 25):
        assert qary_census(n, q, limit=q**n) == oracle.qary_census_dp(n, q), n


# lengths past the grid above; wide alphabets, whose ints hold q**2 * n lanes;
# and shapes where q**n is a power of two, so a count fills its lane but the
# spare bit
@pytest.mark.parametrize(
    "n, q", [(32, 4), (48, 7), (64, 8), (3, 255), (4, 64), (8, 8), (12, 4), (6, 16)]
)
def test_lane_census_matches_the_dp_at_scale(n, q):
    assert qary_census(n, q, limit=q**n) == oracle.qary_census_dp(n, q)


def test_lane_census_at_the_widest_alphabet_matches_brute_force():
    # the DP keeps q**2 lists of n counts, 16.8 million lists here, and takes about 100 s
    assert qary_census(2, 4096, limit=4096**2) == oracle.qary_census(2, 4096)


@settings(max_examples=25, deadline=None, database=None)
@given(st.integers(3, 40).flatmap(lambda q: st.tuples(st.integers(2, max(2, 60 // q)), st.just(q))))
def test_lane_census_matches_the_dp_on_drawn_shapes(shape):
    n, q = shape
    assert qary_census(n, q, limit=q**n) == oracle.qary_census_dp(n, q)


def test_binary_closed_form_matches_the_dp():
    for n in range(1, 1025):
        assert binary_census(n, limit=n) == oracle.binary_census_dp(n), n


@settings(max_examples=25, deadline=None, database=None)
@given(st.integers(1, 1500))
def test_binary_closed_form_matches_the_dp_on_drawn_lengths(n):
    assert binary_census(n, limit=n) == oracle.binary_census_dp(n)


# n + 1 = 2**12 and 2**14, and 15015 = 3 * 5 * 7 * 11 * 13 with 32 classes
@pytest.mark.parametrize("n", [4095, 16383, 15014])
def test_binary_closed_form_past_the_dp(n):
    counts = binary_census(n, limit=n)
    assert sum(counts) == 1 << n
    assert all(binary_size_within_bounds(n, c) for c in set(counts))
    classes = {}
    for a, c in enumerate(counts):
        classes.setdefault(math.gcd(a, n + 1), set()).add(c)
    assert all(len(values) == 1 for values in classes.values())


LISTING_CASES = [(n, a) for n in range(1, 17) for a in range(n + 1)]
LISTING_CASES += [(n, a) for n in (18, 20) for a in (0, 7, n)]
LISTING_CASES += [(18, a) for a in range(1, 18) if a != 7]  # n = 18's other residues


@pytest.mark.parametrize("n, a", LISTING_CASES)
def test_binary_codewords_match_brute_force(n, a):
    assert analysis.binary_codewords(n, a) == oracle.binary_codewords(n, a)


@pytest.mark.parametrize("n", [17, 19])
def test_binary_codewords_partition_the_word_space(n):
    counts = binary_census(n, limit=n)
    listed = 0
    for a in range(n + 1):
        words = analysis.binary_codewords(n, a)
        assert len(words) == counts[a]
        assert all(sum(compress(count(1), w)) % (n + 1) == a for w in words)
        # reversed, the last position leads: tuple order is integer order
        backwards = [w[::-1] for w in words]
        assert all(map(lt, backwards, backwards[1:]))
        listed += len(words)
    assert listed == 1 << n


def test_binary_codewords_return_a_new_list_over_cached_halves():
    first, second = analysis.binary_codewords(12, 5), analysis.binary_codewords(12, 5)
    assert first == second and first is not second
    expected = list(first)
    first.clear()
    assert analysis.binary_codewords(12, 5) == expected


def test_binary_codewords_build_the_halves_once_per_length():
    analysis._binary_halves.cache_clear()
    for a in range(14):
        analysis.binary_codewords(13, a)
    assert analysis._binary_halves.cache_info().misses == 1


@pytest.mark.parametrize("a", [0, 11, 22])
def test_binary_codewords_count_the_census_past_the_cap(a):
    assert len(analysis.binary_codewords(22, a, limit=22)) == binary_census(22, limit=22)[a]


@pytest.mark.parametrize("n, q", [(16, 3), (32, 3), (32, 4), (32, 5), (64, 8), (48, 7)])
def test_qary_counts_meet_constructive_lower_bound_at_scale(n, q):
    grid = qary_census(n, q, limit=q**n)
    assert sum(map(sum, grid)) == q**n
    assert min(map(min, grid)) >= qary_size_lower_bound(n, q)


def test_binary_counts_within_size_window_at_scale():
    for n in range(15, 257):
        counts = binary_census(n, limit=256)
        assert sum(counts) == 1 << n
        assert all(binary_size_within_bounds(n, c) for c in counts), n


@pytest.mark.parametrize("n", [31, 63, 127, 255])
def test_binary_census_splits_evenly_at_lengths_two_to_the_m_minus_one(n):
    assert set(binary_census(n, limit=n)) == {(1 << n) // (n + 1)}


@pytest.fixture
def no_census(monkeypatch):
    """Make any census computation or codeword listing fail the test."""

    def fail(*args):
        raise AssertionError("a census was computed")

    monkeypatch.setattr(analysis, "_binary_census", fail)
    monkeypatch.setattr(analysis, "_qary_census", fail)
    monkeypatch.setattr(analysis, "_binary_halves", fail)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_binary(20, 99),
        lambda: enumerate_binary(20, -1),
        lambda: enumerate_q(12, 4, 12, 0),
        lambda: enumerate_q(12, 4, 0, 4),
        lambda: analysis.binary_codewords(20, 21),
        lambda: census_rows(20, a=21),
        lambda: census_report(20, a=99),
        lambda: census_report(20, b=1),
        lambda: census_report(12, 4, a=12),
        lambda: census_report(12, 4, b=4),
    ],
)
def test_out_of_range_residue_is_refused_before_counting(no_census, call):
    with pytest.raises(ParameterError):
        call()


def test_cli_refuses_out_of_range_residue_before_counting(no_census, capsys):
    assert main(["enumerate", "--q", "2", "--n", "20", "--a", "99"]) == EXIT_USAGE
    assert main(["enumerate", "--q", "4", "--n", "12", "--b", "4"]) == EXIT_USAGE


# Shapes whose size bounds leave the float range while their rates compute.
FLOAT_RANGE_SHAPES = [(1100, 2), (1000, 4), (130, 256)]


@pytest.mark.parametrize("n, q", FLOAT_RANGE_SHAPES)
def test_size_bounds_past_the_float_range_are_refused(no_census, n, q):
    if q == 2:
        with pytest.raises(ParameterError, match=rf"\(n={n}, q={q}\) exceed the float range"):
            binary_size_bounds(n)
        assert binary_rates(n)["k"] == n - n.bit_length()
    else:
        with pytest.raises(ParameterError, match=rf"\(n={n}, q={q}\) exceed the float range"):
            float_bound(single_deletion_size_bound(n, q), n, q)
        assert rate_bounds(n, q).k == message_length(n, q)
        assert qary_size_lower_bound(n, q) == oracle.qary_size_lower_bound(n, q)


# The binary shape, and the smallest q-ary shape for q = 8, whose float
# bounds leave the float range; the counts are exact all the same.
@pytest.mark.parametrize("n, q", [(1100, 2), (346, 8)])
def test_census_rows_report_bounds_past_the_float_range_as_none(n, q):
    rows = census_rows(n, q, limit=n if q == 2 else q**n)
    assert sum(r.count for r in rows) == q**n
    lower = None if q == 2 else qary_size_lower_bound(n, q)
    assert {(r.size_lower, r.size_upper) for r in rows} == {(lower, None)}
    last = census_csv(rows).splitlines()[-1]
    assert last.endswith(f",{'' if lower is None else lower},")
    assert rows_report(rows)["bounds"] == {"size_lower": lower, "size_upper": None}


def test_census_csv_refuses_anything_but_census_rows():
    good = census_rows(5)
    for rows, bad in [
        ("x", "row 0 is not a CodeCensus: got str"),
        ([1], "row 0 is not a CodeCensus: got int"),
        ([*good[:2], (2, 5, 2, None, 6, 0.0, 1.0)], "row 2 is not a CodeCensus: got tuple"),
        (5, "must be iterable, got int"),
        (None, "must be iterable, got NoneType"),
    ]:
        with pytest.raises(ParameterError, match=bad):
            census_csv(rows)
    assert census_csv([]) == ",".join(CSV_COLUMNS) + "\n"
    assert census_csv(iter(good)) == census_csv(good)


def test_census_csv_writes_counts_past_the_int_str_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert 0 < limit <= 4300  # the process keeps a digit limit, which census_csv does not lift
    rows = census_rows(14400, 2, limit=14400, a=0)
    cell = census_csv(rows).splitlines()[1].split(",")[4]
    assert sys.get_int_max_str_digits() == limit
    assert cell.isdigit() and len(cell) > 4300
    assert int(Decimal(cell)) == rows[0].count == binary_census(14400, limit=14400)[0]


@pytest.mark.parametrize("q", [*range(3, 10), 17, 256])
def test_qary_size_lower_bound_matches_the_closed_form(q):
    for n in range(6, 600):
        if (n - 1) & (n - 2):  # n - 1 is not a power of two
            assert qary_size_lower_bound(n, q) == oracle.qary_size_lower_bound(n, q), n
