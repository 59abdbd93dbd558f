"""Census, bound, and report checks, cross-validated against pure-Python
recounts of the same word spaces."""

import itertools
import math
import time
from fractions import Fraction

import pytest

from vtcodes.analysis import (
    BINARY_LENGTH_LIMIT,
    CSV_COLUMNS,
    CodeCensus,
    binary_census,
    binary_codewords,
    binary_size_bounds,
    binary_size_within_bounds,
    census_csv,
    census_report,
    census_rows,
    enumerate_binary,
    enumerate_q,
    qary_census,
    qary_size_lower_bound,
    rate_bounds,
    single_deletion_size_bound,
)
from vtcodes.binary import validate_syndrome_positions
from vtcodes.errors import (
    LimitExceededError,
    ParameterError,
    UnsupportedLengthError,
)


def _naive_binary_census(n):
    counts = [0] * (n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        counts[sum(i * b for i, b in enumerate(bits, start=1)) % (n + 1)] += 1
    return tuple(counts)


def _naive_qary_census(n, q):
    grid = [[0] * q for _ in range(n)]
    for w in itertools.product(range(q), repeat=n):
        syn = sum(i for i in range(1, n) if w[i] >= w[i - 1]) % n
        grid[syn][sum(w) % q] += 1
    return tuple(tuple(row) for row in grid)


# ---------------------------------------------------------------- censuses


def test_binary_census_small_lengths_match_direct_recount():
    for n in range(1, 11):
        assert binary_census(n) == _naive_binary_census(n)


def test_binary_census_known_values():
    assert binary_census(1) == (1, 1)
    assert binary_census(3) == (2, 2, 2, 2)
    # at lengths 2^m - 1 the word space splits perfectly evenly
    assert set(binary_census(7)) == {16}
    assert set(binary_census(15)) == {2048}


def test_binary_census_partitions_the_word_space():
    for n in range(1, 15):
        assert sum(binary_census(n)) == 1 << n


def test_binary_census_straddles_the_average_size():
    # the smallest code is at most the mean 2^n/(n+1), the largest at least
    for n in range(1, 15):
        counts = binary_census(n)
        mean = Fraction(1 << n, n + 1)
        assert min(counts) <= mean <= max(counts)


def test_enumerate_binary_values_and_range_check():
    assert enumerate_binary(1, 0) == 1
    assert all(enumerate_binary(7, a) == 16 for a in range(8))
    assert all(enumerate_binary(15, a) == 2048 for a in range(16))
    with pytest.raises(ParameterError):
        enumerate_binary(7, 8)
    with pytest.raises(ParameterError):
        enumerate_binary(7, -1)


def test_binary_codewords_listing():
    assert binary_codewords(3, 2) == [(0, 1, 0), (1, 1, 1)]
    # listing length always agrees with the census count
    for a in range(8):
        words = binary_codewords(7, a)
        assert len(words) == 16
        assert len(set(words)) == 16
        for w in words:
            assert sum(i * b for i, b in enumerate(w, start=1)) % 8 == a


def test_binary_limits():
    with pytest.raises(LimitExceededError):
        binary_census(BINARY_LENGTH_LIMIT + 1)
    with pytest.raises(LimitExceededError):
        binary_census(10, limit=9)
    with pytest.raises(LimitExceededError):
        binary_codewords(10, 0, limit=9)
    assert isinstance(LimitExceededError("x"), ParameterError)
    with pytest.raises(ParameterError):
        binary_census(0)


def test_qary_census_matches_direct_recount():
    for n, q in [(2, 3), (4, 3), (6, 3), (5, 4), (6, 4), (4, 5)]:
        assert qary_census(n, q) == _naive_qary_census(n, q)


def test_qary_census_partitions_the_word_space():
    # includes shapes the encoder refuses (n = 9 = 2**3 + 1, n < 6)
    for n, q in [(7, 3), (8, 3), (9, 3), (6, 4), (8, 4), (2, 3), (6, 5)]:
        grid = qary_census(n, q)
        assert len(grid) == n and all(len(row) == q for row in grid)
        assert sum(sum(row) for row in grid) == q**n


def test_enumerate_q_values_and_range_checks():
    grid = qary_census(8, 4)
    for a in range(8):
        for b in range(4):
            assert enumerate_q(8, 4, a, b) == grid[a][b]
    with pytest.raises(ParameterError):
        enumerate_q(8, 4, 8, 0)
    with pytest.raises(ParameterError):
        enumerate_q(8, 4, 0, 4)
    with pytest.raises(ParameterError):
        enumerate_q(8, 4, -1, 0)


def test_qary_limits():
    with pytest.raises(LimitExceededError):
        qary_census(16, 3, limit=1000)
    with pytest.raises(LimitExceededError):
        qary_census(30, 4)
    with pytest.raises(ParameterError):
        qary_census(1, 3)
    with pytest.raises(ParameterError):
        qary_census(6, 2)


@pytest.mark.parametrize(
    "census",
    [
        lambda: qary_census(10**7, 3),
        lambda: enumerate_q(10**7, 3, 0, 0),
        lambda: census_rows(10**7, 3),
    ],
    ids=["qary_census", "enumerate_q", "census_rows"],
)
def test_qary_limit_refuses_a_long_shape_without_counting_its_words(census):
    # 3**(10**7) has 16 million bits; the cap must refuse before building it
    start = time.perf_counter()
    with pytest.raises(LimitExceededError, match=r"^3\*\*10000000 words exceed the enumeration limit"):
        census()
    assert time.perf_counter() - start < 1


# ------------------------------------------------------------------ bounds


def test_qary_size_lower_bound_values():
    assert qary_size_lower_bound(8, 4) == 48
    assert qary_size_lower_bound(8, 5) == 100
    assert qary_size_lower_bound(6, 3) == 1
    assert qary_size_lower_bound(7, 3) == 3
    assert qary_size_lower_bound(8, 3) == 9
    assert qary_size_lower_bound(16, 8) == 719323136


def test_qary_size_lower_bound_rejects_unsupported_shapes():
    with pytest.raises(ParameterError):
        qary_size_lower_bound(5, 4)
    with pytest.raises(UnsupportedLengthError):
        qary_size_lower_bound(9, 4)
    with pytest.raises(ParameterError):
        qary_size_lower_bound(8, 2)


def test_qary_size_lower_bound_holds_at_enumerable_shapes():
    from vtcodes.qary import message_length

    for n, q in [(8, 4), (8, 5), (7, 3), (8, 3), (10, 3)]:
        bound = qary_size_lower_bound(n, q)
        smallest = min(min(row) for row in qary_census(n, q))
        assert smallest >= bound
        # the encoder cannot out-count any code it targets
        assert 2 ** message_length(n, q) <= smallest


def test_single_deletion_size_bound():
    assert single_deletion_size_bound(8, 4) == Fraction(21844, 7)
    assert single_deletion_size_bound(7, 2) == 21
    assert isinstance(single_deletion_size_bound(6, 3), Fraction)
    with pytest.raises(ParameterError):
        single_deletion_size_bound(1, 3)
    with pytest.raises(ParameterError):
        single_deletion_size_bound(6, 1)


def test_binary_size_bounds_window():
    lo, hi = binary_size_bounds(7)
    assert lo == pytest.approx(16 - 2 ** (8 / 3))
    assert hi == pytest.approx(16 + 2 ** (8 / 3))
    # every actual size sits inside its window
    for n in range(1, 15):
        lo, hi = binary_size_bounds(n)
        for count in binary_census(n):
            assert lo <= count <= hi
            assert binary_size_within_bounds(n, count)


def test_binary_size_within_bounds_is_exact():
    assert binary_size_within_bounds(7, 16)
    assert not binary_size_within_bounds(7, 25)
    # agree with the float window away from its edges
    for n in range(1, 13):
        lo, hi = binary_size_bounds(n)
        center = (1 << n) // (n + 1)
        assert binary_size_within_bounds(n, center)
        assert not binary_size_within_bounds(n, math.floor(lo) - 2)
        assert not binary_size_within_bounds(n, math.ceil(hi) + 2)


@pytest.mark.parametrize(
    "call, args",
    [
        (binary_size_bounds, (10**30,)),
        (binary_size_bounds, (2**40,)),
        (binary_size_within_bounds, (10**30, 5)),
        (binary_size_within_bounds, (2**20 + 1, 5)),
        (validate_syndrome_positions, (10**30, [1, 2, 4])),
        (validate_syndrome_positions, (2**20 + 1, [1 << j for j in range(21)])),
    ],
)
def test_huge_lengths_are_refused_before_the_power_is_built(call, args):
    start = time.perf_counter()
    with pytest.raises(ParameterError):
        call(*args)
    assert time.perf_counter() - start < 1


def test_lengths_up_to_the_limit_still_answer():
    n = 2**20
    center, slack = (1 << n) // (n + 1), 1 << (n + 1) // 3
    assert binary_size_within_bounds(n, center)
    assert binary_size_within_bounds(n, center + slack - 1)
    assert not binary_size_within_bounds(n, center + 2 * slack)
    assert not binary_size_within_bounds(n, 5)
    assert validate_syndrome_positions(n, [1 << j for j in range(21)])
    assert not validate_syndrome_positions(n, [1 << j for j in range(20)])  # too few subsets


# ------------------------------------------------------------------- rates


def test_rate_bounds_reference_shape():
    r = rate_bounds(16, 8)
    assert (r.n, r.q, r.k) == (16, 8, 28)
    assert r.encoder_rate == 1.75
    assert r.smallest_code_rate_bound == 2.5625
    assert r.single_deletion_rate_bound == pytest.approx(
        3 - math.log2(15) / 16 - math.log2(7) / 16
    )
    assert r.construction_rate == pytest.approx(math.log2(719323136) / 16)
    assert r.encoder_rate_floor is None


def test_rate_bounds_ternary_floor():
    r = rate_bounds(16, 3)
    assert r.k == 13
    assert r.encoder_rate == 13 / 16
    assert r.encoder_rate_floor == pytest.approx(
        math.log2(3) - 2.76 * 4 / 16 - 2.25 / 16
    )
    assert r.encoder_rate >= r.encoder_rate_floor


def test_rate_bounds_invariants():
    for n, q in [(8, 4), (8, 5), (16, 8), (16, 3), (10, 3), (32, 4)]:
        r = rate_bounds(n, q)
        assert 2**r.k <= qary_size_lower_bound(n, q)
        assert r.encoder_rate <= r.construction_rate + 1e-12
        assert r.construction_rate <= r.single_deletion_rate_bound + 1e-12
        assert r.smallest_code_rate_bound <= math.log2(q)
        if q == 3:
            assert r.encoder_rate_floor <= r.encoder_rate + 1e-12


def test_ternary_rate_floor_holds_at_every_supported_length():
    for n in range(6, 5000):
        if (n - 1) & (n - 2):  # lengths n = 2**m + 1 are unsupported
            r = rate_bounds(n, 3)
            assert r.encoder_rate_floor <= r.encoder_rate, n


def test_rate_report_to_dict():
    d = rate_bounds(16, 8).to_dict()
    assert d["k"] == 28
    assert d["encoder_rate"] == 1.75
    assert d["encoder_rate_floor"] is None
    assert d["construction_rate"] == round(math.log2(719323136) / 16, 6)
    assert set(d) == {
        "n",
        "q",
        "k",
        "encoder_rate",
        "smallest_code_rate_bound",
        "single_deletion_rate_bound",
        "construction_rate",
        "encoder_rate_floor",
    }


# ----------------------------------------------------------------- reports


def test_census_rows_binary():
    rows = census_rows(7)
    assert len(rows) == 8
    lo, hi = binary_size_bounds(7)
    for a, row in enumerate(rows):
        assert row == CodeCensus(
            q=2, n=7, a=a, b=None, count=16, size_lower=lo, size_upper=hi
        )


def test_census_rows_qary():
    rows = census_rows(6, 3)
    assert len(rows) == 18
    assert [(r.a, r.b) for r in rows] == [
        (a, b) for a in range(6) for b in range(3)
    ]
    for r in rows:
        assert r.count == enumerate_q(6, 3, r.a, r.b)
        assert r.size_lower == 1
        assert r.size_upper == pytest.approx(72.6)


def test_census_rows_no_lower_bound_for_unsupported_shapes():
    rows = census_rows(9, 3)
    assert len(rows) == 27
    assert all(r.size_lower is None for r in rows)
    assert all(r.size_upper is not None for r in rows)


def test_census_csv_format():
    text = census_csv(census_rows(3))
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 5
    lo, hi = binary_size_bounds(3)
    assert lines[1] == f"2,3,0,,2,{lo:.6f},{hi:.6f}"
    qtext = census_csv(census_rows(6, 3))
    count = enumerate_q(6, 3, 0, 0)
    assert qtext.splitlines()[1] == f"3,6,0,0,{count},1,72.600000"


def test_census_report_binary():
    report = census_report(7)
    assert report["parameters"] == {"q": 2, "n": 7}
    assert len(report["counts"]) == 8
    assert report["counts"][0] == {"a": 0, "b": None, "count": 16}
    assert report["rates"] == {
        "k": 4,
        "encoder_rate": round(4 / 7, 6),
        "smallest_code_rate_bound": round(1 - 3 / 7, 6),
    }
    lo, hi = binary_size_bounds(7)
    assert report["bounds"] == {
        "size_lower": round(lo, 6),
        "size_upper": round(hi, 6),
    }


def test_census_report_filters():
    report = census_report(7, a=3)
    assert report["counts"] == [{"a": 3, "b": None, "count": 16}]
    report = census_report(6, 3, b=2)
    assert len(report["counts"]) == 6
    assert all(entry["b"] == 2 for entry in report["counts"])
    with pytest.raises(ParameterError):
        census_report(7, b=1)
    with pytest.raises(ParameterError):
        census_report(7, a=99)
    with pytest.raises(ParameterError):
        census_report(6, 3, b=3)


def test_census_report_rates_none_for_unsupported_qary_shape():
    report = census_report(9, 3)
    assert report["rates"] is None
    assert report["bounds"]["size_lower"] is None
