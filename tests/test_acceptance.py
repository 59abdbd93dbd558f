"""Acceptance checks, one per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; without -s they still run, pytest just captures the prints. Every
numeric expectation is exact unless a tolerance is stated inline.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from vtcodes import binary, qary
from vtcodes.analysis import (
    binary_census,
    binary_codewords,
    binary_size_within_bounds,
    enumerate_binary,
    qary_census,
    qary_size_lower_bound,
    rate_bounds,
)
from vtcodes.binary import BinaryVtParams
from vtcodes.channel import run_trials
from vtcodes.qary import QaryVtParams, aux_sequence, code_signature, message_length
from vtcodes.words import parse_bitstring

from oracle import distinct_deletions, distinct_insertions

REF_PARAMS = dict(n=16, q=8, a=0, b=1)
REF_MESSAGE = "1100010001110101010001001011"
REF_WORD = (7, 2, 0, 7, 7, 3, 6, 3, 2, 5, 1, 0, 7, 2, 5, 0)

TOL = 1e-9


@contextmanager
def criterion(num, description, budget=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {num:02d} took {elapsed:.2f} s, budget {budget} s"
            )
    except BaseException:
        print(f"criterion {num:02d} FAIL: {description}")
        raise
    print(f"criterion {num:02d} PASS: {description} ({elapsed:.2f} s)")


def test_criterion_01_binary_sizes_at_perfect_lengths():
    with criterion(1, "length-7 codes each hold 16 words, length-15 each 2048", 1.0):
        for a in range(8):
            assert enumerate_binary(7, a) == 16
        for a in range(16):
            assert enumerate_binary(15, a) == 2048


def test_criterion_02_length_three_code_listing():
    with criterion(2, "the length-3 residue-2 code is exactly {010, 111}", 1.0):
        assert binary_codewords(3, 2) == [(0, 1, 0), (1, 1, 1)]


def test_criterion_03_censuses_partition_the_word_space():
    with criterion(3, "binary and q-ary code sizes sum to the whole space", 30.0):
        for n in range(3, 15):
            assert sum(binary_census(n)) == 1 << n
        for q, n in [(3, 7), (4, 8), (5, 6)]:
            grid = qary_census(n, q)
            assert sum(sum(row) for row in grid) == q**n


def test_criterion_04_binary_encoder_suite():
    with criterion(4, "binary encoder hits every residue, round-trips, injective", 60.0):
        for n in (7, 10, 15):
            k = n - n.bit_length()
            for a in range(n + 1):
                params = BinaryVtParams(n=n, a=a)
                seen = set()
                for m in range(1 << k):
                    message = tuple((m >> (k - 1 - i)) & 1 for i in range(k))
                    word = binary.encode(message, params)
                    assert binary.syndrome(word) == a
                    assert binary.extract(word, params) == message
                    seen.add(word)
                assert len(seen) == 1 << k


def test_criterion_05_qary_encoder_suite():
    with criterion(5, "q-ary encoder is a member-producing round-trip", 60.0):
        assert message_length(16, 8) == 28
        # every message of every code at one small shape
        for a in range(8):
            for b in range(4):
                params = QaryVtParams(n=8, q=4, a=a, b=b)
                seen = set()
                for m in range(1 << 5):
                    message = tuple((m >> (4 - i)) & 1 for i in range(5))
                    word = qary.encode(message, params)
                    assert qary.is_member(word, params)
                    assert qary.extract(word, params) == message
                    seen.add(word)
                assert len(seen) == 32
        # large shape, sampled messages across several codes
        rng = np.random.default_rng(1234)
        for a, b in [(0, 1), (5, 3), (10, 6), (15, 7)]:
            params = QaryVtParams(n=16, q=8, a=a, b=b)
            draws = rng.integers(0, 2, size=(10_000, 28))
            for row in draws:
                message = tuple(int(x) for x in row)
                word = qary.encode(message, params)
                assert qary.is_member(word, params)
                assert qary.extract(word, params) == message


def test_criterion_06_reference_walkthrough_intermediates():
    from vtcodes.qary import _place_message

    with criterion(6, "worked-example intermediates match on every number"):
        params = QaryVtParams(**REF_PARAMS)
        c = _place_message(parse_bitstring(REF_MESSAGE), params)
        assert params.free_positions == (6, 10, 11, 12, 13, 14, 15)
        assert [c[i] for i in params.free_positions] == [6, 1, 0, 7, 2, 5, 0]
        assert (c[7], c[9]) == (3, 5)
        assert c[5] == 3
        assert (c[4], c[8]) == (6, 2)  # the stand-ins c[2^j - 1] - 1
        aux = (0, 0) + aux_sequence(c)[2:]  # bits 1 and 2 wait for the deficit
        assert binary.syndrome(aux) == 12
        assert (params.a - binary.syndrome(aux)) % params.n == 4
        word = qary.encode(parse_bitstring(REF_MESSAGE), params)
        assert word == REF_WORD
        assert qary.is_member(REF_WORD, params)
        assert sum(REF_WORD) % 8 == 1
        assert binary.syndrome(aux_sequence(REF_WORD)) % 16 == 0
        assert code_signature(REF_WORD, 8) == (0, 1)


def test_criterion_07_counts_meet_constructive_lower_bound():
    with criterion(7, "every enumerated code is at least its constructive bound", 120.0):
        for n, q, bound in [(8, 4, 48), (8, 5, 100), (6, 3, 1), (7, 3, 3), (8, 3, 9)]:
            assert qary_size_lower_bound(n, q) == bound
            grid = qary_census(n, q)
            assert min(min(row) for row in grid) >= bound


def test_criterion_08_every_single_edit_is_corrected():
    with criterion(8, "each deletion and insertion of each codeword is repaired", 300.0):
        for n in range(1, 12):
            for word in itertools.product((0, 1), repeat=n):
                params = BinaryVtParams(n=n, a=binary.syndrome(word))
                for received in distinct_deletions(word):
                    assert binary.correct(received, params) == word
                for received in distinct_insertions(word, 2):
                    assert binary.correct(received, params) == word
        for q, n in [(3, 6), (3, 7), (4, 6), (4, 8)]:
            for word in itertools.product(range(q), repeat=n):
                a, b = code_signature(word, q)
                params = QaryVtParams(n=n, q=q, a=a, b=b)
                for received in distinct_deletions(word):
                    assert qary.correct(received, params) == word
                for received in distinct_insertions(word, q):
                    assert qary.correct(received, params) == word


def test_criterion_09_binary_sizes_within_window():
    with criterion(9, "every length 3..14 code size lies in its stated window"):
        for n in range(3, 15):
            for count in binary_census(n):
                assert binary_size_within_bounds(n, count)


def test_criterion_10_simulated_trials_all_succeed():
    with criterion(10, "10^4 mixed-channel trials per shape succeed, reproducibly", 30.0):
        big = QaryVtParams(n=16, q=8, a=0, b=1)
        r1 = run_trials(big, "mixed", trials=10_000, seed=2024)
        assert r1.rate == 1.0
        assert run_trials(big, "mixed", trials=10_000, seed=2024) == r1
        small = QaryVtParams(n=10, q=3, a=0, b=0)
        r3 = run_trials(small, "mixed", trials=10_000, seed=2024)
        assert r3.rate == 1.0
        assert run_trials(small, "mixed", trials=10_000, seed=2024) == r3


def test_criterion_11_rate_bound_ordering():
    with criterion(11, "rate summary at (n=16, q=8) is ordered and exact"):
        r = rate_bounds(16, 8)
        assert r.encoder_rate == 1.75
        assert r.encoder_rate <= r.smallest_code_rate_bound + TOL
        assert r.smallest_code_rate_bound <= 3.0 + TOL
        assert r.construction_rate <= r.single_deletion_rate_bound + TOL
