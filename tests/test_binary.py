"""Binary codes: checksum, membership, the systematic encoder, correction,
and check-position validation."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from vtcodes.binary import (
    BinaryVtParams,
    correct,
    encode,
    extract,
    is_member,
    syndrome,
    validate_syndrome_positions,
)
from vtcodes.errors import (
    MessageLengthError,
    NoCandidateError,
    NotACodewordError,
    ParameterError,
)


def test_syndrome_examples():
    assert syndrome((0, 1, 0)) == 2
    assert syndrome((1, 1, 1)) == 2
    assert syndrome((0,) * 8) == 0
    assert syndrome((1,)) == 1


def test_syndrome_matches_direct_weighted_sum():
    for n in range(1, 9):
        for word in itertools.product((0, 1), repeat=n):
            expected = sum(i * b for i, b in enumerate(word, start=1)) % (n + 1)
            assert syndrome(word) == expected


def test_syndrome_rejects_empty_and_non_bits():
    with pytest.raises(ParameterError):
        syndrome(())
    with pytest.raises(ParameterError):
        syndrome((0, 2))


def test_is_member():
    assert is_member((0, 1, 0), BinaryVtParams(3, 2))
    assert is_member((1, 1, 1), BinaryVtParams(3, 2))
    assert not is_member((0, 1, 1), BinaryVtParams(3, 2))
    assert is_member((0,) * 5, BinaryVtParams(5, 0))
    # a residue outside 0..n is refused when the params are built
    with pytest.raises(ParameterError):
        is_member((0, 1, 0), BinaryVtParams(3, 4))
    with pytest.raises(ParameterError):
        is_member((0, 1, 0), BinaryVtParams(3, -1))
    with pytest.raises(ParameterError):
        is_member((0, 1), BinaryVtParams(3, 2))


def test_params_validation():
    with pytest.raises(ParameterError):
        BinaryVtParams(0, 0)
    with pytest.raises(ParameterError):
        BinaryVtParams(7, 8)
    with pytest.raises(ParameterError):
        BinaryVtParams(7, -1)


def test_params_layout():
    p = BinaryVtParams(7, 0)
    assert (p.t, p.k) == (3, 4)
    assert p.dyadic_positions == (1, 2, 4)
    assert p.message_positions == (3, 5, 6, 7)
    p = BinaryVtParams(10, 0)
    assert (p.t, p.k) == (4, 6)
    assert p.dyadic_positions == (1, 2, 4, 8)
    assert p.message_positions == (3, 5, 6, 7, 9, 10)
    p = BinaryVtParams(15, 0)
    assert (p.t, p.k) == (4, 11)
    p = BinaryVtParams(1, 0)
    assert (p.t, p.k) == (1, 0)


def test_encode_known_words():
    assert encode((0, 0, 0, 0), BinaryVtParams(7, 0)) == (0,) * 7
    assert encode((1, 0, 0, 0), BinaryVtParams(7, 0)) == (1, 0, 1, 1, 0, 0, 0)
    assert encode((0, 0, 0, 0), BinaryVtParams(7, 2)) == (0, 1, 0, 0, 0, 0, 0)


def test_encode_message_length_checked():
    with pytest.raises(MessageLengthError):
        encode((0, 0, 0), BinaryVtParams(7, 0))
    with pytest.raises(MessageLengthError):
        encode((0,) * 5, BinaryVtParams(7, 0))


def test_encoder_hits_target_and_round_trips_exhaustively():
    for n in range(1, 16):
        for a in range(n + 1):
            p = BinaryVtParams(n, a)
            seen = set()
            for m in itertools.product((0, 1), repeat=p.k):
                word = encode(m, p)
                assert syndrome(word) == a
                assert extract(word, p) == m
                seen.add(word)
            assert len(seen) == 1 << p.k


def test_extract_is_positional():
    word = (0, 0, 1, 0, 1, 1, 0)  # checksum 3 + 5 + 6 = 14 = 6 mod 8
    assert extract(word, BinaryVtParams(7, 6)) == (1, 1, 1, 0)
    with pytest.raises(NotACodewordError):
        extract(word, BinaryVtParams(7, 0))
    with pytest.raises(ParameterError):
        extract((0, 0, 1), BinaryVtParams(7, 6))


def test_correct_after_deletion():
    p = BinaryVtParams(3, 2)
    assert correct((1, 1), p) == (1, 1, 1)
    assert correct((0, 1), p) == (0, 1, 0)


def test_correct_identity_and_non_member():
    p = BinaryVtParams(3, 2)
    assert correct((0, 1, 0), p) == (0, 1, 0)
    with pytest.raises(NotACodewordError):
        correct((1, 1, 0), p)


def test_correct_rejects_far_lengths():
    p = BinaryVtParams(3, 2)
    with pytest.raises(ParameterError):
        correct((0,), p)
    with pytest.raises(ParameterError):
        correct((0, 1, 0, 1, 1), p)


def test_correct_no_candidate():
    # length 4 received for n=3: no deletion of 0000 reaches checksum 2
    with pytest.raises(NoCandidateError):
        correct((0, 0, 0, 0), BinaryVtParams(3, 2))


def test_correct_recovers_every_single_edit_small():
    for n in range(1, 8):
        for word in itertools.product((0, 1), repeat=n):
            p = BinaryVtParams(n, syndrome(word))
            for i in range(n):
                assert correct(word[:i] + word[i + 1 :], p) == word
            for i in range(n + 1):
                for s in (0, 1):
                    assert correct(word[:i] + (s,) + word[i:], p) == word


def test_validate_syndrome_positions():
    assert validate_syndrome_positions(7, (1, 2, 4))
    assert validate_syndrome_positions(7, {7, 6, 4})
    assert not validate_syndrome_positions(7, {2, 4})
    assert validate_syndrome_positions(1, (1,))
    for n in range(1, 65):
        dyadic = [1 << j for j in range(n.bit_length())]
        assert validate_syndrome_positions(n, dyadic)


def test_validate_syndrome_positions_errors():
    with pytest.raises(ParameterError):
        validate_syndrome_positions(7, ())
    with pytest.raises(ParameterError):
        validate_syndrome_positions(7, (2, 2, 4))
    with pytest.raises(ParameterError):
        validate_syndrome_positions(7, (0, 1))
    with pytest.raises(ParameterError):
        validate_syndrome_positions(7, (8,))


def test_validate_syndrome_positions_matches_brute_force():
    import itertools as it

    n = 6
    modulus = n + 1
    for size in (1, 2, 3):
        for pos in it.combinations(range(1, n + 1), size):
            reachable = {0}
            for p in pos:
                reachable |= {(r + p) % modulus for r in reachable}
            expected = reachable == set(range(modulus))
            assert validate_syndrome_positions(n, pos) == expected


def check_layout(n, rng):
    for a in {0, n // 2, n}:
        p = BinaryVtParams(n, a)
        assert p.message_positions == oracle.message_positions(p)
        for message in [(0,) * p.k, (1,) * p.k, tuple(rng.getrandbits(1) for _ in range(p.k))]:
            word = p._encode(message)
            assert tuple(word) == oracle.encode_binary_word(message, p)
            assert tuple(p._read(word)) == oracle.read_binary_word(word, p) == message
        noise = tuple(rng.getrandbits(1) for _ in range(n))  # reading takes any word
        assert tuple(p._read(noise)) == oracle.read_binary_word(noise, p)


def test_message_runs_match_the_per_position_layout():
    rng = random.Random(300)
    for n in range(1, 301):
        check_layout(n, rng)


@settings(max_examples=40, deadline=None, database=None)
@given(st.integers(301, 4096), st.integers(0, 2**32 - 1).map(random.Random))
def test_message_runs_match_the_per_position_layout_at_drawn_lengths(n, rng):
    check_layout(n, rng)
