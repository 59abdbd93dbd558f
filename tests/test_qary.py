"""q-ary codes: auxiliary sequences, membership, the canonical value tables,
the six-stage systematic encoder (general q and the q=3 variant), extraction,
and correction."""

import itertools

import pytest

import oracle
from vtcodes.binary import syndrome
from vtcodes.errors import (
    ExtractionError,
    MessageLengthError,
    NoCandidateError,
    NotACodewordError,
    ParameterError,
    UnsupportedLengthError,
)
from vtcodes.qary import (
    PairTable,
    QaryVtParams,
    _arrange_prefix,
    _step6_triple,
    aux_sequence,
    code_signature,
    correct,
    encode,
    extract,
    is_member,
    message_length,
    pair_table,
)
from vtcodes.words import parse_bitstring

# Reference codeword in the (n=16, q=8, a=0, b=1) code, worked out by hand
# stage by stage; its auxiliary sequence and both residues are frozen below.
REF_WORD = (7, 2, 0, 7, 7, 3, 6, 3, 2, 5, 1, 0, 7, 2, 5, 0)
REF_PARAMS = dict(n=16, q=8, a=0, b=1)
# The message whose canonical-table encoding is exactly REF_WORD: 21 bits of
# free-position symbols, 5 bits selecting pair (3,5), 2 bits selecting value 3.
REF_MESSAGE = "110001000111010101000" + "10010" + "11"


def bits(text):
    return parse_bitstring(text)


def test_aux_sequence_reference_word():
    assert aux_sequence(REF_WORD) == bits("001101001001010")


def test_aux_sequence_monotone_words():
    assert aux_sequence((3, 3, 3, 3)) == (1, 1, 1)
    assert aux_sequence((5, 4, 3, 2, 1)) == (0, 0, 0, 0)
    assert aux_sequence((0, 1)) == (1,)


def test_aux_sequence_needs_two_symbols():
    with pytest.raises(ParameterError):
        aux_sequence((3,))


def test_mod_sum():
    # the symbol sum mod q is the second entry of code_signature
    assert code_signature(REF_WORD, 8)[1] == 1
    assert code_signature(REF_WORD[3:], 8)[1] == 0  # suffix sums to 48
    assert code_signature((0, 0, 0), 5)[1] == 0
    with pytest.raises(ParameterError):
        code_signature((0, 8), 8)


def test_code_signature_is_aux_checksum_and_sum():
    syn, total = code_signature(REF_WORD, 8)
    assert syn == syndrome(aux_sequence(REF_WORD)) % 16 == 0
    assert total == 1
    for n in range(2, 6):
        for w in itertools.product(range(3), repeat=n):
            assert code_signature(w, 3) == (syndrome(aux_sequence(w)), sum(w) % 3)
    for short in [(), (2,)]:
        with pytest.raises(ParameterError, match="length at least 2"):
            code_signature(short, 3)


def test_is_member():
    p = QaryVtParams(**REF_PARAMS)
    assert is_member(REF_WORD, p)
    assert not is_member(REF_WORD, QaryVtParams(n=16, q=8, a=0, b=0))
    # constant-zero word of length 8: auxiliary bits all 1, checksum 28 mod 8 = 4
    assert is_member((0,) * 8, QaryVtParams(n=8, q=8, a=4, b=0))
    with pytest.raises(ParameterError):
        is_member(REF_WORD[:-1], p)


def test_message_length_values():
    assert message_length(16, 8) == 28
    assert message_length(8, 4) == 5
    assert message_length(16, 3) == 13
    assert message_length(6, 4) == 1
    assert message_length(6, 3) == 0
    assert message_length(7, 3) == 1
    assert message_length(10, 3) == 3
    assert message_length(6, 5) == 2


def test_message_length_matches_term_by_term_evaluation():
    # independent cross-check with float logs, exact at these magnitudes
    import math

    for q in (3, 4, 5, 6, 8, 11, 16):
        for n in (6, 7, 8, 10, 12, 16, 20, 30):
            if (n - 1) & (n - 2) == 0:
                continue
            t = math.ceil(math.log2(n))
            free = n - 3 * t + 3
            expected = math.floor(free * math.log2(q))
            if q == 3:
                expected += 2 * (t - 3)
            else:
                expected += (t - 3) * math.floor(math.log2((q - 1) ** 2))
                expected += math.floor(math.log2(q - 1))
            assert message_length(n, q) == expected


def test_unsupported_shapes():
    for n in (9, 17, 33):
        with pytest.raises(UnsupportedLengthError):
            message_length(n, 4)
        with pytest.raises(UnsupportedLengthError):
            QaryVtParams(n=n, q=4, a=0, b=0)
    with pytest.raises(ParameterError):
        message_length(5, 4)
    with pytest.raises(ParameterError):
        message_length(8, 2)


def test_params_validation_and_layout():
    p = QaryVtParams(**REF_PARAMS)
    assert (p.t, p.k) == (4, 28)
    assert p.dyadic_positions == (1, 2, 4, 8)
    assert p.pair_positions == ((3, 5), (7, 9))
    assert p.free_positions == (6, 10, 11, 12, 13, 14, 15)
    p = QaryVtParams(n=8, q=4, a=0, b=0)
    assert p.pair_positions == ((3, 5),)
    assert p.free_positions == (6, 7)
    with pytest.raises(ParameterError):
        QaryVtParams(n=16, q=8, a=16, b=0)
    with pytest.raises(ParameterError):
        QaryVtParams(n=16, q=8, a=0, b=8)
    with pytest.raises(ParameterError):
        QaryVtParams(n=5, q=8, a=0, b=0)


def test_params_allow_zero_capacity_shapes():
    # (n=6, q=3) has k=0: each code carries the empty message, and its one
    # codeword survives any single deletion or insertion
    for a in range(6):
        for b in range(3):
            p = QaryVtParams(n=6, q=3, a=a, b=b)
            assert p.k == 0
            word = encode((), p)
            assert is_member(word, p)
            assert extract(word, p) == ()
            for i in range(6):
                assert correct(word[:i] + word[i + 1 :], p) == word
            for i in range(7):
                for s in range(3):
                    assert correct(word[:i] + (s,) + word[i:], p) == word


def test_pair_table_contents():
    t = pair_table(8)
    assert len(t.pairs) == 49
    assert t.pairs[0] == (1, 1)
    assert t.pairs[18] == (3, 5)
    assert t.pairs[28] == (5, 0)
    assert t.singles == (0, 1, 2, 3, 4, 5, 7)
    assert (t.pair_bits, t.single_bits) == (5, 2)
    t4 = pair_table(4)
    assert t4.pairs == (
        (1, 1), (1, 2), (1, 3),
        (2, 0), (2, 2), (2, 3),
        (3, 0), (3, 1), (3, 3),
    )
    assert t4.singles == (0, 1, 3)
    assert (t4.pair_bits, t4.single_bits) == (3, 1)


def test_pair_table_structure_for_each_q():
    for q in (3, 4, 5, 8, 11, 16, 17, 64, 257):
        t = pair_table(q)
        pairs, singles = oracle.pair_values(q), oracle.single_values(q)
        assert t.pairs == pairs
        assert t.singles == singles
        assert len(t.pairs) == (q - 1) ** 2
        assert len(t.singles) == q - 1
        assert list(t.pairs) == sorted(t.pairs)
        assert list(t.singles) == sorted(t.singles)
        assert all(left != 0 and right != left - 1 for left, right in t.pairs)
        assert q - 2 not in t.singles
        for i, pair in enumerate(pairs):
            assert t.pair(i) == pair
            assert t.pair_index(pair) == i
        for i, v in enumerate(singles):
            assert t.single(i) == v
            assert t.single_index(v) == i


def test_canonical_pair_bijection_and_errors():
    assert pair_table(8).pairs[0] == (1, 1)
    assert pair_table(8).pairs[28] == (5, 0)
    assert pair_table(4).pairs[0] == (1, 1)
    assert pair_table(8).pair_index((3, 5)) == 18
    with pytest.raises(ParameterError):
        pair_table(4).pair_index((1, 0))  # right = left - 1 is excluded
    with pytest.raises(ParameterError):
        pair_table(4).pair_index((0, 2))  # left = 0 is excluded
    with pytest.raises(ParameterError):
        PairTable(2)


def test_step6_triple_examples():
    assert _step6_triple(1, 8) == (0, 2, 7)
    assert _step6_triple(2, 8) == (1, 2, 7)
    assert _step6_triple(0, 8) == (0, 1, 7)
    assert _step6_triple(3, 8) == (0, 1, 2)


def test_step6_triple_all_small_alphabets():
    for q in range(4, 17):
        for w in range(q):
            x, y, z = _step6_triple(w, q)
            assert x < y < z <= q - 1
            assert (x + y + z) % q == w


def test_arrange_prefix():
    assert _arrange_prefix((0, 2, 7), 0, 0) == (7, 2, 0)
    assert _arrange_prefix((0, 1, 2), 1, 1) == (0, 1, 2)
    assert _arrange_prefix((0, 1, 3), 1, 0) == (0, 3, 1)
    assert _arrange_prefix((0, 1, 3), 0, 1) == (1, 0, 3)


def test_arrange_prefix_realizes_both_bits():
    triples = [(0, 1, 2), (0, 2, 7), (1, 3, 4), (2, 5, 9)]
    for triple in triples:
        for a1 in (0, 1):
            for a2 in (0, 1):
                c0, c1, c2 = _arrange_prefix(triple, a1, a2)
                assert sorted((c0, c1, c2)) == list(triple)
                assert (1 if c1 >= c0 else 0) == a1
                assert (1 if c2 >= c1 else 0) == a2


def test_encode_reference_word_from_canonical_message():
    p = QaryVtParams(**REF_PARAMS)
    assert encode(bits(REF_MESSAGE), p) == REF_WORD
    assert extract(REF_WORD, p) == bits(REF_MESSAGE)


def test_encode_stage_values_for_reference_word():
    from vtcodes.qary import _place_message

    p = QaryVtParams(**REF_PARAMS)
    c = _place_message(bits(REF_MESSAGE), p)
    assert [c[i] for i in p.free_positions] == [6, 1, 0, 7, 2, 5, 0]
    assert (c[3], c[5], c[7], c[9]) == (7, 3, 3, 5)
    assert (c[4], c[8]) == (6, 2)  # the stand-ins c[2^j - 1] - 1
    assert list(c) == [0, 0, 0, 7, 6, 3, 6, 3, 2, 5, 1, 0, 7, 2, 5, 0]
    aux = (0, 0) + aux_sequence(c)[2:]  # bits 1 and 2 wait for the deficit
    assert aux == bits("001001001001010")
    assert syndrome(aux) == 12
    assert (p.a - syndrome(aux)) % p.n == 4


def test_encode_known_words():
    assert encode(bits("00000"), QaryVtParams(n=8, q=4, a=0, b=0)) == (2, 1, 0, 3, 2, 0, 0, 0)
    assert encode(bits("0"), QaryVtParams(n=7, q=3, a=0, b=0)) == (1, 0, 2, 2, 2, 2, 0)
    assert encode(bits("0"), QaryVtParams(n=6, q=4, a=0, b=0)) == (0, 1, 2, 3, 2, 0)
    assert encode(bits("1"), QaryVtParams(n=6, q=4, a=0, b=0)) == (1, 2, 3, 3, 2, 1)


def test_encode_q3_descending_prefix_rewrite():
    # a=1 makes the deficit 0, so both leading auxiliary bits start 0 and the
    # encoder must lower positions 3 and 4 to fit a descending prefix
    word = encode(bits("0"), QaryVtParams(n=7, q=3, a=1, b=0))
    assert word == (2, 2, 2, 1, 0, 2, 0)
    assert aux_sequence(word)[:3] == (1, 1, 0)
    assert code_signature(word, 3) == (1, 0)


def test_encode_errors():
    p = QaryVtParams(n=8, q=4, a=0, b=0)
    with pytest.raises(MessageLengthError):
        encode(bits("0000"), p)
    with pytest.raises(MessageLengthError):  # k = 0 takes only the empty message
        encode((0,), QaryVtParams(n=6, q=3, a=0, b=0))


def test_encoder_suite_exhaustive_small_shapes():
    for n, q in ((8, 4), (6, 4), (6, 5), (7, 3), (10, 3)):
        table = pair_table(q)
        for a in range(n):
            for b in range(q):
                p = QaryVtParams(n=n, q=q, a=a, b=b)
                seen = set()
                for m in itertools.product((0, 1), repeat=p.k):
                    word = encode(m, p)
                    assert is_member(word, p)
                    assert extract(word, p) == m
                    seen.add(word)
                    if q >= 4:
                        for left, right in p.pair_positions:
                            assert word[left] != 0
                            assert word[right] != word[left] - 1
                assert len(seen) == 1 << p.k


def test_encoder_aux_choices_survive_in_final_word():
    # the checksum residue read back from the finished word must equal the
    # target for every deficit pattern, which exercises each dyadic choice
    for q in (3, 4, 8):
        n = 12
        for a in range(n):
            p = QaryVtParams(n=n, q=q, a=a, b=0)
            m = (0,) * p.k
            word = encode(m, p)
            assert code_signature(word, q) == (a, 0)


def test_extract_errors():
    p = QaryVtParams(n=8, q=4, a=0, b=0)
    codeword = encode(bits("00000"), p)
    with pytest.raises(NotACodewordError):
        extract(codeword, QaryVtParams(n=8, q=4, a=1, b=0))
    with pytest.raises(ParameterError):
        extract(codeword[:-1], p)
    with pytest.raises(NotACodewordError):
        extract((0, 1, 2, 2, 2, 2), QaryVtParams(n=6, q=3, a=0, b=0))


def _members(n, q, a, b):
    for word in itertools.product(range(q), repeat=n):
        syn = sum(i for i in range(1, n) if word[i] >= word[i - 1]) % n
        if syn == a and sum(word) % q == b:
            yield word


def _word_with(n, q, pred):
    """A genuine member (params derived from the word itself) matching pred."""
    for w in itertools.product(range(q), repeat=n):
        if pred(w):
            syn = sum(i for i in range(1, n) if w[i] >= w[i - 1]) % n
            return w, QaryVtParams(n=n, q=q, a=syn, b=sum(w) % q)
    raise AssertionError("no matching word in the space")


def test_extract_rejects_words_outside_the_encoder_image():
    # members whose pinned positions do not match the layout must be refused
    bad_pin, p = _word_with(6, 4, lambda w: w[3] != 3)
    with pytest.raises(ExtractionError):
        extract(bad_pin, p)
    # position 5 holding q-2 is never produced by the encoder
    bad_single, p = _word_with(6, 4, lambda w: w[3] == 3 and w[5] == 2)
    with pytest.raises(ExtractionError):
        extract(bad_single, p)
    bad_q3, p = _word_with(7, 3, lambda w: w[5] != 2 and w[6] < 2)
    with pytest.raises(ExtractionError):
        extract(bad_q3, p)
    # free-position symbol past the message range (width 1 allows only 0, 1)
    bad_free, p = _word_with(7, 3, lambda w: w[6] == 2)
    with pytest.raises(ExtractionError):
        extract(bad_free, p)
    # a data pair outside the allowed table (left symbol 0)
    bad_pair, p = _word_with(10, 3, lambda w: w[7] == 0 and w[6] < 2)
    with pytest.raises(ExtractionError):
        extract(bad_pair, p)


def test_extract_accepts_every_encoded_word_and_only_round_trips():
    p = QaryVtParams(n=8, q=4, a=2, b=3)
    image = {encode(m, p): m for m in itertools.product((0, 1), repeat=5)}
    for word, m in image.items():
        assert extract(word, p) == m


def test_correct_recovers_reference_word_after_each_deletion():
    p = QaryVtParams(**REF_PARAMS)
    for i in range(16):
        received = REF_WORD[:i] + REF_WORD[i + 1 :]
        assert correct(received, p) == REF_WORD


def test_correct_recovers_reference_word_after_each_insertion():
    p = QaryVtParams(**REF_PARAMS)
    for i in range(17):
        for s in range(8):
            received = REF_WORD[:i] + (s,) + REF_WORD[i:]
            assert correct(received, p) == REF_WORD


def test_correct_identity_and_errors():
    p = QaryVtParams(**REF_PARAMS)
    assert correct(REF_WORD, p) == REF_WORD
    with pytest.raises(NotACodewordError):
        correct(REF_WORD[:-1] + (1,), p)
    with pytest.raises(ParameterError):
        correct(REF_WORD[:-2], p)
    with pytest.raises(NoCandidateError):
        # the only deletion-reduct of the all-zero length-17 word is the
        # all-zero length-16 word, which has checksum 8 and sum 0, not (0, 1)
        correct((0,) * 17, p)


def test_correct_exhaustive_smallest_shape():
    n, q = 6, 3
    for word in itertools.product(range(q), repeat=n):
        a = sum(i for i in range(1, n) if word[i] >= word[i - 1]) % n
        b = sum(word) % q
        p = QaryVtParams(n=n, q=q, a=a, b=b)
        for i in range(n):
            assert correct(word[:i] + word[i + 1 :], p) == word
