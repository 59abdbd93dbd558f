"""The q-ary encoder, extractor, conversions and checksum kernels against the
per-symbol oracle.

Exhaustive comparisons cover every message at small shapes, intermediates
included. Property tests then draw supported lengths up to 4096 and alphabets
up to 300, always including the alphabets where the digit conversions change
how many digits they handle per step (q**c <= 256), and check that encode
matches the oracle, extract inverts it, every output is a codeword and
distinct messages give distinct words; one more property draws lengths up
to 16384 and checks each output's residues with code_signature, apart from
the encoder's own output check. Round trips at n = 16384 carry free blocks
past CPython's 4300-digit limit on int/str conversion in other bases than
powers of two, and round trips at alphabets up to 2**64 + 1 show that the
encoder's pair values cost nothing that grows with q.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from vtcodes import binary, qary, words
from vtcodes.errors import ExtractionError
from vtcodes.qary import (
    QaryVtParams,
    _place_message,
    aux_sequence,
    code_signature,
    encode,
    extract,
)

# Digits per chunk byte: 5 at q = 3, 2 at q = 15 (the top of a byte-sized
# chunk), 1 from q = 17 on; 4, 16, 64 and 256 pack bits of the text instead.
# 256/257 bracket the largest one-byte symbol.
BOUNDARY_ALPHABETS = (3, 4, 15, 16, 17, 36, 37, 40, 64, 256, 257)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the type is what gets compared
        return type(exc)


def supported(n):
    return n >= 6 and (n - 1) & (n - 2) != 0


@pytest.mark.parametrize("n,q", [(8, 4), (7, 3), (10, 5), (10, 8), (12, 4), (11, 3), (6, 4), (6, 3)])
def test_every_message_matches_the_oracle(n, q):
    for a, b in {(0, 0), (1, q - 1), (n // 2, 1), (n - 1, q // 2)}:
        p = QaryVtParams(n, q, a, b)
        for message in itertools.product((0, 1), repeat=p.k):
            c = _place_message(message, p)
            placed = oracle._place_message(message, p)  # None where unset
            assert len(c) == p.n
            assert [None if s is None else x for x, s in zip(c, placed)] == placed
            assert c[:3] == bytearray(3)
            for pos in p.dyadic_positions[2:]:  # the stand-in at each reserved 2^j
                assert c[pos] == c[pos - 1] - 1
            assert [0, 0, 0, *aux_sequence(c)[2:]] == oracle._prefill_aux(c, p)
            word = encode(message, p)
            assert word == oracle.encode_q(message, p)
            assert extract(word, p) == oracle.extract_q(word, p) == message


@pytest.mark.parametrize("n,q", [(7, 4), (8, 3), (6, 3)])
def test_extract_matches_the_oracle_on_every_codeword(n, q):
    # most codewords are not encoder outputs, so the range checks get hit
    for a, b in [(0, 0), (3, 2), (n - 1, q - 1)]:
        p = QaryVtParams(n, q, a, b)
        for word in itertools.product(range(q), repeat=n):
            if code_signature(word, q) == (a, b):
                assert outcome(extract, word, p) == outcome(oracle.extract_q, word, p), word


def test_free_positions_match_the_oracle():
    # the layout is cached per (n, q); the oracle derives the positions from n
    for n, q in itertools.product([*range(6, 600), 1023, 1024, 1026, 2048, 4000, 4096], [3, 4, 8]):
        if supported(n):
            p = QaryVtParams(n, q, 0, 0)
            assert p.free_positions == oracle.free_positions(p), n
            assert p.pair_positions == oracle.pair_positions(n), n
            assert p.dyadic_positions == oracle.dyadic_positions(n), n


def shapes(alphabets):
    n = st.integers(7, 4096).filter(supported)
    return st.tuples(n, alphabets).flatmap(
        lambda nq: st.tuples(
            st.just(nq),
            st.integers(0, nq[0] - 1),
            st.integers(0, nq[1] - 1),
            st.integers(0, 2**32 - 1).map(random.Random),  # message draws
        )
    )


def check_shape(case):
    (n, q), a, b, rng = case
    p = QaryVtParams(n, q, a, b)
    message = tuple(rng.randrange(2) for _ in range(p.k))
    word = encode(message, p)
    assert word == oracle.encode_q(message, p)
    # the oracle is slow at large n; the other messages check the properties
    words_of = {message: word}
    for other in [(0,) * p.k, (1,) * p.k, tuple(rng.randrange(2) for _ in range(p.k))]:
        words_of[other] = encode(other, p)
    for message, word in words_of.items():
        assert p.is_member(word)
        assert extract(word, p) == message
    assert len(set(words_of.values())) == len(words_of)


@settings(max_examples=12, deadline=None, database=None)
@given(shapes(st.integers(3, 300)))
def test_encoder_matches_the_oracle(case):
    check_shape(case)


@pytest.mark.parametrize("q", BOUNDARY_ALPHABETS)
@settings(max_examples=3, deadline=None, database=None)
@given(data=st.data())
def test_encoder_matches_the_oracle_at_boundary_alphabets(q, data):
    check_shape(data.draw(shapes(st.just(q))))


@pytest.mark.parametrize("q", [3, 4, 5, 8, 17, 129, 257, 300])
@settings(max_examples=10, deadline=None, database=None)
@given(n=st.integers(6, 16384).filter(supported), seed=st.integers(0, 2**32 - 1))
def test_every_encoder_output_is_a_member(q, n, seed):
    # code_signature recomputes both residues from the word alone, apart
    # from the encoder's own output check
    rng = random.Random(seed)
    p = QaryVtParams(n, q, rng.randrange(n), rng.randrange(q))
    word = encode(tuple(rng.randrange(2) for _ in range(p.k)), p)
    assert len(word) == n and code_signature(word, q) == (p.a, p.b)


CONVERSION_BASES = (2, 3, 4, 5, 7, 15, 16, 17, 36, 37, 40, 64, 255, 256, 257, 300)


def test_bit_conversions_match_the_oracle():
    # the encoder reads message bits as int(text, 2) and extract writes them
    # back through format(); a slot is never zero bits wide
    for width in [1, 2, 7, 8, 9, 64, 300]:
        drawn = random.Random(width).getrandbits(width)
        for value in {0, 1, (1 << width) - 1, drawn}:
            bits = words._text_bits(format(value, f"0{width}b").encode())
            assert tuple(bits) == oracle.int_to_bits(value, width), (value, width)
            assert int(words._bit_text(bits), 2) == oracle.bits_to_int(bits) == value


@pytest.mark.parametrize("base", CONVERSION_BASES)
def test_digit_conversions_match_the_oracle(base):
    rng = random.Random(base)
    # 1000 digits take a split in every base that is not a power of two
    for width in [0, 1, 2, 3, 4, 5, 8, 9, 64, 100, 1000]:
        top = base**width
        bits = top.bit_length() - 1  # the encoder's free-block bits
        for value in {0, min(1, top - 1), top - 1, rng.randrange(top)}:
            digits = oracle.int_to_digits(value, base, width)
            text = words._digits_text(digits, base, bits)
            if value >> bits:  # past the block's bits, which no power of two reaches
                assert text is None and base & (base - 1)
                text = format(value, "b").encode()
            else:
                assert text == words._bit_text(oracle.int_to_bits(value, bits))
            assert tuple(words._text_digits(text, base, width)) == digits


@pytest.mark.parametrize("q", [3, 5])
def test_extract_refuses_free_symbols_past_the_message_range(q):
    # q**W - 1 needs one bit more than the free block's floor(log2(q**W))
    p = QaryVtParams(400, q, 3, 1)
    c = _place_message((0,) * p.k, p)
    for i in p.free_positions:
        c[i] = q - 1
    word = qary._complete_codeword(c, p)
    assert p.is_member(word)
    assert outcome(extract, word, p) is outcome(oracle.extract_q, word, p) is ExtractionError


def test_digits_to_int_with_one_digit_per_step():
    # q = 40 has chunks of one digit (40**2 > 256), so its chunks are its digits
    assert words._chunking(40)[0] == 1
    assert words._digits_value((39, 0, 1), 40) == 39 * 1600 + 1
    assert tuple(words._value_digits(39 * 1600 + 1, 40, 3)) == (39, 0, 1)
    text = format(39 * 1600 + 1, "b").encode()
    assert tuple(words._text_digits(text, 40, 3)) == (39, 0, 1)
    assert words._digits_text((39, 0, 1), 40, len(text)) == text
    p = QaryVtParams(20, 40, 3, 7)
    message = tuple(random.Random(40).randrange(2) for _ in range(p.k))
    assert extract(encode(message, p), p) == message


@pytest.mark.parametrize("q", [4, 5])
def test_round_trip_past_the_int_string_limit(q):
    p = QaryVtParams(16384, q, 7, 1)
    rng = random.Random(q)
    message = tuple(rng.randrange(2) for _ in range(p.k))
    word = encode(message, p)
    free = tuple(word[i] for i in p.free_positions)
    assert len(free) > 4300
    value = oracle.bits_to_int(message[: p._layout.free_bits])
    assert free == oracle.int_to_digits(value, q, len(free))
    assert p.is_member(word)
    assert extract(word, p) == message


@pytest.mark.parametrize("q", [3001, 65537, 2**20, 2**64 + 1])
@pytest.mark.parametrize("n", [16, 20, 100])
def test_round_trip_at_large_alphabets(n, q):
    # the pair and position-5 values are index arithmetic, so no alphabet
    # costs more than its few slots; a (q - 1)**2 table would not fit here
    p = QaryVtParams(n, q, n // 3, q // 7)
    rng = random.Random(n * q)
    messages = {tuple(rng.randrange(2) for _ in range(p.k)) for _ in range(4)}
    codewords = set()
    for message in messages:
        word = encode(message, p)
        assert p.is_member(word)
        assert extract(word, p) == message
        i = rng.randrange(n)
        assert p.correct(word[:i] + word[i + 1 :]) == word
        j = rng.randrange(n + 1)
        assert p.correct(word[:j] + (rng.randrange(q),) + word[j:]) == word
        codewords.add(word)
    assert len(codewords) == len(messages)


# The lane kernel covers q <= 128; 129 .. 2**64 + 1 compare per symbol.
KERNEL_ALPHABETS = st.one_of(
    st.integers(3, 128), st.sampled_from([127, 128, 129, 200, 256, 257, 1000, 2**64 + 1])
)


@st.composite
def kernel_words(draw):
    q = draw(KERNEL_ALPHABETS)
    # n - 1 ascent lanes: the forced lengths sit on both sides of each new mask level
    level_edges = st.sampled_from([8, 9, 64, 65, 512, 513, 4096, 4097])
    n = draw(st.one_of(st.integers(2, 4097), level_edges))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # edge symbols, next to each other and to themselves, test >= at each lane's limits
    edges = [s for s in (0, 127, 128, q - 1) if s < q]
    return [rng.choice(edges) if rng.random() < 0.3 else rng.randrange(q) for _ in range(n)], q


@settings(max_examples=300, deadline=None, database=None)
@given(kernel_words())
def test_checksum_kernels_match_the_oracle(case):
    word, q = case
    n, total = len(word), sum(word) % q
    ascents = tuple(int(y >= x) for x, y in zip(word, word[1:]))
    syn = oracle._checksum(ascents, n)
    assert qary._ascents(word, q) == aux_sequence(word) == ascents
    assert code_signature(word, q) == (syn, total)
    assert binary._checksum(ascents, n) == syn
    for a, b in [(0, 0), (syn, total), ((syn + 1) % n, total), (syn, (total + 1) % q)]:
        assert (code_signature(word, q) == (a, b)) == oracle._matches_code(word, n, q, a, b)
