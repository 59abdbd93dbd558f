"""Word validation, text formats, the unchecked block conversions against
the oracle's per-digit ones, and the duplicate-free edit neighbourhoods."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vtcodes.errors import ParameterError
from vtcodes.words import (
    _LEAF_CHUNKS,
    _bit_text,
    _chunking,
    _digits_text,
    _text_bits,
    _text_digits,
    check_bits,
    check_symbols,
    check_word,
    format_bitstring,
    format_symbols,
    parse_bitstring,
    parse_symbols,
)

import oracle
from oracle import distinct_deletions, distinct_insertions


def test_check_bits_accepts_only_binary():
    assert check_bits([0, 1, 1]) == (0, 1, 1)
    assert check_bits(()) == ()
    with pytest.raises(ParameterError):
        check_bits([0, 2])
    with pytest.raises(ParameterError):
        check_bits([0, -1])
    with pytest.raises(ParameterError):
        check_bits("010")  # text must go through parse_bitstring


def test_check_word_range():
    assert check_word([0, 3, 2], 4) == (0, 3, 2)
    with pytest.raises(ParameterError):
        check_word([0, 4], 4)
    with pytest.raises(ParameterError):
        check_word([1.5, 0], 4)


def test_check_symbols_rejects_negative():
    assert check_symbols([7, 0, 12]) == (7, 0, 12)
    with pytest.raises(ParameterError):
        check_symbols([1, -3])


def test_bitstring_round_trip():
    assert parse_bitstring("0110") == (0, 1, 1, 0)
    assert parse_bitstring("") == ()
    assert format_bitstring((1, 0, 1)) == "101"
    with pytest.raises(ParameterError):
        parse_bitstring("01x")


def test_symbols_round_trip():
    assert parse_symbols("7 2 0") == (7, 2, 0)
    assert parse_symbols("") == ()
    assert format_symbols((0, 10, 3)) == "0 10 3"
    with pytest.raises(ParameterError):
        parse_symbols("1 two")
    with pytest.raises(ParameterError):
        parse_symbols("1 -2")


def test_text_parsers_refuse_what_is_not_a_str():
    # bytes too: their items are ints, not characters
    for parse in (parse_bitstring, parse_symbols):
        for value in (None, ["0", "1"], b"01", b"1 2", 5):
            with pytest.raises(ParameterError, match="expected a str"):
                parse(value)


def test_bits_int_conversions_are_big_endian():
    assert int(_bit_text((1, 1, 0)), 2) == 6
    assert tuple(_text_bits(format(6, "03b").encode())) == (1, 1, 0)
    assert _bit_text(()) == b"" and tuple(_text_bits(b"")) == ()
    for width in range(1, 6):
        for v in range(1 << width):
            bits = _text_bits(format(v, f"0{width}b").encode())
            assert tuple(bits) == oracle.int_to_bits(v, width)
            assert int(_bit_text(bits), 2) == v


def test_digit_conversions_are_big_endian():
    assert tuple(_text_digits(b"1011", 3, 3)) == (1, 0, 2)
    assert _digits_text((1, 0, 2), 3, 4) == b"1011"
    assert tuple(_text_digits(b"001011", 4, 3)) == (0, 2, 3)
    assert _digits_text((0, 2, 3), 4, 6) == b"001011"
    for base in (3, 4, 5, 8, 256):  # an empty block
        assert tuple(_text_digits(b"", base, 0)) == () and _digits_text((), base, 0) == b""
    for base, bits in [(3, 4), (5, 6), (8, 9)]:
        for v in range(1 << bits):
            text = format(v, f"0{bits}b").encode()
            digits = _text_digits(text, base, 3)
            assert tuple(digits) == oracle.int_to_digits(v, base, 3)
            assert _digits_text(digits, base, bits) == text


# Every power of two from 4 to 256, which convert by bit planes at every
# width, and bases that divide and conquer past a leaf of _LEAF_CHUNKS chunks,
# with chunks of 1 to 5 digits.
@st.composite
def path_widths(draw, q):
    """For a power of two, any width up to 64 or up to 16384; otherwise widths
    that cover a partial, a whole and a second chunk of c digits, or straddle
    the leaf size or twice it (where a second split starts), or lie anywhere
    up to 16384."""
    if q & (q - 1) == 0:
        return draw(st.one_of(st.integers(0, 64), st.integers(0, 16384)))
    c = _chunking(q)[0]
    leaf = c * _LEAF_CHUNKS
    edges = [st.integers(edge - 2, edge + 2) for edge in (leaf, 2 * leaf)]
    return draw(st.one_of(st.integers(max(c - 1, 0), 2 * c + 1), *edges, st.integers(0, 16384)))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 16, 17, 32, 40, 64, 128, 256, 257])
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_digit_round_trip_straddles_the_chunk_size(q, data):
    width = data.draw(path_widths(q), label="width")
    top = q**width
    # a value past 64 bits comes from a drawn Random, so that a falsifying
    # example prints no long decimal, which -X int_max_str_digits=640 refuses
    pick = data.draw(st.sampled_from(["small", "top", "random"]), label="value")
    if pick == "small":  # leading zero digits
        value = data.draw(st.integers(0, min(top, 1 << 64) - 1), label="small value")
    elif pick == "top":
        value = top - 1
    else:
        value = data.draw(st.randoms(), label="rng").randrange(top)
    digits = oracle.int_to_digits(value, q, width)
    bits = top.bit_length() - 1  # the encoder's free-block bits, b * width for q = 2**b
    text = _digits_text(digits, q, bits)
    if text is None:  # only a base that is not a power of two overflows the bits
        assert value >> bits and q & (q - 1)
        text = format(value, "b").encode()
    else:
        assert len(text) == bits and not value >> bits
    assert int(text or b"0", 2) == oracle.digits_to_int(digits, q) == value
    assert tuple(_text_digits(text, q, width)) == digits


def naive_deletions(word):
    return {word[:i] + word[i + 1 :] for i in range(len(word))}


def naive_insertions(word, q):
    return {
        word[:i] + (s,) + word[i:]
        for i in range(len(word) + 1)
        for s in range(q)
    }


@pytest.mark.parametrize("q,n", [(2, 6), (3, 5), (4, 4)])
def test_distinct_deletions_match_naive_set_without_duplicates(q, n):
    for word in itertools.product(range(q), repeat=n):
        got = list(distinct_deletions(word))
        assert len(got) == len(set(got))
        assert set(got) == naive_deletions(word)


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4), (4, 3)])
def test_distinct_insertions_match_naive_set_without_duplicates(q, n):
    for word in itertools.product(range(q), repeat=n):
        got = list(distinct_insertions(word, q))
        assert len(got) == len(set(got))
        assert set(got) == naive_insertions(word, q)


def test_distinct_insertions_into_empty_word():
    assert set(distinct_insertions((), 3)) == {(0,), (1,), (2,)}


def outcome(check, *args):
    """repr of the checked word, which tells np.int64(3) from 3, or the
    ParameterError message."""
    try:
        return repr(check(*args))
    except ParameterError as exc:
        return f"ParameterError: {exc}"


@st.composite
def words_and_alphabets(draw):
    q = draw(st.sampled_from([2, 3, 4, 255, 256, 257, 300, 65537, 1, 0, -2, None]))
    top = 1 << 62 if q is None else max(q, 0)  # q None takes any non-negative symbol
    symbol = st.integers(0, max(top - 1, 0))
    if top > 300:  # symbols past 255 and byte-sized words, which take the range pass
        symbol = st.one_of(symbol, st.integers(0, 255))
    if draw(st.booleans()):  # out-of-range symbols, then other kinds of bad one
        low = -1 if draw(st.booleans()) else 0
        symbol = st.one_of(st.integers(low, top + 1), st.sampled_from([low, top, top + 1]))
        if draw(st.booleans()):
            symbol = st.one_of(symbol, symbol.map(np.int64))
        if draw(st.booleans()):
            symbol = st.one_of(symbol, st.booleans())
    word = draw(st.lists(symbol, max_size=40))
    return q, word, draw(st.sampled_from([tuple, list, iter]))


@settings(max_examples=400, deadline=None, database=None)
@given(words_and_alphabets())
def test_word_checks_match_the_min_max_oracle(case):
    q, word, container = case
    if q is None:
        expected = outcome(oracle.check_symbols, container(word))
    else:
        expected = outcome(oracle.check_word, container(word), q)
    assert outcome(check_word, container(word), q) == expected
    assert outcome(check_symbols, container(word)) == outcome(oracle.check_symbols, container(word))
    if q == 2:
        assert outcome(check_bits, container(word)) == expected


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(st.text("01", max_size=80), st.text("01x2 \u00e9", max_size=20), st.text(max_size=8)))
def test_bitstring_parsing_matches_the_per_character_oracle(text):
    assert outcome(parse_bitstring, text) == outcome(oracle.parse_bitstring, text)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 1), max_size=80),
        st.lists(st.sampled_from([0, 1, 2, -1, True, np.int64(1), 1.0]), max_size=20),
        st.text("01", max_size=8),
    )
)
def test_bitstring_formatting_matches_the_per_character_oracle(bits):
    expected = outcome(oracle.format_bitstring, bits)
    assert outcome(format_bitstring, bits) == expected
    if not expected.startswith("ParameterError"):
        assert parse_bitstring(format_bitstring(bits)) == check_bits(bits)
