"""Shared word handling: validation of integer arguments, residues and
words, text formats, and the codecs' unchecked block conversions.

Serialization conventions used throughout the package and the CLI: a bit
sequence is a contiguous string of '0'/'1' characters with the lowest index
leftmost; a q-ary word is a run of space-separated decimal symbols, which
stays unambiguous for alphabets larger than ten.

Words are validated once, at the public boundary, by one word check
(check_word; check_bits and check_symbols are its binary and alphabet-free
spellings): one type pass, which a bytes word skips, and, when every symbol
fits in a byte, one bytearray().translate() range pass for alphabets below
256 symbols. The codecs hand unchecked cores the bytes that pass builds
(_word), or a tuple for alphabets past 256 symbols; the cores use only what
bytes and tuples share, and the public calls turn a core's word into a
tuple once, through _returned. That tuple is kept, one reference, as the last
word a public codec call returned, and the check skips the type pass for that
very object (identity, never equality), since the library built it from plain
ints; the range pass still runs against the new call's alphabet. So a chain
encode -> apply_channel -> correct -> extract pays the type pass once, for
the message. Between threads a stale reference costs one full pass, never a
wrong answer. CodeParams, the base of both params classes, holds that codec
flow once, rebuilding a corrected word with _apply, the edit primitive the
channel uses too, and check_params keeps each family's module functions to
that family's params. The block conversions take only values the codecs made
or already checked, so they check nothing. The q-ary free block converts
from and to '0'/'1' bit text: for q = 2**b <= 256 its digits are the text's
b-bit groups, moved as bit planes by C passes; other alphabets go through an
int split in about halves by cached powers of q down to leaves a per-base
table converts c digits at a time (q**c <= 256). Only base-2 strings occur,
so CPython's int/str limit never bites.
One lane kernel on a big int (SIMD within a register), _ascent_flags and
_flag_checksum, gives the q-ary ascent bits and both families' weighted
checksums sum(i * s_i) over 0/1 values: O(n), log2(n) / 3 AND/popcount steps.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import fields
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .errors import (
    MessageLengthError,
    NoCandidateError,
    NotACodewordError,
    ParameterError,
    UnsupportedParametersError,
)

Word = tuple[int, ...]


def _as_int(value) -> int:
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"expected an integer, got {value!r}")


def check_int(value, name: str, minimum: int | None = None) -> int:
    """An integer argument as a plain int, at least `minimum` when one is
    given. numpy integers pass through operator.index, as word symbols do;
    bool, float and str are refused."""
    try:
        out = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        out = None
    if out is None or (minimum is not None and out < minimum):
        kind = "an int" if minimum is None else f"an int >= {minimum}"
        raise ParameterError(f"{name} must be {kind}, got {value!r}")
    return out


def check_residue(value, name: str, modulus: int) -> int:
    """A residue argument as a plain int in 0..modulus-1; refused like any
    other integer argument when it is not an int (see check_int)."""
    value = check_int(value, name)
    if not 0 <= value < modulus:
        raise ParameterError(f"{name} must lie in 0..{modulus - 1}, got {value}")
    return value


_BYTE_VALUES = bytes(range(256))

# The last word a public codec call returned (see _returned), which _checked
# takes without a type pass. One reference: it keeps that word alive, so no
# other object can share its identity.
_last: Word | None = None


def _returned(word: Iterable[int]) -> Word:
    """word as a plain tuple, kept as the last word a public codec call
    returned. The library builds such words only from core bytes, from
    tuples _checked already made plain, and from symbols check_int returned,
    so they hold plain ints."""
    global _last
    _last = out = tuple(word)
    return out


def _checked(word: Iterable[int], q: int | None) -> tuple[Sequence[int], bytes | bytearray | None]:
    """The one word check: (symbols, buffer) for a word over the alphabet
    {0, .., q-1}, or of non-negative symbols when q is None. symbols is the
    word as a tuple of plain ints (a tuple of plain ints is kept as is;
    numpy integers convert through operator.index; bool, float and str
    symbols, and a word that is not iterable, are refused), or the bytes or
    bytearray given, which holds no bool and so skips that type pass, as
    does the very tuple a public codec call returned last (_returned; an
    equal tuple, a copy or a list still takes the pass). buffer
    holds the same symbols as bytes when every one fits in a byte, and is
    None otherwise.

    A word of byte-sized symbols takes one C pass for the range in alphabets
    below 256 symbols: bytearray() reads the tuple (faster than bytes() does), and
    translate() deletes the alphabet's byte values (none for q <= 0), leaving
    the out-of-range symbols in order. A word bytearray() refuses, which
    holds a symbol outside 0..255, is checked with min/max, so every error
    names the same first bad symbol either way.
    """
    if type(q) is not int and q is not None:
        q = check_int(q, "alphabet size")
    if type(word) is not tuple and isinstance(word, (bytes, bytearray, str)):
        if isinstance(word, str):
            parser = "parse_bitstring" if q == 2 else "parse_symbols"
            raise ParameterError(f"expected a sequence of ints; use {parser}() for text")
        out = buf = word
    else:
        try:
            iter(word)  # a probe: an error raised inside the iterable propagates from tuple()
        except TypeError:
            raise ParameterError(f"expected a sequence of ints, got {word!r}") from None
        out = tuple(word)
        if out is not _last and set(map(type, out)) != {int}:
            out = tuple(map(_as_int, out))
        try:
            buf = bytearray(out)
        except ValueError:  # a symbol outside 0..255, so out is not empty
            if min(out) < 0:
                bad = next(s for s in out if s < 0)
                raise ParameterError(f"symbols must be non-negative, got {bad}") from None
            if q is not None and max(out) >= q:
                bad = next(s for s in out if s >= q)
                raise ParameterError(f"symbol {bad} out of range for alphabet size {q}") from None
            return out, None
    if q is not None and q < 256:  # every byte value lies in a larger alphabet
        stray = buf.translate(None, _BYTE_VALUES[:q] if q > 0 else b"")
        if stray:
            raise ParameterError(f"symbol {stray[0]} out of range for alphabet size {q}")
    return out, buf


def check_word(word: Iterable[int], q: int | None = None) -> Word:
    """Validate a word over the alphabet {0, .., q-1}, or of non-negative
    symbols when q is None, and return it as a tuple of plain ints. numpy
    integers are accepted; bool, float and str symbols are refused."""
    return tuple(_checked(word, q)[0])  # a tuple comes back as is


def _word(word: Iterable[int], q: int) -> bytes | Word:
    """A word over q checked as check_word checks it, in the cores' word
    type: bytes when every symbol of the alphabet fits in a byte, q <= 256,
    else a tuple of plain ints, which a decoder can insert any symbol into."""
    out, buf = _checked(word, q)
    return bytes(buf) if q <= 256 else tuple(out)


check_symbols = check_word  # check_symbols(word) is check_word(word): any non-negative symbols


def check_bits(bits: Iterable[int]) -> Word:
    return check_word(bits, 2)


def parse_bitstring(text: str) -> Word:
    if not isinstance(text, str):
        raise ParameterError(f"expected a str of 0s and 1s, got {type(text).__name__}")
    bad = set(text) - {"0", "1"}
    if bad:
        raise ParameterError(f"bit string may only contain 0 and 1, got {sorted(bad)}")
    return tuple(_text_bits(text.encode()))


def format_bitstring(bits: Iterable[int]) -> str:
    return _bit_text(_word(bits, 2)).decode()


def parse_symbols(text: str) -> Word:
    if not isinstance(text, str):
        raise ParameterError(f"expected a str of decimal symbols, got {type(text).__name__}")
    try:
        out = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ParameterError(f"symbols must be decimal integers, got {text!r}") from None
    return check_word(out)


def format_symbols(word: Iterable[int]) -> str:
    return " ".join(str(s) for s in check_word(word))


# Unchecked conversions: bits travel as b"0101" text, so builtins do the per-bit work.
_TO_TEXT = bytes.maketrans(b"\0\1", b"01")
_FROM_TEXT = bytes.maketrans(b"01", b"\0\1")


def _bit_text(bits: Sequence[int]) -> bytes:
    return bytes(bits).translate(_TO_TEXT)


def _text_bits(text: bytes) -> bytes:
    return text.translate(_FROM_TEXT)


# Divide and conquer stops at leaves of 64 chunks (about 500 bits), where the
# table loop's divmods are still cheap next to its per-chunk interpreter cost.
_LEAF_CHUNKS = 64


@lru_cache(maxsize=None)
def _chunking(base: int) -> tuple[int, tuple[Word, ...], dict]:
    """(c, digits, values) for converting c digits at a time: c >= 1 is the
    most base-`base` digits whose value fits in a byte, digits[v] holds the c
    big-endian digits of v and values inverts it. At c = 1 both are empty."""
    c = 1
    while base ** (c + 1) <= 256:
        c += 1
    digits = tuple(itertools.product(range(base), repeat=c)) if c > 1 else ()
    return c, digits, {d: v for v, d in enumerate(digits)}


@lru_cache(maxsize=None)
def _bit_planes(base: int) -> tuple[tuple[bytes, bytes], ...]:
    """For base = 2**b <= 256, one pair of translate tables per bit of a
    digit, most significant first: '0'/'1' to that bit's weight, and a digit
    to '0'/'1' by that bit. Empty for every other base."""
    b = base.bit_length() - 1
    if base != 1 << b or base > 256:
        return ()
    return tuple(
        (
            bytes.maketrans(b"01", bytes((0, 1 << bit))),
            bytes(48 + (v >> bit & 1) for v in range(256)),
        )
        for bit in reversed(range(b))
    )


@lru_cache(maxsize=64)
def _power(base: int, exp: int) -> int:
    return base**exp


def _split(width: int, leaf: int) -> int:
    """The low part's width when divide and conquer splits `width` > leaf
    digits: the largest leaf * 2**k below width, so every split of one base
    divides by one of a few cached powers."""
    return leaf << ((width - 1) // leaf).bit_length() - 1


def _value_digits(value: int, base: int, width: int) -> Word:
    """The width big-endian base-`base` digits of 0 <= value < base**width."""
    c, table, _ = _chunking(base)
    if width > c * _LEAF_CHUNKS:
        low = _split(width, c * _LEAF_CHUNKS)
        high, value = divmod(value, _power(base, low))
        return _value_digits(high, base, width - low) + _value_digits(value, base, low)
    chunk, chunks = base**c, []
    for _ in range(-(-width // c)):
        value, d = divmod(value, chunk)
        chunks.append(d)
    chunks.reverse()
    if c > 1:
        chunks = itertools.chain.from_iterable(map(table.__getitem__, chunks))
    out = tuple(chunks)
    return out[len(out) - width :]


def _digits_value(digits: Sequence[int], base: int) -> int:
    """The value of big-endian base-`base` digits, the inverse of _value_digits."""
    width = len(digits)
    c, _, values = _chunking(base)
    if width > c * _LEAF_CHUNKS:
        low = _split(width, c * _LEAF_CHUNKS)
        high = _digits_value(digits[:-low], base)
        return high * _power(base, low) + _digits_value(digits[-low:], base)
    if c > 1:  # whole chunks, padded with leading zeros
        padded = (0,) * (-width % c) + tuple(digits)
        digits = map(values.__getitem__, zip(*[iter(padded)] * c))
    chunk, value = base**c, 0
    for d in digits:
        value = value * chunk + d
    return value


def _text_digits(text: bytes, base: int, width: int) -> bytes | Word:
    """The width big-endian base-`base` digits of the value in '0'/'1' text:
    bytes for base = 2**b <= 256, whose text holds b * width bits (plane j
    is text[j::b]), and a tuple for other bases."""
    planes = _bit_planes(base)
    if not planes:
        return _value_digits(int(text or b"0", 2), base, width)
    b, total = len(planes), 0
    for j, (weight, _) in enumerate(planes):
        total += int.from_bytes(text[j::b].translate(weight), "big")
    return total.to_bytes(width, "big")  # no plane sum carries


def _digits_text(digits: Iterable[int], base: int, bits: int) -> bytes | bytearray | None:
    """The digits' value as `bits` '0'/'1' bytes, or None when it needs more:
    the inverse of _text_digits. bits is b * len(digits) for base = 2**b."""
    planes = _bit_planes(base)
    if not planes:
        value = _digits_value(tuple(digits), base)  # the lead 1 below keeps 0 bits empty
        return None if value >> bits else format(value | 1 << bits, "b")[1:].encode()
    b, digits = len(planes), bytes(digits)
    text = bytearray(len(digits) * b)
    for j, (_, bit) in enumerate(planes):
        text[j::b] = digits.translate(bit)
    return text


class _LaneConstants(dict):
    """The lane kernel's constants for m byte lanes, built on first lookup:
    (high, levels). high holds 0x80 in every lane. levels[l] holds, at the
    bottom of lane i, d one bits for the base-8 digit d = ((i + 1) >> 3l) & 7
    of the lane's weight, so that with flags holding 0 or 1 per lane, the sum
    of popcount(255 * flags & levels[l]) << 3l over l is the sum of i + 1 over
    the set lanes: ceil(bit_length(m) / 3) AND/popcount steps in all.
    """

    def __missing__(self, m: int) -> tuple[int, tuple[int, ...]]:
        if len(self) >= 256:  # keeps memory bounded when many lengths pass through
            self.clear()
        levels = []
        for shift in range(0, m.bit_length(), 3):
            run = 1 << shift  # consecutive weights that share the digit
            cycle = b"".join(bytes([(1 << d) - 1]) * run for d in range(8))
            lanes = (cycle * (m // len(cycle) + 1))[1 : m + 1]  # weights 1 .. m
            levels.append(int.from_bytes(lanes, "little"))
        self[m] = found = (int.from_bytes(b"\x80" * m, "little"), tuple(levels))
        return found


_LANES = _LaneConstants()


def _ascent_flags(w: Sequence[int], q: int) -> int:
    """The auxiliary bits of a checked word over alphabet q, as an int whose
    byte lane i (little-endian) holds 1 when w[i + 1] >= w[i], else 0. For
    q <= 128, with x the word's bytes as an int and high 0x80 in each of the
    m = len(w) - 1 lanes, every lane of (x >> 8) | high exceeds the matching
    lane of x, whose top bit is clear, so the subtraction borrows across no
    lane below m and leaves each lane's top bit set exactly when
    w[i + 1] >= w[i]; & high drops x's lane m, w[-1], which borrows from
    above."""
    if q > 128:  # no spare top bit: compare per symbol
        return int.from_bytes(bytes(map(operator.ge, w[1:], w)), "little")
    x, high = int.from_bytes(w, "little"), _LANES[len(w) - 1][0]
    return ((((x >> 8) | high) - x) & high) >> 7


def _flag_checksum(flags: int, m: int) -> int:
    """The weighted checksum of m byte lanes of 0/1 values: the sum of i + 1
    over the lanes i of flags that hold 1 (see _LaneConstants)."""
    spread = flags * 255
    total = shift = 0
    for level in _LANES[m][1]:
        total += (spread & level).bit_count() << shift
        shift += 3
    return total


def _apply(w: Sequence[int], kind: str, position: int | None, symbol: int | None) -> Sequence[int]:
    """One edit of a validated word, bytes or a tuple, given as a checked
    ChannelEvent's fields, in the word's own type (so an inserted symbol
    must fit it): the channel's edits and the decoders' undoing edits both
    go through here."""
    if kind == "identity":
        return w
    if kind == "deletion":
        if position >= len(w):
            raise ParameterError(f"deletion position {position} out of range 0..{len(w) - 1}")
        return w[:position] + w[position + 1 :]
    if position > len(w):
        raise ParameterError(f"insertion position {position} out of range 0..{len(w)}")
    return w[:position] + type(w)((symbol,)) + w[position:]


class CodeParams:
    """The codec flow both params classes inherit: the public methods validate
    their word once, hand it to the unchecked cores _encode, _extract and
    _correct as bytes (a tuple for q > 256; see _word), and turn the core's
    word into a tuple once, through _returned. Each family supplies n, q, k, t,
    _member (for a checked word of length n), _encode, the positional reader
    _read, and _restore, its decoder: for a word of length n - 1 or n + 1,
    the edit that undoes the channel's, as _apply's fields at the leftmost
    position that gives its word, when that word is in the code, or None.
    Levenshtein's binary rule always lands in the code; the q-ary _restore
    checks the one residue its rule leaves open from the received word's, so
    _correct runs no membership pass on its output. The cores
    take bytes or a tuple and use only what the two share."""

    _unsupported: str | None = None  # why encode and extract refuse the shape

    def encode(self, message: Iterable[int]) -> Word:
        """Systematically encode k message bits into a codeword."""
        return _returned(self._encode(self._message(message)))

    def extract(self, word: Iterable[int]) -> Word:
        """Read the message bits back out of a codeword produced by encode()."""
        return _returned(self._extract(_word(word, self.q)))

    def correct(self, received: Iterable[int]) -> Word:
        """Recover the codeword from a word that suffered at most one edit."""
        return _returned(self._correct(_word(received, self.q)))

    def is_member(self, word: Iterable[int]) -> bool:
        """True when a word of the code's length is in the code."""
        return self._member(self._sized(_word(word, self.q)))

    def to_dict(self) -> dict:
        """The code's parameters, q first: {"q": 2, "n": 10, "a": 3}."""
        return {"q": self.q} | {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def dyadic_positions(self) -> Word:
        return tuple(1 << j for j in range(self.t))

    def _message(self, message: Iterable[int]) -> bytes:
        bits = _word(message, 2)
        if self._unsupported:
            raise UnsupportedParametersError(self._unsupported)
        if len(bits) != self.k:
            raise MessageLengthError(
                f"expected {self.k} message bits for ({self._shape()}), got {len(bits)}"
            )
        return bits

    def _sized(self, word: Sequence[int]) -> Sequence[int]:
        if len(word) != self.n:
            raise ParameterError(f"expected a word of length {self.n}, got {len(word)}")
        return word

    def _extract(self, word: Word) -> Word:
        self._sized(word)
        if self._unsupported:
            raise UnsupportedParametersError(self._unsupported)
        return self._read(self._correct(word))  # a word of length n comes back only if a member

    def _correct(self, r: Word) -> Word:
        n = self.n
        if len(r) == n:
            if self._member(r):
                return r
            raise NotACodewordError(f"word is not in the code ({self._shape()})")
        if len(r) not in (n - 1, n + 1):
            raise ParameterError(f"received length {len(r)} is not within one edit of n={n}")
        edit = self._restore(r)
        if edit is None:
            raise NoCandidateError(
                f"no codeword within one edit of the received word ({self._shape()})"
            )
        return _apply(r, *edit)

    def _shape(self) -> str:
        """The code's parameters as error messages name them: "q=2, n=10, a=3"."""
        return ", ".join(f"{key}={value}" for key, value in self.to_dict().items())


def check_params(params, family: type):
    """params itself when it is an instance of family (a code family, or
    ChannelEvent); ParameterError naming family otherwise, so a module
    function never runs another family's flow."""
    if not isinstance(params, family):
        raise ParameterError(f"expected {family.__name__}, got {type(params).__name__}")
    return params
