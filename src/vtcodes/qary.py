"""Single-deletion/insertion correcting codes over alphabets of size q >= 3.

A word c_0 .. c_{n-1} over {0, .., q-1} is summarized by two residues: the
weighted checksum (mod n) of its auxiliary sequence, the binary word whose
bit i records whether c_i >= c_{i-1}, and the plain symbol sum (mod q).
Fixing both residues yields a code that corrects any single symbol deletion
or insertion.

The systematic encoder reserves the power-of-two positions 2^j and their odd
neighbours 2^j - 1, 2^j + 1. Free message symbols ride in the remaining
positions; the neighbour pairs carry message data as constrained value
pairs; the reserved positions then absorb the checksum deficit and the first
three symbols absorb the sum deficit. One cached _layout(n, q) describes
where the message goes, and the encoder, the reader, k and the size bound
all read it. Position 5 is a pair slot there too, at (3, 5), by the identity
single(i) = pair((q - 2)(q - 1) + i)[1]; q = 3 pins it to pair 3 = (2, 2),
which carries no bits. Lengths with n - 1 a power of two would
need position n for the layout and are rejected. Encoding and extraction do
their per-symbol work in builtins. The encoder builds one word: the free
digits, each reserved block inserted between them, and a stand-in at each
reserved 2^j, so that the lane kernel in words (_ascent_flags and
_flag_checksum, which membership and Tenengolts' decoder use too) reads the
checksum off the word itself; extraction gathers the free runs as slices.
All of that is O(n). The free block moves to and from the message's bit text
through words._text_digits and _digits_text: O(n) C passes for power-of-two
q; other alphabets divide and conquer, and CPython's big-integer division
keeps that part growing faster than n.
QaryVtParams gives these rules and Tenengolts' decoder (which restores the
auxiliary sequence by the binary rule) to the shared words.CodeParams.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import chain
from operator import add, neg
from typing import Iterable, NamedTuple, Sequence

from .binary import _levenshtein_restore
from .errors import (
    CodecError,
    ExtractionError,
    ParameterError,
    UnsupportedLengthError,
)
from .words import (
    CodeParams,
    Word,
    _ascent_flags,
    _bit_text,
    _checked,
    _digits_text,
    _flag_checksum,
    _text_bits,
    _text_digits,
    _word,
    check_int,
    check_params,
    check_residue,
    check_word,
)


def aux_sequence(word: Iterable[int]) -> Word:
    """Binary comparison sequence of a word of length >= 2.

    Bit i (for i = 1 .. n-1, reported 0-indexed) is 1 exactly when the symbol
    in position i is >= its left neighbour.
    """
    symbols, buf = _checked(word, None)
    if len(symbols) < 2:
        raise ParameterError(f"word must have length at least 2, got {len(symbols)}")
    w = symbols if buf is None else buf  # the lane kernel reads a byte buffer directly
    return _ascents(w, max(w) + 1)


def code_signature(word: Iterable[int], q: int) -> tuple[int, int]:
    """(auxiliary checksum mod n, symbol sum mod q) of a word of length n >= 2."""
    q = check_int(q, "alphabet size")
    w = _word(word, q)
    n = len(w)
    if n < 2:
        raise ParameterError(f"word must have length at least 2, got {n}")
    return _signature(w, q)


def _signature(w: Sequence[int], q: int) -> tuple[int, int]:
    """code_signature of a checked word of length n >= 2, unchecked: the one
    spelling of the residue pair, which membership and the encoder's output
    check compare with (a, b)."""
    n = len(w)
    return _flag_checksum(_ascent_flags(w, q), n - 1) % n, sum(w) % q


def _ascents(w: Sequence[int], q: int) -> Word:
    """The auxiliary bits of a checked word over alphabet q, 0/1 ints."""
    m = len(w) - 1
    return tuple(_ascent_flags(w, q).to_bytes(m, "little"))


def _ilog2(x: int) -> int:
    """floor(log2(x)) for positive integers, exact."""
    return x.bit_length() - 1


class _Layout(NamedTuple):
    """Where the systematic encoder puts a message at one (n, q) shape: n and q
    as plain ints; t reserved powers of two 2^j, j < t; and, in message order,
    the free block (the runs between the reserved blocks 2^j - 1 .. 2^j + 1,
    j >= 2) of free_symbols symbols and free_bits bits, then one record (left, right, first, bits)
    per constrained slot, whose pair is pair_table(q).pair(first + v) for a
    bits-wide v: first 0 at 2^j -/+ 1 (j >= 3), then position 5 (see the module
    docstring). sizes counts the values of the free block and of each slot,
    and k the bits of all, floor(log2) of each size.
    """

    n: int
    q: int
    t: int
    free_runs: tuple[slice, ...]
    free_symbols: int
    free_bits: int
    slots: tuple[tuple[int, int, int, int], ...]
    sizes: tuple[int, ...]
    k: int


def _layout(n: int, q: int) -> _Layout:
    """The encoder's layout at (n, q); raises the shape's refusal: n >= 6,
    q >= 3, and n - 1 not a power of two, whose block would need position n."""
    q = check_int(q, "alphabet size", 3)
    return _cached_layout(check_int(n, "code length", 6), q)


@lru_cache(maxsize=256)
def _cached_layout(n: int, q: int) -> _Layout:
    """_layout for plain ints that passed its checks."""
    if (n - 1) & (n - 2) == 0:
        raise UnsupportedLengthError(
            f"length {n} is unsupported: the reserved-position layout needs "
            f"position {n}, one past the end"
        )
    t = (n - 1).bit_length()
    blocks = [1 << j for j in range(2, t)]
    free_runs = tuple(map(slice, [p + 2 for p in blocks], [p - 1 for p in blocks[1:]] + [n]))
    table = _pair_table(q)
    first5, size5 = table.position5
    free = n - 3 * t + 3  # all but 0..5 and three per block j >= 3
    sizes = (q**free,) + (table.pair_count,) * (t - 3) + (size5,)
    bits = tuple(map(_ilog2, sizes))
    slots = tuple((p - 1, p + 1, 0, bits[1]) for p in blocks[1:]) + ((3, 5, first5, bits[-1]),)
    return _Layout(n, q, t, free_runs, free, bits[0], slots, sizes, sum(bits))


def message_length(n: int, q: int) -> int:
    """Message bits carried by the systematic encoder at length n, alphabet q:
    the bits of every slot (see _Layout) added up. May be 0 for the smallest
    shapes, e.g. (n=6, q=3).
    """
    return _layout(n, q).k


class PairTable:
    """Message values of the constrained slots for one alphabet size, as index
    arithmetic. pair(i) is the i-th, in lexicographic order, of the (q - 1)**2
    pairs (left, right) with left != 0 and right != left - 1, which keep the
    auxiliary bits around a reserved position independent of the choice there;
    single(i), the i-th value but q - 2, is the right of pair((q - 2)(q - 1) + i),
    whose left is q - 1. pairs and singles, built on access, list them all.
    The encoder's position 5 takes pair(first + i)[1] for i < count, with
    (first, count) = position5: the singles, except that q = 3 pins positions
    3 and 5 to pair 3, (2, 2) (see _finish_prefix_q3); single_bits counts
    the message bits it carries. Indices are checked like any residue, and
    pairs and values like any word over q."""

    def __init__(self, q: int):
        self.q = q = check_int(q, "alphabet size", 3)
        self.pair_count = (q - 1) ** 2
        self.pair_bits = _ilog2(self.pair_count)  # message bits per constrained pair
        self._single_offset = (q - 2) * (q - 1)  # the index of pair (q - 1, 0) = single(0)
        self.position5 = (self.pair_index((2, 2)), 1) if q == 3 else (self._single_offset, q - 1)
        self.single_bits = _ilog2(self.position5[1])  # message bits in the position-5 symbol

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(self.pair, range(self.pair_count)))

    @property
    def singles(self) -> Word:
        return tuple(map(self.single, range(self.q - 1)))

    def pair(self, i: int) -> tuple[int, int]:
        if type(i) is not int or not 0 <= i < self.pair_count:  # plain ints in range skip the call
            i = check_residue(i, "pair index", self.pair_count)
        # pair i is divmod(v, q) for v = left * q + right; below v lie q + 1 + i // q
        # values that are no pair: left 0, and (x, x - 1) for x = 1 .. i // q + 1
        return divmod(i + i // self.q + self.q + 1, self.q)

    def single(self, i: int) -> int:
        if type(i) is not int or not 0 <= i < self.q - 1:  # as in pair
            i = check_residue(i, "position-5 index", self.q - 1)
        return self.pair(self._single_offset + i)[1]

    def pair_index(self, pair: tuple[int, int]) -> int:
        q = self.q
        w = check_word(pair, q)
        if len(w) != 2 or w[0] == 0 or w[1] == w[0] - 1:
            raise ParameterError(f"{w} is not a valid constrained pair for q={q}")
        left, right = w
        return (left - 1) * (q - 1) + right - (right >= left)

    def single_index(self, value: int) -> int:
        q = self.q
        (v,) = check_word((value,), q)
        if v == q - 2:
            raise ParameterError(f"{v} is not a valid position-5 value for q={q}")
        return self.pair_index((q - 1, v)) - self._single_offset


def pair_table(q: int) -> PairTable:
    """The one PairTable of alphabet q; q is checked before the cache."""
    return _pair_table(check_int(q, "alphabet size", 3))


@lru_cache(maxsize=None)
def _pair_table(q: int) -> PairTable:
    return PairTable(q)


@dataclass(frozen=True)
class QaryVtParams(CodeParams):
    """Code shape: length n >= 6, alphabet q >= 3, and the two target
    residues, 0 <= a <= n-1 for the auxiliary checksum and 0 <= b <= q-1 for
    the symbol sum."""

    n: int
    q: int
    a: int
    b: int

    def __post_init__(self) -> None:
        for name in ("n", "q"):
            object.__setattr__(self, name, check_int(getattr(self, name), name))
        object.__setattr__(self, "_layout", _layout(self.n, self.q))
        object.__setattr__(self, "a", check_residue(self.a, "a", self.n))
        object.__setattr__(self, "b", check_residue(self.b, "b", self.q))

    @property
    def t(self) -> int:
        """Number of reserved powers of two: ceil(log2(n))."""
        return self._layout.t

    @cached_property
    def k(self) -> int:
        """Message bits per codeword (0 for the smallest shapes)."""
        return self._layout.k

    @cached_property
    def pair_positions(self) -> tuple[tuple[int, int], ...]:
        """Odd neighbours (2^j - 1, 2^j + 1) of each reserved 2^j, j >= 2."""
        return tuple(sorted(slot[:2] for slot in self._layout.slots))

    @cached_property
    def free_positions(self) -> Word:
        """Positions that carry plain base-q message symbols."""
        return tuple(chain.from_iterable(map(range(self.n).__getitem__, self._layout.free_runs)))

    @cached_property
    def _unsupported(self) -> str | None:
        return None if self.k else f"(n={self.n}, q={self.q}) carries no message bits"

    def _member(self, w: Sequence[int]) -> bool:
        return _signature(w, self.q) == (self.a, self.b)

    def _encode(self, bits: Sequence[int]) -> bytes | Word:
        return _complete_codeword(_place_message(bits, self), self)

    def _read(self, w: Sequence[int]) -> bytes | bytearray:
        q, layout = self.q, self._layout
        free = reduce(add, map(w.__getitem__, layout.free_runs), w[:0])
        text = _digits_text(free, q, layout.free_bits)
        if text is None:
            raise ExtractionError("free-position symbols exceed the message range")
        q1 = q - 1
        slots = 1  # the slot values in turn, under a lead 1
        for left, right, first, width in layout.slots:
            x, y = w[left], w[right]
            v = (x - 1) * q1 + y - (y >= x) - first  # pair_index, unchecked: w is range-checked
            if x == 0 or y == x - 1 or v >> width:  # v >> width is -1 below the slot's first
                if q == 3 and (left, x, y) == (3, 1, 2):  # _finish_prefix_q3 may lower c[3] to 1
                    continue
                raise ExtractionError(f"positions {left}, {right} hold no value of their slot")
            slots = slots << width | v
        bits = _text_bits(text + format(slots, "b")[1:].encode())
        if len(bits) != self.k:
            raise CodecError(f"extracted {len(bits)} message bits, expected {self.k}")
        return bits

    def _restore(self, r: Sequence[int]) -> tuple | None:
        """Tenengolts' decoder: the edit of r that lands on a word with
        auxiliary checksum a (mod n) and symbol sum b (mod q), as words._apply's
        fields with the leftmost position that gives that word, or None.

        The sum residue names the lost or gained symbol. A symbol edit is a
        single bit edit of the auxiliary sequence, so Levenshtein's decoder
        (length n - 1, modulus n) returns the auxiliary edit, at the leftmost
        index e of its run of bit. With end the next opposite bit (one find()),
        the symbols r[e .. end] under that run are monotone, non-decreasing
        under ascents and strictly decreasing under descents, so one bisection
        places the symbol there. Its word always has sum b, as the symbol put
        back is (b - sum(r)) mod q and the one taken out must equal
        (sum(r) - b) mod q, but the symbol need not make the auxiliary edit
        found, so the edit is returned only when its word's checksum, which
        _edited_checksum reads off r's flags and checksum, is a. Any r, one
        edit from a codeword or not, gets an exact answer without a second
        kernel pass. O(n) in all.
        """
        n, q, a, b = self.n, self.q, self.a, self.b
        deletion = len(r) == n - 1
        symbol = (b - sum(r)) % q if deletion else (sum(r) - b) % q
        flags = _ascent_flags(r, q)
        aux = flags.to_bytes(len(r) - 1, "little")
        checksum = _flag_checksum(flags, len(aux))
        found = _levenshtein_restore(aux, n - 1, a, checksum)
        if found is None:
            return None
        _, edit, bit = found
        if not deletion:
            bit = aux[edit]
        end = aux.find(1 - bit, edit)
        if end < 0:
            end = len(aux)
        if bit:
            j = bisect_left(r, symbol, edit, end + 1)
        else:
            j = bisect_left(r, -symbol, edit, end + 1, key=neg)
        if deletion:
            undo = "insertion", j, symbol
        elif j <= end and r[j] == symbol:
            undo = "deletion", j, None
        else:
            return None
        return undo if _edited_checksum(r, aux, checksum, *undo) == a else None


def _edited_checksum(
    r: Sequence[int], aux: bytes, checksum: int, kind: str, j: int, s: int | None
) -> int:
    """code_signature(_apply(r, kind, j, s), q)[0], from r's auxiliary bits
    aux (as bytes) and their checksum: O(1) plus one count().
    Putting s in at j, or taking r[j] out, moves every auxiliary bit past
    the edit one weight up or down, which aux.count() adds up, and changes
    at most the bits that compare s, or r[j], with its neighbours: the bit
    at weight j (the left neighbour) and the one at weight j + 1 (the right
    one). Deleting r[j] joins r[j - 1] and r[j + 1] at weight j."""
    m = len(r)
    if kind == "insertion":
        checksum += aux.count(1, j)
        if j:  # s against r[j - 1], in place of r[j] against it
            checksum += j * ((s >= r[j - 1]) - (j < m and aux[j - 1]))
        if j < m:
            checksum += (j + 1) * (r[j] >= s)
        return checksum % (m + 1)
    checksum -= aux.count(1, j + 1)
    if j:
        checksum -= j * aux[j - 1]
        if j < m - 1:
            checksum += j * (r[j + 1] >= r[j - 1])
    if j < m - 1:
        checksum -= (j + 1) * aux[j]
    return checksum % (m - 1)


def _matches_code(w: Sequence[int], n: int, q: int, a: int, b: int) -> bool:
    """The encoder's output check: an already validated word of length n has
    residues (a, b)."""
    return _signature(w, q) == (a, b)


def is_member(word: Iterable[int], params: QaryVtParams) -> bool:
    """True when the word hits both target residues of the code."""
    return check_params(params, QaryVtParams).is_member(word)


def _step6_triple(w: int, q: int) -> tuple[int, int, int]:
    """Three distinct ascending values summing to w mod q, for a residue
    0 <= w < q of an alphabet q >= 4.

    The defaults 0, 1, w-1 collide when w is 1 or 2, so those two cases swap
    in the top symbol q - 1 instead.
    """
    if w == 1:
        return (0, 2, q - 1)
    if w == 2:
        return (1, 2, q - 1)
    return (0, 1, (w - 1) % q)


def _arrange_prefix(triple: tuple[int, int, int], alpha1: int, alpha2: int) -> tuple[int, int, int]:
    """Order three distinct ascending values so the prefix realizes the two
    given auxiliary bits: bit 1 compares positions 1 and 0, bit 2 positions 2
    and 1."""
    x, y, z = triple
    if alpha1 and alpha2:
        return (x, y, z)
    if alpha1:
        return (x, z, y)
    if alpha2:
        return (y, x, z)
    return (z, y, x)


def _place_message(bits: Sequence[int], params: QaryVtParams) -> bytearray | list:
    """Spread message bits over the free block and the constrained slots,
    in one word: a bytearray, or a list when q > 256. The free digits follow
    six zeros; each block 2^j - 1 .. 2^j + 1 (j >= 3) goes in as a copy of
    positions 0..2, which stay 0, and gets its pair (left, right) around the
    stand-in left - 1 at 2^j, as do 3, 4, 5."""
    layout, pair = params._layout, _pair_table(params.q).pair
    c = bytearray(6) if layout.q <= 256 else [0] * 6
    text = _bit_text(bits)
    used = layout.free_bits
    c.extend(_text_digits(text[:used], layout.q, layout.free_symbols))
    for left, right, first, width in layout.slots:
        if left > 3:  # the blocks j >= 3 come first, ascending; (3, 5) lies in the six zeros
            c[left:left] = c[:3]
        x, y = pair(first + int(text[used : used + width] or b"0", 2))  # 0 bits read 0
        c[left], c[left + 1], c[right] = x, x - 1, y
        used += width
    if used != len(bits):
        raise CodecError(f"message layout used {used} of {len(bits)} bits")
    return c


def _finish_prefix_q3(c: bytearray | list, alpha1: int, alpha2: int, b: int) -> None:
    """Choose the first three symbols for alphabet 3 from auxiliary bits 1, 2.

    Over {0,1,2} no three distinct values exist, so the prefix works with
    repeats. When both leading auxiliary bits are 0 no prefix can descend
    below the pinned c_3 = 2; the bits at 1, 2, 3 are rewritten from 0,0,1 to
    1,1,0 (same weight: 1 + 2 = 3) and c_3, c_4 are both lowered by one,
    which keeps bit 4.
    """
    if not (alpha1 or alpha2):
        alpha1 = alpha2 = 1
        c[3] -= 1
        c[4] -= 1
    w = (b - sum(c)) % 3  # positions 0..2 are still 0
    if alpha1 and alpha2:
        c[1], c[2] = 2, 2
    elif alpha1:
        c[1], c[2] = 2, 1
    else:
        c[1], c[2] = (0, 0, 1)[w], 2
    c[0] = (w - c[1] - c[2]) % 3


def _complete_codeword(c: bytearray | list, params: QaryVtParams) -> bytes | Word:
    """Land a placed word on the target residues in place; the codeword
    comes back as bytes for q <= 256 and as a tuple past that. Its own
    auxiliary bits give the checksum: bits 1 and 2 wait for the deficit,
    bit 3 is 1 (a pair's left above positions 0..2, still 0), and each
    stand-in left - 1 at 2^j (j >= 2) reads 0 until it gains the deficit's
    bit j. No pair has right = left - 1, so the next bit is the same either
    way."""
    n, q, a, b = params.n, params.q, params.a, params.b
    deficit = (a - _flag_checksum(_ascent_flags(c, q) & ~0xFFFF, n - 1)) % n
    for j in range(2, params.t):
        c[1 << j] += deficit >> j & 1
    if q == 3:
        _finish_prefix_q3(c, deficit & 1, deficit >> 1 & 1, b)
    else:
        triple = _step6_triple((b - sum(c)) % q, q)  # positions 0..2 are still 0
        c[0], c[1], c[2] = _arrange_prefix(triple, deficit & 1, deficit >> 1 & 1)
    word = bytes(c) if q <= 256 else tuple(c)
    if not _matches_code(word, n, q, a, b):
        raise CodecError(f"encoder output misses the code (n={n}, q={q}, a={a}, b={b})")
    return word


def encode(message: Iterable[int], params: QaryVtParams) -> Word:
    """Systematically encode k message bits into a codeword."""
    return check_params(params, QaryVtParams).encode(message)


def extract(word: Iterable[int], params: QaryVtParams) -> Word:
    """Read the message bits back out of a codeword produced by encode()."""
    return check_params(params, QaryVtParams).extract(word)


def correct(received: Iterable[int], params: QaryVtParams) -> Word:
    """Recover the codeword from a word that suffered at most one edit.

    A received length of n - 1 means a deletion, n + 1 an insertion, and n
    must already be a codeword. Deletions and insertions are located in
    O(n) by Tenengolts' decoder (see QaryVtParams._restore), whose symbol
    always lands on sum b, so only the result's auxiliary checksum, which
    follows from the received word's, is checked against a; the answer is
    unique because the code corrects any single edit.
    """
    return check_params(params, QaryVtParams).correct(received)
