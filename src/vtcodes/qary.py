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
three symbols absorb the sum deficit. Lengths with n - 1 a power of two would
need position n for the layout and are rejected. Encoding and extraction do
their per-symbol work in builtins: the free symbols move as slices of runs
between the reserved blocks. The auxiliary bits and their weighted
checksum come from the lane kernel in words (_ascent_flags and
_flag_checksum), which membership, encoding and Tenengolts' decoder all use.
All of that is O(n). The free block moves to and from the message's bit text
through words._text_digits and _digits_text: O(n) C passes for power-of-two
q; other alphabets divide and conquer, and CPython's big-integer division
keeps that part growing faster than n.
QaryVtParams gives these rules and Tenengolts' decoder (which restores the
auxiliary sequence by the binary rule) to the shared words.CodeParams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, islice
from typing import Iterable, Sequence

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
    _digits_text,
    _flag_checksum,
    _text_bits,
    _text_digits,
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
    w = check_word(word)
    if len(w) < 2:
        raise ParameterError(f"word must have length at least 2, got {len(w)}")
    return _ascents(w, max(w) + 1)


def code_signature(word: Iterable[int], q: int) -> tuple[int, int]:
    """(auxiliary checksum mod n, symbol sum mod q) of a word of length n >= 2."""
    q = check_int(q, "alphabet size")
    w = check_word(word, q)
    n = len(w)
    if n < 2:
        raise ParameterError(f"word must have length at least 2, got {n}")
    return _flag_checksum(_ascent_flags(w, q), n - 1) % n, sum(w) % q


def _ascents(w: Sequence[int], q: int) -> Word:
    """The auxiliary bits of a checked word over alphabet q, 0/1 ints."""
    m = len(w) - 1
    return tuple(_ascent_flags(w, q).to_bytes(m, "little"))


def _ilog2(x: int) -> int:
    """floor(log2(x)) for positive integers, exact."""
    return x.bit_length() - 1


def _code_shape(n: int, q: int) -> tuple[int, int, int]:
    """(n, q, t) as plain ints, where t = ceil(log2 n) counts the reserved
    powers of two; raises unless the encoder's layout supports the shape."""
    q = check_int(q, "alphabet size", 3)
    n = check_int(n, "code length", 6)
    if (n - 1) & (n - 2) == 0:
        raise UnsupportedLengthError(
            f"length {n} is unsupported: the reserved-position layout needs "
            f"position {n}, one past the end"
        )
    return n, q, (n - 1).bit_length()


def _slot_sizes(n: int, q: int) -> tuple[int, ...]:
    """How many values each message slot of the encoder can take at length
    n, alphabet q: the free block of n - 3t + 3 symbols, one constrained pair
    per reserved power of two above 4, and (for q >= 4) the lone constrained
    symbol in position 5. Each slot carries floor(log2) of its size in bits.
    """
    n, q, t = _code_shape(n, q)
    single = (q - 1,) if q > 3 else ()  # q = 3 pins position 5 to 2
    return (q ** (n - 3 * t + 3),) + ((q - 1) ** 2,) * (t - 3) + single


def message_length(n: int, q: int) -> int:
    """Message bits carried by the systematic encoder at length n, alphabet q:
    the bits of every slot (see _slot_sizes) added up. May be 0 for the
    smallest shapes, e.g. (n=6, q=3).
    """
    return sum(map(_ilog2, _slot_sizes(n, q)))


class PairTable:
    """Message values of the constrained slots for one alphabet size, as index
    arithmetic. pair(i) is the i-th, in lexicographic order, of the (q - 1)**2
    pairs (left, right) with left != 0 and right != left - 1, which keep the
    auxiliary bits around a reserved position independent of the choice there;
    single(i) is the i-th value but q - 2. pairs and singles, built on access, list them all.
    Indices are checked like any residue, and pairs and values like any word over q."""

    def __init__(self, q: int):
        self.q = q = check_int(q, "alphabet size", 3)
        self.pair_count = (q - 1) ** 2
        self.pair_bits = _ilog2(self.pair_count)  # message bits per constrained pair
        self.single_bits = _ilog2(q - 1)  # message bits in the position-5 symbol

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(self.pair, range(self.pair_count)))

    @property
    def singles(self) -> Word:
        return tuple(map(self.single, range(self.q - 1)))

    def pair(self, i: int) -> tuple[int, int]:
        if type(i) is not int or not 0 <= i < self.pair_count:  # plain ints in range skip the call
            i = check_residue(i, "pair index", self.pair_count)
        left, right = divmod(i, self.q - 1)  # left is the pair's left - 1
        return left + 1, right + (right >= left)

    def single(self, i: int) -> int:
        if type(i) is not int or not 0 <= i < self.q - 1:  # as in pair
            i = check_residue(i, "position-5 index", self.q - 1)
        return i + (i >= self.q - 2)

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
        return v - (v == q - 1)


# typed: once pair_table(np.int64(3)) is cached, pair_table(3.0) would hit it.
@lru_cache(maxsize=None, typed=True)
def pair_table(q: int) -> PairTable:
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
        _code_shape(self.n, self.q)
        object.__setattr__(self, "a", check_residue(self.a, "a", self.n))
        object.__setattr__(self, "b", check_residue(self.b, "b", self.q))

    @property
    def t(self) -> int:
        """Number of reserved powers of two: ceil(log2(n))."""
        return (self.n - 1).bit_length()

    @cached_property
    def k(self) -> int:
        """Message bits per codeword (0 for the smallest shapes)."""
        return message_length(self.n, self.q)

    @cached_property
    def pair_positions(self) -> tuple[tuple[int, int], ...]:
        """Odd neighbours (2^j - 1, 2^j + 1) of each reserved 2^j, j >= 2."""
        return tuple(((1 << j) - 1, (1 << j) + 1) for j in range(2, self.t))

    @cached_property
    def free_positions(self) -> Word:
        """Positions that carry plain base-q message symbols."""
        return tuple(chain.from_iterable(self._free_runs))

    @cached_property
    def _free_runs(self) -> tuple[range, ...]:
        """The free positions in runs: from each reserved block 2^j - 1 ..
        2^j + 1 (j >= 2) up to the next block, or to the end of the word."""
        stops = [(2 << j) - 1 for j in range(2, self.t - 1)] + [self.n]
        return tuple(range((1 << j) + 2, stop) for j, stop in enumerate(stops, 2))

    @cached_property
    def _free_bits(self) -> int:
        """Message bits in the free block: floor(log2(q ** free count))."""
        return _ilog2(_slot_sizes(self.n, self.q)[0])

    @cached_property
    def _unsupported(self) -> str | None:
        return None if self.k else f"(n={self.n}, q={self.q}) carries no message bits"

    def _member(self, w: Word) -> bool:
        return _matches_code(w, self.n, self.q, self.a, self.b)

    def _encode(self, bits: Word) -> Word:
        return _complete_codeword(_place_message(bits, self), self)

    def _read(self, w: Word) -> Word:
        q = self.q
        table = pair_table(q)
        free = chain.from_iterable(w[run.start : run.stop] for run in self._free_runs)
        text = _digits_text(free, q, self._free_bits)
        if text is None:
            raise ExtractionError("free-position symbols exceed the message range")
        # pair_index and single_index, unchecked: the word is range-checked
        q1, pair_bits, single_bits = q - 1, table.pair_bits, table.single_bits
        slots = 1  # the pair and position-5 indices in turn, under a lead 1
        for left, right in self.pair_positions[1:]:
            x, y = w[left], w[right]
            if x == 0 or y == x - 1:
                raise ExtractionError(f"positions {left}, {right} do not hold a constrained pair")
            idx = (x - 1) * q1 + y - (y >= x)
            if idx >> pair_bits:
                raise ExtractionError(f"pair at positions {left}, {right} exceeds the message range")
            slots = slots << pair_bits | idx
        if q == 3:
            if w[5] != 2 or w[3] not in (1, 2):
                raise ExtractionError("positions 3 and 5 do not match the encoder layout")
        else:
            if w[3] != q1:
                raise ExtractionError(f"position 3 must hold {q1}, got {w[3]}")
            if w[5] == q - 2:
                raise ExtractionError(f"position 5 holds the excluded value {w[5]}")
            idx = w[5] - (w[5] == q1)
            if idx >> single_bits:
                raise ExtractionError("position 5 exceeds the message range")
            slots = slots << single_bits | idx
        bits = _text_bits(text + format(slots, "b")[1:].encode())
        if len(bits) != self.k:
            raise CodecError(f"extracted {len(bits)} message bits, expected {self.k}")
        return bits

    def _restore(self, r: Word) -> tuple | None:
        """Tenengolts' decoder: the edit of r that lands on a word with
        auxiliary checksum a (mod n) and symbol sum b (mod q), as words._apply's
        fields with the leftmost position that gives that word, or None.

        The sum residue names the lost or gained symbol. A symbol edit is a
        single bit edit of the auxiliary sequence, so Levenshtein's decoder
        (length n - 1, modulus n) returns the auxiliary edit, at the leftmost
        index e of its run of bit. With end the next opposite bit (one find()),
        the codeword's auxiliary bits hold bit at e .. end for a lost symbol
        and at e .. end - 2 for a gained one, the opposite bit on either side.
        The symbol goes in (or comes out) at the first j from e on whose new
        auxiliary bits match those. O(n) in all.
        """
        n, q, a, b = self.n, self.q, self.a, self.b
        deletion = len(r) == n - 1
        total = sum(r)
        symbol = (b - total) % q if deletion else (total - b) % q
        flags = _ascent_flags(r, q)
        aux = flags.to_bytes(len(r) - 1, "little")
        found = _levenshtein_restore(aux, n - 1, a, _flag_checksum(flags, len(aux)))
        if found is None:
            return None
        _, edit, bit = found
        if not deletion:
            bit = aux[edit]
        end = aux.find(1 - bit, edit)
        if end < 0:
            end = len(aux)
        run = range(edit, end + 1 if deletion else end - 1)  # the codeword's run of bit

        def agrees(ascent: bool, i: int) -> bool:  # True when the codeword's aux bit i is ascent
            return (ascent == bit) == (i in run)

        for j in range(edit, end + 2 if deletion else end + 1):
            if deletion:
                if (not j or agrees(symbol >= r[j - 1], j - 1)) and (
                    j == n - 1 or agrees(r[j] >= symbol, j)
                ):
                    return "insertion", j, symbol
            elif r[j] == symbol and (j in (0, n) or agrees(r[j + 1] >= r[j - 1], j - 1)):
                return "deletion", j, None
        return None


def _matches_code(w: Sequence[int], n: int, q: int, a: int, b: int) -> bool:
    """Membership test for an already validated word of length n."""
    return _flag_checksum(_ascent_flags(w, q), n - 1) % n == a and sum(w) % q == b


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


def _place_message(bits: Word, params: QaryVtParams) -> list:
    """Spread message bits over the free, pair, and position-5 slots.

    Returns the word as a list with positions 0..2 and the reserved powers of
    two still unset (None).
    """
    q = params.q
    table = pair_table(q)
    pair, pair_bits = table.pair, table.pair_bits
    c: list = [None] * params.n
    text = _bit_text(bits)
    used = params._free_bits
    digits = iter(_text_digits(text[:used], q, len(params.free_positions)))
    for run in params._free_runs:
        c[run.start : run.stop] = islice(digits, len(run))
    for left, right in params.pair_positions[1:]:
        c[left], c[right] = pair(int(text[used : used + pair_bits], 2))
        used += pair_bits
    if q == 3:
        c[3], c[5] = 2, 2
    else:
        c[3] = q - 1
        c[5] = table.single(int(text[used : used + table.single_bits], 2))
        used += table.single_bits
    if used != len(bits):
        raise CodecError(f"message layout used {used} of {len(bits)} bits")
    return c


def _prefill_aux(c: Sequence, params: QaryVtParams) -> bytearray:
    """Auxiliary bits of a partially built word, one byte each, reserved positions
    zeroed; byte i compares positions i and i-1. Position 3 holds the largest value, so
    its bit is 1. Each reserved 2^j (j >= 2) gets the stand-in c[2^j - 1] - 1, whose bit is
    0; no constrained pair has right = left - 1, so the next bit is as either choice gives."""
    tail = c[3:]  # positions 0..2 are unset; so are the reserved ones
    for pos in params.dyadic_positions[2:]:
        tail[pos - 3] = c[pos - 1] - 1
    return bytearray(b"\0\0\0\1") + _ascent_flags(tail, params.q).to_bytes(len(tail) - 1, "little")


def _finish_prefix_q3(c: list, aux: bytearray, b: int) -> None:
    """Choose the first three symbols for alphabet 3.

    Over {0,1,2} no three distinct values exist, so the prefix works with
    repeats. When both leading auxiliary bits are 0 no prefix can descend
    below the pinned c_3 = 2; the bits at 1, 2, 3 are rewritten from 0,0,1 to
    1,1,0 (same weight: 1 + 2 = 3) and c_3, c_4 are lowered to match.
    """
    if aux[1] == 0 and aux[2] == 0:
        aux[1], aux[2], aux[3] = 1, 1, 0
        c[3] = 1
        c[4] = c[3] if aux[4] else c[3] - 1
    w = (b - sum(c[3:])) % 3
    if aux[1] and aux[2]:
        c[1], c[2] = 2, 2
    elif aux[1]:
        c[1], c[2] = 2, 1
    else:
        c[1], c[2] = (0, 0, 1)[w], 2
    c[0] = (w - c[1] - c[2]) % 3


def _complete_codeword(c: list, params: QaryVtParams) -> Word:
    """Fill the reserved and prefix positions of a word whose message
    positions are already set, landing it on the target residues."""
    n, q, a, b = params.n, params.q, params.a, params.b
    aux = _prefill_aux(c, params)
    flags = int.from_bytes(aux, "little") >> 8  # aux[1:], lane i holding aux[i + 1]
    deficit = (a - _flag_checksum(flags, n - 1)) % n
    for j, pos in enumerate(params.dyadic_positions):
        aux[pos] = (deficit >> j) & 1
    for pos in params.dyadic_positions[2:]:
        c[pos] = c[pos - 1] if aux[pos] else c[pos - 1] - 1
    if q == 3:
        _finish_prefix_q3(c, aux, b)
    else:
        w = (b - sum(c[3:])) % q
        c[0], c[1], c[2] = _arrange_prefix(_step6_triple(w, q), aux[1], aux[2])
    word = tuple(c)
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
    O(n) by Tenengolts' decoder (see QaryVtParams._restore), and the result is
    checked against both residues; the answer is unique because the code
    corrects any single edit.
    """
    return check_params(params, QaryVtParams).correct(received)
