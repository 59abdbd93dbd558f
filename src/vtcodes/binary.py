"""Binary single-deletion/insertion correcting codes.

A length-n binary word s_1 .. s_n has weighted checksum
sum(i * s_i) mod (n + 1), with positions counted from 1. Fixing that checksum
to a residue a carves {0,1}^n into n + 1 codes, each of which corrects any
single deletion or insertion. The systematic encoder here keeps message bits
in the non-power-of-two positions and solves for the power-of-two ("dyadic")
positions, whose weights 1, 2, 4, .. reach every residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import (
    MessageLengthError,
    NoCandidateError,
    NotACodewordError,
    ParameterError,
)
from .words import Word, check_bits, check_int, check_residue, check_symbols


def _checksum(bits: Sequence[int], modulus: int) -> int:
    return sum(compress(count(1), bits)) % modulus


def syndrome(word: Iterable[int]) -> int:
    """Weighted checksum sum(i * s_i) mod (n + 1) of a non-empty binary word."""
    bits = check_bits(word)
    if not bits:
        raise ParameterError("word must be non-empty")
    return _checksum(bits, len(bits) + 1)


@dataclass(frozen=True)
class BinaryVtParams:
    """Code length n and target checksum residue a, 0 <= a <= n."""

    n: int
    a: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int(self.n, "n", 1))
        object.__setattr__(self, "a", check_residue(self.a, "a", self.n + 1))

    @property
    def q(self) -> int:
        """Alphabet size, always 2."""
        return 2

    @property
    def t(self) -> int:
        """Number of dyadic check positions: ceil(log2(n + 1))."""
        return self.n.bit_length()

    @property
    def k(self) -> int:
        """Message bits per codeword."""
        return self.n - self.t

    @cached_property
    def dyadic_positions(self) -> Word:
        return tuple(1 << j for j in range(self.t))

    @cached_property
    def message_positions(self) -> Word:
        """The k lowest non-dyadic positions, ascending (3, 5, 6, 7, 9, ..)."""
        dyadic = set(self.dyadic_positions)
        return tuple(p for p in range(1, self.n + 1) if p not in dyadic)[: self.k]

    def encode(self, message: Iterable[int]) -> Word:
        return encode(message, self)

    def extract(self, word: Iterable[int]) -> Word:
        return extract(word, self)

    def correct(self, received: Iterable[int]) -> Word:
        return correct(received, self)

    # The cores behind encode, extract and correct, for words the library
    # built itself: they take a validated tuple and skip check_bits.
    def _encode(self, bits: Word) -> Word:
        return _encode(bits, self)

    def _extract(self, bits: Word) -> Word:
        return _extract(bits, self)

    def _correct(self, received: Word) -> Word:
        return _correct(received, self)

    def is_member(self, word: Iterable[int]) -> bool:
        return is_member(word, self)

    def to_dict(self) -> dict:
        return {"q": 2, "n": self.n, "a": self.a}


def is_member(word: Iterable[int], params: BinaryVtParams) -> bool:
    """True when a word of the code's length has the code's checksum."""
    bits = check_bits(word)
    if len(bits) != params.n:
        raise ParameterError(f"expected a word of length {params.n}, got {len(bits)}")
    return _checksum(bits, params.n + 1) == params.a


def encode(message: Iterable[int], params: BinaryVtParams) -> Word:
    """Systematically encode k message bits into a codeword of the code.

    Message bits fill the non-dyadic positions in ascending order; the dyadic
    positions then absorb the checksum deficit, bit j of the deficit landing
    in position 2**j.
    """
    return _encode(check_bits(message), params)


def _encode(bits: Word, params: BinaryVtParams) -> Word:
    if len(bits) != params.k:
        raise MessageLengthError(
            f"expected {params.k} message bits for n={params.n}, got {len(bits)}"
        )
    word = [0] * params.n
    for pos, bit in zip(params.message_positions, bits):
        word[pos - 1] = bit
    deficit = (params.a - _checksum(word, params.n + 1)) % (params.n + 1)
    for j, pos in enumerate(params.dyadic_positions):
        word[pos - 1] = (deficit >> j) & 1
    return tuple(word)


def extract(word: Iterable[int], params: BinaryVtParams) -> Word:
    """Read the message bits back out of a codeword."""
    return _extract(check_bits(word), params)


def _extract(bits: Word, params: BinaryVtParams) -> Word:
    if len(bits) != params.n:
        raise ParameterError(f"expected a word of length {params.n}, got {len(bits)}")
    if _checksum(bits, params.n + 1) != params.a:
        raise NotACodewordError(f"word is not in the code (a={params.a})")
    return tuple(bits[pos - 1] for pos in params.message_positions)


def _levenshtein_restore(received: Word, m: int, a: int) -> tuple[Word, int] | None:
    """Levenshtein's decoder for the length-m code with checksum a mod (m + 1).

    received has length m - 1 (one bit lost) or m + 1 (one bit gained). Let w
    be its weight. A lost bit is put back as a 0 with the checksum deficit d
    of ones to its right when d <= w, and otherwise as a 1 with d - w - 1
    zeros to its left. A gained bit is the 0 with e ones to its right, where
    e is the checksum excess (m + 1 when the excess is 0 and the word ends
    in a 1), or else the 1 with e - w zeros to its left.

    Returns the restored word and the 0-based index of the edit in the longer
    of the two words; inside a run every index gives the same word, and the
    leftmost is reported. A lost bit can always be put back; None means that
    removing no single bit lands in the code. One pass, O(m).
    """
    weight = sum(received)
    total = sum(compress(count(1), received))
    if len(received) == m - 1:
        deficit = (a - total) % (m + 1)
        if deficit <= weight:
            bit, need = 0, weight - deficit  # ones to its left
        else:
            bit, need = 1, deficit - weight - 1  # zeros to its left
        index = seen = 0
        for x in received:
            if seen == need:
                break
            index += 1
            if x != bit:
                seen += 1
        return received[:index] + (bit,) + received[index:], index
    excess = (total - a) % (m + 1)
    if excess == 0 and received[-1]:
        excess = m + 1
    if excess < weight or (excess == weight and not received[0]):
        bit, need = 0, weight - excess  # ones to its left
    else:
        bit, need = 1, excess - weight  # zeros to its left
    seen = 0
    for index, x in enumerate(received):
        if x == bit:
            if seen == need:
                return received[:index] + received[index + 1 :], index
        else:
            seen += 1
            if seen > need:
                break
    return None


def correct(received: Iterable[int], params: BinaryVtParams) -> Word:
    """Recover the codeword from a word that suffered at most one edit.

    A received length of n - 1 means a deletion, n + 1 an insertion, and n
    must already be a codeword. Deletions and insertions are located in one
    O(n) pass by Levenshtein's rule (see _levenshtein_restore), and the
    result is checked against the code; the answer is unique because the
    code corrects any single edit.
    """
    return _correct(check_bits(received), params)


def _correct(r: Word, params: BinaryVtParams) -> Word:
    n, a = params.n, params.a
    modulus = n + 1
    if len(r) == n:
        if _checksum(r, modulus) == a:
            return r
        raise NotACodewordError(f"word of length {n} is not in the code (a={a})")
    if len(r) not in (n - 1, n + 1):
        raise ParameterError(
            f"received length {len(r)} is not within one edit of n={n}"
        )
    restored = _levenshtein_restore(r, n, a)
    if restored is None or _checksum(restored[0], modulus) != a:
        raise NoCandidateError(f"no codeword within one edit of the received word (n={n}, a={a})")
    return restored[0]


def validate_syndrome_positions(n: int, positions: Iterable[int]) -> bool:
    """Check whether a set of check positions can absorb any checksum deficit.

    Returns True when every residue mod (n + 1) is a subset sum of the given
    positions. Positions must be distinct and lie in 1..n; the dyadic layout
    used by encode() always qualifies.
    """
    n = check_int(n, "n", 1)
    pos = check_symbols(positions)
    if not pos:
        raise ParameterError("at least one position is required")
    if len(set(pos)) != len(pos):
        raise ParameterError("positions must be distinct")
    for p in pos:
        if not 1 <= p <= n:
            raise ParameterError(f"position {p} out of range 1..{n}")
    m = n + 1
    full = (1 << m) - 1
    reachable = 1  # residue 0 via the empty subset
    for p in pos:
        shift = p % m
        reachable |= ((reachable << shift) | (reachable >> (m - shift))) & full
    return reachable == full
