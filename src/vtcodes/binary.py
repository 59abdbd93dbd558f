"""Binary single-deletion/insertion correcting codes.

A length-n binary word s_1 .. s_n has weighted checksum
sum(i * s_i) mod (n + 1), with positions counted from 1. Fixing that checksum
to a residue a carves {0,1}^n into n + 1 codes, each of which corrects any
single deletion or insertion. The systematic encoder here keeps message bits
in the non-power-of-two positions and solves for the power-of-two ("dyadic")
positions, whose weights 1, 2, 4, .. reach every residue. The checksum comes
from the lane kernel in words. BinaryVtParams gives these rules and
Levenshtein's decoder to the shared words.CodeParams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .errors import ParameterError
from .words import (
    CodeParams,
    Word,
    _flag_checksum,
    _word,
    check_int,
    check_params,
    check_residue,
    check_word,
)


def _checksum(bits: Sequence[int], modulus: int) -> int:
    """sum(i * s_i) mod modulus over 0/1 bits, by the lane kernel in words."""
    return _flag_checksum(int.from_bytes(bits, "little"), len(bits)) % modulus


def syndrome(word: Iterable[int]) -> int:
    """Weighted checksum sum(i * s_i) mod (n + 1) of a non-empty binary word."""
    bits = _word(word, 2)
    if not bits:
        raise ParameterError("word must be non-empty")
    return _checksum(bits, len(bits) + 1)


@dataclass(frozen=True)
class BinaryVtParams(CodeParams):
    """Code length n and target checksum residue a, 0 <= a <= n."""

    n: int
    a: int
    q = 2  # the alphabet size; not a field, so equality and hashing see n and a only

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int(self.n, "n", 1))
        object.__setattr__(self, "a", check_residue(self.a, "a", self.n + 1))

    @property
    def t(self) -> int:
        """Number of dyadic check positions: ceil(log2(n + 1))."""
        return self.n.bit_length()

    @property
    def k(self) -> int:
        """Message bits per codeword."""
        return self.n - self.t

    @cached_property
    def message_positions(self) -> Word:
        """The k lowest non-dyadic positions, ascending (3, 5, 6, 7, 9, ..)."""
        runs = self._message_runs
        return tuple(chain.from_iterable(range(r.start + 1, r.stop + 1) for r in runs))

    @cached_property
    def _message_runs(self) -> tuple[slice, ...]:
        """The message positions as word index slices: positions 2^j + 1 ..
        2^(j+1) - 1 for j = 1 .. t - 1, the last run cut at n. The k
        non-dyadic positions are exactly these, and run j starts at message
        bit 2^j - j - 1."""
        return tuple(slice(1 << j, min((2 << j) - 1, self.n)) for j in range(1, self.t))

    @cached_property
    def _bit_runs(self) -> tuple[slice, ...]:
        """The message bits of each run of _message_runs, as message slices."""
        runs = enumerate(self._message_runs, 1)
        return tuple(slice(run.start - j - 1, run.stop - j - 1) for j, run in runs)

    def _member(self, bits: Sequence[int]) -> bool:
        return _checksum(bits, self.n + 1) == self.a

    def _encode(self, bits: Sequence[int]) -> bytes:
        # the zeros that join the runs are the dyadic positions; the two empty
        # parts in front put positions 1 and 2 there
        word = bytearray(b"\0".join([b"", b"", *map(bytes(bits).__getitem__, self._bit_runs)]))
        deficit = (self.a - _checksum(word, self.n + 1)) % (self.n + 1)
        for j, pos in enumerate(self.dyadic_positions):
            word[pos - 1] = (deficit >> j) & 1
        return bytes(word)

    def _read(self, bits: Sequence[int]) -> bytes:
        return b"".join(map(bytes(bits).__getitem__, self._message_runs))

    def _restore(self, received: Sequence[int]) -> tuple | None:
        """Levenshtein's edit of the received bits, whose word always has
        checksum a (see _levenshtein_restore), or None."""
        bits = bytes(received)  # the word itself when the boundary handed over bytes
        return _levenshtein_restore(bits, self.n, self.a, _checksum(bits, self.n + 1))


def is_member(word: Iterable[int], params: BinaryVtParams) -> bool:
    """True when a word of the code's length has the code's checksum."""
    return check_params(params, BinaryVtParams).is_member(word)


def encode(message: Iterable[int], params: BinaryVtParams) -> Word:
    """Systematically encode k message bits into a codeword of the code.

    Message bits fill the non-dyadic positions in ascending order; the dyadic
    positions then absorb the checksum deficit, bit j of the deficit landing
    in position 2**j.
    """
    return check_params(params, BinaryVtParams).encode(message)


def extract(word: Iterable[int], params: BinaryVtParams) -> Word:
    """Read the message bits back out of a codeword."""
    return check_params(params, BinaryVtParams).extract(word)


def _levenshtein_restore(bits: bytes | bytearray, m: int, a: int, total: int) -> tuple | None:
    """Levenshtein's decoder for the length-m code with checksum a mod (m + 1).

    bits holds the received 0/1 values, m - 1 of them (one bit lost) or
    m + 1 (one bit gained), and total is their checksum sum(i * r_i) or
    anything congruent to it mod m + 1. Let w be their weight. A bit put in
    at index j weighs j + 1 and moves each one to its right one place up; a
    bit taken out, the mirror way. A lost bit is put back as a 0 with the
    checksum deficit d of ones to its right when d <= w, which adds d, and
    otherwise as a 1 at an index j with d - w - 1 zeros and o ones to its
    left, which adds (j + 1) + (w - o) = d. A gained bit is the 0 with e ones
    to its right, where e is the checksum excess (m + 1 when the excess is 0
    and the word ends in a 1), which removes e, or else the 1 at an index j
    with e - w zeros and o ones to its left, which removes
    (j + 1) + (w - o - 1) = e. So every edit returned lands on checksum a,
    and no caller checks it again.

    Returns the edit of bits that undoes the channel's, as words._apply's
    fields: ("insertion", index, bit) or ("deletion", index, None). The index
    lies just past the last of the counted opposite bits, so it is the
    leftmost of its run, and every index in that run gives the same word. A
    lost bit can always be put back; None means that the bit at the gained
    index is not the one the rule needs, so removing no single bit lands in
    the code. C passes only: count, then one replace() that marks the first
    need opposite bits and one rfind() of the last mark.
    """
    weight, lost = bits.count(1), len(bits) == m - 1
    if lost:
        deficit = (a - total) % (m + 1)
        if deficit <= weight:
            bit, need = 0, weight - deficit  # ones to its left
        else:
            bit, need = 1, deficit - weight - 1  # zeros to its left
    else:
        excess = (total - a) % (m + 1)
        if excess == 0 and bits[-1]:
            excess = m + 1
        if excess < weight or (excess == weight and not bits[0]):
            bit, need = 0, weight - excess  # ones to its left
        else:
            bit, need = 1, excess - weight  # zeros to its left
    # need never exceeds the count of opposite bits: mark the first need of them
    # with a 2, which bits never hold, and step past the last mark (0 when need is 0)
    index = bits.replace(bytes((1 - bit,)), b"\2", need).rfind(2) + 1
    if lost:
        return "insertion", index, bit
    if index < len(bits) and bits[index] == bit:
        return "deletion", index, None
    return None


def correct(received: Iterable[int], params: BinaryVtParams) -> Word:
    """Recover the codeword from a word that suffered at most one edit.

    A received length of n - 1 means a deletion, n + 1 an insertion, and n
    must already be a codeword. Deletions and insertions are located in O(n)
    C passes by Levenshtein's rule (see _levenshtein_restore), whose edit
    always lands on checksum a, so the result is not checked again; the
    answer is unique because the code corrects any single edit.
    """
    return check_params(params, BinaryVtParams).correct(received)


def validate_syndrome_positions(n: int, positions: Iterable[int]) -> bool:
    """Check whether a set of check positions can absorb any checksum deficit.

    Returns True when every residue mod (n + 1) is a subset sum of the given
    positions. Positions must be distinct and lie in 1..n; the dyadic layout
    used by encode() always qualifies.
    """
    n = check_int(n, "n", 1)
    pos = check_word(positions)
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
