"""Slow reference implementations the library replaced with faster ones,
kept so the differential tests can check the fast versions against them.

- The candidate-search correctors the library used before its linear-time
  decoders. Each one enumerates every distinct word one edit away from the
  received word and keeps those in the code, so it costs O(n^2 * q); the
  decoders must match them, result and exception type alike.
- The brute-force censuses and binary codeword listing the library used
  before its dynamic programmes. Each one walks all q^n words in numpy
  chunks, so they are only usable for small word spaces; the censuses must
  match them count for count, and the listing word for word, in order.
- The list-of-lists dynamic programmes the library used for its censuses
  before the packed-lane q-ary census and the binary closed form
  (binary_census_dp, qary_census_dp). They reach lengths no brute force
  can: O(n^2) big-int additions for the binary census and O(n^2 * q^2) list
  operations for the q-ary one. The censuses must match them count for
  count.
- The per-position binary message layout the library used before it moved
  message bits as slices of runs: a position list, filled and read one bit
  at a time.
- The per-symbol loops the library used before its linear-time encoder and
  extractor: the weighted checksums, the q-ary layout (free positions,
  message placement, auxiliary prefill, completion, encode, extract) and
  the bit and digit conversions. The layout takes its pair and position-5
  values from the lexicographic listings (pair_values, single_values) the
  library stored before it computed them by index arithmetic, and its own
  prefix rules (step 6's triple, its ordering, and the q = 3 prefix) as
  searches over candidate values, so a fault in the library's prefix step
  shows as a mismatch. The library must match them word for word, and its
  encoder and extractor must raise the same exception types; its
  conversions are unchecked, so they are compared on valid input only.
- The paper's closed form of the constructive q-ary size lower bound, which
  the library computes as the product of the encoder's slot sizes, and the
  reserved, pair and free positions, derived from n alone, which the library
  reads off its cached layout.
- The word checks the library used before its one-pass range check: a type
  pass, then min for negative symbols and max for out-of-range ones. The
  library must return the same tuple or raise the same message.
- The per-character bit-string parser and formatter the library used before
  its translate() passes; the library must give the same result or message.

The duplicate-free single-edit neighbourhoods and the error for an
ambiguous correction live here too: only the candidate search and the tests
use them.
"""

from functools import lru_cache
from itertools import permutations, product
from operator import add, sub
from typing import Iterable, Iterator, Sequence

import numpy as np

from vtcodes.binary import BinaryVtParams
from vtcodes.errors import (
    CodecError,
    ExtractionError,
    MessageLengthError,
    NoCandidateError,
    NotACodewordError,
    ParameterError,
)
from vtcodes.qary import QaryVtParams, _ilog2, _layout
from vtcodes.words import (
    Word,
    _as_int,
    check_bits,
    check_int,
)

_CHUNK = 1 << 16


class AmbiguousCorrectionError(CodecError):
    """More than one codeword lies one edit from the received word. The
    codes correct any single edit, so the candidate search never raises it
    on a well-formed code."""


def distinct_deletions(word: Word) -> Iterator[Word]:
    """Every word reachable by deleting one symbol, each yielded exactly once.

    Deleting any symbol of a run produces the same word, so only the first
    position of each run is used.
    """
    for i, s in enumerate(word):
        if i and s == word[i - 1]:
            continue
        yield word[:i] + word[i + 1 :]


def distinct_insertions(word: Word, q: int) -> Iterator[Word]:
    """Every word reachable by inserting one symbol from {0, .., q-1}, each
    yielded exactly once.

    Inserting s directly before an existing s duplicates the insertion one
    step later, so those positions are skipped.
    """
    q = check_int(q, "alphabet size")
    for i in range(len(word) + 1):
        for s in range(q):
            if i < len(word) and word[i] == s:
                continue
            yield word[:i] + (s,) + word[i:]


def _binary_checksums(n: int):
    """Every length-n binary word, in integer order (bit i - 1 of the integer
    is position i), as chunks of (integers, checksums mod n + 1)."""
    total = 1 << n
    for start in range(0, total, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        syn = np.zeros(x.shape, dtype=np.int64)
        for i in range(1, n + 1):
            syn += i * ((x >> (i - 1)) & 1)
        yield x, syn % (n + 1)


def message_positions(params: BinaryVtParams) -> Word:
    """The k lowest non-dyadic positions, ascending (3, 5, 6, 7, 9, ..)."""
    dyadic = set(params.dyadic_positions)
    return tuple(p for p in range(1, params.n + 1) if p not in dyadic)[: params.k]


def encode_binary_word(bits: Word, params: BinaryVtParams) -> Word:
    """The codeword of k checked message bits."""
    n = params.n
    word = [0] * n
    for pos, bit in zip(message_positions(params), bits):
        word[pos - 1] = bit
    deficit = (params.a - _checksum(word, n + 1)) % (n + 1)
    for j, pos in enumerate(params.dyadic_positions):
        word[pos - 1] = (deficit >> j) & 1
    return tuple(word)


def read_binary_word(bits: Word, params: BinaryVtParams) -> Word:
    """The message bits at the message positions of a word of length n."""
    return tuple(bits[pos - 1] for pos in message_positions(params))


def correct_binary(received: Iterable[int], params: BinaryVtParams) -> Word:
    r = check_bits(received)
    n, a = params.n, params.a
    modulus = n + 1
    if len(r) == n:
        if _checksum(r, modulus) == a:
            return r
        raise NotACodewordError(f"word of length {n} is not in the code (a={a})")
    if len(r) == n - 1:
        candidates = distinct_insertions(r, 2)
    elif len(r) == n + 1:
        candidates = distinct_deletions(r)
    else:
        raise ParameterError(
            f"received length {len(r)} is not within one edit of n={n}"
        )
    found = None
    for cand in candidates:
        if _checksum(cand, modulus) == a:
            if found is not None:
                raise AmbiguousCorrectionError(
                    f"multiple codewords within one edit of the received word (n={n}, a={a})"
                )
            found = cand
    if found is None:
        raise NoCandidateError(f"no codeword within one edit of the received word (n={n}, a={a})")
    return found


def correct_q(received: Iterable[int], params: QaryVtParams) -> Word:
    r = check_word(received, params.q)
    n, q, a, b = params.n, params.q, params.a, params.b
    if len(r) == n:
        if _matches_code(r, n, q, a, b):
            return r
        raise NotACodewordError(f"word of length {n} is not in the code (a={a}, b={b})")
    if len(r) == n - 1:
        candidates = distinct_insertions(r, q)
    elif len(r) == n + 1:
        candidates = distinct_deletions(r)
    else:
        raise ParameterError(f"received length {len(r)} is not within one edit of n={n}")
    found = None
    for cand in candidates:
        if _matches_code(cand, n, q, a, b):
            if found is not None:
                raise AmbiguousCorrectionError(
                    f"multiple codewords within one edit of the received word "
                    f"(n={n}, q={q}, a={a}, b={b})"
                )
            found = cand
    if found is None:
        raise NoCandidateError(
            f"no codeword within one edit of the received word (n={n}, q={q}, a={a}, b={b})"
        )
    return found


def binary_census(n: int) -> tuple[int, ...]:
    counts = np.zeros(n + 1, dtype=np.int64)
    for _, syn in _binary_checksums(n):
        counts += np.bincount(syn, minlength=n + 1)
    return tuple(int(c) for c in counts)


def binary_codewords(n: int, a: int) -> list[tuple[int, ...]]:
    out = []
    for x, syn in _binary_checksums(n):
        for v in x[syn == a]:
            v = int(v)
            out.append(tuple((v >> i) & 1 for i in range(n)))
    return out


def qary_census(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    counts = np.zeros(n * q, dtype=np.int64)
    weights = np.arange(1, n, dtype=np.int64)[:, None]
    total = q**n
    for start in range(0, total, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = np.empty((n, x.shape[0]), dtype=np.int64)
        rem = x
        for j in range(n):
            rem, digits[j] = np.divmod(rem, q)
        syn = ((digits[1:] >= digits[:-1]) * weights).sum(axis=0) % n
        tot = digits.sum(axis=0) % q
        counts += np.bincount(syn * q + tot, minlength=n * q)
    grid = counts.reshape(n, q)
    return tuple(tuple(int(v) for v in row) for row in grid)


def binary_census_dp(n: int) -> tuple[int, ...]:
    # counts[s]: words over positions 1..i with checksum s mod n + 1
    counts = [1] + [0] * n
    for i in range(1, n + 1):
        # position i adds i to every word holding a 1 there
        counts = list(map(add, counts, counts[-i:] + counts[:-i]))
    return tuple(counts)


def qary_census_dp(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    # ways[c][b][a]: words over the first i positions that end in symbol c,
    # with symbol sum b mod q and auxiliary checksum a mod n
    ways = [[[int(b == c and a == 0) for a in range(n)] for b in range(q)] for c in range(q)]
    for i in range(1, n):
        total = [list(map(sum, zip(*rows))) for rows in zip(*ways)]
        below = [[0] * n for _ in range(q)]
        grown = []
        for c in range(q):
            # appending c adds i to the checksum of words ending in a symbol
            # <= c, leaves the others, and adds c to every symbol sum
            below = [list(map(add, x, y)) for x, y in zip(below, ways[c])]
            rows = [
                list(map(add, r[-i:] + r[:-i], map(sub, t, r))) for r, t in zip(below, total)
            ]
            grown.append(rows[-c:] + rows[:-c])
        ways = grown
    final = [list(map(sum, zip(*rows))) for rows in zip(*ways)]
    return tuple(zip(*final))


def qary_size_lower_bound(n: int, q: int) -> int:
    """(q-1)^(2t-5) * q^(n-3t+3) for q >= 4 and 2^(2(t-3)) * 3^(n-3t+3) for
    q = 3, with t = ceil(log2 n)."""
    _layout(n, q)  # the library's refusal of shapes the encoder cannot lay out
    n, q = int(n), int(q)
    t = len(dyadic_positions(n))
    free = n - 3 * t + 3
    if q == 3:
        return (1 << (2 * (t - 3))) * 3**free
    return (q - 1) ** (2 * t - 5) * q**free


def dyadic_positions(n: int) -> Word:
    """The reserved powers of two below n: 1, 2, 4, .., t of them."""
    out = []
    while 1 << len(out) < n:
        out.append(1 << len(out))
    return tuple(out)


def pair_positions(n: int) -> tuple[tuple[int, int], ...]:
    """The odd neighbours (p - 1, p + 1) of each reserved power of two p >= 4."""
    return tuple((p - 1, p + 1) for p in dyadic_positions(n) if p >= 4)


def free_positions(params: QaryVtParams) -> Word:
    """Positions that carry plain base-q message symbols."""
    reserved = set(dyadic_positions(params.n))
    for left, right in pair_positions(params.n):
        reserved.add(left)
        reserved.add(right)
    return tuple(p for p in range(1, params.n) if p not in reserved)


def _checksum(bits: Sequence[int], modulus: int) -> int:
    total = 0
    for i, b in enumerate(bits, start=1):
        if b:
            total += i
    return total % modulus


def _matches_code(w: Sequence[int], n: int, q: int, a: int, b: int) -> bool:
    """Membership test for an already validated word of length n."""
    syn = 0
    total = w[0]
    prev = w[0]
    for i in range(1, n):
        cur = w[i]
        if cur >= prev:
            syn += i
        total += cur
        prev = cur
    return syn % n == a and total % q == b


@lru_cache(maxsize=None)
def pair_values(q: int) -> tuple[tuple[int, int], ...]:
    """Every (left, right) pair with left != 0 and right != left - 1, in
    lexicographic order: entry i is the pair slot's value for message index i."""
    return tuple((left, right) for left in range(1, q) for right in range(q) if right != left - 1)


@lru_cache(maxsize=None)
def single_values(q: int) -> Word:
    """Every value but q - 2, ascending: entry i is position 5's value for index i."""
    return tuple(v for v in range(q) if v != q - 2)


def _place_message(bits: Word, params: QaryVtParams) -> list:
    """Spread message bits over the free, pair, and position-5 slots.

    Returns the word as a list with positions 0..2 and the reserved powers of
    two still unset (None).
    """
    q = params.q
    pairs, singles = pair_values(q), single_values(q)
    pair_bits, single_bits = _ilog2(len(pairs)), _ilog2(len(singles))
    c: list = [None] * params.n
    free = free_positions(params)
    used = 0
    if free:
        width = _ilog2(q ** len(free))
        value = bits_to_int(bits[:width])
        used = width
        for pos, sym in zip(free, int_to_digits(value, q, len(free))):
            c[pos] = sym
    for left, right in pair_positions(params.n)[1:]:
        idx = bits_to_int(bits[used : used + pair_bits])
        used += pair_bits
        c[left], c[right] = pairs[idx]
    if q == 3:
        c[3], c[5] = 2, 2
    else:
        c[3] = q - 1
        idx = bits_to_int(bits[used : used + single_bits])
        used += single_bits
        c[5] = singles[idx]
    if used != len(bits):
        raise CodecError(f"message layout used {used} of {len(bits)} bits")
    return c


def _prefill_aux(c: Sequence, params: QaryVtParams) -> list:
    """Auxiliary bits of a partially built word, reserved positions zeroed.

    Position 3 is pinned to the largest value in play, so its bit is 1
    outright; a position just after a reserved power of two compares across
    it, which stays valid however the reserved symbol is later chosen.
    """
    n = params.n
    dyadic = set(dyadic_positions(params.n))
    aux = [0] * n  # index i holds the bit comparing positions i and i-1
    for i in range(1, n):
        if i in dyadic:
            continue
        if i == 3:
            aux[i] = 1
        elif i - 1 in dyadic and i > 3:
            aux[i] = 1 if c[i] >= c[i - 2] else 0
        else:
            aux[i] = 1 if c[i] >= c[i - 1] else 0
    return aux


def _step6_triple(w: int, q: int) -> tuple[int, int, int]:
    """Step 6's three distinct values with sum w (mod q), ascending, for
    q >= 4: 0, 1 and w - 1 (mod q), unless w - 1 is 0 or 1; then the top
    symbol q - 1 and the two of 0, 1, 2 that add up to w + 1."""
    third = (w - 1) % q
    if third > 1:
        return (0, 1, third)
    for x in range(3):
        for y in range(x + 1, 3):
            if x + y == w + 1:
                return (x, y, q - 1)
    raise AssertionError(f"no step-6 triple for w={w}")


def _arrange_prefix(triple: tuple[int, int, int], alpha1: int, alpha2: int) -> tuple[int, int, int]:
    """The first ordering of three distinct values, in lexicographic order,
    whose auxiliary bit 1 (positions 1 against 0) is alpha1 and bit 2
    (positions 2 against 1) is alpha2."""
    for c0, c1, c2 in sorted(permutations(triple)):
        if (c1 >= c0) == alpha1 and (c2 >= c1) == alpha2:
            return (c0, c1, c2)
    raise AssertionError(f"no ordering of {triple} gives bits {alpha1}, {alpha2}")


def _finish_prefix_q3(c: list, aux: list, b: int) -> None:
    """The q = 3 prefix. When auxiliary bits 1 and 2 are both 0 no prefix
    descends below c[3] = 2, so bits 1, 2, 3 become 1, 1, 0 (the same
    weight), c[3] drops to 1 and c[4] follows bit 4. Of the prefixes over
    {0, 1, 2} that realize bits 1, 2 and 3 and bring the symbol sum to
    b (mod 3), the one with the largest c[2], then the largest c[1]."""
    if aux[1] == 0 and aux[2] == 0:
        aux[1], aux[2], aux[3] = 1, 1, 0
        c[3] = 1
        c[4] = c[3] if aux[4] else c[3] - 1
    rest = sum(c[3:])
    fits = [
        (c2, c1, c0)
        for c0, c1, c2 in product(range(3), repeat=3)
        if (c1 >= c0) == aux[1]
        and (c2 >= c1) == aux[2]
        and (c[3] >= c2) == aux[3]
        and (c0 + c1 + c2 + rest) % 3 == b
    ]
    c[2], c[1], c[0] = max(fits)


def _complete_codeword(c: list, params: QaryVtParams) -> Word:
    """Fill the reserved and prefix positions of a word whose message
    positions are already set, landing it on the target residues."""
    n, q, a, b = params.n, params.q, params.a, params.b
    aux = _prefill_aux(c, params)
    deficit = (a - _checksum(aux[1:], n)) % n
    for j, pos in enumerate(dyadic_positions(params.n)):
        aux[pos] = (deficit >> j) & 1
    for pos in dyadic_positions(params.n)[2:]:
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


def encode_q(message: Iterable[int], params: QaryVtParams) -> Word:
    """Systematically encode k message bits into a codeword."""
    bits = check_bits(message)
    if len(bits) != params.k:
        raise MessageLengthError(
            f"expected {params.k} message bits for (n={params.n}, q={params.q}), "
            f"got {len(bits)}"
        )
    return _complete_codeword(_place_message(bits, params), params)


def extract_q(word: Iterable[int], params: QaryVtParams) -> Word:
    """Read the message bits back out of a codeword produced by encode()."""
    w = check_word(word, params.q)
    n, q = params.n, params.q
    if len(w) != n:
        raise ParameterError(f"expected a word of length {n}, got {len(w)}")
    if not _matches_code(w, n, q, params.a, params.b):
        raise NotACodewordError(f"word is not in the code (a={params.a}, b={params.b})")
    pairs, singles = pair_values(q), single_values(q)
    pair_bits, single_bits = _ilog2(len(pairs)), _ilog2(len(singles))
    bits: list = []
    free = free_positions(params)
    if free:
        width = _ilog2(q ** len(free))
        value = digits_to_int([w[p] for p in free], q)
        if value >> width:
            raise ExtractionError("free-position symbols exceed the message range")
        bits += int_to_bits(value, width)
    for left, right in pair_positions(params.n)[1:]:
        try:
            idx = pairs.index((w[left], w[right]))
        except ValueError as exc:
            raise ExtractionError(
                f"positions {left}, {right} do not hold a constrained pair"
            ) from exc
        if idx >> pair_bits:
            raise ExtractionError(f"pair at positions {left}, {right} exceeds the message range")
        bits += int_to_bits(idx, pair_bits)
    if q == 3:
        if w[5] != 2 or w[3] not in (1, 2):
            raise ExtractionError("positions 3 and 5 do not match the encoder layout")
    else:
        if w[3] != q - 1:
            raise ExtractionError(f"position 3 must hold {q - 1}, got {w[3]}")
        try:
            idx = singles.index(w[5])
        except ValueError as exc:
            raise ExtractionError(f"position 5 holds the excluded value {w[5]}") from exc
        if idx >> single_bits:
            raise ExtractionError("position 5 exceeds the message range")
        bits += int_to_bits(idx, single_bits)
    if len(bits) != params.k:
        raise CodecError(f"extracted {len(bits)} message bits, expected {params.k}")
    return tuple(bits)


def bits_to_int(bits: Iterable[int]) -> int:
    """Big-endian: the first bit is the most significant."""
    value = 0
    for b in check_bits(bits):
        value = (value << 1) | b
    return value


def int_to_bits(value: int, width: int) -> Word:
    value = _as_int(value)
    width = check_int(width, "width", 0)
    if value < 0 or value >> width:
        raise ParameterError(f"{value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def digits_to_int(digits: Iterable[int], base: int) -> int:
    """Big-endian base conversion; the first digit is the most significant."""
    base = check_int(base, "base", 2)
    value = 0
    for d in check_word(digits, base):
        value = value * base + d
    return value


def int_to_digits(value: int, base: int, width: int) -> Word:
    value = _as_int(value)
    base = check_int(base, "base", 2)
    width = check_int(width, "width", 0)
    if value < 0 or value >= base**width:
        raise ParameterError(f"{value} does not fit in {width} base-{base} digits")
    out = []
    for _ in range(width):
        value, d = divmod(value, base)
        out.append(d)
    return tuple(reversed(out))


def parse_bitstring(text: str) -> Word:
    bad = set(text) - {"0", "1"}
    if bad:
        raise ParameterError(f"bit string may only contain 0 and 1, got {sorted(bad)}")
    return tuple(int(c) for c in text)


def format_bitstring(bits: Iterable[int]) -> str:
    return "".join(str(b) for b in check_bits(bits))


def check_symbols(word: Iterable[int]) -> Word:
    if isinstance(word, str):
        raise ParameterError("expected a sequence of ints; use parse_symbols() for text")
    out = tuple(word)
    if set(map(type, out)) != {int}:
        # numpy integers convert through operator.index; bools are refused
        out = tuple(map(_as_int, out))
    if out and min(out) < 0:
        bad = next(s for s in out if s < 0)
        raise ParameterError(f"symbols must be non-negative, got {bad}")
    return out


def check_word(word: Iterable[int], q: int) -> Word:
    if type(q) is not int:
        q = check_int(q, "alphabet size")
    out = check_symbols(word)
    if out and max(out) >= q:
        bad = next(s for s in out if s >= q)
        raise ParameterError(f"symbol {bad} out of range for alphabet size {q}")
    return out
