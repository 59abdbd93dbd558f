"""Slow reference correctors: the candidate search the library used before
its linear-time decoders.

Each one enumerates every distinct word one edit away from the received word
and keeps those in the code, so it costs O(n^2 * q). The differential tests
check the library decoders against these, result and exception type alike.
"""

from typing import Iterable

from vtcodes.binary import BinaryVtParams, _checksum
from vtcodes.errors import (
    AmbiguousCorrectionError,
    NoCandidateError,
    NotACodewordError,
    ParameterError,
)
from vtcodes.qary import QaryVtParams, _matches_code
from vtcodes.words import Word, check_bits, check_word, distinct_deletions, distinct_insertions


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
