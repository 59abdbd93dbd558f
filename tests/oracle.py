"""Slow reference implementations the library replaced with faster ones,
kept so the differential tests can check the fast versions against them.

- The candidate-search correctors the library used before its linear-time
  decoders. Each one enumerates every distinct word one edit away from the
  received word and keeps those in the code, so it costs O(n^2 * q); the
  decoders must match them, result and exception type alike.
- The brute-force censuses the library used before its dynamic programmes.
  Each one walks all q^n words in numpy chunks, so they are only usable for
  small word spaces; the censuses must match them count for count.
"""

from typing import Iterable

import numpy as np

from vtcodes.analysis import _CHUNK, _binary_checksums
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


def binary_census(n: int) -> tuple[int, ...]:
    counts = np.zeros(n + 1, dtype=np.int64)
    for _, syn in _binary_checksums(n):
        counts += np.bincount(syn, minlength=n + 1)
    return tuple(int(c) for c in counts)


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
