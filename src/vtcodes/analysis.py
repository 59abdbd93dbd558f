"""Exact censuses of the codes, analytic size and rate bounds, and the
CSV/JSON report writers.

Counts are exact Python ints. The binary census is the closed form of Ginzburg
(1967) and Stanley and Yoder (1973), restated in Sloane's 2002 survey: with
N = n + 1, |VT_a(n)| = (1/2N) * sum over odd d | N of c_d(a) * 2**(N/d), the
Ramanujan sum c_d(a) depending on a only through gcd(a, N). The q-ary census is
a DP over word positions on packed ints: per last symbol c, q blocks of n
lanes, lane b*n + a counting the words with symbol sum b and auxiliary checksum
a in (q**n).bit_length() + 1 bits. No count passes q**n and every difference
taken is non-negative lane by lane, so no lane carries or borrows; a step is
O(q) big-int operations. binary_codewords lists one residue by meet in the
middle; its two half tables depend on n alone, so they are built once per
length and cached like the censuses, and every later listing at that length
is O(output) work. The limits (binary length <= BINARY_LENGTH_LIMIT, q-ary
word count <= QARY_WORD_LIMIT by default) are kept as the API contract. The
constructive lower bound is the product of the encoder's message slot sizes
(qary._layout), which also gives the encoder's rate. Bounds use exact integer
or rational arithmetic where possible; a float bound past the float range is
refused with ParameterError, and census rows report it as None (an empty CSV
cell, JSON null). rounded() rounds report floats to 6 decimal places; README's
Enumeration limits gives measured costs.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import asdict, dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .binary import BinaryVtParams, _power_length
from .errors import LimitExceededError, ParameterError
from .qary import _layout
from .words import Word, check_int, check_residue

BINARY_LENGTH_LIMIT = 20
QARY_WORD_LIMIT = 1 << 24

CSV_COLUMNS = ("q", "n", "a", "b", "count", "size_lower", "size_upper")


def _check_binary_length(n: int, limit: int) -> int:
    n = check_int(n, "n", 1)
    limit = check_int(limit, "limit", 0)
    if n > limit:
        raise LimitExceededError(f"length {n} exceeds the enumeration limit {limit}")
    return n


@lru_cache(maxsize=None)
def _binary_census(n: int) -> tuple[int, ...]:
    # c_d(a) = mu(d/g) * phi(d) / phi(d/g) with g = gcd(d, a), over the odd divisors d
    size = n + 1
    odd = size // (size & -size)
    trial = range(1, math.isqrt(odd) + 1, 2)
    divisors = sorted({x for d in trial if odd % d == 0 for x in (d, odd // d)})
    mu = {}  # Moebius: over the divisors of any d > 1 it sums to 0
    for d in divisors:
        mu[d] = (d == 1) - sum(m for e, m in mu.items() if d % e == 0)
    phi = {d: sum(mu[e] * (d // e) for e in divisors if d % e == 0) for d in divisors}  # Euler
    sizes = {}  # c_d(a) depends on a only through g = gcd(a, odd)
    for g in divisors:
        r = {d: d // math.gcd(d, g) for d in divisors}
        sizes[g] = sum(mu[r[d]] * phi[d] // phi[r[d]] << size // d for d in divisors) // (2 * size)
    return tuple(sizes[math.gcd(a, odd)] for a in range(size))


def binary_census(n: int, limit: int = BINARY_LENGTH_LIMIT) -> tuple[int, ...]:
    """Exact code sizes for every residue a at length n: entry a holds
    |{words of length n with checksum a}|."""
    return _binary_census(_check_binary_length(n, limit))


def enumerate_binary(n: int, a: int, limit: int = BINARY_LENGTH_LIMIT) -> int:
    """Exact size of the binary code with residue a."""
    n = _check_binary_length(n, limit)
    a = check_residue(a, "a", n + 1)
    return _binary_census(n)[a]


@lru_cache(maxsize=None)
def _binary_halves(n: int) -> tuple[tuple[tuple[Word, ...], ...], tuple[tuple[Word, int], ...]]:
    """(buckets, high): the words over positions 1..m (m = n // 2), bucket s
    holding those with partial checksum s mod n + 1, and the words over
    m+1..n, each paired with its partial checksum. Both are in increasing
    integer order. Each position doubles a list: every word gains a 0, then
    every word gains a 1 and the position joins its checksum."""
    m = n // 2
    halves = []
    for start, stop in ((1, m + 1), (m + 1, n + 1)):
        words, sums = [()], [0]
        for p in range(start, stop):
            words = [w + (0,) for w in words] + [w + (1,) for w in words]
            sums += [s + p for s in sums]
        halves.append(zip(words, sums))
    low, high = halves
    buckets = [[] for _ in range(n + 1)]
    for w, s in low:
        buckets[s % (n + 1)].append(w)
    return tuple(map(tuple, buckets)), tuple(high)


def binary_codewords(n: int, a: int, limit: int = BINARY_LENGTH_LIMIT) -> list[tuple[int, ...]]:
    """Every codeword of the binary code with residue a, in integer order
    (bit i of the integer is position i + 1), as a new list on every call.

    Meet in the middle (Horowitz and Sahni): the low halves are bucketed by
    checksum, and each high half, in order, is joined to the low halves that
    complete residue a. The halves depend on n alone, so they are built once
    per length and cached like the censuses: the first listing at a length
    does O(2**ceil(n/2) + output) work, every later one O(output), one tuple
    join per codeword. README's Enumeration limits gives measured costs.
    """
    n = _check_binary_length(n, limit)
    a = check_residue(a, "a", n + 1)
    buckets, high = _binary_halves(n)
    return [lo + hi for hi, s in high for lo in buckets[(a - s) % (n + 1)]]


def _check_qary_shape(n: int, q: int, limit: int) -> tuple[int, int]:
    n = check_int(n, "n", 2)
    q = check_int(q, "q", 3)
    limit = check_int(limit, "limit", 0)
    # q**n >= 2**n > limit once n >= limit.bit_length(): refuse before building the power
    if n >= limit.bit_length() or q**n > limit:
        raise LimitExceededError(f"{q}**{n} words exceed the enumeration limit {limit}")
    return n, q


@lru_cache(maxsize=None)
def _qary_census(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    # ways[c]: words over the first i positions that end in symbol c, one lane
    # of w bits per (symbol sum b mod q, auxiliary checksum a mod n) at lane b*n + a
    w = (q**n).bit_length() + 1
    block, size = n * w, q * n * w
    full = (1 << size) - 1
    first, blocks = (1 << w) - 1, 1
    while blocks < q:  # lane 0 of the first `blocks` blocks, doubling them
        first, blocks = first | first << blocks * block, 2 * blocks
    first &= full  # lane 0 of every block
    low, ways = 0, [1 << c * block for c in range(q)]
    for i in range(1, n):
        low |= first << (i - 1) * w  # lanes 0 .. i-1 of every block
        high, up, down = full ^ low, i * w, (n - i) * w
        total, below = sum(ways), 0
        for c in range(q):
            # appending c adds i to the checksum of words ending in a symbol <= c
            # (each block rotates i lanes) and c to every sum (the int rotates c blocks)
            below += ways[c]
            rows = (below << up & high | below >> down & low) + total - below
            ways[c] = (rows << c * block | rows >> size - c * block) & full
    final, lane = sum(ways), (1 << w) - 1
    counts = [final >> k & lane for k in range(0, size, w)]
    return tuple(zip(*[counts[b : b + n] for b in range(0, q * n, n)]))


def qary_census(n: int, q: int, limit: int = QARY_WORD_LIMIT) -> tuple[tuple[int, ...], ...]:
    """Exact code sizes for every residue pair at length n over alphabet q:
    entry [a][b] holds |{words with auxiliary checksum a and symbol sum b}|.

    Works from the raw code definition, so lengths the encoder rejects
    (n < 6, n = 2**m + 1) are still countable.
    """
    return _qary_census(*_check_qary_shape(n, q, limit))


def enumerate_q(n: int, q: int, a: int, b: int, limit: int = QARY_WORD_LIMIT) -> int:
    """Exact size of the q-ary code with residues (a, b)."""
    n, q = _check_qary_shape(n, q, limit)
    a, b = check_residue(a, "a", n), check_residue(b, "b", q)
    return _qary_census(n, q)[a][b]


def qary_size_lower_bound(n: int, q: int) -> int:
    """Constructive lower bound on every q-ary code size at length n.

    Counts the codewords reachable by freely choosing whole symbols in the
    encoder's message slots: (q-1)^(2t-5) * q^(n-3t+3) for q >= 4, and
    2^(2(t-3)) * 3^(n-3t+3) for q = 3, with t = ceil(log2 n): the product
    of the slot sizes.
    """
    return math.prod(_layout(n, q).sizes)


def single_deletion_size_bound(n: int, q: int) -> Fraction:
    """Upper bound (q^n - q) / ((q-1)(n-1)) on the size of any q-ary code of
    length n that corrects one deletion, as an exact rational."""
    n = check_int(n, "n", 2)
    q = check_int(q, "q", 2)
    return Fraction(q**n - q, (q - 1) * (n - 1))


def binary_size_bounds(n: int) -> tuple[float, float]:
    """Size window 2^n/(n+1) -/+ 2^((n+1)/3) that every binary code of
    length n falls in."""
    n = check_int(n, "n", 1)
    if n - (n + 1).bit_length() >= sys.float_info.max_exp:  # 2**n / (n + 1) > 2**1024, unbuilt
        raise ParameterError(f"size bounds at (n={n}, q=2) exceed the float range")
    center = float_bound(Fraction(1 << n, n + 1), n, 2)
    slack = 2.0 ** ((n + 1) / 3)
    return (center - slack, center + slack)


def float_bound(bound: int | Fraction, n: int, q: int) -> float:
    """A size bound of the (n, q) shape as a float; ParameterError where it
    leaves the float range."""
    try:
        return float(bound)
    except OverflowError:
        raise ParameterError(f"size bounds at (n={n}, q={q}) exceed the float range") from None


def binary_size_within_bounds(n: int, count: int) -> bool:
    """Exact-arithmetic check that a count lies in the binary size window.

    Cubing |2^n/(n+1) - count| <= 2^((n+1)/3) removes the irrational slack:
    with m = n + 1 and gap = |2^n - m * count|, the comparison becomes
    gap^3 <= m^3 * 2^m over integers, answered from bit lengths alone when
    gap's cube is too long. n is refused past binary._POWER_LENGTH_LIMIT.
    """
    n, count = _power_length(n), check_int(count, "count")
    m = n + 1
    gap, window = abs((1 << n) - m * count), m**3 << m
    return 3 * (gap.bit_length() - 1) < window.bit_length() and gap**3 <= window


@dataclass(frozen=True)
class RateReport:
    """Rates and rate bounds, in bits per symbol, for one (n, q) shape."""

    n: int
    q: int
    k: int
    encoder_rate: float
    smallest_code_rate_bound: float
    single_deletion_rate_bound: float
    construction_rate: float
    encoder_rate_floor: float | None

    def to_dict(self) -> dict:
        return rounded(asdict(self))


def rate_bounds(n: int, q: int) -> RateReport:
    """Rate summary for one code shape.

    encoder_rate is k/n for this encoder. smallest_code_rate_bound is the
    pigeonhole bound log2(q) - log2(n)/n - log2(q)/n on the smallest of the
    n*q codes. single_deletion_rate_bound converts the single-deletion size
    bound to a rate. construction_rate is log2 of the constructive size
    lower bound over n. encoder_rate_floor is the closed-form floor
    log2(3) - 2.76*t/n - 2.25/n, defined for q = 3 only.
    """
    layout = _layout(n, q)
    n, q, t, k = layout.n, layout.q, layout.t, layout.k
    lg = math.log2
    floor = lg(3) - 2.76 * t / n - 2.25 / n if q == 3 else None
    return RateReport(
        n=n,
        q=q,
        k=k,
        encoder_rate=k / n,
        smallest_code_rate_bound=lg(q) - lg(n) / n - lg(q) / n,
        single_deletion_rate_bound=lg(q) - lg(n - 1) / n - lg(q - 1) / n,
        construction_rate=lg(qary_size_lower_bound(n, q)) / n,
        encoder_rate_floor=floor,
    )


def binary_rates(n: int) -> dict:
    """Report fields for the binary encoder at length n: message bits k,
    encoder_rate k/n, and smallest_code_rate_bound 1 - log2(n + 1)/n, the
    pigeonhole bound on the smallest of the n + 1 codes."""
    k = BinaryVtParams(n, 0).k
    return rounded(
        {"k": k, "encoder_rate": k / n, "smallest_code_rate_bound": 1 - math.log2(n + 1) / n}
    )


def rounded(report: dict) -> dict:
    """The report with every float value rounded to 6 decimal places."""
    return {key: round(v, 6) if isinstance(v, float) else v for key, v in report.items()}


@dataclass(frozen=True)
class CodeCensus:
    """One enumerated code: its parameters, exact size, and the analytic
    bounds that apply to it (None where no bound applies)."""

    q: int
    n: int
    a: int
    b: int | None
    count: int
    size_lower: float | int | None
    size_upper: float | int | None


def _check_residues(n: int, q: int, a: int | None, b: int | None) -> tuple:
    """The filter residues as plain ints (or None); refuses one that names no
    code of the (n, q) shape."""
    if a is not None:
        a = check_residue(a, "a", n + 1 if q == 2 else n)
    if b is not None:
        if q == 2:
            raise ParameterError("b applies to alphabets with q >= 3 only")
        b = check_residue(b, "b", q)
    return a, b


def _or_none(bound):
    """bound(), or None where it raises ParameterError: the encoder has no
    layout for the shape, or a float bound leaves the float range."""
    try:
        return bound()
    except ParameterError:
        return None


def census_rows(
    n: int,
    q: int = 2,
    limit: int | None = None,
    a: int | None = None,
    b: int | None = None,
) -> list[CodeCensus]:
    """Enumerate every code at one (n, q) shape, with applicable bounds.

    q = 2 selects the binary family (one row per a, size window bounds);
    q >= 3 gives one row per (a, b) with the constructive lower bound (when
    the shape supports it) and the single-deletion upper bound. A bound the
    shape has none of, or one past the float range, is None. Optional a/b
    keep only the rows of one checksum residue a and/or one sum residue b; a
    residue outside the shape is refused before anything is counted.
    """
    n = check_int(n, "n")
    q = check_int(q, "q", 2)
    if q == 2:
        n = _check_binary_length(n, BINARY_LENGTH_LIMIT if limit is None else limit)
        a, b = _check_residues(n, q, a, b)
        lo, hi = _or_none(lambda: binary_size_bounds(n)) or (None, None)
        rows = [
            CodeCensus(q=2, n=n, a=r, b=None, count=c, size_lower=lo, size_upper=hi)
            for r, c in enumerate(_binary_census(n))
        ]
    else:
        n, q = _check_qary_shape(n, q, QARY_WORD_LIMIT if limit is None else limit)
        a, b = _check_residues(n, q, a, b)
        upper = _or_none(lambda: float_bound(single_deletion_size_bound(n, q), n, q))
        lower = _or_none(lambda: qary_size_lower_bound(n, q))
        grid = _qary_census(n, q)
        rows = [
            CodeCensus(
                q=q, n=n, a=ra, b=rb, count=grid[ra][rb], size_lower=lower, size_upper=upper
            )
            for ra in range(n)
            for rb in range(q)
        ]
    return [r for r in rows if (a is None or r.a == a) and (b is None or r.b == b)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(Decimal(value))  # exact, and past the int/str digit limit too


def census_csv(rows: list[CodeCensus]) -> str:
    """Render census rows as CSV with the fixed column order CSV_COLUMNS;
    anything but an iterable of CodeCensus is refused with ParameterError."""
    try:
        rows = iter(rows)
    except TypeError:
        raise ParameterError(f"census rows must be iterable, got {type(rows).__name__}") from None
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for i, r in enumerate(rows):
        if not isinstance(r, CodeCensus):
            raise ParameterError(f"census row {i} is not a CodeCensus: got {type(r).__name__}")
        writer.writerow(
            [_cell(v) for v in (r.q, r.n, r.a, r.b, r.count, r.size_lower, r.size_upper)]
        )
    return buf.getvalue()


def rows_report(rows: list[CodeCensus]) -> dict:
    """JSON-ready report of census rows from one (n, q) shape: parameters,
    counts, bounds, rates. Bounds and rates describe the whole shape."""
    first = rows[0]
    n, q = first.n, first.q
    if q == 2:
        rates = binary_rates(n)
    else:
        rates = _or_none(lambda: rate_bounds(n, q).to_dict())
    return {
        "parameters": {"q": q, "n": n},
        "counts": [{"a": r.a, "b": r.b, "count": r.count} for r in rows],
        "bounds": rounded({"size_lower": first.size_lower, "size_upper": first.size_upper}),
        "rates": rates,
    }


def census_report(
    n: int,
    q: int = 2,
    limit: int | None = None,
    a: int | None = None,
    b: int | None = None,
) -> dict:
    """JSON-ready census report: parameters, counts, bounds, rates.

    Optional a/b filters narrow the counts list (see census_rows); bounds and
    rates always describe the whole (n, q) shape.
    """
    return rows_report(census_rows(n, q, limit, a, b))
