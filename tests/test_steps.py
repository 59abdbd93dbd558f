"""Public calls stay within a + b * log2(n) interpreter lines.

The per-symbol work of encode, extract, correct and the word check runs in
builtins (bytes methods, bisect, big-int lane arithmetic), so the library's
own Python lines grow with log2(n) only: one iteration per reserved block,
lane level or divide-and-conquer split. correct is counted on the codeword of
a random message and on a sorted codeword, one run of ascents, where a
decoder that walked the run would pay per symbol. A Python loop over
symbols, or over a fixed number of symbols, would add thousands of lines at
n = 16384. The budgets leave room for the line events of other Python
versions (3.10 to 3.12), so they check growth, not exact counts. Alphabets
other than powers of two convert their free block c digits per loop
iteration (q**c <= 256), so their encode and extract get explicit
a + b * n / c budgets instead, which keep that cost visible.
"""

import math
import random

import pytest

from steps import line_events
from vtcodes import BinaryVtParams, QaryVtParams, code_signature, syndrome
from vtcodes.words import _chunking, check_word

# (a, b) per call; at q = 4 and 8 the counts read about 125 / 87 / 82 / 13 at
# n = 64 and 230 / 136 / 90 / 13 at n = 16384 (CPython 3.11).
BUDGETS = {
    "encode": (90, 25),
    "extract": (60, 12),
    "correct deletion": (90, 6),
    "correct insertion": (90, 6),
    "check_word": (24, 0),
}


# (a, b) per call for q = 3, 5, 17, 200 and 300, with c = 5, 3, 1, 1 and 1 digits per
# chunk: a + b * n / c lines. At n = 4096 encode reads about 3.5 and extract 2.4 lines
# per chunk at q = 3 and 5 (CPython 3.11); correct and check_word keep the log budgets above.
CHUNK_BUDGETS = {
    "encode": (200, 5),
    "extract": (120, 4),
}


def counted_calls(n, q):
    """Line events of each public call at (n, q), after a first untraced call
    that builds per-length tables and cached properties. The sorted word
    ramp, x * q // n at x, belongs to the code its signature names; it loses
    and gains a symbol at n - 2, deep in its run, whose auxiliary edit
    Levenshtein's rule places at 0."""
    p = BinaryVtParams(n, n // 3) if q == 2 else QaryVtParams(n, q, n // 3, q // 2)
    rng = random.Random(n * q)
    message = tuple(rng.randrange(2) for _ in range(p.k))
    word = p.encode(message)
    i, j = rng.randrange(n), rng.randrange(n + 1)
    ramp = tuple(x * q // n for x in range(n))
    if q == 2:
        ramp_code = BinaryVtParams(n, syndrome(ramp))
    else:
        ramp_code = QaryVtParams(n, q, *code_signature(ramp, q))
    deep = n - 2
    calls = [
        ("encode", p.encode, message),
        ("extract", p.extract, word),
        ("correct deletion", p.correct, word[:i] + word[i + 1 :]),
        ("correct insertion", p.correct, word[:j] + (rng.randrange(q),) + word[j:]),
        ("correct deletion", ramp_code.correct, ramp[:deep] + ramp[deep + 1 :]),
        ("correct insertion", ramp_code.correct, ramp[: deep + 1] + ramp[deep:]),
        ("check_word", check_word, word, q),
    ]
    for name, call, *args in calls:
        call(*args)
        yield name, line_events(call, *args)


@pytest.mark.parametrize("q", [2, 4, 8])
@pytest.mark.parametrize("n", [64, 256, 1024, 4096, 16384])
def test_public_calls_stay_within_log_budgets(n, q):
    for name, count in counted_calls(n, q):
        a, b = BUDGETS[name]
        assert 0 < count <= a + b * math.log2(n), (name, count)


@pytest.mark.parametrize("q", [3, 5, 17, 200, 300])  # c = 1 digit per chunk from q = 17 on
@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_other_alphabets_stay_within_chunk_budgets(n, q):
    chunks = n / _chunking(q)[0]
    for name, count in counted_calls(n, q):
        if name in CHUNK_BUDGETS:
            a, b = CHUNK_BUDGETS[name]
            assert 0 < count <= a + b * chunks, (name, count)
        else:
            a, b = BUDGETS[name]
            assert 0 < count <= a + b * math.log2(n), (name, count)
