"""Recompute vtbench/reference.json, the census counts the benchmark checks
vtcodes against.

The counts come from dynamic programming over the code definitions, written
here without importing vtcodes, so a wrong brute-force census cannot agree
with its own reference by construction:

- binary, length n: words whose checksum sum(i * s_i) mod (n + 1) is a;
- q-ary, length n: words whose auxiliary checksum (bit i is 1 when
  c_i >= c_{i-1}, weight i, mod n) is a and whose symbol sum mod q is b.

Run from the repository root: python3 vtbench/make_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

QARY_SHAPES = [(12, 4), (15, 3), (10, 5), (8, 8)]
BINARY_LENGTHS = [18, 22, 24]


def binary_counts(n: int) -> list[int]:
    """Entry a: number of length-n binary words with checksum a mod (n + 1)."""
    m = n + 1
    counts = [1] + [0] * n
    for i in range(1, n + 1):
        counts = [counts[s] + counts[(s - i) % m] for s in range(m)]
    return counts


def qary_counts(n: int, q: int) -> list[list[int]]:
    """Entry [a][b]: number of length-n words over {0..q-1} with auxiliary
    checksum a mod n and symbol sum b mod q."""
    # state[last][syn][total]
    state = [[[0] * q for _ in range(n)] for _ in range(q)]
    for c in range(q):
        state[c][0][c % q] = 1
    for i in range(1, n):
        nxt = [[[0] * q for _ in range(n)] for _ in range(q)]
        for prev in range(q):
            for syn in range(n):
                for total in range(q):
                    ways = state[prev][syn][total]
                    if not ways:
                        continue
                    for c in range(q):
                        s = (syn + i) % n if c >= prev else syn
                        nxt[c][s][(total + c) % q] += ways
        state = nxt
    return [[sum(state[c][a][b] for c in range(q)) for b in range(q)] for a in range(n)]


def build() -> dict:
    return {
        "qary": {f"{n},{q}": qary_counts(n, q) for n, q in QARY_SHAPES},
        "binary": {str(n): binary_counts(n) for n in BINARY_LENGTHS},
    }


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(build(), separators=(",", ":")) + "\n")
    print(f"wrote {REFERENCE}")
