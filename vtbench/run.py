"""Benchmark for vtcodes: codeword round trips, run_trials throughput and
censuses, with a separate traced run that splits time by layer.

    python3 vtbench/run.py --workload long_mixed --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository: it imports vtcodes from the
checkout's src/ and exits with status 2 when that is missing. The process is
single-threaded and closed-loop: each call starts when the previous one has
returned. Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The exit status is 1 when any output check failed.

The end-to-end times other than setup_s are in calibration units (cal): an
operation's duration divided by the duration of a fixed pure-Python
reference operation timed just before and after it. The speed of a shared
machine drifts by 20-50% over seconds to minutes, which moved raw times of
pure-Python calls by 15-30% between runs; the ratio cancels most of that
drift. The numpy-bound census calls follow the drift less closely, so
list_cal spreads more on the census workload than elsewhere (see
vtbench/README.md). The raw times are printed too and reported under raw.*
in the traced run.

Workloads (the reasons they were chosen are in vtbench/README.md):

- long_mixed: deletions and insertions in equal numbers at n = 256
  (q = 2, 4, 8) and n = 1024 (q = 2, 4), where correction dominates.
- short_identity: the identity channel at n = 16, 64 and q = 2, 4, 8, where
  correction is only a membership check.
- census: analysis.qary_census and binary_census over a fixed list of
  shapes, then binary_codewords listings. No codec call.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import importlib.util
import json
import random
import resource
import statistics
import sys
from array import array
from functools import partial
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".vtbench_out"
REFERENCE = HERE / "reference.json"

# Set-up runs INITIAL_SETUPS times before the first timed operation and then
# every run_seconds / PERIODIC_SETUPS seconds, so that setup_s, a median,
# samples the machine's speed over the whole run.
INITIAL_SETUPS = 3
PERIODIC_SETUPS = 8

CAL_INTERVAL = 0.025  # seconds between calibration readings
CAL_WORD = tuple(range(256))

# (n, q, round trips per event kind per round). run_trials gets the same
# number of trials per (shape, kind) per round, one batch each. The counts
# put the 50th and 90th percentiles of round-trip latency inside a cluster
# of (shape, kind) cells with many samples, not on the edge between a fast
# and a slow cell: (256, 8) deletions hold the 90th on long_mixed.
LONG_MIXED = ((256, 2, 8), (256, 4, 8), (256, 8, 8), (1024, 2, 1), (1024, 4, 1))
SHORT_IDENTITY = ((16, 2, 40), (16, 4, 40), (16, 8, 80), (64, 2, 40), (64, 4, 40), (64, 8, 40))
CODEC_WORKLOADS = {
    "long_mixed": (LONG_MIXED, ("deletion", "insertion")),
    "short_identity": (SHORT_IDENTITY, ("identity",)),
}

CENSUS_QARY = ((12, 4), (15, 3), (10, 5), (8, 8))
CENSUS_BINARY = (22, 24)
LISTING_N = 18
LISTING_RESIDUES = 4
LISTINGS_PER_RESIDUE = 16

WORKLOADS = (*CODEC_WORKLOADS, "census")

END_TO_END = {
    "setup_s": "s",
    "op_p50_cal": "cal",
    "op_p90_cal": "cal",
    "list_cal": "cal",
    "batch_items_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}
RAW = {
    "raw.op_p50_us": "us",
    "raw.op_p90_us": "us",
    "raw.list_s": "s",
    "raw.batch_items_per_s": "1/s",
    "calibration.us": "us",
}

LAYERS = (
    "words.check",
    "binary.encode",
    "qary.encode",
    "channel.apply_channel",
    *(f"{fam}.correct.{kind}" for fam in ("binary", "qary") for kind in ("deletion", "insertion", "identity")),
    "binary.extract",
    "qary.extract",
)


def _family(q: int) -> str:
    return "binary" if q == 2 else "qary"


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.p50_us"] = "us"
    for spec, kinds in CODEC_WORKLOADS.values():
        for n, q, _ in spec:
            for kind in kinds:
                units[f"{_family(q)}.correct.{kind}.n{n}_q{q}.p50_us"] = "us"
    for n, q in CENSUS_QARY:
        units[f"analysis.qary_census.n{n}_q{q}.s"] = "s"
    for n in CENSUS_BINARY:
        units[f"analysis.binary_census.n{n}.s"] = "s"
    units["analysis.binary_codewords.s"] = "s"
    units["analysis.binary_codewords.words"] = "count"
    units["analysis.calls"] = "count"
    units["setup.cold_s"] = "s"
    units["setup.import_s"] = "s"
    units["setup.warm_s"] = "s"
    units["channel.run_trials.overhead_us"] = "us"
    units["trace.overhead_pct"] = "%"
    units["trace.uncovered_pct"] = "%"
    units["trace.correct_pct"] = "%"
    units["trace.edit_correct_pct"] = "%"
    units.update(RAW)
    return units


PER_LAYER = _per_layer_units()


# --------------------------------------------------------------------------
# Set-up


def load_vtcodes():
    """Import vtcodes afresh and return (package, seconds taken).

    Earlier imports are dropped from sys.modules first, so every call runs
    the package's module code again; numpy stays loaded after the first.
    """
    for name in [m for m in sys.modules if m == "vtcodes" or m.startswith("vtcodes.")]:
        del sys.modules[name]
    t0 = perf_counter()
    vt = importlib.import_module("vtcodes")
    return vt, perf_counter() - t0


class Codec:
    """One code shape with its params built and caches warmed."""

    def __init__(self, vt, n: int, q: int, per_kind: int, rng: random.Random):
        self.n, self.q, self.per_kind = n, q, per_kind
        self.family = _family(q)
        self.label = f"n{n}_q{q}"
        if q == 2:
            self.params = vt.BinaryVtParams(n, rng.randrange(n + 1))
            self.params.message_positions
            self.params.dyadic_positions
            self.encode, self.correct, self.extract = vt.encode_binary, vt.correct_binary, vt.extract_binary
            self.check = vt.words.check_bits
        else:
            self.params = vt.QaryVtParams(n, q, rng.randrange(n), rng.randrange(q))
            self.params.k
            self.params.free_positions
            self.params.pair_positions
            self.params.dyadic_positions
            vt.pair_table(q)
            self.encode, self.correct, self.extract = vt.encode_q, vt.correct_q, vt.extract_q
            self.check = partial(vt.words.check_word, q=q)
        self.k = self.params.k


def prepare(vt, workload: str, seed: int):
    """Build what the workload's timed calls need: params with warm caches
    for the codec workloads, listing residues and bounds for the census."""
    rng = random.Random(seed)
    if workload in CODEC_WORKLOADS:
        spec, _ = CODEC_WORKLOADS[workload]
        return [Codec(vt, n, q, per_kind, rng) for n, q, per_kind in spec]
    return {
        "residues": rng.sample(range(LISTING_N + 1), LISTING_RESIDUES),
        "lower": {(n, q): vt.qary_size_lower_bound(n, q) for n, q in CENSUS_QARY},
    }


class Setups:
    """Fresh set-ups of vtcodes, timed: import, then prepare()."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.imports: list[float] = []
        self.warms: list[float] = []

    def run(self):
        gc.collect()  # not the set-up's garbage: keep its collection out of the timing
        vt, import_s = load_vtcodes()
        t0 = perf_counter()
        state = prepare(vt, self.workload, self.seed)
        self.warms.append(perf_counter() - t0)
        self.imports.append(import_s)
        return vt, state

    def metrics(self) -> dict[str, float]:
        """setup_s and its parts, medians over every set-up. The first one
        also paid for importing numpy and is reported alone as cold_s."""
        totals = [i + w for i, w in zip(self.imports, self.warms)]
        return {
            "setup_s": statistics.median(totals),
            "setup.cold_s": totals[0],
            "setup.import_s": statistics.median(self.imports),
            "setup.warm_s": statistics.median(self.warms),
        }


def reference_op() -> int:
    """Fixed pure-Python work that does not touch vtcodes: tuple slicing and
    integer sums, the operations the codec's inner loops are made of."""
    total = 0
    for i in range(0, 256, 4):
        total += sum(CAL_WORD[:i] + CAL_WORD[i + 1 :]) % 7
    return total


class Clock:
    """Times calls in seconds and in calibration units.

    A calibration reading is the fastest of three runs of reference_op(),
    taken again when CAL_INTERVAL has passed since the last one. A call's
    duration in cal is its duration over the mean of the readings in force
    before and after it.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.at = float("-inf")

    def reading(self) -> float:
        if perf_counter() - self.at >= CAL_INTERVAL:
            best = float("inf")
            for _ in range(3):
                t0 = perf_counter()
                reference_op()
                best = min(best, perf_counter() - t0)
            self.readings.append(best)
            self.at = perf_counter()
        return self.readings[-1]

    def time(self, fn, *args, **kwargs):
        """Return (result, seconds, cal)."""
        before = self.reading()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        dt = perf_counter() - t0
        return out, dt, 2 * dt / (before + self.reading())


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far.

    The workloads read it after their first round: later rounds do the same
    work, and only the benchmark's own store of samples grows, by an amount
    that depends on how fast the rounds run.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_metrics(raw: list[float], cal: list[float]) -> tuple[dict, dict]:
    """(end-to-end, raw) median and 90th percentile of one operation."""
    return (
        {"op_p50_cal": statistics.median(cal), "op_p90_cal": statistics.quantiles(cal, n=10)[8]},
        {"raw.op_p50_us": statistics.median(raw) * 1e6, "raw.op_p90_us": statistics.quantiles(raw, n=10)[8] * 1e6},
    )


# --------------------------------------------------------------------------
# Tracing


class Tracer:
    """Spans kept in memory as [word id, name, parent index or -1, start, end]."""

    def __init__(self):
        self.spans: list[list] = []

    def open(self, word: int, name: str, parent: int = -1) -> int:
        self.spans.append([word, name, parent, perf_counter(), 0.0])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][4] = perf_counter()

    def call(self, word: int, name: str, parent: int, fn, *args, **kwargs):
        index = self.open(word, name, parent)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[2] >= 0:
            children.setdefault(span[2], []).append(i)
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for j in sorted(children.get(i, ()), key=lambda j: spans[j][3]):
            lo, hi = max(spans[j][3], reach), min(spans[j][4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list], word_shapes: dict[int, str]) -> dict[str, float]:
    """calls, self_s and p50_us per layer, and per-shape p50_us of correct."""
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    by_shape: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        name = span[1]
        duration = span[4] - span[3]
        durations.setdefault(name, []).append(duration)
        self_s[name] = self_s.get(name, 0.0) + own
        if ".correct." in name:
            by_shape.setdefault(f"{name}.{word_shapes[span[0]]}", []).append(duration)
    roots = durations.pop("roundtrip")
    out = {}
    for name, values in durations.items():
        out[f"{name}.calls"] = len(values)
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.p50_us"] = statistics.median(values) * 1e6
    for name, values in by_shape.items():
        out[f"{name}.p50_us"] = statistics.median(values) * 1e6
    total = sum(roots)
    corrects = {name: sum(v) for name, v in durations.items() if ".correct." in name}
    out["trace.uncovered_pct"] = 100 * self_s["roundtrip"] / total
    out["trace.correct_pct"] = 100 * sum(corrects.values()) / total
    out["trace.edit_correct_pct"] = 100 * sum(
        v for name, v in corrects.items() if not name.endswith(".identity")
    ) / total
    return out


# --------------------------------------------------------------------------
# Codec workloads


def make_round(vt, codecs: list[Codec], kinds: tuple[str, ...], rng: random.Random):
    """Inputs of one round: a (codec, kind, message, event) per round trip
    and a (codec, kind, trials, seed) per run_trials batch."""
    words, batches = [], []
    for codec in codecs:
        n, q, k = codec.n, codec.q, codec.k
        for kind in kinds:
            for _ in range(codec.per_kind):
                bits = rng.getrandbits(k)
                message = tuple((bits >> i) & 1 for i in range(k))
                if kind == "deletion":
                    event = vt.ChannelEvent("deletion", position=rng.randrange(n))
                elif kind == "insertion":
                    event = vt.ChannelEvent("insertion", position=rng.randrange(n + 1), symbol=rng.randrange(q))
                else:
                    event = vt.ChannelEvent("identity")
                words.append((codec, kind, message, event))
            batches.append((codec, kind, codec.per_kind, rng.randrange(1 << 31)))
    return words, batches


def round_trip(vt, codec: Codec, message, event):
    """encode -> apply_channel -> correct -> extract; None on a codec error."""
    p = codec.params
    try:
        return codec.extract(codec.correct(vt.apply_channel(codec.encode(message, p), event), p), p)
    except vt.VtCodeError:
        return None


def traced_round_trip(vt, tracer: Tracer, wid: int, codec: Codec, kind: str, message, event):
    """The same calls as round_trip, each in its own span under one
    "roundtrip" span. words.check runs beside them, outside that span, on
    the inputs that encode, correct and extract receive."""
    p, fam, call = codec.params, codec.family, tracer.call
    call(wid, "words.check", -1, vt.words.check_bits, message)
    root = tracer.open(wid, "roundtrip")
    received = fixed = None
    try:
        word = call(wid, f"{fam}.encode", root, codec.encode, message, p)
        received = call(wid, "channel.apply_channel", root, vt.apply_channel, word, event)
        fixed = call(wid, f"{fam}.correct.{kind}", root, codec.correct, received, p)
        out = call(wid, f"{fam}.extract", root, codec.extract, fixed, p)
    except vt.VtCodeError:
        out = None
    finally:
        tracer.close(root)
    for value in (received, fixed):
        if value is not None:
            call(wid, "words.check", -1, codec.check, value)
    return out


def run_codec(setups: Setups, seconds: float, trace: bool) -> dict:
    """Run rounds of the workload's fixed list until the time is up.

    A round is every codec's round trips followed by its run_trials batches.
    list_cal and batch_items_per_cal are composed from per-(shape, kind)
    medians, so one slow sample in a cell that has a single sample per round
    does not move them. A traced run replays each round's round trips
    traced right after the round, so the two passes see the same machine.
    """
    _, kinds = CODEC_WORKLOADS[setups.workload]
    rng = random.Random(f"inputs-{setups.seed}")
    clock = Clock()
    # (shape, kind) -> (seconds, cal) per sample; arrays keep peak_rss_mb
    # from growing with the number of samples, which depends on speed.
    cells: dict[tuple[str, str], tuple[array, array]] = {}
    batches_by_cell: dict[tuple[str, str], tuple[array, array]] = {}
    attempted = failed = rounds = 0
    tracer = Tracer() if trace else None
    word_shapes: dict[int, str] = {}
    untraced = mismatched = 0
    for _ in range(INITIAL_SETUPS):
        vt, codecs = setups.run()
    start = perf_counter()
    next_setup = start + seconds / PERIODIC_SETUPS
    while True:
        words, batches = make_round(vt, codecs, kinds, rng)
        outcomes = []
        for codec, kind, message, event in words:
            out, dt, cal = clock.time(round_trip, vt, codec, message, event)
            cell = cells.setdefault((codec.label, kind), (array("d"), array("d")))
            cell[0].append(dt)
            cell[1].append(cal)
            failed += out != message
            outcomes.append(out)
            untraced += dt
        for codec, kind, count, batch_seed in batches:
            report, dt, cal = clock.time(vt.run_trials, codec.params, kind, count, batch_seed)
            cell = batches_by_cell.setdefault((codec.label, kind), (array("d"), array("d")))
            cell[0].append(dt)
            cell[1].append(cal)
            attempted += count
            failed += count - report.successes
        attempted += len(words)
        if tracer is not None:
            for (codec, kind, message, event), out in zip(words, outcomes):
                wid = len(word_shapes)
                word_shapes[wid] = codec.label
                mismatched += traced_round_trip(vt, tracer, wid, codec, kind, message, event) != out
            attempted += len(words)
        rounds += 1
        if rounds == 1:
            peak_mb = peak_rss_mb()
        now = perf_counter()
        if now >= start + seconds:
            break
        if now >= next_setup:
            vt, codecs = setups.run()
            next_setup += seconds / PERIODIC_SETUPS

    per_round = {codec.label: codec.per_kind for codec in codecs}
    items_per_round = sum(per_round.values()) * len(kinds)

    def composed(by_cell, column, weight):
        return sum(weight(label) * statistics.median(values[column]) for (label, _), values in by_cell.items())

    seconds_all = [dt for values in cells.values() for dt in values[0]]
    metrics, raw = latency_metrics(seconds_all, [cal for values in cells.values() for cal in values[1]])
    metrics["list_cal"] = composed(cells, 1, per_round.get)
    metrics["batch_items_per_cal"] = items_per_round / composed(batches_by_cell, 1, lambda _: 1)
    raw["raw.list_s"] = composed(cells, 0, per_round.get)
    raw["raw.batch_items_per_s"] = items_per_round / composed(batches_by_cell, 0, lambda _: 1)
    raw["calibration.us"] = statistics.median(clock.readings) * 1e6
    result = {
        "attempted": attempted,
        "failed": failed + mismatched,
        "header": f"{rounds} rounds, {len(seconds_all)} round trips, {rounds * items_per_round} run_trials trials",
        "metrics": dict(metrics, peak_rss_mb=peak_mb),
        "raw": raw,
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans, word_shapes)
        traced = sum(s[4] - s[3] for s in tracer.spans if s[1] == "roundtrip")
        layers["trace.overhead_pct"] = 100 * (traced / untraced - 1)
        per_trial = items_per_round / raw["raw.batch_items_per_s"] - raw["raw.list_s"]
        layers["channel.run_trials.overhead_us"] = per_trial / items_per_round * 1e6
        result.update(layers=layers, tracer=tracer, mismatched=mismatched)
    return result


# --------------------------------------------------------------------------
# Census workload


def check_qary_grid(n: int, q: int, grid, reference, lower: int) -> list[str]:
    """Problems with one q-ary census grid; empty when it is right."""
    problems = []
    rows = [list(row) for row in grid]
    if sum(map(sum, rows)) != q**n:
        problems.append(f"qary_census({n}, {q}) sums to {sum(map(sum, rows))}, not {q}**{n}")
    wrong = sum(x != y for row, ref in zip(rows, reference) for x, y in zip(row, ref))
    if len(rows) != len(reference) or wrong:
        problems.append(f"qary_census({n}, {q}) differs from the reference in {wrong} cells")
    if min(map(min, rows)) < lower:
        problems.append(f"qary_census({n}, {q}) has a count below qary_size_lower_bound = {lower}")
    return problems


def check_binary_counts(n: int, counts, reference, within_bounds) -> list[str]:
    """Problems with one binary census; empty when it is right."""
    problems = []
    counts = list(counts)
    if sum(counts) != 1 << n:
        problems.append(f"binary_census({n}) sums to {sum(counts)}, not 2**{n}")
    if counts != reference:
        problems.append(f"binary_census({n}) differs from the reference")
    if not all(within_bounds(n, c) for c in counts):
        problems.append(f"binary_census({n}) has a count outside binary_size_bounds")
    return problems


def check_listing(n: int, a: int, words, expected: int) -> list[str]:
    """Problems with one binary_codewords listing; empty when it is right:
    expected length, every word has checksum a, integer order, no repeats."""
    import numpy as np  # imported here so that setup.cold_s includes numpy's import

    if len(words) != expected:
        return [f"binary_codewords({n}, {a}) listed {len(words)} words, not {expected}"]
    arr = np.array(words, dtype=np.int64).reshape(len(words), n)
    if np.any((arr @ np.arange(1, n + 1)) % (n + 1) != a):
        return [f"binary_codewords({n}, {a}) listed a word with another checksum"]
    if np.any(np.diff(arr @ (1 << np.arange(n))) <= 0):
        return [f"binary_codewords({n}, {a}) is not in strictly increasing integer order"]
    return []


def run_census(setups: Setups, reference: dict, seconds: float, trace: bool) -> dict:
    """Run rounds of the census list and LISTINGS_PER_RESIDUE listings of
    each residue until the time is up.

    Census results are cached per process, so a repeat would time a dict
    lookup: every round after the first sets vtcodes up afresh, which also
    gives a set-up sample, so that each round computes every shape.
    binary_codewords is not cached. A traced run lists each residue twice
    in a row, untraced and then traced, and compares the two listings.
    """
    clock = Clock()
    tracer = Tracer() if trace else None
    expected = reference["binary"][str(LISTING_N)]

    def call(name, fn, *args, **kwargs):
        if tracer is None:
            return clock.time(fn, *args, **kwargs)
        return clock.time(tracer.call, -1, name, -1, fn, *args, **kwargs)

    passes: list[tuple[float, float]] = []
    listings: list[tuple[float, float]] = []
    rates: list[tuple[float, float]] = []
    problems: list[str] = []
    attempted = failed = untraced = mismatched = 0
    for _ in range(INITIAL_SETUPS):
        vt, state = setups.run()
    residues = state["residues"]
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        if passes:
            vt, state = setups.run()
        qary, binary = [], []
        pass_s = pass_cal = 0.0
        for n, q in CENSUS_QARY:
            grid, dt, cal = call(f"analysis.qary_census.n{n}_q{q}", vt.qary_census, n, q)
            qary.append(grid)
            pass_s, pass_cal = pass_s + dt, pass_cal + cal
        for n in CENSUS_BINARY:
            counts, dt, cal = call(f"analysis.binary_census.n{n}", vt.binary_census, n, limit=n)
            binary.append(counts)
            pass_s, pass_cal = pass_s + dt, pass_cal + cal
        passes.append((pass_s, pass_cal))
        checks = [
            check_qary_grid(n, q, grid, reference["qary"][f"{n},{q}"], state["lower"][(n, q)])
            for (n, q), grid in zip(CENSUS_QARY, qary)
        ] + [
            check_binary_counts(n, counts, reference["binary"][str(n)], vt.binary_size_within_bounds)
            for n, counts in zip(CENSUS_BINARY, binary)
        ]

        for a in residues * LISTINGS_PER_RESIDUE:
            words, dt, cal = clock.time(vt.binary_codewords, LISTING_N, a)
            listings.append((dt, cal))
            rates.append((len(words) / dt, len(words) / cal))
            checks.append(check_listing(LISTING_N, a, words, expected[a]))
            if tracer is not None:
                untraced += dt
                replay = tracer.call(-1, "analysis.binary_codewords", -1, vt.binary_codewords, LISTING_N, a)
                mismatched += replay != words
                attempted += 1
        attempted += len(checks)
        failed += sum(map(bool, checks))
        problems += [problem for found in checks for problem in found]
        if len(passes) == 1:
            peak_mb = peak_rss_mb()

    metrics, raw = latency_metrics([dt for dt, _ in listings], [cal for _, cal in listings])
    metrics["list_cal"] = statistics.median(cal for _, cal in passes)
    metrics["batch_items_per_cal"] = statistics.median(cal for _, cal in rates)
    raw["raw.list_s"] = statistics.median(dt for dt, _ in passes)
    raw["raw.batch_items_per_s"] = statistics.median(dt for dt, _ in rates)
    raw["calibration.us"] = statistics.median(clock.readings) * 1e6
    result = {
        "attempted": attempted,
        "failed": failed + mismatched,
        "problems": problems,
        "header": f"{len(passes)} census rounds, {len(listings)} binary_codewords listings",
        "metrics": dict(metrics, peak_rss_mb=peak_mb),
        "raw": raw,
    }
    if tracer is not None:
        durations: dict[str, list[float]] = {}
        for span in tracer.spans:
            durations.setdefault(span[1], []).append(span[4] - span[3])
        traced = durations.pop("analysis.binary_codewords")
        layers = {f"{name}.s": statistics.median(v) for name, v in durations.items()}
        layers["analysis.binary_codewords.s"] = statistics.median(traced)
        layers["analysis.binary_codewords.words"] = statistics.median(expected[a] for a in residues)
        layers["analysis.calls"] = len(tracer.spans)
        layers["trace.overhead_pct"] = 100 * (sum(traced) / untraced - 1)
        result.update(layers=layers, tracer=tracer, mismatched=mismatched)
    return result


# --------------------------------------------------------------------------
# Entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vtcodes" / "__init__.py").is_file():
        print(f"error: no vtcodes sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE.read_text())
    origin = importlib.util.find_spec("vtcodes").origin
    if Path(origin).resolve().parent != SRC / "vtcodes":
        print(f"error: vtcodes would be imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2

    setups = Setups(args.workload, args.seed)
    if args.workload in CODEC_WORKLOADS:
        result = run_codec(setups, args.seconds, bool(args.trace))
    else:
        result = run_census(setups, reference, args.seconds, bool(args.trace))
        for problem in result["problems"]:
            print(f"check failed: {problem}")

    print(f"# vtbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: {result['header']}")
    attempted, failed = result["attempted"], result["failed"]
    setup = setups.metrics()
    if args.trace:
        layers = dict.fromkeys(PER_LAYER, 0)
        unknown = set(result["layers"]) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from PER_LAYER: {sorted(unknown)}")
        layers.update(result["layers"], **result["raw"])
        layers.update((k, v) for k, v in setup.items() if k in PER_LAYER)
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, value in layers.items()}
        path = OUT_DIR / f"spans-{args.workload}.jsonl.gz"
        result["tracer"].write(path)
        print(f"# traced replay mismatches: {result['mismatched']}; spans written to {path.relative_to(ROOT)}")
    else:
        values = dict(result["metrics"], setup_s=setup["setup_s"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        for name, value in result["raw"].items():
            print(f"{name:<48} {value:>16.6f} {RAW[name]}")
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>16.6f} {m['unit']}")
    print(f"{'fail_ratio':<48} {failed / attempted:>16.6f} ratio ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
