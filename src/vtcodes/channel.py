"""Single-edit channel events and seeded end-to-end correction trials.

Each trial runs encode -> corrupt -> correct -> extract and succeeds when the
extracted bits equal the original message. A run seeds one stdlib
random.Random(seed) and its trials draw from it in trial order, so equal
arguments give equal runs and a run of m trials is the first m trials of any
longer run with the same seed. Trial i's draws depend on the draws of trials
0..i-1, so one trial cannot be replayed on its own.

The trial loop validates no word: its messages are drawn as bits and every
later word is the library's own output, so it calls the unchecked cores of
the shared codec flow (words.CodeParams: _encode, _correct and _read)
and words._apply, the edit primitive apply_channel and the decoders share,
which the public calls reach after their one validation.
_correct returns only members of the code: the binary decoder's rule always
lands in it, and the q-ary one checks its rebuilt word's auxiliary checksum
from the received word's, with no second kernel pass, so the message is read
straight from its output, without extract's membership pass. Messages are
drawn, compared and decoded as bytes, and every word stays in the cores'
word type (see words._word) from encoding to extraction. Each trial's event
is drawn as plain fields; a ChannelEvent, which checks its fields, and a
tuple of the message are built only for a trial that fails.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from .errors import ParameterError, UnsupportedParametersError, VtCodeError
from .words import (
    CodeParams,
    Word,
    _apply,
    _returned,
    _text_bits,
    check_int,
    check_params,
    check_word,
    format_bitstring,
)

EVENT_KINDS = ("deletion", "insertion", "identity")
CHANNEL_KINDS = ("deletion", "insertion", "mixed", "identity")


@dataclass(frozen=True)
class ChannelEvent:
    """One channel action: delete the symbol at `position`, insert `symbol`
    before `position`, or pass the word through (identity, no fields)."""

    kind: str
    position: int | None = None
    symbol: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ParameterError(f"kind must be one of {EVENT_KINDS}, got {self.kind!r}")
        if self.kind == "identity":
            if self.position is not None or self.symbol is not None:
                raise ParameterError("identity events carry no position or symbol")
            return
        object.__setattr__(self, "position", check_int(self.position, "position", 0))
        if self.kind == "deletion":
            if self.symbol is not None:
                raise ParameterError("deletion events carry no symbol")
        else:
            object.__setattr__(self, "symbol", check_int(self.symbol, "insertion symbol", 0))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "position": self.position, "symbol": self.symbol}


def apply_channel(word, event: ChannelEvent) -> Word:
    """Apply one event to a word. Deletion positions must lie in 0..len-1,
    insertion positions in 0..len; the caller guarantees the inserted symbol
    fits the word's alphabet. An event that is not a ChannelEvent is refused."""
    event = check_params(event, ChannelEvent)
    return _returned(_apply(check_word(word), event.kind, event.position, event.symbol))


@dataclass(frozen=True)
class TrialFailure:
    """One failed trial: which trial, the message it sent, the channel event
    it suffered, and what went wrong."""

    trial: int
    message: Word
    event: ChannelEvent
    reason: str

    def to_dict(self) -> dict:
        return {
            "trial": self.trial,
            "message": format_bitstring(self.message),
            "event": self.event.to_dict(),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class TrialReport:
    """Aggregate of one run_trials call. wall_time is informational and
    excluded from equality, so identical (params, channel, trials, seed)
    runs compare equal."""

    params: CodeParams
    channel: str
    seed: int
    trials: int
    successes: int
    failure_cases: tuple[TrialFailure, ...]
    wall_time: float = field(compare=False)

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "successes": self.successes,
            "rate": self.rate,
            "params": self.params.to_dict(),
            "channel": self.channel,
            "seed": self.seed,
            "wall_time_s": self.wall_time,
            "failures": [f.to_dict() for f in self.failure_cases],
        }


def run_trials(params: CodeParams, channel_kind: str, trials: int, seed: int) -> TrialReport:
    """Run seeded end-to-end trials and report successes and failures.

    Per trial: draw a uniform message, encode, draw a uniform event of the
    requested kind (mixed flips a fair coin between deletion and insertion),
    corrupt, correct, extract. Codec errors are recorded as failures rather
    than raised. One random.Random(seed) is seeded per call and every trial
    draws from it in trial order: deterministic for fixed (params,
    channel_kind, trials, seed), and the first m trials of a run are the run
    of m trials with that seed; trial i's draws depend on trials 0..i-1.
    """
    if channel_kind not in CHANNEL_KINDS:
        raise ParameterError(f"channel must be one of {CHANNEL_KINDS}, got {channel_kind!r}")
    trials = check_int(trials, "trials", 1)
    seed = check_int(seed, "seed", 0)
    if not isinstance(params, CodeParams):
        raise ParameterError(f"unsupported params object: {params!r}")
    # A shape the encoder refuses would fail every trial the same way.
    if params._unsupported:
        raise UnsupportedParametersError(f"{params._unsupported} to simulate")
    encode, correct, read = params._encode, params._correct, params._read
    n, q, k = params.n, params.q, params.k
    start = time.perf_counter()
    successes = 0
    failures: list[TrialFailure] = []
    rng = random.Random(seed)
    for i in range(trials):
        message = _text_bits(format(rng.getrandbits(k), f"0{k}b").encode()) if k else b""
        kind, position, symbol = channel_kind, None, None
        if kind == "mixed":
            kind = "insertion" if rng.getrandbits(1) else "deletion"
        if kind == "deletion":
            position = rng.randrange(n)
        elif kind == "insertion":
            position, symbol = rng.randrange(n + 1), rng.randrange(q)
        try:
            decoded = read(correct(_apply(encode(message), kind, position, symbol)))
        except VtCodeError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        else:
            if decoded == message:
                successes += 1
                continue
            reason = "extracted message differs"
        event = ChannelEvent(kind, position, symbol)
        failures.append(TrialFailure(i, tuple(message), event, reason))
    wall = time.perf_counter() - start
    return TrialReport(
        params=params,
        channel=channel_kind,
        seed=seed,
        trials=trials,
        successes=successes,
        failure_cases=tuple(failures),
        wall_time=wall,
    )
