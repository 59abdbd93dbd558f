"""Channel event semantics and seeded end-to-end trial runs."""

import random

import pytest

from vtcodes import binary, channel, qary, words
from vtcodes.binary import BinaryVtParams
from vtcodes.channel import (
    CHANNEL_KINDS,
    EVENT_KINDS,
    ChannelEvent,
    TrialFailure,
    TrialReport,
    apply_channel,
    run_trials,
)
from vtcodes.errors import ParameterError, VtCodeError
from vtcodes.qary import QaryVtParams

REF_WORD = (7, 2, 0, 7, 7, 3, 6, 3, 2, 5, 1, 0, 7, 2, 5, 0)


# ------------------------------------------------------------------ events


def test_event_kind_constants():
    assert EVENT_KINDS == ("deletion", "insertion", "identity")
    assert CHANNEL_KINDS == ("deletion", "insertion", "mixed", "identity")


def test_event_validation():
    ChannelEvent("deletion", position=0)
    ChannelEvent("insertion", position=3, symbol=5)
    ChannelEvent("identity")
    with pytest.raises(ParameterError):
        ChannelEvent("swap", position=0)
    with pytest.raises(ParameterError):
        ChannelEvent("identity", position=0)
    with pytest.raises(ParameterError):
        ChannelEvent("identity", symbol=1)
    with pytest.raises(ParameterError):
        ChannelEvent("deletion")
    with pytest.raises(ParameterError):
        ChannelEvent("deletion", position=-1)
    with pytest.raises(ParameterError):
        ChannelEvent("deletion", position=True)
    with pytest.raises(ParameterError):
        ChannelEvent("deletion", position=0, symbol=1)
    with pytest.raises(ParameterError):
        ChannelEvent("insertion", position=0)
    with pytest.raises(ParameterError):
        ChannelEvent("insertion", position=0, symbol=-1)


def test_event_to_dict():
    assert ChannelEvent("insertion", position=2, symbol=7).to_dict() == {
        "kind": "insertion",
        "position": 2,
        "symbol": 7,
    }
    assert ChannelEvent("identity").to_dict() == {
        "kind": "identity",
        "position": None,
        "symbol": None,
    }


def test_apply_channel_deletion():
    assert apply_channel((0, 1, 0), ChannelEvent("deletion", position=0)) == (1, 0)
    assert apply_channel((0, 1, 0), ChannelEvent("deletion", position=2)) == (0, 1)
    with pytest.raises(ParameterError):
        apply_channel((0, 1, 0), ChannelEvent("deletion", position=3))


def test_apply_channel_insertion():
    out = apply_channel(REF_WORD, ChannelEvent("insertion", position=16, symbol=7))
    assert len(out) == 17
    assert out[:16] == REF_WORD and out[16] == 7
    assert apply_channel((), ChannelEvent("insertion", position=0, symbol=4)) == (4,)
    with pytest.raises(ParameterError):
        apply_channel((0, 1), ChannelEvent("insertion", position=3, symbol=0))


def test_apply_channel_identity():
    assert apply_channel(REF_WORD, ChannelEvent("identity")) == REF_WORD


@pytest.mark.parametrize("event", [("deletion", 0), None, "identity"])
def test_apply_channel_refuses_a_non_event(event):
    with pytest.raises(ParameterError):
        apply_channel((0, 1, 0), event)


# ------------------------------------------------------------------ trials


def test_run_trials_binary_all_channels_succeed():
    p = BinaryVtParams(n=10, a=3)
    for kind in CHANNEL_KINDS:
        report = run_trials(p, kind, trials=50, seed=7)
        assert report.trials == 50
        assert report.successes == 50
        assert report.failure_cases == ()
        assert report.rate == 1.0
        assert report.channel == kind


def test_run_trials_qary_succeeds():
    p = QaryVtParams(n=8, q=4, a=2, b=3)
    report = run_trials(p, "mixed", trials=200, seed=11)
    assert report.successes == 200
    assert report.wall_time > 0


def test_run_trials_binary_at_volume():
    report = run_trials(BinaryVtParams(n=7, a=0), "mixed", trials=10_000, seed=0)
    assert report.successes == 10_000


def test_run_trials_is_reproducible():
    p = QaryVtParams(n=16, q=8, a=0, b=1)
    r1 = run_trials(p, "mixed", trials=64, seed=5)
    r2 = run_trials(p, "mixed", trials=64, seed=5)
    # wall_time is excluded from equality
    assert r1 == r2
    assert r1.to_dict()["trials"] == 64
    r3 = run_trials(p, "mixed", trials=64, seed=6)
    assert r3.successes == 64


def test_trial_draws_depend_only_on_seed_and_index(monkeypatch):
    # every trial fails, so failure_cases records each trial's draws
    monkeypatch.setattr(QaryVtParams, "_read", lambda self, word: ())
    p = QaryVtParams(n=16, q=8, a=0, b=1)
    for seed in (0, 3):
        short = run_trials(p, "mixed", 8, seed).failure_cases
        assert short == run_trials(p, "mixed", 16, seed).failure_cases[:8]
    # a seeding of seed + i would give both of these the same draws
    first = run_trials(p, "mixed", 2, 0).failure_cases[1]
    other = run_trials(p, "mixed", 1, 1).failure_cases[0]
    assert (first.message, first.event) != (other.message, other.event)


TRIAL_CODES = [
    BinaryVtParams(16, 5),
    BinaryVtParams(2, 0),  # k = 0: the message is empty
    BinaryVtParams(1, 1),
    QaryVtParams(16, 4, 0, 1),
    QaryVtParams(12, 3, 2, 1),
    QaryVtParams(6, 3, 1, 2),  # q-ary k = 0
]


def test_run_trials_builds_one_generator_per_call(monkeypatch):
    built = []

    class Counting(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(channel.random, "Random", Counting)
    for p in TRIAL_CODES:
        for kind in CHANNEL_KINDS:
            built.clear()
            assert run_trials(p, kind, trials=50, seed=9).successes == 50
            assert built == [(9,)]


@pytest.mark.parametrize("p", TRIAL_CODES)
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
def test_trial_draws_are_a_prefix_and_follow_the_seed(monkeypatch, p, kind):
    # every trial fails, so failure_cases records each trial's draws
    monkeypatch.setattr(type(p), "_read", lambda self, word: (2,))
    for seed in (0, 1, 3):
        short = run_trials(p, kind, 8, seed).failure_cases
        assert short == run_trials(p, kind, 16, seed).failure_cases[:8]
    if p.k:
        assert run_trials(p, kind, 16, 0).failure_cases != run_trials(p, kind, 16, 1).failure_cases


def test_trial_loop_revalidates_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("the trial loop validated a word again")

    for module in (binary, qary, channel, words):
        for name in ("check_bits", "check_word", "check_symbols"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for p in TRIAL_CODES:
        for kind in CHANNEL_KINDS:
            assert run_trials(p, kind, trials=40, seed=9).successes == 40


def public_trials(params, channel_kind, trials, seed):
    """run_trials rebuilt from the public, validating calls."""
    n, q, k = params.n, params.q, params.k
    successes, failures = 0, []
    rng = random.Random(seed)
    for i in range(trials):
        message = tuple(map(int, format(rng.getrandbits(k), f"0{k}b"))) if k else ()
        kind = channel_kind
        if kind == "mixed":
            kind = "insertion" if rng.getrandbits(1) else "deletion"
        if kind == "deletion":
            event = ChannelEvent("deletion", position=rng.randrange(n))
        elif kind == "insertion":
            event = ChannelEvent("insertion", position=rng.randrange(n + 1), symbol=rng.randrange(q))
        else:
            event = ChannelEvent("identity")
        try:
            decoded = params.extract(params.correct(apply_channel(params.encode(message), event)))
        except VtCodeError as exc:
            failures.append(TrialFailure(i, message, event, f"{type(exc).__name__}: {exc}"))
            continue
        if decoded == message:
            successes += 1
        else:
            failures.append(TrialFailure(i, message, event, "extracted message differs"))
    return TrialReport(params, channel_kind, seed, trials, successes, tuple(failures), 0.0)


@pytest.mark.parametrize("p", TRIAL_CODES)
@pytest.mark.parametrize("kind", CHANNEL_KINDS)
@pytest.mark.parametrize("failing", [False, True])
def test_trial_loop_matches_the_public_calls(monkeypatch, p, kind, failing):
    if failing:  # every trial then fails, so the reports hold every draw
        # extract and the trial loop both read the message through _read
        monkeypatch.setattr(type(p), "_read", lambda self, word: (2,))
    for seed in (0, 3, 4242):
        assert run_trials(p, kind, 60, seed) == public_trials(p, kind, 60, seed)


@pytest.mark.parametrize("p", [BinaryVtParams(16, 5), QaryVtParams(16, 4, 0, 1)])
def test_run_trials_records_a_codec_error_as_a_failure(monkeypatch, p):
    # a decoder that finds no undoing edit makes _correct raise NoCandidateError
    monkeypatch.setattr(type(p), "_restore", lambda self, word: None)
    for kind in ("deletion", "insertion", "mixed"):
        report = run_trials(p, kind, 30, seed=2)
        assert report.successes == 0 and len(report.failure_cases) == 30
        assert [f.trial for f in report.failure_cases] == list(range(30))
        for failure in report.failure_cases:
            assert failure.reason.startswith("NoCandidateError: no codeword within one edit")
        reasons = [f["reason"] for f in report.to_dict()["failures"]]
        assert reasons == [f.reason for f in report.failure_cases]
    identity = run_trials(p, "identity", 30, seed=2)  # a member of length n needs no decoder
    assert identity.successes == 30 and identity.failure_cases == ()


def test_run_trials_argument_validation():
    p = BinaryVtParams(n=7, a=0)
    with pytest.raises(ParameterError):
        run_trials(p, "noise", trials=10, seed=0)
    with pytest.raises(ParameterError):
        run_trials(p, "mixed", trials=0, seed=0)
    with pytest.raises(ParameterError):
        run_trials(p, "mixed", trials=10, seed=-1)
    with pytest.raises(ParameterError):
        run_trials("binary", "mixed", trials=10, seed=0)


def test_report_to_dict_shape():
    p = QaryVtParams(n=8, q=4, a=0, b=0)
    d = run_trials(p, "deletion", trials=5, seed=1).to_dict()
    assert set(d) == {
        "trials",
        "successes",
        "rate",
        "params",
        "channel",
        "seed",
        "wall_time_s",
        "failures",
    }
    assert d["params"] == {"q": 4, "n": 8, "a": 0, "b": 0}
    assert d["failures"] == []
    b = run_trials(BinaryVtParams(n=7, a=2), "identity", trials=3, seed=0).to_dict()
    assert b["params"] == {"q": 2, "n": 7, "a": 2}


def test_trial_failure_to_dict():
    f = TrialFailure(
        trial=4,
        message=(1, 0, 1),
        event=ChannelEvent("deletion", position=2),
        reason="extracted message differs",
    )
    assert f.to_dict() == {
        "trial": 4,
        "message": "101",
        "event": {"kind": "deletion", "position": 2, "symbol": None},
        "reason": "extracted message differs",
    }
