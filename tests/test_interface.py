"""Both params classes offer the same code interface, and each method is
the module function of its family. A chained round trip pays the word
check's type pass once, for the message: only the very tuple a public codec
call returned last skips it, and never its range pass."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtcodes import binary, qary, words
from vtcodes.binary import BinaryVtParams
from vtcodes.channel import ChannelEvent, apply_channel, run_trials
from vtcodes.errors import NoCandidateError, NotACodewordError, ParameterError, VtCodeError
from vtcodes.qary import QaryVtParams
from vtcodes.words import (
    check_bits,
    check_symbols,
    check_word,
    format_bitstring,
    format_symbols,
    parse_bitstring,
    parse_symbols,
)

CASES = [
    (BinaryVtParams(10, 3), binary, 2, [("q", 2), ("n", 10), ("a", 3)]),
    (QaryVtParams(8, 4, 2, 3), qary, 4, [("q", 4), ("n", 8), ("a", 2), ("b", 3)]),
]


def raised(call, *args):
    """The type of the package error call(*args) raises, or None."""
    try:
        call(*args)
    except VtCodeError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("p, module, q, params_items", CASES)
def test_params_methods_match_module_functions(p, module, q, params_items):
    message = tuple(i % 2 for i in range(p.k))
    word = p.encode(message)
    assert word == module.encode(message, p)
    assert p.extract(word) == module.extract(word, p) == message
    assert p.is_member(word) is module.is_member(word, p) is True
    for received in (word, word[1:], word[:3] + (q - 1,) + word[3:]):
        assert p.correct(received) == module.correct(received, p) == word
    assert p.q == q
    assert list(p.to_dict().items()) == params_items
    with pytest.raises(ParameterError):
        p.is_member(word[:-1])
    # both families go through the same error branches, method and function alike
    non_member = word[:-1] + ((word[-1] + 1) % q,)
    for name, received, error in [
        ("is_member", word[:-1], ParameterError),
        ("extract", word[:-1], ParameterError),
        ("extract", non_member, NotACodewordError),
        ("correct", non_member, NotACodewordError),
        ("correct", word[2:], ParameterError),
        ("correct", word + (0, 0), ParameterError),
        ("correct", (0,) * (p.n + 1), NoCandidateError),
    ]:
        method, function = getattr(p, name), getattr(module, name)
        assert raised(method, received) is raised(function, received, p) is error, name


@pytest.mark.parametrize("name", ["encode", "extract", "correct", "is_member"])
@pytest.mark.parametrize(
    "module, other, family",
    [(binary, QaryVtParams(8, 4, 0, 0), "BinaryVtParams"), (qary, BinaryVtParams(10, 3), "QaryVtParams")],
    ids=["binary", "qary"],
)
def test_module_functions_refuse_the_other_familys_params(module, other, family, name):
    message = tuple(i % 2 for i in range(other.k))
    arg = message if name == "encode" else other.encode(message)
    function = getattr(module, name)
    for given in (arg, "2"):  # the family is checked before the word
        with pytest.raises(ParameterError, match=f"expected {family}, got {type(other).__name__}"):
            function(given, other)


def plain(word):
    """True for a tuple of plain ints, the type every public call returns."""
    return type(word) is tuple and set(map(type, word)) <= {int}


@pytest.mark.parametrize("q", [2, 4, 128, 256, 257])
def test_public_calls_return_tuples_of_plain_ints(monkeypatch, q):
    # the codec cores hold words as bytes up to q = 256 and as tuples past it
    p = BinaryVtParams(20, 5) if q == 2 else QaryVtParams(20, q, 5, q // 2)
    module = binary if q == 2 else qary
    message = tuple(i % 2 for i in range(p.k))
    word = p.encode(message)
    inserted = word[:4] + (q - 1,) + word[4:]
    calls = [
        (p.encode, message), (module.encode, message, p),
        (p.extract, word), (module.extract, word, p),
        (p.correct, word), (p.correct, word[1:]), (p.correct, inserted),
        (module.correct, word[1:], p),
        (apply_channel, word, ChannelEvent("identity")),
        (apply_channel, word, ChannelEvent("deletion", 3)),
        (apply_channel, word, ChannelEvent("insertion", 3, q - 1)),
        (check_word, word, q), (check_symbols, word), (check_bits, message),
        (parse_bitstring, format_bitstring(message)), (parse_symbols, format_symbols(word)),
    ]
    if q <= 256:  # words given as bytes come back as tuples too
        calls += [
            (p.encode, bytes(message)), (p.extract, bytes(word)), (p.correct, bytearray(inserted)),
            (apply_channel, bytes(word), ChannelEvent("deletion", 3)),
            (check_word, bytes(word), q), (check_bits, bytearray(message)),
        ]
    for call, *args in calls:
        out = call(*args)
        assert plain(out) and len(out) in (p.k, p.n, p.n - 1, p.n + 1), (call, args, out)
    monkeypatch.setattr(type(p), "_read", lambda self, w: b"")  # every trial then fails
    failures = run_trials(p, "mixed", 6, 1).failure_cases
    assert len(failures) == 6
    assert all(plain(f.message) and len(f.message) == p.k for f in failures)


@settings(max_examples=60, deadline=None, database=None)
@given(
    st.integers(250, 262),
    st.integers(6, 80).filter(lambda n: (n - 1) & (n - 2)),
    st.integers(0, 2**32 - 1).map(random.Random),
)
def test_round_trips_across_the_byte_boundary(q, n, rng):
    # q = 256 is the last alphabet whose words the cores hold as bytes
    p = QaryVtParams(n, q, rng.randrange(n), rng.randrange(q))
    message = tuple(rng.getrandbits(1) for _ in range(p.k))
    word = p.encode(message)
    assert plain(word) and p.is_member(word)
    i, j, s = rng.randrange(n), rng.randrange(n + 1), rng.randrange(q)
    for received in (word, word[:i] + word[i + 1 :], word[:j] + (s,) + word[j:]):
        fixed = p.correct(received)
        assert plain(fixed) and fixed == word
        assert p.extract(fixed) == message
    assert run_trials(p, "mixed", 4, rng.randrange(100)).successes == 4


def chain_codes(q):
    return BinaryVtParams(20, 5) if q == 2 else QaryVtParams(20, q, 5, q // 2)


@pytest.mark.parametrize("q", [2, 4, 257])
def test_a_chained_round_trip_runs_one_type_pass(monkeypatch, q):
    # the type pass is set(map(type, word)); each returned word skips it in the next call
    passes = []

    def counted_set(*args):
        passes.append(args)
        return set(*args)

    p = chain_codes(q)
    message = tuple(i % 2 for i in range(p.k))
    monkeypatch.setattr(words, "set", counted_set, raising=False)
    for event in (ChannelEvent("deletion", 3), ChannelEvent("insertion", 3, q - 1), ChannelEvent("identity")):
        passes.clear()
        word = p.encode(message)
        fixed = p.correct(apply_channel(word, event))
        assert fixed == word and p.extract(fixed) == message
        assert len(passes) == 1, (event, len(passes))


def outcome(call, *args):
    """What call(*args) returns, or the type and message of the package error it raises."""
    try:
        return "returns", call(*args)
    except VtCodeError as exc:
        return type(exc), str(exc)


def outcomes(monkeypatch, last, calls, given):
    """Each call's outcome on given, with last as the last returned word."""
    found = []
    for call, *rest in calls:
        monkeypatch.setattr(words, "_last", last)
        found.append(outcome(call, given, *rest))
    return found


@pytest.mark.parametrize("q", [2, 4, 257])
def test_only_the_returned_tuple_itself_skips_the_type_pass(monkeypatch, q):
    p = chain_codes(q)
    word = p.encode(tuple(i % 2 for i in range(p.k)))
    assert words._last is word and 1 in word
    calls = [
        (p.correct,), (p.extract,), (p.is_member,), (check_word, q), (check_symbols,),
        (apply_channel, ChannelEvent("identity")), (format_symbols,),
    ]
    copies = {
        "bool": tuple(True if s == 1 else s for s in word),
        "float": tuple(1.0 if s == 1 else s for s in word),
        "numpy": tuple(np.int64(1) if s == 1 else s for s in word),
        "list": list(word),
        "tuple": tuple(list(word)),
    }
    for name, copy in copies.items():
        assert tuple(copy) == word and copy is not word
        # the copy must be treated as it was before any word was returned
        assert outcomes(monkeypatch, word, calls, copy) == outcomes(monkeypatch, None, calls, copy), name
    refused = outcomes(monkeypatch, word, calls, copies["bool"])
    assert all(kind is ParameterError for kind, _ in refused)
    assert all(kind is ParameterError for kind, _ in outcomes(monkeypatch, word, calls, copies["float"]))
    accepted = outcomes(monkeypatch, word, calls, copies["numpy"])
    assert all(kind == "returns" for kind, _ in accepted)
    assert accepted[0][1] == word and plain(accepted[0][1])


@pytest.mark.parametrize("shape", [(16, 8), (20, 300)])
def test_the_returned_word_still_takes_the_range_pass(monkeypatch, shape):
    # (20, 300) has symbols past 255, which the range pass checks with min/max
    n, q = shape
    big = QaryVtParams(n, q, 0, 1)
    word = big.encode(tuple(i % 2 for i in range(big.k)))
    assert max(word) >= 4 and (q < 256 or max(word) > 255)
    small = QaryVtParams(n, 4, 0, 1)
    calls = [
        (small.correct,), (small.extract,), (small.is_member,), (check_word, 4), (check_bits,),
        (BinaryVtParams(n, 0).correct,),
    ]
    got = outcomes(monkeypatch, word, calls, word)
    assert got == outcomes(monkeypatch, None, calls, word)
    for kind, text in got:
        assert kind is ParameterError and "out of range for alphabet size" in text


def test_threads_chaining_round_trips_get_the_serial_results():
    codes = [BinaryVtParams(64, 5), QaryVtParams(64, 4, 3, 1), QaryVtParams(40, 8, 7, 2), QaryVtParams(20, 257, 5, 6)]

    def chain(p, seed):
        rng, out = random.Random(seed), []
        for _ in range(200):
            message = tuple(rng.getrandbits(1) for _ in range(p.k))
            kind = rng.choice(("deletion", "insertion", "identity"))
            if kind == "deletion":
                event = ChannelEvent(kind, rng.randrange(p.n))
            elif kind == "insertion":
                event = ChannelEvent(kind, rng.randrange(p.n + 1), rng.randrange(p.q))
            else:
                event = ChannelEvent(kind)
            word = p.encode(message)
            fixed = p.correct(apply_channel(word, event))
            out.append((word, fixed, p.extract(fixed)))
        return out

    serial = [chain(p, seed) for seed, p in enumerate(codes)]
    assert all(fixed == word for run in serial for word, fixed, _ in run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so the calls interleave
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(chain, codes, range(len(codes)), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert all(plain(w) for run in threaded for trip in run for w in trip)
