"""Invariants that hold the same way everywhere: integer arguments and word
symbols accept numpy integers and refuse bools, and the q-ary encoder's
self-checks raise CodecError instead of relying on assert, so they survive
`python -O`."""

import dataclasses
import random

import numpy as np
import pytest

from vtcodes import binary, qary
from vtcodes.analysis import (
    binary_census,
    binary_codewords,
    binary_size_bounds,
    binary_size_within_bounds,
    census_rows,
    enumerate_binary,
    enumerate_q,
    qary_census,
    qary_size_lower_bound,
    rate_bounds,
    single_deletion_size_bound,
)
from vtcodes.binary import BinaryVtParams
from vtcodes.channel import ChannelEvent, TrialReport, apply_channel, run_trials
from vtcodes.errors import CodecError, ParameterError
from vtcodes.qary import (
    PairTable,
    QaryVtParams,
    aux_sequence,
    code_signature,
    message_length,
    pair_table,
)
from vtcodes.words import check_bits, check_symbols, check_word, format_bitstring, format_symbols

from oracle import distinct_insertions

NOT_INTS = [True, False, 3.0, "3", np.float64(3.0), np.True_]


def test_binary_params_accept_numpy_integers():
    p = BinaryVtParams(np.int64(10), np.uint8(3))
    assert p == BinaryVtParams(10, 3)
    assert type(p.n) is int and type(p.a) is int
    assert p.k == 6


@pytest.mark.parametrize("bad", NOT_INTS)
def test_binary_params_reject_non_integers(bad):
    with pytest.raises(ParameterError):
        BinaryVtParams(bad, 1)
    with pytest.raises(ParameterError):
        BinaryVtParams(10, bad)


def test_qary_params_accept_numpy_integers():
    p = QaryVtParams(np.int64(16), np.int32(8), np.int64(0), np.uint16(1))
    assert p == QaryVtParams(16, 8, 0, 1)
    assert all(type(v) is int for v in (p.n, p.q, p.a, p.b))
    assert p.k == 28


@pytest.mark.parametrize("bad", NOT_INTS)
def test_qary_params_reject_non_integers(bad):
    for fields in [(bad, 8, 0, 1), (16, bad, 0, 1), (16, 8, bad, 1), (16, 8, 0, bad)]:
        with pytest.raises(ParameterError):
            QaryVtParams(*fields)


def stand_in_equal_to_its_left(place):
    def mutant(bits, params):
        c = place(bits, params)
        c[8] = c[7]  # the stand-in at 2^3 reads 1 before the deficit is added
        return c

    return mutant


def third_value_off_by_one(triple):
    def mutant(w, q):
        x, y, z = triple(w, q)
        return x, y, (z + 1) % q

    return mutant


def prefix_bits_swapped(arrange):
    return lambda triple, alpha1, alpha2: arrange(triple, alpha2, alpha1)


def q3_prefix_swapped(finish):
    def mutant(c, *args):
        total = finish(c, *args)
        c[1], c[2] = c[2], c[1]
        return total

    return mutant


# Each mutant breaks one fact the encoder's output check covers; every mutant
# runs at every shape, including those whose encoder never reaches its step
# (the triple and its arrangement serve q >= 4, _finish_prefix_q3 q = 3).
ENCODER_MUTANTS = {
    "stand_in": ("_place_message", stand_in_equal_to_its_left),
    "triple": ("_step6_triple", third_value_off_by_one),
    "arrange": ("_arrange_prefix", prefix_bits_swapped),
    "q3_prefix": ("_finish_prefix_q3", q3_prefix_swapped),
}
MUTANT_SHAPES = [(16, 8), (64, 4), (12, 3), (20, 3)]


def test_encoder_output_check_raises_codec_error(monkeypatch):
    for name, (step, mutate) in ENCODER_MUTANTS.items():
        rng = random.Random(name)
        raised = 0
        with monkeypatch.context() as m:
            m.setattr(qary, step, mutate(getattr(qary, step)))
            for n, q in MUTANT_SHAPES:
                for _ in range(200):
                    p = QaryVtParams(n, q, rng.randrange(n), rng.randrange(q))
                    try:
                        word = qary.encode(tuple(rng.randrange(2) for _ in range(p.k)), p)
                    except CodecError:
                        raised += 1
                    else:
                        assert code_signature(word, q) == (p.a, p.b), (name, n, q, word)
        assert raised > 0, name


def test_encoder_output_check_runs_no_membership_pass(monkeypatch):
    def refuse(*args):
        raise AssertionError("the encoder recomputed the residues")

    # (20, 3, 3, 1) with this message takes the lowered q = 3 prefix
    codes = [QaryVtParams(*shape) for shape in ((16, 8, 0, 1), (6, 3, 0, 0), (20, 3, 3, 1), (20, 257, 5, 6))]
    with monkeypatch.context() as m:
        m.setattr(QaryVtParams, "_member", refuse)
        m.setattr(qary, "_signature", refuse)
        encoded = [qary.encode((1,) * p.k, p) for p in codes]
    for p, word in zip(codes, encoded):
        assert code_signature(word, p.q) == (p.a, p.b)


# Calls whose every argument is an int, with valid plain-int arguments.
INT_CALLS = [
    (binary_census, (10,)),
    (binary_size_bounds, (16,)),
    (qary_census, (6, 3)),
    (qary_size_lower_bound, (16, 8)),
    (single_deletion_size_bound, (16, 8)),
    (message_length, (16, 8)),
    (rate_bounds, (16, 8)),
    (pair_table, (3,)),
    (PairTable, (3,)),
    (lambda n: binary_size_within_bounds(n, 5), (10,)),
    (lambda trials, seed: run_trials(QaryVtParams(16, 8, 0, 1), "mixed", trials, seed), (3, 0)),
    (lambda p: ChannelEvent("deletion", position=p), (2,)),
    (lambda s: ChannelEvent("insertion", position=0, symbol=s), (2,)),
    (lambda n: binary.validate_syndrome_positions(n, (1, 2)), (3,)),
    (enumerate_binary, (10, 3)),
    (binary_codewords, (10, 3)),
    (enumerate_q, (8, 4, 1, 2)),
    (lambda a: census_rows(8, 2, a=a), (3,)),
    (lambda a, b: census_rows(8, 4, a=a, b=b), (3, 2)),
    (lambda limit: binary_census(10, limit), (12,)),
    (lambda limit: enumerate_binary(10, 3, limit), (12,)),
    (lambda limit: binary_codewords(10, 3, limit), (12,)),
    (lambda limit: qary_census(6, 3, limit), (3**6,)),
    (lambda limit: enumerate_q(8, 4, 1, 2, limit), (4**8,)),
    (lambda limit: census_rows(8, 2, limit), (12,)),
    (lambda limit: census_rows(6, 3, limit), (3**6,)),
    (pair_table(8).pair, (18,)),
    (pair_table(8).single, (5,)),
    (lambda left, right: pair_table(8).pair_index((left, right)), (3, 5)),
    (pair_table(8).single_index, (7,)),
    (lambda count: binary_size_within_bounds(10, count), (93,)),
]


def plain(value):
    """repr of a call's result; unlike ==, it tells np.int64(3) from 3."""
    if isinstance(value, PairTable):
        value = (value.q, value.pairs, value.singles)
    elif isinstance(value, TrialReport):
        value = dataclasses.replace(value, wall_time=0.0)
    return repr(value)


@pytest.mark.parametrize("call, args", INT_CALLS)
def test_integer_arguments_accept_numpy_integers(call, args):
    expected = plain(call(*args))
    for i in range(len(args)):
        np_args = args[:i] + (np.int64(args[i]),) + args[i + 1 :]
        assert plain(call(*np_args)) == expected


@pytest.mark.parametrize("call, args", INT_CALLS)
@pytest.mark.parametrize("bad", [[3], {}], ids=["list", "dict"])
def test_integer_arguments_refuse_unhashable_values(call, args, bad):
    # checked before any cache, which would raise TypeError on an unhashable key
    for i in range(len(args)):
        with pytest.raises(ParameterError):
            call(*args[:i], bad, *args[i + 1 :])


@pytest.mark.parametrize("call, args", INT_CALLS)
@pytest.mark.parametrize("bad", NOT_INTS)
def test_integer_arguments_reject_non_integers(call, args, bad):
    call(*args)  # warm any cache first, so a cache hit cannot mask the check
    for i in range(len(args)):
        # the warmed value as a float too: a cache keyed by value alone would answer it
        for value in (bad, float(args[i]), np.float64(args[i])):
            with pytest.raises(ParameterError):
                call(*args[:i], value, *args[i + 1 :])


def test_word_symbols_accept_numpy_integers():
    word = np.array([1, 0, 1, 1], dtype=np.int64)
    for check in (check_symbols, check_bits, lambda w: check_word(w, 4)):
        out = check(word)
        assert repr(out) == "(1, 0, 1, 1)"


@pytest.mark.parametrize("bad", NOT_INTS)
def test_word_symbols_reject_non_integers(bad):
    for check in (check_symbols, check_bits, lambda w: check_word(w, 4)):
        with pytest.raises(ParameterError, match="expected an integer"):
            check((0, 1, bad, 1))
    with pytest.raises(ParameterError):
        binary.encode((bad,) * 6, BinaryVtParams(10, 3))
    with pytest.raises(ParameterError):
        qary.correct((bad,) * 15, QaryVtParams(16, 8, 0, 1))


def test_word_symbol_errors_name_the_first_bad_symbol():
    with pytest.raises(ParameterError, match="got True"):
        check_bits((1, 1, True, 2.0))
    with pytest.raises(ParameterError, match="got -1"):
        check_symbols((0, -1, -3))
    with pytest.raises(ParameterError, match="symbol 5 out of range"):
        check_word((0, 5, 7), 4)


# Calls that take one word or sequence of ints, given everything else valid.
WORD_CALLS = [
    lambda w: binary.encode(w, BinaryVtParams(10, 3)),
    lambda w: qary.is_member(w, QaryVtParams(16, 8, 0, 1)),
    QaryVtParams(16, 8, 0, 1).extract,
    binary.syndrome,
    aux_sequence,
    lambda w: code_signature(w, 4),
    format_bitstring,
    format_symbols,
    lambda w: binary.validate_syndrome_positions(10, w),
    lambda w: apply_channel(w, ChannelEvent("deletion", position=0)),
]


@pytest.mark.parametrize("call", WORD_CALLS)
@pytest.mark.parametrize("bad", [5, None, 3.5, np.int64(3)])
def test_word_arguments_refuse_non_iterables(call, bad):
    with pytest.raises(ParameterError, match="expected a sequence of ints"):
        call(bad)


def test_word_iterable_errors_propagate():
    def broken():
        yield 1
        raise TypeError("inside the iterable")

    with pytest.raises(TypeError, match="inside the iterable"):
        check_symbols(broken())


# Calls that take a word and an alphabet size q.
ALPHABET_CALLS = [
    check_word,
    code_signature,
    lambda word, q: list(distinct_insertions(word, q)),
]


@pytest.mark.parametrize("call", ALPHABET_CALLS)
def test_alphabet_size_accepts_numpy_integers(call):
    word = (0, 3, 1, 2)
    assert plain(call(word, np.int64(4))) == plain(call(word, 4))


@pytest.mark.parametrize("call", ALPHABET_CALLS)
@pytest.mark.parametrize("bad", [*NOT_INTS, 4.5, np.float64(4.0)])
def test_alphabet_size_rejects_non_integers(call, bad):
    with pytest.raises(ParameterError):
        call((0, 3, 1, 2), bad)
