"""The linear-time decoders against the candidate-search oracle.

Exhaustive and seeded comparisons check that `binary.correct` and
`qary.correct` return the same word, or raise the same exception type, as
the slow oracle in `oracle.py` on every received word of length n - 1 and
n + 1. Property tests then check, at lengths the oracle cannot reach, that
every deletion and insertion of an encoded codeword corrects, and, for any
received word, that each decoder's edit lands in the code by the kernel's
residues. The binary decoder runs no re-check, so a word one bit short must
always get its edit; the q-ary one checks the auxiliary checksum alone, and
its formula for the edited word's checksum must equal the kernel's for any
edit of any word.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from oracle import correct_binary as oracle_binary, correct_q as oracle_q
from vtcodes import binary, qary
from vtcodes.binary import BinaryVtParams, _levenshtein_restore, syndrome
from vtcodes.errors import NoCandidateError
from vtcodes.qary import QaryVtParams, _edited_checksum, code_signature
from vtcodes.words import _apply


def outcome(correct, received, params):
    try:
        return correct(received, params)
    except Exception as exc:  # the type is what gets compared
        return type(exc)


def agree(received, params):
    if isinstance(params, BinaryVtParams):
        fast, slow = binary.correct, oracle_binary
    else:
        fast, slow = qary.correct, oracle_q
    assert outcome(fast, received, params) == outcome(slow, received, params), (received, params)


def test_binary_matches_oracle_on_every_word_up_to_n10():
    for n in range(1, 11):
        for a in range(n + 1):
            params = BinaryVtParams(n, a)
            for length in (n - 1, n + 1):
                for received in itertools.product((0, 1), repeat=length):
                    agree(received, params)


def test_qary_matches_oracle_on_every_word_at_small_shapes():
    for n, q in [(6, 3), (7, 3)]:
        for a in range(n):
            for b in range(q):
                params = QaryVtParams(n, q, a, b)
                for length in (n - 1, n + 1):
                    for received in itertools.product(range(q), repeat=length):
                        agree(received, params)


def test_qary_matches_oracle_on_seeded_random_words():
    rng = random.Random(20240817)
    orders = (tuple, sorted, lambda w: sorted(w, reverse=True))
    for n, q in [(8, 4), (10, 3), (12, 5)]:
        for _ in range(1500):
            # half arbitrary words, half single edits of an arbitrary word
            # checked against the code that word belongs to; a third of the
            # words sorted and a third reverse-sorted, so the runs reach the ends
            order = rng.choice(orders)
            word = tuple(order(rng.randrange(q) for _ in range(n)))
            i = rng.randrange(n + 1)
            if rng.random() < 0.5:
                params = QaryVtParams(n, q, *code_signature(word, q))
                if rng.random() < 0.5:
                    received = word[:i] + word[i + 1 :]
                else:
                    received = word[:i] + (rng.randrange(q),) + word[i:]
            else:
                params = QaryVtParams(n, q, rng.randrange(n), rng.randrange(q))
                length = rng.choice((n - 1, n + 1))
                received = tuple(order(rng.randrange(q) for _ in range(length)))
            agree(received, params)


def test_qary_matches_oracle_on_seeded_random_words_past_the_lane_alphabets():
    # q = 129 compares per symbol and q = 257 holds words as tuples. A third of
    # the draws take arbitrary residues, a third the code of one edit of the
    # word, and a third a sum residue that names a symbol the word already
    # holds, next to which the decoder's edit often misses the checksum. Its
    # own residue check must then refuse the word: at length n - 1 the
    # auxiliary bit can always be put back, so each NoCandidateError there is
    # such a refusal, and both alphabets must see some.
    rng = random.Random(20261020)
    orders = (tuple, sorted, lambda w: sorted(w, reverse=True))
    n = 8
    for q in (129, 257):
        refused = 0
        for _ in range(300):
            order = rng.choice(orders)
            length = rng.choice((n - 1, n + 1))
            received = tuple(order(rng.choice((0, q - 1, rng.randrange(q))) for _ in range(length)))
            a, draw = rng.randrange(n), rng.randrange(3)
            if draw == 0:
                params = QaryVtParams(n, q, a, rng.randrange(q))
            elif draw == 1:
                i = rng.randrange(length)
                if length == n - 1:
                    word = received[:i] + (rng.randrange(q),) + received[i:]
                else:
                    word = received[:i] + received[i + 1 :]
                params = QaryVtParams(n, q, *code_signature(word, q))
            else:
                s = rng.choice(received)
                params = QaryVtParams(n, q, a, (sum(received) + (s if length < n else -s)) % q)
            agree(received, params)
            if length < n:
                refused += outcome(qary.correct, received, params) is NoCandidateError
        assert refused, q


@st.composite
def arbitrary_edits(draw, alphabets):
    """(q, r, kind, j, s): a word r over q, bytes or a tuple (a tuple past
    q = 256), of length 3 .. 2048, and any edit of it: any position,
    0 and len(r) included, and any symbol, often a neighbour's."""
    q = draw(st.sampled_from(alphabets))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.one_of(st.integers(3, 12), st.integers(3, 2048)))
    r = [rng.choice((0, q - 1, rng.randrange(q))) for _ in range(length)]
    if rng.getrandbits(1):  # long runs of ascents or descents
        r.sort(reverse=rng.getrandbits(1))
    r = bytes(r) if q <= 256 and draw(st.booleans()) else tuple(r)
    kind = draw(st.sampled_from(("insertion", "deletion")))
    last = length if kind == "insertion" else length - 1
    j = draw(st.one_of(st.sampled_from((0, last)), st.integers(0, last)))
    near = [r[i] + d for i in (j - 1, j) if 0 <= i < length for d in (-1, 0, 1)]
    s = draw(st.sampled_from([x for x in near if 0 <= x < q] + [rng.randrange(q)]))
    return q, r, kind, j, s if kind == "insertion" else None


@st.composite
def binary_received(draw):
    """(params, r): a word r of 0 .. 2048 bits, of any density, sorted a
    third of the time, and a code of length len(r) - 1 or len(r) + 1 with
    any checksum a."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    length = draw(st.one_of(st.integers(0, 12), st.integers(0, 2048)))
    density = rng.random()
    r = sorted(rng.random() < density for _ in range(length))
    if rng.randrange(3):
        rng.shuffle(r)
    n = draw(st.sampled_from([m for m in (length - 1, length + 1) if m >= 1]))
    return BinaryVtParams(n, draw(st.integers(0, n))), bytes(r)


@settings(max_examples=300, deadline=None, database=None)
@given(binary_received())
def test_binary_edit_always_lands_on_the_checksum(case):
    params, r = case
    edit = params._restore(r)
    if len(r) < params.n:  # the code corrects any single deletion
        assert edit is not None, (params, r)
    if edit is not None:
        assert syndrome(_apply(r, *edit)) == params.a, (params, r, edit)


@settings(max_examples=400, deadline=None, database=None)
@given(arbitrary_edits([2, 3, 4, 127, 128, 129, 255, 256, 257, 300]))
def test_qary_edited_checksum_matches_the_kernel(case):
    q, r, kind, j, s = case
    aux = bytes(y >= x for x, y in zip(r, r[1:]))
    checksum = sum(i * x for i, x in enumerate(aux, 1))
    found = _edited_checksum(r, aux, checksum, kind, j, s)
    assert found == code_signature(_apply(r, kind, j, s), q)[0], (q, r, kind, j, s)


@st.composite
def qary_received(draw):
    """(params, r): a word r over q, bytes or a tuple (a tuple past
    q = 256), one symbol short of or past a code's length n, 6 .. 2048. A
    third of the codes take arbitrary residues, a third those of one edit of
    r, and a third a sum that names a symbol r holds."""
    q = draw(st.sampled_from([3, 4, 127, 128, 129, 255, 256, 257, 300]))
    lengths = st.one_of(st.integers(6, 12), st.integers(6, 2048))
    n = draw(lengths.filter(lambda n: (n - 1) & (n - 2)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    length = n + rng.choice((-1, 1))
    r = [rng.choice((0, q - 1, rng.randrange(q))) for _ in range(length)]
    if rng.getrandbits(1):  # long runs of ascents or descents
        r.sort(reverse=rng.getrandbits(1))
    r = bytes(r) if q <= 256 and draw(st.booleans()) else tuple(r)
    a, b, pick = rng.randrange(n), rng.randrange(q), rng.randrange(3)
    if pick == 1:
        kind, s = ("insertion", rng.randrange(q)) if length < n else ("deletion", None)
        a, b = code_signature(_apply(r, kind, rng.randrange(length), s), q)
    elif pick == 2:
        s = rng.choice(r)
        b = (sum(r) + (s if length < n else -s)) % q
    return QaryVtParams(n, q, a, b), r


@settings(max_examples=300, deadline=None, database=None)
@given(qary_received())
def test_qary_edit_always_lands_in_the_code(case):
    params, r = case
    edit = params._restore(r)
    if edit is not None:
        assert code_signature(_apply(r, *edit), params.q) == (params.a, params.b), (params, r, edit)


def edits(word, i, symbol):
    """Deletions at 0, i and the end; insertions of symbol at 0, i and the end."""
    n = len(word)
    deletions = [word[:j] + word[j + 1 :] for j in {0, min(i, n - 1), n - 1}]
    insertions = [word[:j] + (symbol,) + word[j:] for j in {0, i, n}]
    return deletions, insertions


def random_message(seed, k):
    return tuple(random.Random(seed).getrandbits(1) for _ in range(k))


@st.composite
def binary_cases(draw):
    n = draw(st.integers(1, 2048))
    params = BinaryVtParams(n, draw(st.integers(0, n)))
    word = binary.encode(random_message(draw(st.integers(0, 2**32)), params.k), params)
    return params, word, draw(st.integers(0, n)), draw(st.integers(0, 1))


@st.composite
def qary_cases(draw):
    n = draw(st.integers(7, 2048).filter(lambda n: (n - 1) & (n - 2)))
    q = draw(st.integers(3, 16))
    params = QaryVtParams(n, q, draw(st.integers(0, n - 1)), draw(st.integers(0, q - 1)))
    word = qary.encode(random_message(draw(st.integers(0, 2**32)), params.k), params)
    return params, word, draw(st.integers(0, n)), draw(st.integers(0, q - 1))


@settings(max_examples=60, deadline=None, database=None)
@given(binary_cases())
def test_binary_corrects_every_edit_position(case):
    params, word, i, symbol = case
    deletions, insertions = edits(word, i, symbol)
    for received in deletions + insertions:
        assert binary.correct(received, params) == word
        total = sum(i * x for i, x in enumerate(received, 1))
        edit = _levenshtein_restore(bytes(received), params.n, params.a, total)
        index = edit[1]
        longer, shorter = (word, received) if len(received) < len(word) else (received, word)
        assert _apply(received, *edit) == word
        assert longer[:index] + longer[index + 1 :] == shorter


@settings(max_examples=60, deadline=None, database=None)
@given(qary_cases())
def test_qary_corrects_every_edit_position(case):
    params, word, i, symbol = case
    deletions, insertions = edits(word, i, symbol)
    for received in deletions + insertions:
        assert qary.correct(received, params) == word


def assert_canonical(received, params):
    """When received corrects, _restore returns the edit that _apply turns
    into the codeword, and no smaller position with the same kind and symbol
    gives that word."""
    try:
        word = params.correct(received)
    except NoCandidateError:
        return
    kind, position, symbol = params._restore(received)
    assert _apply(received, kind, position, symbol) == word, (received, params)
    for earlier in range(position):
        assert _apply(received, kind, earlier, symbol) != word, (received, params, earlier)


def test_located_edit_is_canonical_on_every_word_at_small_shapes():
    shapes = [BinaryVtParams(n, a) for n in range(1, 11) for a in range(n + 1)]
    shapes += [
        QaryVtParams(n, q, a, b) for n, q in [(6, 3), (7, 3)] for a in range(n) for b in range(q)
    ]
    for params in shapes:
        for length in (params.n - 1, params.n + 1):
            for received in itertools.product(range(params.q), repeat=length):
                assert_canonical(received, params)


@settings(max_examples=80, deadline=None, database=None)
@given(st.one_of(binary_cases(), qary_cases()))
def test_located_edit_is_canonical_at_every_edit_position(case):
    params, word, i, symbol = case
    deletions, insertions = edits(word, i, symbol)
    for received in deletions + insertions:
        assert params.correct(received) == word
        assert_canonical(received, params)


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.integers(7, 300).filter(lambda n: (n - 1) & (n - 2)),
    st.sampled_from([3, 127, 128, 129, 256, 1000, 2**64 + 1]),
    st.integers(0, 2**32 - 1).map(random.Random),
)
def test_qary_corrects_every_edit_on_both_sides_of_the_lane_alphabets(n, q, rng):
    # any word is a codeword of the code its signature names, which reaches
    # alphabets too large for the encoder's pair table; q > 128 compares per symbol
    word = tuple(rng.choice((0, q - 1, rng.randrange(q))) for _ in range(n))
    if rng.getrandbits(1):  # a monotone word is one run of the auxiliary sequence
        word = tuple(sorted(word, reverse=rng.getrandbits(1)))
    params = QaryVtParams(n, q, *code_signature(word, q))
    deletions, insertions = edits(word, rng.randrange(n + 1), rng.randrange(q))
    for received in deletions + insertions:
        assert qary.correct(received, params) == word
