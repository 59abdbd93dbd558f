"""Both params classes offer the same code interface, and each method is
the module function of its family."""

import pytest

from vtcodes import binary, qary
from vtcodes.binary import BinaryVtParams
from vtcodes.errors import NoCandidateError, NotACodewordError, ParameterError, VtCodeError
from vtcodes.qary import QaryVtParams

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
