"""Both params classes offer the same code interface, and each method is
the module function of its family."""

import pytest

from vtcodes import binary, qary
from vtcodes.binary import BinaryVtParams
from vtcodes.errors import ParameterError
from vtcodes.qary import QaryVtParams

CASES = [
    (BinaryVtParams(10, 3), binary, 2, [("q", 2), ("n", 10), ("a", 3)]),
    (QaryVtParams(8, 4, 2, 3), qary, 4, [("q", 4), ("n", 8), ("a", 2), ("b", 3)]),
]


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
