"""Invariants that hold the same way everywhere: code parameters accept
numpy integers as word symbols do, and the q-ary encoder's self-checks raise
CodecError instead of relying on assert, so they survive `python -O`."""

import numpy as np
import pytest

from vtcodes import qary
from vtcodes.binary import BinaryVtParams
from vtcodes.errors import CodecError, ParameterError
from vtcodes.qary import QaryVtParams

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


def test_encoder_output_check_raises_codec_error(monkeypatch):
    p = QaryVtParams(16, 8, 0, 1)
    monkeypatch.setattr(qary, "_matches_code", lambda *args: False)
    with pytest.raises(CodecError):
        qary.encode((0,) * p.k, p)
