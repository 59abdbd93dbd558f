"""Exception hierarchy used across the package.

Parameter problems (bad arguments, unsupported code shapes) subclass
ValueError so they behave normally with argparse and plain scripts; codec
failures (uncorrectable or malformed words) form a separate branch so callers
can tell user error from channel damage. Single-edit correction in these
codes has a unique answer, so no error reports an ambiguous one.
"""


class VtCodeError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(VtCodeError, ValueError):
    """An argument or code parameter is invalid."""


class UnsupportedParametersError(ParameterError):
    """Parameters are well formed but outside what this operation supports."""


class UnsupportedLengthError(UnsupportedParametersError):
    """Code length collides with the reserved-position layout (n = 2**m + 1)."""


class MessageLengthError(ParameterError):
    """Message has the wrong number of bits for the chosen parameters."""


class LimitExceededError(ParameterError):
    """Requested enumeration exceeds the configured size limit."""


class CodecError(VtCodeError):
    """Encoding or decoding failed on otherwise valid parameters."""


class NotACodewordError(CodecError):
    """The word is not a member of the expected code."""


class NoCandidateError(CodecError):
    """No codeword is reachable from the received word by one edit."""


class ExtractionError(CodecError):
    """Extraction is positional: a codeword's message slot holds a value no message maps to."""
