"""Single-deletion/insertion correcting codes, binary and q-ary.

The binary family fixes the weighted checksum sum(i * s_i) mod (n + 1) of a
word; the q-ary family (q >= 3) fixes both the checksum of the word's
auxiliary comparison sequence (mod n) and its symbol sum (mod q). Either way
the resulting code corrects any single symbol deletion or insertion.

The package provides systematic encoders that place message bits at fixed
positions, the matching extractors, linear-time correction (Levenshtein's
decoder for binary codes, Tenengolts' for q-ary ones), exact code-size
censuses with size/rate bounds (vtcodes.analysis: the binary census in
closed form, the q-ary one by a dynamic programme on packed big-int lanes),
a seeded channel simulator (vtcodes.channel), and a CLI (vtcodes.cli,
installed as the `vtcodes` script).
"""

from .analysis import (
    CodeCensus,
    RateReport,
    binary_census,
    binary_codewords,
    binary_size_bounds,
    binary_size_within_bounds,
    census_csv,
    census_report,
    census_rows,
    enumerate_binary,
    enumerate_q,
    qary_census,
    qary_size_lower_bound,
    rate_bounds,
    single_deletion_size_bound,
)
from .binary import (
    BinaryVtParams,
    correct as correct_binary,
    encode as encode_binary,
    extract as extract_binary,
    is_member,
    syndrome,
    validate_syndrome_positions,
)
from .channel import ChannelEvent, TrialFailure, TrialReport, apply_channel, run_trials
from .errors import (
    CodecError,
    ExtractionError,
    LimitExceededError,
    MessageLengthError,
    NoCandidateError,
    NotACodewordError,
    ParameterError,
    UnsupportedLengthError,
    UnsupportedParametersError,
    VtCodeError,
)
from .qary import (
    PairTable,
    QaryVtParams,
    aux_sequence,
    code_signature,
    correct as correct_q,
    encode as encode_q,
    extract as extract_q,
    is_member as is_member_q,
    message_length,
    pair_table,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryVtParams",
    "ChannelEvent",
    "CodeCensus",
    "CodecError",
    "ExtractionError",
    "LimitExceededError",
    "MessageLengthError",
    "NoCandidateError",
    "NotACodewordError",
    "PairTable",
    "ParameterError",
    "QaryVtParams",
    "RateReport",
    "TrialFailure",
    "TrialReport",
    "UnsupportedLengthError",
    "UnsupportedParametersError",
    "VtCodeError",
    "apply_channel",
    "aux_sequence",
    "binary_census",
    "binary_codewords",
    "binary_size_bounds",
    "binary_size_within_bounds",
    "census_csv",
    "census_report",
    "census_rows",
    "code_signature",
    "correct_binary",
    "correct_q",
    "encode_binary",
    "encode_q",
    "enumerate_binary",
    "enumerate_q",
    "extract_binary",
    "extract_q",
    "is_member",
    "is_member_q",
    "message_length",
    "pair_table",
    "qary_census",
    "qary_size_lower_bound",
    "rate_bounds",
    "run_trials",
    "single_deletion_size_bound",
    "syndrome",
    "validate_syndrome_positions",
    "__version__",
]
