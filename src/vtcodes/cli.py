"""Command-line front end.

Subcommands: encode, extract, correct, member, enumerate, bounds, simulate,
tables, validate-positions. Binary codes are selected with --q 2 (no --b);
alphabets q >= 3 take both --a and --b. Codewords are space-separated decimal
symbols, messages are contiguous bit strings, and --json switches any
subcommand to machine-readable output.

Exit codes: 0 success, 1 usage or parameter error, 2 codec failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, binary, channel
from .binary import BinaryVtParams
from .errors import CodecError, ParameterError
from .qary import QaryVtParams, pair_table
from .words import format_bitstring, format_symbols, parse_bitstring, parse_symbols

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CODEC = 2


def _make_params(args) -> BinaryVtParams | QaryVtParams:
    if args.q == 2:
        if getattr(args, "b", None) is not None:
            raise ParameterError("--b applies to alphabets with q >= 3 only")
        return BinaryVtParams(n=args.n, a=args.a)
    if getattr(args, "b", None) is None:
        raise ParameterError("--b is required for alphabets with q >= 3")
    return QaryVtParams(n=args.n, q=args.q, a=args.a, b=args.b)


def _cmd_encode(args):
    word = _make_params(args).encode(parse_bitstring(args.message))
    return format_symbols(word), {"codeword": list(word)}


def _cmd_extract(args):
    text = format_bitstring(_make_params(args).extract(parse_symbols(args.word)))
    return text, {"message": text}


def _cmd_correct(args):
    params = _make_params(args)
    received = parse_symbols(args.word)
    word = params.correct(received)
    edit = {-1: "deletion", 0: "none", 1: "insertion"}[len(received) - params.n]
    return format_symbols(word), {"codeword": list(word), "edit": edit}


def _cmd_member(args):
    ok = _make_params(args).is_member(parse_symbols(args.word))
    return ("true" if ok else "false"), {"member": ok}


def _cmd_enumerate(args):
    rows = analysis.census_rows(args.n, args.q, args.limit, args.a, args.b)
    # main's print ends the text; the CSV's own last newline would add a blank line
    return analysis.census_csv(rows).removesuffix("\n"), analysis.rows_report(rows)


def _cmd_bounds(args):
    n, q = args.n, args.q
    if q == 2:
        lo, hi = analysis.binary_size_bounds(n)
        payload = {"q": 2, "n": n, **analysis.binary_rates(n), "size_lower": lo, "size_upper": hi}
    else:
        payload = {
            **analysis.rate_bounds(n, q).to_dict(),
            "size_lower_bound": analysis.qary_size_lower_bound(n, q),
            "single_deletion_size_bound": analysis.float_bound(
                analysis.single_deletion_size_bound(n, q), n, q
            ),
        }
    payload = analysis.rounded(payload)
    text = "\n".join(
        f"{key} = {value}" for key, value in payload.items() if value is not None
    )
    return text, payload


def _cmd_simulate(args):
    params = _make_params(args)
    report = channel.run_trials(params, args.channel, args.trials, args.seed)
    text = (
        f"trials={report.trials} successes={report.successes} "
        f"rate={report.rate:.6f} failures={len(report.failure_cases)} "
        f"wall_time_s={report.wall_time:.3f}"
    )
    return text, report.to_dict()


def _cmd_tables(args):
    table = pair_table(args.q)
    first, count = table.position5  # the values the encoder puts at position 5
    payload = {  # pairs are built on access, so they are read once
        "q": table.q,
        "pair_bits": table.pair_bits,
        "single_bits": table.single_bits,
        "pairs": [list(p) for p in table.pairs],
        "singles": [table.pair(first + i)[1] for i in range(count)],
    }
    lines = [f"{key} = {payload[key]}" for key in ("q", "pair_bits", "single_bits")]
    lines += [f"pair {i} = {left} {right}" for i, (left, right) in enumerate(payload["pairs"])]
    lines += [f"single {i} = {value}" for i, value in enumerate(payload["singles"])]
    return "\n".join(lines), payload


def _cmd_validate_positions(args):
    positions = parse_symbols(args.positions)
    ok = binary.validate_syndrome_positions(args.n, positions)
    return ("true" if ok else "false"), {"valid": ok}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtcodes",
        description="Systematic encoding, correction, and analysis of "
        "single-deletion/insertion correcting codes.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--q", type=int, required=True, help="alphabet size (2 = binary)")
    shape.add_argument("--n", type=int, required=True, help="code length")
    code = argparse.ArgumentParser(add_help=False, parents=[shape])
    code.add_argument("--a", type=int, required=True, help="target checksum residue")
    code.add_argument("--b", type=int, default=None, help="target symbol-sum residue (q >= 3)")

    def finish(sub, handler):
        sub.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        sub.set_defaults(handler=handler)

    sub = subs.add_parser(
        "encode", parents=[code], help="encode a bit-string message into a codeword"
    )
    sub.add_argument("--message", required=True, help="message bits, e.g. 10110")
    finish(sub, _cmd_encode)

    sub = subs.add_parser(
        "extract", parents=[code], help="read the message bits back out of a codeword"
    )
    sub.add_argument("--word", required=True, help="codeword symbols, e.g. '0 1 2 3'")
    finish(sub, _cmd_extract)

    sub = subs.add_parser(
        "correct",
        parents=[code],
        help="repair a received word (edit type inferred from its length)",
    )
    sub.add_argument("--word", required=True, help="received symbols")
    finish(sub, _cmd_correct)

    sub = subs.add_parser("member", parents=[code], help="test whether a word lies in the code")
    sub.add_argument("--word", required=True, help="word symbols")
    finish(sub, _cmd_member)

    sub = subs.add_parser("enumerate", parents=[shape], help="exact census of code sizes (CSV)")
    sub.add_argument("--a", type=int, default=None, help="restrict to one checksum residue")
    sub.add_argument("--b", type=int, default=None, help="restrict to one sum residue (q >= 3)")
    sub.add_argument("--limit", type=int, default=None, help="override the enumeration size limit")
    finish(sub, _cmd_enumerate)

    sub = subs.add_parser("bounds", parents=[shape], help="size and rate bounds for one code shape")
    finish(sub, _cmd_bounds)

    sub = subs.add_parser(
        "simulate", parents=[code], help="seeded encode/corrupt/correct/extract trials"
    )
    sub.add_argument(
        "--channel",
        choices=channel.CHANNEL_KINDS,
        default="mixed",
        help="event kind per trial (default: mixed)",
    )
    sub.add_argument("--trials", type=int, required=True, help="number of trials (>= 1)")
    sub.add_argument("--seed", type=int, required=True, help="seed of the run's generator")
    finish(sub, _cmd_simulate)

    sub = subs.add_parser("tables", help="dump the canonical message-value tables")
    sub.add_argument("--q", type=int, required=True, help="alphabet size (>= 3)")
    finish(sub, _cmd_tables)

    sub = subs.add_parser(
        "validate-positions", help="check that positions can absorb any checksum deficit"
    )
    sub.add_argument("--n", type=int, required=True, help="code length")
    sub.add_argument("--positions", required=True, help="candidate positions, e.g. '1 2 4'")
    finish(sub, _cmd_validate_positions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # census counts are exact and may pass the int/str digit limit (4300 by default)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text, payload = args.handler(args)
        print(json.dumps(payload, indent=2) if args.json else text)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CodecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODEC
    finally:
        sys.set_int_max_str_digits(digits)
    return EXIT_OK
