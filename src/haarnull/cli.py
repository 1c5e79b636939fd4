"""Command line front end.

Three command families mirror the library layout:

  codec    encode | decode | roundtrip
  witness  synth | verify-claim | check-prefix
  eset     build | gap | coinflip | acceptance

Every leaf command takes --output {text,json}.  JSON output is purely a
function of the arguments, the seed, and the input files (no timestamps,
keys sorted), so reruns are byte-identical.

Each command's handler takes the parsed arguments and returns its exit
code, its JSON value and its text lines; it neither prints nor looks at
--output.  `main` alone picks the format: it dumps the JSON value (Fractions
as "p/q", tuples as lists) or joins the text lines, and writes the result in
one piece, so a command that fails writes nothing to stdout.  Rendering
happens inside the same `try` as the handler, so an integer too long for
Python to print is an error like any other.  `main` also picks every
failure's exit code from the exception type: 1 for a `DatasetError` (a
dataset invariant violation, with the offending line numbers) and for an
`UnsupportedDepthError`; 2 for any other `ValueError` or an `OSError`:
usage, syntax or shape errors, input that is not UTF-8, output integers too
long for Python to print, and a stdout closed before the output is written.
A passing run exits 0, and a verified failure or a budget-exceeded check
exits 1.

Input files are read as UTF-8, with CRLF and CR line ends read as LF.  A
line of graph data ends at LF alone: a form feed, U+2028 or another
separator that `str.splitlines` knows stays inside its line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from typing import Any, Iterable, Optional, Sequence

from .acceptance import codec_roundtrip_scan, restrict_normalize_instances, run_all
from .codec import decode, encode
from .eset import (
    DatasetError,
    EncodedSet,
    build_encoded_set,
    check_pairwise_gap,
    coinflip_bound,
    encoded_set_from_dict,
    encoded_set_to_dict,
    load_graph_data,
)
from .measures import UnsupportedDepthError, materialize
from .report import DEFAULT_BUDGET, VerificationReport, json_text
from .serialization import (
    _no_unknown_fields,
    cylinder_from_dict,
    fraction_to_str,
    jsonify,
    parse_json,
    spec_from_dict,
)
from .witness import is_witness_prefix, synthesize_witness

__all__ = ["main"]

# exit code, JSON value, text lines
Output = tuple[int, Any, Iterable[str]]


def _read_text(path: str) -> str:
    """A file, or stdin for "-", decoded as UTF-8 with CRLF and CR made LF.

    A UTF-8 error names its line, counted by LF alone.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    # CR and LF are never part of a multibyte UTF-8 sequence, so the line
    # ends can be made LF before decoding
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: not valid UTF-8: {exc.reason}") from None


def _read_json(path: str):
    text = _read_text(path)
    try:
        return parse_json(text)
    except ValueError as exc:  # syntax, a repeated key, an over-long integer
        raise ValueError(f"invalid JSON: {exc}") from exc


def _dump(obj) -> str:
    return json_text(jsonify(obj))


def _report_output(report: VerificationReport) -> Output:
    value = report.to_json_dict()
    lines = [f"{report.claim}: {report.status}"]
    if "counterexample" in value:
        lines.append(
            "counterexample: " + json.dumps(value["counterexample"], sort_keys=True)
        )
    if report.parameters:
        lines.append("parameters: " + json.dumps(value["parameters"], sort_keys=True))
    return (0 if report.passed else 1), value, lines


def cmd_codec_encode(args) -> Output:
    code = encode(args.n, args.b, args.z)
    return 0, {"n": args.n, "b": args.b, "z": args.z, "code": code}, [str(code)]


def cmd_codec_decode(args) -> Output:
    t = decode(args.code)
    value = {"code": args.code, "n": t.n, "b": t.b, "z": t.z}
    return 0, value, [f"({t.n},{t.b},{t.z})"]


def cmd_codec_roundtrip(args) -> Output:
    if args.max < 1:
        raise ValueError(f"--max must be >= 1, got {args.max}")
    triples, failure = codec_roundtrip_scan(args.max)
    status = "fail" if failure else "pass"
    value = {"checked_codes": args.max, "checked_triples": triples, "status": status}
    lines = [f"roundtrip: {status}, {args.max} codes, {triples} triples"]
    if failure:
        value["counterexample"] = failure
        lines.append(f"counterexample: {failure}")
    return (0 if failure is None else 1), value, lines


def cmd_witness_synth(args) -> Output:
    spec = spec_from_dict(_read_json(args.spec))
    if args.depth is not None:
        if 0 <= args.depth < spec.depth:
            raise ValueError(
                f"--depth {args.depth} is below the spec's prefix depth {spec.depth}"
            )
        spec = materialize(spec, args.depth)
    trace = synthesize_witness(spec)
    lines = [
        f"depth: {trace.depth}",
        f"shifts: {list(trace.shifts)}",
        f"radii: {list(trace.radii)}",
        f"sizes: {list(trace.sizes)}",
        f"witness: {list(trace.witness)}",
    ]
    if trace.depth:
        lines.append(f"scale: {fraction_to_str(trace.scale_partial[-1])}")
        lines.append(f"deficiency: {fraction_to_str(trace.deficiency_partial[-1])}")
    return 0, vars(trace), lines


def cmd_witness_verify_claim(args) -> Output:
    if args.depth < 1:
        raise ValueError(f"--depth must be >= 1, got {args.depth}")
    if args.instances < 1:
        raise ValueError(f"--instances must be >= 1, got {args.instances}")
    failed = [
        (i, report)
        for i, _, report in restrict_normalize_instances(
            args.seed, args.instances, max_depth=args.depth
        )
        if not report.passed
    ]
    passed = args.instances - len(failed)
    value = {
        "claim": "restrict-and-normalize",
        "depth": args.depth,
        "seed": args.seed,
        "instances": args.instances,
        "passed": passed,
        "status": "pass" if not failed else "fail",
        "failures": [{"instance": i, "report": r.to_json_dict()} for i, r in failed],
    }
    lines = [f"{passed}/{args.instances} pass"]
    lines.extend(f"instance {i} failed: {r.to_json()}" for i, r in failed)
    return (1 if failed else 0), value, lines


def cmd_witness_check_prefix(args) -> Output:
    if args.witness == args.cylinder == "-":
        raise ValueError("the witness and cylinder files cannot both be -")
    witness = _read_json(args.witness)
    if isinstance(witness, dict) and "witness" in witness:
        _no_unknown_fields(witness, {"witness"})
        witness = witness["witness"]
    if not isinstance(witness, list):
        raise ValueError(
            "witness file must be a JSON list or an object with a "
            '"witness" list'
        )
    cyl = cylinder_from_dict(_read_json(args.cylinder))
    return _report_output(is_witness_prefix(tuple(witness), cyl, budget=args.budget))


def _load_encoded_set(args) -> EncodedSet:
    if args.encoded:
        return encoded_set_from_dict(_read_json(args.data))
    pairs = load_graph_data(_read_text(args.data).split("\n"))
    if not pairs:
        raise DatasetError("dataset is empty")
    labels = [f"line {lineno}" for lineno, _ in pairs]
    data = [gd for _, gd in pairs]
    return build_encoded_set(
        data, allow_boundary=args.allow_boundary, labels=labels
    )


def cmd_eset_build(args) -> Output:
    es = _load_encoded_set(args)
    # a generator, so a JSON run formats no point as text
    lines = chain(
        [f"depth: {es.depth}", f"points: {es.size}"],
        (" ".join(str(v) for v in p) for p in es.points),
    )
    return 0, encoded_set_to_dict(es), lines


def cmd_eset_gap(args) -> Output:
    return _report_output(check_pairwise_gap(_load_encoded_set(args)))


def cmd_eset_coinflip(args) -> Output:
    es = _load_encoded_set(args)
    return _report_output(coinflip_bound(es, budget=args.budget))


def cmd_eset_acceptance(args) -> Output:
    results = run_all(seed=args.seed)
    ok = all(r.passed for r in results)
    value = {
        "seed": args.seed,
        "budget": DEFAULT_BUDGET,
        "status": "pass" if ok else "fail",
        "criteria": [
            {"key": r.key, "description": r.description, "status": r.status.lower()}
            for r in results
        ],
    }
    lines = [f"{r.line()} ({r.elapsed:.2f}s)" for r in results]
    total = sum(r.elapsed for r in results)
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} criteria passed in {total:.2f}s")
    return (0 if ok else 1), value, lines


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )

    def leaf(family, name, handler, help):
        p = family.add_parser(name, parents=[output], help=help)
        p.set_defaults(handler=handler)
        return p

    parser = argparse.ArgumentParser(
        prog="haarnull",
        description="Exact verifiers for witness synthesis and encoded graph sets.",
    )
    top = parser.add_subparsers(dest="family", required=True)

    codec = top.add_parser("codec", help="integer triple codec")
    codec_sub = codec.add_subparsers(dest="command", required=True)
    p = leaf(codec_sub, "encode", cmd_codec_encode, "triple to code")
    p.add_argument("n", type=int)
    p.add_argument("b", type=int)
    p.add_argument("z", type=int)
    p = leaf(codec_sub, "decode", cmd_codec_decode, "code to triple")
    p.add_argument("code", type=int)
    p = leaf(codec_sub, "roundtrip", cmd_codec_roundtrip, "scan both codec directions")
    p.add_argument("--max", type=int, default=10**6, help="codes to scan")

    witness = top.add_parser("witness", help="witness synthesis and verification")
    witness_sub = witness.add_subparsers(dest="command", required=True)
    p = leaf(witness_sub, "synth", cmd_witness_synth, "synthesize a witness sequence")
    p.add_argument("spec", help="product measure spec JSON file, - for stdin")
    p.add_argument(
        "--depth",
        type=int,
        default=None,
        help="materialize the tail to this depth (at least the prefix depth)",
    )
    p = leaf(
        witness_sub,
        "verify-claim",
        cmd_witness_verify_claim,
        "verify the flattening identities on random instances",
    )
    p.add_argument("--depth", type=int, default=4, help="maximal instance depth")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p = leaf(
        witness_sub,
        "check-prefix",
        cmd_witness_check_prefix,
        "check that every translate of a cylinder set is null",
    )
    p.add_argument("witness", help="witness entries JSON file, - for stdin")
    p.add_argument("cylinder", help="cylinder set JSON file, - for stdin")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    eset = top.add_parser("eset", help="encoded graph set checks")
    eset_sub = eset.add_subparsers(dest="command", required=True)

    def data_leaf(name, handler, help):
        p = leaf(eset_sub, name, handler, help)
        p.add_argument("data", help="graph data JSON-lines file, - for stdin")
        # an encoded set has no offsets to allow at the boundary
        exclusive = p.add_mutually_exclusive_group()
        exclusive.add_argument(
            "--encoded",
            action="store_true",
            help="treat the input as an already-encoded set JSON file",
        )
        exclusive.add_argument(
            "--allow-boundary",
            action="store_true",
            help="accept offsets at size + 1",
        )
        return p

    data_leaf("build", cmd_eset_build, "encode graph data into a point set")
    data_leaf("gap", cmd_eset_gap, "check pairwise 2-separation")
    p = data_leaf("coinflip", cmd_eset_coinflip, "check the translate hit bound")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="most point pairs to compare before reporting budget-exceeded "
        "(default: %(default)s)",
    )
    p = leaf(
        eset_sub, "acceptance", cmd_eset_acceptance, "run the full acceptance battery"
    )
    p.add_argument("--seed", type=int, default=42)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code, value, lines = args.handler(args)
        text = _dump(value) if args.output == "json" else "\n".join(lines)
    except DatasetError as exc:
        code, message = 1, f"dataset error: {exc}"
    except UnsupportedDepthError as exc:
        code, message = 1, f"error: {exc}"
    except (ValueError, OSError) as exc:
        code, message = 2, f"error: {exc}"
    else:
        try:
            print(text)
            sys.stdout.flush()
            return code
        except BrokenPipeError as exc:
            # the interpreter flushes stdout again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code, message = 2, f"error: {exc}"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
