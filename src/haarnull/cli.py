"""Command line front end.

Three command families mirror the library layout:

  codec    encode | decode | roundtrip
  witness  synth | verify-claim | check-prefix
  eset     build | gap | coinflip | acceptance

Every leaf command takes --output {text,json}.  JSON output is purely a
function of the arguments, the seed, and the input files (no timestamps,
keys sorted), so reruns are byte-identical.  Each command returns its exit
code and its whole output, and `main` writes that output in one piece, so
a command that fails writes nothing to stdout.  `main` also picks every
failure's exit code from the exception type: 1 for a `DatasetError` (a
dataset invariant violation, with the offending line numbers) and for an
`UnsupportedDepthError`; 2 for any other `ValueError` or an `OSError`:
usage, syntax or shape errors, input that is not UTF-8, and output
integers too long for Python to print.  A passing run exits 0, and a
verified failure or a budget-exceeded check exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

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
from .report import DEFAULT_BUDGET, VerificationReport
from .serialization import (
    cylinder_from_dict,
    fraction_to_str,
    jsonify,
    parse_json,
    spec_from_dict,
)
from .witness import is_witness_prefix, synthesize_witness

__all__ = ["main"]

Output = tuple[int, str]  # exit code, stdout text without its final newline


def _read_text(path: str) -> str:
    """A file, or stdin for "-", decoded as UTF-8 with universal newlines."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # numbered as `str.splitlines` numbers lines; "?" stands in for the
        # bad byte, so a line end just before it starts a line of its own
        line = len((data[: exc.start].decode("utf-8") + "?").splitlines())
        raise ValueError(f"line {line}: not valid UTF-8: {exc.reason}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_json(path: str):
    text = _read_text(path)
    try:
        return parse_json(text)
    except ValueError as exc:  # syntax, a repeated key, an over-long integer
        raise ValueError(f"invalid JSON: {exc}") from exc


def _dump(obj) -> str:
    return json.dumps(jsonify(obj), indent=2, sort_keys=True)


def _render_report(report: VerificationReport, output: str) -> Output:
    code = 0 if report.passed else 1
    if output == "json":
        return code, report.to_json()
    lines = [f"{report.claim}: {report.status}"]
    if report.counterexample is not None:
        lines.append(
            "counterexample: "
            + json.dumps(jsonify(report.counterexample), sort_keys=True)
        )
    if report.parameters:
        lines.append(
            "parameters: " + json.dumps(jsonify(report.parameters), sort_keys=True)
        )
    return code, "\n".join(lines)


def cmd_codec_encode(args) -> Output:
    code = encode(args.n, args.b, args.z)
    if args.output == "json":
        return 0, _dump({"n": args.n, "b": args.b, "z": args.z, "code": code})
    return 0, str(code)


def cmd_codec_decode(args) -> Output:
    t = decode(args.code)
    if args.output == "json":
        return 0, _dump({"code": args.code, "n": t.n, "b": t.b, "z": t.z})
    return 0, f"({t.n},{t.b},{t.z})"


def cmd_codec_roundtrip(args) -> Output:
    if args.max < 1:
        raise ValueError(f"--max must be >= 1, got {args.max}")
    triples, failure = codec_roundtrip_scan(args.max)
    code = 0 if failure is None else 1
    status = "fail" if failure else "pass"
    if args.output == "json":
        out = {"checked_codes": args.max, "checked_triples": triples, "status": status}
        if failure:
            out["counterexample"] = failure
        return code, _dump(out)
    lines = [f"roundtrip: {status}, {args.max} codes, {triples} triples"]
    if failure:
        lines.append(f"counterexample: {failure}")
    return code, "\n".join(lines)


def cmd_witness_synth(args) -> Output:
    spec = spec_from_dict(_read_json(args.spec))
    if args.depth is not None:
        spec = materialize(spec, args.depth)
    trace = synthesize_witness(spec)
    if args.output == "json":
        return 0, _dump(trace.to_json_dict())
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
    return 0, "\n".join(lines)


def cmd_witness_verify_claim(args) -> Output:
    if args.depth < 1:
        raise ValueError(f"--depth must be >= 1, got {args.depth}")
    if args.instances < 1:
        raise ValueError(f"--instances must be >= 1, got {args.instances}")
    failures = [
        {"instance": i, "report": report.to_json_dict()}
        for i, report in restrict_normalize_instances(
            args.seed, args.instances, max_depth=args.depth
        )
        if not report.passed
    ]
    code = 0 if not failures else 1
    passed = args.instances - len(failures)
    if args.output == "json":
        return code, _dump(
            {
                "claim": "restrict-and-normalize",
                "depth": args.depth,
                "seed": args.seed,
                "instances": args.instances,
                "passed": passed,
                "status": "pass" if not failures else "fail",
                "failures": failures,
            }
        )
    lines = [f"{passed}/{args.instances} pass"]
    for entry in failures:
        lines.append(f"instance {entry['instance']} failed: {_dump(entry['report'])}")
    return code, "\n".join(lines)


def cmd_witness_check_prefix(args) -> Output:
    raw = _read_json(args.witness)
    witness = raw.get("witness") if isinstance(raw, dict) else raw
    if not isinstance(witness, list):
        raise ValueError(
            "witness file must be a JSON list or an object with a "
            '"witness" list'
        )
    cyl = cylinder_from_dict(_read_json(args.cylinder))
    report = is_witness_prefix(tuple(witness), cyl, budget=args.budget)
    return _render_report(report, args.output)


def _load_encoded_set(args) -> EncodedSet:
    if args.encoded:
        return encoded_set_from_dict(_read_json(args.data))
    pairs = load_graph_data(_read_text(args.data).splitlines())
    if not pairs:
        raise DatasetError("dataset is empty")
    labels = [f"line {lineno}" for lineno, _ in pairs]
    data = [gd for _, gd in pairs]
    return build_encoded_set(
        data, allow_boundary=args.allow_boundary, labels=labels
    )


def cmd_eset_build(args) -> Output:
    es = _load_encoded_set(args)
    if args.output == "json":
        return 0, _dump(encoded_set_to_dict(es))
    lines = [f"depth: {es.depth}", f"points: {es.size}"]
    lines.extend(" ".join(str(v) for v in p) for p in es.points)
    return 0, "\n".join(lines)


def cmd_eset_gap(args) -> Output:
    return _render_report(check_pairwise_gap(_load_encoded_set(args)), args.output)


def cmd_eset_coinflip(args) -> Output:
    es = _load_encoded_set(args)
    return _render_report(coinflip_bound(es, budget=args.budget), args.output)


def cmd_eset_acceptance(args) -> Output:
    results = run_all(seed=args.seed, budget=args.budget)
    ok = all(r.passed for r in results)
    code = 0 if ok else 1
    if args.output == "json":
        return code, _dump(
            {
                "seed": args.seed,
                "budget": args.budget,
                "status": "pass" if ok else "fail",
                "criteria": [
                    {
                        "key": r.key,
                        "description": r.description,
                        "status": "pass" if r.passed else "fail",
                    }
                    for r in results
                ],
            }
        )
    lines = [f"{r.line()} ({r.elapsed:.2f}s)" for r in results]
    total = sum(r.elapsed for r in results)
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} criteria passed in {total:.2f}s")
    return code, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )

    parser = argparse.ArgumentParser(
        prog="haarnull",
        description="Exact verifiers for witness synthesis and encoded graph sets.",
    )
    top = parser.add_subparsers(dest="family", required=True)

    codec = top.add_parser("codec", help="integer triple codec")
    codec_sub = codec.add_subparsers(dest="command", required=True)
    p = codec_sub.add_parser("encode", parents=[output], help="triple to code")
    p.add_argument("n", type=int)
    p.add_argument("b", type=int)
    p.add_argument("z", type=int)
    p.set_defaults(handler=cmd_codec_encode)
    p = codec_sub.add_parser("decode", parents=[output], help="code to triple")
    p.add_argument("code", type=int)
    p.set_defaults(handler=cmd_codec_decode)
    p = codec_sub.add_parser(
        "roundtrip", parents=[output], help="scan both codec directions"
    )
    p.add_argument("--max", type=int, default=10**6, help="codes to scan")
    p.set_defaults(handler=cmd_codec_roundtrip)

    witness = top.add_parser("witness", help="witness synthesis and verification")
    witness_sub = witness.add_subparsers(dest="command", required=True)
    p = witness_sub.add_parser(
        "synth", parents=[output], help="synthesize a witness sequence"
    )
    p.add_argument("spec", help="product measure spec JSON file, - for stdin")
    p.add_argument(
        "--depth", type=int, default=None, help="materialize the tail to this depth"
    )
    p.set_defaults(handler=cmd_witness_synth)
    p = witness_sub.add_parser(
        "verify-claim",
        parents=[output],
        help="verify the flattening identities on random instances",
    )
    p.add_argument("--depth", type=int, default=4, help="maximal instance depth")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_witness_verify_claim)
    p = witness_sub.add_parser(
        "check-prefix",
        parents=[output],
        help="check that every translate of a cylinder set is null",
    )
    p.add_argument("witness", help="witness entries JSON file, - for stdin")
    p.add_argument("cylinder", help="cylinder set JSON file, - for stdin")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(handler=cmd_witness_check_prefix)

    eset = top.add_parser("eset", help="encoded graph set checks")
    eset_sub = eset.add_subparsers(dest="command", required=True)

    def add_data_args(sub):
        sub.add_argument("data", help="graph data JSON-lines file, - for stdin")
        sub.add_argument(
            "--encoded",
            action="store_true",
            help="treat the input as an already-encoded set JSON file",
        )
        sub.add_argument(
            "--allow-boundary",
            action="store_true",
            help="accept offsets at size + 1",
        )

    p = eset_sub.add_parser(
        "build", parents=[output], help="encode graph data into a point set"
    )
    add_data_args(p)
    p.set_defaults(handler=cmd_eset_build)
    p = eset_sub.add_parser(
        "gap", parents=[output], help="check pairwise 2-separation"
    )
    add_data_args(p)
    p.set_defaults(handler=cmd_eset_gap)
    p = eset_sub.add_parser(
        "coinflip", parents=[output], help="check the translate hit bound"
    )
    add_data_args(p)
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="most point pairs to compare before reporting budget-exceeded "
        "(default: %(default)s)",
    )
    p.set_defaults(handler=cmd_eset_coinflip)
    p = eset_sub.add_parser(
        "acceptance", parents=[output], help="run the full acceptance battery"
    )
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(handler=cmd_eset_acceptance)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        code, text = args.handler(args)
    except DatasetError as exc:
        code, message = 1, f"dataset error: {exc}"
    except UnsupportedDepthError as exc:
        code, message = 1, f"error: {exc}"
    except (ValueError, OSError) as exc:
        code, message = 2, f"error: {exc}"
    else:
        print(text)
        return code
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
