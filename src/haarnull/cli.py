"""Command line front end.

Three command families mirror the library layout:

  codec    encode | decode | roundtrip
  witness  synth | verify-claim | check-prefix
  eset     build | gap | coinflip | acceptance

Every leaf command takes --output {text,json}.  JSON output is purely a
function of the arguments, the seed, and the input files (no timestamps,
keys sorted), so reruns are byte-identical.  Exit codes: 0 for a passing
run, 1 for a verified failure, a budget-exceeded check, or a dataset
invariant violation (offending line numbers are reported), 2 for usage,
syntax, or shape errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .acceptance import codec_roundtrip_scan, restrict_normalize_instances, run_all
from .codec import decode, encode
from .eset import (
    GraphDataParseError,
    build_encoded_set,
    check_pairwise_gap,
    coinflip_bound,
    encoded_set_from_dict,
    encoded_set_to_dict,
    load_graph_data,
)
from .measures import ProductMeasureSpec, UnsupportedDepthError, materialize
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


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_json(path: str):
    text = _read_text(path)
    try:
        return parse_json(text)
    except ValueError as exc:  # syntax, a repeated key, an over-long integer
        raise ValueError(f"invalid JSON: {exc}") from exc


def _dump(obj) -> str:
    return json.dumps(jsonify(obj), indent=2, sort_keys=True)


def _print_report(report: VerificationReport, output: str) -> int:
    if output == "json":
        print(report.to_json())
    else:
        print(f"{report.claim}: {report.status}")
        if report.counterexample is not None:
            print(
                "counterexample: "
                + json.dumps(jsonify(report.counterexample), sort_keys=True)
            )
        if report.parameters:
            print(
                "parameters: "
                + json.dumps(jsonify(report.parameters), sort_keys=True)
            )
    return 0 if report.passed else 1


def cmd_codec_encode(args) -> int:
    code = encode(args.n, args.b, args.z)
    if args.output == "json":
        print(_dump({"n": args.n, "b": args.b, "z": args.z, "code": code}))
    else:
        print(code)
    return 0


def cmd_codec_decode(args) -> int:
    t = decode(args.code)
    if args.output == "json":
        print(_dump({"code": args.code, "n": t.n, "b": t.b, "z": t.z}))
    else:
        print(f"({t.n},{t.b},{t.z})")
    return 0


def cmd_codec_roundtrip(args) -> int:
    if args.max < 1:
        raise ValueError(f"--max must be >= 1, got {args.max}")
    triples, failure = codec_roundtrip_scan(args.max)
    status = "fail" if failure else "pass"
    if args.output == "json":
        out = {"checked_codes": args.max, "checked_triples": triples, "status": status}
        if failure:
            out["counterexample"] = failure
        print(_dump(out))
    else:
        print(f"roundtrip: {status}, {args.max} codes, {triples} triples")
        if failure:
            print(f"counterexample: {failure}")
    return 0 if failure is None else 1


def _load_spec(path: str) -> ProductMeasureSpec:
    return spec_from_dict(_read_json(path))


def cmd_witness_synth(args) -> int:
    spec = _load_spec(args.spec)
    if args.depth is not None:
        spec = materialize(spec, args.depth)
    trace = synthesize_witness(spec)
    if args.output == "json":
        print(_dump(trace.to_json_dict()))
    else:
        print(f"depth: {trace.depth}")
        print(f"shifts: {list(trace.shifts)}")
        print(f"radii: {list(trace.radii)}")
        print(f"sizes: {list(trace.sizes)}")
        print(f"witness: {list(trace.witness)}")
        if trace.depth:
            print(f"scale: {fraction_to_str(trace.scale_partial[-1])}")
            print(
                "deficiency: "
                + fraction_to_str(trace.deficiency_partial[-1])
            )
    return 0


def cmd_witness_verify_claim(args) -> int:
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
    passed = args.instances - len(failures)
    if args.output == "json":
        print(
            _dump(
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
        )
    else:
        print(f"{passed}/{args.instances} pass")
        for entry in failures:
            print(f"instance {entry['instance']} failed: {_dump(entry['report'])}")
    return 0 if not failures else 1


def cmd_witness_check_prefix(args) -> int:
    raw = _read_json(args.witness)
    witness = raw.get("witness") if isinstance(raw, dict) else raw
    if not isinstance(witness, list):
        raise ValueError(
            "witness file must be a JSON list or an object with a "
            '"witness" list'
        )
    cyl = cylinder_from_dict(_read_json(args.cylinder))
    report = is_witness_prefix(tuple(witness), cyl, budget=args.budget)
    return _print_report(report, args.output)


def _load_encoded_set(args):
    if args.encoded:
        text = _read_text(args.data)
        try:
            raw = parse_json(text)
        except ValueError as exc:  # syntax, a repeated key, an over-long integer
            raise GraphDataParseError(f"invalid JSON: {exc}") from exc
        return encoded_set_from_dict(raw)
    pairs = load_graph_data(_read_text(args.data).splitlines())
    if not pairs:
        raise ValueError("dataset is empty")
    labels = [f"line {lineno}" for lineno, _ in pairs]
    data = [gd for _, gd in pairs]
    return build_encoded_set(
        data, allow_boundary=args.allow_boundary, labels=labels
    )


def _run_on_encoded_set(args, render) -> int:
    """Load the input set and return render(set); bad data exit with 1.

    Syntax and shape errors (`GraphDataParseError`) propagate to `main`,
    which exits with 2.
    """
    try:
        es = _load_encoded_set(args)
    except GraphDataParseError:
        raise
    except ValueError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 1
    return render(es)


def _print_encoded_set(es, output: str) -> int:
    if output == "json":
        print(_dump(encoded_set_to_dict(es)))
    else:
        print(f"depth: {es.depth}")
        print(f"points: {es.size}")
        for p in es.points:
            print(" ".join(str(v) for v in p))
    return 0


def cmd_eset_build(args) -> int:
    return _run_on_encoded_set(args, lambda es: _print_encoded_set(es, args.output))


def cmd_eset_gap(args) -> int:
    return _run_on_encoded_set(
        args, lambda es: _print_report(check_pairwise_gap(es), args.output)
    )


def cmd_eset_coinflip(args) -> int:
    return _run_on_encoded_set(
        args,
        lambda es: _print_report(coinflip_bound(es, budget=args.budget), args.output),
    )


def cmd_eset_acceptance(args) -> int:
    results = run_all(seed=args.seed, budget=args.budget)
    ok = all(r.passed for r in results)
    if args.output == "json":
        print(
            _dump(
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
        )
    else:
        for r in results:
            print(f"{r.line()} ({r.elapsed:.2f}s)")
        total = sum(r.elapsed for r in results)
        passed = sum(1 for r in results if r.passed)
        print(f"{passed}/{len(results)} criteria passed in {total:.2f}s")
    return 0 if ok else 1


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
        return args.handler(args)
    except UnsupportedDepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
