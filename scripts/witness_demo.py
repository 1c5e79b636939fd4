#!/usr/bin/env python3
"""Walk through the full pipeline on one small example, printing each stage.

Start from a two-coordinate product measure, synthesize its witness
sequence, verify the four flattening identities on a sample cylinder set,
check the witness translates of that set, and finish with the two encoded-set
checks on a tiny graph dataset.  Everything is exact, so the printed
rationals are the true values.
"""

from fractions import Fraction

from haarnull import (
    CylinderSet,
    FiniteMeasureZ,
    GraphDatum,
    ProductMeasureSpec,
    build_encoded_set,
    check_pairwise_gap,
    coinflip_bound,
    is_witness_prefix,
    shift_to_nonpositive,
    synthesize_witness,
    verify_restrict_normalize,
)
from haarnull.serialization import fraction_to_str


def show_report(report):
    print(f"  claim: {report.claim}")
    print(f"  status: {report.status}")
    if isinstance(report.lhs, dict):
        for name in report.lhs:
            print(
                f"    {name}: {fraction_to_str(report.lhs[name])} "
                f"= {fraction_to_str(report.rhs[name])}"
            )
    if report.counterexample is not None:
        print(f"  counterexample: {report.counterexample}")
    print()


def main() -> None:
    mu = ProductMeasureSpec(
        (
            FiniteMeasureZ({3: Fraction(1, 2), 5: Fraction(1, 2)}),
            FiniteMeasureZ(
                {-2: Fraction(1, 4), -1: Fraction(1, 4), 0: Fraction(1, 2)}
            ),
        )
    )
    print("coordinate supports:", [m.support for m in mu.prefix])

    trace = synthesize_witness(mu)
    print("shifts:", trace.shifts)
    print("radii:", trace.radii)
    print("sizes:", trace.sizes)
    print("witness:", trace.witness)
    print("scale:", fraction_to_str(trace.scale_partial[-1]))
    print("deficiency:", fraction_to_str(trace.deficiency_partial[-1]))
    print()

    shifted, _ = shift_to_nonpositive(mu)
    X = CylinderSet(2, ((0, 1), (2, 0), (-1, 5)))
    print("verifying the flattening identities on", X.prefixes)
    show_report(verify_restrict_normalize(shifted, trace, X))

    print("checking witness translates of the same set")
    show_report(is_witness_prefix(trace.witness, X))

    data = [
        GraphDatum((1, 2), (0, 1), (1, 2)),
        GraphDatum((1, 2), (1, 1), (0, 0)),
        GraphDatum((2, 2), (0, 0), (2, 1)),
    ]
    es = build_encoded_set(data)
    print("encoded set points:", es.points)
    show_report(check_pairwise_gap(es))
    show_report(coinflip_bound(es))


if __name__ == "__main__":
    main()
