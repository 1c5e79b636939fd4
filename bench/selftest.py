"""Show that every output check in checks.py can fail.

    python3 bench/selftest.py

For one operation of each kind, the program's real output must pass its
check, and each corrupted copy of it (an off-by-one code, a moved
counterexample, a wrong mass, a flipped verdict, ...) must be rejected.
Exits 0 only when both hold for every case.
"""

import copy
import json
import os
import random
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from checks import code_of  # noqa: E402
import haarnull as hn  # noqa: E402


def edited(obj, **fields):
    """A shallow copy of a (possibly frozen) dataclass with fields replaced."""
    out = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(out, name, value)
    return out


def with_block(out, **fields):
    """Codec output with the first block's lists edited by the given functions."""
    triples, codes, prefixes, recoded = (list(v) for v in out[0])
    block = dict(triples=triples, codes=codes, prefixes=prefixes, recoded=recoded)
    for name, edit in fields.items():
        edit(block[name])
    return [tuple(block.values())] + out[1:]


def set_item(i, value):
    def edit(items):
        items[i] = value(items[i]) if callable(value) else value

    return edit


def codec_cases(raw, out):
    (start, _), (triples, *_) = raw[0], out[0]
    t = triples[0]
    n = t.n - 1  # the first code written as if it were in the block before
    cases = {
        "a triple repeated, so not strictly increasing": with_block(
            out, triples=set_item(3, triples[2])
        ),
        "off-by-one code": with_block(out, codes=set_item(0, lambda c: c + 1)),
        "bit outside {0, 1}": with_block(
            out, triples=set_item(2, lambda t: SimpleNamespace(n=t.n, b=2, z=t.z))
        ),
        "triple in the wrong block": with_block(
            out,
            triples=set_item(
                0, SimpleNamespace(n=n, b=1, z=start - code_of(n, 1, 0))
            ),
        ),
        "offset moved by one": with_block(
            out, triples=set_item(0, hn.CodedTriple(t.n, t.b, t.z - 1))
        ),
        "decode_point differs": with_block(
            out, prefixes=set_item(1, lambda p: replace(p, g=(p.g[0] ^ 1,) + p.g[1:]))
        ),
        "encode_point off by one": with_block(
            out, recoded=set_item(0, lambda c: (c[0] + 1,) + c[1:])
        ),
    }
    # (n, 1, 0) and (n, 0, n + 2) have the same code; only the domain tells them apart.
    for i, t in enumerate(triples):
        if (t.b, t.z) == (1, 0):
            cases["offset outside [0, n + 1]"] = with_block(
                out, triples=set_item(i, SimpleNamespace(n=t.n, b=0, z=t.n + 2))
            )
    return cases


def restrict_normalize_cases(raw, out):
    trace, report = out
    d = trace.depth

    def sides(name, value, both=True):
        r = copy.deepcopy(report)
        r.lhs[name] = value
        if both:
            r.rhs[name] = value
        return trace, r

    quotient = report.lhs["restrict_normalize_quotient"]
    return {
        "size not above twice the radius": (
            edited(trace, sizes=(2 * trace.radii[0],) + trace.sizes[1:]),
            report,
        ),
        "witness not size - radius": (
            edited(trace, witness=trace.witness[:-1] + (trace.witness[-1] + 1,)),
            report,
        ),
        "deficiency below 57/100": (
            edited(trace, deficiency_partial=(Fraction(1, 2),) * d),
            report,
        ),
        "wrong size rule": (
            edited(
                trace,
                sizes=trace.sizes[:-1] + (trace.sizes[-1] + 1,),
                witness=trace.witness[:-1] + (trace.witness[-1] + 1,),
            ),
            report,
        ),
        "wrong flat box mass": sides(
            "flat_box_mass_reciprocal", report.lhs["flat_box_mass_reciprocal"] * 2
        ),
        "wrong wit(X)": sides("restrict_normalize_quotient", quotient + Fraction(1, 7)),
        "identity sides differ": sides(
            "smoothed_equals_flat_on_box",
            report.lhs["smoothed_equals_flat_on_box"] + 1,
            both=False,
        ),
        "failed status": (trace, edited(report, status="fail")),
    }


def prefix_cases(raw, out):
    if out.status == "pass":
        return {"empty set fails": edited(out, status="fail")}
    if out.status == "budget-exceeded":
        return {
            "over budget but scanned": edited(out, status="fail"),
            "wrong window volume": edited(
                out,
                parameters=dict(
                    out.parameters,
                    translates_required=out.parameters["translates_required"] + 1,
                ),
            ),
        }
    x, mass = out.counterexample["x"], out.counterexample["measure"]
    return {
        "moved counterexample": edited(
            out, counterexample={"x": (x[0] + 1,) + x[1:], "measure": mass}
        ),
        "wrong mass": edited(out, counterexample={"x": x, "measure": mass * 2}, lhs=mass * 2),
        "reported as budget-exceeded": edited(out, status="budget-exceeded"),
        "reported as passing": edited(out, status="pass"),
    }


def eset_cases(raw, out):
    es, gap, flip, built, gap_json, flip_json = out
    first = es.points[0]
    shifted = hn.EncodedSet(es.depth, (tuple(v + 1 for v in first),) + es.points[1:])
    doc = json.loads(built)
    doc["points"][0][0] += 1
    cases = {
        "point off by one": (shifted,) + out[1:],
        "build JSON off by one": out[:3] + (json.dumps(doc),) + out[4:],
        "gap verdict flipped": consistent(out, 1, status=other(gap.status)),
    }
    if gap.status == "pass":
        cases["coin-flip fails after a gap pass"] = consistent(out, 2, status="fail")
    else:
        r = flip.counterexample["r"]
        moved = dict(flip.counterexample, r=(r[0] - 1,) + tuple(r[1:]))
        cases["coin-flip translate moved"] = consistent(out, 2, counterexample=moved)
        p, q = gap.counterexample["points"]
        wide = dict(gap.counterexample, points=[p, tuple(v + 2 for v in q)])
        cases["gap pair 2-separated"] = consistent(out, 1, counterexample=wide)
        args = gap.counterexample["arguments"]
        same = dict(gap.counterexample, arguments=[args[0], args[0]])
        cases["gap pair shares its argument"] = consistent(out, 1, counterexample=same)
    return cases


def other(status):
    return "pass" if status == "fail" else "fail"


def consistent(out, i, **fields):
    """eset output with report i (1 gap, 2 coin-flip) edited, and its JSON too."""
    report = edited(out[i], **fields)
    out = list(out)
    out[i], out[i + 3] = report, report.to_json()
    return tuple(out)


CASES = {
    "gate-block": codec_cases,
    "huge-scan": codec_cases,
    "restrict-normalize": restrict_normalize_cases,
    "prefix-scan": prefix_cases,
    "prefix-short": prefix_cases,
    "prefix-empty": prefix_cases,
    "prefix-over-budget": prefix_cases,
    "small-dataset": eset_cases,
    "large-dataset": eset_cases,
    "boundary-control": eset_cases,
}


def main():
    failures = 0
    for plan in workloads.PLANS.values():
        first = {}
        for kind, raw in plan(random.Random(1)):
            first.setdefault(kind, raw)
        if "gate-block" in first:
            # A block that crosses from the b = 0 half into the b = 1 half.
            first["gate-block"] = ((code_of(700, 1, 0) - 100, 256),)
        for kind, raw in first.items():
            build, call = workloads.KINDS[kind]
            check = checks.checker(kind, workloads.PREFIX_BUDGET)
            out = call(hn, build(hn, raw))
            try:
                check(raw, out)
                print(f"ok    {kind}: the real output passes")
            except checks.Mismatch as exc:
                failures += 1
                print(f"FAIL  {kind}: the real output is rejected: {exc}")
            for name, bad in CASES[kind](raw, out).items():
                try:
                    check(raw, bad)
                except Exception as exc:
                    print(f"ok    {kind}: {name} is rejected ({exc})")
                else:
                    failures += 1
                    print(f"FAIL  {kind}: {name} is accepted")
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
