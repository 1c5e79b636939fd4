"""Output checks, computed apart from the program.

Each check takes the planned input (plain values from workloads.py) and the
program's output, recomputes what the output must be with the benchmark's
own arithmetic or tests a property the method must have, and raises
`Mismatch` at the first difference.  No check compares against a stored
copy of an earlier output.  `selftest.py` feeds every check corrupted
outputs to show that it can fail.

This module is imported only after haarnull has been set up, so that the
standard modules it shares with the program are loaded by the program.
"""

import json
from fractions import Fraction

DEFICIENCY_FLOOR = Fraction(57, 100)


class Mismatch(Exception):
    """An output differs from what the benchmark computed for it."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def code_of(n, b, z):
    return (n - 1) * (n + 4) + b * (n + 2) + z


def _is_int(v):
    return type(v) is int


# ---------------------------------------------------------------- codec-scan


def check_codec(raw, out):
    expect(len(out) == len(raw), "one result per block")
    for block, result in zip(raw, out):
        check_block(block, result)


def check_block(raw, out):
    start, length = raw
    triples, codes, prefixes, recoded = out
    expect(len(triples) == len(codes) == length, "block length differs")
    prev = None
    for m, t, code in zip(range(start, start + length), triples, codes):
        n, b, z = t.n, t.b, t.z
        where = f"decode({m}) = ({n}, {b}, {z})"
        expect(prev is None or prev < (n, b, z), f"{where} does not follow {prev}")
        expect(code == m, f"encode of {where} gives {code}")
        expect(_is_int(b) and b in (0, 1), f"{where}: bit not in {{0, 1}}")
        expect((n - 1) * (n + 4) <= m < n * (n + 5), f"{where}: wrong block")
        expect(_is_int(z) and 0 <= z <= n + 1, f"{where}: offset outside [0, n + 1]")
        expect(code_of(n, b, z) == m, f"{where}: formula gives {code_of(n, b, z)}")
        prev = (n, b, z)
    depth = len(recoded[0]) if recoded else 0
    expect(depth * len(prefixes) == length, "points do not cover the block")
    for i, (p, back) in enumerate(zip(prefixes, recoded)):
        part = triples[i * depth : (i + 1) * depth]
        first = start + i * depth
        expect(
            (p.a, p.x, p.g)
            == (
                tuple(t.n for t in part),
                tuple(t.b for t in part),
                tuple(t.z for t in part),
            ),
            f"decode_point at {first} differs from decode",
        )
        expect(back == tuple(range(first, first + depth)), f"point at {first}")


# ------------------------------------------------------------ witness-verify


def check_restrict_normalize(raw, out):
    coords, prefixes = raw
    trace, report = out
    d = len(coords)
    shifts = tuple(max(c) for c in coords)
    radii = tuple(max(c) - min(c) for c in coords)
    sizes = tuple(max(2 * r + 1, (1 << (n + 2)) * r) for n, r in enumerate(radii))
    witness = tuple(s - r for s, r in zip(sizes, radii))
    for n in range(d):
        size, radius = trace.sizes[n], trace.radii[n]
        expect(size > 2 * radius, f"size {size} not > 2 * {radius} at {n}")
        expect(trace.witness[n] == size - radius, f"witness is not size - radius at {n}")
        expect(
            trace.deficiency_partial[n] >= DEFICIENCY_FLOOR,
            f"deficiency partial {n} below 57/100",
        )
    expect(trace.shifts == shifts, f"shifts {trace.shifts}, expected {shifts}")
    expect(trace.radii == radii, f"radii {trace.radii}, expected {radii}")
    expect(trace.sizes == sizes, f"sizes {trace.sizes}, expected {sizes}")
    expect(trace.witness == witness, f"witness {trace.witness}, expected {witness}")
    scale = defic = Fraction(1)
    for n in range(d):
        scale *= Fraction(sizes[n] + 1, witness[n] + 1)
        defic *= 1 - Fraction(radii[n], sizes[n] + 1)
        expect(trace.scale_partial[n] == scale, f"scale partial {n}")
        expect(trace.deficiency_partial[n] == defic, f"deficiency partial {n}")

    expect(report.status == "pass", f"restrict-normalize status {report.status}")
    expect(report.depth == d, f"report depth {report.depth}")
    for name in (
        "smoothed_equals_flat_on_box",
        "scaling_recovers_witness",
        "flat_box_mass_reciprocal",
        "restrict_normalize_quotient",
    ):
        expect(report.lhs[name] == report.rhs[name], f"{name}: sides differ")
    flat_box = Fraction(1)
    for s, w in zip(sizes, witness):
        flat_box *= Fraction(w + 1, s + 1)
    expect(report.lhs["flat_box_mass_reciprocal"] == flat_box, "flat box mass")
    wit_x = Fraction(0)
    cell = Fraction(1)
    for w in witness:
        cell /= w + 1
    for s in set(prefixes):
        if all(0 <= v <= w for v, w in zip(s, witness)):
            wit_x += cell
    expect(report.lhs["restrict_normalize_quotient"] == wit_x, "wit(X)")
    expect(report.parameters["cylinders"] == len(set(prefixes)), "cylinder count")


def check_prefix(raw, out, budget):
    witness, depth, prefixes = raw
    report = out
    cyl = set(prefixes)
    if not cyl:
        expect(report.status == "pass", f"empty set: status {report.status}")
        expect(report.parameters["translates_checked"] == 0, "empty set scanned")
        return
    volume = 1
    for n, w in enumerate(witness):
        volume *= w + max(s[n] for s in cyl) - min(s[n] for s in cyl) + 1
    if volume > budget:
        expect(report.status == "budget-exceeded", f"status {report.status}")
        expect(report.parameters["translates_required"] == volume, "window volume")
        return
    x = tuple(-v for v in max(cyl))
    hits = sum(
        all(0 <= s[n] + x[n] <= w for n, w in enumerate(witness)) for s in cyl
    )
    cells = 1
    for w in witness:
        cells *= w + 1
    mass = Fraction(hits, cells)
    expect(report.status == "fail", f"status {report.status} within the budget")
    expect(
        report.counterexample == {"x": x, "measure": mass},
        f"counterexample {report.counterexample}, expected x={x} mass {mass}",
    )
    expect(report.lhs == mass and report.rhs == 0, "reported sides")


# ---------------------------------------------------------------- eset-jsonl


def _close(p, q):
    return all(abs(u - v) <= 1 for u, v in zip(p, q))


def check_eset(raw, out):
    text, allow_boundary, data = raw
    es, gap, flip, built, gap_json, flip_json = out
    depth = len(data[0][0])
    points = sorted({tuple(map(code_of, *datum)) for datum in data})
    expect(es.depth == depth, f"depth {es.depth}, expected {depth}")
    expect(list(es.points) == points, "encoded points differ")
    expect(
        json.loads(built) == {"depth": depth, "points": [list(p) for p in points]},
        "build JSON differs",
    )
    expect(json.loads(gap_json)["status"] == gap.status, "gap JSON status")
    expect(json.loads(flip_json)["status"] == flip.status, "coin-flip JSON status")

    # The arguments (a, x) are distinct, so any pair within 1 in every
    # coordinate is a failure of the gap property.
    close = any(
        _close(points[i], points[j])
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )
    expect(gap.status == ("fail" if close else "pass"), f"gap status {gap.status}")
    if gap.status == "pass":
        expect(flip.status == "pass", f"coin-flip {flip.status} after a gap pass")
    if not allow_boundary:
        return

    expect(gap.status == "fail", "control passes the gap check")
    expect(flip.status == "fail", "control passes the coin-flip check")
    p, q = gap.counterexample["points"]
    expect(_close(p, q), f"gap pair {p}, {q} is 2-separated")
    args = gap.counterexample["arguments"]
    expect(
        (args[0]["a"], args[0]["x"]) != (args[1]["a"], args[1]["x"]),
        "gap pair shares its argument",
    )
    for pt, arg in zip((p, q), args):
        datum = next(dt for dt in data if tuple(map(code_of, *dt)) == tuple(pt))
        expect((datum[0], datum[1]) == (arg["a"], arg["x"]), "gap pair argument")
    r = flip.counterexample["r"]
    hits = [tuple(h) for h in flip.counterexample["hits"]]
    landed = [
        pt for pt in points if all(0 <= v + rk <= 1 for v, rk in zip(pt, r))
    ]
    expect(len(hits) >= 2, f"coin-flip lists {len(hits)} hits")
    expect(sorted(hits) == landed, f"translate {r} lands {landed}, listed {hits}")


def checker(kind, budget):
    """The check for one kind of operation: check(raw, out) raises Mismatch."""
    if kind in ("gate-block", "huge-scan"):
        return check_codec
    if kind == "restrict-normalize":
        return check_restrict_normalize
    if kind.startswith("prefix-"):
        return lambda raw, out: check_prefix(raw, out, budget)
    return check_eset
