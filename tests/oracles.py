"""Cylinder-set algebra, boxes, codec predicates and JSON writers that only
the tests use.

The library computes measures without building unions, intersections or
refinements of cylinder sets; the tests build them to have an enumeration
oracle for every measure kernel.  The library parses measures, specs and
cylinder sets but never writes them; the tests write them to check that
the parsers read back what they are given.
"""

from haarnull.measures import (
    CylinderSet,
    FiniteMeasureZ,
    ProductMeasureSpec,
    TailPolicy,
    UniformTail,
    lattice_points,
)
from haarnull.serialization import fraction_to_str


def _check_same_depth(a: CylinderSet, b: CylinderSet) -> None:
    if a.depth != b.depth:
        raise ValueError(
            f"depth mismatch: {a.depth} vs {b.depth}; "
            "refine to a common depth first"
        )


def union(a: CylinderSet, b: CylinderSet) -> CylinderSet:
    _check_same_depth(a, b)
    return CylinderSet(a.depth, a.prefixes + b.prefixes)


def intersect(a: CylinderSet, b: CylinderSet) -> CylinderSet:
    _check_same_depth(a, b)
    return CylinderSet(a.depth, tuple(set(a.prefixes) & set(b.prefixes)))


def expand(cyl: CylinderSet, windows) -> CylinderSet:
    """Refine every cylinder over the given per-coordinate windows.

    Appends one coordinate per window entry, enumerating all integer values
    in [lo, hi].  The prefix count multiplies by the window volume, so this
    is for small windows.
    """
    new = [s + w for s in cyl.prefixes for w in lattice_points(windows)]
    return CylinderSet(cyl.depth + len(windows), tuple(new))


def support_box(spec):
    """Per-coordinate [min support, max support] of the prefix measures."""
    return tuple((m.min_support, m.max_support) for m in spec.prefix)


def triple_in_domain(t) -> bool:
    """A `CodedTriple` inside the codec's domain: z in [0, n + 1]."""
    return 0 <= t.z <= t.n + 1


def prefix_in_support_box(p) -> bool:
    """A `PointPrefix` with every offset in the support box: g(k) in [0, a(k)]."""
    return all(0 <= gk <= ak for ak, gk in zip(p.a, p.g))


def measure_to_dict(m: FiniteMeasureZ) -> dict:
    return {
        "weights": {str(z): fraction_to_str(w) for z, w in sorted(m.weights.items())}
    }


def _tail_to_dict(tail: TailPolicy):
    if tail is None:
        return None
    if isinstance(tail, UniformTail):
        return {"kind": "uniform", "k": tail.k}
    return {"kind": "point", "z": tail.z}


def spec_to_dict(spec: ProductMeasureSpec) -> dict:
    return {
        "prefix": [measure_to_dict(m) for m in spec.prefix],
        "tail": _tail_to_dict(spec.tail),
    }


def cylinder_to_dict(cyl: CylinderSet) -> dict:
    return {"depth": cyl.depth, "prefixes": [list(s) for s in cyl.prefixes]}
