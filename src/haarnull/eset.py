"""Encoded graph sets and their two separation checkers.

A graph datum is a depth-d prefix of (sizes a, bits x, offsets g) with each
offset in the codec domain [0, a(k) + 1].  Encoding it coordinatewise gives
one point of an `EncodedSet`.  Two properties of such sets are checked
here, exactly and deterministically:

  pairwise gap    every two points differ by at least 2 in some coordinate
  coin-flip bound no integer translate of the set meets {0, 1}^d twice

The gap property is what makes the coin-flip bound work, and the bound is
what makes translates of the encoded set small under every product of
fair coin measures.  Both come down to one question, whether some pair of
points is within 1 in every coordinate, so both checkers read one sweep
over the sorted points that compares only pairs whose first coordinates
differ by at most 1, computed once per set.  The coin-flip bound is then
closed form: its lex-least counterexample is read off the close pairs.
Both checkers return `VerificationReport` values.  The coin-flip check
carries a budget on the pairs the sweep compares; it counts them from the
first coordinates alone and reports a count over budget as exhaustion
without sweeping.

Input errors come in two kinds.  `GraphDataParseError` marks input not
shaped like graph data or an encoded set; `DatasetError` marks
well-shaped input whose values break an invariant.  Both are
`ValueError`s; the command line exits 2 for the first and 1 for the
second.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .codec import PointPrefix, decode_point, encode_point
from .report import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    FAIL,
    PASS,
    VerificationReport,
    check_budget,
)
from .serialization import JSON_WHITESPACE, parse_json

__all__ = [
    "DatasetError",
    "GraphDataParseError",
    "GraphDatum",
    "EncodedSet",
    "build_encoded_set",
    "check_pairwise_gap",
    "coinflip_bound",
    "load_graph_data",
    "graph_datum_from_dict",
    "encoded_set_to_dict",
    "encoded_set_from_dict",
    "DEFAULT_BUDGET",
]


class GraphDataParseError(ValueError):
    """Input that is not even shaped like a graph datum or an encoded set.

    Raised for JSON syntax errors, wrong-shape objects and entries that are
    not JSON integers.  The command line treats it like any other
    `ValueError` (exit code 2); only `DatasetError` sets a file apart as
    well-formed but with bad data.
    """


class DatasetError(ValueError):
    """Well-formed graph data or an encoded set whose values break an invariant.

    Raised for an offset outside the codec domain, a size below 1 or a bit
    outside {0, 1} (with the line number, from `load_graph_data`); for no
    data, mixed depths, boundary offsets and repeated arguments (a, x)
    (from `build_encoded_set`); and for negative depths or codes and
    points of the wrong length (from `encoded_set_from_dict`).
    """


class GraphDatum(PointPrefix):
    """One sample of a graph: sizes a, bits x, and offsets g, all depth d.

    A frozen `PointPrefix` whose constructor also demands the codec domain,
    g(k) in [0, a(k) + 1]; the component checks (a(k) >= 1, x(k) in
    {0, 1}, equal lengths) are the base class's.  The tighter support-box
    condition g(k) <= a(k) is `build_encoded_set`'s to test, not a
    constructor constraint, so boundary data (used as negative controls for
    the checkers) remain expressible.  A datum never equals a plain
    `PointPrefix` with the same fields.
    """

    def __post_init__(self):
        super().__post_init__()
        if not self.in_domain:
            raise ValueError(
                f"offsets {self.g} leave the codec domain for sizes {self.a}"
            )


@dataclass(frozen=True)
class EncodedSet:
    """A finite set of depth-d encoded points, sorted and deduplicated.

    Points are tuples of nonnegative codes; the constructor checks only
    that structure, so sets loaded from raw point lists (not just built
    from graph data) are representable.  The close-pair sweep both
    checkers read is computed once per set, on first use.
    """

    depth: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.depth, int) or isinstance(self.depth, bool):
            raise ValueError(f"depth must be an integer, got {self.depth!r}")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        canon = set()
        for p in self.points:
            t = tuple(p)
            if len(t) != self.depth:
                raise ValueError(
                    f"point {t} has length {len(t)}, expected depth {self.depth}"
                )
            for v in t:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"code must be an integer, got {v!r}")
                if v < 0:
                    raise ValueError(f"code must be >= 0, got {v}")
            canon.add(t)
        object.__setattr__(self, "points", tuple(sorted(canon)))

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def _sweep(self) -> list[tuple[int, int]]:
        """`_close_pairs` of the points."""
        return _close_pairs(self.points)


def _trusted_encoded_set(depth: int, points: tuple[tuple[int, ...], ...]) -> EncodedSet:
    """Wrap points that are already in canonical form.

    The caller guarantees sorted, distinct tuples of `depth` nonnegative
    integer codes.  Skips `__post_init__`; the result is indistinguishable
    from EncodedSet(depth, points) under ==, hash and repr.
    """
    es = object.__new__(EncodedSet)
    fields = es.__dict__
    fields["depth"] = depth
    fields["points"] = points
    return es


def build_encoded_set(
    data: Sequence[GraphDatum],
    allow_boundary: bool = False,
    labels: Optional[Sequence[str]] = None,
) -> EncodedSet:
    """Encode a family of graph data into an `EncodedSet`.

    All data must share one depth and have pairwise distinct (a, x)
    arguments (two values for one argument is not a graph).  Offsets must
    stay inside the support box unless `allow_boundary` is set.  `labels`
    customizes how data are named in error messages; the default is their
    1-based position.  A violation raises `DatasetError`.
    """
    if not data:
        raise DatasetError("cannot build an encoded set from no data")
    names = (
        list(labels)
        if labels is not None
        else [f"datum {i + 1}" for i in range(len(data))]
    )
    if len(names) != len(data):
        raise ValueError(f"{len(names)} labels for {len(data)} data")
    depth = data[0].depth
    seen: dict[tuple, int] = {}
    points = []
    for i, gd in enumerate(data):
        if gd.depth != depth:
            raise DatasetError(
                f"{names[i]} has depth {gd.depth}, expected {depth}"
            )
        if not allow_boundary:
            for n, z in zip(gd.a, gd.g):
                if not 0 <= z <= n:
                    raise DatasetError(
                        f"{names[i]} has an offset at a size + 1 boundary; "
                        "boundary offsets must be allowed explicitly"
                    )
        first = seen.setdefault((gd.a, gd.x), i)
        if first != i:
            raise DatasetError(
                f"{names[i]} repeats the argument (a, x) of {names[first]}"
            )
        points.append(encode_point(gd))
    # The data share one depth and their offsets lie in the codec domain,
    # where encoding is injective, so distinct arguments give distinct points.
    points.sort()
    return _trusted_encoded_set(depth, tuple(points))


def _close_pairs(points: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j, of sorted points within 1 in every coordinate,
    in (i, j) order.

    Sorted points have nondecreasing first coordinates, so for each i only
    the j with points[j][0] <= points[i][0] + 1 are compared; `_pairs_compared`
    counts them.
    """
    close = []
    for i in range(len(points) - 1):
        p = points[i]
        top = p[0] + 1
        for j in range(i + 1, len(points)):
            q = points[j]
            if q[0] > top:
                break
            for pv, qv in zip(p, q):
                if not -1 <= pv - qv <= 1:
                    break
            else:
                close.append((i, j))
    return close


def _pairs_compared(points: Sequence[tuple[int, ...]]) -> int:
    """The number of pairs `_close_pairs` compares: the (i, j), i < j, of
    sorted points with points[j][0] <= points[i][0] + 1.

    With rest the sorted first codes of points[1:], point i is compared
    with the points whose first codes are rest[i:bisect_right(rest,
    points[i][0] + 1)].  Fewer than two points, as in every depth-0 set,
    compare none.
    """
    rest = [q[0] for q in points[1:]]
    return sum(bisect_right(rest, p[0] + 1) - i for i, p in enumerate(points[:-1]))


def check_pairwise_gap(es: EncodedSet) -> VerificationReport:
    """Check that every pair of points is 2-separated in some coordinate.

    A pair whose coordinates all differ by at most 1 cannot be separated at
    this depth.  If its decoded (a, x) arguments also agree at every
    coordinate, deeper coordinates of the underlying sequences could still
    separate it, so the pair is reported as undecidable rather than failed;
    if the arguments differ somewhere, the separation was supposed to
    appear at such a coordinate, and the pair is a counterexample.  Only
    the close pairs are decoded; every other pair counts as decided.
    """
    close = es._sweep
    undecidable = []
    failure = None
    for i, j in close:
        p, q = es.points[i], es.points[j]
        dp, dq = decode_point(p), decode_point(q)
        same_arg = dp.a == dq.a and dp.x == dq.x
        if same_arg:
            undecidable.append({"points": [p, q]})
        elif failure is None:
            failure = {
                "points": [p, q],
                "arguments": [
                    {"a": dp.a, "x": dp.x},
                    {"a": dq.a, "x": dq.x},
                ],
                "max_coordinate_gap": max(
                    (abs(pv - qv) for pv, qv in zip(p, q)), default=0
                ),
            }
    return VerificationReport(
        claim="pairwise-gap",
        status=FAIL if failure else PASS,
        depth=es.depth,
        lhs=failure["max_coordinate_gap"] if failure else None,
        rhs=2 if failure else None,
        counterexample=failure,
        parameters={
            "points": es.size,
            "decided_pairs": es.size * (es.size - 1) // 2 - len(close),
            "undecidable_pairs": undecidable,
        },
    )


def coinflip_bound(es: EncodedSet, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Check that no translate of the point set hits {0, 1}^d twice.

    A translate r puts both p and q in {0, 1}^d exactly when
    -min(p_k, q_k) <= r_k <= 1 - max(p_k, q_k) at every coordinate k, a box
    that is nonempty exactly when the pair is close (within 1 everywhere).
    So the bound fails exactly when some pair is close, and the
    lexicographically least translate with two or more hits is the least
    lower corner tuple(-min(p_k, q_k)) over the close pairs; its hits are
    the points it maps into the cube.  `budget` caps the pairs the sweep
    compares, counted before it runs.  `nodes_visited` is that count, and a
    count over budget is reported as budget-exceeded with `nodes_visited`
    budget + 1 and no sweep; otherwise the set's own sweep is read.  The
    translate search this replaces is kept as the independent oracle
    `acceptance._coinflip_search_oracle`.
    """
    check_budget(budget)
    points = es.points
    compared = min(_pairs_compared(points), budget + 1)
    close = es._sweep if compared <= budget else None
    parameters = {"points": es.size, "budget": budget, "nodes_visited": compared}
    if not close:  # no close pair, or None: the budget ran out first
        return VerificationReport(
            claim="coinflip-bound",
            status=BUDGET_EXCEEDED if close is None else PASS,
            depth=es.depth,
            parameters=parameters,
        )
    r = min(
        tuple(-min(pv, qv) for pv, qv in zip(points[i], points[j])) for i, j in close
    )
    hits = [p for p in points if all(0 <= pv + rk <= 1 for pv, rk in zip(p, r))]
    return VerificationReport(
        claim="coinflip-bound",
        status=FAIL,
        depth=es.depth,
        lhs=len(hits),
        rhs=1,
        counterexample={"r": r, "hits": hits},
        parameters=parameters,
    )


def load_graph_data(lines: Iterable[str]) -> list[tuple[int, GraphDatum]]:
    """Parse JSON-lines graph data into (line number, datum) pairs.

    Each line must be an object with integer-list fields "a", "x", and "g",
    or blank: empty or only JSON whitespace (space, tab, CR, LF).  Errors
    carry the 1-based line number of the offending line; syntax and shape
    problems (a repeated key and an integer literal too long to convert
    among them) raise `GraphDataParseError`, value-level problems
    `DatasetError`.
    """
    out = []
    for lineno, line in enumerate(lines, start=1):
        # A blank line fails to parse, so only a failed parse tests for one.
        try:
            raw = parse_json(line)
        except ValueError as exc:
            if not line.strip(JSON_WHITESPACE):
                continue
            raise GraphDataParseError(
                f"line {lineno}: invalid JSON: {exc}"
            ) from exc
        try:
            out.append((lineno, graph_datum_from_dict(raw)))
        except GraphDataParseError as exc:
            raise GraphDataParseError(f"line {lineno}: {exc}") from exc
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
    return out


_DATUM_FIELDS = ("a", "x", "g")
_DATUM_KEYS = frozenset(_DATUM_FIELDS)


def graph_datum_from_dict(d: dict) -> GraphDatum:
    """Parse a graph datum: an object of three equally long lists of JSON
    integers, sizes a(k) >= 1, bits x(k) in {0, 1} and offsets g(k) in the
    codec domain [0, a(k) + 1].

    Valid input is checked in one pass and built without `GraphDatum`'s
    checks, which it has just passed; anything else goes through
    `_checked_graph_datum_from_dict`, which names the first fault.
    """
    if type(d) is dict and d.keys() == _DATUM_KEYS:
        a, x, g = d["a"], d["x"], d["g"]
        if (
            type(a) is list
            and type(x) is list
            and type(g) is list
            and len(a) == len(x) == len(g)
        ):
            for n, b, z in zip(a, x, g):
                # JSON integers only; bool is a subclass of int
                if not (
                    type(n) is int
                    and type(b) is int
                    and type(z) is int
                    and n >= 1
                    and 0 <= b <= 1
                    and 0 <= z <= n + 1
                ):
                    break
            else:
                # indistinguishable from GraphDatum(a, x, g) under ==, hash
                # and repr, as in `codec.decode_point`
                gd = object.__new__(GraphDatum)
                fields = gd.__dict__
                fields["a"] = tuple(a)
                fields["x"] = tuple(x)
                fields["g"] = tuple(g)
                return gd
    return _checked_graph_datum_from_dict(d)


def _checked_graph_datum_from_dict(d) -> GraphDatum:
    """Parse a graph datum: JSON types here, values in `GraphDatum`."""
    if not isinstance(d, dict):
        raise GraphDataParseError(f"expected an object, got {d!r}")
    if d.keys() != _DATUM_KEYS:
        missing = [key for key in _DATUM_FIELDS if key not in d]
        if missing:
            raise GraphDataParseError(f"missing fields: {', '.join(missing)}")
        extra = sorted(set(d) - _DATUM_KEYS)
        raise GraphDataParseError(f"unknown fields: {', '.join(extra)}")
    fields = []
    for key in _DATUM_FIELDS:
        value = d[key]
        if not isinstance(value, list):
            raise GraphDataParseError(f'field "{key}" must be a list, got {value!r}')
        for v in value:
            if type(v) is not int:  # JSON integers only; bool is a subclass
                raise GraphDataParseError(
                    f'field "{key}" entries must be integers, got {v!r}'
                )
        fields.append(tuple(value))
    return GraphDatum(*fields)


def encoded_set_to_dict(es: EncodedSet) -> dict:
    return {"depth": es.depth, "points": [list(p) for p in es.points]}


def encoded_set_from_dict(d: dict) -> EncodedSet:
    """Parse an encoded set.

    Shape errors raise `GraphDataParseError`, and values that `EncodedSet`
    rejects raise `DatasetError`.  One pass over the codes checks their
    type, the point lengths and the signs; valid input is sorted,
    deduplicated and wrapped without a second check, and any other input
    goes through `EncodedSet`, which names its first fault.
    """
    if not isinstance(d, dict) or set(d) != {"depth", "points"}:
        raise GraphDataParseError(
            'expected an object with fields "depth" and "points"'
        )
    depth = d["depth"]
    if type(depth) is not int:
        raise GraphDataParseError(f'field "depth" must be an integer, got {depth!r}')
    points = d["points"]
    if not isinstance(points, list) or not all(isinstance(p, list) for p in points):
        raise GraphDataParseError('field "points" must be a list of point lists')
    valid = depth >= 0
    for p in points:
        if len(p) != depth:
            valid = False
        for v in p:
            if type(v) is not int:
                raise GraphDataParseError(f"codes must be integers, got {v!r}")
            if v < 0:
                valid = False
    if valid:
        return _trusted_encoded_set(depth, tuple(sorted(set(map(tuple, points)))))
    try:
        return EncodedSet(depth, tuple(tuple(p) for p in points))
    except ValueError as exc:
        raise DatasetError(str(exc)) from exc
