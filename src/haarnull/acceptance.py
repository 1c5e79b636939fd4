"""Acceptance criteria: the checks that gate a release of this library.

`CRITERIA` is the battery, one entry per criterion: its key, its
description, its check, and its wall-clock limit in seconds (or None).  A
check is a private function `(seed) -> (failures, detail)` that
runs at the release parameters, the module constants below.  `run_all` is
the one runner.  It gives the check at position i (counting from 1) the
seed `seed * 1_000_003 + i`, so the whole battery is reproducible from one
integer; it times each check once, fails a gated check that reaches its
limit and appends ` in X.XXs (limit Ns)` to that check's detail, and
reports the first three failures, or else the detail.  A check that raises
fails with `raised <type>: <message>`, and the battery goes on to the next
check.  Criteria either re-verify exact identities on randomized instances,
compare fast implementations against deliberately naive oracles, or pin
down documented constants.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterator, Optional, Sequence

from .codec import decode, encode, separation_gap
from .eset import (
    DatasetError,
    EncodedSet,
    GraphDatum,
    build_encoded_set,
    check_pairwise_gap,
    coinflip_bound,
    load_graph_data,
)
from .measures import (
    CylinderSet,
    FiniteMeasureZ,
    ProductMeasureSpec,
    box_intersection_measure,
    convolve,
    lattice_points,
    translate_measure,
    uniform,
    uniform_product_spec,
)
from .report import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    FAIL,
    PASS,
    VerificationReport,
    check_budget,
)
from .witness import (
    DEFICIENCY_LOWER_BOUND,
    SynthesisTrace,
    is_witness_prefix,
    shift_to_nonpositive,
    synthesize_witness,
    verify_restrict_normalize,
)

__all__ = [
    "CRITERIA",
    "CriterionResult",
    "codec_roundtrip_scan",
    "restrict_normalize_instances",
    "random_coordinate_measure",
    "random_cylinder",
    "random_graph_dataset",
    "convolve_oracle",
    "run_all",
]

# The release parameters: the battery runs at these values only.
CODEC_CODES = 10**6  # codes scanned by codec-roundtrip and order-isomorphism
RECURRENCE_SIZES = 10**4
GAP_SIZES = 20  # triples of sizes 1..20 for separation-gap
RESTRICT_NORMALIZE_INSTANCES = 100
RESTRICT_NORMALIZE_DEPTH = 5
RESTRICT_NORMALIZE_ORACLE_VOLUME = 1000  # largest witness box the oracle enumerates
CONVOLUTION_PAIRS = 1000
DEFICIENCY_SEQUENCES = 100
GRAPH_DATASETS = 100
PREFIX_INSTANCES = 50


@dataclass
class CriterionResult:
    """Outcome of one acceptance criterion."""

    key: str
    description: str
    passed: bool
    detail: str
    elapsed: float

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"[{self.status}] {self.key}: {self.detail}"


def _roundtrip_failure(triple: tuple[int, int, int], code: int) -> str:
    return (
        f"triple {triple} encodes to {encode(*triple)}, "
        f"code {code} decodes to {decode(code).as_tuple()}"
    )


def codec_roundtrip_scan(limit: int) -> tuple[int, Optional[str]]:
    """Walk the codec's domain triples in lex order, counting them with m,
    and stop at the first failure or at m = limit.

    The triples are n from 1, b in {0, 1}, z in 0..n+1, and the m-th of them
    must encode to m while m decodes back to it: one `encode` and one
    `decode` per code.  A pass says both directions are mutually inverse
    below `limit` and that `encode` counts the domain up from 0 without a
    gap.  Returns the number of triples round-tripped before the failure
    (`limit` on a pass) and the failure, or None.
    """
    m = 0
    for n in itertools.count(1):
        for b in (0, 1):
            for z in range(n + 2):
                if m >= limit:
                    return m, None
                if encode(n, b, z) != m or decode(m).as_tuple() != (n, b, z):
                    return m, _roundtrip_failure((n, b, z), m)
                m += 1


def _random_weights(rng: Random, support) -> FiniteMeasureZ:
    """Random weights 1..9 on the sorted support, normalized to mass 1."""
    weights = {z: rng.randint(1, 9) for z in sorted(support)}
    total = sum(weights.values())
    return FiniteMeasureZ({z: Fraction(w, total) for z, w in weights.items()})


def random_coordinate_measure(rng: Random) -> FiniteMeasureZ:
    """A random rational measure whose support spans [shift - radius, shift],
    with radius at most 3."""
    radius = rng.randint(0, 3)
    shift = rng.randint(-3, 3)
    support = {shift - radius, shift}
    for z in range(shift - radius + 1, shift):
        if rng.random() < 0.5:
            support.add(z)
    return _random_weights(rng, support)


def random_cylinder(
    rng: Random, box: Sequence[tuple[int, int]], max_prefixes: int = 8
) -> CylinderSet:
    """A random cylinder set with entries in and slightly around the box."""
    count = rng.randint(1, max_prefixes)
    prefixes = tuple(
        tuple(rng.randint(lo - 2, hi + 2) for lo, hi in box) for _ in range(count)
    )
    return CylinderSet(len(box), prefixes)


def restrict_normalize_instances(
    seed: int, instances: int, max_depth: int
) -> Iterator[tuple[int, tuple, VerificationReport]]:
    """Check the flattening identities on random instances of depth <= max_depth.

    Each instance draws a spec, synthesizes its witness, and verifies a
    random cylinder set around the witness box (about 3 in 10 of them
    cut to a random depth).  Yields (index, (shifted spec, trace, cylinder
    set), report) triples.
    """
    rng = Random(seed)
    for i in range(instances):
        d = rng.randint(1, max_depth)
        spec = ProductMeasureSpec(
            tuple(random_coordinate_measure(rng) for _ in range(d))
        )
        trace = synthesize_witness(spec)
        shifted, _ = shift_to_nonpositive(spec)
        box = tuple((0, w) for w in trace.witness)
        X = random_cylinder(rng, box[: d if rng.random() < 0.7 else rng.randint(0, d)])
        yield i, (shifted, trace, X), verify_restrict_normalize(shifted, trace, X)


def _explicit_uniform(k: int) -> FiniteMeasureZ:
    """uniform({0..k}) through the checking constructor, not the builder."""
    return FiniteMeasureZ(dict.fromkeys(range(k + 1), Fraction(1, k + 1)))


def _enumerated_measure(
    coords: Sequence[FiniteMeasureZ],
    box: Sequence[tuple[int, int]],
    X: Optional[CylinderSet] = None,
) -> Fraction:
    """Sum of the product of the coordinate masses over the lattice points
    of the box, or over those that lie in X."""
    members = None if X is None else set(X.prefixes)
    total = Fraction(0)
    for y in lattice_points(box):
        if members is None or y[: X.depth] in members:
            mass = Fraction(1)
            for m, v in zip(coords, y):
                mass *= m.mass(v)
            total += mass
    return total


def _restrict_normalize_oracle(
    mu: ProductMeasureSpec, trace: SynthesisTrace, X: CylinderSet
) -> Optional[tuple[dict, dict]]:
    """Both sides of the four flattening identities, recomputed naively.

    nu comes from `convolve_oracle`, the uniform measures from the checking
    constructor, and every box and cylinder sum from enumerating lattice
    points, so neither `uniform`, `convolve`, `measure_of` nor
    `box_intersection_measure` takes part.  Returns (lhs, rhs) keyed
    as in the verifier's report, or None when the witness box holds more
    than RESTRICT_NORMALIZE_ORACLE_VOLUME points.
    """
    box = tuple((0, w) for w in trace.witness)
    volume = 1
    for w in trace.witness:
        volume *= w + 1
    if volume > RESTRICT_NORMALIZE_ORACLE_VOLUME:
        return None
    flat = [_explicit_uniform(s) for s in trace.sizes]
    wit = [_explicit_uniform(w) for w in trace.witness]
    nu = [convolve_oracle(m, u) for m, u in zip(mu.prefix, flat)]
    scale = trace.scale_partial[-1]
    nu_xb = _enumerated_measure(nu, box, X)
    flat_xb = _enumerated_measure(flat, box, X)
    wit_support = [(m.min_support, m.max_support) for m in wit[: X.depth]]
    lhs = {
        "smoothed_equals_flat_on_box": nu_xb,
        "scaling_recovers_witness": _enumerated_measure(wit, box, X),
        "flat_box_mass_reciprocal": _enumerated_measure(flat, box),
        "restrict_normalize_quotient": _enumerated_measure(wit, wit_support, X),
    }
    rhs = {
        "smoothed_equals_flat_on_box": flat_xb,
        "scaling_recovers_witness": scale * flat_xb,
        "flat_box_mass_reciprocal": 1 / scale,
        "restrict_normalize_quotient": nu_xb / _enumerated_measure(nu, box),
    }
    return lhs, rhs


def convolve_oracle(p: FiniteMeasureZ, q: FiniteMeasureZ) -> FiniteMeasureZ:
    """Naive convolution: tabulate every outcome pair of two independent draws."""
    out: dict[int, Fraction] = {}
    for x in p.support:
        for y in q.support:
            out[x + y] = out.get(x + y, Fraction(0)) + p.mass(x) * q.mass(y)
    return FiniteMeasureZ(out)


def random_measure(rng: Random) -> FiniteMeasureZ:
    """A random rational measure on at most 12 points of [-8, 8]."""
    count = rng.randint(1, 12)
    return _random_weights(rng, rng.sample(range(-8, 9), count))


def random_graph_dataset(rng: Random) -> list[GraphDatum]:
    """Random graph data at one depth d <= 4, with sizes at most 3, at most
    50 data, and pairwise distinct arguments."""
    d = rng.randint(1, 4)
    want = min(rng.randint(2, 50), 6**d)
    args = set()
    data = []
    while len(data) < want:
        a = tuple(rng.randint(1, 3) for _ in range(d))
        x = tuple(rng.randint(0, 1) for _ in range(d))
        if (a, x) in args:
            continue
        args.add((a, x))
        g = tuple(rng.randint(0, ak) for ak in a)
        data.append(GraphDatum(a, x, g))
    return data


def _coinflip_search_oracle(
    es: EncodedSet, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Search translates r coordinate by coordinate for two hits in {0, 1}^d.

    Keeps only the points still landing in {0, 1} on every chosen
    coordinate and prunes once fewer than two survive.  Candidate values at
    coordinate k are the finitely many r(k) that keep some survivor in
    {0, 1}, visited in increasing order, so a reported counterexample is the
    lexicographically least translate with two or more hits.  Each
    candidate visit costs one unit of budget; exhaustion yields a
    budget-exceeded report.  The search keeps its own stack, so its depth
    is not bounded by Python's recursion limit.  It is the independent
    check of the closed-form `coinflip_bound`.
    """
    check_budget(budget)
    d = es.depth
    points = es.points

    def candidates(k: int, alive: tuple[int, ...]):
        return iter(
            sorted({v for i in alive for v in (-points[i][k], 1 - points[i][k])})
        )

    # One frame per coordinate being searched: (k, alive, r, candidates left).
    everyone = tuple(range(es.size))
    stack = [(0, everyone, (), candidates(0, everyone))] if es.size >= 2 else []
    visited = 0
    status = PASS
    found = None
    while stack:
        k, alive, r, todo = stack[-1]
        rk = next(todo, None)
        if rk is None:
            stack.pop()
            continue
        visited += 1
        if visited > budget:
            status = BUDGET_EXCEEDED
            break
        survivors = tuple(i for i in alive if 0 <= points[i][k] + rk <= 1)
        if len(survivors) < 2:
            continue
        if k + 1 == d:
            found = (r + (rk,), survivors)
            break
        stack.append((k + 1, survivors, r + (rk,), candidates(k + 1, survivors)))
    parameters = {"points": es.size, "budget": budget, "nodes_visited": visited}
    if found is None:
        return VerificationReport(
            claim="coinflip-bound", status=status, depth=d, parameters=parameters
        )
    r, alive = found
    hits = [points[i] for i in alive]
    return VerificationReport(
        claim="coinflip-bound",
        status=FAIL,
        depth=d,
        lhs=len(hits),
        rhs=1,
        counterexample={"r": r, "hits": hits},
        parameters=parameters,
    )


def _coinflip_mismatch(
    flip: VerificationReport, search: VerificationReport
) -> Optional[str]:
    """How a `coinflip_bound` report differs from the search oracle's, or None."""
    if (flip.status, flip.counterexample) == (search.status, search.counterexample):
        return None
    return (
        f"coin-flip bound gives {flip.status} {flip.counterexample}, "
        f"search oracle {search.status} {search.counterexample}"
    )


def _witness_prefix_oracle(
    witness: Sequence[int], cyl: CylinderSet
) -> Optional[tuple[tuple[int, ...], Fraction]]:
    """First translate (lex order) of cyl with positive flat product mass."""
    wit = tuple(witness)
    d = len(wit)
    if cyl.is_empty:
        return None
    windows = tuple(
        (
            -max(s[n] for s in cyl.prefixes),
            wit[n] - min(s[n] for s in cyl.prefixes),
        )
        for n in range(d)
    )
    cell = Fraction(1)
    for w in wit:
        cell /= w + 1
    for x in lattice_points(windows):
        total = Fraction(0)
        for s in cyl.prefixes:
            if all(0 <= s[n] + x[n] <= wit[n] for n in range(d)):
                total += cell
        if total:
            return x, total
    return None


# The checks, in table order.  Each returns its failures (a list the runner
# may extend) and the detail it reports when there are none.


def _codec_roundtrip(seed: int) -> tuple[list[str], str]:
    triples, failure = codec_roundtrip_scan(CODEC_CODES)
    detail = f"{CODEC_CODES} codes and {triples} triples round-tripped"
    return [failure] if failure else [], detail


def _order_isomorphism(seed: int) -> tuple[list[str], str]:
    prev = decode(0).as_tuple()
    for m in range(1, CODEC_CODES):
        cur = decode(m).as_tuple()
        if not prev < cur:
            return [f"decode({m}) = {cur} does not follow {prev}"], ""
        prev = cur
    return [], f"decode strictly increasing on the first {CODEC_CODES} codes"


def _coding_recurrences(seed: int) -> tuple[list[str], str]:
    failures = []
    for n in range(1, RECURRENCE_SIZES + 1):
        if encode(n, 1, 0) != encode(n, 0, 0) + (n + 2):
            failures.append(f"bit-flip recurrence breaks at size {n}")
        if encode(n + 1, 0, 0) != encode(n, 1, 0) + (n + 2):
            failures.append(f"size-step recurrence breaks at size {n}")
        if failures:
            break
    return failures, f"both recurrences hold for sizes 1..{RECURRENCE_SIZES}"


def _separation_gap(seed: int) -> tuple[list[str], str]:
    failures = []
    triples = [
        decode(encode(n, b, z))
        for n in range(1, GAP_SIZES + 1)
        for b in (0, 1)
        for z in range(n + 1)
    ]
    pairs = 0
    tight = 0
    for i, p in enumerate(triples):
        for q in triples[i + 1 :]:
            if (p.n, p.b) == (q.n, q.b):
                continue
            pairs += 1
            gap = separation_gap(p, q)
            if gap < 2:
                failures.append(
                    f"gap {gap} between {p.as_tuple()} and {q.as_tuple()}"
                )
            elif gap == 2:
                tight += 1
        if failures:
            break
    if not failures and tight == 0:
        failures.append("no pair attains the minimal gap 2")
    return failures, f"{pairs} cross-cell pairs checked, {tight} attain the bound"


def _restrict_normalize(seed: int) -> tuple[list[str], str]:
    checked = 0
    for i, instance, report in restrict_normalize_instances(
        seed, RESTRICT_NORMALIZE_INSTANCES, RESTRICT_NORMALIZE_DEPTH
    ):
        if not report.passed:
            return [f"instance {i} fails: {report.counterexample}"], ""
        sides = _restrict_normalize_oracle(*instance)
        if sides is None:
            continue
        checked += 1
        lhs, rhs = sides
        names = [
            name
            for name in lhs
            if report.lhs[name] != lhs[name] or report.rhs[name] != rhs[name]
        ]
        if names:
            return [f"instance {i} disagrees with the enumeration oracle: {names}"], ""
        _, trace, X = instance
        if X.depth < trace.depth:
            # The witness box lies inside every support, so only a box past it
            # has a tail interval of mass 0 for the kernel to get right.
            *head, w = trace.witness
            past = tuple((0, v) for v in head) + ((w + 1, w + 1),)
            wit = [_explicit_uniform(v) for v in trace.witness]
            got = box_intersection_measure(uniform_product_spec(trace.witness), X, past)
            want = _enumerated_measure(wit, past, X)
            if got != want:
                return [
                    f"instance {i} measures {got} just past the witness box, "
                    f"the enumeration oracle {want}"
                ], ""
    return [], (
        f"{RESTRICT_NORMALIZE_INSTANCES} instances verified, {checked} of them "
        "against the enumeration oracle"
    )


def _convolution_oracle(seed: int) -> tuple[list[str], str]:
    failures = []
    fixed = convolve(uniform(1), uniform(1))
    want = FiniteMeasureZ({0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)})
    if fixed != want:
        failures.append(f"coin + coin gives {fixed.weights}")
    rng = Random(seed)
    for i in range(CONVOLUTION_PAIRS):
        p = random_measure(rng)
        q = random_measure(rng)
        got = convolve(p, q)
        if got != convolve_oracle(p, q):
            failures.append(f"pair {i} disagrees with the oracle")
            break
        if got != convolve(q, p):
            failures.append(f"pair {i} is not symmetric")
            break
    return failures, f"{CONVOLUTION_PAIRS} random pairs agree; coin + coin pinned"


def _deficiency_bound(seed: int) -> tuple[list[str], str]:
    failures = []
    dyadic = [Fraction(1)]  # dyadic[k] is the product of 1 - 2^-(n+2) over n < k
    for n in range(41):
        dyadic.append(dyadic[-1] * (1 - Fraction(1, 1 << (n + 2))))
    certificate = dyadic[41] * (1 - Fraction(1, 1 << 41))
    if certificate <= DEFICIENCY_LOWER_BOUND:
        failures.append(
            f"certificate {certificate} does not clear {DEFICIENCY_LOWER_BOUND}"
        )
    rng = Random(seed)
    for i in range(DEFICIENCY_SEQUENCES):
        d = rng.randint(1, 10)
        radii = tuple(rng.randint(0, 5) for _ in range(d))
        spec = ProductMeasureSpec(
            tuple(translate_measure(uniform(m), m) for m in radii)
        )
        trace = synthesize_witness(spec)
        for n in range(d):
            if trace.deficiency_partial[n] < dyadic[n + 1]:
                failures.append(f"sequence {i} undercuts the dyadic product at {n}")
            if dyadic[n + 1] < DEFICIENCY_LOWER_BOUND:
                failures.append(f"dyadic partial product dips below the bound at {n}")
        for n in range(1, d):
            if trace.deficiency_partial[n] > trace.deficiency_partial[n - 1]:
                failures.append(f"sequence {i} has increasing partials at {n}")
        if failures:
            break
    return failures, (
        f"{DEFICIENCY_SEQUENCES} random size sequences bounded; certificate exact"
    )


# One line each with an offset of a + 2 and a bit of 2: the loader must
# reject both as bad values.
_LOADER_CONTROLS = (
    {"a": [1], "x": [0], "g": [3]},
    {"a": [1], "x": [2], "g": [0]},
)


def _encoded_set_checks(seed: int) -> tuple[list[str], str]:
    """Both checkers pass random valid datasets and fail a boundary control;
    the closed-form coin-flip bound agrees with the translate search oracle
    on status, lex-least translate and hits.  Each dataset, written as JSON
    lines and loaded back, builds the same set, and the loader rejects an
    offset past the codec domain and a bit of 2."""
    failures = []
    rng = Random(seed)
    for i in range(GRAPH_DATASETS):
        data = random_graph_dataset(rng)
        es = build_encoded_set(data)
        lines = [json.dumps({"a": gd.a, "x": gd.x, "g": gd.g}) for gd in data]
        loaded = load_graph_data(lines)
        if build_encoded_set([gd for _, gd in loaded]) != es:
            failures.append(f"dataset {i} loads from JSON lines as another set")
            break
        gap = check_pairwise_gap(es)
        if not gap.passed:
            failures.append(f"dataset {i} fails the gap check: {gap.counterexample}")
            break
        if gap.parameters["undecidable_pairs"]:
            failures.append(f"dataset {i} has undecidable pairs")
            break
        flip = coinflip_bound(es, budget=DEFAULT_BUDGET)
        if flip.status != gap.status:
            failures.append(
                f"dataset {i}: checkers disagree "
                f"({gap.status} vs {flip.status}): {flip.counterexample}"
            )
            break
        mismatch = _coinflip_mismatch(flip, _coinflip_search_oracle(es))
        if mismatch:
            failures.append(f"dataset {i}: {mismatch}")
            break
    control = build_encoded_set(
        [GraphDatum((1,), (0,), (2,)), GraphDatum((1,), (1,), (0,))],
        allow_boundary=True,
    )
    if check_pairwise_gap(control).status != FAIL:
        failures.append("boundary control passes the gap check")
    flip = coinflip_bound(control, budget=DEFAULT_BUDGET)
    if flip.status != FAIL:
        failures.append("boundary control passes the coin-flip bound")
    mismatch = _coinflip_mismatch(flip, _coinflip_search_oracle(control))
    if mismatch:
        failures.append(f"boundary control: {mismatch}")
    for d in _LOADER_CONTROLS:
        try:
            load_graph_data([json.dumps(d)])
        except DatasetError:
            continue
        failures.append(f"the loader accepts {d}")
    return failures, (
        f"{GRAPH_DATASETS} datasets pass both checks; boundary control fails both"
    )


def _witness_prefix_agreement(seed: int) -> tuple[list[str], str]:
    failures = []
    rng = Random(seed)
    for i in range(PREFIX_INSTANCES):
        wit = tuple(rng.randint(1, 3) for _ in range(3))
        X = random_cylinder(rng, tuple((0, w) for w in wit), max_prefixes=4)
        report = is_witness_prefix(wit, X, budget=DEFAULT_BUDGET)
        expected = _witness_prefix_oracle(wit, X)
        if expected is None:
            if report.status != PASS:
                failures.append(f"instance {i}: oracle passes, closed form does not")
                break
        else:
            x, mass = expected
            found = {"x": x, "measure": mass}
            if report.status != FAIL or report.counterexample != found:
                failures.append(
                    f"instance {i}: oracle finds {x} with mass {mass}, "
                    f"closed form reports {report.counterexample}"
                )
                break
    empty = is_witness_prefix((1, 1, 1), CylinderSet.empty(3), budget=DEFAULT_BUDGET)
    if not empty.passed:
        failures.append("empty set does not pass")
    capped = is_witness_prefix((1, 1, 1), CylinderSet(3, ((0, 0, 0),)), budget=1)
    if capped.status != BUDGET_EXCEEDED:
        failures.append(f"budget 1 yields status {capped.status}")
    return failures, (
        f"{PREFIX_INSTANCES} instances agree with the oracle, counterexamples identical"
    )


# (key, description, check, wall-clock limit in seconds or None)
CRITERIA: tuple[tuple[str, str, Callable, Optional[float]], ...] = (
    ("codec-roundtrip", f"decode/encode mutually inverse below {CODEC_CODES}",
     _codec_roundtrip, 5.0),
    ("order-isomorphism", "decoding is strictly increasing for lex triple order",
     _order_isomorphism, None),
    ("coding-recurrences", "block-start recurrences for sizes up to 10^4",
     _coding_recurrences, None),
    ("separation-gap", "pairwise code gap >= 2 across cells, with tightness",
     _separation_gap, None),
    ("restrict-normalize", "flattening identities on randomized instances",
     _restrict_normalize, 60.0),
    ("convolution-oracle", "convolution vs the outcome-pair oracle",
     _convolution_oracle, None),
    ("deficiency-bound", "deficiency partial products stay above 57/100",
     _deficiency_bound, None),
    ("encoded-set-checks",
     "gap and coin-flip checkers on random data plus a negative control",
     _encoded_set_checks, None),
    ("witness-prefix-oracle", "translate scan vs a naive full-window oracle",
     _witness_prefix_agreement, None),
)


def run_all(seed: int = 42) -> list[CriterionResult]:
    """Run every check of `CRITERIA` once, timed, with its derived seed; a
    check that raises fails, and the rest still run."""
    results = []
    for i, (key, description, check, time_limit) in enumerate(CRITERIA, start=1):
        started = time.perf_counter()
        try:
            failures, detail = check(seed * 1_000_003 + i)
        except Exception as exc:  # a fault in one check must not stop the rest
            failures, detail = [f"raised {type(exc).__name__}: {exc}"], ""
        elapsed = time.perf_counter() - started
        if time_limit is not None:
            if elapsed >= time_limit:
                failures.append(f"took {elapsed:.2f}s, limit {time_limit}s")
            detail += f" in {elapsed:.2f}s (limit {time_limit:.0f}s)"
        if failures:
            detail = "; ".join(failures[:3])
        results.append(
            CriterionResult(key, description, not failures, detail, elapsed)
        )
    return results
