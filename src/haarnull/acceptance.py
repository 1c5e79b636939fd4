"""Acceptance criteria: the checks that gate a release of this library.

Each criterion is one function returning a `CriterionResult`; `run_all`
executes the nine of them with per-criterion derived seeds so the whole
battery is reproducible from one integer.  Criteria either re-verify exact
identities on randomized instances, compare fast implementations against
deliberately naive oracles, or pin down documented constants; two of them
also enforce wall-clock ceilings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterator, Optional, Sequence

from .codec import decode, encode, separation_gap
from .eset import (
    EncodedSet,
    GraphDatum,
    build_encoded_set,
    check_pairwise_gap,
    coinflip_bound,
)
from .measures import (
    CylinderSet,
    FiniteMeasureZ,
    ProductMeasureSpec,
    convolve,
    lattice_points,
    translate_measure,
    uniform,
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
    is_witness_prefix,
    shift_to_nonpositive,
    synthesize_witness,
    verify_restrict_normalize,
)

__all__ = [
    "CriterionResult",
    "codec_roundtrip_scan",
    "criterion_codec_roundtrip",
    "criterion_order_isomorphism",
    "criterion_coding_recurrences",
    "criterion_separation_gap",
    "criterion_restrict_normalize",
    "criterion_convolution_oracle",
    "criterion_deficiency_bound",
    "criterion_encoded_set_checks",
    "criterion_witness_prefix_oracle",
    "restrict_normalize_instances",
    "random_coordinate_measure",
    "random_cylinder",
    "random_graph_dataset",
    "convolve_oracle",
    "run_all",
]


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


def _result(
    key: str, description: str, failures: list, detail: str, started: float
) -> CriterionResult:
    elapsed = time.perf_counter() - started
    if failures:
        detail = "; ".join(str(f) for f in failures[:3])
    return CriterionResult(key, description, not failures, detail, elapsed)


def _roundtrip_failure(triple: tuple[int, int, int], code: int) -> str:
    return (
        f"triple {triple} encodes to {encode(*triple)}, "
        f"code {code} decodes to {decode(code).as_tuple()}"
    )


def codec_roundtrip_scan(limit: int) -> tuple[int, Optional[str]]:
    """Scan both codec directions below `limit`, stopping at the first failure.

    Every code m < limit must re-encode to itself after decoding, and every
    triple whose code is below `limit` must decode back to itself.  Returns
    the number of triples round-tripped and the failure, or None.
    """
    for m in range(limit):
        t = decode(m)
        if encode(t.n, t.b, t.z) != m:
            return 0, _roundtrip_failure(t.as_tuple(), m)
    triples = 0
    n = 1
    while encode(n, 0, 0) < limit:
        for b in (0, 1):
            for z in range(n + 2):
                code = encode(n, b, z)
                if code >= limit:
                    break
                if decode(code).as_tuple() != (n, b, z):
                    return triples, _roundtrip_failure((n, b, z), code)
                triples += 1
        n += 1
    return triples, None


def criterion_codec_roundtrip(
    limit: int = 10**6, time_limit: float = 5.0
) -> CriterionResult:
    """Both codec directions are mutually inverse below `limit`, within time_limit."""
    started = time.perf_counter()
    triples, failure = codec_roundtrip_scan(limit)
    failures = [failure] if failure else []
    elapsed = time.perf_counter() - started
    if elapsed >= time_limit:
        failures.append(f"took {elapsed:.2f}s, limit {time_limit}s")
    return _result(
        "codec-roundtrip",
        f"decode/encode mutually inverse below {limit}",
        failures,
        f"{limit} codes and {triples} triples round-tripped in "
        f"{elapsed:.2f}s (limit {time_limit:.0f}s)",
        started,
    )


def criterion_order_isomorphism(limit: int = 10**6) -> CriterionResult:
    """Decoded triples grow strictly in lex order as the code increases."""
    started = time.perf_counter()
    failures: list = []
    prev = decode(0).as_tuple()
    for m in range(1, limit):
        cur = decode(m).as_tuple()
        if not prev < cur:
            failures.append(f"decode({m}) = {cur} does not follow {prev}")
            break
        prev = cur
    return _result(
        "order-isomorphism",
        "decoding is strictly increasing for lex triple order",
        failures,
        f"decode strictly increasing on the first {limit} codes",
        started,
    )


def criterion_coding_recurrences(max_size: int = 10**4) -> CriterionResult:
    """Block-start recurrences hold for every size up to max_size."""
    started = time.perf_counter()
    failures: list = []
    for n in range(1, max_size + 1):
        if encode(n, 1, 0) != encode(n, 0, 0) + (n + 2):
            failures.append(f"bit-flip recurrence breaks at size {n}")
        if encode(n + 1, 0, 0) != encode(n, 1, 0) + (n + 2):
            failures.append(f"size-step recurrence breaks at size {n}")
        if failures:
            break
    return _result(
        "coding-recurrences",
        "block-start recurrences for sizes up to 10^4",
        failures,
        f"both recurrences hold for sizes 1..{max_size}",
        started,
    )


def criterion_separation_gap(max_size: int = 20) -> CriterionResult:
    """Support-box triples in distinct cells are 2-separated; 2 is attained."""
    started = time.perf_counter()
    failures: list = []
    triples = [
        decode(encode(n, b, z))
        for n in range(1, max_size + 1)
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
    return _result(
        "separation-gap",
        "pairwise code gap >= 2 across cells, with tightness",
        failures,
        f"{pairs} cross-cell pairs checked, {tight} attain the bound",
        started,
    )


def random_coordinate_measure(rng: Random, max_radius: int = 3) -> FiniteMeasureZ:
    """A random rational measure whose support spans [shift - radius, shift]."""
    radius = rng.randint(0, max_radius)
    shift = rng.randint(-3, 3)
    support = {shift - radius, shift}
    for z in range(shift - radius + 1, shift):
        if rng.random() < 0.5:
            support.add(z)
    weights = {z: rng.randint(1, 9) for z in sorted(support)}
    total = sum(weights.values())
    return FiniteMeasureZ({z: Fraction(w, total) for z, w in weights.items()})


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
) -> Iterator[tuple[int, VerificationReport]]:
    """Check the flattening identities on random instances of depth <= max_depth.

    Each instance draws a spec, synthesizes its witness, and verifies a
    random cylinder set around the witness box (about 3 in 10 of them
    cut to a random depth).  Yields (index, report) pairs.
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
        yield i, verify_restrict_normalize(shifted, trace, X)


def criterion_restrict_normalize(
    seed: int, instances: int = 100, time_limit: float = 60.0
) -> CriterionResult:
    """All four flattening identities hold on randomized instances."""
    started = time.perf_counter()
    failures: list = []
    for i, report in restrict_normalize_instances(seed, instances, max_depth=5):
        if not report.passed:
            failures.append(f"instance {i} fails: {report.counterexample}")
            break
    elapsed = time.perf_counter() - started
    if elapsed >= time_limit:
        failures.append(f"took {elapsed:.2f}s, limit {time_limit}s")
    return _result(
        "restrict-normalize",
        "flattening identities on randomized instances",
        failures,
        f"{instances} instances verified in {elapsed:.2f}s (limit {time_limit:.0f}s)",
        started,
    )


def convolve_oracle(p: FiniteMeasureZ, q: FiniteMeasureZ) -> FiniteMeasureZ:
    """Naive convolution: tabulate every outcome pair of two independent draws."""
    out: dict[int, Fraction] = {}
    for x in p.support:
        for y in q.support:
            out[x + y] = out.get(x + y, Fraction(0)) + p.mass(x) * q.mass(y)
    return FiniteMeasureZ(out)


def random_measure(rng: Random, max_points: int = 12, span: int = 8) -> FiniteMeasureZ:
    """A random rational measure on at most max_points points of [-span, span]."""
    count = rng.randint(1, max_points)
    support = rng.sample(range(-span, span + 1), count)
    weights = {z: rng.randint(1, 9) for z in sorted(support)}
    total = sum(weights.values())
    return FiniteMeasureZ({z: Fraction(w, total) for z, w in weights.items()})


def criterion_convolution_oracle(seed: int, pairs: int = 1000) -> CriterionResult:
    """Convolution agrees with the outcome-pair oracle and a pinned value."""
    started = time.perf_counter()
    failures: list = []
    fixed = convolve(uniform(1), uniform(1))
    want = FiniteMeasureZ({0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)})
    if fixed != want:
        failures.append(f"coin + coin gives {fixed.weights}")
    rng = Random(seed)
    for i in range(pairs):
        p = random_measure(rng)
        q = random_measure(rng)
        got = convolve(p, q)
        if got != convolve_oracle(p, q):
            failures.append(f"pair {i} disagrees with the oracle")
            break
        if got != convolve(q, p):
            failures.append(f"pair {i} is not symmetric")
            break
    return _result(
        "convolution-oracle",
        "convolution vs the outcome-pair oracle",
        failures,
        f"{pairs} random pairs agree; coin + coin pinned",
        started,
    )


def criterion_deficiency_bound(seed: int, sequences: int = 100) -> CriterionResult:
    """Deficiency partials stay above the constant; certificate is exact."""
    started = time.perf_counter()
    failures: list = []
    partial = Fraction(1)
    for n in range(41):
        partial *= 1 - Fraction(1, 1 << (n + 2))
    tail_bound = 1 - Fraction(1, 1 << 41)
    if partial * tail_bound <= DEFICIENCY_LOWER_BOUND:
        failures.append(
            f"certificate {partial * tail_bound} does not clear "
            f"{DEFICIENCY_LOWER_BOUND}"
        )
    dyadic = [Fraction(1)]
    for n in range(10):
        dyadic.append(dyadic[-1] * (1 - Fraction(1, 1 << (n + 2))))
    rng = Random(seed)
    for i in range(sequences):
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
    return _result(
        "deficiency-bound",
        "deficiency partial products stay above 57/100",
        failures,
        f"{sequences} random size sequences bounded; certificate exact",
        started,
    )


def random_graph_dataset(
    rng: Random, max_depth: int = 4, max_size: int = 3, max_data: int = 50
) -> list[GraphDatum]:
    """Random graph data at one depth with pairwise distinct arguments."""
    d = rng.randint(1, max_depth)
    want = min(rng.randint(2, max_data), (2 * max_size) ** d)
    args = set()
    data = []
    while len(data) < want:
        a = tuple(rng.randint(1, max_size) for _ in range(d))
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


def criterion_encoded_set_checks(
    seed: int, datasets: int = 100, budget: int = DEFAULT_BUDGET
) -> CriterionResult:
    """Both checkers pass random valid datasets and fail a boundary control.

    The closed-form coin-flip bound must also agree with the translate
    search oracle, on status, lex-least translate and hits.
    """
    started = time.perf_counter()
    failures: list = []
    rng = Random(seed)
    for i in range(datasets):
        es = build_encoded_set(random_graph_dataset(rng))
        gap = check_pairwise_gap(es)
        if not gap.passed:
            failures.append(f"dataset {i} fails the gap check: {gap.counterexample}")
            break
        if gap.parameters["undecidable_pairs"]:
            failures.append(f"dataset {i} has undecidable pairs")
            break
        flip = coinflip_bound(es, budget=budget)
        if flip.status != gap.status:
            failures.append(
                f"dataset {i}: checkers disagree "
                f"({gap.status} vs {flip.status}): {flip.counterexample}"
            )
            break
        mismatch = _coinflip_mismatch(flip, _coinflip_search_oracle(es, budget))
        if mismatch:
            failures.append(f"dataset {i}: {mismatch}")
            break
    control = build_encoded_set(
        [GraphDatum((1,), (0,), (2,)), GraphDatum((1,), (1,), (0,))],
        allow_boundary=True,
    )
    if check_pairwise_gap(control).status != FAIL:
        failures.append("boundary control passes the gap check")
    flip = coinflip_bound(control, budget=budget)
    if flip.status != FAIL:
        failures.append("boundary control passes the coin-flip bound")
    mismatch = _coinflip_mismatch(flip, _coinflip_search_oracle(control, budget))
    if mismatch:
        failures.append(f"boundary control: {mismatch}")
    return _result(
        "encoded-set-checks",
        "gap and coin-flip checkers on random data plus a negative control",
        failures,
        f"{datasets} datasets pass both checks; boundary control fails both",
        started,
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


def criterion_witness_prefix_oracle(
    seed: int, instances: int = 50, budget: int = DEFAULT_BUDGET
) -> CriterionResult:
    """`is_witness_prefix` agrees with a naive scan, counterexamples included."""
    started = time.perf_counter()
    failures: list = []
    rng = Random(seed)
    for i in range(instances):
        wit = tuple(rng.randint(1, 3) for _ in range(3))
        X = random_cylinder(rng, tuple((0, w) for w in wit), max_prefixes=4)
        report = is_witness_prefix(wit, X, budget=budget)
        expected = _witness_prefix_oracle(wit, X)
        if expected is None:
            if report.status != PASS:
                failures.append(f"instance {i}: oracle passes, closed form does not")
                break
        else:
            x, mass = expected
            if report.status != FAIL or report.counterexample != {
                "x": x,
                "measure": mass,
            }:
                failures.append(
                    f"instance {i}: oracle finds {x} with mass {mass}, "
                    f"closed form reports {report.counterexample}"
                )
                break
    empty = is_witness_prefix((1, 1, 1), CylinderSet.empty(3), budget=budget)
    if not empty.passed:
        failures.append("empty set does not pass")
    capped = is_witness_prefix((1, 1, 1), CylinderSet(3, ((0, 0, 0),)), budget=1)
    if capped.status != BUDGET_EXCEEDED:
        failures.append(f"budget 1 yields status {capped.status}")
    return _result(
        "witness-prefix-oracle",
        "translate scan vs a naive full-window oracle",
        failures,
        f"{instances} instances agree with the oracle, counterexamples identical",
        started,
    )


def run_all(seed: int = 42, budget: int = DEFAULT_BUDGET) -> list[CriterionResult]:
    """Run the nine acceptance criteria with per-criterion derived seeds."""
    check_budget(budget)

    def sub(index: int) -> int:
        return seed * 1_000_003 + index

    return [
        criterion_codec_roundtrip(),
        criterion_order_isomorphism(),
        criterion_coding_recurrences(),
        criterion_separation_gap(),
        criterion_restrict_normalize(sub(5)),
        criterion_convolution_oracle(sub(6)),
        criterion_deficiency_bound(sub(7)),
        criterion_encoded_set_checks(sub(8), budget=budget),
        criterion_witness_prefix_oracle(sub(9), budget=budget),
    ]
