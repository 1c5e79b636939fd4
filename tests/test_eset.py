"""Encoded graph set tests: building, gap checking, coin-flip bound."""

import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import haarnull
from haarnull import eset
from haarnull.acceptance import _coinflip_search_oracle
from haarnull.codec import (
    PointPrefix,
    _check_bit,
    _check_offset,
    _check_size,
    decode_point,
    encode_point,
)
from haarnull.eset import (
    DatasetError,
    EncodedSet,
    GraphDataParseError,
    GraphDatum,
    build_encoded_set,
    check_pairwise_gap,
    coinflip_bound,
    encoded_set_from_dict,
    encoded_set_to_dict,
    graph_datum_from_dict,
    load_graph_data,
)
from haarnull.report import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    FAIL,
    PASS,
    VerificationReport,
)
from haarnull.serialization import _unique_keys
from oracles import prefix_in_support_box


@st.composite
def graph_datasets(draw, max_depth=3, max_size=3, max_data=8):
    depth = draw(st.integers(1, max_depth))
    arg = st.tuples(
        st.tuples(*[st.integers(1, max_size)] * depth),
        st.tuples(*[st.integers(0, 1)] * depth),
    )
    args = draw(st.lists(arg, min_size=2, max_size=max_data, unique=True))
    data = []
    for a, x in args:
        g = tuple(draw(st.integers(0, ak)) for ak in a)
        data.append(GraphDatum(a, x, g))
    return data


@st.composite
def boundary_datasets(draw, max_depth=3, max_size=3, max_data=8):
    """Graph data whose offsets may sit at size + 1, the negative controls."""
    data = draw(graph_datasets(max_depth, max_size, max_data))
    return [
        GraphDatum(gd.a, gd.x, tuple(draw(st.integers(0, ak + 1)) for ak in gd.a))
        for gd in data
    ]


@st.composite
def arbitrary_encoded_sets(draw, max_depth=4, max_points=8):
    """Any encoded set of depth 0-4, empty or with repeated points, with
    codes clustered near 0, near 10^30 or near a random base below it, so
    that close pairs and undecidable pairs both occur."""
    d = draw(st.integers(0, max_depth))
    base = st.sampled_from([0, 10**12, 10**30 - 4]) | st.integers(0, 10**30)
    bases = draw(st.tuples(*[base] * d))
    offsets = draw(
        st.lists(st.tuples(*[st.integers(0, 4)] * d), max_size=max_points)
    )
    return EncodedSet(
        d, tuple(tuple(b + v for b, v in zip(bases, p)) for p in offsets)
    )


small_encoded_sets = st.integers(1, 3).flatmap(
    lambda d: st.lists(
        st.tuples(*[st.integers(0, 6)] * d), min_size=0, max_size=6
    ).map(lambda points: EncodedSet(d, tuple(points)))
)


BOUNDARY_CONTROL = [
    GraphDatum((1,), (0,), (2,)),
    GraphDatum((1,), (1,), (0,)),
]


class Code(int):
    """An int subclass, as a caller's own integer type may be."""


# Sizes 0-3, bits 0-2 and offsets -1 to 5 cover size 0, bit 2, negative and
# out-of-domain offsets, and offsets at the a + 1 boundary.
datum_entries = (
    st.integers(-1, 5)
    | st.sampled_from([True, False, 1.0, 1.5, "0", None])
    | st.integers(0, 2).map(Code)
)


def outcome(parse, *args):
    """What a parse returns, or the exact type and message it raises."""
    try:
        gd = parse(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(gd), gd.a, gd.x, gd.g


def outcome_of(parse, d):
    """What an encoded-set parse returns, or the exact type and message it raises."""
    try:
        es = parse(d)
    except ValueError as exc:
        return type(exc), str(exc)
    return es.depth, es.points


def reference_encoded_set_from_dict(d):
    """The encoded-set parse in two passes, every code's type first and then
    the `EncodedSet` constructor: the reference for the one-pass parse."""
    depth, points = d["depth"], d["points"]
    for p in points:
        for v in p:
            if type(v) is not int:
                raise GraphDataParseError(f"codes must be integers, got {v!r}")
    try:
        return EncodedSet(depth, tuple(tuple(p) for p in points))
    except ValueError as exc:
        raise DatasetError(str(exc)) from exc


def reference_graph_datum(a, x, g):
    """The datum constructor with every entry checked by its checker, as it
    was before the checks went inline: the reference for `GraphDatum`."""
    a = tuple(_check_size(v) for v in a)
    x = tuple(_check_bit(v) for v in x)
    g = tuple(_check_offset(v) for v in g)
    if not (len(a) == len(x) == len(g)):
        raise ValueError(f"component lengths differ: {len(a)}, {len(x)}, {len(g)}")
    if not all(0 <= gk <= ak + 1 for ak, gk in zip(a, g)):
        raise ValueError(f"offsets {g} leave the codec domain for sizes {a}")
    return GraphDatum(a, x, g)


def reference_graph_datum_from_dict(d):
    """The parser as it was before the key test was folded into one set
    comparison: the reference for `graph_datum_from_dict`."""
    if not isinstance(d, dict):
        raise GraphDataParseError(f"expected an object, got {d!r}")
    missing = [key for key in ("a", "x", "g") if key not in d]
    if missing:
        raise GraphDataParseError(f"missing fields: {', '.join(missing)}")
    extra = sorted(set(d) - {"a", "x", "g"})
    if extra:
        raise GraphDataParseError(f"unknown fields: {', '.join(extra)}")
    fields = []
    for key in ("a", "x", "g"):
        value = d[key]
        if not isinstance(value, list):
            raise GraphDataParseError(f'field "{key}" must be a list, got {value!r}')
        for v in value:
            if type(v) is not int:
                raise GraphDataParseError(
                    f'field "{key}" entries must be integers, got {v!r}'
                )
        fields.append(tuple(value))
    return reference_graph_datum(*fields)


# Parsed JSON: integer entries, the other JSON scalars, and non-list fields.
json_entries = st.integers(-1, 5) | st.sampled_from([True, 1.0, 1.5, "0", None])
datum_dicts = st.dictionaries(
    st.sampled_from(["a", "x", "g", "b", "z"]),
    st.lists(json_entries, max_size=3) | json_entries,
    max_size=5,
) | st.builds(
    lambda a, x, g: {"a": a, "x": x, "g": g},
    *[st.lists(st.integers(-1, 5), min_size=1, max_size=3)] * 3,
)


@st.composite
def valid_datum_dicts(draw, max_depth=4):
    """Graph data as the JSON decoder gives them: lists, offsets anywhere in
    the codec domain, sizes up to past a machine word."""
    depth = draw(st.integers(0, max_depth))
    a = draw(st.lists(st.integers(1, 2**70), min_size=depth, max_size=depth))
    x = draw(st.lists(st.integers(0, 1), min_size=depth, max_size=depth))
    g = [draw(st.integers(0, n + 1)) for n in a]
    return {"a": a, "x": x, "g": g}


def reference_load_graph_data(lines):
    """The loader with `json.loads` and the duplicate-key hook, the blank
    test made first, and only JSON whitespace blank: the reference for
    `load_graph_data`."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip(" \t\r\n"):
            continue
        try:
            raw = json.loads(line, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:
            raise GraphDataParseError(f"line {lineno}: invalid JSON: {exc}") from exc
        try:
            out.append((lineno, reference_graph_datum_from_dict(raw)))
        except GraphDataParseError as exc:
            raise GraphDataParseError(f"line {lineno}: {exc}") from exc
        except ValueError as exc:
            raise DatasetError(f"line {lineno}: {exc}") from exc
    return out


def load_outcome(load, lines):
    """What a loader returns, or the exact type and message it raises."""
    try:
        pairs = load(lines)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(lineno, type(gd), gd.a, gd.x, gd.g) for lineno, gd in pairs]


# whitespace JSON allows, and some that it does not
_SPACES = " \t\r\n\xa0\u3000\ufeff"
graph_data_lines = st.builds(
    lambda lead, body, trail: lead + body + trail,
    st.text(_SPACES, max_size=2),
    (valid_datum_dicts() | datum_dicts).map(json.dumps)
    | st.sampled_from(
        [
            "",
            "nope",
            '{"a": [1], "x": [0], "g": [0]} x',
            '{"a": [1], "x": [0], "g": [0], "a": [1]}',
            '{"a": [' + "1" * 5000 + '], "x": [0], "g": [0]}',
            "[]",
        ]
    ),
    st.text(_SPACES, max_size=2),
)


class TestGraphDatum:
    def test_valid(self):
        gd = GraphDatum((1, 2), (0, 1), (1, 3))
        assert gd.depth == 2
        assert encode_point(gd) == (1, 13)

    def test_boundary_offset_in_domain_but_not_box(self):
        gd = GraphDatum((1,), (0,), (2,))
        assert not prefix_in_support_box(gd)
        assert prefix_in_support_box(GraphDatum((1,), (0,), (1,)))

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            GraphDatum((1,), (0,), (3,))
        with pytest.raises(ValueError):
            GraphDatum((1,), (0,), (-1,))

    def test_component_validation(self):
        with pytest.raises(ValueError):
            GraphDatum((0,), (0,), (0,))
        with pytest.raises(ValueError):
            GraphDatum((1,), (2,), (0,))
        with pytest.raises(ValueError):
            GraphDatum((1, 1), (0,), (0, 0))

    @given(boundary_datasets())
    def test_is_a_point_prefix(self, data):
        for gd in data:
            plain = PointPrefix(gd.a, gd.x, gd.g)
            assert isinstance(gd, PointPrefix)
            assert encode_point(gd) == encode_point(plain)
            assert gd != plain and plain != gd
            assert repr(gd) == f"GraphDatum(a={gd.a!r}, x={gd.x!r}, g={gd.g!r})"

    def test_repr_and_domain_message(self):
        assert repr(GraphDatum([1, 2], [0, 1], [1, 3])) == (
            "GraphDatum(a=(1, 2), x=(0, 1), g=(1, 3))"
        )
        message = r"^offsets \(0, 4\) leave the codec domain for sizes \(1, 2\)$"
        with pytest.raises(ValueError, match=message):
            GraphDatum([1, 2], [0, 1], [0, 4])

    @settings(max_examples=300)
    @given(
        st.tuples(*[st.lists(datum_entries, max_size=3)] * 3)
        | st.tuples(*[st.lists(datum_entries, max_size=3).map(tuple)] * 3)
    )
    def test_matches_the_reference_checks(self, fields):
        assert outcome(GraphDatum, *fields) == outcome(reference_graph_datum, *fields)


class TestEncodedSet:
    def test_canonical(self):
        es = EncodedSet(1, ((3,), (1,), (3,)))
        assert es.points == ((1,), (3,))
        assert es.size == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            EncodedSet(2, ((1,),))
        with pytest.raises(ValueError):
            EncodedSet(1, ((-1,),))
        with pytest.raises(ValueError):
            EncodedSet(-1, ())


class TestBuild:
    def test_pinned_build(self):
        es = build_encoded_set(
            [GraphDatum((1,), (0,), (1,)), GraphDatum((1,), (1,), (0,))]
        )
        assert es.depth == 1
        assert es.points == ((1,), (3,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_encoded_set([])

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            build_encoded_set(
                [GraphDatum((1,), (0,), (0,)), GraphDatum((1, 1), (0, 0), (0, 0))]
            )

    def test_duplicate_argument_rejected(self):
        with pytest.raises(ValueError, match="datum 1"):
            build_encoded_set(
                [GraphDatum((1,), (0,), (0,)), GraphDatum((1,), (0,), (1,))]
            )

    def test_labels_in_errors(self):
        with pytest.raises(ValueError, match="line 9"):
            build_encoded_set(
                [GraphDatum((1,), (0,), (0,)), GraphDatum((1,), (0,), (1,))],
                labels=["line 4", "line 9"],
            )

    def test_boundary_needs_flag(self):
        with pytest.raises(ValueError, match="boundary"):
            build_encoded_set(BOUNDARY_CONTROL)
        es = build_encoded_set(BOUNDARY_CONTROL, allow_boundary=True)
        assert es.points == ((2,), (3,))

    @settings(deadline=None, max_examples=100)
    @given(
        graph_datasets(max_depth=4, max_size=6, max_data=12).map(lambda d: (d, False))
        | boundary_datasets().map(lambda d: (d, True))
    )
    def test_equals_the_checked_constructor(self, case):
        data, allow_boundary = case
        es = build_encoded_set(data, allow_boundary=allow_boundary)
        checked = EncodedSet(data[0].depth, tuple(encode_point(gd) for gd in data))
        assert es == checked
        assert hash(es) == hash(checked)
        assert repr(es) == repr(checked)
        assert es.size == len(data)  # distinct arguments give distinct points

    def test_trusted_builder_stays_in_eset(self):
        package = Path(__file__).resolve().parents[1] / "src" / "haarnull"
        users = {
            path.name
            for path in package.glob("*.py")
            if "_trusted_encoded_set" in path.read_text()
        }
        assert users == {"eset.py"}

    def test_label_count_checked(self):
        with pytest.raises(ValueError):
            build_encoded_set(
                [GraphDatum((1,), (0,), (0,))], labels=["one", "two"]
            )


class TestPairwiseGap:
    def test_passes_separated_set(self):
        es = build_encoded_set(
            [GraphDatum((1,), (0,), (1,)), GraphDatum((1,), (1,), (0,))]
        )
        report = check_pairwise_gap(es)
        assert report.status == PASS
        assert report.parameters["decided_pairs"] == 1
        assert report.parameters["undecidable_pairs"] == []

    def test_fails_boundary_control(self):
        es = build_encoded_set(BOUNDARY_CONTROL, allow_boundary=True)
        report = check_pairwise_gap(es)
        assert report.status == FAIL
        assert report.counterexample["points"] == [(2,), (3,)]
        assert report.lhs == 1 and report.rhs == 2

    def test_same_argument_pair_is_undecidable(self):
        # codes 0 and 1 decode to the same (a, x) = ((1,), (0,))
        report = check_pairwise_gap(EncodedSet(1, ((0,), (1,))))
        assert report.status == PASS
        assert report.parameters["undecidable_pairs"] == [
            {"points": [(0,), (1,)]}
        ]
        assert report.parameters["decided_pairs"] == 0

    def test_same_argument_pair_with_gap_is_decided(self):
        # codes 0 and 2 share their argument but sit 2 apart already
        report = check_pairwise_gap(EncodedSet(1, ((0,), (2,))))
        assert report.status == PASS
        assert report.parameters["decided_pairs"] == 1
        assert report.parameters["undecidable_pairs"] == []

    @settings(deadline=None, max_examples=50)
    @given(graph_datasets())
    def test_valid_datasets_always_pass(self, data):
        report = check_pairwise_gap(build_encoded_set(data))
        assert report.status == PASS
        assert report.parameters["undecidable_pairs"] == []

    @settings(deadline=None, max_examples=300)
    @given(
        arbitrary_encoded_sets()
        | graph_datasets().map(build_encoded_set)
        | boundary_datasets().map(
            lambda data: build_encoded_set(data, allow_boundary=True)
        )
    )
    def test_matches_the_all_pairs_reference(self, es):
        assert check_pairwise_gap(es).to_json() == all_pairs_gap(es).to_json()

    def test_boundary_control_matches_the_all_pairs_reference(self):
        es = build_encoded_set(BOUNDARY_CONTROL, allow_boundary=True)
        assert check_pairwise_gap(es).to_json() == all_pairs_gap(es).to_json()


def all_pairs_gap(es):
    """The gap check comparing every pair and decoding every point: the
    reference for the close-pair sweep (same report, byte for byte)."""
    decoded = tuple(decode_point(p) for p in es.points)
    undecidable = []
    decided = 0
    failure = None
    for i in range(es.size):
        for j in range(i + 1, es.size):
            p, q = es.points[i], es.points[j]
            if any(abs(pv - qv) >= 2 for pv, qv in zip(p, q)):
                decided += 1
                continue
            dp, dq = decoded[i], decoded[j]
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
            "decided_pairs": decided,
            "undecidable_pairs": undecidable,
        },
    )


class TestCoinflipBound:
    def test_passes_separated_set(self):
        es = build_encoded_set(
            [GraphDatum((1,), (0,), (1,)), GraphDatum((1,), (1,), (0,))]
        )
        report = coinflip_bound(es)
        assert report.status == PASS

    def test_fails_boundary_control(self):
        es = build_encoded_set(BOUNDARY_CONTROL, allow_boundary=True)
        report = coinflip_bound(es)
        assert report.status == FAIL
        assert report.counterexample == {"r": (-2,), "hits": [(2,), (3,)]}
        assert report.lhs == 2 and report.rhs == 1

    def test_counterexample_is_lex_least(self):
        report = coinflip_bound(EncodedSet(1, ((0,), (1,), (5,), (6,))))
        assert report.status == FAIL
        assert report.counterexample["r"] == (-5,)
        assert report.counterexample["hits"] == [(5,), (6,)]

    def test_singleton_and_empty_pass(self):
        assert coinflip_bound(EncodedSet(2, ((0, 0),))).status == PASS
        assert coinflip_bound(EncodedSet(2, ())).status == PASS

    def test_budget_exceeded(self):
        # the sweep compares (0,)-(1,) and (1,)-(2,); (0,)-(2,) is out of reach
        report = coinflip_bound(EncodedSet(1, ((0,), (1,), (2,))), budget=1)
        assert report.status == BUDGET_EXCEEDED
        assert report.parameters["nodes_visited"] == 2

    def test_budget_validation(self):
        for budget in (0, -3, True, 1.0, 2.5, "10"):
            why = ">= 1" if type(budget) is int else "an integer"
            message = re.escape(f"budget must be {why}, got {budget!r}")
            for es in (EncodedSet(1, ()), EncodedSet(1, ((0,), (1,)))):
                for check in (coinflip_bound, _coinflip_search_oracle):
                    with pytest.raises(ValueError, match=message):
                        check(es, budget)

    @settings(deadline=None, max_examples=50)
    @given(graph_datasets())
    def test_valid_datasets_always_pass(self, data):
        report = coinflip_bound(build_encoded_set(data))
        assert report.status == PASS

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True))
    def test_agrees_with_direct_window_scan(self, codes):
        es = EncodedSet(1, tuple((c,) for c in codes))
        report = coinflip_bound(es)
        hits_by_r = {}
        for r in range(-max(codes), 2 - min(codes)):
            hits = [c for c in sorted(codes) if 0 <= c + r <= 1]
            if len(hits) >= 2:
                hits_by_r[r] = hits
        if not hits_by_r:
            assert report.status == PASS
        else:
            r = min(hits_by_r)
            assert report.status == FAIL
            assert report.counterexample["r"] == (r,)
            assert report.counterexample["hits"] == [
                (c,) for c in hits_by_r[r]
            ]


    def test_depth_1200_fails_without_recursion(self):
        d = 1200
        report = coinflip_bound(EncodedSet(d, ((0,) * d, (0,) * (d - 1) + (1,))))
        assert report.status == FAIL
        assert report.counterexample["r"] == (0,) * d
        assert report.parameters["nodes_visited"] == 1

    def test_depth_1200_graph_data_pass(self):
        # the two data differ only in the last bit, so their last codes are
        # 3 apart; a translate search doubles at every coordinate here
        d = 1200
        es = build_encoded_set(
            [
                GraphDatum((1,) * d, (0,) * d, (0,) * d),
                GraphDatum((1,) * d, (0,) * (d - 1) + (1,), (0,) * d),
            ]
        )
        report = coinflip_bound(es, budget=10**4)
        assert report.status == PASS
        assert report.parameters["nodes_visited"] == 1

    @settings(deadline=None, max_examples=60)
    @given(arbitrary_encoded_sets(max_depth=3, max_points=7) | small_encoded_sets)
    def test_cached_sweep_gives_the_budgeted_report(self, es):
        n = es.size
        expected = [uncached_coinflip(es, b) for b in range(1, n * (n - 1) // 2 + 2)]
        fresh = EncodedSet(es.depth, es.points)
        swept = EncodedSet(es.depth, es.points)
        check_pairwise_gap(swept)
        for budget, report in enumerate(expected, start=1):
            assert coinflip_bound(fresh, budget).to_json() == report.to_json()
            assert coinflip_bound(swept, budget).to_json() == report.to_json()

    def test_both_checkers_share_one_sweep(self, monkeypatch):
        calls = []
        sweep = eset._close_pairs
        monkeypatch.setattr(
            eset, "_close_pairs", lambda *args: calls.append(args) or sweep(*args)
        )
        # the sweep compares (0,)-(1,) and (1,)-(2,); (4,) is out of reach
        points = ((0,), (1,), (2,), (4,))
        for budget in (1, 2, 3, DEFAULT_BUDGET):
            checks = [check_pairwise_gap, lambda es: coinflip_bound(es, budget)]
            for order in (checks, checks[::-1]):
                es = EncodedSet(1, points)
                calls.clear()
                for check in order + order:
                    check(es)
                assert calls == [(points,)]
            # a budget below the 2 pairs compared never sweeps
            calls.clear()
            coinflip_bound(EncodedSet(1, points), budget)
            assert calls == ([] if budget < 2 else [(points,)])

    def test_budget_is_checked_before_any_sweep(self, monkeypatch):
        # 4,600 data whose first codes agree: the sweep would compare all
        # 4,600 * 4,599 / 2 = 10,577,700 pairs, past the default budget
        def no_sweep(points):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(eset, "_close_pairs", no_sweep)
        data = [
            GraphDatum((1, s, t), (0, 0, 0), (0, 0, 0))
            for s in range(1, 69)
            for t in range(1, 69)
        ][:4600]
        es = build_encoded_set(data)
        assert len({p[0] for p in es.points}) == 1
        report = coinflip_bound(es)
        assert report.status == BUDGET_EXCEEDED
        assert report.parameters["nodes_visited"] == DEFAULT_BUDGET + 1 == 10_000_001

    @settings(deadline=None, max_examples=200)
    @given(arbitrary_encoded_sets(max_depth=4, max_points=12))
    def test_pairs_compared_counts_the_reference_sweep(self, es):
        _, compared = budgeted_close_pairs(es.points)
        assert eset._pairs_compared(es.points) == compared

    @settings(deadline=None, max_examples=80)
    @given(small_encoded_sets, st.integers(1, 40))
    def test_matches_the_recursive_search(self, es, budget):
        expected = recursive_coinflip(es, budget)
        if expected.status == BUDGET_EXCEEDED:
            return
        report = coinflip_bound(es)
        assert report.status == expected.status
        assert report.counterexample == expected.counterexample

    @settings(deadline=None, max_examples=80)
    @given(small_encoded_sets, st.integers(1, 40))
    def test_search_oracle_matches_the_recursive_search(self, es, budget):
        assert _coinflip_search_oracle(es, budget) == recursive_coinflip(es, budget)


def budgeted_close_pairs(points, budget=None):
    """The close pairs (i, j), i < j, of sorted points and the number of pairs
    compared, comparing only the j with points[j][0] <= points[i][0] + 1 and
    stopping with None in place of the pairs once more than `budget` have
    been compared: the reference for `_close_pairs` and `_pairs_compared`."""
    close = []
    compared = 0
    for i in range(len(points) - 1):
        p = points[i]
        for j in range(i + 1, len(points)):
            q = points[j]
            if q[0] > p[0] + 1:
                break
            compared += 1
            if budget is not None and compared > budget:
                return None, compared
            if all(-1 <= pv - qv <= 1 for pv, qv in zip(p, q)):
                close.append((i, j))
    return close, compared


def uncached_coinflip(es, budget):
    """The coin-flip report from a budgeted sweep of its own: the reference
    for the count and the cached sweep that `coinflip_bound` reads."""
    close, compared = budgeted_close_pairs(es.points, budget)
    parameters = {"points": es.size, "budget": budget, "nodes_visited": compared}
    if not close:
        status = BUDGET_EXCEEDED if close is None else PASS
        return VerificationReport(
            "coinflip-bound", status, es.depth, parameters=parameters
        )
    r = min(
        tuple(-min(pv, qv) for pv, qv in zip(es.points[i], es.points[j]))
        for i, j in close
    )
    hits = [p for p in es.points if all(0 <= pv + rk <= 1 for pv, rk in zip(p, r))]
    return VerificationReport(
        "coinflip-bound",
        FAIL,
        es.depth,
        lhs=len(hits),
        rhs=1,
        counterexample={"r": r, "hits": hits},
        parameters=parameters,
    )


def recursive_coinflip(es, budget):
    """The coin-flip search written as a recursion: the reference for the
    explicit-stack `acceptance._coinflip_search_oracle` (same candidate
    order, budget unit and counts) and for the closed form."""
    visited = 0

    class Exhausted(Exception):
        pass

    def scan(k, alive, r):
        nonlocal visited
        if k == es.depth:
            return r, alive
        for rk in sorted(
            {v for i in alive for v in (-es.points[i][k], 1 - es.points[i][k])}
        ):
            visited += 1
            if visited > budget:
                raise Exhausted
            survivors = tuple(i for i in alive if 0 <= es.points[i][k] + rk <= 1)
            if len(survivors) >= 2:
                found = scan(k + 1, survivors, r + (rk,))
                if found is not None:
                    return found
        return None

    status, found = PASS, None
    if es.size >= 2:
        try:
            found = scan(0, tuple(range(es.size)), ())
        except Exhausted:
            status = BUDGET_EXCEEDED
    parameters = {"points": es.size, "budget": budget, "nodes_visited": visited}
    if found is None:
        return VerificationReport("coinflip-bound", status, es.depth, parameters=parameters)
    r, alive = found
    hits = [es.points[i] for i in alive]
    return VerificationReport(
        "coinflip-bound",
        FAIL,
        es.depth,
        lhs=len(hits),
        rhs=1,
        counterexample={"r": r, "hits": hits},
        parameters=parameters,
    )


def _load_bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_benchmark_reads_the_report_keys():
    # bench/spans.py counts work from these report parameters in a traced
    # run; a renamed key must fail here rather than there
    spans = _load_bench_spans()
    counts = dict.fromkeys(spans.COUNTERS, 0)
    es = EncodedSet(1, ((0,), (1,), (4,)))
    gap = check_pairwise_gap(es)
    flip = coinflip_bound(es)
    spans.OBSERVERS["eset.check_pairwise_gap"](counts, gap, None)
    spans.OBSERVERS["eset.coinflip_bound"](counts, flip, None)
    assert counts["eset.check_pairwise_gap.pairs"] == 3
    assert counts["eset.coinflip_bound.nodes_visited"] == 1


def test_traced_benchmark_targets_resolve():
    # the traced run wraps these functions by name; a deleted or renamed
    # one must fail here rather than there
    spans = _load_bench_spans()
    for module, attr in spans.TARGETS:
        obj = importlib.import_module(f"haarnull.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module, attr)


class TestSerializationHelpers:
    def test_graph_datum_roundtrip(self):
        gd = GraphDatum((2, 1), (1, 0), (2, 1))
        assert graph_datum_from_dict({"a": [2, 1], "x": [1, 0], "g": [2, 1]}) == gd

    def test_from_dict_shape_errors(self):
        with pytest.raises(GraphDataParseError):
            graph_datum_from_dict([1, 2, 3])
        with pytest.raises(GraphDataParseError):
            graph_datum_from_dict({"a": [1], "x": [0]})
        with pytest.raises(GraphDataParseError):
            graph_datum_from_dict({"a": [1], "x": [0], "g": [0], "extra": 1})
        with pytest.raises(GraphDataParseError):
            graph_datum_from_dict({"a": 1, "x": [0], "g": [0]})

    @pytest.mark.parametrize("key", ["a", "x", "g"])
    @pytest.mark.parametrize("entry", [1.5, 1.0, True, "0", None])
    def test_from_dict_non_integer_entries(self, key, entry):
        raw = {"a": [1, 1], "x": [0, 0], "g": [0, 0]}
        raw[key] = raw[key][:1] + [entry]
        with pytest.raises(GraphDataParseError, match=f'field "{key}"'):
            graph_datum_from_dict(raw)

    @settings(max_examples=400)
    @given(datum_dicts | json_entries | st.lists(json_entries, max_size=2))
    def test_from_dict_matches_the_reference(self, d):
        assert outcome(graph_datum_from_dict, d) == outcome(
            reference_graph_datum_from_dict, d
        )

    @pytest.mark.parametrize(
        "d",
        [
            {"a": [2, 1], "x": [1, 0], "g": [g, 0]}
            for g in (-1, 0, 2, 3, 4)  # the codec domain of a = 2 is [0, 3]
        ]
        + [
            {"a": [2, 1], "x": [x, 0], "g": [0, 0]} for x in (-1, 2)
        ]
        + [
            {"a": [n, 1], "x": [0, 0], "g": [0, 0]} for n in (0, 1)
        ],
    )
    def test_from_dict_edges_match_the_reference(self, d):
        assert outcome(graph_datum_from_dict, d) == outcome(
            reference_graph_datum_from_dict, d
        )

    @given(valid_datum_dicts())
    def test_one_pass_build_is_the_constructor(self, d):
        got = graph_datum_from_dict(d)
        want = GraphDatum(tuple(d["a"]), tuple(d["x"]), tuple(d["g"]))
        assert type(got) is type(want)
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert vars(got) == vars(want)

    def test_from_dict_value_errors_are_plain(self):
        with pytest.raises(ValueError) as info:
            graph_datum_from_dict({"a": [1], "x": [0], "g": [5]})
        assert not isinstance(info.value, GraphDataParseError)

    def test_encoded_set_roundtrip(self):
        es = EncodedSet(2, ((0, 1), (3, 0)))
        assert encoded_set_from_dict(encoded_set_to_dict(es)) == es

    def test_encoded_set_from_dict_shape_error(self):
        with pytest.raises(GraphDataParseError):
            encoded_set_from_dict({"depth": 1})
        with pytest.raises(GraphDataParseError):
            encoded_set_from_dict([1, 2])

    @pytest.mark.parametrize(
        "bad",
        [
            {"depth": 1, "points": 5},
            {"depth": 1, "points": [5]},
            {"depth": 1, "points": [[0], "1"]},
            {"depth": 1.0, "points": [[0]]},
            {"depth": 1, "points": [[0.0]]},
            {"depth": True, "points": [[0]]},
            {"depth": 1, "points": [[False]]},
        ],
    )
    def test_encoded_set_from_dict_strict(self, bad):
        with pytest.raises(GraphDataParseError):
            encoded_set_from_dict(bad)

    @given(
        st.integers(0, 3).flatmap(
            lambda depth: st.tuples(
                st.just(depth),
                st.lists(
                    st.lists(st.integers(0, 6), min_size=depth, max_size=depth),
                    max_size=12,
                ),
            )
        )
    )
    def test_valid_input_is_the_constructor(self, case):
        depth, points = case
        got = encoded_set_from_dict({"depth": depth, "points": points})
        want = EncodedSet(depth, points)
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)

    @given(
        st.integers(-1, 3),
        st.lists(
            st.lists(st.integers(-1, 3) | st.sampled_from([0.5, True, "1"]), max_size=4),
            max_size=5,
        ),
    )
    def test_faulty_input_raises_as_the_two_pass_parse(self, depth, points):
        d = {"depth": depth, "points": points}
        assert outcome_of(encoded_set_from_dict, d) == outcome_of(
            reference_encoded_set_from_dict, d
        )

    @pytest.mark.parametrize(
        "points, depth, error, message",
        [
            ([[0], [1, "x"]], 2, GraphDataParseError, "codes must be integers, got 'x'"),
            ([[1, 0], [0], [-1, 0]], 2, DatasetError, "point (0,) has length 1, expected depth 2"),
            ([[2, 0], [-1, 0], [0]], 2, DatasetError, "code must be >= 0, got -1"),
            ([[-1]], -1, DatasetError, "depth must be >= 0, got -1"),
            ([[-1], [0.5]], -1, GraphDataParseError, "codes must be integers, got 0.5"),
        ],
    )
    def test_several_faults_keep_the_first_message(self, points, depth, error, message):
        with pytest.raises(error) as info:
            encoded_set_from_dict({"depth": depth, "points": points})
        assert (type(info.value), str(info.value)) == (error, message)

    def test_encoded_set_from_dict_value_errors_are_plain(self):
        for bad in ({"depth": 1, "points": [[-1]]}, {"depth": 2, "points": [[0]]}):
            with pytest.raises(ValueError) as info:
                encoded_set_from_dict(bad)
            assert not isinstance(info.value, GraphDataParseError)


class TestLoadGraphData:
    def test_loads_with_line_numbers(self):
        lines = [
            '{"a": [1], "x": [0], "g": [1]}',
            "",
            '{"a": [1], "x": [1], "g": [0]}',
        ]
        pairs = load_graph_data(lines)
        assert [lineno for lineno, _ in pairs] == [1, 3]
        assert pairs[0][1] == GraphDatum((1,), (0,), (1,))

    def test_syntax_error_has_line_number(self):
        with pytest.raises(GraphDataParseError, match="line 2"):
            load_graph_data(['{"a": [1], "x": [0], "g": [0]}', "nope"])

    def test_value_error_has_line_number(self):
        with pytest.raises(ValueError, match="line 1") as info:
            load_graph_data(['{"a": [1], "x": [0], "g": [9]}'])
        assert not isinstance(info.value, GraphDataParseError)

    def test_repeated_key_is_a_parse_error(self):
        lines = [
            '{"a": [1], "x": [0], "g": [0]}',
            '{"a": [1], "x": [1], "g": [0], "a": [2]}',
        ]
        with pytest.raises(GraphDataParseError) as info:
            load_graph_data(lines)
        assert str(info.value) == "line 2: invalid JSON: duplicate key 'a'"

    def test_over_long_integer_is_a_parse_error(self):
        lines = [
            '{"a": [1], "x": [0], "g": [0]}',
            '{"a": [' + "1" * 5000 + '], "x": [0], "g": [0]}',
        ]
        message = "^line 2: invalid JSON: Exceeds the limit"
        with pytest.raises(GraphDataParseError, match=message):
            load_graph_data(lines)

    @settings(max_examples=300)
    @given(st.lists(graph_data_lines, max_size=5))
    def test_matches_the_reference(self, lines):
        assert load_outcome(load_graph_data, lines) == load_outcome(
            reference_load_graph_data, lines
        )

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a": ', "}")])
    def test_nesting_past_the_recursion_limit_matches_the_reference(
        self, opener, closer
    ):
        # read here: hypothesis raises the limit while its tests run
        depth = sys.getrecursionlimit() + 10
        lines = ['{"a": [1], "x": [0], "g": [1]}', opener * depth + "0" + closer * depth]
        outcome = load_outcome(load_graph_data, lines)
        assert outcome == load_outcome(reference_load_graph_data, lines)
        assert outcome[0] is GraphDataParseError
        assert outcome[1].startswith("line 2: invalid JSON: maximum recursion depth")

    @pytest.mark.parametrize("space", ["\xa0", "\u3000", "\x0b", "\x1f"])
    def test_only_json_whitespace_makes_a_line_blank(self, space):
        datum = '{"a": [1], "x": [0], "g": [1]}'
        for lines in ([space, datum], [space]):
            with pytest.raises(GraphDataParseError) as info:
                load_graph_data(lines)
            assert str(info.value) == (
                "line 1: invalid JSON: Expecting value: line 1 column 1 (char 0)"
            )
        assert [n for n, _ in load_graph_data(["", " \t\r\n", datum])] == [3]

    def test_bom_message_is_that_of_json_loads(self):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads("\ufeff{}")
        with pytest.raises(GraphDataParseError) as info:
            load_graph_data(["\ufeff{}"])
        assert str(info.value) == f"line 1: invalid JSON: {expected.value}"


class TestDatasetError:
    """Well-shaped input with bad values raises `DatasetError`, a `ValueError`."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (
                lambda: load_graph_data(['{"a": [1], "x": [0], "g": [9]}']),
                "line 1: offsets (9,) leave the codec domain for sizes (1,)",
            ),
            (lambda: build_encoded_set([]), "cannot build an encoded set from no data"),
            (
                lambda: build_encoded_set(
                    [GraphDatum((1,), (0,), (0,)), GraphDatum((1, 1), (0, 0), (0, 0))]
                ),
                "datum 2 has depth 2, expected 1",
            ),
            (
                lambda: build_encoded_set([GraphDatum((1,), (0,), (2,))]),
                "datum 1 has an offset at a size + 1 boundary; "
                "boundary offsets must be allowed explicitly",
            ),
            (
                lambda: build_encoded_set(
                    [GraphDatum((1,), (0,), (0,)), GraphDatum((1,), (0,), (1,))]
                ),
                "datum 2 repeats the argument (a, x) of datum 1",
            ),
            (
                lambda: encoded_set_from_dict({"depth": 1, "points": [[-1]]}),
                "code must be >= 0, got -1",
            ),
            (
                lambda: encoded_set_from_dict({"depth": 2, "points": [[0]]}),
                "point (0,) has length 1, expected depth 2",
            ),
            (
                lambda: encoded_set_from_dict({"depth": -1, "points": []}),
                "depth must be >= 0, got -1",
            ),
        ],
        ids=[
            "graph-datum-value",
            "no-data",
            "mixed-depth",
            "boundary-offset",
            "repeated-argument",
            "negative-code",
            "point-length",
            "negative-depth",
        ],
    )
    def test_raised_with_the_message(self, make, message):
        with pytest.raises(DatasetError) as info:
            make()
        assert str(info.value) == message

    def test_is_a_value_error_exported_by_the_package(self):
        assert issubclass(DatasetError, ValueError)
        assert not issubclass(DatasetError, GraphDataParseError)
        assert not issubclass(GraphDataParseError, DatasetError)
        assert haarnull.DatasetError is DatasetError
