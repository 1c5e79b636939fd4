"""Exact-arithmetic tests for measures, product specs, and cylinder sets."""

import tracemalloc
from decimal import Decimal
from fractions import Fraction
from itertools import product as iter_product
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haarnull.acceptance import (
    _explicit_uniform,
    convolve_oracle,
    restrict_normalize_instances,
)
from haarnull import measures
from haarnull.measures import (
    CylinderSet,
    FiniteMeasureZ,
    PointMassTail,
    ProductMeasureSpec,
    UniformTail,
    UnsupportedDepthError,
    box_intersection_measure,
    box_measure,
    convolve,
    dirac,
    lattice_points,
    materialize,
    measure_of,
    translate_measure,
    translate_set,
    uniform,
    uniform_product_spec,
)
from haarnull.serialization import measure_from_dict
from haarnull.witness import synthesize_witness
from oracles import expand, intersect, support_box, union


@st.composite
def finite_measures(draw, lo=-6, hi=6, max_points=5):
    support = draw(
        st.lists(st.integers(lo, hi), min_size=1, max_size=max_points, unique=True)
    )
    weights = [draw(st.integers(1, 9)) for _ in support]
    total = sum(weights)
    return FiniteMeasureZ(
        {z: Fraction(w, total) for z, w in zip(support, weights)}
    )


@st.composite
def mixed_measures(draw, lo=-6, hi=6, max_points=5):
    """Measures whose masses have unequal denominators (1/2, 1/3, 1/7, ...)."""
    support = draw(
        st.lists(st.integers(lo, hi), min_size=1, max_size=max_points, unique=True)
    )
    parts = [
        Fraction(draw(st.integers(1, 6)), draw(st.sampled_from((1, 2, 3, 5, 7))))
        for _ in support
    ]
    total = sum(parts)
    return FiniteMeasureZ({z: w / total for z, w in zip(support, parts)})


@st.composite
def small_specs(draw, max_depth=3):
    depth = draw(st.integers(1, max_depth))
    return ProductMeasureSpec(
        tuple(draw(finite_measures(lo=-3, hi=3, max_points=3)) for _ in range(depth))
    )


def cylinders_in(spec, draw_entries):
    """Strategy for cylinder sets over the support region of a spec."""
    box = support_box(spec)
    entry = [st.integers(lo - 1, hi + 1) for lo, hi in box]
    prefix = st.tuples(*entry)
    return st.lists(prefix, min_size=0, max_size=draw_entries).map(
        lambda ps: CylinderSet(spec.depth, tuple(ps))
    )


def enumeration_measure(spec, cyl):
    """Oracle: enumerate the whole support lattice and sum matching masses."""
    supports = [spec.coordinate(n).support for n in range(cyl.depth)]
    members = set(cyl.prefixes)
    total = Fraction(0)
    for point in iter_product(*supports):
        if point in members:
            mass = Fraction(1)
            for n, v in enumerate(point):
                mass *= spec.coordinate(n).mass(v)
            total += mass
    return total


def interval_mass(m, lo, hi):
    """The mass of the integer interval [lo, hi] under m: the box measure
    of the depth-1 spec of m."""
    return box_measure(ProductMeasureSpec((m,)), ((lo, hi),))


class TestFiniteMeasure:
    def test_uniform_weights(self):
        m = uniform(2)
        assert m.weights == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
        assert m.support == (0, 1, 2)

    def test_uniform_rejects_negative_size(self):
        with pytest.raises(ValueError):
            uniform(-1)

    @pytest.mark.parametrize("k", [True, 2.0, "3"])
    def test_uniform_rejects_non_integer_sizes(self, k):
        with pytest.raises(ValueError) as info:
            uniform(k)
        assert str(info.value) == f"uniform size must be an integer, got {k!r}"

    def test_dirac(self):
        assert dirac(-4).weights == {-4: Fraction(1)}

    def test_total_mass_must_be_one(self):
        with pytest.raises(ValueError):
            FiniteMeasureZ({0: Fraction(1, 2)})

    @pytest.mark.parametrize(
        "weights, total",
        [
            ({0: Fraction(1, 2), 1: Fraction(1, 3)}, "5/6"),
            ({0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(1, 7)}, "41/42"),
            ({0: Fraction(1), 1: Fraction(1)}, "2"),
            ({-3: Fraction(2, 3), 4: Fraction(2, 3)}, "4/3"),
        ],
    )
    def test_total_mass_message(self, weights, total):
        with pytest.raises(ValueError) as info:
            FiniteMeasureZ(weights)
        assert str(info.value) == f"total mass is {total}, expected exactly 1"

    def test_empty_support_rejected(self):
        for weights in ({}, {4: Fraction(0), 5: 0}):
            with pytest.raises(ValueError) as info:
                FiniteMeasureZ(weights)
            assert str(info.value) == "a probability measure needs nonempty support"

    def test_negative_mass_rejected(self):
        for weights, message in (
            ({0: Fraction(3, 2), 1: Fraction(-1, 2)}, "negative mass -1/2 at point 1"),
            ({0: -1, 1: 2}, "negative mass -1 at point 0"),
        ):
            with pytest.raises(ValueError) as info:
                FiniteMeasureZ(weights)
            assert str(info.value) == message

    def test_noninteger_point_rejected(self):
        for point in (0.5, True, "0"):
            with pytest.raises(ValueError) as info:
                FiniteMeasureZ({point: Fraction(1)})
            assert str(info.value) == f"support point must be an integer, got {point!r}"

    @pytest.mark.parametrize(
        "weights, bad",
        [
            ({0: 0.5, 1: 0.5}, 0),
            ({0: True}, 0),
            ({0: Fraction(1, 2), 1: "1/2"}, 1),
            ({2: Decimal(1)}, 2),
            ({-1: 1.0}, -1),
            ({0: 1, 3: None}, 3),
        ],
        ids=["float", "bool", "string", "decimal", "float-one", "none"],
    )
    def test_masses_must_be_int_or_fraction(self, weights, bad):
        with pytest.raises(ValueError) as info:
            FiniteMeasureZ(weights)
        assert str(info.value) == (
            f"mass at point {bad} must be an integer or a Fraction, "
            f"got {weights[bad]!r}"
        )

    def test_integer_masses_become_fractions(self):
        m = FiniteMeasureZ({3: 1, 4: 0})
        assert m.weights == {3: Fraction(1)}
        assert type(m.weights[3]) is Fraction

    def test_zero_mass_points_dropped(self):
        m = FiniteMeasureZ({0: Fraction(1), 7: Fraction(0)})
        assert m.support == (0,)

    def test_interval_mass(self):
        m = uniform(3)
        assert interval_mass(m, 1, 2) == Fraction(1, 2)
        assert interval_mass(m, 4, 9) == 0
        assert interval_mass(m, -5, 5) == 1

    @pytest.mark.parametrize("lo, hi", [(4, 9), (2, 1), (-9, -1)])
    def test_interval_mass_of_an_empty_interval(self, lo, hi):
        got = interval_mass(uniform(3), lo, hi)
        assert type(got) is Fraction
        assert got == Fraction(0)

    @given(mixed_measures(), st.integers(-7, 7), st.integers(-7, 7))
    def test_interval_mass_matches_fraction_sum(self, m, lo, hi):
        want = Fraction(0)
        for z, w in m.weights.items():
            if lo <= z <= hi:
                want += w
        assert interval_mass(m, lo, hi) == want

    @given(finite_measures())
    def test_hashable_and_equal_by_weights(self, m):
        clone = FiniteMeasureZ(dict(m.weights))
        assert clone == m
        assert hash(clone) == hash(m)


class TestTrustedConstruction:
    """The builders skip the constructor's checks; their results must pass them."""

    @given(
        st.one_of(
            st.integers(0, 400).map(uniform),
            st.integers(-(10**6), 10**6).map(dirac),
            st.builds(convolve, mixed_measures(), mixed_measures()),
            st.builds(translate_measure, mixed_measures(), st.integers(-9, 9)),
        )
    )
    def test_built_measures_equal_checked_ones(self, m):
        assert isinstance(m.weights, Mapping)
        assert all(type(z) is int for z in m.weights)
        assert all(type(w) is Fraction and w > 0 for w in m.weights.values())
        checked = FiniteMeasureZ(dict(m.weights))
        assert checked == m
        assert hash(checked) == hash(m)
        assert repr(checked) == repr(m)

    @given(mixed_measures())
    def test_translate_stores_a_fresh_dict(self, p):
        assert translate_measure(p, 0).weights is not p.weights

    def test_trusted_path_stays_in_measures(self):
        package = Path(__file__).resolve().parents[1] / "src" / "haarnull"
        users = {
            path.name
            for path in package.glob("*.py")
            if "_trusted_measure" in path.read_text()
        }
        assert users == {"measures.py"}

    def test_parsed_measures_are_checked(self):
        with pytest.raises(ValueError) as info:
            measure_from_dict({"weights": {"0": "1/2"}})
        assert str(info.value) == "total mass is 1/2, expected exactly 1"


def interval_keys(k):
    """Keys a dict on {0, ..., k} may or may not hold: ints in and around
    it, booleans, floats and Fractions, equal to such ints or not."""
    near = st.integers(-3, k + 3)
    return st.one_of(
        near,
        st.booleans(),
        near.map(float),
        st.floats(),
        near.map(Fraction),
        st.fractions(),
    )


class TestUniformIntervals:
    """A uniform measure stores its weights and its counts as `_Interval`s,
    which read like the dicts of the same items."""

    @settings(deadline=None)
    @given(
        st.integers(0, 400).flatmap(
            lambda k: st.tuples(st.just(k), st.lists(interval_keys(k), max_size=12))
        )
    )
    def test_intervals_read_like_their_dicts(self, drawn):
        k, keys = drawn
        m = uniform(k)
        explicit = _explicit_uniform(k)
        D, counts = m._form
        assert D == explicit._form[0] == k + 1
        for interval, checked in ((m.weights, explicit.weights), (counts, explicit._form[1])):
            plain = dict(interval)
            assert plain == checked
            assert len(interval) == len(plain) == k + 1
            assert list(interval) == list(plain) == list(range(k + 1))
            assert interval == plain and plain == interval and interval == checked
            for key in keys:
                assert (key in interval) == (key in plain)
                assert interval.get(key) == plain.get(key)
                assert interval.get(key, "absent") == plain.get(key, "absent")
                if key in plain:
                    assert interval[key] == plain[key]
                    assert type(interval[key]) is type(plain[key])
                else:
                    with pytest.raises(KeyError):
                        interval[key]
        assert m == explicit and explicit == m
        assert hash(m) == hash(explicit)
        assert repr(m) == repr(explicit)

    @given(
        st.integers(0, 40),
        st.integers(0, 40),
        st.sampled_from([1, 2, Fraction(1), Fraction(1, 2)]),
        st.sampled_from([1, 2, Fraction(1), Fraction(1, 2)]),
    )
    def test_intervals_compare_as_their_dicts(self, j, k, a, b):
        left, right = measures._Interval(j, a), measures._Interval(k, b)
        assert (left == right) == (dict(left) == dict(right))
        assert (left != right) == (dict(left) != dict(right))
        assert (uniform(j) == uniform(k)) == (j == k)

    def test_an_unhashable_key_raises_as_in_a_dict(self):
        for mapping in (uniform(3).weights, dict(uniform(3).weights)):
            for lookup in (
                lambda: [1] in mapping,
                lambda: mapping.get([1]),
                lambda: mapping[[1]],
            ):
                with pytest.raises(TypeError):
                    lookup()

    def test_a_key_equal_to_a_point_but_hashed_apart_is_absent(self):
        class EqualToOne:
            real = 1

            def __eq__(self, other):
                return other == 1

            def __hash__(self):
                return 12345

        key = EqualToOne()
        for mapping in (uniform(3).weights, dict(uniform(3).weights)):
            assert key not in mapping
            assert mapping.get(key) is None
            with pytest.raises(KeyError):
                mapping[key]

    def test_a_large_uniform(self):
        k = 10**6
        m = uniform(k)
        assert (m.min_support, m.max_support) == (0, k)
        assert m.mass(k) == Fraction(1, k + 1) and m.mass(k + 1) == 0
        assert len(m.weights) == k + 1
        assert m == uniform(k) and m != uniform(k - 1)
        assert box_measure(ProductMeasureSpec((m,)), ((1, k),)) == Fraction(k, k + 1)

    @given(st.integers(0, 30), st.integers(-40, 40), st.integers(-40, 40))
    @example(5, 1, 3)  # inside
    @example(5, 0, 5)  # the whole interval
    @example(5, -2, 2)  # straddling either end
    @example(5, 3, 9)
    @example(5, -5, 12)  # covering it
    @example(5, 6, 9)  # past either end
    @example(5, -4, -1)
    @example(5, 4, 2)  # lo > hi
    @example(5, 9, -9)
    def test_count_in_matches_the_sum(self, k, lo, hi):
        m = uniform(k)
        for counts in (m._form[1], m.weights):
            plain = dict(counts)
            want = sum(c for z, c in plain.items() if lo <= z <= hi)
            assert measures._count_in(counts, lo, hi) == want
            assert measures._count_in(plain, lo, hi) == want

    @given(st.data())
    def test_kernels_agree_with_explicit_uniforms(self, data):
        sizes = data.draw(st.lists(st.integers(0, 6), max_size=3))
        box = tuple(
            data.draw(st.tuples(st.integers(-2, k + 2), st.integers(-2, k + 2)))
            for k in sizes
        )
        depth = data.draw(st.integers(0, len(sizes)))
        prefix = st.tuples(*[st.integers(-2, k + 2) for k in sizes[:depth]])
        cyl = CylinderSet(depth, tuple(data.draw(st.lists(prefix, max_size=5))))
        built = uniform_product_spec(sizes)
        explicit = ProductMeasureSpec(tuple(_explicit_uniform(k) for k in sizes))
        for kernel in (
            lambda spec: box_intersection_measure(spec, cyl, box),
            lambda spec: box_measure(spec, box),
            lambda spec: measure_of(spec, cyl),
        ):
            got = kernel(built)
            assert type(got) is Fraction
            assert got == kernel(explicit)


def traced_peak(run) -> int:
    """How far the `tracemalloc` peak rises above the traced memory while
    run() runs, in bytes."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemoryBound:
    """A uniform size is a number in the input; the memory a computation
    takes must not grow with it."""

    def test_a_huge_uniform(self):
        assert traced_peak(lambda: uniform(10**6)) < 10**6

    def test_deep_restrict_normalize_instances(self):
        # smoothing sizes reach 2^(n+2) times the radius at depth 14
        assert traced_peak(lambda: list(restrict_normalize_instances(0, 20, 14))) < 2 * 10**6

    def test_synthesis_on_a_huge_uniform_tail(self):
        spec = ProductMeasureSpec((), UniformTail(10**6))
        assert traced_peak(lambda: synthesize_witness(materialize(spec, 1))) < 10**6

    @pytest.mark.parametrize("k", [10**6, 10**12])
    def test_a_huge_uniform_against_a_small_measure(self, k):
        # a mapping of another length is unequal on its length alone
        small = FiniteMeasureZ({0: 1})

        def compare():
            assert uniform(k) != small and small != uniform(k)
            assert uniform(k).weights != {0: Fraction(1)}
            assert {0: 1} != uniform(k)._form[1]

        assert traced_peak(compare) < 10**5


class TestUniformCache:
    """`uniform` checks its argument on every call and builds each size once."""

    def test_a_cached_size_still_rejects_bad_arguments(self):
        uniform(1)
        for k, message in (
            (True, "uniform size must be an integer, got True"),
            (1.0, "uniform size must be an integer, got 1.0"),
            (-1, "uniform size must be >= 0, got -1"),
        ):
            with pytest.raises(ValueError) as info:
                uniform(k)
            assert str(info.value) == message

    def test_an_int_subclass_gets_the_plain_int_measure(self):
        class Size(int):
            pass

        m = uniform(Size(5))
        assert m is uniform(5)
        assert type(m.max_support) is int

    @given(st.integers(0, 400))
    def test_cached_measures_equal_checked_ones(self, k):
        m = uniform(k)
        assert uniform(k) is m
        explicit = _explicit_uniform(k)
        assert m == explicit and explicit == m
        assert hash(m) == hash(explicit)
        assert repr(m) == repr(explicit)

    def test_the_cache_stays_bounded(self):
        bound = measures._UNIFORM_CACHE_SIZE
        sizes = range(10**9, 10**9 + 10 * bound)

        def fill():
            for k in sizes:
                uniform(k)

        peak = traced_peak(fill)
        assert measures._uniform.cache_info().currsize <= bound
        # an entry is a measure, its dict, two intervals and a Fraction
        assert peak < 1000 * bound

    @given(st.lists(st.integers(0, 40), max_size=6))
    def test_uniform_products_equal_checked_ones(self, sizes):
        built = uniform_product_spec(sizes)
        checked = ProductMeasureSpec(tuple(_explicit_uniform(k) for k in sizes))
        assert built == checked
        assert hash(built) == hash(checked)
        assert repr(built) == repr(checked)


class TestConvolve:
    def test_two_fair_coins(self):
        got = convolve(uniform(1), uniform(1))
        assert got.weights == {
            0: Fraction(1, 4),
            1: Fraction(1, 2),
            2: Fraction(1, 4),
        }

    @given(finite_measures(), finite_measures())
    def test_mass_and_support_extremes(self, p, q):
        r = convolve(p, q)
        assert sum(r.weights.values()) == 1
        assert r.min_support == p.min_support + q.min_support
        assert r.max_support == p.max_support + q.max_support

    def test_mixed_denominators_pinned(self):
        p = FiniteMeasureZ({-1: Fraction(1, 2), 0: Fraction(1, 3), 2: Fraction(1, 6)})
        q = FiniteMeasureZ({-3: Fraction(1, 7), 5: Fraction(6, 7)})
        got = convolve(p, q)
        assert got == convolve_oracle(p, q)
        assert got.weights == {
            -4: Fraction(1, 14),
            -3: Fraction(1, 21),
            -1: Fraction(1, 42),
            4: Fraction(3, 7),
            5: Fraction(2, 7),
            7: Fraction(1, 7),
        }

    @given(
        st.one_of(mixed_measures(), st.integers(-6, 6).map(dirac)),
        st.one_of(mixed_measures(), st.integers(-6, 6).map(dirac)),
    )
    def test_matches_the_outcome_pair_oracle(self, p, q):
        got = convolve(p, q)
        want = convolve_oracle(p, q)
        assert got == want
        assert all(type(m) is Fraction for m in got.weights.values())

    @given(finite_measures(), finite_measures())
    def test_commutative(self, p, q):
        assert convolve(p, q) == convolve(q, p)

    @settings(max_examples=25)
    @given(
        finite_measures(max_points=3),
        finite_measures(max_points=3),
        finite_measures(max_points=3),
    )
    def test_associative(self, p, q, r):
        assert convolve(convolve(p, q), r) == convolve(p, convolve(q, r))

    @given(finite_measures())
    def test_point_mass_at_zero_is_identity(self, p):
        assert convolve(p, dirac(0)) == p

    @given(finite_measures(), st.integers(-5, 5))
    def test_point_mass_convolution_translates(self, p, k):
        assert convolve(p, dirac(k)) == translate_measure(p, -k)


class TestTranslateMeasure:
    @given(finite_measures(), st.integers(-5, 5))
    def test_roundtrip(self, p, s):
        assert translate_measure(translate_measure(p, s), -s) == p

    @given(finite_measures(), st.integers(-5, 5))
    def test_support_moves_opposite_to_shift(self, p, s):
        assert translate_measure(p, s).max_support == p.max_support - s

    def test_pointwise_semantics(self):
        p = FiniteMeasureZ({2: Fraction(1, 3), 5: Fraction(2, 3)})
        q = translate_measure(p, 2)
        assert q.mass(0) == Fraction(1, 3)
        assert q.mass(3) == Fraction(2, 3)


@st.composite
def built_measures(draw, depth=2):
    """A measure from a builder: `uniform`, `dirac`, a tail's `resolve()`,
    or `convolve` and `translate_measure` applied to built or public ones."""
    leaf = st.one_of(
        st.integers(0, 12).map(uniform),
        st.integers(-6, 6).map(dirac),
        st.integers(0, 12).map(lambda k: UniformTail(k).resolve()),
        st.integers(-6, 6).map(lambda z: PointMassTail(z).resolve()),
    )
    if depth == 0:
        return draw(leaf)
    operand = st.one_of(built_measures(depth - 1), mixed_measures())
    return draw(
        st.one_of(
            leaf,
            st.builds(convolve, operand, operand),
            st.builds(translate_measure, operand, st.integers(-9, 9)),
        )
    )


def assert_form_matches(m):
    D, counts = m._form
    assert counts.keys() == m.weights.keys()
    assert all(type(c) is int and c > 0 for c in counts.values())
    assert all(Fraction(counts[z], D) == w for z, w in m.weights.items())


class TestIntegerForm:
    """Every measure stores an integer form (D, counts) with weights[z] ==
    Fraction(counts[z], D), set when it is built, by the builders and by the
    public constructor alike."""

    @given(built_measures())
    def test_builders_store_a_matching_form(self, m):
        assert m.__dict__.keys() == {"weights", "_form"}
        assert_form_matches(m)

    @given(mixed_measures())
    def test_public_measures_store_a_matching_form(self, m):
        assert m.__dict__.keys() == {"weights", "_form"}
        assert_form_matches(m)

    @given(mixed_measures())
    def test_kernels_on_public_measures_call_no_lcm(self, m):
        def no_lcm(*args):
            raise AssertionError("a kernel derived an integer form")

        spec = ProductMeasureSpec((m, m))
        box = support_box(spec)
        cyl = expand(CylinderSet.whole_space(), box)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "lcm", no_lcm)
            assert_form_matches(convolve(m, m))
            assert_form_matches(translate_measure(m, 1))
            assert measure_of(spec, cyl) == 1
            assert box_intersection_measure(spec, CylinderSet.whole_space(), box) == 1

    def test_convolution_shares_one_fraction_per_distinct_mass(self):
        p = FiniteMeasureZ({-2: Fraction(1, 3), 0: Fraction(2, 3)})
        got = convolve(p, uniform(20))
        values = list(got.weights.values())
        assert all(type(w) is Fraction for w in values)
        # the plateau 1..20 carries 1/21 at every point
        assert len(set(values)) == 3
        assert got == convolve_oracle(p, uniform(20))
        assert_form_matches(got)

    @settings(deadline=None)
    @given(mixed_measures(), st.integers(0, 200))
    def test_wide_uniform_convolutions_match_the_oracle(self, p, k):
        # the convolutions the witness verifier builds, at its widest sizes
        got = convolve(p, uniform(k))
        assert got == convolve_oracle(p, uniform(k))
        assert_form_matches(got)


@st.composite
def mixed_specs(draw):
    """Prefix depth 0-3 of public and built measures, with no tail, a
    uniform tail or a point-mass tail."""
    entry = st.one_of(
        finite_measures(lo=-3, hi=3, max_points=3),
        built_measures(depth=1).filter(lambda m: len(m.weights) <= 6),
    )
    prefix = tuple(draw(entry) for _ in range(draw(st.integers(0, 3))))
    tail = draw(
        st.one_of(
            st.none(),
            st.integers(0, 2).map(UniformTail),
            st.integers(-2, 2).map(PointMassTail),
        )
    )
    return ProductMeasureSpec(prefix, tail)


class TestIntegerKernelsAgainstEnumeration:
    """`measure_of` and `box_intersection_measure` on integer forms agree
    with summing masses over the support lattice."""

    @staticmethod
    def draw_case(data):
        spec = data.draw(mixed_specs())
        deepest = spec.depth + (2 if spec.tail is not None else 0)
        box_depth = data.draw(st.integers(0, deepest))
        depth = data.draw(st.integers(0, box_depth))
        windows = [
            (spec.coordinate(n).min_support, spec.coordinate(n).max_support)
            for n in range(box_depth)
        ]
        cyl = data.draw(
            st.lists(
                st.tuples(
                    *[st.integers(lo - 1, hi + 1) for lo, hi in windows[:depth]]
                ),
                max_size=5,
            ).map(lambda ps: CylinderSet(depth, tuple(ps)))
        )
        # boxes inside, across and outside the support; lo > hi is empty
        ends = [st.integers(lo - 2, hi + 2) for lo, hi in windows]
        box = tuple((data.draw(e), data.draw(e)) for e in ends)
        return spec, cyl, box

    @settings(deadline=None)
    @given(st.data())
    def test_measure_of(self, data):
        spec, cyl, _ = self.draw_case(data)
        got = measure_of(spec, cyl)
        assert type(got) is Fraction
        assert got == enumeration_measure(spec, cyl)

    @settings(deadline=None)
    @given(st.data())
    def test_box_intersection_measure(self, data):
        spec, cyl, box = self.draw_case(data)
        k = cyl.depth
        inside = CylinderSet(
            k,
            tuple(
                s
                for s in cyl.prefixes
                if all(lo <= v <= hi for v, (lo, hi) in zip(s, box))
            ),
        )
        got = box_intersection_measure(spec, cyl, box)
        assert type(got) is Fraction
        assert got == enumeration_measure(spec, expand(inside, box[k:]))

    def test_fixed_cases(self):
        coin = FiniteMeasureZ({0: Fraction(1, 2), 1: Fraction(1, 2)})
        spec = ProductMeasureSpec((coin, convolve(coin, uniform(2))), UniformTail(2))
        whole = CylinderSet.whole_space()
        assert measure_of(spec, whole) == 1
        assert measure_of(spec, CylinderSet.empty(0)) == 0
        assert measure_of(spec, CylinderSet.empty(3)) == 0
        got = measure_of(spec, CylinderSet(3, ((1, 1, 0), (0, 3, 2))))
        assert got == Fraction(1, 18) + Fraction(1, 36)
        # a box that misses the support on a tail coordinate
        assert box_intersection_measure(spec, whole, ((0, 1), (0, 3), (3, 5))) == 0
        # a cylinder shallower than the box
        got = box_intersection_measure(
            spec, CylinderSet(1, ((1,),)), ((0, 1), (1, 2), (0, 0))
        )
        assert got == Fraction(1, 2) * Fraction(4, 6) * Fraction(1, 3)
        point_tail = ProductMeasureSpec((coin,), PointMassTail(-1))
        assert box_measure(point_tail, ((1, 1), (-1, -1), (-2, 0))) == Fraction(1, 2)
        assert box_measure(point_tail, ((0, 1), (0, 4))) == 0


class TestSmoothedBoxIntersectionMeasure:
    """`_smoothed_box_intersection_measure` is `box_intersection_measure` on
    the spec convolved coordinatewise with uniform(sizes[n]), without the
    convolution."""

    kernel = staticmethod(measures._smoothed_box_intersection_measure)

    @settings(deadline=None)
    @given(st.data())
    def test_equals_the_built_convolution(self, data):
        entry = st.one_of(
            finite_measures(lo=-4, hi=2, max_points=3),
            mixed_measures(lo=-4, hi=2, max_points=3),
        )
        prefix = tuple(data.draw(entry) for _ in range(data.draw(st.integers(0, 4))))
        tail = data.draw(
            st.one_of(
                st.none(),
                st.integers(0, 2).map(UniformTail),
                st.integers(-2, 2).map(PointMassTail),
            )
        )
        spec = ProductMeasureSpec(prefix, tail)
        box_depth = data.draw(st.integers(0, spec.depth + (2 if tail else 0)))
        sizes = tuple(data.draw(st.integers(0, 40)) for _ in range(box_depth))
        smooth = ProductMeasureSpec(
            tuple(convolve(spec.coordinate(n), uniform(s)) for n, s in enumerate(sizes))
        )
        windows = [(m.min_support, m.max_support) for m in smooth.prefix]
        # boxes inside, across and past the support; lo > hi is empty, and
        # an interval between two support points of a gapped measure
        # convolved with uniform(0) holds no mass
        ends = [st.integers(lo - 3, hi + 3) for lo, hi in windows]
        box = tuple((data.draw(e), data.draw(e)) for e in ends)
        depth = data.draw(st.integers(0, box_depth))
        cyl = data.draw(
            st.lists(
                st.tuples(*[st.integers(lo - 1, hi + 1) for lo, hi in windows[:depth]]),
                max_size=5,
            ).map(lambda ps: CylinderSet(depth, tuple(ps)))
        )
        got = self.kernel(spec, cyl, box, sizes)
        assert type(got) is Fraction
        assert got == box_intersection_measure(smooth, cyl, box)

    def test_fixed_cases(self):
        gapped = FiniteMeasureZ({-3: Fraction(1, 3), 0: Fraction(2, 3)})
        spec = ProductMeasureSpec((gapped,), UniformTail(1))
        whole = CylinderSet.whole_space()
        # coordinate 0 smoothed by uniform(1): 1/6, 1/6, 1/3, 1/3 on -3, -2, 0, 1
        assert self.kernel(spec, whole, ((-3, 1),), (1,)) == 1
        assert self.kernel(spec, whole, ((-4, 5), (0, 3)), (1, 2)) == 1
        # [-1, -1] lies between the support points: no mass, an exact zero
        for cyl in (whole, CylinderSet(1, ((-1,),)), CylinderSet.empty(1)):
            got = self.kernel(spec, cyl, ((-1, -1),), (1,))
            assert type(got) is Fraction and got == 0
        got = self.kernel(spec, whole, ((-3, 1), (-1, -1)), (1, 0))
        assert type(got) is Fraction and got == 0
        got = self.kernel(spec, CylinderSet(1, ((-2,), (1,))), ((-3, 1), (1, 2)), (1, 3))
        assert got == (Fraction(1, 6) + Fraction(1, 3)) * Fraction(2 + 2, 8)

    def test_errors_match_the_box_kernel(self):
        spec = uniform_product_spec((1, 1))
        for cyl, box in (
            (CylinderSet(2, ((0, 0),)), ((0, 1),)),
            (CylinderSet(1, ((0,),)), ((0, 1), (0, 1), (0, 1))),
        ):
            with pytest.raises(Exception) as want:
                box_intersection_measure(spec, cyl, box)
            with pytest.raises(type(want.value)) as got:
                self.kernel(spec, cyl, box, (0,) * len(box))
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "sizes, message",
        [
            ((1,), "1 smoothing sizes for a box of depth 2"),
            ((1, 2, 3), "3 smoothing sizes for a box of depth 2"),
            ((1, -1), "uniform size must be >= 0, got -1"),
            ((1, True), "uniform size must be an integer, got True"),
            ((1.0, 1), "uniform size must be an integer, got 1.0"),
        ],
    )
    def test_rejects_bad_sizes(self, sizes, message):
        spec = uniform_product_spec((1, 1))
        with pytest.raises(ValueError) as info:
            self.kernel(spec, CylinderSet.whole_space(), ((0, 1), (0, 1)), sizes)
        assert str(info.value) == message


class TestProductSpec:
    def test_coordinate_resolution(self):
        spec = ProductMeasureSpec((uniform(1),), UniformTail(2))
        assert spec.coordinate(0) == uniform(1)
        assert spec.coordinate(5) == uniform(2)

    def test_point_mass_tail(self):
        spec = ProductMeasureSpec((), PointMassTail(-1))
        assert spec.coordinate(9) == dirac(-1)

    def test_no_tail_raises_beyond_prefix(self):
        spec = ProductMeasureSpec((uniform(1),))
        with pytest.raises(UnsupportedDepthError):
            spec.coordinate(1)

    def test_resolvable_to(self):
        spec = ProductMeasureSpec((uniform(1),))
        assert spec.resolvable_to(1)
        assert not spec.resolvable_to(2)
        assert ProductMeasureSpec((), UniformTail(0)).resolvable_to(10)

    def test_materialize_extends_prefix(self):
        spec = ProductMeasureSpec((uniform(1),), UniformTail(3))
        deep = materialize(spec, 3)
        assert deep.depth == 3
        assert deep.prefix[2] == uniform(3)
        assert deep.tail == UniformTail(3)

    def test_materialize_without_tail_raises(self):
        with pytest.raises(UnsupportedDepthError):
            materialize(ProductMeasureSpec((uniform(1),)), 2)

    def test_materialize_rejects_negative_depth(self):
        spec = ProductMeasureSpec((uniform(1),), UniformTail(3))
        assert materialize(spec, 0) == spec
        with pytest.raises(ValueError, match="depth must be >= 0, got -2"):
            materialize(spec, -2)

    def test_uniform_product_spec(self):
        spec = uniform_product_spec((1, 2))
        assert spec.prefix == (uniform(1), uniform(2))

    def test_prefix_entries_validated(self):
        with pytest.raises(ValueError):
            ProductMeasureSpec(({0: 1},))


class TestCylinderSet:
    def test_canonical_sorted_dedup(self):
        c = CylinderSet(2, ((1, 0), (0, 0), (1, 0)))
        assert c.prefixes == ((0, 0), (1, 0))
        assert c.size == 2

    def test_tuple_prefixes_are_kept_and_others_converted(self):
        kept = (3, -1)
        c = CylinderSet(2, (kept, [0, 5], (x for x in (1, 1))))
        assert c.prefixes == ((0, 5), (1, 1), (3, -1))
        assert c.prefixes[2] is kept
        assert all(type(s) is tuple for s in c.prefixes)

    def test_depth_checked(self):
        with pytest.raises(ValueError):
            CylinderSet(2, ((1,),))
        with pytest.raises(ValueError):
            CylinderSet(-1, ())

    def test_empty_and_whole_space(self):
        assert CylinderSet.empty(3).is_empty
        whole = CylinderSet.whole_space()
        assert whole.depth == 0 and whole.prefixes == ((),)

    def test_union_intersect(self):
        a = CylinderSet(1, ((0,), (1,)))
        b = CylinderSet(1, ((1,), (2,)))
        assert union(a, b).prefixes == ((0,), (1,), (2,))
        assert intersect(a, b).prefixes == ((1,),)

    def test_depth_mismatch_raises(self):
        with pytest.raises(ValueError):
            union(CylinderSet(1, ((0,),)), CylinderSet(2, ()))

    def test_translate_roundtrip(self):
        c = CylinderSet(2, ((0, 3), (1, -1)))
        moved = translate_set(c, (2, -2))
        assert moved.prefixes == ((2, 1), (3, -3))
        assert translate_set(moved, (-2, 2)) == c

    def test_translate_length_checked(self):
        with pytest.raises(ValueError):
            translate_set(CylinderSet(2, ((0, 0),)), (1,))

    def test_expand(self):
        c = CylinderSet(1, ((5,),))
        grown = expand(c, ((0, 1),))
        assert grown.depth == 2
        assert grown.prefixes == ((5, 0), (5, 1))


class TestMeasureOf:
    @given(small_specs())
    def test_whole_space_has_mass_one(self, spec):
        whole = expand(CylinderSet.whole_space(), support_box(spec))
        assert measure_of(spec, whole) == 1

    @given(small_specs())
    def test_empty_has_mass_zero(self, spec):
        assert measure_of(spec, CylinderSet.empty(spec.depth)) == 0

    def test_depth_guard(self):
        spec = ProductMeasureSpec((uniform(1),))
        with pytest.raises(UnsupportedDepthError):
            measure_of(spec, CylinderSet(2, ((0, 0),)))

    @settings(deadline=None)
    @given(st.data())
    def test_against_enumeration_oracle(self, data):
        spec = data.draw(small_specs())
        cyl = data.draw(cylinders_in(spec, 6))
        assert measure_of(spec, cyl) == enumeration_measure(spec, cyl)

    @settings(deadline=None)
    @given(st.data())
    def test_additivity(self, data):
        spec = data.draw(small_specs())
        a = data.draw(cylinders_in(spec, 4))
        b = data.draw(cylinders_in(spec, 4))
        lhs = measure_of(spec, union(a, b)) + measure_of(spec, intersect(a, b))
        assert lhs == measure_of(spec, a) + measure_of(spec, b)

    @settings(deadline=None)
    @given(st.data())
    def test_monotone_under_union(self, data):
        spec = data.draw(small_specs())
        a = data.draw(cylinders_in(spec, 4))
        b = data.draw(cylinders_in(spec, 4))
        assert measure_of(spec, union(a, b)) >= measure_of(spec, a)

    @given(small_specs(), st.data())
    def test_translation_moves_mass(self, spec, data):
        cyl = data.draw(cylinders_in(spec, 4))
        shift = tuple(
            data.draw(st.integers(-2, 2)) for _ in range(spec.depth)
        )
        shifted_spec = ProductMeasureSpec(
            tuple(
                translate_measure(m, -s) for m, s in zip(spec.prefix, shift)
            ),
            spec.tail,
        )
        assert measure_of(spec, cyl) == measure_of(
            shifted_spec, translate_set(cyl, shift)
        )


class TestBoxes:
    def test_support_box(self):
        spec = ProductMeasureSpec(
            (FiniteMeasureZ({-2: Fraction(1, 2), 1: Fraction(1, 2)}), uniform(3))
        )
        assert support_box(spec) == ((-2, 1), (0, 3))

    @settings(deadline=None)
    @given(st.data())
    def test_box_measure_matches_expansion(self, data):
        spec = data.draw(small_specs())
        support = support_box(spec)
        whole = CylinderSet.whole_space()
        assert box_measure(spec, support) == measure_of(spec, expand(whole, support))
        assert box_measure(spec, support) == 1
        # boxes inside, across and outside the support; lo > hi is empty
        ends = [st.integers(lo - 3, hi + 3) for lo, hi in support]
        box = tuple((data.draw(e), data.draw(e)) for e in ends)
        assert box_measure(spec, box) == measure_of(spec, expand(whole, box))

    def test_box_measure_clips(self):
        spec = uniform_product_spec((3,))
        assert box_measure(spec, ((1, 2),)) == Fraction(1, 2)
        assert box_measure(spec, ((4, 9),)) == 0

    def test_boxes_missing_the_support_measure_an_exact_zero(self):
        spec = uniform_product_spec((3, 1))
        for box in (((4, 9), (0, 1)), ((0, 3), (2, 1)), ((1, 2), (-3, -1))):
            got = box_measure(spec, box)
            assert type(got) is Fraction and got == 0
        box = ((0, 3), (0, 1))
        for cyl in (
            CylinderSet.empty(1),
            CylinderSet(1, ((4,), (-1,))),
            CylinderSet(2, ((0, 2), (5, 0))),
        ):
            got = box_intersection_measure(spec, cyl, box)
            assert type(got) is Fraction and got == 0

    def test_box_intersection_of_one_cylinder(self):
        spec = uniform_product_spec((3, 1))
        got = box_intersection_measure(spec, CylinderSet(1, ((2,),)), ((0, 3), (1, 1)))
        assert type(got) is Fraction and got == Fraction(1, 8)

    def test_box_measure_depth_guard(self):
        with pytest.raises(UnsupportedDepthError):
            box_measure(uniform_product_spec((1,)), ((0, 1), (0, 1)))

    @settings(deadline=None)
    @given(st.data())
    def test_box_intersection_matches_materialized(self, data):
        spec = data.draw(small_specs())
        d = spec.depth
        box = tuple(
            (m.min_support, m.max_support) for m in spec.prefix
        )
        shallow = data.draw(st.integers(0, d))
        cyl = data.draw(
            st.lists(
                st.tuples(
                    *[st.integers(lo - 1, hi + 1) for lo, hi in box[:shallow]]
                ),
                min_size=0,
                max_size=4,
            ).map(lambda ps: CylinderSet(shallow, tuple(ps)))
        )
        inside = CylinderSet(
            shallow,
            tuple(
                s
                for s in cyl.prefixes
                if all(lo <= v <= hi for v, (lo, hi) in zip(s, box))
            ),
        )
        materialized = expand(inside, box[shallow:])
        assert box_intersection_measure(spec, cyl, box) == measure_of(
            spec, materialized
        )

    def test_box_intersection_depth_guards(self):
        spec = uniform_product_spec((1, 1))
        with pytest.raises(ValueError):
            box_intersection_measure(
                spec, CylinderSet(2, ((0, 0),)), ((0, 1),)
            )
        with pytest.raises(UnsupportedDepthError):
            box_intersection_measure(
                spec, CylinderSet(1, ((0,),)), ((0, 1), (0, 1), (0, 1))
            )

    def test_lattice_points_lex_order(self):
        box = ((0, 1), (-1, 0))
        assert list(lattice_points(box)) == [
            (0, -1),
            (0, 0),
            (1, -1),
            (1, 0),
        ]
