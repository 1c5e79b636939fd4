"""Witness synthesis and verification tests."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarnull import measures, witness
from haarnull.acceptance import _witness_prefix_oracle
from haarnull.measures import (
    CylinderSet,
    FiniteMeasureZ,
    PointMassTail,
    ProductMeasureSpec,
    UniformTail,
    UnsupportedDepthError,
    convolve,
    dirac,
    lattice_points,
    measure_of,
    translate_measure,
    translate_set,
    uniform,
    uniform_product_spec,
)
from haarnull.report import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    FAIL,
    PASS,
    VerificationReport,
)
from haarnull.witness import (
    DEFICIENCY_LOWER_BOUND,
    SynthesisTrace,
    choose_uniform_sizes,
    is_witness_prefix,
    shift_to_nonpositive,
    synthesize_witness,
    verify_restrict_normalize,
)


@st.composite
def coordinate_measures(draw, max_radius=3, max_shift=3):
    radius = draw(st.integers(0, max_radius))
    shift = draw(st.integers(-max_shift, max_shift))
    points = {shift - radius, shift}
    for z in range(shift - radius + 1, shift):
        if draw(st.booleans()):
            points.add(z)
    weights = {z: draw(st.integers(1, 9)) for z in sorted(points)}
    total = sum(weights.values())
    return FiniteMeasureZ({z: Fraction(w, total) for z, w in weights.items()})


@st.composite
def specs(draw, max_depth=4):
    depth = draw(st.integers(1, max_depth))
    return ProductMeasureSpec(
        tuple(draw(coordinate_measures()) for _ in range(depth))
    )


@st.composite
def tailed_specs(draw, max_depth=4):
    """Specs of depth 0 and up whose prefix mixes public measures with built
    ones (`uniform`, `dirac`, `translate_measure`, `convolve`), with or
    without a tail."""
    public = coordinate_measures()
    coordinate = st.one_of(
        public,
        st.integers(0, 6).map(uniform),
        st.integers(-4, 4).map(dirac),
        st.builds(translate_measure, public, st.integers(-5, 5)),
        st.builds(convolve, public, public),
    )
    tail = st.one_of(
        st.none(),
        st.integers(0, 3).map(UniformTail),
        st.integers(-3, 3).map(PointMassTail),
    )
    prefix = draw(st.lists(coordinate, max_size=max_depth))
    return ProductMeasureSpec(tuple(prefix), draw(tail))


def coin_at(offset):
    return FiniteMeasureZ(
        {offset: Fraction(1, 2), offset - 1: Fraction(1, 2)}
    )


class TestSizeRule:
    def test_pinned_sizes(self):
        assert choose_uniform_sizes((0,)) == (1,)
        assert choose_uniform_sizes((3,)) == (12,)
        assert choose_uniform_sizes((1, 1, 1, 1)) == (4, 8, 16, 32)
        assert choose_uniform_sizes((3, 0, 1)) == (12, 1, 16)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            choose_uniform_sizes((1, -1))

    @pytest.mark.parametrize("radii", [[1.9, True], [1, True], [1.0], ["1"], [None]])
    def test_non_integer_radius_rejected(self, radii):
        with pytest.raises(ValueError, match="radius must be an integer"):
            choose_uniform_sizes(radii)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    def test_rule_dominates_radius(self, radii):
        sizes = choose_uniform_sizes(radii)
        for n, (m, N) in enumerate(zip(radii, sizes)):
            assert N > 2 * m
            assert Fraction(m, N + 1) <= Fraction(1, 1 << (n + 2))


class TestShift:
    def test_prefix_shifted_to_zero_max(self):
        spec = ProductMeasureSpec((coin_at(5), coin_at(-2)))
        shifted, shifts = shift_to_nonpositive(spec)
        assert shifts == (5, -2)
        for m in shifted.prefix:
            assert m.max_support == 0
            assert m.min_support == -1

    def test_tail_handling(self):
        prefix = (coin_at(0),)
        assert shift_to_nonpositive(ProductMeasureSpec(prefix))[0].tail is None
        assert shift_to_nonpositive(
            ProductMeasureSpec(prefix, PointMassTail(7))
        )[0].tail == PointMassTail(0)
        assert shift_to_nonpositive(
            ProductMeasureSpec(prefix, UniformTail(0))
        )[0].tail == PointMassTail(0)
        assert (
            shift_to_nonpositive(ProductMeasureSpec(prefix, UniformTail(2)))[
                0
            ].tail
            is None
        )

    @given(specs())
    def test_shift_is_idempotent(self, spec):
        shifted, _ = shift_to_nonpositive(spec)
        again, shifts = shift_to_nonpositive(shifted)
        assert again.prefix == shifted.prefix
        assert shifts == tuple(0 for _ in spec.prefix)


class TestSynthesize:
    def test_pinned_depth_one(self):
        spec = ProductMeasureSpec((coin_at(0),))
        trace = synthesize_witness(spec)
        assert trace.shifts == (0,)
        assert trace.radii == (1,)
        assert trace.sizes == (4,)
        assert trace.witness == (3,)
        assert trace.scale_partial == (Fraction(5, 4),)
        assert trace.deficiency_partial == (Fraction(4, 5),)

    def test_pinned_depth_four(self):
        spec = ProductMeasureSpec(tuple(coin_at(0) for _ in range(4)))
        trace = synthesize_witness(spec)
        assert trace.sizes == (4, 8, 16, 32)
        assert trace.deficiency_partial[-1] == Fraction(16384, 25245)

    @given(specs())
    def test_invariants(self, spec):
        trace = synthesize_witness(spec)
        d = trace.depth
        assert d == spec.depth
        scale = Fraction(1)
        for n in range(d):
            assert trace.sizes[n] > 2 * trace.radii[n]
            assert trace.witness[n] == trace.sizes[n] - trace.radii[n]
            assert trace.witness[n] >= 1
            scale *= Fraction(trace.sizes[n] + 1, trace.witness[n] + 1)
            assert trace.scale_partial[n] == scale
        for n in range(1, d):
            assert trace.deficiency_partial[n] <= trace.deficiency_partial[n - 1]
        assert trace.deficiency_partial[-1] >= DEFICIENCY_LOWER_BOUND

    @given(tailed_specs())
    def test_columns_match_the_shifted_spec(self, spec):
        shifted, shifts = shift_to_nonpositive(spec)
        radii = [-m.min_support for m in shifted.prefix]
        trace = synthesize_witness(spec)
        assert trace == SynthesisTrace(shifts, radii, choose_uniform_sizes(radii))
        for scale, deficiency in zip(trace.scale_partial, trace.deficiency_partial):
            assert scale * deficiency == 1

    def test_constructor_rejects_inconsistent_columns(self):
        good = synthesize_witness(ProductMeasureSpec((coin_at(0),)))
        with pytest.raises(ValueError, match="unequal lengths"):
            SynthesisTrace(good.shifts + (0,), good.radii, good.sizes)
        with pytest.raises(ValueError, match="unequal lengths"):
            SynthesisTrace(good.shifts, good.radii, good.sizes + (4,))

    def test_constructor_derives_the_other_columns(self):
        good = synthesize_witness(ProductMeasureSpec((coin_at(0),)))
        assert SynthesisTrace(good.shifts, good.radii, good.sizes) == good
        trace = SynthesisTrace((0,), (0,), (1,))
        assert trace.witness == (1,)
        assert trace.scale_partial == trace.deficiency_partial == (Fraction(1),)
        assert {type(q) for q in trace.scale_partial + trace.deficiency_partial} == {
            Fraction
        }
        with pytest.raises(TypeError):
            SynthesisTrace(
                good.shifts,
                good.radii,
                good.sizes,
                good.witness,
                good.scale_partial,
                good.deficiency_partial,
            )

    @pytest.mark.parametrize(
        "column, value, message",
        [
            (0, 0.5, "shift must be an integer"),
            (0, True, "shift must be an integer"),
            (1, 1.0, "radius must be an integer"),
            (2, "4", "size must be an integer"),
            (0, 1.0, "shift must be an integer"),
            (0, "1", "shift must be an integer"),
            (1, True, "radius must be an integer"),
            (1, "1", "radius must be an integer"),
            (2, True, "size must be an integer"),
            (2, 1.0, "size must be an integer"),
            (2, "1", "size must be an integer"),
        ],
    )
    def test_constructor_rejects_non_exact_entries(self, column, value, message):
        good = synthesize_witness(ProductMeasureSpec((coin_at(0), coin_at(1))))
        columns = [good.shifts, good.radii, good.sizes]
        for bad in ((value,), (columns[column][0], value)):
            columns[column] = bad
            with pytest.raises(ValueError) as info:
                SynthesisTrace(*columns)
            assert str(info.value) == f"{message}, got {value!r}"

    @settings(max_examples=60)
    @given(
        st.integers(0, 60).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(0, 4), min_size=d, max_size=d),
                st.lists(st.integers(0, 3), min_size=d, max_size=d),
            )
        )
    )
    def test_partials_match_a_fraction_oracle(self, drawn):
        # sizes at or above the rule's keep every partial above the floor
        radii, extra = drawn
        sizes = [s + e for s, e in zip(choose_uniform_sizes(radii), extra)]
        trace = SynthesisTrace([0] * len(radii), radii, sizes)
        defic, want = Fraction(1), []
        for r, s in zip(radii, sizes):
            defic *= 1 - Fraction(r, s + 1)
            want.append(defic)
        assert list(trace.deficiency_partial) == want
        assert list(trace.scale_partial) == [1 / q for q in want]
        entries = trace.scale_partial + trace.deficiency_partial
        assert all(type(q) is Fraction for q in entries)

    def test_constructor_rejects_small_sizes(self):
        with pytest.raises(ValueError, match=r"size 4 at coordinate 0 is not > 2\*2"):
            SynthesisTrace((0,), (2,), (4,))

    def test_constructor_rejects_negative_radii(self):
        with pytest.raises(ValueError, match="radius -1 at coordinate 0 is negative"):
            SynthesisTrace((0,), (-1,), (1,))

    def test_constructor_enforces_the_deficiency_floor(self):
        # (1 - 1/4)^2 = 9/16 < 57/100; only user-given sizes can get there,
        # the size rule keeps every partial above the floor
        with pytest.raises(ValueError, match="9/16 at 1 dips below 57/100"):
            SynthesisTrace((0, 0), (1, 1), (3, 3))
        assert SynthesisTrace((0,), (1,), (3,)).deficiency_partial == (
            Fraction(3, 4),
        )

    def test_deficiency_certificate(self):
        partial = Fraction(1)
        for n in range(41):
            partial *= 1 - Fraction(1, 1 << (n + 2))
        assert partial * (1 - Fraction(1, 1 << 41)) > DEFICIENCY_LOWER_BOUND
        assert DEFICIENCY_LOWER_BOUND == Fraction(57, 100)


class TestVerifyRestrictNormalize:
    def test_pinned_depth_one_instance(self):
        mu = ProductMeasureSpec((coin_at(0),))
        trace = synthesize_witness(mu)
        report = verify_restrict_normalize(mu, trace, CylinderSet(1, ((2,),)))
        assert report.status == PASS
        assert report.lhs == {
            "smoothed_equals_flat_on_box": Fraction(1, 5),
            "scaling_recovers_witness": Fraction(1, 4),
            "flat_box_mass_reciprocal": Fraction(4, 5),
            "restrict_normalize_quotient": Fraction(1, 4),
        }
        assert report.lhs == report.rhs

    @settings(deadline=None, max_examples=60)
    @given(st.data())
    def test_random_instances_pass(self, data):
        spec = data.draw(specs())
        trace = synthesize_witness(spec)
        shifted, _ = shift_to_nonpositive(spec)
        d = data.draw(st.integers(0, trace.depth))
        prefixes = data.draw(
            st.lists(
                st.tuples(
                    *[st.integers(-2, trace.witness[n] + 2) for n in range(d)]
                ),
                min_size=0,
                max_size=6,
            )
        )
        report = verify_restrict_normalize(
            shifted, trace, CylinderSet(d, tuple(prefixes))
        )
        assert report.status == PASS
        assert report.lhs == report.rhs

    def test_builds_no_convolution(self, monkeypatch):
        def refuse(p, q):
            raise AssertionError("the verifier built a convolution")

        # every module that binds the public kernel, so a verifier that
        # imported it by name is caught too
        for module in (measures, witness):
            if hasattr(module, "convolve"):
                monkeypatch.setattr(module, "convolve", refuse)
        mu = ProductMeasureSpec((coin_at(0), coin_at(0)))
        trace = synthesize_witness(mu)
        report = verify_restrict_normalize(mu, trace, CylinderSet(1, ((2,),)))
        assert report.status == PASS

    def test_unshifted_spec_rejected(self):
        spec = ProductMeasureSpec((coin_at(2),))
        trace = synthesize_witness(spec)
        with pytest.raises(ValueError):
            verify_restrict_normalize(spec, trace, CylinderSet(1, ((0,),)))

    def test_radius_mismatch_rejected(self):
        mu = ProductMeasureSpec((coin_at(0),))
        other = synthesize_witness(
            ProductMeasureSpec(
                (FiniteMeasureZ({-2: Fraction(1, 2), 0: Fraction(1, 2)}),)
            )
        )
        with pytest.raises(ValueError):
            verify_restrict_normalize(mu, other, CylinderSet(1, ((0,),)))

    def test_depth_guard(self):
        mu = ProductMeasureSpec((coin_at(0),))
        trace = synthesize_witness(mu)
        with pytest.raises(UnsupportedDepthError):
            verify_restrict_normalize(mu, trace, CylinderSet(2, ((0, 0),)))


def scan_is_witness_prefix(witness, cyl, budget=DEFAULT_BUDGET):
    """Reference: the translate scan `is_witness_prefix` made before its
    closed form.  It measures every translate of the exhaustive window in
    lex order and reports the first one of positive mass."""
    wit = tuple(witness)
    d = len(wit)
    if cyl.is_empty:
        return VerificationReport(
            claim="witness-prefix",
            status=PASS,
            depth=d,
            parameters={"translates_checked": 0, "budget": budget},
        )
    windows = tuple(
        (
            -max(s[n] for s in cyl.prefixes),
            wit[n] - min(s[n] for s in cyl.prefixes),
        )
        for n in range(d)
    )
    total = 1
    for lo, hi in windows:
        total *= hi - lo + 1
    if total > budget:
        return VerificationReport(
            claim="witness-prefix",
            status=BUDGET_EXCEEDED,
            depth=d,
            parameters={
                "window": windows,
                "translates_required": total,
                "budget": budget,
            },
        )
    spec = uniform_product_spec(wit)
    for x in lattice_points(windows):
        value = measure_of(spec, translate_set(cyl, x))
        if value != 0:
            return VerificationReport(
                claim="witness-prefix",
                status=FAIL,
                depth=d,
                lhs=value,
                rhs=Fraction(0),
                counterexample={"x": x, "measure": value},
                parameters={"window": windows, "budget": budget},
            )
    return VerificationReport(
        claim="witness-prefix",
        status=PASS,
        depth=d,
        parameters={
            "window": windows,
            "translates_checked": total,
            "budget": budget,
        },
    )


@st.composite
def prefix_instances(draw):
    """(witness, cylinder set, budget) with prefixes on and around the box
    [0, w]: the edge values -w, 0, w and 2w are drawn often, and budgets
    range from 1 (almost always exceeded) to past every window volume."""
    d = draw(st.integers(0, 4))
    wit = tuple(draw(st.integers(1, 3)) for _ in range(d))
    entry = [
        st.one_of(st.sampled_from((-w, 0, w, 2 * w)), st.integers(-w - 1, 2 * w + 1))
        for w in wit
    ]
    prefixes = draw(st.lists(st.tuples(*entry), min_size=0, max_size=6))
    budget = draw(st.sampled_from((1, 4, 30, 500, DEFAULT_BUDGET)))
    return wit, CylinderSet(d, tuple(prefixes)), budget


class TestIsWitnessPrefix:
    def test_two_prefix_example(self):
        cyl = CylinderSet(2, ((0, 0), (1, 2)))
        report = is_witness_prefix((1, 1), cyl)
        assert report.status == FAIL
        assert report.counterexample == {"x": (-1, -2), "measure": Fraction(1, 4)}
        assert report.parameters["window"] == ((-1, 1), (-2, 1))
        untranslated = measure_of(uniform_product_spec((1, 1)), cyl)
        assert untranslated == Fraction(1, 4)

    def test_counterexample_is_lex_least(self):
        cyl = CylinderSet(1, ((4,),))
        report = is_witness_prefix((2,), cyl)
        assert report.status == FAIL
        assert report.counterexample["x"] == (-4,)

    def test_empty_set_passes(self):
        report = is_witness_prefix((2, 2), CylinderSet.empty(2))
        assert report.status == PASS
        assert report.parameters["translates_checked"] == 0

    def test_budget_exceeded(self):
        # window [-3, 3]: seven translates, over a budget of two
        report = is_witness_prefix((3,), CylinderSet(1, ((0,), (3,))), budget=2)
        assert report.status == BUDGET_EXCEEDED
        assert report.parameters["translates_required"] == 7
        assert report.parameters["budget"] == 2

    @pytest.mark.parametrize("budget", [0, -3, True, 1.0, 2.5, "10"])
    def test_budget_validated_before_the_empty_set_pass(self, budget):
        why = ">= 1" if type(budget) is int else "an integer"
        message = re.escape(f"budget must be {why}, got {budget!r}")
        for cyl in (CylinderSet.empty(1), CylinderSet(1, ((0,),))):
            with pytest.raises(ValueError, match=message):
                is_witness_prefix((3,), cyl, budget=budget)

    @pytest.mark.parametrize("witness", [(1.9, 2), (True, 2), ("1", 2)])
    def test_entries_must_be_integers(self, witness):
        with pytest.raises(ValueError, match="witness entry must be an integer"):
            is_witness_prefix(witness, CylinderSet(2, ((0, 0),)))

    def test_validation(self):
        with pytest.raises(ValueError):
            is_witness_prefix((0,), CylinderSet(1, ((0,),)))
        with pytest.raises(ValueError):
            is_witness_prefix((1, 1), CylinderSet(1, ((0,),)))

    @given(st.data())
    def test_counterexample_measure_is_positive_and_exact(self, data):
        d = data.draw(st.integers(1, 3))
        wit = tuple(data.draw(st.integers(1, 3)) for _ in range(d))
        prefixes = data.draw(
            st.lists(
                st.tuples(*[st.integers(-2, 4) for _ in range(d)]),
                min_size=1,
                max_size=4,
            )
        )
        cyl = CylinderSet(d, tuple(prefixes))
        report = is_witness_prefix(wit, cyl)
        assert report.status == FAIL
        x = report.counterexample["x"]
        spec = uniform_product_spec(wit)
        assert report.counterexample["measure"] == measure_of(
            spec, translate_set(cyl, x)
        )
        assert report.counterexample["measure"] > 0

    def test_whole_space_fails_with_mass_one(self):
        report = is_witness_prefix((), CylinderSet.whole_space())
        assert report.status == FAIL
        assert report.counterexample == {"x": (), "measure": Fraction(1)}
        assert report.to_json() == scan_is_witness_prefix(
            (), CylinderSet.whole_space()
        ).to_json()

    @settings(deadline=None, max_examples=300)
    @given(prefix_instances())
    def test_closed_form_matches_the_scan_byte_for_byte(self, instance):
        wit, cyl, budget = instance
        got = is_witness_prefix(wit, cyl, budget=budget)
        assert got.to_json() == scan_is_witness_prefix(wit, cyl, budget).to_json()

    @settings(deadline=None, max_examples=300)
    @given(prefix_instances())
    def test_closed_form_matches_the_battery_oracle(self, instance):
        wit, cyl, _ = instance
        report = is_witness_prefix(wit, cyl)
        want = _witness_prefix_oracle(wit, cyl)
        if want is None:
            assert report.status == PASS
        else:
            assert report.status == FAIL
            assert report.counterexample == {"x": want[0], "measure": want[1]}
