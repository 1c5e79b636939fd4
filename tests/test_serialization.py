"""Serialization tests: rational strings, dict forms, report JSON."""

import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarnull.measures import (
    CylinderSet,
    FiniteMeasureZ,
    PointMassTail,
    ProductMeasureSpec,
    UniformTail,
    uniform,
)
from haarnull.report import PASS, FAIL, VerificationReport
from haarnull.serialization import (
    _unique_keys,
    cylinder_from_dict,
    fraction_from_str,
    fraction_to_str,
    jsonify,
    measure_from_dict,
    parse_json,
    spec_from_dict,
)
from oracles import cylinder_to_dict, measure_to_dict, spec_to_dict

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=1000
)


class Code(int):
    """An int subclass, as a caller's own integer type may be."""


_leaves = (
    st.integers()
    | st.booleans()
    | st.none()
    | st.text(max_size=4)
    | rationals
    | st.integers(-5, 5).map(Code)
)
jsonify_inputs = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.integers(-3, 3) | st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


class TestFractionStrings:
    @given(rationals)
    def test_roundtrip(self, q):
        assert fraction_from_str(fraction_to_str(q)) == q

    def test_forms(self):
        assert fraction_to_str(Fraction(1, 2)) == "1/2"
        assert fraction_to_str(Fraction(-3)) == "-3/1"
        assert fraction_from_str("7") == 7
        assert fraction_from_str(7) == 7
        assert fraction_from_str("-2/6") == Fraction(-1, 3)
        assert fraction_from_str("007/010") == Fraction(7, 10)
        assert fraction_from_str("-0") == 0
        assert fraction_from_str("1" + "0" * 4299) == 10**4299

    def test_rejects_junk(self):
        # only what `fraction_to_str` writes, or a plain integer: nothing
        # else that `Fraction` alone would also take
        for bad in (
            "",
            "a/b",
            "1/0",
            True,
            1.5,
            None,
            "0.5",
            "5e-1",
            "1e-10000000",
            " 1/2 ",
            "1/2\n",
            "+1/2",
            "1_0/20",
            "\u0661/2",
            "1/\u00b2",
            "-",
            "--1",
            "/2",
            "1/",
            "1/2/3",
            "1/-2",
            "9" * 4301,
        ):
            with pytest.raises(ValueError, match=re.escape(f"not a rational: {bad!r}")):
                fraction_from_str(bad)


class TestJsonify:
    def test_nested_conversion(self):
        obj = {"q": Fraction(1, 3), "t": (1, Fraction(2, 5)), 3: "x"}
        assert jsonify(obj) == {"q": "1/3", "t": [1, "2/5"], "3": "x"}

    def test_json_dumpable(self):
        payload = jsonify({"vals": [Fraction(1, 7)] * 2})
        assert json.dumps(payload) == '{"vals": ["1/7", "1/7"]}'

    @given(jsonify_inputs)
    def test_matches_the_isinstance_reference(self, obj):
        assert typed(jsonify(obj)) == typed(isinstance_jsonify(obj))


def isinstance_jsonify(obj):
    """jsonify written with isinstance tests alone: the reference for the
    dispatch on exact types."""
    if isinstance(obj, Fraction):
        return fraction_to_str(obj)
    if isinstance(obj, dict):
        return {str(k): isinstance_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [isinstance_jsonify(v) for v in obj]
    return obj


def typed(obj):
    """obj with each leaf paired with its exact type, so that 1, True and
    an int subclass with value 1 compare unequal."""
    if type(obj) is dict:
        return ("dict", {k: typed(v) for k, v in obj.items()})
    if type(obj) is list:
        return ("list", [typed(v) for v in obj])
    return (type(obj), obj)


def reference_parse_json(text):
    """`json.loads` with the duplicate-key hook, a `RecursionError` read as
    a `ValueError`: the reference for `parse_json`."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def parse_outcome(parse, text):
    """What a parse returns, leaf types included, or the exact type and
    message it raises."""
    try:
        return "value", typed(parse(text))
    except ValueError as exc:
        return type(exc), str(exc)


json_texts = st.builds(
    lambda lead, body, trail, extra: lead + body + trail + extra,
    # JSON whitespace, a BOM and whitespace that JSON does not allow
    st.text(" \t\r\n\ufeff\xa0\u3000\x0b", max_size=3),
    st.recursive(
        st.integers() | st.booleans() | st.none() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4),
        max_leaves=10,
    ).map(json.dumps)
    | st.sampled_from(
        [
            "",
            "{nope",
            "[1,]",
            "Infinity",
            '{"a": 1, "a": 2}',
            '[{"k": {"z": 0, "z": 0}}]',
            "[" + "7" * 5000 + "]",
            '{"a": [1], "x": [0], "g": [0]}',
        ]
    ),
    st.text(" \t\r\n\xa0", max_size=3),
    st.sampled_from(["", "x", "1", "{}", '"s"']),
)


class TestParseJson:
    @pytest.mark.parametrize(
        "text",
        [
            '{"a": 1, "a": 2}',
            '[{"k": {"z": 0, "z": 0}}]',
            '{"weights": {"0": "1/2", "0": "1/2"}}',
        ],
    )
    def test_repeated_keys_rejected_at_any_depth(self, text):
        json.loads(text)  # the plain parser keeps the last value
        with pytest.raises(ValueError, match="^duplicate key "):
            parse_json(text)

    @pytest.mark.parametrize(
        "text", ["\ufeff{}", "{nope", "", "[1,]", '{"a": 1} x', "NaN x"]
    )
    def test_syntax_errors_read_as_in_json_loads(self, text):
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as got:
            parse_json(text)
        assert str(got.value) == str(expected.value)

    def test_over_long_integer_is_a_plain_value_error(self):
        with pytest.raises(ValueError, match="Exceeds the limit") as info:
            parse_json("[" + "7" * 5000 + "]")
        assert not isinstance(info.value, json.JSONDecodeError)

    @given(
        st.recursive(
            st.integers() | st.booleans() | st.none() | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(st.text(max_size=3), inner, max_size=4),
            max_leaves=20,
        )
    )
    def test_agrees_with_json_loads(self, value):
        text = json.dumps(value)
        assert parse_json(text) == json.loads(text)

    @settings(max_examples=400)
    @given(json_texts)
    def test_matches_json_loads_with_the_same_hook(self, text):
        assert parse_outcome(parse_json, text) == parse_outcome(
            reference_parse_json, text
        )

    @pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"k": ', "}")])
    @pytest.mark.parametrize("lead, trail", [("", ""), (" ", "\n"), ("", " x")])
    def test_nesting_past_the_recursion_limit_matches_json_loads(
        self, opener, closer, lead, trail
    ):
        # read here: hypothesis raises the limit while its tests run
        depth = sys.getrecursionlimit() + 10
        text = lead + opener * depth + "0" + closer * depth + trail
        outcome = parse_outcome(parse_json, text)
        assert outcome == parse_outcome(reference_parse_json, text)
        assert outcome[0] is ValueError
        assert outcome[1].startswith("maximum recursion depth exceeded")



class TestMeasureDicts:
    def test_roundtrip(self):
        m = FiniteMeasureZ({-1: Fraction(1, 3), 4: Fraction(2, 3)})
        assert measure_from_dict(measure_to_dict(m)) == m

    def test_dict_form(self):
        assert measure_to_dict(uniform(1)) == {
            "weights": {"0": "1/2", "1": "1/2"}
        }

    def test_from_dict_validates_total(self):
        with pytest.raises(ValueError):
            measure_from_dict({"weights": {"0": "1/3"}})

    @pytest.mark.parametrize("key", ["1_0", " 01 ", "+1", "-0", "01", "1.0", "x"])
    def test_non_canonical_point_keys_rejected(self, key):
        with pytest.raises(ValueError, match="canonical integer"):
            measure_from_dict({"weights": {key: "1"}})

    def test_canonical_negative_key_accepted(self):
        assert measure_from_dict({"weights": {"-12": "1"}}) == FiniteMeasureZ(
            {-12: Fraction(1)}
        )


class TestSpecDicts:
    @pytest.mark.parametrize(
        "tail", [None, UniformTail(0), UniformTail(3), PointMassTail(-2)]
    )
    def test_roundtrip(self, tail):
        spec = ProductMeasureSpec((uniform(1), uniform(2)), tail)
        assert spec_from_dict(spec_to_dict(spec)) == spec

    @pytest.mark.parametrize(
        "tail",
        [
            {"kind": "uniform", "k": 2.7},
            {"kind": "uniform", "k": True},
            {"kind": "uniform", "k": "2"},
            {"kind": "point", "z": "7"},
            {"kind": "point", "z": 7.0},
            {"kind": "uniform"},
            {"kind": ["point"]},
        ],
    )
    def test_tail_fields_are_strict(self, tail):
        with pytest.raises(ValueError):
            spec_from_dict({"prefix": [], "tail": tail})

    @pytest.mark.parametrize("prefix", [5, "abc", {"weights": {"0": "1"}}, [5]])
    def test_prefix_must_be_a_list_of_measures(self, prefix):
        with pytest.raises(ValueError):
            spec_from_dict({"prefix": prefix, "tail": None})

    def test_unknown_tail_kind_rejected(self):
        bad = spec_to_dict(ProductMeasureSpec((uniform(1),), UniformTail(1)))
        bad["tail"] = {"kind": "gaussian"}
        with pytest.raises(ValueError):
            spec_from_dict(bad)


class TestCylinderDicts:
    def test_roundtrip(self):
        cyl = CylinderSet(2, ((0, -3), (5, 2)))
        assert cylinder_from_dict(cylinder_to_dict(cyl)) == cyl

    @pytest.mark.parametrize(
        "bad",
        [
            {"depth": 1, "prefixes": [[1.5], [True]]},
            {"depth": 1, "prefixes": [["1"]]},
            {"depth": 1.0, "prefixes": [[0]]},
            {"depth": True, "prefixes": [[0]]},
            {"depth": 1, "prefixes": 5},
            {"depth": 1, "prefixes": [5]},
            {"depth": 1, "prefixes": "11"},
        ],
    )
    def test_strict_rejection(self, bad):
        with pytest.raises(ValueError):
            cylinder_from_dict(bad)

    def test_dict_form(self):
        assert cylinder_to_dict(CylinderSet(1, ((4,),))) == {
            "depth": 1,
            "prefixes": [[4]],
        }


class TestVerificationReport:
    def test_status_vocabulary(self):
        with pytest.raises(ValueError):
            VerificationReport(claim="x", status="maybe", depth=0)

    def test_counterexample_omitted_when_none(self):
        report = VerificationReport(claim="x", status=PASS, depth=1)
        assert "counterexample" not in report.to_json_dict()

    def test_fractions_serialized(self):
        report = VerificationReport(
            claim="x",
            status=FAIL,
            depth=2,
            lhs=Fraction(1, 3),
            rhs=Fraction(0),
            counterexample={"x": (1, -2), "measure": Fraction(1, 3)},
            parameters={"budget": 10},
        )
        data = json.loads(report.to_json())
        assert data["lhs"] == "1/3"
        assert data["rhs"] == "0/1"
        assert data["counterexample"] == {"x": [1, -2], "measure": "1/3"}
        assert data["claim"] == "x"
        assert data["depth"] == 2

    def test_json_is_deterministic(self):
        def build():
            return VerificationReport(
                claim="c",
                status=PASS,
                depth=3,
                lhs={"b": Fraction(1), "a": Fraction(2)},
                rhs={"a": Fraction(2), "b": Fraction(1)},
                parameters={"zeta": 1, "alpha": 2},
            )

        assert build().to_json() == build().to_json()
        assert '"alpha"' in build().to_json()

    def test_passed_property(self):
        assert VerificationReport(claim="c", status=PASS, depth=0).passed
        assert not VerificationReport(claim="c", status=FAIL, depth=0).passed
