"""Acceptance gate: the nine release criteria, one test each, and the runner.

The battery runs once per session (the `battery` fixture calls
`run_all(seed=42)`).  Every criterion runs at the release parameters, the
constants of `haarnull.acceptance`: 10**6 codes with a 5 s limit, 100
restrict-normalize instances with a 60 s limit, a budget of 10**7, and so
on.  Each test looks up its criterion by key, checks that the detail names
those parameters, prints the one-line verdict (run pytest with -s or -v
plus -rA to see them), and fails with the recorded detail if the criterion
does not pass.  `TestRunner` drives `run_all` through stub tables and
through real table entries under injected faults, among them a check that
raises.
"""

import inspect
import json
import re
from fractions import Fraction

import pytest

from haarnull import acceptance, cli, measures, witness
from haarnull.acceptance import codec_roundtrip_scan
from haarnull.codec import CodedTriple
from haarnull.measures import (
    CylinderSet,
    FiniteMeasureZ,
    ProductMeasureSpec,
    dirac,
)


def check(battery, key, *parameters):
    (result,) = [r for r in battery if r.key == key]
    print(result.line())
    assert result.passed, result.detail
    for text in parameters:
        assert text in result.detail


def test_01_codec_roundtrip_under_five_seconds(battery):
    check(battery, "codec-roundtrip", "1000000 codes", "(limit 5s)")


def test_02_order_isomorphism(battery):
    check(battery, "order-isomorphism", "first 1000000 codes")


def test_03_coding_recurrences(battery):
    check(battery, "coding-recurrences", "sizes 1..10000")


def test_04_separation_gap_with_tightness(battery):
    # 460 triples of sizes 1..20, 102490 pairs of them in distinct cells
    check(battery, "separation-gap", "102490 cross-cell pairs")


def test_05_restrict_normalize_suite_under_sixty_seconds(battery):
    check(
        battery,
        "restrict-normalize",
        "100 instances",
        "63 of them against the enumeration oracle",
        "(limit 60s)",
    )


def test_06_convolution_oracle(battery):
    check(battery, "convolution-oracle", "1000 random pairs")


def test_07_deficiency_bound(battery):
    check(battery, "deficiency-bound", "100 random size sequences")


def test_08_encoded_set_checks_with_negative_control(battery):
    check(battery, "encoded-set-checks", "100 datasets")


def test_09_witness_prefix_oracle(battery):
    check(battery, "witness-prefix-oracle", "50 instances")


def decode_off_by_one_at_100(monkeypatch):
    real = acceptance.decode
    monkeypatch.setattr(acceptance, "decode", lambda m: real(m + (m == 100)))


def decode_aliases_each_upper_half_start(monkeypatch):
    # the code of (n, 1, 0) decodes to (n, 0, n + 2), outside the domain,
    # which encodes back to the same code
    real = acceptance.decode

    def decode(m):
        t = real(m)
        return CodedTriple(t.n, 0, t.n + 2) if (t.b, t.z) == (1, 0) else t

    monkeypatch.setattr(acceptance, "decode", decode)


def encode_halves_swapped(monkeypatch):
    real = acceptance.encode
    monkeypatch.setattr(acceptance, "encode", lambda n, b, z: real(n, 1 - b, z))


class TestCodecRoundtripScan:
    def test_counts_triples(self):
        # 1 and the edges of the first two blocks (codes 0..5 and 6..13)
        for limit in (1, 6, 7, 14, 15, 200):
            assert codec_roundtrip_scan(limit) == (limit, None)

    def test_stops_at_the_first_failure(self, monkeypatch):
        # codes 100 and 300 decode to the next triple; only 100 is reported
        real = acceptance.decode
        monkeypatch.setattr(
            acceptance, "decode", lambda m: real(m + 1 if m in (100, 300) else m)
        )
        want = "triple (8, 1, 6) encodes to 100, code 100 decodes to (8, 1, 7)"
        assert codec_roundtrip_scan(1000) == (100, want)

    @pytest.mark.parametrize(
        "fault, checked, failure",
        [
            (
                decode_off_by_one_at_100,
                100,
                "triple (8, 1, 6) encodes to 100, code 100 decodes to (8, 1, 7)",
            ),
            (
                decode_aliases_each_upper_half_start,
                3,
                "triple (1, 1, 0) encodes to 3, code 3 decodes to (1, 0, 3)",
            ),
            (
                encode_halves_swapped,
                0,
                "triple (1, 0, 0) encodes to 3, code 0 decodes to (1, 0, 0)",
            ),
        ],
    )
    def test_a_codec_fault_fails_the_walk(self, monkeypatch, fault, checked, failure):
        fault(monkeypatch)
        assert codec_roundtrip_scan(1000) == (checked, failure)


RAISED = "raised ValueError: deficiency partial 4/9 at 1 dips below 57/100"


def stub(seed):
    return [], "stub detail"


def keep_only(monkeypatch, *keys):
    """Replace every table entry but those of `keys` by a passing stub, so
    each kept entry runs at its own position (so with its own derived seed)."""
    table = tuple(
        entry if entry[0] in keys else (entry[0], entry[1], stub, None)
        for entry in acceptance.CRITERIA
    )
    monkeypatch.setattr(acceptance, "CRITERIA", table)


def run_only(monkeypatch, key):
    """`key`'s own table entry, run by `run_all(seed=42)`; every other entry
    is a passing stub."""
    keep_only(monkeypatch, key)
    (result,) = [r for r in acceptance.run_all(seed=42) if r.key == key]
    return result


def wide_smoothing_one_short(monkeypatch):
    real = witness._smoothed_box_intersection_measure

    def smoothed(spec, X, box, sizes):  # sizes of 80 and more lose a point
        return real(spec, X, box, tuple(s - 1 if s >= 80 else s for s in sizes))

    monkeypatch.setattr(witness, "_smoothed_box_intersection_measure", smoothed)


def large_pairs_drop_a_factor(monkeypatch):
    # pairs with 23 or more support points in all return p unchanged
    real = acceptance.convolve
    monkeypatch.setattr(
        acceptance,
        "convolve",
        lambda p, q: real(p, dirac(0) if len(p.support) + len(q.support) >= 23 else q),
    )


def last_size_halved(monkeypatch):
    # at depth 3 and more, the last coordinate's size uses 2^(n+1), not 2^(n+2)
    def sizes(radii):
        last = len(radii) - 1
        return tuple(
            max(2 * m + 1, (1 << (n + 1 if n == last >= 2 else n + 2)) * m)
            for n, m in enumerate(radii)
        )

    monkeypatch.setattr(witness, "choose_uniform_sizes", sizes)


def sizes_just_above_twice_the_radius(monkeypatch):
    # without the 2^(n+2) factor the deficiency partials dip below 57/100,
    # and SynthesisTrace raises
    monkeypatch.setattr(
        witness, "choose_uniform_sizes", lambda radii: tuple(2 * m + 1 for m in radii)
    )


def coinflip_budget_capped(monkeypatch):
    real = acceptance.coinflip_bound
    monkeypatch.setattr(acceptance, "coinflip_bound", lambda es, budget: real(es, 100))


def prefix_budget_one(monkeypatch):
    real = acceptance.is_witness_prefix
    monkeypatch.setattr(
        acceptance, "is_witness_prefix", lambda w, X, budget: real(w, X, budget=1)
    )


def kernels_drop_the_last_cylinder(monkeypatch):
    # the verifier's cylinder sums leave out the last prefix of X; the four
    # identities hold for any X, so only the oracle can see this
    def dropping(kernel):
        def wrapped(spec, X, *rest):
            if X.size >= 2:
                X = CylinderSet(X.depth, X.prefixes[:-1])
            return kernel(spec, X, *rest)

        return wrapped

    for name in (
        "_smoothed_box_intersection_measure",
        "box_intersection_measure",
        "measure_of",
    ):
        monkeypatch.setattr(witness, name, dropping(getattr(witness, name)))


def zero_tail_interval_skipped(monkeypatch):
    # box_intersection_measure goes on past a tail interval that holds no
    # mass instead of returning 0: the one-line mutant, compiled from source
    source = inspect.getsource(measures.box_intersection_measure)
    assert source.count("return Fraction(0)") == 1
    namespace = dict(vars(measures))
    exec(source.replace("return Fraction(0)", "continue"), namespace)
    for module in (measures, witness, acceptance):
        monkeypatch.setattr(
            module, "box_intersection_measure", namespace["box_intersection_measure"]
        )


class TestRestrictNormalizeOracle:
    def test_agrees_with_the_verifier_on_the_readme_example(self):
        spec = ProductMeasureSpec(
            (FiniteMeasureZ({-1: Fraction(1, 2), 0: Fraction(1, 2)}),)
        )
        trace = witness.synthesize_witness(spec)
        X = CylinderSet(1, ((2,), (7,)))
        report = witness.verify_restrict_normalize(spec, trace, X)
        assert acceptance._restrict_normalize_oracle(spec, trace, X) == (
            report.lhs,
            report.rhs,
        )

    def test_skips_boxes_over_the_volume_cap(self):
        coordinate = FiniteMeasureZ({-3: Fraction(1, 2), 0: Fraction(1, 2)})
        spec = ProductMeasureSpec((coordinate,) * 3)
        trace = witness.synthesize_witness(spec)  # witness (9, 21, 45)
        X = CylinderSet(1, ((0,),))
        assert acceptance._restrict_normalize_oracle(spec, trace, X) is None

    def test_catches_a_fault_the_identities_miss(self, monkeypatch):
        kernels_drop_the_last_cylinder(monkeypatch)
        instances = acceptance.restrict_normalize_instances(1, 20, 3)
        assert all(report.passed for _, _, report in instances)
        result = run_only(monkeypatch, "restrict-normalize")
        assert (result.passed, result.detail) == (
            False,
            "instance 0 disagrees with the enumeration oracle: "
            "['smoothed_equals_flat_on_box', 'scaling_recovers_witness', "
            "'restrict_normalize_quotient']",
        )

    def test_catches_a_kernel_that_skips_a_zero_tail_interval(self, monkeypatch):
        zero_tail_interval_skipped(monkeypatch)
        result = run_only(monkeypatch, "restrict-normalize")
        assert (result.passed, result.detail) == (
            False,
            "instance 8 measures 1/2 just past the witness box, "
            "the enumeration oracle 0",
        )


class TestRunner:
    def test_time_limit(self, monkeypatch):
        table = (("slow", "a stub", stub, 0.0), ("free", "a stub", stub, None))
        monkeypatch.setattr(acceptance, "CRITERIA", table)
        slow, free = acceptance.run_all(seed=1)
        assert not slow.passed
        assert re.fullmatch(r"took \d+\.\d\ds, limit 0\.0s", slow.detail)
        assert (free.passed, free.detail) == (True, "stub detail")

    def test_keeps_the_first_three_failures(self, monkeypatch):
        def failing(seed):
            return ["a", "b", "c", "d"], "unused"

        monkeypatch.setattr(acceptance, "CRITERIA", (("bad", "a stub", failing, None),))
        (result,) = acceptance.run_all(seed=1)
        assert (result.passed, result.detail) == (False, "a; b; c")

    def test_derived_seeds(self, monkeypatch):
        seen = []

        def record(seed):
            seen.append(seed)
            return [], ""

        table = tuple((k, d, record, t) for k, d, _, t in acceptance.CRITERIA)
        monkeypatch.setattr(acceptance, "CRITERIA", table)
        acceptance.run_all(seed=7)
        assert seen == [7 * 1_000_003 + i for i in range(1, 10)]

    @pytest.mark.parametrize("key", ["restrict-normalize", "deficiency-bound"])
    def test_a_raising_check_fails_with_the_exception(self, monkeypatch, key):
        sizes_just_above_twice_the_radius(monkeypatch)
        result = run_only(monkeypatch, key)
        assert (result.passed, result.detail) == (False, RAISED)

    def test_a_raising_check_does_not_stop_the_battery(self, monkeypatch, capsys):
        sizes_just_above_twice_the_radius(monkeypatch)
        code_scans = ("codec-roundtrip", "order-isomorphism")  # 10**6 codes each
        keep_only(
            monkeypatch, *(k for k, *_ in acceptance.CRITERIA if k not in code_scans)
        )
        assert cli.main(["eset", "acceptance", "--output", "json"]) == 1
        criteria = json.loads(capsys.readouterr().out)["criteria"]
        statuses = {c["key"]: c["status"] for c in criteria}
        assert [k for k, status in statuses.items() if status == "fail"] == [
            "restrict-normalize",
            "deficiency-bound",
        ]
        assert len(statuses) == len(acceptance.CRITERIA)

    # One fault per seeded criterion.  Each expected detail is the one the
    # battery reported at seed 42 before its criteria became table entries.
    @pytest.mark.parametrize(
        "key, fault, detail",
        [
            (
                "restrict-normalize",
                wide_smoothing_one_short,
                "instance 17 fails: {'identities': "
                "['smoothed_equals_flat_on_box', 'restrict_normalize_quotient']}",
            ),
            (
                "convolution-oracle",
                large_pairs_drop_a_factor,
                "pair 34 disagrees with the oracle",
            ),
            (
                "deficiency-bound",
                last_size_halved,
                "sequence 1 undercuts the dyadic product at 2",
            ),
            (
                "encoded-set-checks",
                coinflip_budget_capped,
                "dataset 1: checkers disagree (pass vs budget-exceeded): None",
            ),
            (
                "witness-prefix-oracle",
                prefix_budget_one,
                "instance 0: oracle finds (-5, -5, 2) with mass 1/64, "
                "closed form reports None",
            ),
        ],
    )
    def test_seeded_criterion_under_a_fault(self, monkeypatch, key, fault, detail):
        fault(monkeypatch)
        result = run_only(monkeypatch, key)
        assert (result.passed, result.detail) == (False, detail)
