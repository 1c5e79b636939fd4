"""Acceptance gate: the nine release criteria, one test each.

The battery runs once per session (the `battery` fixture calls
`run_all(seed=42)`).  `run_all` runs every criterion with its default
parameters, which are the release parameters: 10**6 codes with a 5 s limit,
100 restrict-normalize instances with a 60 s limit, a budget of 10**7, and
so on.  Each test looks up its criterion by key, checks that the detail
names those parameters, prints the one-line verdict (run pytest with -s or
-v plus -rA to see them), and fails with the recorded detail if the
criterion does not pass.
"""

from haarnull import acceptance
from haarnull.acceptance import codec_roundtrip_scan


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
    check(battery, "restrict-normalize", "100 instances", "(limit 60s)")


def test_06_convolution_oracle(battery):
    check(battery, "convolution-oracle", "1000 random pairs")


def test_07_deficiency_bound(battery):
    check(battery, "deficiency-bound", "100 random size sequences")


def test_08_encoded_set_checks_with_negative_control(battery):
    check(battery, "encoded-set-checks", "100 datasets")


def test_09_witness_prefix_oracle(battery):
    check(battery, "witness-prefix-oracle", "50 instances")


class TestCodecRoundtripScan:
    def test_counts_triples(self):
        assert codec_roundtrip_scan(1) == (1, None)
        assert codec_roundtrip_scan(200) == (200, None)

    def test_stops_at_the_first_failure(self, monkeypatch):
        # codes 100 and 300 decode to the next triple; only 100 is reported
        real = acceptance.decode
        monkeypatch.setattr(
            acceptance, "decode", lambda m: real(m + 1 if m in (100, 300) else m)
        )
        wrong = real(101).as_tuple()
        want = f"triple {wrong} encodes to 101, code 100 decodes to {wrong}"
        assert codec_roundtrip_scan(1000) == (0, want)
