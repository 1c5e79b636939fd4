"""Codec tests: pinned values, roundtrips, order structure, separation."""

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarnull import codec
from haarnull.codec import (
    CodedTriple,
    PointPrefix,
    decode,
    decode_point,
    encode,
    encode_point,
    separation_gap,
)
from oracles import prefix_in_support_box, triple_in_domain


@st.composite
def domain_triples(draw, max_size=60):
    n = draw(st.integers(1, max_size))
    b = draw(st.integers(0, 1))
    z = draw(st.integers(0, n + 1))
    return (n, b, z)


@st.composite
def box_triples(draw, max_size=25):
    n = draw(st.integers(1, max_size))
    b = draw(st.integers(0, 1))
    z = draw(st.integers(0, n))
    return CodedTriple(n, b, z)


class TestEncode:
    # The first block (size 1) spans codes 0..5, the next starts at 6.
    PINNED = {
        (1, 0, 0): 0,
        (1, 0, 1): 1,
        (1, 0, 2): 2,
        (1, 1, 0): 3,
        (1, 1, 2): 5,
        (2, 0, 0): 6,
        (2, 1, 0): 10,
        (2, 1, 3): 13,
        (3, 0, 0): 14,
        (3, 1, 4): 23,
        (5, 1, 3): 46,
    }

    def test_pinned_values(self):
        for (n, b, z), code in self.PINNED.items():
            assert encode(n, b, z) == code

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 0, 0), "size must be an integer >= 1, got 0"),
            ((True, 0, 0), "size must be an integer >= 1, got True"),
            ((1.0, 0, 0), "size must be an integer >= 1, got 1.0"),
            ((1, 2, 0), "bit must be 0 or 1, got 2"),
            ((1, True, 0), "bit must be 0 or 1, got True"),
            ((1, "1", 0), "bit must be 0 or 1, got '1'"),
            ((1, 0, False), "offset must be an integer, got False"),
            ((1, 0, 1.5), "offset must be an integer, got 1.5"),
            ((1, 1.0, 0), "bit must be 0 or 1, got 1.0"),
        ],
    )
    def test_rejection_messages(self, args, message):
        for build in (encode, CodedTriple):
            with pytest.raises(ValueError) as info:
                build(*args)
            assert str(info.value) == message

    def test_rejects_bad_sizes_and_bits(self):
        with pytest.raises(ValueError):
            encode(0, 0, 0)
        with pytest.raises(ValueError):
            encode(1, 2, 0)
        with pytest.raises(ValueError):
            encode(1, 0, "0")
        with pytest.raises(ValueError):
            encode(True, 0, 0)

    @given(domain_triples(), st.integers(-5, 5))
    def test_affine_in_offset(self, triple, t):
        n, b, z = triple
        assert encode(n, b, z + t) == encode(n, b, z) + t

    def test_recurrences(self):
        for n in range(1, 300):
            assert encode(n, 1, 0) == encode(n, 0, 0) + (n + 2)
            assert encode(n + 1, 0, 0) == encode(n, 1, 0) + (n + 2)


class TestDecode:
    def test_pinned_values(self):
        assert decode(0).as_tuple() == (1, 0, 0)
        assert decode(13).as_tuple() == (2, 1, 3)
        assert decode(14).as_tuple() == (3, 0, 0)

    def test_rejects_negative_and_nonint(self):
        with pytest.raises(ValueError):
            decode(-1)
        with pytest.raises(ValueError):
            decode(1.5)
        with pytest.raises(ValueError):
            decode(True)

    @given(st.integers(0, 10**9))
    def test_encode_after_decode(self, m):
        t = decode(m)
        assert encode(t.n, t.b, t.z) == m
        assert triple_in_domain(t)

    @given(domain_triples())
    def test_decode_after_encode(self, triple):
        n, b, z = triple
        assert decode(encode(n, b, z)).as_tuple() == (n, b, z)

    def test_consecutive_codes_follow_lex_order(self):
        expected = 0
        for n in range(1, 60):
            for b in (0, 1):
                for z in range(n + 2):
                    assert encode(n, b, z) == expected
                    expected += 1

    @given(st.integers(0, 10**6 - 1), st.integers(1, 1000))
    def test_strictly_increasing(self, m, step):
        assert decode(m).as_tuple() < decode(m + step).as_tuple()

    @given(st.integers(1, 10**15))
    def test_block_boundaries(self, n):
        start, half = encode(n, 0, 0), encode(n, 1, 0)
        assert decode(start).as_tuple() == (n, 0, 0)
        assert decode(half).as_tuple() == (n, 1, 0)
        assert decode(half - 1).as_tuple() == (n, 0, n + 1)
        if n > 1:
            assert decode(start - 1).as_tuple() == (n - 1, 1, n)

    @given(st.integers(0, 10**30))
    def test_block_size_brackets_code(self, m):
        n = decode(m).n
        assert (n - 1) * (n + 4) <= m < n * (n + 5)

    def test_huge_code_roundtrips(self):
        m = 10**30
        t = decode(m)
        assert encode(t.n, t.b, t.z) == m
        assert triple_in_domain(t)

    @given(st.integers(0, 10**12))
    def test_matches_public_constructor(self, m):
        t = decode(m)
        public = CodedTriple(t.n, t.b, t.z)
        assert t == public
        assert hash(t) == hash(public)
        assert repr(t) == repr(public)

    def test_thread_safety_of_block_cache(self):
        # `decode` is stateless: concurrent decodes must each return the
        # right triple.
        codes = [17, 10**8 + 3, 29, 10**9 + 7, 10**7 + 1, 5] * 50
        with ThreadPoolExecutor(max_workers=8) as pool:
            triples = list(pool.map(decode, codes))
        for m, t in zip(codes, triples):
            assert encode(t.n, t.b, t.z) == m


class TestCodedTriple:
    def test_domain_predicates(self):
        assert triple_in_domain(CodedTriple(3, 0, 4))
        assert not CodedTriple(3, 0, 4).in_support_box
        assert CodedTriple(3, 0, 3).in_support_box
        assert not triple_in_domain(CodedTriple(3, 0, -1))

    def test_validation(self):
        with pytest.raises(ValueError):
            CodedTriple(0, 0, 0)
        with pytest.raises(ValueError):
            CodedTriple(1, -1, 0)


def reference_decode_point(s):
    """Coordinatewise decode through `decode` and the checked constructor."""
    ts = [decode(m) for m in s]
    return PointPrefix(
        tuple(t.n for t in ts), tuple(t.b for t in ts), tuple(t.z for t in ts)
    )


def assert_same_point(p, ref):
    assert p == ref
    assert hash(p) == hash(ref)
    assert repr(p) == repr(ref)
    assert type(p) is PointPrefix
    for field in (p.a, p.x, p.g):
        assert type(field) is tuple
        assert all(type(v) is int for v in field)


class TestPointLifts:
    @given(
        st.lists(st.integers(0, 10**30), max_size=8),
        st.sampled_from(["list", "generator"]),
    )
    def test_matches_reference_lift(self, codes, form):
        s = codes if form == "list" else (m for m in codes)
        assert_same_point(decode_point(s), reference_decode_point(codes))

    @pytest.mark.parametrize("depth", [0, 1200])
    def test_matches_reference_lift_at_fixed_depths(self, depth):
        codes = [(m * 7919) ** 3 for m in range(depth)]
        assert_same_point(decode_point(codes), reference_decode_point(codes))

    @pytest.mark.parametrize("bad", [True, -1, 1.5, "3", None])
    @pytest.mark.parametrize("position", [0, 3, 7])
    def test_first_bad_code_raises_as_decode(self, bad, position):
        codes = [5, 17, 10**20, 2, 0, 9, 3, 11]
        codes[position] = bad
        # A second bad entry after the first must not be the one reported.
        codes.append(-2)
        with pytest.raises(ValueError) as expected:
            decode(bad)
        with pytest.raises(ValueError) as got:
            decode_point(codes)
        assert str(got.value) == str(expected.value)

    def test_closed_form_appears_once(self):
        source = Path(codec.__file__).read_text(encoding="utf-8")
        assert source.count("isqrt(") == 1

    def test_pinned_lift(self):
        p = PointPrefix((1, 2), (0, 1), (1, 3))
        assert encode_point(p) == (1, 13)
        q = decode_point((1, 13))
        assert (q.a, q.x, q.g) == ((1, 2), (0, 1), (1, 3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PointPrefix((1,), (0, 1), (0,))

    def test_component_validation(self):
        with pytest.raises(ValueError):
            PointPrefix((0,), (0,), (0,))
        with pytest.raises(ValueError):
            PointPrefix((1,), (2,), (0,))

    def test_predicates(self):
        assert PointPrefix((2,), (0,), (3,)).in_domain
        assert not prefix_in_support_box(PointPrefix((2,), (0,), (3,)))
        assert not PointPrefix((2,), (0,), (4,)).in_domain

    @settings(max_examples=60)
    @given(st.data())
    def test_roundtrip(self, data):
        depth = data.draw(st.integers(0, 5))
        a = tuple(data.draw(st.integers(1, 9)) for _ in range(depth))
        x = tuple(data.draw(st.integers(0, 1)) for _ in range(depth))
        g = tuple(data.draw(st.integers(0, ak + 1)) for ak in a)
        p = PointPrefix(a, x, g)
        assert decode_point(encode_point(p)) == p

    @settings(max_examples=60)
    @given(st.data())
    def test_lift_translates_in_offsets(self, data):
        depth = data.draw(st.integers(1, 4))
        a = tuple(data.draw(st.integers(1, 5)) for _ in range(depth))
        x = tuple(data.draw(st.integers(0, 1)) for _ in range(depth))
        g = tuple(data.draw(st.integers(0, ak)) for ak in a)
        base = encode_point(PointPrefix(a, x, tuple(0 for _ in a)))
        lifted = encode_point(PointPrefix(a, x, g))
        assert lifted == tuple(bv + gv for bv, gv in zip(base, g))


class TestSeparationGap:
    def test_pinned_gaps(self):
        assert separation_gap(CodedTriple(1, 0, 1), CodedTriple(1, 1, 0)) == 2
        assert separation_gap(CodedTriple(1, 1, 1), CodedTriple(2, 0, 0)) == 2
        assert separation_gap(CodedTriple(1, 0, 0), CodedTriple(3, 1, 2)) == 21

    def test_symmetric_in_arguments(self):
        p, q = CodedTriple(2, 0, 1), CodedTriple(4, 1, 3)
        assert separation_gap(p, q) == separation_gap(q, p)

    def test_same_cell_rejected(self):
        with pytest.raises(ValueError):
            separation_gap(CodedTriple(2, 0, 0), CodedTriple(2, 0, 2))

    def test_boundary_offset_rejected(self):
        with pytest.raises(ValueError):
            separation_gap(CodedTriple(1, 0, 2), CodedTriple(2, 0, 0))

    @given(box_triples(), box_triples())
    def test_gap_at_least_two(self, p, q):
        if (p.n, p.b) == (q.n, q.b):
            return
        assert separation_gap(p, q) >= 2
