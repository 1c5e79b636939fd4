"""Order-preserving integer codec for (size, bit, offset) triples.

encode(n, b, z) = (n - 1)(n + 4) + b(n + 2) + z packs, for each size n >= 1,
a block of 2n + 4 consecutive codes: first the b = 0 half with offsets
0..n+1, then the b = 1 half.  Restricted to the valid domain (offsets in
[0, n + 1]) the map is an order-preserving bijection onto the nonnegative
integers, where triples are ordered lexicographically.  The inverse is
closed form: the block size is (r - 3) // 2 for r the integer square root
of 4m + 25, so no floating point is used anywhere and nothing is cached
between calls.

`encode_point` / `decode_point` apply the codec coordinatewise to finite
prefixes of sequence triples.  Both decoding directions share one integer
kernel that splits a code into (n, b, z): `decode` wraps its result in a
`CodedTriple`, while `decode_point` transposes the split codes straight
into the three components of a `PointPrefix`, with no triple built per
coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Sequence

__all__ = [
    "CodedTriple",
    "PointPrefix",
    "encode",
    "decode",
    "encode_point",
    "decode_point",
    "separation_gap",
]


def _check_size(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"size must be an integer >= 1, got {n!r}")
    return n


def _check_bit(b: int) -> int:
    if not isinstance(b, int) or isinstance(b, bool) or b not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {b!r}")
    return b


def _check_offset(z: int) -> int:
    if not isinstance(z, int) or isinstance(z, bool):
        raise ValueError(f"offset must be an integer, got {z!r}")
    return z


def _check_code(m: int) -> int:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ValueError(f"code must be an integer >= 0, got {m!r}")
    return m


@dataclass(frozen=True)
class CodedTriple:
    """A (size, bit, offset) triple.

    The encoding formula is total in the offset z, so the constructor does
    not require the codec's domain (z in [0, n + 1]).  `in_support_box` tests
    the tighter condition z in [0, n] that `separation_gap` needs.
    """

    n: int
    b: int
    z: int

    def __post_init__(self):
        _check_size(self.n)
        _check_bit(self.b)
        _check_offset(self.z)

    @property
    def in_support_box(self) -> bool:
        return 0 <= self.z <= self.n

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n, self.b, self.z)


def encode(n: int, b: int, z: int) -> int:
    """Evaluate (n - 1)(n + 4) + b(n + 2) + z.  Requires n >= 1, b in {0, 1}."""
    # Plain ints are tested inline.  Any other type goes to the checker, which
    # raises with the usual message or lets an int subclass through.
    if type(n) is not int or n < 1:
        _check_size(n)
    if type(b) is not int or not 0 <= b <= 1:
        _check_bit(b)
    if type(z) is not int:
        _check_offset(z)
    return (n - 1) * (n + 4) + b * (n + 2) + z


def _split(m: int) -> tuple[int, int, int]:
    """The (n, b, z) with encode(n, b, z) = m and 0 <= z <= n + 1.

    The block size is the largest n with (n - 1)(n + 4) <= m, which is
    (r - 3) // 2 for r the integer square root of 4m + 25; b and z are read
    off the remainder.  Only integer arithmetic is used, so the result is
    exact for every code.
    """
    # A plain int is tested inline; any other value goes to the checker,
    # which raises with the usual message or lets an int subclass through.
    if type(m) is not int or m < 0:
        _check_code(m)
    n = (isqrt(4 * m + 25) - 3) // 2
    r = m - (n - 1) * (n + 4)
    if r <= n + 1:
        return n, 0, r
    return n, 1, r - (n + 2)


def decode(m: int) -> CodedTriple:
    """The unique domain triple with encode(n, b, z) = m."""
    # `_split` yields a valid size and bit, so `__post_init__` is skipped; the
    # result is indistinguishable from CodedTriple(n, b, z) under ==, hash
    # and repr.
    t = object.__new__(CodedTriple)
    d = t.__dict__
    d["n"], d["b"], d["z"] = _split(m)
    return t


@dataclass(frozen=True)
class PointPrefix:
    """A depth-d prefix of a sequence triple: sizes a, bits x, offsets g."""

    a: tuple[int, ...]
    x: tuple[int, ...]
    g: tuple[int, ...]

    def __post_init__(self):
        # Plain ints are tested inline, as in `encode`; any other value goes
        # to the checker, which raises with the usual message or lets an int
        # subclass through.
        a = tuple(self.a)
        for v in a:
            if type(v) is not int or v < 1:
                _check_size(v)
        x = tuple(self.x)
        for v in x:
            if type(v) is not int or not 0 <= v <= 1:
                _check_bit(v)
        g = tuple(self.g)
        for v in g:
            if type(v) is not int:
                _check_offset(v)
        if not (len(a) == len(x) == len(g)):
            raise ValueError(
                f"component lengths differ: {len(a)}, {len(x)}, {len(g)}"
            )
        fields = self.__dict__
        fields["a"] = a
        fields["x"] = x
        fields["g"] = g

    @property
    def depth(self) -> int:
        return len(self.a)

    @property
    def in_domain(self) -> bool:
        """All offsets within the codec domain: g(k) in [0, a(k) + 1]."""
        for ak, gk in zip(self.a, self.g):
            if not 0 <= gk <= ak + 1:
                return False
        return True


def encode_point(p: PointPrefix) -> tuple[int, ...]:
    """Coordinatewise encode.  For fixed sizes and bits this is a translation:
    encode_point(a, x, g) = encode_point(a, x, 0) + g coordinatewise.

    The constructor of `p` has checked every size and bit, so the codec
    formula is evaluated directly.
    """
    return tuple(
        [(n - 1) * (n + 4) + b * (n + 2) + z for n, b, z in zip(p.a, p.x, p.g)]
    )


def decode_point(s: Sequence[int]) -> PointPrefix:
    """Coordinatewise decode of a tuple of nonnegative codes.

    Inverse of `encode_point` on prefixes inside the codec domain;
    encode_point(decode_point(s)) = s holds for every nonnegative s.
    """
    # `_split` yields valid sizes and bits, so `__post_init__` is skipped;
    # the result is indistinguishable from the checked constructor's.
    parts = [_split(m) for m in s]
    p = object.__new__(PointPrefix)
    d = p.__dict__
    d["a"], d["x"], d["g"] = zip(*parts) if parts else ((), (), ())
    return p


def separation_gap(p: CodedTriple, q: CodedTriple) -> int:
    """Code distance between two support-box triples with different (n, b).

    Both triples must satisfy z in [0, n].  Whenever the (n, b) pairs differ,
    the codes of the lexicographically larger cell exceed those of the
    smaller by at least 2; the returned gap is that positive difference.
    """
    for t in (p, q):
        if not t.in_support_box:
            raise ValueError(f"triple {t.as_tuple()} has offset outside [0, n]")
    if (p.n, p.b) == (q.n, q.b):
        raise ValueError(
            f"triples share the cell (n={p.n}, b={p.b}); no gap is guaranteed"
        )
    lo, hi = sorted((p, q), key=lambda t: (t.n, t.b))
    return encode(*hi.as_tuple()) - encode(*lo.as_tuple())
