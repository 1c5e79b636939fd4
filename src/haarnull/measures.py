"""Exact measure arithmetic for finitely supported distributions on the integers.

Everything here is exact: masses are `fractions.Fraction` values, so equality
of measures and of computed probabilities is decidable and checked as
identity, never up to tolerance.  Measures on the infinite product space are
truncated: a `ProductMeasureSpec` lists the first d coordinate measures
explicitly, and a tail policy says what every later coordinate carries.
Operations that would need coordinates the spec cannot resolve raise
`UnsupportedDepthError` instead of guessing.

All values are immutable once constructed and all functions are pure, so
they can be shared freely across threads.

The public `FiniteMeasureZ` constructor checks every point and mass it is
given.  The builders `uniform`, `dirac`, `convolve` and `translate_measure`
skip re-checking what holds by construction (integer points, positive
`Fraction` masses summing to 1) and build through `_trusted_measure`.

The sums run on integers.  Every measure stores its integer form
`_form = (D, counts)`, with `weights[z] == Fraction(counts[z], D)` for every
point z: the public constructor keeps the one it builds to check the total
mass, and the builders store the one they know already.  `convolve`,
`measure_of`, `box_intersection_measure` and the private
`_smoothed_box_intersection_measure` add and multiply these integers and
divide once, building one `Fraction` per result (`convolve`: one per
point); `translate_measure` shifts the form with the points.  The
smoothed kernel reads a box measure of the convolution with a uniform
product straight off the unsmoothed forms, so the restrict-normalize
verifier builds no convolution.  The stored form would go stale if
`weights` changed, so treat `weights` as read-only.

A uniform measure stores its weights and its counts as `_Interval`s,
read-only mappings on {0, ..., k} in O(1) space, so `uniform(k)` costs the
same memory and time whatever k is.  Lookups, `len`, `min_support`,
`max_support` and a kernel's count on an interval (`_count_in`) read an
interval in O(1), and so does `==` against another interval or against a
mapping of another length.  What iterates the points still walks all k + 1
of them: `repr`, `hash`, `support`, `convolve` and `translate_measure`.  The
restrict-normalize verifier calls none of these on its uniform products.

There is one uniform measure per size.  `uniform(k)` checks k on every
call, then returns the measure from a bounded cache keyed by the checked
int (`_UNIFORM_CACHE_SIZE` entries, each O(1) in size), so the few sizes
the size rule takes are each built once.  `uniform_product_spec` wraps its
tuple of uniform measures without re-checking the entries, and the kernels
read the integer forms straight off the spec's prefix when it reaches the
depth they need, resolving the tail only past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _iter_product
from math import lcm, prod
from typing import Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "UnsupportedDepthError",
    "FiniteMeasureZ",
    "UniformTail",
    "PointMassTail",
    "TailPolicy",
    "ProductMeasureSpec",
    "CylinderSet",
    "uniform",
    "dirac",
    "convolve",
    "translate_measure",
    "uniform_product_spec",
    "materialize",
    "measure_of",
    "translate_set",
    "box_measure",
    "box_intersection_measure",
    "lattice_points",
]

Box = tuple[tuple[int, int], ...]

# How many uniform measures `uniform` keeps built.  The size rule
# max(2r + 1, 2^(n+2) * r) takes a few dozen values over a whole battery
# or CLI run, so this holds them all, and each entry takes O(1) memory.
_UNIFORM_CACHE_SIZE = 256


class UnsupportedDepthError(Exception):
    """A computation needs coordinates beyond the resolvable depth of a spec."""


def _check_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class FiniteMeasureZ:
    """A probability measure on Z with finite support.

    Canonical form: zero-mass points are dropped, every remaining mass is a
    positive `Fraction`, and the masses sum to exactly 1.  The support is the
    key set of `weights`, a dict, or for a measure built by `uniform` a
    read-only `_Interval`.

    The constructor takes integer points and `int` or `Fraction` masses and
    checks all of the above.  Measures built by `uniform`, `dirac`,
    `convolve` and `translate_measure` are canonical by construction and
    skip the checks.  Every measure also stores its integer form `_form =
    (D, counts)`, which no kernel re-derives, so treat `weights` as
    read-only.  The constructor's D is the least common denominator of the
    masses.
    """

    weights: Mapping[int, Fraction]

    def __post_init__(self):
        clean: dict[int, Fraction] = {}
        for point, mass in self.weights.items():
            if type(point) is not int:
                _check_int(point, "support point")
            if not isinstance(mass, Fraction):
                if not isinstance(mass, int) or isinstance(mass, bool):
                    raise ValueError(
                        f"mass at point {point} must be an integer or a "
                        f"Fraction, got {mass!r}"
                    )
                mass = Fraction(mass)
            if mass.numerator < 0:
                raise ValueError(f"negative mass {mass} at point {point}")
            if mass.numerator:
                clean[point] = mass
        if not clean:
            raise ValueError("a probability measure needs nonempty support")
        D = 1
        for m in clean.values():
            D = lcm(D, m.denominator)
        counts = {z: m.numerator * (D // m.denominator) for z, m in clean.items()}
        num = sum(counts.values())
        if num != D:
            raise ValueError(
                f"total mass is {Fraction(num, D)}, expected exactly 1"
            )
        object.__setattr__(self, "weights", clean)
        object.__setattr__(self, "_form", (D, counts))

    def __hash__(self):
        return hash(tuple(sorted(self.weights.items())))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights))

    @property
    def min_support(self) -> int:
        w = self.weights
        return 0 if type(w) is _Interval else min(w)

    @property
    def max_support(self) -> int:
        w = self.weights
        return w.k if type(w) is _Interval else max(w)

    def mass(self, point: int) -> Fraction:
        return self.weights.get(point, Fraction(0))


def _trusted_measure(
    weights: Mapping[int, Fraction], D: int, counts: Mapping[int, int]
) -> FiniteMeasureZ:
    """Wrap a fresh mapping already in canonical form, with its integer form.

    The caller guarantees integer points and positive `Fraction` masses that
    sum to exactly 1, and weights[z] == Fraction(counts[z], D) for every z.
    Skips `__post_init__`; the result is indistinguishable from
    FiniteMeasureZ(weights) under ==, hash and repr.
    """
    m = object.__new__(FiniteMeasureZ)
    m.__dict__["weights"] = weights
    m.__dict__["_form"] = D, counts
    return m


class _Interval(Mapping):
    """The read-only mapping z -> value on {0, ..., k}, in O(1) space.

    `get`, `in`, `[]` and `len` cost O(1) and agree with the dict of the
    same items for every key that dict accepts, `True`, `1.0` and
    `Fraction(1)` included; an unhashable key raises `TypeError` as it does
    there.  `==` against another interval compares (k, value) in O(1), and
    against another mapping compares the lengths first, so only a mapping
    of k + 1 items is compared item by item.
    Iteration walks range(k + 1), so what iterates the items costs k + 1
    steps: `repr` (the dict's repr), and on a measure `hash`, `support`,
    `convolve` and `translate_measure`.
    """

    __slots__ = ("k", "value")

    def __init__(self, k: int, value):
        self.k = k
        self.value = value

    def __contains__(self, key) -> bool:
        if type(key) is not int:
            hash(key)  # an unhashable key raises TypeError, as in a dict
            try:
                n = int(key.real)
            except (AttributeError, TypeError, ValueError, OverflowError):
                return False
            if n != key or hash(n) != hash(key):
                return False
            key = n
        return 0 <= key <= self.k

    def __getitem__(self, key):
        if type(key) is int and 0 <= key <= self.k or key in self:
            return self.value
        raise KeyError(key)

    def get(self, key, default=None):
        if type(key) is int and 0 <= key <= self.k or key in self:
            return self.value
        return default

    def __len__(self) -> int:
        return self.k + 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.k + 1))

    def __eq__(self, other):
        if type(other) is _Interval:
            return self.k == other.k and self.value == other.value
        if isinstance(other, Mapping) and len(other) != self.k + 1:
            return False
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(self))


def uniform(k: int) -> FiniteMeasureZ:
    """The uniform measure on {0, ..., k}, mass 1/(k+1) per point.

    Its weights and its counts are intervals (`_Interval`), so it takes
    O(1) memory and time to build whatever k is.  The argument is checked
    on every call; the measure comes from a bounded cache of the sizes used
    last, so a size that recurs is built once and shared.
    """
    if type(k) is not int:
        k = int(_check_int(k, "uniform size"))
    if k < 0:
        raise ValueError(f"uniform size must be >= 0, got {k}")
    return _uniform(k)


@lru_cache(maxsize=_UNIFORM_CACHE_SIZE)
def _uniform(k: int) -> FiniteMeasureZ:
    """uniform(k) for a plain int k >= 0 that the caller has checked."""
    return _trusted_measure(_Interval(k, Fraction(1, k + 1)), k + 1, _Interval(k, 1))


def dirac(z: int) -> FiniteMeasureZ:
    """The point mass at z."""
    _check_int(z, "point")
    return _trusted_measure({z: Fraction(1)}, 1, {z: 1})


def convolve(p: FiniteMeasureZ, q: FiniteMeasureZ) -> FiniteMeasureZ:
    """Distribution of X + Y for independent X ~ p and Y ~ q.

    result(z) = sum over x + y = z of p(x) * q(y); the support is the
    Minkowski sum of the two supports and the total mass stays exactly 1.
    With the integer forms (Dp, a) of p and (Dq, b) of q, the result's form
    is (Dp * Dq, c) with c(z) the integer sum of a(x) * b(y) over x + y = z.
    Every c is positive and the c sum to Dp * Dq, so the result is canonical
    without a check; each point's mass is Fraction(c, Dp * Dq).
    """
    Dp, cp = p._form
    Dq, cq = q._form
    qs = list(cq.items())
    out: dict[int, int] = {}
    for x, a in cp.items():
        for y, b in qs:
            z = x + y
            out[z] = out.get(z, 0) + a * b
    D = Dp * Dq
    return _trusted_measure({z: Fraction(c, D) for z, c in out.items()}, D, out)


def translate_measure(p: FiniteMeasureZ, shift: int) -> FiniteMeasureZ:
    """Pullback of p under the map X -> X + shift: result(z) = p(z + shift)."""
    _check_int(shift, "shift")
    D, counts = p._form
    return _trusted_measure(
        {z - shift: m for z, m in p.weights.items()},
        D,
        {z - shift: c for z, c in counts.items()},
    )


@dataclass(frozen=True)
class UniformTail:
    """Every coordinate beyond the prefix carries uniform({0..k})."""

    k: int

    def __post_init__(self):
        _check_int(self.k, "tail size")
        if self.k < 0:
            raise ValueError(f"tail size must be >= 0, got {self.k}")

    def resolve(self) -> FiniteMeasureZ:
        return uniform(self.k)


@dataclass(frozen=True)
class PointMassTail:
    """Every coordinate beyond the prefix carries the point mass at z."""

    z: int

    def __post_init__(self):
        _check_int(self.z, "tail point")

    def resolve(self) -> FiniteMeasureZ:
        return dirac(self.z)


TailPolicy = Optional[Union[UniformTail, PointMassTail]]


@dataclass(frozen=True)
class ProductMeasureSpec:
    """A product measure given by an explicit depth-d prefix plus a tail policy.

    The prefix determines the measure of every cylinder of depth <= d
    exactly.  A tail policy extends that to arbitrary depth; `tail=None`
    means the measure is only pinned down to depth d and deeper queries
    raise `UnsupportedDepthError`.
    """

    prefix: tuple[FiniteMeasureZ, ...]
    tail: TailPolicy = None

    def __post_init__(self):
        entries = tuple(self.prefix)
        for i, m in enumerate(entries):
            if not isinstance(m, FiniteMeasureZ):
                raise ValueError(f"prefix entry {i} is not a FiniteMeasureZ")
        if self.tail is not None and not isinstance(
            self.tail, (UniformTail, PointMassTail)
        ):
            raise ValueError(f"unknown tail policy {self.tail!r}")
        object.__setattr__(self, "prefix", entries)

    @property
    def depth(self) -> int:
        return len(self.prefix)

    def resolvable_to(self, depth: int) -> bool:
        return depth <= self.depth or self.tail is not None

    def coordinate(self, n: int) -> FiniteMeasureZ:
        """The measure carried by coordinate n, resolving the tail if needed."""
        if n < 0:
            raise ValueError(f"coordinate index must be >= 0, got {n}")
        if n < len(self.prefix):
            return self.prefix[n]
        if self.tail is None:
            raise UnsupportedDepthError(
                f"coordinate {n} lies beyond prefix depth {self.depth} "
                "and the spec declares no tail policy"
            )
        return self.tail.resolve()


def uniform_product_spec(sizes: Sequence[int]) -> ProductMeasureSpec:
    """Product of uniform({0..sizes[n]}) coordinate measures, with no tail."""
    spec = object.__new__(ProductMeasureSpec)
    # every entry is a FiniteMeasureZ, so the constructor's checks hold
    spec.__dict__.update(prefix=tuple([uniform(k) for k in sizes]), tail=None)
    return spec


def materialize(spec: ProductMeasureSpec, depth: int) -> ProductMeasureSpec:
    """Extend the explicit prefix to `depth` by resolving the tail policy."""
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth <= spec.depth:
        return spec
    extra = tuple(spec.coordinate(n) for n in range(spec.depth, depth))
    return ProductMeasureSpec(spec.prefix + extra, spec.tail)


@dataclass(frozen=True)
class CylinderSet:
    """A finite union of depth-d cylinders, one per listed prefix tuple.

    Canonical form: prefixes are sorted and deduplicated, so structural
    equality is set equality.  The empty prefix family denotes the empty
    set; depth 0 with the single empty tuple denotes the whole space.
    """

    depth: int
    prefixes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_int(self.depth, "depth")
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        canon = set()
        for s in self.prefixes:
            # a tuple is kept as given rather than copied: the prefixes are
            # most of the memory a cylinder set holds
            t = s if type(s) is tuple else tuple(s)
            for v in t:
                _check_int(v, "prefix entry")
            if len(t) != self.depth:
                raise ValueError(
                    f"prefix {t} has length {len(t)}, expected depth {self.depth}"
                )
            canon.add(t)
        object.__setattr__(self, "prefixes", tuple(sorted(canon)))

    @classmethod
    def empty(cls, depth: int) -> "CylinderSet":
        return cls(depth, ())

    @classmethod
    def whole_space(cls) -> "CylinderSet":
        return cls(0, ((),))

    @property
    def is_empty(self) -> bool:
        return not self.prefixes

    @property
    def size(self) -> int:
        return len(self.prefixes)


_WHOLE_SPACE = CylinderSet.whole_space()


def translate_set(cyl: CylinderSet, x: Sequence[int]) -> CylinderSet:
    """Shift every prefix coordinatewise by x (length must equal the depth)."""
    shift = tuple(_check_int(v, "shift entry") for v in x)
    if len(shift) != cyl.depth:
        raise ValueError(
            f"shift length {len(shift)} does not match depth {cyl.depth}"
        )
    moved = tuple(
        tuple(s[i] + shift[i] for i in range(cyl.depth)) for s in cyl.prefixes
    )
    return CylinderSet(cyl.depth, moved)


def measure_of(spec: ProductMeasureSpec, cyl: CylinderSet) -> Fraction:
    """Exact measure of a cylinder set under a product measure spec.

    The cylinders in a canonical `CylinderSet` are pairwise disjoint, so the
    value is the sum over prefixes of the product of per-coordinate point
    masses.  Raises `UnsupportedDepthError` if the set is deeper than the
    spec can resolve.
    """
    if not spec.resolvable_to(cyl.depth):
        raise UnsupportedDepthError(
            f"cylinder depth {cyl.depth} exceeds prefix depth {spec.depth} "
            "and the spec declares no tail policy"
        )
    forms = _forms(spec, cyl.depth)
    counts = [c for _, c in forms]
    num = 0
    for s in cyl.prefixes:
        f = 1
        for c, v in zip(counts, s):
            f *= c.get(v, 0)
            if not f:
                break
        num += f
    return Fraction(num, prod([D for D, _ in forms]))


def _forms(spec: ProductMeasureSpec, depth: int) -> list:
    """The integer forms of the first `depth` coordinates of a spec
    resolvable to that depth: read off the prefix when it is deep enough."""
    prefix = spec.prefix
    if depth <= len(prefix):
        return [m._form for m in prefix[:depth]]
    return [spec.coordinate(n)._form for n in range(depth)]


def _box_forms(spec: ProductMeasureSpec, cyl: CylinderSet, box: Box) -> list:
    """The integer forms of the box's coordinates, once the box is checked
    to be at least as deep as cyl and resolvable by spec."""
    if cyl.depth > len(box):
        raise ValueError(
            f"cylinder depth {cyl.depth} exceeds box depth {len(box)}"
        )
    if not spec.resolvable_to(len(box)):
        raise UnsupportedDepthError(
            f"box depth {len(box)} exceeds prefix depth {spec.depth} "
            "and the spec declares no tail policy"
        )
    return _forms(spec, len(box))


def box_measure(spec: ProductMeasureSpec, box: Box) -> Fraction:
    """Measure of the box cylinder {y : y(n) in [lo_n, hi_n] for n < len(box)}."""
    return box_intersection_measure(spec, _WHOLE_SPACE, box)


def _count_in(counts: Mapping[int, int], lo: int, hi: int) -> int:
    """The sum of counts[z] over lo <= z <= hi: the overlap length times
    the value for an interval, in O(1); one pass over the points otherwise."""
    if type(counts) is _Interval:
        return max(0, min(hi, counts.k) - max(lo, 0) + 1) * counts.value
    return sum([c for z, c in counts.items() if lo <= z <= hi])


def box_intersection_measure(
    spec: ProductMeasureSpec, cyl: CylinderSet, box: Box
) -> Fraction:
    """Exact measure of cyl intersected with the box cylinder over `box`.

    Works without materializing the intersection: each cylinder [s] meets
    the box in the set that pins the first |s| coordinates to s (when those
    lie inside the box) and ranges over the box intervals on the remaining
    coordinates, so its measure factors per coordinate.  The box must be at
    least as deep as the cylinder set.

    Each coordinate past the cylinder depth contributes its count on its
    box interval, one `_count_in`: O(1) for a uniform coordinate, one pass
    over the support otherwise.  Each prefix makes one `get` per pinned
    coordinate, so no step walks the points of a uniform coordinate.
    """
    forms = _box_forms(spec, cyl, box)
    tail_factor = 1
    for n in range(cyl.depth, len(box)):
        lo, hi = box[n]
        inside = _count_in(forms[n][1], lo, hi)
        if not inside:
            return Fraction(0)
        tail_factor *= inside
    num = 0
    for s in cyl.prefixes:
        f = tail_factor
        for (lo, hi), (_, counts), v in zip(box, forms, s):
            c = counts.get(v) if lo <= v <= hi else None
            if c is None:
                break
            f *= c
        else:
            num += f
    return Fraction(num, prod([D for D, _ in forms]))


def _smoothed_box_intersection_measure(
    spec: ProductMeasureSpec, cyl: CylinderSet, box: Box, sizes: Sequence[int]
) -> Fraction:
    """Exact measure of cyl intersected with the box cylinder over `box`
    under the coordinatewise convolution of spec with uniform(sizes[n]).

    Reads the smoothed measure off spec's integer forms without building
    it.  With (D, a) the form of coordinate n and s = sizes[n], the smoothed
    coordinate has denominator D * (s + 1), count sum of a(x) over
    v - s <= x <= v at v, and count sum of a(x) * |[lo, hi] & [x, x + s]|
    on [lo, hi].  The sums factor per coordinate as in
    `box_intersection_measure`, and the arguments are checked the same
    way; `sizes` must be as long as the box.
    """
    forms = _box_forms(spec, cyl, box)
    if len(sizes) != len(box):
        raise ValueError(
            f"{len(sizes)} smoothing sizes for a box of depth {len(box)}"
        )
    for s in sizes:
        if type(s) is not int:
            _check_int(s, "uniform size")
        if s < 0:
            raise ValueError(f"uniform size must be >= 0, got {s}")
    tail_factor = 1
    for n in range(cyl.depth, len(box)):
        lo, hi = box[n]
        s = sizes[n]
        inside = 0
        for x, a in forms[n][1].items():
            overlap = min(hi, x + s) - max(lo, x) + 1
            if overlap > 0:
                inside += a * overlap
        if not inside:
            return Fraction(0)
        tail_factor *= inside
    num = 0
    for p in cyl.prefixes:
        f = tail_factor
        for (lo, hi), (_, counts), s, v in zip(box, forms, sizes, p):
            if not lo <= v <= hi:
                break
            c = sum([a for x, a in counts.items() if v - s <= x <= v])
            if not c:
                break
            f *= c
        else:
            num += f
    return Fraction(num, prod([D * (s + 1) for (D, _), s in zip(forms, sizes)]))


def lattice_points(box: Box) -> Iterator[tuple[int, ...]]:
    """All integer tuples inside the box, in lexicographic order."""
    ranges = [range(lo, hi + 1) for lo, hi in box]
    return _iter_product(*ranges)
