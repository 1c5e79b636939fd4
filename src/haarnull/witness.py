"""Witness-sequence synthesis for compactly supported product measures.

The pipeline: shift every coordinate measure so its support sits in
[-radius, 0] with max exactly 0, pick a per-coordinate uniform smoothing
size larger than twice the radius (with a depth-independent positive lower
bound on the running product of (1 - radius/(size+1))), and read off the
witness entries size - radius.  `synthesize_witness` reads the shifts and
radii straight off the unshifted measures.  `SynthesisTrace` takes the three
given columns (shifts, radii, sizes) and derives the other three (the
witness entries and both partial-product columns) from them once, so no
column can disagree with another.  Since 1 - radius/(size+1) equals
(witness+1)/(size+1), each deficiency partial is the reciprocal of the scale
partial at the same coordinate, and the trace keeps one running product, a
reduced `Fraction` multiplied by one small factor per coordinate.  The
57/100 floor is tested on its integer terms, and each deficiency partial is
taken as `running ** -1`, which swaps the reduced terms without a gcd.  (A
running product kept as two unreduced integers, reduced into a `Fraction` at
every coordinate, takes a gcd of two D^2-bit integers at depth D instead.)

`verify_restrict_normalize` checks, as exact rational identities at the
spec's depth, the facts that make the construction work: convolving the
shifted measure with the uniform product flattens it on the witness support
box, scaling by the partial density constant recovers the witness measure
there, the box mass under the plain uniform product is the reciprocal of
that constant, and the restrict-and-normalize quotient reproduces the
witness measure.  It reads the smoothed measure on the box straight off the
integer forms of the shifted measure (`_smoothed_box_intersection_measure`)
and never builds the convolution; the uniform measures go through the
public kernels, so each identity compares two sides computed by different
code.  `is_witness_prefix` decides the defining property of a
witness prefix in closed form: a nonempty cylinder set always has a translate
of positive mass, and the lex-least one is minus its lex-largest prefix.  The
brute-force scan over the exhaustive translation window that this replaces
is kept as the independent oracle `acceptance._witness_prefix_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .measures import (
    CylinderSet,
    PointMassTail,
    ProductMeasureSpec,
    UniformTail,
    UnsupportedDepthError,
    _WHOLE_SPACE,
    _check_int,
    _smoothed_box_intersection_measure,
    box_intersection_measure,
    box_measure,
    measure_of,
    translate_measure,
    uniform_product_spec,
)
from .report import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    FAIL,
    PASS,
    VerificationReport,
    check_budget,
)

__all__ = [
    "DEFICIENCY_LOWER_BOUND",
    "DEFAULT_BUDGET",
    "SynthesisTrace",
    "shift_to_nonpositive",
    "choose_uniform_sizes",
    "synthesize_witness",
    "verify_restrict_normalize",
    "is_witness_prefix",
]

# Lower bound for the infinite product prod_{n>=0} (1 - 2^-(n+2)), whose
# partial products dominate every deficiency product the size rule can
# produce.  The product evaluates to 0.57757619017...; the exact
# partial-product-times-tail-bound certificate lives in the test suite.
DEFICIENCY_LOWER_BOUND = Fraction(57, 100)


@dataclass(frozen=True)
class SynthesisTrace:
    """Per-coordinate record of one synthesis run at depth d.

    Three columns are given:

    shifts[n]   translation applied to coordinate n to make its support end at 0
    radii[n]    support radius after shifting (support is [-radii[n], 0])
    sizes[n]    uniform smoothing size, always > 2 * radii[n]

    and three are derived from them once, at construction:

    witness[n]  sizes[n] - radii[n], the synthesized witness entry
    scale_partial[k]       running product of (sizes[n]+1)/(witness[n]+1), n <= k
    deficiency_partial[k]  running product of (1 - radii[n]/(sizes[n]+1)), n <= k,
                           which is 1 / scale_partial[k]

    The given columns take integers only; nothing is rounded or parsed: a
    plain int is taken as it is and any other entry goes to `_check_int`.
    The deficiency partials are nonincreasing, and construction rejects
    sizes that let them dip below DEFICIENCY_LOWER_BOUND.  With the running
    scale partial num/den in lowest terms, that test is the integer
    comparison 100 * den < 57 * num, and each deficiency partial is
    `running ** -1`, the same terms swapped, so the only gcds per coordinate
    are those of the small factor (size+1)/(witness+1) with the running
    terms.
    """

    shifts: tuple[int, ...]
    radii: tuple[int, ...]
    sizes: tuple[int, ...]
    witness: tuple[int, ...] = field(init=False)
    scale_partial: tuple[Fraction, ...] = field(init=False)
    deficiency_partial: tuple[Fraction, ...] = field(init=False)

    def __post_init__(self):
        shifts = _int_column(self.shifts, "shift")
        radii = _int_column(self.radii, "radius")
        sizes = _int_column(self.sizes, "size")
        if not (len(shifts) == len(radii) == len(sizes)):
            raise ValueError("per-coordinate columns have unequal lengths")
        witness, scale, defic = [], [], []
        running = Fraction(1)
        # deficiency partial = 1 / running >= 57/100, tested on integers
        bound_num = DEFICIENCY_LOWER_BOUND.numerator
        bound_den = DEFICIENCY_LOWER_BOUND.denominator
        for n, (m, s) in enumerate(zip(radii, sizes)):
            if m < 0:
                raise ValueError(f"radius {m} at coordinate {n} is negative")
            if s <= 2 * m:
                raise ValueError(f"size {s} at coordinate {n} is not > 2*{m}")
            w = s - m
            running *= Fraction(s + 1, w + 1)
            if bound_den * running.denominator < bound_num * running.numerator:
                raise ValueError(
                    f"deficiency partial {running ** -1} at {n} dips below "
                    f"{DEFICIENCY_LOWER_BOUND}"
                )
            witness.append(w)
            scale.append(running)
            # 1 - m/(s+1) = (w+1)/(s+1); a negative power of a reduced
            # Fraction swaps its terms without taking a gcd
            defic.append(running ** -1)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "witness", tuple(witness))
        object.__setattr__(self, "scale_partial", tuple(scale))
        object.__setattr__(self, "deficiency_partial", tuple(defic))

    @property
    def depth(self) -> int:
        return len(self.shifts)


def _int_column(values: Sequence[int], what: str) -> tuple[int, ...]:
    """The entries as a tuple, each a plain int or checked by `_check_int`."""
    return tuple([v if type(v) is int else _check_int(v, what) for v in values])


def shift_to_nonpositive(
    spec: ProductMeasureSpec,
) -> tuple[ProductMeasureSpec, tuple[int, ...]]:
    """Translate each prefix coordinate so its support max becomes 0.

    Returns the shifted spec and the per-coordinate shifts (each the old
    support maximum).  A point-mass tail shifts to the point mass at 0; a
    uniform tail of size 0 is the same thing.  A uniform tail of positive
    size has no nonpositive counterpart among the tail policies, so the
    returned spec drops it and stays exact only to its prefix depth.
    """
    shifted = []
    shifts = []
    for m in spec.prefix:
        ell = m.max_support
        shifted.append(translate_measure(m, ell) if ell != 0 else m)
        shifts.append(ell)
    if spec.tail is None:
        tail = None
    elif isinstance(spec.tail, PointMassTail):
        tail = PointMassTail(0)
    elif isinstance(spec.tail, UniformTail) and spec.tail.k == 0:
        tail = PointMassTail(0)
    else:
        tail = None
    return ProductMeasureSpec(tuple(shifted), tail), tuple(shifts)


def choose_uniform_sizes(radii: Sequence[int]) -> tuple[int, ...]:
    """Pick smoothing sizes: size(n) = max(2*radii[n] + 1, 2^(n+2) * radii[n]).

    This guarantees size(n) > 2*radii[n] and radii[n]/(size(n)+1) <= 2^-(n+2),
    so every partial product of (1 - radii[n]/(size(n)+1)) stays above the
    depth-independent constant DEFICIENCY_LOWER_BOUND.
    """
    sizes = []
    for n, m in enumerate(radii):
        if type(m) is not int:
            _check_int(m, "radius")
        if m < 0:
            raise ValueError(f"radius {m} at coordinate {n} is negative")
        sizes.append(max(2 * m + 1, (1 << (n + 2)) * m))
    return tuple(sizes)


def synthesize_witness(spec: ProductMeasureSpec) -> SynthesisTrace:
    """Run the full pipeline on a spec with finitely supported coordinates.

    Reads each prefix coordinate's shift (its support maximum, read once)
    and radius (support maximum minus minimum) straight off the measure,
    the columns `shift_to_nonpositive` would give, without translating
    anything, and applies the size rule; the trace derives the witness
    entries and both partial-product columns.
    """
    shifts, radii = [], []
    for m in spec.prefix:
        top = m.max_support
        shifts.append(top)
        radii.append(top - m.min_support)
    return SynthesisTrace(shifts, radii, choose_uniform_sizes(radii))


def _check_shifted(mu: ProductMeasureSpec, trace: SynthesisTrace) -> None:
    if mu.depth != trace.depth:
        raise ValueError(
            f"spec depth {mu.depth} does not match trace depth {trace.depth}"
        )
    for n, m in enumerate(mu.prefix):
        if m.max_support != 0:
            raise ValueError(
                f"coordinate {n} has support max {m.max_support}; "
                "shift the spec nonpositive first"
            )
        if -m.min_support != trace.radii[n]:
            raise ValueError(
                f"coordinate {n} has radius {-m.min_support}, "
                f"trace says {trace.radii[n]}"
            )


def verify_restrict_normalize(
    mu: ProductMeasureSpec, trace: SynthesisTrace, X: CylinderSet
) -> VerificationReport:
    """Check the four flattening identities exactly at the trace's depth.

    With nu the coordinatewise convolution of mu with the uniform product of
    the trace's sizes, flat that uniform product itself, wit the uniform
    product of the witness entries, B the witness support box, and scale the
    depth-d density constant:

      smoothed_equals_flat_on_box   nu(X & B)  = flat(X & B)
      scaling_recovers_witness      wit(X & B) = scale * flat(X & B)
      flat_box_mass_reciprocal      flat(B)    = 1 / scale
      restrict_normalize_quotient   wit(X)     = nu(X & B) / nu(B)

    All four are exact rational equalities; the report carries both sides.
    nu(X & B) and nu(B) come from `_smoothed_box_intersection_measure`,
    which reads them off mu's integer forms without building nu; flat and
    wit are built by `uniform_product_spec`, from the one cached uniform
    measure per size, and measured by `box_intersection_measure`,
    `box_measure` and `measure_of`.
    """
    _check_shifted(mu, trace)
    d = mu.depth
    if X.depth > d:
        raise UnsupportedDepthError(
            f"cylinder depth {X.depth} exceeds the verification depth {d}"
        )
    flat = uniform_product_spec(trace.sizes)
    wit = uniform_product_spec(trace.witness)
    box = tuple((0, w) for w in trace.witness)
    scale = trace.scale_partial[-1] if d else Fraction(1)

    nu_xb = _smoothed_box_intersection_measure(mu, X, box, trace.sizes)
    flat_xb = box_intersection_measure(flat, X, box)
    wit_xb = box_intersection_measure(wit, X, box)
    flat_b = box_measure(flat, box)
    nu_b = _smoothed_box_intersection_measure(mu, _WHOLE_SPACE, box, trace.sizes)
    wit_x = measure_of(wit, X)

    lhs = {
        "smoothed_equals_flat_on_box": nu_xb,
        "scaling_recovers_witness": wit_xb,
        "flat_box_mass_reciprocal": flat_b,
        "restrict_normalize_quotient": wit_x,
    }
    rhs = {
        "smoothed_equals_flat_on_box": flat_xb,
        "scaling_recovers_witness": scale * flat_xb,
        "flat_box_mass_reciprocal": 1 / scale,
        "restrict_normalize_quotient": nu_xb / nu_b,
    }
    failing = [name for name in lhs if lhs[name] != rhs[name]]
    return VerificationReport(
        claim="restrict-and-normalize",
        status=FAIL if failing else PASS,
        depth=d,
        lhs=lhs,
        rhs=rhs,
        counterexample={"identities": failing} if failing else None,
        parameters={
            "radii": trace.radii,
            "sizes": trace.sizes,
            "witness": trace.witness,
            "scale": scale,
            "cylinders": X.size,
        },
    )


def is_witness_prefix(
    witness: Sequence[int], cyl: CylinderSet, budget: int = DEFAULT_BUDGET
) -> VerificationReport:
    """Check that every translate of cyl is null for the witness's uniform product.

    The exhaustive window holds, per coordinate n, x(n) in
    [-max_s s(n), witness[n] - min_s s(n)]; outside it the translate misses
    the support box [0, witness] entirely.  A window whose volume exceeds
    `budget` is reported as budget-exceeded, as the scan it bounds would be.

    Within budget the answer is closed form.  A translate x has positive
    mass exactly when some prefix s has 0 <= s + x <= witness, and since
    witness >= 0 the lex-least such x is x* = -s* for the lex-largest
    prefix s*.  So a nonempty set always fails at x*.  Its mass is
    #{s : 0 <= s + x* <= witness} / prod(witness[n] + 1), and the count is
    1: s + x* >= 0 means s >= s* in every coordinate, which for s <= s* in
    lex order leaves only s = s*.  The empty set passes.
    `acceptance._witness_prefix_oracle` keeps the scan over the whole
    window as the independent check of this.
    """
    check_budget(budget)
    wit = tuple(_check_int(v, "witness entry") for v in witness)
    for n, w in enumerate(wit):
        if w < 1:
            raise ValueError(f"witness entry {w} at coordinate {n} is not >= 1")
    if cyl.depth != len(wit):
        raise ValueError(
            f"cylinder depth {cyl.depth} does not match witness length {len(wit)}"
        )
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
    x = tuple(-v for v in cyl.prefixes[-1])
    cells = 1
    for w in wit:
        cells *= w + 1
    value = Fraction(1, cells)
    return VerificationReport(
        claim="witness-prefix",
        status=FAIL,
        depth=d,
        lhs=value,
        rhs=Fraction(0),
        counterexample={"x": x, "measure": value},
        parameters={"window": windows, "budget": budget},
    )
