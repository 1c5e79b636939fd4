"""The three benchmark workloads: seeded inputs and the timed operations.

A workload is a *round*, a fixed list of operations that every run repeats.
Each operation has a kind.  Its *shape* (block length, depth, radii, number
of prefixes or points, translates scanned) is fixed by its slot in the
round; its *values* are drawn from the seed.  Every seed therefore gives
the same mix of costs, so the median and the 99th percentile of operation
time fall inside the same kind of operation from seed to seed (see
README.md for the mix of each workload and the kind that sets each).

`plan` works on plain ints, tuples and strings and never imports haarnull
or the standard modules it loads, so that importing haarnull can be timed
as part of set-up.  `build` turns a planned input into the program's own
objects through its public constructors; `call` is the timed operation.
"""

import random

# The shape table is part of each workload's definition, not of the seed.
SHAPE_SEED = 0

GATE_LIMIT = 10**6  # codes below this are the acceptance gate's range
GATE_CODES = 256  # consecutive codes in a gate-range block
HUGE_EXPONENTS = range(12, 30)  # a huge scan has one block in each [10**e, 10**(e+1))
HUGE_CODES = 96  # consecutive codes in each block of a huge scan
POINT_DEPTH = 8  # codes per point when a block goes through decode_point
GATE_BLOCKS = 98
HUGE_SCANS = 2

RESTRICT_NORMALIZE = 144
# Half of the restrict-normalize checks share this shape (radii, supports,
# prefixes), so that the median operation time sits inside a plateau of
# alike operations instead of on a slope of differently sized ones.
TYPICAL_RESTRICT_NORMALIZE = ((2, 2, 2), ((-2, -1, 0),) * 3, 4)
PREFIX_SCANS = 4  # depth 4, the costly scans
PREFIX_SHORT = 12  # depth 2 and 3
PREFIX_EMPTY = 4
PREFIX_OVER_BUDGET = 4
PREFIX_BUDGET = 10**5
SCAN_TRANSLATES = (340, 360)  # translates a depth-4 scan visits, inclusive
SHORT_TRANSLATES = {2: (3, 8), 3: (10, 20)}

SMALL_DATASETS = 150
SMALL_SHAPES = ((2, 16), (3, 32), (4, 48))  # (depth, points), in equal shares
LARGE_DATASETS = 4
CONTROLS = 4
LARGE_POINTS = 200
CONTROL_POINTS = 24
MAX_ARG_SIZE = 6  # sizes a(k) are drawn from 1..MAX_ARG_SIZE


# ---------------------------------------------------------------- codec-scan


def plan_codec(rng):
    ops = [
        ("gate-block", ((rng.randrange(GATE_LIMIT - GATE_CODES + 1), GATE_CODES),))
        for _ in range(GATE_BLOCKS)
    ]
    # Each huge scan visits every magnitude, so all of them cost alike.
    for _ in range(HUGE_SCANS):
        blocks = tuple(
            (rng.randrange(10**e, 10 ** (e + 1) - HUGE_CODES), HUGE_CODES)
            for e in HUGE_EXPONENTS
        )
        ops.append(("huge-scan", blocks))
    rng.shuffle(ops)
    return ops


def call_codec(hn, blocks):
    decode, encode = hn.decode, hn.encode
    decode_point, encode_point = hn.decode_point, hn.encode_point
    out = []
    for start, length in blocks:
        triples = [decode(m) for m in range(start, start + length)]
        codes = [encode(t.n, t.b, t.z) for t in triples]
        prefixes = [
            decode_point(tuple(range(m, m + POINT_DEPTH)))
            for m in range(start, start + length, POINT_DEPTH)
        ]
        out.append((triples, codes, prefixes, [encode_point(p) for p in prefixes]))
    return out


# ------------------------------------------------------------ witness-verify


def smoothing_size(n, radius):
    """The size rule of the construction, in the benchmark's own arithmetic."""
    return max(2 * radius + 1, (1 << (n + 2)) * radius)


def _coordinate(rng, support):
    """Integer weights on the support pattern, moved by a random shift."""
    shift = rng.randint(-3, 3)
    return {shift + z: rng.randint(1, 9) for z in support}


def _translates(witness, prefixes):
    """Window volume, and the translates a scan visits: the first one with
    positive mass is -max(prefixes), so this is its 1-based lex rank."""
    rank, volume = 0, 1
    top = max(prefixes)
    for n, w in enumerate(witness):
        lo = -max(s[n] for s in prefixes)
        hi = w - min(s[n] for s in prefixes)
        rank = rank * (hi - lo + 1) + (-top[n] - lo)
        volume *= hi - lo + 1
    return volume, rank + 1


def _prefix_instance(rng, depth, count, spread, accept):
    while True:
        witness = tuple(rng.randint(1, 3) for _ in range(depth))
        prefixes = tuple(
            tuple(rng.randint(-spread, w + spread) for w in witness)
            for _ in range(count)
        )
        if len(set(prefixes)) == count and accept(*_translates(witness, prefixes)):
            return witness, prefixes


def plan_witness(rng):
    shapes = random.Random(SHAPE_SEED)
    ops = []
    for i in range(RESTRICT_NORMALIZE):
        if i % 2:
            radii, supports, count = TYPICAL_RESTRICT_NORMALIZE
        else:
            depth = 1 + i // 2 % 6
            radii = [shapes.randint(0, 3) for _ in range(depth)]
            # Supports span [-r, 0] with each inner point present at random.
            supports = [
                [-r] + [z for z in range(1 - r, 0) if shapes.random() < 0.5] + [0] * (r > 0)
                for r in radii
            ]
            count = shapes.randint(1, 8)
        coords = [_coordinate(rng, support) for support in supports]
        witness = [smoothing_size(n, r) - r for n, r in enumerate(radii)]
        prefixes = tuple(
            tuple(rng.randint(-2, w + 2) for w in witness) for _ in range(count)
        )
        ops.append(("restrict-normalize", (coords, prefixes)))
    lo, hi = SCAN_TRANSLATES
    for _ in range(PREFIX_SCANS):
        w, s = _prefix_instance(rng, 4, 8, 2, lambda v, t: lo <= t <= hi)
        ops.append(("prefix-scan", (w, 4, s)))
    for i in range(PREFIX_SHORT):
        depth = 2 + i % 2
        lo2, hi2 = SHORT_TRANSLATES[depth]
        w, s = _prefix_instance(rng, depth, 4, 2, lambda v, t: lo2 <= t <= hi2)
        ops.append(("prefix-short", (w, depth, s)))
    for i in range(PREFIX_EMPTY):
        depth = 2 + i % 3
        w = tuple(rng.randint(1, 3) for _ in range(depth))
        ops.append(("prefix-empty", (w, depth, ())))
    for i in range(PREFIX_OVER_BUDGET):
        depth = 2 + i % 3
        w, s = _prefix_instance(rng, depth, 3, 500, lambda v, t: v > PREFIX_BUDGET)
        ops.append(("prefix-over-budget", (w, depth, s)))
    rng.shuffle(ops)
    return ops


def build_restrict_normalize(hn, raw):
    from fractions import Fraction

    coords, prefixes = raw
    spec, shifted = [], []
    for weights in coords:
        total = sum(weights.values())
        top = max(weights)
        spec.append(hn.FiniteMeasureZ({z: Fraction(v, total) for z, v in weights.items()}))
        shifted.append(
            hn.FiniteMeasureZ({z - top: Fraction(v, total) for z, v in weights.items()})
        )
    return (
        hn.ProductMeasureSpec(tuple(spec)),
        hn.ProductMeasureSpec(tuple(shifted)),
        hn.CylinderSet(len(coords), prefixes),
    )


def call_restrict_normalize(hn, inp):
    spec, shifted, cyl = inp
    trace = hn.synthesize_witness(spec)
    return trace, hn.verify_restrict_normalize(shifted, trace, cyl)


def build_prefix(hn, raw):
    witness, depth, prefixes = raw
    return witness, hn.CylinderSet(depth, prefixes)


def call_prefix(hn, inp):
    witness, cyl = inp
    return hn.is_witness_prefix(witness, cyl, budget=PREFIX_BUDGET)


# ---------------------------------------------------------------- eset-jsonl


def _graph_data(rng, depth, count, taken=()):
    seen = set(taken)
    data = []
    while len(data) < count:
        a = tuple(rng.randint(1, MAX_ARG_SIZE) for _ in range(depth))
        x = tuple(rng.randint(0, 1) for _ in range(depth))
        if (a, x) in seen:
            continue
        seen.add((a, x))
        data.append((a, x, tuple(rng.randint(0, ak) for ak in a)))
    return data


def _jsonl(data):
    def ints(v):
        return "[" + ", ".join(str(i) for i in v) + "]"

    return "".join(
        f'{{"a": {ints(a)}, "x": {ints(x)}, "g": {ints(g)}}}\n' for a, x, g in data
    )


def plan_eset(rng):
    ops = []
    for i in range(SMALL_DATASETS):
        depth, count = SMALL_SHAPES[i % len(SMALL_SHAPES)]
        data = _graph_data(rng, depth, count)
        ops.append(("small-dataset", (_jsonl(data), False, data)))
    for _ in range(LARGE_DATASETS):
        data = _graph_data(rng, 3, LARGE_POINTS)
        ops.append(("large-dataset", (_jsonl(data), False, data)))
    for i in range(CONTROLS):
        # A boundary pair: offset a + 1 in the b = 0 half sits one code below
        # offset 0 of the b = 1 half, in every coordinate.
        depth = 2 + i % 3
        a = tuple(rng.randint(1, MAX_ARG_SIZE) for _ in range(depth))
        low = (a, (0,) * depth, tuple(ak + 1 for ak in a))
        high = (a, (1,) * depth, (0,) * depth)
        data = [low, high] + _graph_data(
            rng, depth, CONTROL_POINTS - 2, taken=[low[:2], high[:2]]
        )
        rng.shuffle(data)
        ops.append(("boundary-control", (_jsonl(data), True, data)))
    rng.shuffle(ops)
    return ops


def call_eset(hn, inp):
    """What `haarnull eset build|gap|coinflip --output json` do after parsing."""
    import json

    text, allow_boundary = inp
    pairs = hn.load_graph_data(text.splitlines())
    labels = [f"line {lineno}" for lineno, _ in pairs]
    es = hn.build_encoded_set(
        [gd for _, gd in pairs], allow_boundary=allow_boundary, labels=labels
    )
    gap = hn.check_pairwise_gap(es)
    flip = hn.coinflip_bound(es)
    built = json.dumps(
        hn.serialization.jsonify(hn.eset.encoded_set_to_dict(es)),
        indent=2,
        sort_keys=True,
    )
    return es, gap, flip, built, gap.to_json(), flip.to_json()


# -------------------------------------------------------------------- tables

PLANS = {
    "codec-scan": plan_codec,
    "witness-verify": plan_witness,
    "eset-jsonl": plan_eset,
}


def _as_is(hn, raw):
    return raw


def _text_and_flag(hn, raw):
    return raw[:2]


# kind -> (build, call)
KINDS = {
    "gate-block": (_as_is, call_codec),
    "huge-scan": (_as_is, call_codec),
    "restrict-normalize": (build_restrict_normalize, call_restrict_normalize),
    "prefix-scan": (build_prefix, call_prefix),
    "prefix-short": (build_prefix, call_prefix),
    "prefix-empty": (build_prefix, call_prefix),
    "prefix-over-budget": (build_prefix, call_prefix),
    "small-dataset": (_text_and_flag, call_eset),
    "large-dataset": (_text_and_flag, call_eset),
    "boundary-control": (_text_and_flag, call_eset),
}
