"""Exact verifiers for witness-measure synthesis and encoded graph sets.

The package works entirely in rational arithmetic.  `measures` holds the
finitely supported measures, truncated product measures, and cylinder sets;
`witness` synthesizes witness sequences and verifies the flattening
identities; `codec` is the order-preserving integer triple codec; `eset`
builds encoded graph sets and checks their separation properties; `cli` is
the command line front end and `acceptance` the release gate.
"""

from .codec import (
    CodedTriple,
    PointPrefix,
    decode,
    decode_point,
    encode,
    encode_point,
    separation_gap,
)
from .eset import (
    DatasetError,
    EncodedSet,
    GraphDataParseError,
    GraphDatum,
    build_encoded_set,
    check_pairwise_gap,
    coinflip_bound,
    load_graph_data,
)
from .measures import (
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
from .report import BUDGET_EXCEEDED, FAIL, PASS, VerificationReport
from .witness import (
    DEFICIENCY_LOWER_BOUND,
    SynthesisTrace,
    choose_uniform_sizes,
    is_witness_prefix,
    shift_to_nonpositive,
    synthesize_witness,
    verify_restrict_normalize,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BUDGET_EXCEEDED",
    "CodedTriple",
    "CylinderSet",
    "DEFICIENCY_LOWER_BOUND",
    "DatasetError",
    "EncodedSet",
    "FAIL",
    "FiniteMeasureZ",
    "GraphDataParseError",
    "GraphDatum",
    "PASS",
    "PointMassTail",
    "PointPrefix",
    "ProductMeasureSpec",
    "SynthesisTrace",
    "UniformTail",
    "UnsupportedDepthError",
    "VerificationReport",
    "box_intersection_measure",
    "box_measure",
    "build_encoded_set",
    "check_pairwise_gap",
    "choose_uniform_sizes",
    "coinflip_bound",
    "convolve",
    "decode",
    "decode_point",
    "dirac",
    "encode",
    "encode_point",
    "is_witness_prefix",
    "lattice_points",
    "load_graph_data",
    "materialize",
    "measure_of",
    "separation_gap",
    "shift_to_nonpositive",
    "synthesize_witness",
    "translate_measure",
    "translate_set",
    "uniform",
    "uniform_product_spec",
    "verify_restrict_normalize",
]
