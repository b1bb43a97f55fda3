"""Exact symbolic toolkit for Zelevinsky segments and multisegments,
highest-derivative-partition strata, Grothendieck-group derivative
identities, and invariant-ring presentations of stratum components.
"""

from .errors import (
    BudgetExceededError,
    InputError,
    ShapeError,
    StrataKitError,
    WeightMismatchError,
    WraparoundError,
)
from .partitions import (
    Partition,
    add,
    conjugate,
    dominance_leq,
    enumerate_partitions,
    whittaker_support,
)
from .segments import (
    EMPTY_SEGMENT,
    CuspidalLabel,
    CuspidalLine,
    EmptySegment,
    Relation,
    Segment,
    SegmentLike,
    linked,
    relate,
    top_minus,
    union_and_intersection,
)
from .multisegments import (
    InertialClass,
    Multisegment,
    Poset,
    degenerates_to,
    degree,
    downset,
    elementary_reductions,
    enumerate_with_support,
    inertial_class,
    lambda_of,
    mw_dual,
)
from .kgroup import (
    DerivativeExpr,
    GradedVirtual,
    ProductExpr,
    SumExpr,
    Verdict,
    ZClass,
    check_identity,
    expand,
    lemcomp_derivative,
    resolve_pair,
    total_derivative,
    weirdcase_constituents,
)
from .strata import (
    BlockSpec,
    InvariantRingPresentation,
    Orbit,
    StratumReport,
    classification_partition,
    components,
    ext_dimensions,
    in_stratum,
    multisegment_to_orbit,
    point_to_multisegment,
    ring_presentation,
    tangent_dim,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
