"""Exact symbolic toolkit for Zelevinsky segments and multisegments,
highest-derivative-partition strata, Grothendieck-group derivative
identities, and invariant-ring presentations of stratum components.
"""

from types import ModuleType as _ModuleType

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
    CuspidalLabel,
    CuspidalLine,
    Relation,
    Segment,
    relate,
    top_minus,
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
    multisegment_to_orbit,
    point_to_multisegment,
    ring_presentation,
    tangent_dim,
)

# The submodules are bound here by the imports above; they are not exports.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
