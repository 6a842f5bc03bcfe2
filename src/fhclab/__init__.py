"""fhclab: a desk-scale laboratory for frequently hypercyclic vectors.

Certify the hypercyclicity criterion for concrete unbounded operators,
schedule positive-lower-density visit sets, materialize the orbit vector,
and verify the proof's quantitative bounds numerically.
"""

from .spaces import (
    SequenceSpace,
    HardyModel,
    CkModel,
    HalfLineC0,
    L2,
    C0_SEQ,
    HARDY,
    C0_PLUS,
    SparseVector,
    PolySeries,
    PiecewiseLinearFn,
    enumerate_targets,
    linear_combine,
    accumulate,
    distance,
)
from .density_partition import (
    PairKey,
    PartitionSchedule,
    build_schedule,
)
from .operators import (
    WeightedBackwardShift,
    Differentiation,
    TranslationGenerator,
    OperatorCertificate,
    make_certificate,
    apply_forward,
    apply_inverse,
    right_inverse_identity_check,
    forward_extinction_index,
    transform_power,
    transform_rotation,
    transform_inverse,
)
from .criterion import (
    CertificationError,
    ThresholdRecord,
    TailCertificate,
    tail_norm,
    compute_thresholds,
    unconditional_probe,
)
from .constructor import (
    FhcPlacement,
    proximity_bound,
    assign_placements,
    materialize,
    orbit_parts,
    orbit_eval,
)
from .verifier import (
    OrbitReport,
    density_proxy,
    discrete_report,
    continuity_window,
    continuous_visits,
    report_export,
    report_import,
)
from .regularized_semigroup import (
    IdentityMultiplier,
    DiagonalDecayMultiplier,
    RegularizedSemigroup,
    w_apply,
    semigroup_law_residual,
    generator_residual,
    imc_norm,
    SolutionOrbit,
)

__version__ = "0.1.0"
