"""Exact-arithmetic mirror pipeline for log Calabi-Yau pairs.

Builds relative I-functions over finite graded algebras, normalizes them to
mirror maps and proper Landau-Ginzburg potentials, and verifies the period
identities coefficient by coefficient over the rationals.
"""

from .algebra import (
    AlgebraError,
    Element,
    GradedAlgebra,
    RestrictionMap,
    check_algebra,
    check_restriction,
    nilpotency_index,
    pairing_matrix,
    pairing_pushforward,
    sum_of_products,
)
from .geometry import (
    BUILTIN_CONFIGS,
    ConfigError,
    InvariantTable,
    MissingDataError,
    PairGeometry,
    attach_invariants,
    builtin_geometry,
    format_invariants,
    ingest_invariants,
    load_geometry,
    require_quantum_source,
    tabulate_one_point_invariants,
)
from .ifunctions import (
    CancellationError,
    MalformedMirrorMapError,
    MirrorChange,
    MirrorExponent,
    NormalizedI,
    RelativeSeries,
    StateSeries,
    composed_exponent,
    divisor_mirror_map,
    extract_mirror_exponent,
    inverse_coordinates,
    normalize_i,
    relative_i_function,
    substitute_forward,
    toric_i_function,
)
from .inversion import (
    BellReport,
    RoundtripReport,
    SimplePoleLaurent,
    bell_identity_check,
    compose,
    inversion_roundtrip,
    lagrange_inverse,
    potential_roundtrip,
)
from .periods import (
    EulerScalingReport,
    PeriodComparison,
    PeriodSeries,
    ProperPotential,
    classical_period,
    compare_periods,
    euler_scaling_check,
    proper_potential,
    quantum_period,
    regularize,
    roundtrip_for_geometry,
    shared_potential,
)
from .series import (
    NovikovSeries,
    PipelineInvariantError,
    TruncationError,
    TruncationPolicy,
    XLaurentSeries,
    ZLaurentElement,
    nilpotent_reciprocal,
)

__version__ = "0.1.0"
