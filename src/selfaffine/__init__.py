"""Expansion, density, and attractor diagnostics for self-affine pairs (B, D).

A pair couples an expanding matrix B with a finite digit set D containing 0.
The library enumerates level-k digit expansions with multiplicities, runs
exact sliding-window density scans (Beurling upper/lower), estimates
Lebesgue and Hausdorff measures through reciprocal density theorems,
rasterizes attractors, and provides closed forms for the two-digit Cantor
family N K = K + {0, d}.
"""
__version__ = "0.1.0"

import types

from .attractor import (
    LABEL_BOUNDARY,
    LABEL_INCONCLUSIVE,
    LABEL_INTERIOR,
    VERDICT_CONSISTENT,
    VERDICT_FAILS,
    VERDICT_UNDETERMINED,
    LebesgueEstimate,
    OriginReport,
    OscReport,
    RasterGrid,
    classify_origin,
    invariant_radius,
    osc_verdict,
    raster_attractor,
    render_raster,
)
from .beurling import (
    DensityEstimate,
    MeasureResult,
    WindowEntry,
    WindowSchedule,
    lebesgue_from_density,
    lower_density_profile,
    natural_schedule,
    rescale_points,
    trend_divergent,
    upper_density_profile,
)
from .cantor import (
    CantorPair,
    cantor_hausdorff,
    cantor_sdensity_sequence,
    count_upto,
    interval_count,
    translation_dominance_check,
)
from .errors import (
    DEFAULT_CAP,
    BudgetExceeded,
    DimensionMismatch,
    DuplicateDigit,
    EmptyPointSet,
    InvalidCoefficient,
    MissingZeroDigit,
    NoTrustedLowerEntry,
    NotACollision,
    NotATileCandidate,
    NotExpanding,
    NotInvertible,
    ParseError,
    ResolutionTooSmall,
    SelfAffineError,
    SingularMatrix,
    UnsupportedDimension,
    UnsupportedRegime,
)
from .expansion import (
    CollisionWitness,
    ExpansionReport,
    analyze_expansion,
    collision_witness,
    expand_level,
    expand_levels,
)
from .pairs import (
    REGIME_FRACTAL,
    REGIME_OVERFULL,
    REGIME_TILE,
    DigitSet,
    ExpandingMatrix,
    SelfAffinePair,
    SimilarityInfo,
    detect_similarity,
    validate_pair,
)
from .pointset import (
    MERGE_TOL,
    WeightedPointSet,
    prefix_weights,
    weight_in_interval,
)
from .sdensity import (
    ChaosGame,
    MeasureSample,
    RenormCheck,
    SDensityEntry,
    SDensityEstimate,
    check_renormalization,
    discrete_convolve,
    hausdorff_from_sdensity,
    interval_value,
    natural_thresholds,
    sample_self_similar_measure,
    upper_s_density_profile,
)

# the CLI module imports __version__, so it must come last
from .cli import main, parse_pair_spec, render_pair_spec

# the public names imported above, not the submodules
__all__ = [n for n, v in vars().items() if n[0] != "_" and not isinstance(v, types.ModuleType)]
