"""pdrkit: local spectra, predistance polynomials, and pseudo-distance-regularity.

A small numpy library (plus a CLI) for algebraic graph theory at desk
scale: per-vertex local spectra and orthogonal polynomial families,
pseudo-regular partitions, deciding pseudo-distance-regularity around each
vertex by two independent characterizations, and classifying graphs as
distance-regular, distance-biregular, or neither -- with every verdict
re-verified against exact integer counting oracles.
"""

from .graph_core import (
    Bipartition,
    ConnectivityError,
    Graph,
    Graph6Error,
    GRAPH6_MAX_N,
    NAMED_FAMILIES,
    UnsupportedSizeError,
    bipartition,
    distance_matrices,
    distances_from,
    enumerate_connected,
    generate_named,
    parse_graph6,
    serialize_graph6,
)
from .spectral import (
    DEFAULT_TOL,
    DEFAULT_WALK_CAP,
    GroupingAmbiguityError,
    LocalSpectrum,
    NumericalError,
    SpectralDecomposition,
    ToleranceConfig,
    adjacency_powers,
    crossed_multiplicity,
    decompose,
    integer_walk_count,
    local_spectrum,
    walk_count,
)
from .predistance import (
    IllConditionedMeasureError,
    Polynomial,
    PredistanceSystem,
    apply_poly_column,
    build_predistance,
    local_inner_product,
)
from .pdr import (
    Classification,
    GraphCheckResult,
    IntersectionArray,
    InternalCheckError,
    PartitionWitness,
    PdrVertexReport,
    QuotientMatrix,
    Violation,
    VERDICT_DISTANCE_BIREGULAR,
    VERDICT_DISTANCE_REGULAR,
    VERDICT_NOT_PDR,
    WALK_BIREGULAR,
    WALK_NEITHER,
    WALK_REGULAR,
    classify,
    combinatorial_intersection_array,
    perron_transform_consistency,
    is_pdr_around,
    pseudo_regular_check,
    verify_graph,
    verify_graphs,
    walk_formula_check,
    walk_regularity,
    weighted_distance_column,
)

from types import ModuleType as _ModuleType

__version__ = "0.1.0"
__all__ = sorted(name for name, obj in globals().items() if not (name.startswith("_") or isinstance(obj, _ModuleType)))
