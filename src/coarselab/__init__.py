"""coarselab: finite-scale experiments in coarse geometry.

Exact metric models (lattices, the rank-2 free group, the rooted binary
tree, metric cones), scale-qualified certifiers for coarse-map
properties, semigroup orbit analysis with coarse-fixed-point detection,
the binary odometer with its boundary dynamics, and a CLI experiment
runner.
"""

__version__ = "0.1.0"

from .actions import (
    ActionSpec,
    CycleDetection,
    NotRecurrentVerdict,
    OrbitRecord,
    RecurrenceCertificate,
    boundary_moves_witness,
    detect_coarse_fixed_point_finite,
    detect_coarse_fixed_point_isometry,
    isometry_orbit_lipschitz,
    orbit,
    verify_coarse_action,
    verify_boundary_witness,
)
from .coarse import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    CoarseReport,
    HigsonDefectTable,
    bornologous_profile,
    closeness_bound,
    higson_defect,
    properness_table,
)
from .cone import (
    ConeGrid,
    ConeSpace,
    LambdaFunction,
    compactification_diagnostic,
    cone_distance_lower,
    cycle_graph,
    geometric_heights,
    lambda_length,
    load_edge_list,
)
from .odometer import (
    BoundaryWord,
    DyadicDistance,
    GromovProduct,
    boundary_distance,
    density_experiment,
    gromov_product,
    minimality_witness,
    odometer_power,
    odometer_step,
    odometer_step_boundary,
)
from .spaces import (
    BallSpec,
    BinaryTreeSpace,
    CapExceeded,
    FreeGroupSpace,
    LatticeSpace,
    ModelMismatch,
    Space,
    enumerate_reduced_words,
    reduce_word,
    word_inverse,
    word_metric_bfs_oracle,
    word_multiply,
)

__all__ = [name for name in dir() if not name.startswith("_")]
