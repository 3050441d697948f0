"""Rational-slope Dyck paths, sweep maps, invariant subsets, gluing, and q,t series."""

from .errors import (
    AboveDiagonal,
    DomainError,
    EmptyInput,
    FormulaMismatch,
    Infeasible,
    InvalidColoring,
    InvalidGraph,
    InvalidSkeleton,
    InvariantViolation,
    LimitExceeded,
    MalformedPath,
    NoIntersection,
    NotBalanced,
    NotCoprimeCase,
    NotNormalized,
)
from .lattice import (
    DyckPath,
    GridParams,
    area,
    bizley_count,
    enumerate_paths,
    parse_path,
    staircase_path,
    step_ranks,
    subdiagonal_box_count,
)
from .sweep import dinv_armleg, dinv_sweep, zeta
from .invset import (
    CorePartition,
    InvariantSet,
    ResidueComponent,
    Skeleton,
    cogenerators_m,
    core_partition,
    d_quotient,
    decompose,
    dinv_invset,
    gap,
    gaps,
    generators_n,
    invset_from_generators,
    invset_from_path_coprime,
    invset_from_skeleton,
    map_D_coprime,
    map_G,
    skeleton,
)
from .equiv import (
    LabeledDigraph,
    ShiftBounds,
    build_graph,
    canonical_form,
    min_gap_in_class,
    minimal_representative,
    minimal_shifting,
    shift_bounds,
)
from .glue import (
    ColoredPath,
    PeriodicPath,
    glue_all,
    glue_once,
    good_intervals,
    periodic_from_skeleton,
    unglue,
    window_skeleton,
)
from .series import (
    C_series,
    F_series,
    QTPoly,
    QTSeries,
    count_equivalence_classes,
    enumerate_invsets_by_gap,
    fuss_catalan,
    qt_catalan,
    springer_poincare,
)

__version__ = "0.1.0"
