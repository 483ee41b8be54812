"""HEOM excitation-energy-transfer simulator for the 7-chromophore FMO
monomer, with pairwise CHSH nonlocality, concurrence and l1 coherence."""

from .analysis import (
    detect_sudden_death,
    dominant_pair,
    fret_interference_report,
    short_time_oracle,
    short_time_validation,
)
from .heom import (
    HEOMPropagator,
    IntegratorConfig,
    IntegratorStats,
    Trajectory,
    convergence_study,
)
from .hierarchy import enumerate_hierarchy, hierarchy_count
from .linalg import trace_distance
from .measures import (
    CorrelationTimeSeries,
    ReducedPairState,
    closed_form_measures,
    horodecki_M,
    nonlocality_B,
    pair_series,
    positivity_bound_check,
    reduce_pair,
    wootters_concurrence,
)
from .model import (
    ExcitonBasis,
    SystemParams,
    exciton_basis,
    fret_state,
    localized_state,
)

__version__ = "0.1.0"
