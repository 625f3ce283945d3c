"""Constant-round distributed dominating-set approximation workbench.

Building blocks: immutable labeled graphs, a deterministic synchronous
executor for per-vertex local rules, exact subset-domination oracles, a
planarity predicate, the 5-round nomination algorithm (A), the
error-tolerant composition (B), seeded graph generators, and an experiment
harness with a CLI.
"""
from .composition import (
    BConfig,
    BRunResult,
    ErrorSetReport,
    algorithm_b,
    detection_algorithm,
    error_report,
    error_set,
    linear_control,
    parse_control,
    repair_step,
    t_error_set,
)
from .domination import (
    DEFAULT_BUDGET,
    all_minimum_dominating_sets,
    best_minimum_dominating_set,
    mds_size,
    minimum_dominating_set,
    strictly_dominated,
    verify_domination,
)
from .errors import (
    EnumerationBudgetError,
    InputError,
    InvariantError,
    LocalMdsError,
    RuleError,
)
from .generators import FAMILIES, GeneratorSpec, generate
from .graph import (
    BallView,
    LabeledGraph,
    VertexSet,
    ball,
    components,
    distances,
    neighborhood,
    ranked_form,
    read_edge_list,
    read_vertex_set,
    weak_diameter,
    write_edge_list,
    write_vertex_set,
)
from .harness import (
    RunReport,
    aggregate,
    distance3_lower_bound,
    experiment,
    run_cell,
    write_csv,
)
from .nomination import (
    ALGORITHM_A,
    ALPHA,
    K_UNIFORM,
    ROUNDS,
    ARunResult,
    NominationDecision,
    UniformityCheck,
    algorithm_a,
    algorithm_a_run,
    check_uniformity,
    validate_nominations,
)
from .planarity import PLANAR, ClassPredicate, is_planar
from .runtime import LocalAlgorithm, RoundLedger, run_by_messages, run_by_views

__version__ = "0.1.0"
