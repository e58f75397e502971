"""Adaptively preconditioned gradient methods over block-structured
parameter spaces, plus a numerical audit suite for the trace inequalities
and convergence bounds that govern them."""

from .block_space import (
    BlockShape,
    Geometry,
    ProductPoint,
    product_dual_norm_sq,
    total_dim,
)
from .errors import (
    AdprecError,
    InvalidConfig,
    NonFiniteIterate,
    NonPositiveDefinite,
    ShapeMismatch,
)
from .geometries import (
    GeometryDiagnostics,
    geom_accumulate,
    geom_diagnostics,
    geom_dual_norm,
    geom_init,
    geom_lmap_trace,
    geom_precondition,
    geom_selector,
)
from .optimizer import (
    IterationRecord,
    MomentumMode,
    OptimizerConfig,
    adprec_step,
    mu_schedule,
    run_replicates,
    run_rows,
    run_trajectory,
    step_record,
)
from .problems import (
    NoiseKind,
    NoiseModel,
    NormalStreams,
    Problem,
    make_problem,
    sample_gradient,
)
from .psd_linalg import (
    msign,
    nuclear_norm,
    psd_power,
    random_psd,
    trace_log_psd,
)

__version__ = "0.1.0"
