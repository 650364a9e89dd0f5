"""Particle solver for the Monge-Kantorovich optimal transport problem.

Two sample sets are coupled by integrating an ODE on the paired particles:
each side descends the transport cost while a cluster-local conditional
expectation term keeps its own marginal (approximately) fixed.  The
stationary pairing estimates the optimal coupling, and with it the
squared transport distance and the Monge map.
"""

from .applications import (
    ImageSamples,
    PairedMap,
    color_transfer,
    distance_matrix,
    evaluate_map,
    fit_paired_map,
    image_to_point_samples,
)
from .core import (
    ESTIMATOR_CONSTANT,
    ESTIMATOR_LINEAR,
    KIND_CUSTOM,
    KIND_L2,
    STEPPER_EULER,
    STEPPER_RK4,
    CostModel,
    ParticleEnsemble,
    SolverConfig,
    StepDiagnostics,
    custom_cost_model,
    l2_cost_model,
    new_ensemble,
)
from .diagnostics import (
    MomentSummary,
    cross_correlation,
    marginal_drift,
    moment_summary,
    spd_margin,
    transport_cost,
)
from .dynamics import (
    TERM_COST_BELOW_GAMMA,
    TERM_MAX_STEPS,
    TERM_STAGNATED,
    RunResult,
    ocd_velocity,
    run,
)
from .emd import DiscreteCoupling, emd, joint_distance
from .epsilon import (
    ClusterReport,
    EpsilonCritResult,
    SweepRow,
    auto_epsilon,
    cluster_curve,
    count_clusters,
    default_epsilon_grid,
    epsilon_crit,
    epsilon_max,
    epsilon_rule_of_thumb,
    epsilon_sweep,
)
from .errors import (
    AllZeroImage,
    CurveTooShort,
    DegenerateEnsemble,
    DimensionMismatch,
    EmptyInput,
    EmptyQuery,
    InvalidConfig,
    NoFeasibleEpsilon,
    NonFiniteInput,
    NonFiniteResult,
    NonFiniteState,
    OcdError,
    ParseError,
    ShapeMismatch,
    SingularCovariance,
    SizeGuardExceeded,
)
from .gaussian import (
    GaussianPair,
    gaussian_ot_optimum,
    integrate_riccati,
    kappa_closed_form,
    riccati_rhs,
    riccati_stationary_point,
)
from .io import (
    RunManifest,
    read_manifest,
    read_pgm,
    read_ppm,
    read_samples_csv,
    write_diagnostics_jsonl,
    write_manifest,
    write_pairs_csv,
    write_pgm,
    write_ppm,
    write_samples_csv,
    write_sweep_csv,
)
from .neighbors import (
    SpatialIndex,
    build_index,
    cluster_count_csr,
    neighbor_csr,
)
from .samplers import (
    sample_banana,
    sample_funnel,
    sample_normal,
    sample_softmax_pushforward,
    sample_swiss_roll,
    softmax_map,
)

__version__ = "0.1.0"
