"""Offline evaluation and optimization of slate-recommendation policies."""

__version__ = "0.1.0"

from .diagnostics import (
    OverlapProfile,
    bernstein_bound,
    check_translation,
    compute_rho,
    compute_rho_bar,
    compute_sigma_sq,
    kappa_of,
    overlap_profile,
)
from .errors import (
    AbsoluteContinuityError,
    ConfigurationError,
    ContextLookupError,
    ParseError,
    SlateError,
    UndefinedEstimateError,
)
from .estimators import (
    EstimatorReport,
    RewardModel,
    estimate_dm,
    estimate_ips,
    estimate_onpolicy,
    estimate_pi,
    estimate_sb,
    estimate_wips,
    estimate_wsb,
    exact_policy_value,
    fit_dm,
)
from .letor import GeneratorConfig, RankingDataset, generate_synthetic, parse_letor, write_letor
from .logs import (
    LoggedBatch,
    LoggedExample,
    SemibanditExample,
    read_logged_dataset,
    write_logged_dataset,
)
from .moments import (
    MomentMatrix,
    MomentRecord,
    PinvSource,
    PseudoInverse,
    moment_matrix,
    pinv_numeric,
    pinv_uniform_cartesian,
    pinv_uniform_ranking,
)
from .optimization import (
    DecomposedTargets,
    PointwiseScorer,
    decompose,
    evaluate_learned,
    fit_scorer,
    fit_sup_scorer,
    greedy_slate,
)
from .policies import (
    DeterministicPolicy,
    ExplicitPolicy,
    MultinomialWoRPolicy,
    Policy,
    UniformMixturePolicy,
    UniformPolicy,
    load_explicit_policy,
)
from .simulation import (
    BanditInstance,
    ExperimentConfig,
    build_instance,
    draw_logs,
    run_rmse_sweep,
)
from .spaces import Slate, SlateSpace, SpaceKind
