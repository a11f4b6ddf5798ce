"""Age-of-infection epidemics: stochastic simulation, the deterministic
delay-equation limit, the Poisson dual tree, and conditioned backward chains,
built so each layer can be checked against the others."""

from .analysis import (
    ComparisonReport,
    Histogram,
    histogram_from_density,
    histogram_from_samples,
    ks_distance,
    l1_histogram_distance,
)
from .backward_chain import (
    ChainBatch,
    MartingaleReport,
    SurvivalReport,
    martingale_diagnostic,
    reweighted_first_steps,
    sample_h_chains,
    sample_h_first_steps,
    sample_renewal_chains,
    survival_representation_check,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    emit_config,
    load_config,
    parse_config,
    reference_scenario,
)
from .courses import (
    CourseBatch,
    CourseModel,
    MarkovSEIR,
    MarkovSIR,
    PoissonCourse,
    empirical_tau,
)
from .densities import GridDensity
from .forward_sim import (
    HistoricalSummary,
    SimulationOutput,
    compartment_fraction,
    historical_measure,
    simulate,
)
from .infection_graph import InfectionGraph, brute_force_infection_times
from .kernels import (
    ContactRate,
    ExponentialKernel,
    InitialCondition,
    IntensityKernel,
    LatentExponentialKernel,
    TabulatedKernel,
    backward_density,
    bar_tau,
    initial_condition,
    malthusian_parameter,
)
from .limit_solver import (
    LimitSolution,
    PicardResult,
    compartment_curve,
    final_size_settled_contact,
    picard_delay,
    solve_delay,
)
from .poisson_tree import (
    DualCurve,
    FirstStepSample,
    TreeParams,
    conditioned_first_step,
    estimate_B,
    sample_geodesic,
    tree_params,
)
from .rng import derive_seed, make_rng

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport", "Histogram", "histogram_from_density",
    "histogram_from_samples", "ks_distance", "l1_histogram_distance",
    "ChainBatch", "MartingaleReport", "SurvivalReport",
    "martingale_diagnostic", "reweighted_first_steps", "sample_h_chains",
    "sample_h_first_steps", "sample_renewal_chains", "survival_representation_check",
    "ConfigError", "ScenarioConfig", "apply_overrides", "emit_config",
    "load_config", "parse_config", "reference_scenario",
    "CourseBatch", "CourseModel", "MarkovSEIR", "MarkovSIR", "PoissonCourse",
    "empirical_tau",
    "GridDensity",
    "HistoricalSummary", "SimulationOutput", "compartment_fraction",
    "historical_measure", "simulate",
    "InfectionGraph", "brute_force_infection_times",
    "ContactRate", "ExponentialKernel", "InitialCondition", "IntensityKernel",
    "LatentExponentialKernel", "TabulatedKernel", "backward_density", "bar_tau",
    "initial_condition", "malthusian_parameter",
    "LimitSolution", "PicardResult", "compartment_curve", "final_size_settled_contact",
    "picard_delay", "solve_delay",
    "DualCurve", "FirstStepSample", "TreeParams", "conditioned_first_step",
    "estimate_B", "sample_geodesic", "tree_params",
    "derive_seed", "make_rng",
    "__version__",
]
