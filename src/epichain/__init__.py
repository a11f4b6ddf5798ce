"""Age-of-infection epidemics: stochastic simulation, the deterministic
delay-equation limit, the Poisson dual tree, and conditioned backward chains,
built so each layer can be checked against the others.

The package exports the functions and constructors that its command line,
its acceptance suite and its benchmark call.  Result and internal types
(`LimitSolution`, `DualCurve`, `ChainBatch`, `GridDensity`, ...) live in
their modules."""

from .analysis import (
    ComparisonReport,
    histogram_from_density,
    histogram_from_samples,
    l1_histogram_distance,
)
from .backward_chain import (
    martingale_diagnostic,
    sample_h_chains,
    sample_h_first_steps,
    sample_renewal_chains,
    survival_representation_check,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    apply_overrides,
    parse_config,
    reference_scenario,
)
from .courses import MarkovSEIR, MarkovSIR
from .forward_sim import compartment_fraction, historical_measure, simulate
from .infection_graph import brute_force_infection_times
from .kernels import (
    ContactRate,
    ExponentialKernel,
    backward_density,
    initial_condition,
    malthusian_parameter,
)
from .limit_solver import (
    compartment_curve,
    final_size_settled_contact,
    picard_delay,
    solve_delay,
)
from .poisson_tree import conditioned_first_step, estimate_B, sample_geodesic, tree_params
from .rng import derive_seed, make_rng

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport", "histogram_from_density", "histogram_from_samples",
    "l1_histogram_distance",
    "martingale_diagnostic", "sample_h_chains", "sample_h_first_steps",
    "sample_renewal_chains", "survival_representation_check",
    "ConfigError", "ScenarioConfig", "apply_overrides", "parse_config",
    "reference_scenario",
    "MarkovSEIR", "MarkovSIR",
    "compartment_fraction", "historical_measure", "simulate",
    "brute_force_infection_times",
    "ContactRate", "ExponentialKernel", "backward_density", "initial_condition",
    "malthusian_parameter",
    "compartment_curve", "final_size_settled_contact", "picard_delay", "solve_delay",
    "conditioned_first_step", "estimate_B", "sample_geodesic", "tree_params",
    "derive_seed", "make_rng",
    "__version__",
]
