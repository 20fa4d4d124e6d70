"""Stochastic matching models on multigraphs.

Items of compatible classes arrive one by one and are matched according to a
policy; self-loops allow within-class matches.  The package provides the
compatibility-structure algebra, stability-region computations, exact
product-form stationary analysis under first-come-first-matched, simulation
under all supported policies, reversibility diagnostics via the detailed
pair-tracking chains, and exact Lyapunov drift verification.
"""

from .graphs import BlowupMap, GraphError, Multigraph
from .measures import (
    MeasureError,
    NcondReport,
    ProbMeasure,
    extend_measure,
    mu_deg,
    ncond_check,
    reduce_measure,
)
from .policies import (
    Fcfm,
    Lcfm,
    MaxWeight,
    Policy,
    PolicyError,
    Priority,
    RandomPolicy,
    V2Favorable,
    decide,
    decision_distribution,
    extend_policy,
    match_the_longest,
    match_the_shortest,
    policy_dumps,
    policy_loads,
    reduce_policy,
    validate_policy,
)
from .chain import (
    ChainError,
    SimulationResult,
    enumerate_states,
    is_admissible_word,
    kernel_row,
    predecessors,
    simulate,
    stability_slope,
    step,
)
from .stationary import (
    ProductFormDistribution,
    StationaryError,
    alpha,
    balance_residual,
    finite_stationary,
    product_form,
    solve_finite_chain,
)
from .detailed import (
    DetailedError,
    Excursion,
    ExcursionReport,
    LocalBalanceReport,
    alpha_inverse_from_blocks,
    analyze_excursions,
    backward_step,
    excursion_decompose,
    is_admissible_backward,
    nu,
    nu_block_mass,
    partner_inverse,
    partner_map,
    reverse_copy,
)
from .drift import (
    DriftError,
    DriftReport,
    Linear,
    PpartiteReport,
    Quadratic,
    WeightedLinear,
    exact_drift,
    ldelta,
    verify_linear_chain,
    verify_ppartite_bound,
    verify_quadratic_identity,
)

__version__ = "0.1.0"
