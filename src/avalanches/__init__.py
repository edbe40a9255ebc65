"""Exact avalanche-size distributions with cross-validating simulators.

Three routes to the same laws: closed-form exact pmfs, exhaustive
enumeration of two concrete stochastic models (balls in urns, products of
cyclic towers), and seeded Monte Carlo.  The combinatorial identity tying
them together is verified directly against a labeled-tree census.
"""

from .combinatorics import (
    Composition,
    TreeCensus,
    cascade_weight,
    compositions,
    forest_identity_lhs,
    forest_identity_ordered_sum,
    identity_lhs,
    identity_rhs,
    induction_step_check,
    multinomial,
    tree_census,
)
from .distributions import (
    AvalancheParams,
    LimitParams,
    Pmf,
    abelian_mean_closed_form,
    abelian_pmf,
    avalanche_pmf,
    avalanche_prob,
    conditional_pmf,
    expectation_identity_check,
    limit_pmf,
    local_maxima,
    pmf_mean,
    powerlaw_slope,
    tail_log_ratio,
)
from .errors import DegenerateInputError, DomainError, ResourceLimitError
from .sampling import SimResult, SplitMix64, derive_stream, mix64
from .stats import GofReport, chi_square_gof, empirical_pmf, mean_ci, tv_distance
from .towers import (
    CoordinateTower,
    TowerSystem,
    avalanche_pmf_general,
    avalanche_size,
    avalanche_trace,
    make_tower_system,
    simulate_tower,
    tower_pmf_bruteforce,
)
from .urn import UrnConfig, simulate_urns, urn_pmf_bruteforce, urn_pmf_formula, urn_statistic

__version__ = "0.1.0"
