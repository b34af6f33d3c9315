"""Ordinal fair division under diminishing and increasing differences.

Relation checkers for eight bundle set-extensions, fairness and efficiency
verdicts with checkable certificates, constructive allocation protocols,
brute-force validation oracles, an exact-3-cover hardness-reduction
generator, and a Monte-Carlo existence-probability experiment.
"""

from .core import (
    Allocation,
    Instance,
    ItemKind,
    MultiBundle,
    Ranking,
    UtilityFunction,
    borda_utility,
    classify_dd,
    classify_id,
    lexicographic_utility,
)
from .exceptions import (
    BudgetExceededError,
    ExtensionKindMismatchError,
    UnsupportedExtensionError,
)
from .extensions import (
    RelationKind,
    holds,
    ndd_generator_oracle,
    refuting_utility,
    sampled_utility_refuter,
)
from .fairness import (
    Criterion,
    FairnessVerdict,
    check_envy_free,
    check_pareto,
    check_proportional,
)
from .protocols import (
    ExistenceReport,
    Reason,
    balanced_round_robin,
    certificate_holds,
    hall_violation_holds,
    necpr_exists,
    nddpr_exists,
    nidpr_necessary,
    nidpr_three_agents_special,
    nidpr_two_agents,
    pddpr_exists,
    pospr_exists,
)
from .reductions import X3CInstance, nddef_search_reduced, reduce_x3c, solve_x3c
from .search import (
    AllocationGoal,
    enumerate_allocations,
    exists_allocation,
    pddef_witness_search,
)
from .simulate import SimConfig, full_grid_config, generate_profile, run_experiment

__all__ = [
    "Allocation",
    "AllocationGoal",
    "BudgetExceededError",
    "Criterion",
    "ExistenceReport",
    "ExtensionKindMismatchError",
    "FairnessVerdict",
    "Instance",
    "ItemKind",
    "MultiBundle",
    "Ranking",
    "Reason",
    "RelationKind",
    "SimConfig",
    "UnsupportedExtensionError",
    "UtilityFunction",
    "X3CInstance",
    "balanced_round_robin",
    "borda_utility",
    "certificate_holds",
    "check_envy_free",
    "check_pareto",
    "check_proportional",
    "classify_dd",
    "classify_id",
    "enumerate_allocations",
    "exists_allocation",
    "generate_profile",
    "hall_violation_holds",
    "holds",
    "lexicographic_utility",
    "nddef_search_reduced",
    "necpr_exists",
    "nddpr_exists",
    "ndd_generator_oracle",
    "nidpr_necessary",
    "nidpr_three_agents_special",
    "nidpr_two_agents",
    "full_grid_config",
    "pddef_witness_search",
    "pddpr_exists",
    "pospr_exists",
    "reduce_x3c",
    "refuting_utility",
    "run_experiment",
    "sampled_utility_refuter",
    "solve_x3c",
]
