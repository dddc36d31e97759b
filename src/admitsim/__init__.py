"""Simulation and analytic solvers for admission markets with noisy signals."""

from .analytics import (
    ExperimentRecord,
    UtilityModel,
    compare_matchings,
    make_record,
    write_records_csv,
)
from .fixed_point import (
    AcceptanceEstimate,
    ConvergenceError,
    RankVector,
    SolverResult,
    estimate_acceptance,
    expected_accepted_mass,
    solve_general,
    solve_iid,
)
from .market import (
    ConfigurationError,
    MarketConfig,
    MarketInstance,
    SeededProposalPlan,
    SignalSpec,
    build_seeded_plan,
    child_seed,
    complete_instance,
    sample_market,
)
from .matching import (
    BlockingPair,
    InvalidMatchingError,
    Matching,
    RankProfile,
    continue_rejection_chains,
    find_blocking_pairs,
    match_rank_indices,
    rank_profile,
    school_proposing_da,
    student_proposing_da,
)
from .stable_partners import (
    StablePartnerReports,
    extra_stable_partner_reports,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceEstimate",
    "BlockingPair",
    "ConfigurationError",
    "ConvergenceError",
    "ExperimentRecord",
    "InvalidMatchingError",
    "MarketConfig",
    "MarketInstance",
    "Matching",
    "RankProfile",
    "RankVector",
    "SeededProposalPlan",
    "SignalSpec",
    "SolverResult",
    "StablePartnerReports",
    "UtilityModel",
    "build_seeded_plan",
    "child_seed",
    "compare_matchings",
    "complete_instance",
    "continue_rejection_chains",
    "estimate_acceptance",
    "expected_accepted_mass",
    "extra_stable_partner_reports",
    "find_blocking_pairs",
    "make_record",
    "match_rank_indices",
    "rank_profile",
    "sample_market",
    "school_proposing_da",
    "solve_general",
    "solve_iid",
    "student_proposing_da",
    "write_records_csv",
]

