"""Exact solvers and checkers for approximately envy-free chore division.

The library allocates indivisible chores to agents with additive
disutilities. A two-phase swap procedure turns any allocation carrying a
valid friendliness certificate into a lambda-EFX one; four pipelines
build such certificates (general 2-EFX, bivalued (2 - 1/k)-EFX + PO,
exact EFX for m <= 2n, and 4-EFX from a rounded market equilibrium).
All arithmetic is exact rational; independent brute-force oracles
cross-validate every claim at desk scale.
"""

from .errors import ChoreSwapError
from .fairness import (
    efx_factor,
    envy_report,
    hat_d,
    is_alpha_efk,
    is_alpha_efx,
    is_pefk,
    is_pefx,
    is_po_bruteforce,
)
from .framework import (
    FriendlyCertificate,
    SwapTrace,
    chore_swap,
    designated_chore,
    run_framework,
    validate_certificate,
)
from .market import (
    InfeasibilityCycle,
    is_mpb_allocation,
    mpb_price_feasibility,
    mpb_view,
    solve_ratio_system,
)
from .model import (
    INFINITE,
    Allocation,
    Instance,
    allocation_from_bundles,
    bundle_disutility,
    generate_random,
    parse_allocation,
    parse_distribution,
    parse_instance,
    parse_prices,
    parse_rational,
    serialize_allocation,
    serialize_instance,
    serialize_prices,
)
from .oracle import (
    best_efx_factor,
    generate_valid_certificate,
    verify_trace,
)
from .pipelines import (
    ErRoundedInput,
    Pef1Solution,
    SolveResult,
    search_pef1_mpb,
    solve_2efx,
    solve_4efx,
    solve_bivalued,
    solve_small_m,
    validate_rounded_er,
)

__all__ = [
    "Allocation",
    "ChoreSwapError",
    "ErRoundedInput",
    "FriendlyCertificate",
    "INFINITE",
    "InfeasibilityCycle",
    "Instance",
    "Pef1Solution",
    "SolveResult",
    "SwapTrace",
    "allocation_from_bundles",
    "best_efx_factor",
    "bundle_disutility",
    "chore_swap",
    "designated_chore",
    "efx_factor",
    "envy_report",
    "generate_random",
    "generate_valid_certificate",
    "hat_d",
    "is_alpha_efk",
    "is_alpha_efx",
    "is_mpb_allocation",
    "is_pefk",
    "is_pefx",
    "is_po_bruteforce",
    "mpb_price_feasibility",
    "mpb_view",
    "parse_allocation",
    "parse_distribution",
    "parse_instance",
    "parse_prices",
    "parse_rational",
    "run_framework",
    "search_pef1_mpb",
    "serialize_allocation",
    "serialize_instance",
    "serialize_prices",
    "solve_2efx",
    "solve_4efx",
    "solve_bivalued",
    "solve_ratio_system",
    "solve_small_m",
    "validate_certificate",
    "validate_rounded_er",
    "verify_trace",
]
