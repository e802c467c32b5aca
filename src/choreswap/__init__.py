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
from .fairness import efx_factor, envy_report, hat_d
from .framework import FriendlyCertificate, run_framework, validate_certificate
from .market import mpb_price_feasibility
from .model import INFINITE, Allocation, Instance, generate_random, parse_instance
from .oracle import best_efx_factor, verify_trace
from .pipelines import (
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
    "FriendlyCertificate",
    "INFINITE",
    "Instance",
    "best_efx_factor",
    "efx_factor",
    "envy_report",
    "generate_random",
    "hat_d",
    "mpb_price_feasibility",
    "parse_instance",
    "run_framework",
    "search_pef1_mpb",
    "solve_2efx",
    "solve_4efx",
    "solve_bivalued",
    "solve_small_m",
    "validate_certificate",
    "validate_rounded_er",
    "verify_trace",
]
