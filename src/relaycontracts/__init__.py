"""Incentive-compatible contract menus and budgeted relay selection for OFDM links."""

from .contracts import (
    ContractMenu,
    ContractPair,
    MenuAudit,
    first_best_contract,
    first_best_menu,
    information_rent,
    menu_to_csv,
    relay_utility,
    second_best_menu,
    select_best_contract,
    snr_to_db,
    verify_menu,
)
from .distributions import (
    DistributionKind,
    TypeDistribution,
    TypeGrid,
    quantize_types,
    sample_type_vector,
    type_probabilities,
)
from .selection import (
    OfferMatrix,
    SelectionMethod,
    SelectionProblem,
    SelectionResult,
    best_snr_baseline,
    capacity,
    exhaustive_optimum,
    knapsack_01,
    offers_from_csv,
    offers_to_csv,
    overall_heuristic,
    relaxed_upper_bound,
    selection_to_csv,
    sscpa,
    total_spend,
    weight_profile,
    weighted_split_selection,
)
from .simulate import (
    ExperimentConfig,
    Information,
    MenuKind,
    MetricsRow,
    MetricsTable,
    RoundResult,
    Table3Row,
    accepted_offers,
    broadcast_menu,
    efficient_offers,
    reproduce_table3,
    run_experiment,
    simulate_round,
    table3_to_csv,
)

__version__ = "0.1.0"
