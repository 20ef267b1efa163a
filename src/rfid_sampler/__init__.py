"""Simulator and analysis toolkit for two-stage category-information
sampling over C1G2 RFID populations."""

from .analysis import (
    TimingModel,
    cost_ratio_limit,
    expected_protocol_bits,
    lower_bound_bits,
    lower_bound_seconds,
    mu,
    reliability_number,
    rho,
    seed_success_lower_bound,
    success_probability,
    success_probability_approx,
)
from .baselines import BaselineReport, run_random_select
from .errors import ConfigurationError, ProtocolError
from .hashing import (
    SeedSpec,
    find_suitable_seed,
    hash_mod,
    is_suitable,
    seed_trial_statistics,
    substring_hash,
)
from .harness import (
    ScenarioConfig,
    load_config,
    run_scenarios,
    bounds_report,
    reliability_report,
)
from .population import (
    CategorySpec,
    Population,
    Tag,
    TagState,
    category_tags,
    generate_population,
    mark_missing,
)
from .protocol import (
    CostLedger,
    RoundOutcome,
    build_frame,
    optc1_round,
    optc2_round,
    run_optc,
)
from .selgen import (
    ImplRoundResult,
    SelectCommand,
    best_threshold,
    command_count,
    run_optc_impl,
    selgen_commands,
    selgen_filters,
)

__version__ = "0.1.0"
