"""Simulator and analysis toolkit for two-stage category-information
sampling over C1G2 RFID populations."""

from .analysis import (
    cost_ratio_limit,
    expected_protocol_bits,
    lower_bound_bits,
    mu,
    reliability_number,
    rho,
    seed_success_lower_bound,
    success_probability,
    success_probability_approx,
    transmission_time,
)
from .baselines import BaselineReport, run_random_select
from .errors import ConfigurationError, ProtocolError
from .hashing import (
    SeedSpec,
    find_suitable_seed,
    seed_trial_statistics,
)
from .harness import (
    ScenarioConfig,
    load_config,
    run_scenarios,
)
from .population import (
    Category,
    Population,
    generate_population,
)
from .protocol import (
    CoarseRound,
    RoundOutcome,
    build_frame,
    optc1_round,
    optc2_round,
    run_optc,
)
from .selgen import (
    ImplRoundResult,
    best_threshold,
    command_count,
    run_optc_impl,
    selgen_commands,
    selgen_filters,
)

__version__ = "0.1.0"
