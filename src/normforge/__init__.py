"""normforge: design and simulation toolkit for reputation-based sharing
protocols in peer-to-peer networks.

The library computes stationary reputation distributions, verifies protocol
sustainability against one-shot deviations, solves the optimal-design
problems over thresholds / connections / forgiveness / altruist deployment,
and cross-validates everything against a seeded agent-based simulator.
"""

from .model import (
    NetworkEnv,
    PeerKind,
    Points,
    ProtocolParams,
    error_punish_prob,
)
from .stationary import (
    ReputationDistribution,
    stationary_closed_form,
    stationary_fixed_point,
    stationary_for_regime,
    transition_matrix,
)
from .incentives import (
    IncentiveReport,
    UtilityProfile,
    check_equilibria,
    check_equilibrium,
    collapsed_social_utility,
    existence_cost_threshold,
    existence_discount_threshold,
    max_altruist_fraction,
    max_connections,
    max_forgiveness,
    min_service_threshold,
    one_period_utilities,
    overall_utilities,
    social_utility,
    upload_cost_profile,
)
from .designer import (
    DesignResult,
    DesignSpec,
    solve,
    solve_osne,
    solve_osne_ah,
    solve_osne_vp,
    solve_osne_vps,
)
from .sim import (
    DeviantPolicy,
    SimConfig,
    SimTrace,
    measure_deviation_gain,
    run_replicas,
    run_sim,
    run_tft,
    sustained,
    tft_sustainable,
)

__version__ = "0.1.0"
