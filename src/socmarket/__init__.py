"""Self-organized-critical market model on directed trade networks.

Agents on a directed supplier/customer graph optimize production and
consumption under a budget constraint; each trading day the least
profitable agent cuts its price.  The package builds the networks, runs
the extremal dynamics (with an incremental evaluation engine for long
runs), and extracts the critical statistics: avalanche size/duration
distributions, loser-jump distances, and the deflation rate.
"""

__version__ = "0.1.0"

from .errors import ConfigError
from .topology import (ExpenditureMatrix, TradeNetwork, assign_weights_fixed,
                       assign_weights_uniform, build_corner_lattice,
                       build_er_embedded, build_f_lattice, build_manhattan,
                       build_ring)
from .market import evaluate_market
from .dynamics import (MarketEngine, RunRecord, SimConfig, Simulation,
                       affected_sets, find_loser, load_checkpoint, run,
                       save_checkpoint)
from .analysis import (MFBP_TAU_S, AvalancheEvent, BinnedDistribution,
                       PowerLawFit, avalanche_exponents, extract_avalanches,
                       fit_decay_rate, fit_power_law, fit_power_law_mle,
                       gamma_st, jump_distances, log_bin, loser_jump_stats,
                       predicted_decay_rate, sample_discrete_power_law,
                       scaling_relation_residual, stationary_profit_quantile,
                       threshold_scan, track_activity)
