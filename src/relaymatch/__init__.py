"""Satisfaction-aware many-to-many relay selection for multi-radio UAV
networks: capacity model, matching game utilities, potential-matching and
baseline solvers, and a reproducible experiment harness."""

__version__ = "0.1.0"

from .errors import ConfigurationError, EnumerationLimitError
from .radio import (AIR_TO_AIR, LOS_2GHZ, PATH_LOSS_PRESETS, LinkGainTable,
                    PathLossModel, RelayNode,
                    RelayRadio, SourceNode, Topology, TopologyParams,
                    af_capacity, build_capacity_table, build_gain_table,
                    generate_topology, load_topology, noise_power, path_gain,
                    save_topology, snr)
from .matching import (Matching, SatisfactionProfile, StabilityResult,
                       default_profiles, global_satisfaction, is_feasible,
                       is_stable, relay_utility, sv_rate)
from .solvers import (IterationTrace, SolverConfig, exhaustive_search,
                      pma_accept, pma_propose, run_best_response,
                      run_many_to_one, run_pma, run_substitutable, solve)
from .experiments import (EnsembleResult, ExperimentConfig, RunRecord,
                          convergence_cdf, run_ensemble, run_sweep,
                          satisfaction_vs_n)
