"""Exact and simulated exploration-exploitation analysis of local-search
heuristics on bit-string landscapes.

The model: states are all n-bit strings, actions are neighborhood moves
i -> j with deterministic effect, and a move pays the objective gain
f(j) - f(i).  A metaheuristic is a (possibly time-indexed) distribution over
these moves; its per-state balance between exploration (gain <= 0) and
exploitation (gain > 0) is what the `coefficients` module quantifies.
"""

__version__ = "0.1.0"

from .objectives import (CnfInstance, DimacsParseError, Objective, cnf_objective,
                         cnf_to_dimacs, load_dimacs, make_leading_ones,
                         make_nk_landscape, make_onemax, make_trap, parse_objective)
from .search_space import (HammingNeighborhood, LocalSearchMdp, Move,
                           ResourceLimitError, parse_criterion)
from .policies import (ActionDistribution, HillClimbing, Metropolis, Policy,
                       RandomWalk, SimulatedAnnealing, parse_policy, step)
from .coefficients import (BalanceSeries, Classification, CoefficientReport,
                           ConvergenceTrace, CountFractions, UndefinedCoefficientError,
                           balance_series, classify, convergence_coefficient,
                           convergence_trace, count_fractions, decomposition_residual,
                           exploration_masses, exploration_ratio, gamma_from_counts,
                           improving, improving_counts)
from .exact_solver import (PolicyMatrices, ValueVector, enumerate_trajectories,
                           evaluate_nonstationary, evaluate_stationary,
                           evaluate_stationary_table, freeze, value_iteration)
from .simulator import (Rollouts, RunSummary, TrajectoryRecord, TrajectoryStep,
                        best_so_far_curve, derive_seed, exploration_fraction_by_bucket,
                        exploration_ratio_by_bucket, generate_records, run_batch,
                        run_trajectory, simulate_batch, simulate_batches,
                        summarize_records)
