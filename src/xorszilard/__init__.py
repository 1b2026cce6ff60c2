"""XOR-game values and the Szilard feedback work of their induced channels."""

from .channel import (BinaryChannel, apply_noise, binary_entropy, compress,
                      enumerate_rounds, induced_channel, mutual_information,
                      orient, referee_encode, rounds_to_csv)
from .dynamics import (ExactSigma, ProtocolSchedule, ScalingFit,
                       SigmaEstimate, estimate_sigma, fit_loglog_slope,
                       scaling_fit, sigma_moments, trajectory_energy_audit)
from .engine import (CycleLedger, PosteriorBranch, SimulationStats,
                     branch_decomposition, branch_work, class_ceilings,
                     cycle_ledger, exact_memory_ledger, memory_ledger,
                     merge_stats, noise_threshold, posterior, simulate_rounds,
                     small_bias_work, sweep_s_curve, trajectory_work)
from .errors import BudgetError, ParseError, RegimeError, ValidationError
from .games import (Behaviour, CorrelatorMatrix, XorGame, bias, chsh_S,
                    correlator_behaviour, correlators, deterministic_behaviour,
                    game_value, load_behaviour, load_game, make_chained,
                    make_chsh, mix_with_uniform, pr_box, quantum_optimal_chsh,
                    save_behaviour, save_game, uniform_behaviour,
                    win_probabilities)
from .optimize import (ClassValueReport, NonsignallingReport, SeesawState,
                       class_report, is_nonsignalling, local_value, ns_value,
                       quantum_value)

__version__ = "0.1.0"
