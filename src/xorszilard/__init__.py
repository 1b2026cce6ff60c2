"""XOR-game values and the Szilard feedback work of their induced channels."""

from .channel import (apply_noise, binary_entropy, enumerate_rounds,
                      mutual_information, orient, rounds_to_csv)
from .dynamics import (ProtocolSchedule, estimate_sigma, fit_loglog_slope,
                       scaling_fit, sigma_moments, trajectory_energy_audit)
from .engine import (branch_decomposition, branch_works, class_ceilings,
                     cycle_ledger, exact_memory_ledger, memory_ledger,
                     merge_stats, noise_threshold, simulate_rounds,
                     small_bias_work, sweep_s_curve)
from .errors import BudgetError, ParseError, RegimeError, ValidationError
from .games import (Behaviour, XorGame, bias, chsh_S, correlator_behaviour,
                    correlators, deterministic_behaviour, game_value,
                    load_behaviour, load_game, make_chained, make_chsh,
                    mix_with_uniform, pr_box, save_behaviour, save_game,
                    uniform_behaviour)
from .optimize import (class_report, is_nonsignalling, local_value,
                       quantum_behaviour, quantum_value)

__version__ = "0.1.0"
