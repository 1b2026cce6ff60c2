"""Malformed inputs at the library's boundary, the twin of test_cli_fuzz.

Each row is a callable, a malformed input and the package error it must
raise: counts that are not integers (operator.index decides: ints and numpy
ints pass, floats and NaN do not), seeds that are not a non-negative integer
or a tuple of them, game and behaviour arrays of the wrong rank,
correlator matrices that are not 2-D, and gap paths or log-log points that
are not finite.  Every row runs under a 5 s bound, so a call that would
never return fails its row instead of stalling the suite.
"""

import functools
import math
import time

import numpy as np
import pytest

from xorszilard import (Behaviour, ProtocolSchedule, ValidationError, XorGame,
                        class_report, correlator_behaviour, estimate_sigma,
                        fit_loglog_slope, make_chained, make_chsh, pr_box,
                        quantum_value, scaling_fit, sigma_moments,
                        simulate_rounds, trajectory_energy_audit)

CHSH = make_chsh()
PR = pr_box(CHSH)
SCHED = ProtocolSchedule(tau=10.0, steps=100)
MID_NAN = ProtocolSchedule(tau=10.0, steps=100, gap_path=lambda s:
                           math.nan if 0.4 < s < 0.6 else 1.0 - s)
MID_INF = ProtocolSchedule(tau=10.0, steps=100, gap_path=lambda s:
                           math.inf if 0.4 < s < 0.6 else 1.0 - s)
TABLE = np.full((2, 2, 2, 2), 0.25)


def row(case, match, func, *args, **kwargs):
    """The malformed call ``func(*args, **kwargs)``, which must raise
    ValidationError matching ``match``."""
    return pytest.param(func, args, kwargs, match, id=case)


ROWS = [
    row("simulate-fractional-rounds", "integer",
        simulate_rounds, CHSH, PR, 10.5, seed=1),
    row("simulate-nan-rounds", "integer",
        simulate_rounds, CHSH, PR, math.nan, seed=1),
    row("simulate-negative-seed", "seed",
        simulate_rounds, CHSH, PR, 100, seed=-1),
    row("simulate-fractional-seed", "seed",
        simulate_rounds, CHSH, PR, 100, seed=1.5),
    row("quantum-fractional-max-iter", "max_iter",
        quantum_value, make_chained(5), max_iter=2.5),
    row("quantum-nan-max-iter", "max_iter",
        quantum_value, CHSH, max_iter=math.nan),
    row("quantum-negative-seed", "seed", quantum_value, CHSH, seed=-1),
    row("class-report-negative-seed", "seed", class_report, CHSH, seed=-1),
    row("schedule-float-steps", "steps",
        ProtocolSchedule, tau=10.0, steps=100.0),
    row("schedule-nan-steps", "steps",
        ProtocolSchedule, tau=10.0, steps=math.nan),
    row("sigma-fractional-reps", "reps", estimate_sigma, 0.85, SCHED, 150.5, 1),
    row("sigma-negative-seed", "seed", estimate_sigma, 0.85, SCHED, 200, -1),
    row("sigma-negative-sub-seed", "seed",
        estimate_sigma, 0.85, SCHED, 200, (1, -2)),
    row("audit-negative-seed", "seed",
        trajectory_energy_audit, 0.85, SCHED, -1),
    row("scaling-fit-nan-reps", "reps",
        scaling_fit, 0.85, [10, 20], reps=math.nan),
    row("schedule-nan-gap-path-end", "gap_path",
        ProtocolSchedule, tau=10.0, steps=100, gap_path=lambda s: math.nan),
    row("sigma-moments-nan-mid-path", "not finite",
        sigma_moments, 0.85, MID_NAN),
    row("sigma-moments-inf-mid-path", "not finite",
        sigma_moments, 0.85, MID_INF),
    row("sigma-nan-mid-path", "not finite",
        estimate_sigma, 0.85, MID_NAN, 200, 1),
    row("scaling-fit-nan-mid-path", "not finite",
        scaling_fit, 0.85, [10, 20], reps=100,
        sched_template=lambda tau: ProtocolSchedule(
            tau=tau, steps=100, gap_path=MID_NAN.gap_path)),
    row("loglog-nan-sigma", "finite",
        fit_loglog_slope, [1, 2, 3], [0.1, math.nan, 0.3]),
    row("loglog-inf-tau", "finite",
        fit_loglog_slope, [1, 2, math.inf], [0.1, 0.2, 0.3]),
    row("game-1d-mu", r"2-D array, got shape \(4,\)", XorGame, name="g",
        mu=CHSH.mu.ravel(), f=CHSH.f.ravel()),
    row("behaviour-3d-table", r"\(nu, nv, 2, 2\) array, got shape \(2, 2, 2\)",
        Behaviour, TABLE[0]),
    row("correlator-1d", r"shape \(1,\)", correlator_behaviour, [0.5]),
    row("correlator-1d-out-of-range", r"shape \(1,\)",
        correlator_behaviour, [1.5]),
    row("correlator-3d", r"shape \(1, 1, 1\)",
        correlator_behaviour, [[[0.5]]]),
]


@pytest.mark.parametrize("func, args, kwargs, match", ROWS)
def test_boundary_input_raises_package_error(within, func, args, kwargs,
                                             match):
    with pytest.raises(ValidationError, match=match):
        within(5.0, func, *args, **kwargs)


def test_numpy_integers_pass_as_counts_and_seeds():
    # operator.index admits numpy integers: the same batch, estimate and
    # seesaw as with Python ints, and the stored counts are Python ints
    ints = simulate_rounds(CHSH, PR, 100, seed=3)
    nps = simulate_rounds(CHSH, PR, np.int64(100), seed=np.int64(3))
    assert (nps.rounds, nps.hits) == (ints.rounds, ints.hits)
    assert type(nps.rounds) is int
    assert estimate_sigma(0.85, SCHED, np.int64(200), (np.int64(1), 2)) \
        == estimate_sigma(0.85, SCHED, 200, (1, 2))
    assert quantum_value(CHSH, max_iter=np.int64(50), seed=np.int64(7))[0] \
        == quantum_value(CHSH, max_iter=50, seed=7)[0]
    assert ProtocolSchedule(tau=10.0, steps=np.int64(100)) == SCHED
    assert make_chained(np.int64(3)).nu == 3


def test_within_fails_an_overrunning_partial_by_its_repr(within):
    # a functools.partial has no __name__; the bound still fails the call
    # with its message
    with pytest.raises(pytest.fail.Exception,
                       match=r"functools.partial.*still running after 0.05 s"):
        within(0.05, functools.partial(time.sleep, 1.0))
