"""Finite-time two-level branch engine under discrete Glauber dynamics.

The quasistatic branch protocol is run in finite time: the posterior-matched
gap is assigned instantaneously, then ramped back to zero over a schedule
while the occupied level exchanges heat with the bath through single-flip
Glauber updates toward the instantaneous Gibbs state.  The shortfall from
the quasistatic work defines the dimensionless dissipation Sigma, which for
slow smooth driving scales as 1/tau.

Conventions: the predicted level is pinned at energy zero and the gap is
the single control parameter (the net branch work is independent of that
energy-zero choice).  Work is the energy change under gap moves at fixed
state; heat is the energy change under state flips at fixed gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .engine import LN2
from .channel import binary_entropy
from .errors import BudgetError, RegimeError, ValidationError

_CHUNK = 65536
MAX_STEPS = 10**7  # steps of one schedule: the gap grid holds steps + 1 floats
MAX_UPDATES = 10**10  # reps * steps of one estimate or one scaling fit


@dataclass(frozen=True)
class ProtocolSchedule:
    """Discrete driving schedule for one branch.

    ``gap_path`` maps normalized time s in [0, 1] to the gap in kT and must
    end at zero; when omitted, the gap ramps linearly from the
    posterior-matched value down to zero.  ``rate`` is the bath relaxation
    rate; each of the ``steps`` updates advances time by tau/steps.
    """

    tau: float
    steps: int
    rate: float = 1.0
    gap_path: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        _check_tau_rate(self.tau, self.rate)
        if self.steps < 2:
            raise ValidationError(f"need steps >= 2, got {self.steps!r}")
        _check_steps(self.steps)
        if self.rate * self.tau / self.steps > 1.0:
            raise ValidationError(
                f"step size too large: rate*dt = "
                f"{self.rate * self.tau / self.steps!r} > 1")
        if self.gap_path is not None and abs(self.gap_path(1.0)) > 1e-12:
            raise ValidationError("gap_path(1) must be 0: the protocol ends "
                                  "at the degenerate Hamiltonian")

    @classmethod
    def linear(cls, tau: float, rate: float = 1.0,
               steps: int | None = None) -> "ProtocolSchedule":
        """Linear ramp with the default step density max(100, 10*tau*rate)."""
        if steps is None:
            _check_tau_rate(tau, rate)
            _check_steps(10.0 * tau * rate)
            steps = max(100, int(round(10.0 * tau * rate)))
        return cls(tau=tau, steps=steps, rate=rate)


def _check_tau_rate(tau: float, rate: float):
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValidationError(f"need finite tau > 0, got {tau!r}")
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValidationError(f"need finite rate > 0, got {rate!r}")


def _check_steps(steps: float):
    if steps > MAX_STEPS:
        raise BudgetError(
            f"step budget exceeded: steps = {steps:.4g} > {MAX_STEPS}")


def _check_updates(reps: int, steps: int):
    if reps * steps > MAX_UPDATES:
        raise BudgetError(
            f"update budget exceeded: reps * steps = {reps * steps:.4g} > "
            f"{MAX_UPDATES}")


def _check_branch_p(p: float):
    if not 0.5 <= p < 1.0:
        raise ValidationError(
            f"branch success probability p = {p!r} must lie in [1/2, 1) "
            "(finite gap)")


def _gap_grid(p: float, sched: ProtocolSchedule) -> np.ndarray:
    _check_branch_p(p)
    s = np.arange(sched.steps + 1) / sched.steps
    if sched.gap_path is None:
        eps_star = 0.0 if p == 0.5 else math.log(p / (1.0 - p))
        return eps_star * (1.0 - s)
    return np.array([float(sched.gap_path(si)) for si in s])


def _run_batch(p: float, sched: ProtocolSchedule, rng: np.random.Generator,
               reps: int):
    """Vectorized trajectories; returns (works, heats, sampled_other).

    State is 0 for the predicted level (posterior probability p) and 1 for
    the other one.  Flip probability per step is rate*dt times the Gibbs
    weight of the target state, a detailed-balance chain with the
    instantaneous Gibbs distribution stationary.
    """
    gaps = _gap_grid(p, sched)
    dt = sched.tau / sched.steps
    other = rng.random(reps) >= p
    state = other.astype(np.float64)
    works = -gaps[0] * state  # assignment quench from the degenerate level
    heats = np.zeros(reps)
    for k in range(1, sched.steps + 1):
        works += (gaps[k - 1] - gaps[k]) * state
        gap = gaps[k]
        pi_other = 1.0 / (1.0 + math.exp(gap))
        p_target = np.where(state == 0.0, pi_other, 1.0 - pi_other)
        flips = rng.random(reps) < sched.rate * dt * p_target
        heats += np.where(flips, gap * (1.0 - 2.0 * state), 0.0)
        state = np.where(flips, 1.0 - state, state)
    return works, heats, other


def trajectory_energy_audit(p: float, sched: ProtocolSchedule,
                            seed: int) -> tuple[float, float, float]:
    """(extracted work, absorbed heat, net system energy change) for one run.

    The protocol starts and ends degenerate, so the energy change is zero
    and first-law bookkeeping requires heat == work.
    """
    rng = np.random.default_rng([seed, 0])
    works, heats, _ = _run_batch(p, sched, rng, 1)
    return float(works[0]), float(heats[0]), float(heats[0] - works[0])


@dataclass(frozen=True)
class SigmaEstimate:
    """Monte Carlo estimate of the finite-time dissipation at one tau."""

    tau: float
    mean_sigma: float
    stderr: float
    reps: int
    w_qs_kt: float
    seed: int


def estimate_sigma(p: float, sched: ProtocolSchedule, reps: int,
                   seed: int) -> SigmaEstimate:
    """Estimate Sigma = (quasistatic work - extracted work) / kT.

    Each trajectory is paired with the quasistatic work of its own sampled
    microstate, ln(2 q(x)); that reference averages exactly to
    w_qs = ln2*(1 - h2(p)), so the pairing leaves the estimate unbiased
    while cancelling the branch-outcome variance.
    """
    if reps < 100:
        raise ValidationError(f"need reps >= 100, got {reps}")
    _check_branch_p(p)
    _check_updates(reps, sched.steps)
    w_qs = LN2 * (1.0 - binary_entropy(p))
    w_right = math.log(2.0 * p)
    w_wrong = math.log(2.0 * (1.0 - p))
    n = s = s2 = 0.0
    chunk_idx = 0
    remaining = reps
    while remaining > 0:
        m = min(_CHUNK, remaining)
        rng = np.random.default_rng([seed, chunk_idx])
        works, _, other = _run_batch(p, sched, rng, m)
        sigma = np.where(other, w_wrong, w_right) - works
        n += m
        s += float(sigma.sum())
        s2 += float((sigma * sigma).sum())
        remaining -= m
        chunk_idx += 1
    mean = s / n
    var = max(0.0, (s2 - n * mean * mean) / (n - 1))
    return SigmaEstimate(tau=sched.tau, mean_sigma=mean,
                         stderr=math.sqrt(var / n), reps=reps,
                         w_qs_kt=w_qs, seed=seed)


# ---------------------------------------------------------------------------
# scaling in tau


def fit_loglog_slope(taus, sigmas) -> tuple[float, float]:
    """Least-squares slope of log(sigma) against log(tau), with its stderr."""
    taus = np.asarray(taus, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if taus.size < 2:
        raise ValidationError("log-log fit needs at least 2 points")
    if (sigmas <= 0.0).any() or (taus <= 0.0).any():
        raise ValidationError("log-log fit needs positive tau and sigma values")
    x = np.log(taus)
    y = np.log(sigmas)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx == 0.0:
        raise ValidationError("log-log fit needs at least two distinct taus")
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    if taus.size > 2:
        resid = y - (y.mean() + slope * xc)
        se = math.sqrt(float(np.sum(resid * resid)) / (taus.size - 2) / sxx)
    else:
        se = 0.0
    return slope, se


@dataclass(frozen=True)
class ScalingFit:
    """Fitted dissipation scaling over a tau grid."""

    slope: float
    slope_stderr: float
    estimates: list[SigmaEstimate] = field(default_factory=list)


def scaling_fit(p: float, tau_grid, reps: int, seed: int,
                rate: float = 1.0,
                sched_template: Callable[[float], ProtocolSchedule] | None = None,
                ) -> ScalingFit:
    """Estimate Sigma over a tau grid and fit the log-log slope.

    ``sched_template`` maps tau to a schedule (default: the linear ramp at
    the given rate).  All grid points share the master seed, so repeated
    runs are reproducible.  A non-positive Sigma estimate means the grid
    left the slow-driving regime and raises a RegimeError with the
    offending points.
    """
    taus = [float(t) for t in tau_grid]
    if len(taus) < 2:
        raise ValidationError("scaling fit needs a tau grid with >= 2 points")
    if sched_template is None:
        sched_template = lambda tau: ProtocolSchedule.linear(tau, rate=rate)
    scheds = [sched_template(tau) for tau in taus]
    _check_updates(reps, sum(sched.steps for sched in scheds))
    estimates = [estimate_sigma(p, sched, reps, seed) for sched in scheds]
    bad = [est for est in estimates if est.mean_sigma <= 0.0]
    if bad:
        detail = ", ".join(
            f"tau={est.tau:g}: sigma={est.mean_sigma:.3g}+-{est.stderr:.3g}"
            for est in bad)
        raise RegimeError(
            f"non-positive dissipation estimate ({detail}); increase tau "
            "resolution, reps, or shrink the grid to the slow regime")
    slope, se = fit_loglog_slope(taus, [est.mean_sigma for est in estimates])
    return ScalingFit(slope=slope, slope_stderr=se, estimates=estimates)
