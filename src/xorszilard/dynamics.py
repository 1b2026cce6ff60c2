"""Finite-time two-level branch engine under discrete Glauber dynamics.

The quasistatic branch protocol is run in finite time: the posterior-matched
gap is assigned instantaneously, then ramped back to zero over a schedule
while the occupied level exchanges heat with the bath through single-flip
Glauber updates toward the instantaneous Gibbs state.  The shortfall from
the quasistatic work defines the dimensionless dissipation Sigma, which for
slow smooth driving scales as 1/tau.

Exact statistics: the branch is a two-state chain, and the other level's
occupation relaxes as q_k = (1 - c) q_{k-1} + c pi_k with c = rate*dt, so
the mean and the variance of a trajectory's sigma follow from one forward
recursion over the gap grid (sigma_moments), in O(steps) time and bounded
memory.  scaling_fit and the CLI compute Sigma this way.  With the
posterior-matched start, sigma is the dissipated work of the ramp, so
<exp(-sigma)> = 1 exactly (Jarzynski 1997; Crooks 1998).

Sampling (estimate_sigma, the reference that the tests and the benchmark
z-score the recursion against): blocks of trajectories step the Glauber
chain itself, one update at a time, in O(reps*steps) time, which
MAX_UPDATES bounds, and O(steps + block) memory.  No CLI command runs it.

Conventions: the predicted level is pinned at energy zero and the gap is
the single control parameter (the net branch work is independent of that
energy-zero choice).  Work is the energy change under gap moves at fixed
state; heat is the energy change under state flips at fixed gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .engine import branch_works
from .errors import BudgetError, RegimeError, ValidationError, check_count, \
    check_seed

_BLOCK_REPS = 2**14  # trajectories per block of the reference sampler
MAX_STEPS = 10**7  # steps of one schedule: the gap grid holds steps + 1 floats
MAX_UPDATES = 10**10  # reps * steps of one estimate or one scaling fit
_CHUNK = 2**13  # steps per chunk of the exact recursion


@dataclass(frozen=True)
class ProtocolSchedule:
    """Discrete driving schedule for one branch.

    ``gap_path`` maps normalized time s in [0, 1] to the gap in kT and must
    end at zero; when omitted, the gap ramps linearly from the
    posterior-matched value down to zero.  ``rate`` is the bath relaxation
    rate; each of the ``steps`` updates, an integer count, advances time by
    tau/steps.
    """

    tau: float
    steps: int
    rate: float = 1.0
    gap_path: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        _check_tau_rate(self.tau, self.rate)
        object.__setattr__(self, "steps", check_count(self.steps, "steps"))
        if self.steps < 2:
            raise ValidationError(f"need steps >= 2, got {self.steps!r}")
        _check_steps(self.steps)
        if self.rate * self.tau / self.steps > 1.0:
            raise ValidationError(
                f"step size too large: rate*dt = "
                f"{self.rate * self.tau / self.steps!r} > 1")
        if self.gap_path is not None and not abs(self.gap_path(1.0)) <= 1e-12:
            raise ValidationError("gap_path(1) must be 0: the protocol ends "
                                  "at the degenerate Hamiltonian")

    @classmethod
    def linear(cls, tau: float, rate: float = 1.0) -> "ProtocolSchedule":
        """Linear ramp with the default step density max(100, 10*tau*rate)."""
        _check_tau_rate(tau, rate)
        _check_steps(10.0 * tau * rate)
        return cls(tau=tau, steps=max(100, int(round(10.0 * tau * rate))),
                   rate=rate)


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


def _check_reps(reps: int) -> int:
    reps = check_count(reps, "reps")
    if reps < 100:
        raise ValidationError(f"need reps >= 100, got {reps}")
    return reps


def _check_branch_p(p: float):
    if not 0.5 <= p < 1.0:
        raise ValidationError(
            f"branch success probability p = {p!r} must lie in [1/2, 1) "
            "(finite gap)")


def _gaps(p: float, sched: ProtocolSchedule, k0: int, k1: int) -> np.ndarray:
    """The gaps g_k0 .. g_k1 (k1 included) of the schedule's grid; a
    gap_path value that is not finite raises ValidationError."""
    s = np.arange(k0, k1 + 1) / sched.steps
    if sched.gap_path is None:
        return math.log(p / (1.0 - p)) * (1.0 - s)
    gaps = np.array([float(sched.gap_path(si)) for si in s])
    bad = np.flatnonzero(~np.isfinite(gaps))
    if bad.size:
        raise ValidationError(f"gap_path({s[bad[0]]!r}) = {gaps[bad[0]]!r} "
                              "is not finite")
    return gaps


def _pi_other(gaps: np.ndarray) -> np.ndarray:
    """Gibbs weight 1/(1 + e^gap) of the other level."""
    return 1.0 / (1.0 + np.exp(gaps))


def _decay_scan(x: np.ndarray, decay: float) -> np.ndarray:
    """Turn x in place into x_k <- decay * x_{k-1} + x_k, and return it.

    Hillis-Steele doubling: after the pass at shift s each entry sums its
    last 2s terms, each scaled by decay to its distance, so log2(len(x))
    numpy passes replace a Python loop over the entries.  decay <= 1 keeps
    every partial sum bounded; a decay power that reaches zero adds exact
    zeros (decay = 0 is the identity).
    """
    s = 1
    while s < x.size:
        x[s:] += decay ** s * x[:-s]
        s *= 2
    return x


def sigma_moments(p: float, sched: ProtocolSchedule) -> tuple[float, float]:
    """Exact mean and standard deviation of a trajectory's sigma.

    State s_k is 1 when the other level is occupied after update k (s_0 is
    the posterior draw), and a trajectory's dissipation is
    sigma = B(s_0) - sum_i D_i s_i, with D_i = g_i - g_{i+1} the gap drop
    before update i+1 and B(s) = ln(2 q(s)) + g_0 s its paired quasistatic
    work plus the assignment quench (B(0) = B(1) = ln 2p when g_0 is the
    posterior-matched gap, so sigma = ln 2p - W_ramp).  Fold B's jump into
    D_0, so sigma = B(0) - sum_i D'_i s_i.

    A Glauber update flips 0 -> 1 with probability c pi_k and 1 -> 0 with
    c (1 - pi_k), so q_k = P(s_k = 1) = (1 - c) q_{k-1} + c pi_k, and
    E[s_j | s_i] is s_i (1 - c)^(j-i) plus a constant.  Hence
    Cov(s_i, s_j) = (1 - c)^(j-i) V_i with V_i = q_i (1 - q_i), and

        E[sigma] = B(0) - sum_i D'_i q_i,
        Var[sigma] = sum_j D'_j (D'_j V_j + 2 F_j),
        F_j = sum_{i<j} (1 - c)^(j-i) D'_i V_i
            = (1 - c) (F_{j-1} + D'_{j-1} V_{j-1}).

    Both q and F are one forward recursion of constant decay 1 - c.  It is
    walked over the gap grid _CHUNK steps at a time, each chunk's gaps
    computed inline and scanned in numpy (_decay_scan), so memory stays
    bounded at any step count and no random numbers are drawn.  The
    variance is a sum of these terms, never a difference of raw moments.
    """
    _check_branch_p(p)
    w_right, w_wrong = branch_works(p)
    steps = sched.steps
    c = sched.rate * sched.tau / steps
    decay = 1.0 - c
    q, f = 1.0 - p, 0.0  # q_k0 and F_k0 at each chunk's start
    mean = var = 0.0
    for k0 in range(0, steps, _CHUNK):
        k1 = min(steps, k0 + _CHUNK)
        g = _gaps(p, sched, k0, k1)
        d = g[:-1] - g[1:]  # D'_k0 .. D'_(k1-1)
        if k0 == 0:
            d[0] -= w_wrong + g[0] - w_right
        qs = _pi_other(g)  # q_k0 .. q_k1
        qs *= c
        qs[0] = q
        _decay_scan(qs, decay)
        dv = qs[:-1] * (1.0 - qs[:-1])  # D'_i V_i
        dv *= d
        fs = np.empty(dv.size + 1)  # F_k0 .. F_k1
        fs[0] = f
        np.multiply(dv, decay, out=fs[1:])
        _decay_scan(fs, decay)
        mean += float(np.sum(d * qs[:-1]))
        var += float(np.sum(d * (dv + 2.0 * fs[:-1])))
        q, f = float(qs[-1]), float(fs[-1])
    return w_right - mean, math.sqrt(max(var, 0.0))


def _run_batch(p: float, sched: ProtocolSchedule, reps: int, seed: int):
    """Yield (works, heats, sampled_other) for successive blocks of reps.

    State s is 0 for the predicted level (posterior probability p) and 1
    for the other one.  A Glauber update flips 0 -> 1 with probability
    c pi_k and 1 -> 0 with c (1 - pi_k), c = rate*dt, so the new state is
    1 with probability c pi_k + (1 - c) s.  Each block of at most
    _BLOCK_REPS trajectories steps this chain one update at a time, block
    b drawing from the generator seeded [seed, b]; ``seed`` is an int that
    the caller has checked (errors.check_seed).  Work is the gap drop at
    fixed state; heat is the gap at each update times the state change.
    """
    _check_branch_p(p)
    gaps = _gaps(p, sched, 0, sched.steps)
    c = sched.rate * sched.tau / sched.steps
    up = c * _pi_other(gaps)
    for b, r0 in enumerate(range(0, reps, _BLOCK_REPS)):
        rng = np.random.default_rng([seed, b])
        other = rng.random(min(_BLOCK_REPS, reps - r0)) >= p
        s = other.astype(np.float64)
        works = -gaps[0] * s  # assignment quench from the degenerate level
        heats = np.zeros(s.size)
        for k in range(1, sched.steps + 1):
            works += (gaps[k - 1] - gaps[k]) * s
            new = rng.random(s.size) < up[k] + (1.0 - c) * s
            heats += gaps[k] * (new - s)
            s = new.astype(np.float64)
        yield works, heats, other


def trajectory_energy_audit(p: float, sched: ProtocolSchedule,
                            seed: int) -> tuple[float, float, float]:
    """(extracted work, absorbed heat, net system energy change) for one run.

    The protocol starts and ends degenerate, so the energy change is zero
    and first-law bookkeeping requires heat == work.
    """
    works, heats, _ = next(_run_batch(p, sched, 1, check_seed(seed)))
    return float(works[0]), float(heats[0]), float(heats[0] - works[0])


def _merge_moments(a: tuple[int, float, float],
                   b: tuple[int, float, float]) -> tuple[int, float, float]:
    """Merge two (count, mean, summed squared deviations) triples.

    Chan, Golub & LeVeque's pairwise update: batches with equal means and
    zero spread merge unchanged, and no sum of squares is formed.
    """
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return (n, mean_a + delta * n_b / n,
            m2_a + m2_b + delta * delta * n_a * n_b / n)


@dataclass(frozen=True)
class SigmaEstimate:
    """Monte Carlo estimate of the finite-time dissipation at one tau.

    ``exp_neg_sigma`` is the sample mean of exp(-sigma), which Jarzynski's
    equality holds at 1, with its standard error.
    """

    tau: float
    mean_sigma: float
    stderr: float
    reps: int
    seed: int
    exp_neg_sigma: float
    exp_neg_sigma_stderr: float


def estimate_sigma(p: float, sched: ProtocolSchedule, reps: int,
                   seed: int) -> SigmaEstimate:
    """Estimate Sigma = (quasistatic work - extracted work) / kT.

    Each trajectory is paired with the quasistatic work of its own sampled
    microstate, ln 2p or ln 2(1-p) (engine.branch_works); that reference
    averages exactly to ln 2 times mutual_information(p), so the pairing
    leaves the estimate unbiased while cancelling the branch-outcome
    variance.  ``reps`` is an integer >= 100, and ``seed`` a non-negative
    integer (errors.check_seed), stored as an int; block b draws from the
    generator seeded [seed, b].
    """
    reps = _check_reps(reps)
    _check_branch_p(p)
    _check_updates(reps, sched.steps)
    seed = check_seed(seed)
    w_right, w_wrong = branch_works(p)
    moments = tilted = None
    for works, _, other in _run_batch(p, sched, reps, seed):
        sigma = np.where(other, w_wrong, w_right) - works
        moments = _merge_block(moments, sigma)
        tilted = _merge_block(tilted, np.exp(-sigma))
    (n, mean, m2), (_, x_mean, x_m2) = moments, tilted
    return SigmaEstimate(tau=sched.tau, mean_sigma=mean,
                         stderr=math.sqrt(m2 / (n - 1) / n), reps=reps,
                         seed=seed, exp_neg_sigma=x_mean,
                         exp_neg_sigma_stderr=math.sqrt(x_m2 / (n - 1) / n))


def _merge_block(moments, x: np.ndarray):
    """Merge a block of samples into (count, mean, summed sq. deviations)."""
    mean = float(x.mean())
    block = (x.size, mean, float(np.sum((x - mean) ** 2)))
    return block if moments is None else _merge_moments(moments, block)


# ---------------------------------------------------------------------------
# scaling in tau


def fit_loglog_slope(taus, sigmas) -> tuple[float, float]:
    """Least-squares slope of log(sigma) against log(tau), with its stderr."""
    taus = np.asarray(taus, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    if taus.size < 2:
        raise ValidationError("log-log fit needs at least 2 points")
    if not (np.isfinite(taus).all() and np.isfinite(sigmas).all()
            and (taus > 0.0).all() and (sigmas > 0.0).all()):
        raise ValidationError(
            "log-log fit needs finite positive tau and sigma values")
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
class ExactSigma:
    """Exact finite-time dissipation at one tau, from sigma_moments.

    ``stderr`` is sd/sqrt(reps): the standard error that a Monte Carlo
    estimate of ``reps`` trajectories would have.
    """

    tau: float
    mean_sigma: float
    sd: float
    reps: int

    @property
    def stderr(self) -> float:
        return self.sd / math.sqrt(self.reps)


@dataclass(frozen=True)
class ScalingFit:
    """Fitted dissipation scaling over a tau grid; ``points`` hold the
    exact Sigma the fit uses."""

    slope: float
    slope_stderr: float
    points: list[ExactSigma]


def scaling_fit(p: float, tau_grid, reps: int,
                sched_template: Callable[[float], ProtocolSchedule]
                = ProtocolSchedule.linear) -> ScalingFit:
    """Exact Sigma over a tau grid and the log-log slope fitted to it.

    ``sched_template`` maps tau to a schedule, so it fixes the bath rate
    too: the default is the linear ramp at rate 1, and the CLI's ``--rate``
    passes the linear ramp at that rate.  Each Sigma comes from
    sigma_moments, so the fit draws no random numbers; ``reps`` sets only
    the standard error reported next to it.  The update budget counts reps
    times the grid's steps, as a reference sample of that size would take.
    An exact Sigma that is not positive cannot be fitted and raises a
    RegimeError naming each such point.
    """
    taus = [float(t) for t in tau_grid]
    if len(taus) < 2:
        raise ValidationError("scaling fit needs a tau grid with >= 2 points")
    scheds = [sched_template(tau) for tau in taus]
    reps = _check_reps(reps)
    _check_updates(reps, sum(sched.steps for sched in scheds))
    points = [ExactSigma(sched.tau, *sigma_moments(p, sched), reps)
              for sched in scheds]
    bad = [pt for pt in points if pt.mean_sigma <= 0.0]
    if bad:
        raise RegimeError(
            "non-positive dissipation ("
            + "; ".join(f"tau={pt.tau:g}: sigma={pt.mean_sigma:.3g}"
                        f"+-{pt.stderr:.3g}" for pt in bad)
            + "); Sigma is exact, so no reps or seed changes it: a channel "
            "at p = 1/2 dissipates nothing, and a log-log fit needs "
            "Sigma > 0 at every tau")
    slope, se = fit_loglog_slope(taus, [pt.mean_sigma for pt in points])
    return ScalingFit(slope=slope, slope_stderr=se, points=points)
