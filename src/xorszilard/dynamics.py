"""Finite-time two-level branch engine under discrete Glauber dynamics.

The quasistatic branch protocol is run in finite time: the posterior-matched
gap is assigned instantaneously, then ramped back to zero over a schedule
while the occupied level exchanges heat with the bath through single-flip
Glauber updates toward the instantaneous Gibbs state.  The shortfall from
the quasistatic work defines the dimensionless dissipation Sigma, which for
slow smooth driving scales as 1/tau.

Sampling: a Glauber step flips to the other level with probability
rate*dt times that level's Gibbs weight, which is the law of a heat-bath
step that, with probability rate*dt, redraws the state from the
instantaneous Gibbs law and otherwise keeps it.  The redraw events do not
depend on the state, so each trajectory's events are drawn directly as
geometric gaps along its steps (uniformization), and a trajectory costs
O(rate*tau) events instead of O(steps) updates.  reps*steps still bounds
the work, since there are never more events than updates.

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

from .channel import BinaryChannel
from .engine import LN2, posterior, trajectory_work
from .errors import BudgetError, RegimeError, ValidationError

_TILE_EVENTS = 2**13  # expected resample events per tile
_TILE_REPS = 65536  # trajectories per tile, at most
MAX_STEPS = 10**7  # steps of one schedule: the gap grid holds steps + 1 floats
MAX_UPDATES = 10**10  # reps * steps of one estimate or one scaling fit
Z_RESOLVED = 5.0  # |Sigma| / stderr at which an estimate's sign is resolved


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
        return posterior(0, BinaryChannel(p)).gap_kt * (1.0 - s)
    return np.array([float(sched.gap_path(si)) for si in s])


def _resample_cells(rng: np.random.Generator, cells: int,
                    c: float) -> np.ndarray:
    """Sorted flat indices of the resample events on a grid of ``cells``.

    Each cell is an event with probability c, independently, so the
    distances between events are Geometric(c): floor(Exp(1)/lam) + 1 with
    lam = -log(1 - c).  They are drawn until they pass the grid's end.
    """
    if c >= 1.0:
        return np.arange(cells)
    if c <= 0.0:  # rate*dt can underflow to zero
        return np.arange(0)
    lam = -math.log1p(-c)
    parts = []
    last = -1
    while last < cells - 1:
        expected = (cells - 1 - last) * c
        skips = rng.standard_exponential(
            int(expected + 4.0 * math.sqrt(expected)) + 16)
        # a skip past the grid's end needs no exact length, and when c is
        # tiny it would overflow a float or an int64
        np.minimum(skips, cells * lam, out=skips)
        skips /= lam
        np.floor(skips, out=skips)
        pos = skips.astype(np.int64)
        pos += 1
        np.cumsum(pos, out=pos)
        pos += last
        last = int(pos[-1])
        parts.append(pos)
    pos = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return pos[:np.searchsorted(pos, cells)]


def _run_batch(p: float, sched: ProtocolSchedule, reps: int, seed: int):
    """Yield (works, heats, sampled_other) for successive blocks of reps.

    State is 0 for the predicted level (posterior probability p) and 1 for
    the other one.  A Glauber step flips to the target level with
    probability c * pi_target, c = rate*dt, a detailed-balance chain with
    the instantaneous Gibbs law stationary.  It is sampled as its
    heat-bath step (module docstring): the resample events are drawn
    straight onto the (rep, step) grid, and each redraws the state, to the
    other level with probability 1/(1 + e^gap).

    The grid is cut into tiles, a block of reps by a window of steps, of
    about _TILE_EVENTS expected events each, seeded (seed, tile); a
    trajectory carries its state from one window into the next.  Work is
    the gap drop at fixed state, summed over the constant-state segments
    between events; heat is the gap at each event times the state change.
    """
    gaps = _gap_grid(p, sched)
    pi_other = np.exp(gaps)  # 1/(1 + e^gap), built in place
    pi_other += 1.0
    np.reciprocal(pi_other, out=pi_other)
    steps = sched.steps
    c = sched.rate * sched.tau / steps
    # steps per window, then reps per block; the tests on the expected
    # event count keep a tiny (or zero) c out of the divisions
    window = steps if c * steps <= _TILE_EVENTS else int(_TILE_EVENTS / c)
    block = (_TILE_REPS if c * window * _TILE_REPS <= _TILE_EVENTS
             else max(1, int(_TILE_EVENTS / (c * window))))
    tile = 0
    for r0 in range(0, reps, block):
        m = min(block, reps - r0)
        rng = np.random.default_rng([seed, tile])
        other = rng.random(m) >= p
        state = other.astype(np.float64)
        works = -gaps[0] * state  # assignment quench from the degenerate level
        heats = np.zeros(m)
        for w0 in range(0, steps, window):
            if w0:
                rng = np.random.default_rng([seed, tile])
            w1 = min(steps, w0 + window)
            k = _resample_cells(rng, m * (w1 - w0), c)
            rep = k // (w1 - w0)
            k -= rep * (w1 - w0)
            k += w0 + 1  # the update of each event
            g = gaps[k]
            new = rng.random(k.size) < pi_other[k]
            # each rep's first and last event in this window
            first = np.ones(k.size, dtype=bool)
            np.not_equal(rep[1:], rep[:-1], out=first[1:])
            last = np.ones(k.size, dtype=bool)
            last[:-1] = first[1:]
            fi, li = np.flatnonzero(first), np.flatnonzero(last)
            hit = rep[fi]
            # occupancy form: the state before the first event holds from
            # w0 to it, each event's state until the next one or w1 (the
            # arrays are reused in place to keep a tile's memory small)
            g_first = np.full(m, gaps[w1])
            g_first[hit] = g[fi]
            works += state * (gaps[w0] - g_first)
            seg = np.empty(k.size)  # the next event's gap, then the work
            seg[:-1] = g[1:]
            seg[li] = gaps[w1]
            np.subtract(g, seg, out=seg)
            seg *= new
            works[hit] += np.add.reduceat(seg, fi)
            # flip form: the gap at each event times the state change
            seg[1:] = new[:-1]  # the state before each event, then the heat
            seg[fi] = state[hit]
            np.subtract(new, seg, out=seg)
            seg *= g
            heats[hit] += np.add.reduceat(seg, fi)
            state[hit] = new[li]
            tile += 1
        yield works, heats, other


def trajectory_energy_audit(p: float, sched: ProtocolSchedule,
                            seed: int) -> tuple[float, float, float]:
    """(extracted work, absorbed heat, net system energy change) for one run.

    The protocol starts and ends degenerate, so the energy change is zero
    and first-law bookkeeping requires heat == work.
    """
    works, heats, _ = next(_run_batch(p, sched, 1, seed))
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
    branch = posterior(0, BinaryChannel(p))
    w_qs = branch.branch_work_bits * LN2
    w_right, w_wrong = trajectory_work(0, branch), trajectory_work(1, branch)
    moments = None
    for works, _, other in _run_batch(p, sched, reps, seed):
        sigma = np.where(other, w_wrong, w_right) - works
        mean = float(sigma.mean())
        block = (sigma.size, mean, float(np.sum((sigma - mean) ** 2)))
        moments = block if moments is None else _merge_moments(moments, block)
    n, mean, m2 = moments
    var = m2 / (n - 1)
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
    runs are reproducible.  A non-positive Sigma estimate cannot be fitted
    and raises a RegimeError that names each such point with its
    z = Sigma / stderr (_regime_message).
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
        raise RegimeError(_regime_message(bad))
    slope, se = fit_loglog_slope(taus, [est.mean_sigma for est in estimates])
    return ScalingFit(slope=slope, slope_stderr=se, estimates=estimates)


def _regime_message(bad: list[SigmaEstimate]) -> str:
    """Why the non-positive estimates ``bad`` stop a fit, point by point.

    A point within Z_RESOLVED standard errors of zero is unresolved: Monte
    Carlo noise can give it either sign, and more reps resolve it.  A point
    further below zero, or an exact one (stderr 0), is a real non-positive
    Sigma, which more reps would not change.
    """
    points, noisy = [], 0
    for est in bad:
        text = f"tau={est.tau:g}: sigma={est.mean_sigma:.3g}+-{est.stderr:.3g}"
        if est.stderr > 0.0:
            z = est.mean_sigma / est.stderr
            text += f", z={z:.2g}"
            if z > -Z_RESOLVED:
                text += ", unresolved"
                noisy += 1
        points.append(text)
    advice = []
    if noisy:
        advice.append(f"|z| < {Z_RESOLVED:g} is Monte Carlo noise at these "
                      "reps: raise reps (--reps)")
    if noisy < len(bad):
        advice.append(f"a point with z <= -{Z_RESOLVED:g}, or exact at "
                      "stderr 0, is not noise: increase the tau resolution "
                      "or shrink the grid to the slow regime")
    return (f"non-positive dissipation estimate ({'; '.join(points)}); "
            + "; ".join(advice))
