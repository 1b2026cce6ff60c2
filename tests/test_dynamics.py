import itertools
import math
import tracemalloc

import numpy as np
import pytest

from xorszilard import (ProtocolSchedule, RegimeError, ValidationError,
                        estimate_sigma, fit_loglog_slope, scaling_fit,
                        sigma_moments, trajectory_energy_audit)
from xorszilard import dynamics
from xorszilard.engine import LN2


def h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def test_schedule_validation():
    with pytest.raises(ValidationError):
        ProtocolSchedule(tau=0.0, steps=100)
    with pytest.raises(ValidationError):
        ProtocolSchedule(tau=10.0, steps=1)
    with pytest.raises(ValidationError):
        ProtocolSchedule(tau=10.0, steps=5)  # rate*dt = 2 > 1
    with pytest.raises(ValidationError):
        ProtocolSchedule(tau=10.0, steps=100, gap_path=lambda s: 1.0 - s + 0.5)
    sched = ProtocolSchedule.linear(40.0)
    assert sched.steps == 400
    assert ProtocolSchedule.linear(2.0).steps == 100  # floor


def test_first_law_bookkeeping():
    # degenerate start and end: heat absorbed equals work extracted
    for seed in range(6):
        for tau in (5.0, 20.0, 80.0):
            w, q, de = trajectory_energy_audit(0.85, ProtocolSchedule.linear(tau),
                                               seed=seed)
            assert abs(de) < 1e-10
            assert abs(q - w) < 1e-10


def test_flat_posterior_gives_zero_work():
    w, _, _ = trajectory_energy_audit(0.5, ProtocolSchedule.linear(10.0), seed=1)
    assert w == 0.0


def test_sudden_limit_zero_work():
    # no relaxation: the assignment and the frozen-state return cancel
    sched = ProtocolSchedule(tau=1e-9, steps=100)
    for seed in range(5):
        w, _, _ = trajectory_energy_audit(0.85, sched, seed=seed)
        assert abs(w) < 1e-12


def test_denormal_rate_dt_draws_no_events():
    # rate*dt of 1e-322 and of 0 (underflow): the frozen-state limit
    for tau in (1e-320, 5e-324):
        sched = ProtocolSchedule(tau=tau, steps=100)
        for works, _, _ in dynamics._run_batch(0.85, sched, 100, 3):
            assert not works.any()


def test_rejects_deterministic_posterior():
    with pytest.raises(ValidationError):
        trajectory_energy_audit(1.0, ProtocolSchedule.linear(10.0), seed=0)
    with pytest.raises(ValidationError):
        trajectory_energy_audit(0.3, ProtocolSchedule.linear(10.0), seed=0)


def test_estimate_sigma_basics():
    est = estimate_sigma(0.85, ProtocolSchedule.linear(40.0), reps=2000, seed=3)
    assert (est.tau, est.reps, est.seed) == (40.0, 2000, 3)
    assert est.stderr >= 0.0
    assert est.mean_sigma > 0.0  # moderate tau dissipates
    with pytest.raises(ValidationError):
        estimate_sigma(0.85, ProtocolSchedule.linear(40.0), reps=50, seed=3)


def test_estimate_sigma_deterministic():
    a = estimate_sigma(0.85, ProtocolSchedule.linear(20.0), reps=500, seed=9)
    b = estimate_sigma(0.85, ProtocolSchedule.linear(20.0), reps=500, seed=9)
    assert a == b


def test_sigma_vanishes_in_slow_limit():
    est = estimate_sigma(0.85, ProtocolSchedule.linear(3200.0), reps=400, seed=4)
    assert abs(est.mean_sigma) < 4 * est.stderr + 1e-3


def test_extracted_work_nondecreasing_in_tau():
    # doubling ladder: dissipation shrinks within 4-sigma bands
    last = None
    for tau in (12.5, 25.0, 50.0, 100.0, 200.0):
        est = estimate_sigma(0.85, ProtocolSchedule.linear(tau), reps=4000, seed=5)
        if last is not None:
            assert est.mean_sigma - last.mean_sigma \
                < 4 * (est.stderr + last.stderr)
        last = est


def test_fit_loglog_slope_synthetic():
    slope, se = fit_loglog_slope([10, 20, 40, 80], [0.5] * 4)
    assert slope == pytest.approx(0.0, abs=1e-12)
    slope, se = fit_loglog_slope([10, 20, 40, 80], [0.7 / t for t in (10, 20, 40, 80)])
    assert slope == pytest.approx(-1.0, abs=1e-9)
    assert se < 1e-9
    with pytest.raises(ValidationError):
        fit_loglog_slope([10.0], [0.1])
    with pytest.raises(ValidationError):
        fit_loglog_slope([10.0, 20.0], [0.1, -0.1])
    with pytest.raises(ValidationError, match="two distinct taus"):
        fit_loglog_slope([10.0, 10.0], [0.1, 0.2])


def test_scaling_fit_slope():
    fit = scaling_fit(0.85, [10, 20, 40, 80], reps=3000)
    assert -1.3 <= fit.slope <= -0.7
    assert len(fit.points) == 4
    assert all(pt.mean_sigma > 0 for pt in fit.points)
    for pt in fit.points:
        mean, sd = sigma_moments(0.85, ProtocolSchedule.linear(pt.tau))
        assert (pt.mean_sigma, pt.sd, pt.reps) == (mean, sd, 3000)
        assert pt.stderr == sd / math.sqrt(3000)


def test_scaling_fit_regime_error():
    # deep in the quasistatic regime, where 100-rep Monte Carlo estimates
    # went negative at some seeds, the exact Sigma is positive; only a
    # Sigma that is exactly <= 0 stops the fit
    template = lambda tau: ProtocolSchedule(tau=tau, steps=int(2 * tau))
    taus = [1600.0, 3200.0]
    fit = scaling_fit(0.85, taus, reps=100, sched_template=template)
    assert all(pt.mean_sigma > 0 for pt in fit.points)
    with pytest.raises(RegimeError) as err:
        scaling_fit(0.5, taus, reps=100, sched_template=template)
    for tau in taus:
        assert f"tau={tau:g}: sigma=0+-0" in str(err.value)


def test_scaling_fit_needs_two_points():
    with pytest.raises(ValidationError):
        scaling_fit(0.85, [1e6], reps=100)


def test_custom_gap_path():
    # a valid nonlinear ramp ending at zero still satisfies the first law
    path = lambda s: 1.7 * (1.0 - s) ** 2
    sched = ProtocolSchedule(tau=20.0, steps=200, gap_path=path)
    w, q, de = trajectory_energy_audit(0.85, sched, seed=2)
    assert abs(de) < 1e-10
    assert abs(q - w) < 1e-10


# ---------------------------------------------------------------------------
# the sampler's law, against references built from the Glauber chain itself


def _gaps(p, sched):
    eps = math.log(p / (1 - p))
    path = sched.gap_path or (lambda s: eps * (1 - s))
    return [path(k / sched.steps) for k in range(sched.steps + 1)]


def _exact_work_law(p, sched):
    """{work: probability} over all 2^(steps+1) state paths.

    A Glauber step flips to the target level with probability
    rate*dt * pi_target, pi_other = 1/(1 + e^gap); work is the gap drop at
    fixed state after the assignment quench -gap[0]*s0.
    """
    g = _gaps(p, sched)
    c = sched.rate * sched.tau / sched.steps
    law = {}
    for path in itertools.product((0, 1), repeat=sched.steps + 1):
        prob = 1 - p if path[0] else p
        work = -g[0] * path[0]
        for k in range(1, sched.steps + 1):
            pi_other = 1 / (1 + math.exp(g[k]))
            flip = c * (pi_other if path[k - 1] == 0 else 1 - pi_other)
            prob *= flip if path[k] != path[k - 1] else 1 - flip
            work += (g[k - 1] - g[k]) * path[k - 1]
        key = round(work, 9)
        law[key] = law.get(key, 0.0) + prob
    return law


def _chi2_bound(df, z=5.0):
    # Wilson-Hilferty upper quantile of chi-square at the normal z
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def _work_chi2(p, sched, reps, seed):
    """(chi-square, its 5-sigma bound) of sampled works against the law."""
    law = _exact_work_law(p, sched)
    values = np.array(sorted(law))
    works = np.round(np.concatenate(
        [w for w, _, _ in dynamics._run_batch(p, sched, reps, seed)]), 9)
    idx = np.searchsorted(values, works)
    assert np.array_equal(values[np.minimum(idx, values.size - 1)], works), \
        "a work value off the law"
    observed = np.bincount(idx, minlength=values.size)
    expected = reps * np.array([law[v] for v in values])
    # pool the cells expected below 5 counts into one
    small = expected < 5
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    keep = exp > 0
    chi2 = float(np.sum((obs[keep] - exp[keep]) ** 2 / exp[keep]))
    return chi2, _chi2_bound(keep.sum() - 1)


def test_sampled_work_matches_exact_path_law():
    # linear ramp, a custom gap_path and rate*dt = 1 (every step resamples)
    scheds = [ProtocolSchedule(tau=2.0, steps=4),
              ProtocolSchedule(tau=3.0, steps=4,
                               gap_path=lambda s: 2.5 * (1 - s) ** 2),
              ProtocolSchedule(tau=4.0, steps=4)]
    for sched in scheds:
        chi2, bound = _work_chi2(0.8, sched, 200_000, 11)
        assert chi2 < bound, (sched, chi2)


def test_blocks_sample_the_same_law(monkeypatch):
    # blocks of 3 reps, the last one short, each from its own sub-stream
    monkeypatch.setattr(dynamics, "_BLOCK_REPS", 3)
    sched = ProtocolSchedule(tau=4.0, steps=8)
    sizes = [w.size for w, _, _ in dynamics._run_batch(0.8, sched, 10, 12)]
    assert sizes == [3, 3, 3, 1]
    chi2, bound = _work_chi2(0.8, sched, 10_000, 12)
    assert chi2 < bound, chi2


def _exact_mean_sigma(p, sched):
    # q_k = P(other level after update k) = q_{k-1} + c (pi_k - q_{k-1})
    g = _gaps(p, sched)
    c = sched.rate * sched.tau / sched.steps
    q = 1 - p
    work = -g[0] * q
    for k in range(1, sched.steps + 1):
        work += (g[k - 1] - g[k]) * q
        q += c * (1 / (1 + math.exp(g[k])) - q)
    return LN2 * (1 - h2(p)) - work


def test_mean_sigma_matches_exact_recursion():
    for p in (0.8, 0.85, 0.95):
        for tau in (2.5, 10.0, 80.0):
            sched = ProtocolSchedule.linear(tau)
            est = estimate_sigma(p, sched, reps=100_000, seed=21)
            exact = _exact_mean_sigma(p, sched)
            assert abs(est.mean_sigma - exact) < 4 * est.stderr, \
                (p, tau, est.mean_sigma, exact, est.stderr)


def test_sampler_memory_bounded_by_blocks():
    # two blocks, the second one short: memory holds the gap grid and one
    # block's states, never a state per (rep, step)
    reps = dynamics._BLOCK_REPS + 3000
    sched = ProtocolSchedule.linear(100.0)
    tracemalloc.start()
    try:
        estimate_sigma(0.85, sched, reps=reps, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # reps * steps states would take 19.4 MB as bools, 155 MB as floats
    assert peak < 4 * 2**20 < reps * sched.steps, peak


def test_jarzynski_equality():
    # sigma is the dissipated work of the ramp from the Gibbs state of the
    # assigned gap, and every update keeps detailed balance at its gap, so
    # <exp(-sigma)> = 1 exactly for any gap_path, rate and tau
    eps = math.log(0.9 / 0.1)
    cases = [(0.85, ProtocolSchedule.linear(2.5)),
             (0.85, ProtocolSchedule.linear(40.0)),
             (0.99, ProtocolSchedule.linear(10.0)),
             (0.9, ProtocolSchedule(tau=5.0, steps=100,
                                    gap_path=lambda s: eps * (1 - s) ** 2))]
    for p, sched in cases:
        est = estimate_sigma(p, sched, 200_000, 31)
        assert abs(est.exp_neg_sigma - 1.0) < 4 * est.exp_neg_sigma_stderr, \
            (p, sched.tau, est.exp_neg_sigma, est.exp_neg_sigma_stderr)


def test_regime_error_names_exact_points():
    # p=0.78, tau=80 at seed 11 read -0.00018 +- 0.00202 by Monte Carlo and
    # stopped the fit; the exact Sigma(80) is +0.0042, and the fit runs
    fit = scaling_fit(0.78, [10, 20, 40, 80], reps=2000)
    assert f"{fit.points[-1].mean_sigma:.9g}" == "0.00415201349"
    # p = 1/2 has no dissipation: every Sigma is exactly 0 with stderr 0,
    # and the message asks for no more reps
    with pytest.raises(RegimeError) as err:
        scaling_fit(0.5, [10, 20], reps=200)
    text = str(err.value)
    assert "tau=10: sigma=0+-0;" in text and "tau=20: sigma=0+-0)" in text
    assert "exact" in text and "--reps" not in text and "z=" not in text


# ---------------------------------------------------------------------------
# the exact recursion


def _path_moments(p, sched):
    """(mean, sd) of sigma summed over all 2^(steps+1) state paths."""
    g = _gaps(p, sched)
    c = sched.rate * sched.tau / sched.steps
    w = (math.log(2 * p), math.log(2 * (1 - p)))
    m1, m2 = [], []
    for path in itertools.product((0, 1), repeat=sched.steps + 1):
        prob = 1 - p if path[0] else p
        sigma = w[path[0]] + g[0] * path[0]
        for k in range(1, sched.steps + 1):
            pi_other = 1 / (1 + math.exp(g[k]))
            flip = c * (pi_other if path[k - 1] == 0 else 1 - pi_other)
            prob *= flip if path[k] != path[k - 1] else 1 - flip
            sigma -= (g[k - 1] - g[k]) * path[k - 1]
        m1.append(prob * sigma)
        m2.append(prob * sigma * sigma)
    mean = math.fsum(m1)
    return mean, math.sqrt(math.fsum(m2) - mean * mean)


def test_sigma_moments_match_path_enumeration():
    # linear ramp, a custom gap_path that does not start at the posterior
    # gap, rate*dt = 1, a rate != 1, and rate*dt underflowed to 0
    scheds = [(0.8, ProtocolSchedule(tau=2.0, steps=4)),
              (0.8, ProtocolSchedule(tau=3.0, steps=4,
                                     gap_path=lambda s: 2.5 * (1 - s) ** 2)),
              (0.8, ProtocolSchedule(tau=4.0, steps=4)),
              (0.7, ProtocolSchedule(tau=1.0, steps=10, rate=2.0,
                                     gap_path=lambda s: math.sin(7 * s)
                                     * (1 - s))),
              (0.9, ProtocolSchedule(tau=5e-324, steps=4))]
    for p, sched in scheds:
        mean, sd = sigma_moments(p, sched)
        ref_mean, ref_sd = _path_moments(p, sched)
        assert abs(mean - ref_mean) < 1e-12, (p, sched)
        assert abs(sd - ref_sd) < 1e-12, (p, sched)
    # frozen state: sigma is the paired quasistatic work ln 2q(s0)
    assert sigma_moments(0.9, scheds[-1][1]) == pytest.approx(
        (LN2 * (1 - h2(0.9)), math.log(9) * math.sqrt(0.09)), abs=1e-15)


def test_sigma_moments_carry_across_chunks(monkeypatch):
    sched = ProtocolSchedule(tau=30.0, steps=400,
                             gap_path=lambda s: 2.0 * (1 - s) ** 1.5)
    one = sigma_moments(0.85, sched)
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    assert sigma_moments(0.85, sched) == pytest.approx(one, rel=1e-13)


def _state_moments(p, sched):
    """(mean, sd) of sigma from (P_s, E[sigma; s], E[sigma^2; s]) per state,
    stepped through the schedule one update at a time."""
    g = _gaps(p, sched)
    c = sched.rate * sched.tau / sched.steps
    b1 = math.log(2 * (1 - p)) + g[0]
    prob = [p, 1 - p]
    m1 = [p * math.log(2 * p), (1 - p) * b1]
    m2 = [p * math.log(2 * p) ** 2, (1 - p) * b1 * b1]
    for k in range(1, sched.steps + 1):
        d = g[k - 1] - g[k]  # the gap drop lowers sigma in state 1
        m2[1] += d * d * prob[1] - 2 * d * m1[1]
        m1[1] -= d * prob[1]
        up = c / (1 + math.exp(g[k]))
        down = c - up
        for x in (prob, m1, m2):
            x[0], x[1] = ((1 - up) * x[0] + down * x[1],
                          up * x[0] + (1 - down) * x[1])
    mean = sum(m1)
    return mean, math.sqrt(sum(m2) - mean * mean)


def test_exact_moments_match_step_recursions():
    # the (p, tau) points of the benchmark's dissipation workload
    plan = [(0.95, (5, 10, 20)), (0.8, (2.5, 5, 10)), (0.85, (5, 10, 20)),
            (0.9, (5, 10, 20, 40)), (0.85, (10, 20, 40)),
            (0.95, (10, 20, 40, 80)), (0.9, (10, 20, 40, 80))]
    for p, taus in plan:
        for tau in taus:
            sched = ProtocolSchedule.linear(tau)
            mean, sd = sigma_moments(p, sched)
            ref_mean, ref_sd = _state_moments(p, sched)
            assert abs(mean - ref_mean) < 1e-12, (p, tau)
            assert abs(sd - ref_sd) < 1e-12, (p, tau)


def test_monte_carlo_matches_exact_moments():
    quadratic = ProtocolSchedule(tau=5.0, steps=100,
                                 gap_path=lambda s: 2.0 * (1 - s) ** 2)
    for p, sched in [(0.85, ProtocolSchedule.linear(10.0)),
                     (0.95, ProtocolSchedule.linear(40.0)), (0.8, quadratic)]:
        mean, sd = sigma_moments(p, sched)
        est = estimate_sigma(p, sched, 200_000, 41)
        assert abs(est.mean_sigma - mean) < 4 * sd / math.sqrt(est.reps), \
            (p, sched.tau, est.mean_sigma, mean)
        sample_sd = est.stderr * math.sqrt(est.reps)
        assert abs(sample_sd / sd - 1) < 0.01, (p, sched.tau, sample_sd, sd)


def test_monte_carlo_sub_seeds():
    sched = ProtocolSchedule.linear(10.0)
    a = estimate_sigma(0.85, sched, 1000, (7, 1))
    assert a == estimate_sigma(0.85, sched, 1000, (7, 1))
    assert a.seed == (7, 1)
    assert a != estimate_sigma(0.85, sched, 1000, (7, 2))
    # an integer seed draws from (seed, block), as before sub-seeds existed
    first = [next(dynamics._run_batch(0.85, sched, 1000, key))[0]
             for key in (7, (7,))]
    assert np.array_equal(*first)


def test_sigma_moments_memory_bounded():
    # 10^6 steps in chunks: the gap grid alone would take 8 MB
    sched = ProtocolSchedule(tau=1e5, steps=10**6)
    tracemalloc.start()
    try:
        mean, sd = sigma_moments(0.85, sched)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < mean < 1e-4 and sd > 0
    assert peak < 2**20, peak
