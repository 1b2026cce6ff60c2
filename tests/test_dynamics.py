import itertools
import math
import tracemalloc

import numpy as np
import pytest

from xorszilard import (ProtocolSchedule, RegimeError, ValidationError,
                        estimate_sigma, fit_loglog_slope, scaling_fit,
                        trajectory_energy_audit)
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
    assert est.w_qs_kt == pytest.approx(LN2 * (1 - h2(0.85)), abs=1e-12)
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


def test_scaling_fit_slope():
    fit = scaling_fit(0.85, [10, 20, 40, 80], reps=3000, seed=7)
    assert -1.3 <= fit.slope <= -0.7
    assert len(fit.estimates) == 4
    assert all(e.mean_sigma > 0 for e in fit.estimates)


def test_scaling_fit_regime_error():
    # deep in the quasistatic regime with few reps an estimate can go
    # negative; the error names exactly the points whose estimate is <= 0
    template = lambda tau: ProtocolSchedule.linear(tau, steps=int(2 * tau))
    taus = [1600.0, 3200.0]
    named_3200 = 0
    for seed in range(10):
        bad = [tau for tau in taus
               if estimate_sigma(0.85, template(tau), 100, seed).mean_sigma <= 0]
        if not bad:
            scaling_fit(0.85, taus, reps=100, seed=seed, sched_template=template)
            continue
        with pytest.raises(RegimeError) as err:
            scaling_fit(0.85, taus, reps=100, seed=seed, sched_template=template)
        for tau in taus:
            assert (f"tau={tau:g}:" in str(err.value)) == (tau in bad), seed
        named_3200 += 3200.0 in bad
    assert named_3200 >= 1


def test_scaling_fit_needs_two_points():
    with pytest.raises(ValidationError):
        scaling_fit(0.85, [1e6], reps=100, seed=1)


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


def test_tiles_carry_state_across_windows(monkeypatch):
    # two expected events per tile: one rep per tile, 4-step windows
    monkeypatch.setattr(dynamics, "_TILE_EVENTS", 2)
    chi2, bound = _work_chi2(0.8, ProtocolSchedule(tau=4.0, steps=8),
                             10_000, 12)
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


def test_sampler_memory_bounded_by_tiles():
    # each trajectory draws ~10x a tile's expected events; tiles bound the
    # memory to the gap grid plus one tile, whatever the event count
    sched = ProtocolSchedule(tau=10 * dynamics._TILE_EVENTS,
                             steps=20 * dynamics._TILE_EVENTS)
    tracemalloc.start()
    try:
        estimate_sigma(0.85, sched, reps=100, seed=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the events of one estimate would take 100 * 163840 * 8 B = 131 MB per
    # array; the gap and Gibbs grids take 2.6 MB each
    assert peak < 16 * 2**20, peak


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
        w_right, w_wrong = math.log(2 * p), math.log(2 * (1 - p))
        x = np.concatenate([
            np.exp(works - np.where(other, w_wrong, w_right))
            for works, _, other in dynamics._run_batch(p, sched, 200_000, 31)])
        stderr = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) < 4 * stderr, (p, sched.tau, x.mean(), stderr)


def test_regime_error_gives_each_point_its_z():
    # tau=80 reads -0.00018 +- 0.00202 at seed 11, while the exact Sigma(80)
    # is +0.0042: Monte Carlo noise, which more reps resolve
    with pytest.raises(RegimeError) as err:
        scaling_fit(0.78, [10, 20, 40, 80], reps=2000, seed=11)
    text = str(err.value)
    assert "tau=80: sigma=-0.00018+-0.00202, z=-0.089, unresolved" in text
    assert "raise reps (--reps)" in text
    assert "tau=40:" not in text and "not noise" not in text
    # p = 1/2 has no dissipation: every estimate is exactly 0 with stderr 0
    with pytest.raises(RegimeError) as err:
        scaling_fit(0.5, [10, 20], reps=200, seed=11)
    text = str(err.value)
    assert "tau=10: sigma=0+-0;" in text and "not noise" in text
    assert "unresolved" not in text and "--reps" not in text
