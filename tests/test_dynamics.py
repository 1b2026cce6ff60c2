import math

import pytest

from xorszilard import (ProtocolSchedule, RegimeError, ValidationError,
                        estimate_sigma, fit_loglog_slope, scaling_fit,
                        trajectory_energy_audit)
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
    # deep in the quasistatic regime with few reps the estimate goes negative
    template = lambda tau: ProtocolSchedule.linear(tau, steps=int(2 * tau))
    with pytest.raises(RegimeError, match="tau=3200"):
        scaling_fit(0.85, [1600, 3200], reps=100, seed=0,
                    sched_template=template)


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
