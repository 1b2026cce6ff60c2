"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them inline).
All tolerances are fixed here; stochastic checks use pinned seeds.
"""

import math
import time

import pytest

from xorszilard import (ProtocolSchedule, branch_decomposition,
                        class_ceilings, class_report,
                        cycle_ledger, deterministic_behaviour,
                        enumerate_rounds, estimate_sigma, exact_memory_ledger,
                        game_value, is_nonsignalling, local_value, make_chained,
                        make_chsh, memory_ledger, mix_with_uniform,
                        mutual_information, noise_threshold, pr_box,
                        quantum_value, scaling_fit, simulate_rounds,
                        small_bias_work, uniform_behaviour)
from xorszilard.engine import LN2

from oracles import noise_threshold_bisect, quantum_optimal_chsh

Q_CHSH = math.cos(math.pi / 8) ** 2


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _pass(num, msg):
    print(f"ACCEPTANCE {num} PASS - {msg}")


def test_criterion_01_chsh_class_values():
    t0 = time.perf_counter()
    g = make_chsh()
    w_local, _, _ = local_value(g)
    w_quantum, state = quantum_value(g, tol=1e-12, seed=1234)
    w_ns, cert = (1.0, pr_box(g))
    cert_ok = is_nonsignalling(cert, tol=0.0).ok and game_value(g, cert) == 1.0
    elapsed = time.perf_counter() - t0
    assert w_local == 0.75
    assert abs(w_quantum - 0.85355339) < 1e-6
    assert w_ns == 1.0 and cert_ok
    assert elapsed < 1.0
    _pass(1, f"CHSH values (0.75, {w_quantum:.8f}, 1.0), certificate "
             f"nonsignalling, {elapsed:.2f}s")


def test_criterion_02_chsh_work_ceilings():
    t0 = time.perf_counter()
    rep = class_report(make_chsh(), seed=1234)
    w_l, w_q, w_ns = class_ceilings(rep)
    elapsed = time.perf_counter() - t0
    assert abs(w_l - 0.188722) < 5e-4
    assert abs(w_q - 0.399134) < 5e-4
    assert abs(w_ns - 1.0) < 5e-4
    assert elapsed < 1.0
    _pass(2, f"ceilings ({w_l:.6f}, {w_q:.6f}, {w_ns:.1f}) bits, {elapsed:.2f}s")


def test_criterion_03_chained_family():
    t0 = time.perf_counter()
    for n in range(2, 7):
        g = make_chained(n)
        w_local, _, _ = local_value(g)
        assert w_local == 1.0 - 1.0 / (2 * n)
        w_quantum, _ = quantum_value(g, tol=1e-12, seed=1234)
        assert abs(w_quantum - math.cos(math.pi / (4 * n)) ** 2) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _pass(3, f"chained N=2..6 local exact, quantum within 1e-6, {elapsed:.2f}s")


def test_criterion_04_bsc_oracle_equivalence():
    t0 = time.perf_counter()
    g = make_chsh()
    w_loc, amap, bmap = local_value(g)
    behaviours = {
        "pr": pr_box(g),
        "local-opt": deterministic_behaviour(g, amap, bmap),
        "quantum-opt": quantum_optimal_chsh(),
        "uniform": uniform_behaviour(g),
        "mix:pr:0.7": mix_with_uniform(pr_box(g), 0.7),
    }
    for label, b in behaviours.items():
        probs, rounds = enumerate_rounds(g, b)
        p_g0 = sum(probs[rounds.g == 0])
        cond = []
        for x in (0, 1):
            px = sum(probs[rounds.x == x])
            cond.append(sum(probs[(rounds.x == x) & (rounds.g == x)]) / px)
        w = game_value(g, b)
        assert abs(cond[0] - cond[1]) < 1e-12, label
        assert abs(cond[0] - w) < 1e-12, label
        assert abs(p_g0 - 0.5) < 1e-12, label
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _pass(4, f"exact enumeration: symmetric channel with p = game value on "
             f"{len(behaviours)} behaviours, {elapsed:.2f}s")


def test_criterion_05_monte_carlo_work():
    t0 = time.perf_counter()
    stats = simulate_rounds(make_chsh(), quantum_optimal_chsh(), 10 ** 6,
                            seed=7)
    elapsed = time.perf_counter() - t0
    se_p = math.sqrt(Q_CHSH * (1.0 - Q_CHSH) / stats.rounds)
    assert abs(stats.empirical_p - 0.853553) < 4 * se_p
    assert abs(stats.mean_work_kt - 0.276666) < 4 * stats.stderr_kt
    assert elapsed < 30.0
    _pass(5, f"10^6 rounds: p = {stats.empirical_p:.6f}, work = "
             f"{stats.mean_work_kt:.6f} kT (4-sigma bands), {elapsed:.2f}s")


def test_criterion_06_branch_decomposition():
    worst = 0.0
    p = 0.5
    while p < 0.995:
        want = LN2 * mutual_information(p)
        for offset in (-5.0, 0.0, 3.0):
            assign, ret = branch_decomposition(p, offset_kt=offset)
            worst = max(worst, abs(assign + ret - want))
        p += 0.01
    assert worst < 1e-12
    _pass(6, f"assignment + return = ln2*(1 - h2(p)) on the grid, offsets "
             f"{{-5, 0, 3}} cancel; worst gap {worst:.2e}")


def test_criterion_07_cycle_ledger():
    for i in range(101):
        p = i / 100.0
        led = cycle_ledger(p)
        assert abs(led.w_net_bits + h2(p)) < 1e-12
        assert led.w_net_bits <= 0.0
        if p in (0.0, 1.0):
            assert led.w_net_bits == 0.0
        else:
            assert led.w_net_bits < 0.0
    _pass(7, "w_net = -h2(p) <= 0 on p in [0, 1] step 0.01, zero only at "
             "the endpoints")


def test_criterion_08_noise_threshold():
    closed = noise_threshold(1.0, Q_CHSH)
    bisect = noise_threshold_bisect(1.0, Q_CHSH)
    assert abs(closed - 0.146447) < 1e-6
    assert abs(bisect - 0.146447) < 1e-3
    assert abs(closed - bisect) < 1e-8
    _pass(8, f"PR noise threshold {closed:.6f} (closed) / {bisect:.6f} "
             f"(bisection)")


def test_criterion_09_small_violation_expansion():
    s = 0.02
    while s <= 0.2 + 1e-12:
        exact = LN2 * (1.0 - h2(0.5 + s / 8.0))
        err2 = abs(exact - small_bias_work(s / 4.0, order=2))
        assert err2 <= 2.0 * s ** 4 / 3072.0
        s += 0.02
    exact = LN2 * (1.0 - h2(0.5 + 0.2 / 8.0))
    err2 = abs(exact - small_bias_work(0.2 / 4.0, order=2))
    err4 = abs(exact - small_bias_work(0.2 / 4.0, order=4))
    assert err4 <= err2 / 10.0
    _pass(9, f"S^2/32 error bounded by 2 S^4/3072 for S <= 0.2; order-4 "
             f"tightens {err2 / max(err4, 1e-300):.0f}x at S = 0.2")


def test_criterion_10_finite_time_scaling():
    t0 = time.perf_counter()
    fit = scaling_fit(0.85, [10.0, 20.0, 40.0, 80.0, 160.0], reps=20_000)
    for est in fit.points:
        assert est.mean_sigma > 3.0 * est.stderr, est
    assert -1.3 <= fit.slope <= -0.7
    qs = estimate_sigma(0.85, ProtocolSchedule.linear(3200.0), reps=2000,
                        seed=7)
    assert abs(qs.mean_sigma) <= 4.0 * qs.stderr
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _pass(10, f"Sigma > 0 at 3 sigma over tau in [10, 160], slope "
              f"{fit.slope:.3f}; quasistatic run recovers the analytic work "
              f"within 4 sigma, {elapsed:.1f}s")


def test_criterion_11_memory_scope():
    g = make_chsh()
    h_g, h_m, ok = exact_memory_ledger(g, pr_box(g))
    assert abs(h_g - 1.0) < 1e-12
    assert abs(h_m - 4.0) < 1e-12
    assert ok
    for seed, b in [(21, pr_box(g)), (22, quantum_optimal_chsh()),
                    (23, uniform_behaviour(g)),
                    (24, mix_with_uniform(pr_box(g), 0.7))]:
        _, rounds, cells = simulate_rounds(g, b, 3000, seed=seed,
                                           keep_records=True)
        s_h_g, s_h_m, s_ok = memory_ledger(rounds, cells)
        assert s_ok
        assert s_h_m >= s_h_g - 1e-9
    _pass(11, f"exact PR transcript: H(G) = {h_g:.1f}, H(M) = {h_m:.1f} bits; "
              f"H(M) >= H(G) on all sampled batches")
