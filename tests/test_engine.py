import dataclasses
import functools
import json
import math
from collections import Counter

import numpy as np
import pytest

from xorszilard import (ValidationError, branch_decomposition, branch_works,
                        class_ceilings, class_report, correlator_behaviour,
                        cycle_ledger, enumerate_rounds,
                        exact_memory_ledger, make_chained, make_chsh,
                        memory_ledger, merge_stats, mix_with_uniform,
                        mutual_information, noise_threshold, pr_box,
                        simulate_rounds, small_bias_work, sweep_s_curve,
                        uniform_behaviour)
from xorszilard.engine import LN2
from xorszilard.games import XorGame, deterministic_behaviour

from oracles import noise_threshold_bisect, quantum_optimal_chsh

Q_CHSH = math.cos(math.pi / 8) ** 2


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


# ---------------------------------------------------------------------------
# branch protocol


def test_posterior_branch():
    # the branch matched to q: ln 2q on a hit, ln 2(1-q) on a miss; their
    # difference is the posterior-matched gap ln(q/(1-q))
    w_hit, w_miss = branch_works(0.75)
    assert w_hit - w_miss == pytest.approx(math.log(3.0), abs=1e-12)
    assert branch_works(0.5) == (0.0, 0.0)
    # a certain hit: the miss of q = 1 is impossible and costs -inf
    assert branch_works(1.0) == (LN2, -math.inf)


def test_posterior_rejects_unoriented():
    for q in (0.3, 0.4999999, 1.0000001, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="orient the channel"):
            branch_works(q)


def test_branch_decomposition_identity():
    # assignment + return strokes sum to ln2 * mutual information on a p
    # grid, independently of the Hamiltonian energy zero
    for i in range(50):
        p = 0.5 + 0.01 * i
        want = LN2 * mutual_information(p)
        for offset in (-5.0, 0.0, 3.0):
            assign, ret = branch_decomposition(p, offset_kt=offset)
            assert abs(assign + ret - want) < 1e-12
        assign0, ret0 = branch_decomposition(p)
        assert assign0 == pytest.approx(
            sum(q * math.log(q) for q in (p, 1 - p) if q > 0), abs=1e-12)
        assert ret0 == LN2


def test_trajectory_work():
    w_hit, w_miss = branch_works(0.75)
    assert w_hit == pytest.approx(math.log(1.5), abs=1e-12)
    assert w_miss == pytest.approx(math.log(0.5), abs=1e-12)
    # posterior average equals ln2 * mutual information
    avg = 0.75 * w_hit + 0.25 * w_miss
    assert abs(avg - LN2 * mutual_information(0.75)) < 1e-12


def test_posterior_average_identity_grid():
    for i in range(1, 50):
        p = 0.5 + 0.01 * i
        w_hit, w_miss = branch_works(p)
        avg = p * w_hit + (1 - p) * w_miss
        assert abs(avg - LN2 * mutual_information(p)) < 1e-12


def test_feedback_value():
    # the average reversible feedback work is the channel mutual information
    assert abs(mutual_information(0.75) - 0.188722) < 1e-6
    assert abs(mutual_information(Q_CHSH) - 0.3991) < 5e-5
    assert mutual_information(1.0) == 1.0
    # bias form agrees
    for p in (0.5, 0.6, 0.75, 0.9):
        beta = 2 * p - 1
        assert abs(mutual_information(p)
                   - (1 - h2((1 + beta) / 2))) < 1e-12


def test_class_ceilings_chsh():
    rep = class_report(make_chsh(), seed=2)
    w_l, w_q, w_ns = class_ceilings(rep)
    assert abs(w_l - 0.188722) < 5e-4
    assert abs(w_q - 0.399134) < 5e-4
    assert w_ns == 1.0
    assert w_l < w_q < w_ns


def test_class_ceilings_chained3():
    rep = class_report(make_chained(3), seed=2)
    w_l, w_q, w_ns = class_ceilings(rep)
    assert abs(w_l - (1 - h2(5 / 6))) < 1e-12
    assert abs(w_q - (1 - h2(math.cos(math.pi / 12) ** 2))) < 1e-6
    assert w_ns == 1.0


def test_class_ceilings_equal_values_map_equal():
    made = [mutual_information(0.8) for _ in range(3)]
    assert made[0] == made[1] == made[2]


# ---------------------------------------------------------------------------
# cycle ledger


def test_cycle_ledger_examples():
    assert cycle_ledger(1.0).w_net_bits == 0.0
    assert abs(cycle_ledger(0.75).w_net_bits + 0.811278) < 1e-6
    assert cycle_ledger(0.5).w_net_bits == -1.0


def test_cycle_ledger_invariants():
    for i in range(101):
        p = i / 100.0
        led = cycle_ledger(p)
        assert led.w_fb_bits == led.i_bits
        assert led.w_reset_bits == led.h_g_bits == 1.0
        assert led.w_net_bits == -led.h_g_given_x_bits
        assert led.w_net_bits <= 0.0
        if p in (0.0, 1.0):
            assert led.w_net_bits == 0.0
        else:
            assert led.w_net_bits < 0.0


# ---------------------------------------------------------------------------
# memory scope


def test_exact_memory_ledger_pr_box():
    g = make_chsh()
    h_g, h_m, ok = exact_memory_ledger(g, pr_box(g))
    assert abs(h_g - 1.0) < 1e-12
    assert abs(h_m - 4.0) < 1e-12
    assert ok


def test_exact_memory_ledger_single_question():
    g = XorGame(name="pair", mu=[[1.0]], f=[[0]])
    # deterministic outputs: the transcript only carries the thermal bit
    h_g, h_m, ok = exact_memory_ledger(g, deterministic_behaviour([0], [0]))
    assert abs(h_g - 1.0) < 1e-12
    assert abs(h_m - 1.0) < 1e-12
    assert ok
    # uniform outputs add two output bits to the transcript
    h_g, h_m, ok = exact_memory_ledger(g, uniform_behaviour(g))
    assert abs(h_g - 1.0) < 1e-12
    assert abs(h_m - 3.0) < 1e-12
    assert ok


def test_memory_ledger_sampled_batches():
    g = make_chsh()
    for seed, b in [(1, quantum_optimal_chsh()), (2, uniform_behaviour(g)),
                    (3, pr_box(g))]:
        _, rounds, cells = simulate_rounds(g, b, 4000, seed=seed,
                                           keep_records=True)
        h_g, h_m, ok = memory_ledger(rounds, cells)
        assert ok
        assert h_m >= h_g - 1e-9
        assert 0.0 <= h_g <= 1.0
    with pytest.raises(ValidationError):
        memory_ledger(enumerate_rounds(g, pr_box(g))[1], [])


def test_memory_ledger_matches_transcript_counts():
    # the plug-in entropy of the (g, u, v, r, a, b) tuples themselves
    g = make_chained(3)
    b = mix_with_uniform(pr_box(g), 0.6)
    _, rounds, cells = simulate_rounds(g, b, 5000, seed=8, keep_records=True)
    counts = Counter(tuple(int(rounds[k][i]) for k in "guvrab")
                     for i in cells)
    h_m = -math.fsum(c / 5000 * math.log2(c / 5000) for c in counts.values())
    g_counts = Counter(int(rounds.g[i]) for i in cells)
    h_g = -math.fsum(c / 5000 * math.log2(c / 5000)
                     for c in g_counts.values())
    got_g, got_m, ok = memory_ledger(rounds, cells)
    assert got_m == pytest.approx(h_m, abs=1e-12)
    assert got_g == pytest.approx(h_g, abs=1e-12)
    assert ok


# ---------------------------------------------------------------------------
# Monte Carlo


def test_simulate_pr_box_exact():
    g = make_chsh()
    stats = simulate_rounds(g, pr_box(g), 20000, seed=5)
    assert stats.empirical_p == 1.0
    assert stats.mean_work_kt == LN2
    assert stats.analytic_work_kt == LN2
    assert stats.stderr_kt == 0.0


@pytest.mark.parametrize("n, parts", [
    (n, k) for n in (1, 7, 128, 20_000, 100_000) for k in (1, 3) if k <= n])
def test_simulate_pr_box_exact_any_batch_size(n, parts):
    # a per-round float sum misses ln 2 by an ulp for some of these n, or
    # reports a nonzero spread; the mean of n equal works must be that work,
    # whether the n rounds are one batch or a merge of several
    g = make_chsh()
    base, extra = divmod(n, parts)
    batches = [simulate_rounds(g, pr_box(g), base + (k < extra), seed=5 + k)
               for k in range(parts)]
    stats = functools.reduce(merge_stats, batches)
    assert stats.rounds == n
    assert stats.empirical_p == 1.0
    assert stats.mean_work_kt == LN2
    assert stats.stderr_kt == 0.0


def test_simulate_all_miss_batch_is_exact():
    # CHSH's local-optimal strategy wins 3/4 of the rounds, and the one
    # round of seed 3 misses: the mean is the miss work, with no spread
    b = deterministic_behaviour([0, 0], [0, 0])
    stats = simulate_rounds(make_chsh(), b, 1, seed=3)
    assert (stats.p_model, stats.hits) == (0.75, 0)
    assert stats.mean_work_kt == math.log(0.5)
    assert stats.stderr_kt == 0.0


def test_simulate_uniform_zero_work():
    g = make_chsh()
    stats = simulate_rounds(g, uniform_behaviour(g), 5000, seed=6, p_model=0.5)
    assert stats.mean_work_kt == 0.0
    assert abs(stats.empirical_p - 0.5) < 0.03


def test_simulate_quantum_optimal():
    g = make_chsh()
    stats = simulate_rounds(g, quantum_optimal_chsh(), 200_000, seed=7)
    se_p = math.sqrt(Q_CHSH * (1 - Q_CHSH) / stats.rounds)
    assert abs(stats.empirical_p - Q_CHSH) < 4 * se_p
    assert abs(stats.mean_work_kt - stats.analytic_work_kt) < 4 * stats.stderr_kt
    assert stats.analytic_work_kt == pytest.approx(LN2 * (1 - h2(Q_CHSH)), abs=1e-12)


def test_simulate_mismatched_model():
    # true p = 0.75, controller believes 0.9; two-outcome expectation:
    # 0.75*ln(1.8) + 0.25*ln(0.2)
    g = make_chsh()
    b = mix_with_uniform(pr_box(g), 0.5)
    stats = simulate_rounds(g, b, 300_000, seed=8, p_model=0.9)
    expect = 0.75 * math.log(1.8) + 0.25 * math.log(0.2)
    assert stats.analytic_work_kt == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.038480520568064, abs=1e-12)
    assert abs(stats.mean_work_kt - expect) < 4 * stats.stderr_kt


def test_simulate_noise_targets_effective_p():
    g = make_chsh()
    stats = simulate_rounds(g, pr_box(g), 200_000, seed=9, noise_delta=0.1)
    se_p = math.sqrt(0.9 * 0.1 / stats.rounds)
    assert abs(stats.empirical_p - 0.9) < 4 * se_p
    assert stats.analytic_work_kt == pytest.approx(
        LN2 * (1 - h2(0.9)), abs=1e-12)


def test_simulate_model_one_with_losses_errors():
    # rejected before any draw, so a lucky batch cannot pass: at seed 1 the
    # quantum CHSH behaviour wins all of 3 rounds, and its analytic work
    # under p_model = 1 would be -inf
    g = make_chsh()
    assert simulate_rounds(g, quantum_optimal_chsh(), 3, seed=1).hits == 3
    for b, n, seed in ((uniform_behaviour(g), 1000, 10),
                       (quantum_optimal_chsh(), 3, 1)):
        with pytest.raises(ValidationError, match="p = 1"):
            simulate_rounds(g, b, n, seed=seed, p_model=1.0)
    stats = simulate_rounds(g, pr_box(g), 100, seed=1, p_model=1.0)
    assert stats.analytic_work_kt == LN2 and stats.hits == 100


def test_simulate_rejects_bad_model():
    g = make_chsh()
    for q in (0.3, 1.5, math.nan):
        with pytest.raises(ValidationError, match="orient the channel"):
            simulate_rounds(g, pr_box(g), 100, seed=1, p_model=q)
    with pytest.raises(ValidationError):
        simulate_rounds(g, pr_box(g), 0, seed=1)


def anti_pr(game):
    """The box that always loses: a xor b = 1 - f(u, v)."""
    return correlator_behaviour(2.0 * game.f - 1.0)


def test_simulate_orients_a_losing_channel():
    # p < 1/2: the controller negates its bit, as channel.orient does, so
    # it hits exactly on the lost rounds of the same draws
    g = make_chsh()
    stats = simulate_rounds(g, anti_pr(g), 1000, seed=5)
    assert stats.flipped and stats.hits == 1000
    assert stats.mean_work_kt == stats.analytic_work_kt == LN2
    assert stats.to_json_dict()["flipped"] is True
    b = mix_with_uniform(anti_pr(g), 0.5)  # p = 1/4
    stats, rounds, cells = simulate_rounds(g, b, 5000, seed=3,
                                           keep_records=True)
    assert stats.flipped and stats.p_model == 0.75
    assert stats.hits == np.count_nonzero(~rounds.won[cells])
    assert stats.analytic_work_kt == pytest.approx(LN2 * (1 - h2(0.75)),
                                                   abs=1e-12)
    # noise and orientation compose: p_eff = 0.1 orients to 0.9
    stats = simulate_rounds(g, anti_pr(g), 200_000, seed=9, noise_delta=0.1)
    assert stats.flipped
    assert abs(stats.empirical_p - 0.9) < 4 * math.sqrt(0.09 / 200_000)
    # a channel at or above 1/2 is never flipped, and its JSON says nothing
    stats = simulate_rounds(g, uniform_behaviour(g), 100, seed=1)
    assert not stats.flipped and "flipped" not in stats.to_json_dict()


def test_simulate_memory_constant_in_n():
    # one multinomial draw per batch: 10^8 rounds cost no per-round memory
    g = make_chsh()
    stats = simulate_rounds(g, quantum_optimal_chsh(), 10 ** 8, seed=7)
    se_p = math.sqrt(Q_CHSH * (1 - Q_CHSH) / stats.rounds)
    assert abs(stats.empirical_p - Q_CHSH) < 4 * se_p
    assert abs(stats.mean_work_kt - stats.analytic_work_kt) < 4 * stats.stderr_kt


def test_simulate_records_match_stats():
    g = make_chsh()
    b = quantum_optimal_chsh()
    stats, rounds, cells = simulate_rounds(g, b, 2000, seed=11,
                                           keep_records=True)
    assert np.array_equal(rounds, enumerate_rounds(g, b)[1])
    records = rounds[cells]
    assert len(records) == 2000
    assert stats.empirical_p == pytest.approx(
        sum(r.won for r in records) / 2000, abs=1e-15)


def test_simulate_records_compact_cells():
    # the smallest unsigned dtype that indexes the table: CHSH has 32 cells,
    # chained:6 has 288; the shuffle draws as it does on int64
    for g, dtype in ((make_chsh(), np.uint8), (make_chained(6), np.uint16)):
        b = mix_with_uniform(pr_box(g), 0.75)
        _, _, cells = simulate_rounds(g, b, 5000, seed=3, keep_records=True)
        assert cells.dtype == dtype
        rng = np.random.default_rng([3, 0])
        probs = enumerate_rounds(g, b)[0]
        support = np.flatnonzero(probs > 0.0)
        counts = rng.multinomial(5000, probs[support] / math.fsum(probs[support]))
        reference = np.repeat(support, counts)
        rng.shuffle(reference)
        assert np.array_equal(cells, reference)


def test_simulate_streams_deterministic_and_mergeable():
    g = make_chsh()
    b = quantum_optimal_chsh()
    assert simulate_rounds(g, b, 30_000, seed=12) \
        == simulate_rounds(g, b, 30_000, seed=12)
    parts = [simulate_rounds(g, b, 10_000, seed=s) for s in (20, 21, 22)]
    left = merge_stats(merge_stats(parts[0], parts[1]), parts[2])
    right = merge_stats(parts[0], merge_stats(parts[1], parts[2]))
    assert left.rounds == 30_000
    assert left.to_json_dict() == right.to_json_dict()


def test_monte_carlo_consistency_suite():
    # 10^6 rounds per behaviour, fixed seeds: mean within 4 standard errors
    g = make_chsh()
    cases = [(31, pr_box(g)), (32, quantum_optimal_chsh()),
             (33, mix_with_uniform(pr_box(g), 0.7)), (34, uniform_behaviour(g))]
    for seed, b in cases:
        stats = simulate_rounds(g, b, 10 ** 6, seed=seed)
        assert abs(stats.mean_work_kt - stats.analytic_work_kt) \
            <= 4 * stats.stderr_kt


def test_merge_stats_exact_batches_stay_exact():
    g = make_chsh()
    merged = merge_stats(simulate_rounds(g, pr_box(g), 10_000, seed=1),
                         simulate_rounds(g, pr_box(g), 10_001, seed=2))
    assert merged.rounds == 20_001
    assert merged.empirical_p == 1.0
    assert merged.mean_work_kt == LN2
    assert merged.stderr_kt == 0.0


def test_merge_stats_equals_pooled_counts():
    # the stats of the summed counts, by the two-valued work formulas
    g = make_chsh()
    b = quantum_optimal_chsh()
    parts = [simulate_rounds(g, b, n, seed=s)
             for n, s in ((10_000, 20), (3, 21), (25_001, 22))]
    merged = functools.reduce(merge_stats, parts)
    n = sum(p.rounds for p in parts)
    hits = sum(p.hits for p in parts)
    q = parts[0].p_model
    w_hit, w_miss = math.log(2.0 * q), math.log(2.0 * (1.0 - q))
    p_hat = hits / n
    assert merged.to_json_dict() == {
        "rounds": n,
        "empirical_p": p_hat,
        "mean_work_kt": p_hat * w_hit + (1.0 - p_hat) * w_miss,
        "stderr_kt": (w_hit - w_miss) * math.sqrt(hits * (n - hits) / (n - 1))
                     / n,
        "analytic_work_kt": parts[0].analytic_work_kt,
        "seeds": [20, 21, 22],
    }


def test_merged_seeds_never_read_as_a_tuple_seed():
    # (1, 2) merged with 3, 1 with 2 with 3, and one batch seeded (1, 2, 3)
    # once all recorded the seed (1, 2, 3)
    g = make_chsh()
    b = pr_box(g)
    pair = merge_stats(simulate_rounds(g, b, 10, seed=(1, 2)),
                       simulate_rounds(g, b, 10, seed=3))
    three = functools.reduce(merge_stats, [simulate_rounds(g, b, 10, seed=s)
                                           for s in (1, 2, 3)])
    single = simulate_rounds(g, b, 10, seed=(1, 2, 3))
    assert pair.seeds == ((1, 2), 3) and three.seeds == (1, 2, 3)
    assert single.seeds == ((1, 2, 3),)
    dicts = [x.to_json_dict() for x in (pair, three, single)]
    assert [d.get("seeds") for d in dicts] == [[[1, 2], 3], [1, 2, 3], None]
    assert [d.get("seed") for d in dicts] == [None, None, [1, 2, 3]]
    assert simulate_rounds(g, b, 10, seed=7).to_json_dict()["seed"] == 7


def test_numpy_scalar_inputs_give_json_results():
    # numpy seeds draw as their ints do, and a numpy p is stored as a float,
    # so every result serializes with the standard json module
    g = make_chsh()
    b = quantum_optimal_chsh()
    single = simulate_rounds(g, b, 1000, seed=np.int64(3))
    pair = simulate_rounds(g, b, 10, seed=(np.int64(1), 2))
    merged = merge_stats(single, simulate_rounds(g, b, 10, seed=np.int64(4)))
    ledger = cycle_ledger(np.float32(0.8))
    assert json.loads(json.dumps(single.to_json_dict()))["seed"] == 3
    assert json.loads(json.dumps(pair.to_json_dict()))["seed"] == [1, 2]
    assert json.loads(json.dumps(merged.to_json_dict()))["seeds"] == [3, 4]
    assert json.loads(json.dumps(ledger.to_json_dict()))["p"] == \
        float(np.float32(0.8))
    assert type(single.seeds[0]) is int and pair.seeds == ((1, 2),)
    assert single == simulate_rounds(g, b, 1000, seed=3)
    assert type(ledger.p) is float


def test_merge_stats_hits_exact_at_1e17_rounds():
    # a hit count rebuilt from a float success rate is off by units here
    g = make_chsh()
    b = quantum_optimal_chsh()
    a = simulate_rounds(g, b, 10 ** 17, seed=40)
    c = simulate_rounds(g, b, 10 ** 17, seed=41)
    merged = merge_stats(a, c)
    assert merged.rounds == 2 * 10 ** 17
    assert merged.hits == a.hits + c.hits
    assert merged.empirical_p == (a.hits + c.hits) / (2 * 10 ** 17)


def test_merge_stats_rejects_different_targets():
    g = make_chsh()
    a = simulate_rounds(g, pr_box(g), 100, seed=1)
    b = simulate_rounds(g, uniform_behaviour(g), 100, seed=1)
    with pytest.raises(ValidationError):
        merge_stats(a, b)
    with pytest.raises(ValidationError):
        merge_stats(a, dataclasses.replace(a, p_model=0.9))
    with pytest.raises(ValidationError, match="orientations"):
        merge_stats(a, dataclasses.replace(a, flipped=True))


# ---------------------------------------------------------------------------
# expansions, thresholds, sweep


def test_small_bias_work_values():
    # CHSH at S = 0.2 is beta = S/4 = 0.05: S^2/32 = beta^2/2
    assert small_bias_work(0.2 / 4, order=2) == pytest.approx(
        0.00125, abs=1e-15)
    assert small_bias_work(0.05) == small_bias_work(0.05, order=2)
    assert small_bias_work(0.0, order=4) == 0.0
    with pytest.raises(ValidationError):
        small_bias_work(0.1, order=3)


def test_small_bias_expansion_error_bounds():
    for s in (0.02, 0.05, 0.1, 0.15, 0.2):
        exact = LN2 * (1 - h2(0.5 + s / 8))
        err2 = abs(exact - small_bias_work(s / 4, order=2))
        assert err2 <= 2 * s ** 4 / 3072
        err4 = abs(exact - small_bias_work(s / 4, order=4))
        assert err4 <= err2
        # the S form S^2/32 + S^4/3072 is the bias form at beta = S/4
        assert small_bias_work(s / 4, order=4) == pytest.approx(
            s * s / 32 + s ** 4 / 3072, rel=4.5e-16)
    for beta in (0.01, 0.03, 0.05):
        exact = LN2 * (1 - h2(0.5 + beta / 2))
        assert abs(exact - small_bias_work(beta, order=4)) <= beta ** 6


def test_noise_threshold():
    d = noise_threshold(1.0, Q_CHSH)
    assert abs(d - math.sin(math.pi / 8) ** 2) < 1e-12
    assert abs(d - 0.146447) < 1e-6
    d2 = noise_threshold(0.95, Q_CHSH)
    assert abs(d2 - 0.107163) < 1e-6
    # vanishing margin
    assert noise_threshold(Q_CHSH + 1e-9, Q_CHSH) < 2e-9
    # bisection cross-check, to float resolution
    for p, w in [(1.0, Q_CHSH), (0.95, Q_CHSH), (0.9, 0.75)]:
        assert abs(noise_threshold(p, w) - noise_threshold_bisect(p, w)) < 1e-8
    assert abs(noise_threshold_bisect(1.0, Q_CHSH) - d) < 1e-15
    with pytest.raises(ValidationError):
        noise_threshold(0.8, Q_CHSH)


def test_sweep_s_curve():
    rows = sweep_s_curve([0.0, 2.0, 2 * math.sqrt(2.0), 4.0])
    assert rows[0][1] == 0.0
    assert abs(rows[1][1] - 0.188722) < 1e-6
    assert abs(rows[2][1] - 0.3991) < 5e-5
    assert rows[3][1] == 1.0
    for s, bits, kt in rows:
        assert kt == pytest.approx(bits * LN2, abs=1e-15)
    with pytest.raises(ValidationError):
        sweep_s_curve([5.0])
