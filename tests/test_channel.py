import csv
import itertools
import math
import tracemalloc

import pytest

from xorszilard import (BudgetError, ValidationError, XorGame, apply_noise,
                        binary_entropy, cycle_ledger, enumerate_rounds,
                        game_value, make_chained, make_chsh, mix_with_uniform,
                        mutual_information, orient, pr_box, rounds_to_csv,
                        simulate_rounds, uniform_behaviour)
from xorszilard.channel import MAX_CELLS

from oracles import compress, quantum_optimal_chsh, referee_encode


def test_referee_encode_xor_table():
    g = make_chsh()
    assert referee_encode(0, 1, 1, g) == 1
    assert referee_encode(1, 1, 1, g) == 0
    assert referee_encode(1, 0, 0, g) == 1
    # inverse identity x = r xor f(u,v)
    for x in (0, 1):
        for u in (0, 1):
            for v in (0, 1):
                r = referee_encode(x, u, v, g)
                assert x == r ^ int(g.f[u, v])


def test_referee_encode_range_checks():
    g = make_chsh()
    with pytest.raises(ValidationError):
        referee_encode(0, 2, 0, g)
    with pytest.raises(ValidationError):
        referee_encode(2, 0, 0, g)


def test_compress():
    assert compress(1, 0, 1) == 0
    assert compress(0, 0, 1) == 1
    assert compress(1, 1, 1) == 1


def test_win_iff_correct_prediction_all_assignments():
    # every cell of the round table against the scalar encoders: the
    # controller bit equals x exactly on winning rounds
    for game in (make_chsh(), make_chained(3)):
        probs, rounds = enumerate_rounds(game, uniform_behaviour(game))
        cells = list(itertools.product((0, 1), range(game.nu), range(game.nv),
                                       (0, 1), (0, 1)))
        assert len(rounds) == len(probs) == 8 * game.nu * game.nv == len(cells)
        for rec, (x, u, v, a, b) in zip(rounds, cells):
            assert (rec.x, rec.u, rec.v, rec.a, rec.b) == (x, u, v, a, b)
            assert rec.r == referee_encode(x, u, v, game)
            assert rec.g == compress(a, b, rec.r) == a ^ b ^ rec.r
            assert rec.e == rec.g ^ x
            assert rec.won == (rec.e == 0) == (rec.g == x)
            assert rec.won == (a ^ b == int(game.f[u, v]))
    # spot check from the definition: x=1, u=v=1, a=0, b=1 wins
    g = make_chsh()
    _, rounds = enumerate_rounds(g, pr_box(g))
    (rec,) = rounds[(rounds.x == 1) & (rounds.u == 1) & (rounds.v == 1)
                    & (rounds.a == 0) & (rounds.b == 1)]
    assert rec.r == 0 and rec.g == 1 and rec.won


def test_induced_channel_values():
    # the induced channel's success probability is the game value
    g = make_chsh()
    assert game_value(g, pr_box(g)) == 1.0
    assert game_value(g, uniform_behaviour(g)) == 0.5
    assert abs(game_value(g, quantum_optimal_chsh()) - 0.853553) < 1e-6


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.0) == 0.0
    assert abs(binary_entropy(0.75) - 0.8112781244591328) < 1e-12
    assert abs(binary_entropy(0.75) - (1 - 0.188722)) < 1e-6
    for p in (0.1, 0.3, 0.42):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)
    with pytest.raises(ValidationError):
        binary_entropy(1.2)


@pytest.mark.parametrize("p", [1e-300, 1e-20, 1e-12])
def test_binary_entropy_keeps_small_p_digits(p):
    # h2(p) ln 2 = p (1 - ln p) - p^2/2 + O(p^3); 1 - p rounds to 1 below
    # 2^-54, which would drop the p/ln 2 of the (1 - p) log2(1 - p) term
    series = (p * (1.0 - math.log(p)) - p * p / 2.0) / math.log(2.0)
    assert binary_entropy(p) == pytest.approx(series, rel=1e-15, abs=0.0)


def test_mutual_information_values():
    # any binary prediction task with success p feeds the engine as the
    # float p; an XOR game is the case guess = a xor b
    assert mutual_information(1.0) == 1.0
    assert mutual_information(0.5) == 0.0
    assert abs(mutual_information(0.8535533905932737) - 0.3991) < 5e-5
    assert abs(mutual_information(0.75) - 0.188722) < 1e-6
    assert abs(mutual_information(0.6) - 0.029049) < 1e-6


@pytest.mark.parametrize("p", [0.5 - 1e-7, 0.5 + 1e-7, 0.5 + 1e-9,
                               0.5 + 1e-5])
def test_mutual_information_keeps_digits_near_half(p):
    # I ln 2 = sum_k x^2k / (2k (2k - 1)) with x = 2p - 1, exact here;
    # 1 - h2(p) cancels nearly every digit, to 0.0 at p = 1/2 + 1e-9
    x = 2.0 * p - 1.0
    series = sum(x ** (2 * k) / (2 * k * (2 * k - 1))
                 for k in range(1, 6)) / math.log(2.0)
    assert mutual_information(p) == pytest.approx(series, rel=1e-15, abs=0.0)


def test_mutual_information_monotone_in_p():
    last = -1.0
    for i in range(51):
        p = 0.5 + 0.01 * i
        cur = mutual_information(min(p, 1.0))
        assert cur >= last
        if 0.5 < p < 1.0:
            assert cur > last
        last = cur


def test_apply_noise():
    assert apply_noise(1.0, 0.1) == pytest.approx(0.9, abs=1e-15)
    assert apply_noise(0.8, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert apply_noise(0.75, 0.25) == pytest.approx(0.625, abs=1e-15)
    with pytest.raises(ValidationError):
        apply_noise(0.9, 0.6)


def test_noise_composition():
    for p in (0.5, 0.6, 0.85, 1.0):
        for d1 in (0.0, 0.05, 0.2):
            for d2 in (0.0, 0.1, 0.4):
                once = apply_noise(apply_noise(p, d1), d2)
                combined = apply_noise(p, d1 + d2 - 2 * d1 * d2)
                assert abs(once - combined) < 1e-12


def test_orient():
    assert orient(0.3) == (0.7, True)
    assert orient(0.0) == (1.0, True)
    assert orient(0.5) == (0.5, False)
    assert orient(0.9) == (0.9, False)
    assert orient(1.0) == (1.0, False)
    for p in (0.1, 0.25, 0.77):
        oriented, _ = orient(p)
        assert mutual_information(oriented) == pytest.approx(
            mutual_information(p), abs=1e-12)


def exhaustive_channel_stats(game, behaviour):
    probs, rounds = enumerate_rounds(game, behaviour)
    assert abs(sum(probs) - 1.0) < 1e-12
    p_g0 = sum(probs[rounds.g == 0])
    cond = []
    for x in (0, 1):
        px = sum(probs[rounds.x == x])
        cond.append(sum(probs[(rounds.x == x) & (rounds.g == x)]) / px)
    return p_g0, cond[0], cond[1]


def test_induced_channel_is_binary_symmetric():
    g = make_chsh()
    behaviours = [pr_box(g), uniform_behaviour(g), quantum_optimal_chsh(),
                  mix_with_uniform(pr_box(g), 0.7)]
    for b in behaviours:
        p_g0, c0, c1 = exhaustive_channel_stats(g, b)
        w = game_value(g, b)
        assert abs(p_g0 - 0.5) < 1e-12
        assert abs(c0 - c1) < 1e-12
        assert abs(c0 - w) < 1e-12


def test_round_table_cell_budget():
    # 8 nu nv cells: chained:256's table is the largest accepted
    assert MAX_CELLS == 8 * 256 * 256
    nu, nv = 257, 256
    g = XorGame(name="wide", mu=[[1.0 / (nu * nv)] * nv] * nu, f=[[0] * nv] * nu)
    with pytest.raises(BudgetError, match="cells"):
        enumerate_rounds(g, uniform_behaviour(g))


def test_rounds_to_csv(tmp_path):
    g = make_chsh()
    rounds = enumerate_rounds(g, pr_box(g))[1]
    cells = list(range(8))
    path = tmp_path / "rounds.csv"
    rounds_to_csv(rounds, cells, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "u", "v", "a", "b", "r", "g", "e", "won"]
    assert len(rows) == 9
    first = rounds[cells[0]]
    assert rows[1] == [str(first.x), str(first.u), str(first.v), str(first.a),
                       str(first.b), str(first.r), str(first.g), str(first.e),
                       str(int(first.won))]
    # integer fields and the csv module's CRLF line ends
    assert path.read_bytes().startswith(
        b"x,u,v,a,b,r,g,e,won\r\n0,0,0,0,0,0,0,0,1\r\n")


def test_rounds_to_csv_memory_bounded(tmp_path):
    # 2e5 rounds in chunks of a few thousand rows: each chunk's gathered
    # lines, joined string and encoded bytes stay near 100 KB (chunks of
    # 2^16 rows peaked at 2.4 MB)
    g = make_chained(6)
    b = mix_with_uniform(pr_box(g), 0.75)
    _, rounds, cells = simulate_rounds(g, b, 200_000, seed=7,
                                       keep_records=True)
    tracemalloc.start()
    try:
        rounds_to_csv(rounds, cells, str(tmp_path / "rounds.csv"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_channel_rejects_bad_probability():
    # a channel is its success probability: every function taking it
    # checks that it lies in [0, 1]
    for p in (1.0000001, 1.1, -0.1, math.nan, math.inf):
        for take in (mutual_information, orient, cycle_ledger):
            with pytest.raises(ValidationError, match="outside"):
                take(p)
