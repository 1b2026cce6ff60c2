import math

import numpy as np
import pytest

from xorszilard import (Behaviour, CorrelatorMatrix, ValidationError, XorGame,
                        bias, chsh_S, correlators, deterministic_behaviour,
                        game_value, load_behaviour, load_game, make_chained,
                        make_chsh, mix_with_uniform, pr_box,
                        quantum_optimal_chsh, save_behaviour, save_game,
                        uniform_behaviour)

SQ2 = math.sqrt(2.0)


def random_behaviour(nu, nv, seed):
    rng = np.random.default_rng(seed)
    t = rng.random((nu, nv, 2, 2))
    t /= t.sum(axis=(2, 3), keepdims=True)
    return Behaviour(nu, nv, t)


def test_chsh_definition():
    g = make_chsh()
    assert (g.nu, g.nv) == (2, 2)
    assert g.f.tolist() == [[0, 0], [0, 1]]
    assert np.allclose(g.mu, 0.25, atol=0)
    # equal outputs win on (0,0); unequal outputs win on (1,1)
    assert g.f[0, 0] == 0
    assert g.f[1, 1] == 1


@pytest.mark.parametrize("n", [2, 3, 5])
def test_chained_structure(n):
    g = make_chained(n)
    nz = np.argwhere(g.mu > 0)
    assert len(nz) == 2 * n
    assert np.allclose(g.mu[g.mu > 0], 1.0 / (2 * n), atol=0)
    assert g.f[0, n - 1] == 1
    constrained = {(j, j) for j in range(n)} | {((j + 1) % n, j) for j in range(n)}
    for (u, v) in constrained - {(0, n - 1)}:
        assert g.f[u, v] == 0


def test_chained_rejects_small_n():
    with pytest.raises(ValidationError):
        make_chained(1)


def test_correlator_basics():
    # perfectly correlated slice -> +1, uniform -> 0
    t = np.zeros((1, 1, 2, 2))
    t[0, 0, 0, 0] = t[0, 0, 1, 1] = 0.5
    assert correlators(Behaviour(1, 1, t)).e[0, 0] == 1.0
    assert correlators(uniform_behaviour(make_chsh())).e.max() == 0.0


def test_quantum_optimal_correlator_pattern():
    e = correlators(quantum_optimal_chsh()).e
    want = np.array([[1, 1], [1, -1]]) / SQ2
    assert np.allclose(e, want, atol=1e-12)


def test_game_values_chsh():
    g = make_chsh()
    assert game_value(g, pr_box(g)) == 1.0
    assert game_value(g, uniform_behaviour(g)) == 0.5
    assert abs(game_value(g, quantum_optimal_chsh()) - math.cos(math.pi / 8) ** 2) < 1e-12


def test_bias_examples():
    g = make_chsh()
    assert bias(g, pr_box(g)) == pytest.approx(1.0, abs=1e-12)
    assert bias(g, uniform_behaviour(g)) == pytest.approx(0.0, abs=1e-12)
    assert bias(g, quantum_optimal_chsh()) == pytest.approx(SQ2 / 2, abs=1e-12)


def test_omega_bias_identity_random():
    g = make_chsh()
    for seed in range(8):
        b = random_behaviour(2, 2, seed)
        assert abs(game_value(g, b) - (1 + bias(g, b)) / 2) < 1e-12
    g3 = make_chained(3)
    for seed in range(4):
        b = random_behaviour(3, 3, 100 + seed)
        assert abs(game_value(g3, b) - (1 + bias(g3, b)) / 2) < 1e-12


def test_chsh_S_values():
    g = make_chsh()
    assert chsh_S(pr_box(g)) == pytest.approx(4.0, abs=1e-12)
    best_local = deterministic_behaviour(g, [0, 0], [0, 0])
    assert chsh_S(best_local) == pytest.approx(2.0, abs=1e-12)
    assert chsh_S(quantum_optimal_chsh()) == pytest.approx(2 * SQ2, abs=1e-12)
    # omega = 1/2 + S/8
    for seed in range(6):
        b = random_behaviour(2, 2, 30 + seed)
        assert abs(game_value(g, b) - (0.5 + chsh_S(b) / 8)) < 1e-12


def test_chsh_S_needs_two_questions():
    with pytest.raises(ValidationError):
        chsh_S(uniform_behaviour(make_chained(3)))


def test_pr_box_properties():
    for g in (make_chsh(), make_chained(3)):
        box = pr_box(g)
        assert game_value(g, box) == 1.0
        marg_a = box.table.sum(axis=3)
        assert np.allclose(marg_a, 0.5, atol=0)


def test_deterministic_behaviour():
    g = make_chsh()
    assert game_value(g, deterministic_behaviour(g, [0, 0], [0, 0])) == pytest.approx(0.75, abs=1e-12)
    assert game_value(g, deterministic_behaviour(g, [0, 1], [0, 0])) == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValidationError):
        deterministic_behaviour(g, [0], [0, 0])
    with pytest.raises(ValidationError):
        deterministic_behaviour(g, [0, 2], [0, 0])


def test_constructors_match_loop_form():
    # the per-cell loops these constructors replaced, as references
    rng = np.random.default_rng(31)
    for _ in range(20):
        nu, nv = (int(x) for x in rng.integers(1, 9, size=2))
        mu = rng.random((nu, nv))
        g = XorGame(name="r", nu=nu, nv=nv, mu=mu / mu.sum(),
                    f=rng.integers(0, 2, size=(nu, nv)))
        amap = rng.integers(0, 2, size=nu).tolist()
        bmap = rng.integers(0, 2, size=nv).tolist()
        box, det = np.zeros((nu, nv, 2, 2)), np.zeros((nu, nv, 2, 2))
        for u in range(nu):
            for v in range(nv):
                fb = int(g.f[u, v])
                box[u, v, 0, fb] = box[u, v, 1, 1 - fb] = 0.5
                det[u, v, amap[u], bmap[v]] = 1.0
        assert np.array_equal(pr_box(g).table, box)
        assert np.array_equal(deterministic_behaviour(g, amap, bmap).table, det)


def test_mix_with_uniform():
    g = make_chsh()
    box = pr_box(g)
    assert np.array_equal(mix_with_uniform(box, 1.0).table, box.table)
    assert game_value(g, mix_with_uniform(box, 0.0)) == pytest.approx(0.5, abs=1e-12)
    assert game_value(g, mix_with_uniform(box, 0.5)) == pytest.approx(0.75, abs=1e-12)
    for v in (0.0, 0.3, 0.7, 1.0):
        assert abs(bias(g, mix_with_uniform(box, v)) - v * bias(g, box)) < 1e-12
    with pytest.raises(ValidationError):
        mix_with_uniform(box, 1.5)


def test_value_and_correlator_ranges():
    g = make_chsh()
    for seed in range(10):
        b = random_behaviour(2, 2, 50 + seed)
        w = game_value(g, b)
        assert 0.0 <= w <= 1.0
        assert -1.0 <= bias(g, b) <= 1.0
        assert np.abs(correlators(b).e).max() <= 1.0 + 1e-12


def test_game_invariant_validation():
    with pytest.raises(ValidationError):
        XorGame(name="bad", nu=2, nv=2, mu=np.full((2, 2), 0.3), f=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        XorGame(name="bad", nu=2, nv=2,
                mu=np.array([[0.5, 0.5], [0.5, -0.5]]), f=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        XorGame(name="bad", nu=2, nv=2, mu=np.full((2, 2), 0.25),
                f=np.array([[0, 0], [0, 2]]))
    for x in (math.nan, math.inf):
        mu = np.full((2, 2), 0.25)
        mu[1, 0] = x
        with pytest.raises(ValidationError, match=r"non-finite entry at \[1\]\[0\]"):
            XorGame(name="bad", nu=2, nv=2, mu=mu, f=np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="'f'"):
        XorGame(name="bad", nu=2, nv=2, mu=np.full((2, 2), 0.25),
                f=np.array([[0, 0], [0, math.nan]]))


def test_behaviour_invariant_validation():
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 0, 0, 0] = 0.5  # slice sums to 1.25
    with pytest.raises(ValidationError):
        Behaviour(2, 2, t)
    t = np.full((2, 2, 2, 2), 0.25)
    t[1, 1] = [[0.5, 0.5], [0.5, -0.5]]
    with pytest.raises(ValidationError):
        Behaviour(2, 2, t)
    t = np.full((2, 2, 2, 2), 0.25)
    t[1, 0, 1, 0] = math.nan
    with pytest.raises(ValidationError, match=r"non-finite entry at \[1\]\[0\]\[1\]\[0\]"):
        Behaviour(2, 2, t)


def test_correlator_matrix_range():
    with pytest.raises(ValidationError):
        CorrelatorMatrix(e=np.array([[1.5]]))
    for x in (math.nan, -math.inf):
        with pytest.raises(ValidationError):
            CorrelatorMatrix(e=np.array([[0.5, x]]))


def test_behaviour_from_table_infers_shape():
    b = Behaviour.from_table(np.full((2, 3, 2, 2), 0.25))
    assert (b.nu, b.nv) == (2, 3)
    with pytest.raises(ValidationError):
        Behaviour.from_table(np.full((2, 2, 2), 0.25))


def test_tables_are_immutable():
    g = make_chsh()
    with pytest.raises(ValueError):
        g.mu[0, 0] = 0.3
    with pytest.raises(ValueError):
        pr_box(g).table[0, 0, 0, 0] = 0.9


def test_game_file_roundtrip(tmp_path):
    g = make_chained(3)
    path = tmp_path / "g.json"
    save_game(g, str(path))
    g2 = load_game(str(path))
    b = random_behaviour(3, 3, 77)
    assert game_value(g, b) == game_value(g2, b)
    assert np.array_equal(g.mu, g2.mu) and np.array_equal(g.f, g2.f)


def test_behaviour_file_roundtrip(tmp_path):
    g = make_chsh()
    b = quantum_optimal_chsh()
    path = tmp_path / "b.json"
    save_behaviour(b, str(path))
    b2 = load_behaviour(str(path))
    assert game_value(g, b) == game_value(g, b2)
    assert np.array_equal(b.table, b2.table)


def test_loader_renormalizes_tiny_deviation(tmp_path):
    import json
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 0, 0, 0] += 3e-10  # below the renormalization threshold
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"nu": 2, "nv": 2, "table": t.tolist()}))
    b = load_behaviour(str(path))
    assert abs(b.table[0, 0].sum() - 1.0) <= 1e-12


def test_loader_rejects_large_deviation(tmp_path):
    import json
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 0, 0, 0] += 1e-6
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"nu": 2, "nv": 2, "table": t.tolist()}))
    with pytest.raises(ValidationError, match="table"):
        load_behaviour(str(path))
    mu = np.full((2, 2), 0.225)  # sums to 0.9
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps({"name": "bad", "nu": 2, "nv": 2,
                                 "mu": mu.tolist(),
                                 "f": [[0, 0], [0, 1]]}))
    with pytest.raises(ValidationError, match="mu"):
        load_game(str(gpath))
