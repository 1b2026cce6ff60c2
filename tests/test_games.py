import json
import math
import os
import re

import numpy as np
import pytest

from xorszilard import (Behaviour, BudgetError, ParseError,
                        ValidationError, XorGame, games,
                        bias, chsh_S, correlator_behaviour, correlators,
                        deterministic_behaviour, game_value, load_behaviour,
                        load_game, make_chained, make_chsh, mix_with_uniform,
                        pr_box, save_behaviour, save_game,
                        uniform_behaviour)

from oracles import quantum_optimal_chsh

SQ2 = math.sqrt(2.0)


def random_behaviour(nu, nv, seed):
    rng = np.random.default_rng(seed)
    t = rng.random((nu, nv, 2, 2))
    t /= t.sum(axis=(2, 3), keepdims=True)
    return Behaviour(t)


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
    assert correlators(Behaviour(t))[0, 0] == 1.0
    assert correlators(uniform_behaviour(make_chsh())).max() == 0.0


def test_quantum_optimal_correlator_pattern():
    e = correlators(quantum_optimal_chsh())
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
    best_local = deterministic_behaviour([0, 0], [0, 0])
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
    assert game_value(g, deterministic_behaviour([0, 0], [0, 0])) == pytest.approx(0.75, abs=1e-12)
    assert game_value(g, deterministic_behaviour([0, 1], [0, 0])) == pytest.approx(0.75, abs=1e-12)
    # a map that does not fit the game fails where the two meet
    with pytest.raises(ValidationError, match="game is 2x2, behaviour is 1x2"):
        game_value(g, deterministic_behaviour([0], [0, 0]))
    with pytest.raises(ValidationError, match="game is 2x2, behaviour is 2x1"):
        game_value(g, deterministic_behaviour([0, 0], [0]))
    with pytest.raises(ValidationError, match="bits only"):
        deterministic_behaviour([0, 2], [0, 0])
    with pytest.raises(ValidationError, match="1-D"):
        deterministic_behaviour([[0, 1]], [0, 0])
    with pytest.raises(ValidationError, match="non-empty"):
        deterministic_behaviour([], [0])


def test_constructors_match_loop_form():
    # the per-cell loops these constructors replaced, as references
    rng = np.random.default_rng(31)
    for _ in range(20):
        nu, nv = (int(x) for x in rng.integers(1, 9, size=2))
        mu = rng.random((nu, nv))
        g = XorGame(name="r", mu=mu / mu.sum(), f=rng.integers(0, 2, size=(nu, nv)))
        amap = rng.integers(0, 2, size=nu).tolist()
        bmap = rng.integers(0, 2, size=nv).tolist()
        box, det = np.zeros((nu, nv, 2, 2)), np.zeros((nu, nv, 2, 2))
        for u in range(nu):
            for v in range(nv):
                fb = int(g.f[u, v])
                box[u, v, 0, fb] = box[u, v, 1, 1 - fb] = 0.5
                det[u, v, amap[u], bmap[v]] = 1.0
        assert np.array_equal(pr_box(g).table, box)
        assert np.array_equal(deterministic_behaviour(amap, bmap).table, det)


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
        assert np.abs(correlators(b)).max() <= 1.0


def test_game_invariant_validation():
    with pytest.raises(ValidationError):
        XorGame(name="bad", mu=np.full((2, 2), 0.3), f=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        XorGame(name="bad", mu=np.array([[0.5, 0.5], [0.5, -0.5]]),
                f=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        XorGame(name="bad", mu=np.full((2, 2), 0.25),
                f=np.array([[0, 0], [0, 2]]))
    for x in (math.nan, math.inf):
        mu = np.full((2, 2), 0.25)
        mu[1, 0] = x
        with pytest.raises(ValidationError, match=r"non-finite entry at \[1\]\[0\]"):
            XorGame(name="bad", mu=mu, f=np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="'f'"):
        XorGame(name="bad", mu=np.full((2, 2), 0.25),
                f=np.array([[0, 0], [0, math.nan]]))
    for shape in ((0, 2), (2, 0), (4,), (1, 2, 2)):
        with pytest.raises(ValidationError, match="'mu': need a non-empty "
                           f"2-D array, got shape {re.escape(str(shape))}"):
            XorGame(name="bad", mu=np.zeros(shape), f=np.zeros(shape))
    with pytest.raises(ValidationError, match=r"'f': shape \(2, 2\) != \(1, 4\)"):
        XorGame(name="bad", mu=np.full((1, 4), 0.25),
                f=np.zeros((2, 2)))


def test_behaviour_invariant_validation():
    t = np.full((2, 2, 2, 2), 0.25)
    t[0, 0, 0, 0] = 0.5  # slice sums to 1.25
    with pytest.raises(ValidationError):
        Behaviour(t)
    t = np.full((2, 2, 2, 2), 0.25)
    t[1, 1] = [[0.5, 0.5], [0.5, -0.5]]
    with pytest.raises(ValidationError):
        Behaviour(t)
    t = np.full((2, 2, 2, 2), 0.25)
    t[1, 0, 1, 0] = math.nan
    with pytest.raises(ValidationError, match=r"non-finite entry at \[1\]\[0\]\[1\]\[0\]"):
        Behaviour(t)
    for shape in ((0, 2, 2, 2), (2, 0, 2, 2), (2, 2, 2, 3), (2, 2, 4)):
        with pytest.raises(ValidationError,
                           match=r"non-empty \(nu, nv, 2, 2\) array, got shape"):
            Behaviour(np.full(shape, 0.25))


def test_correlator_matrix_range():
    with pytest.raises(ValidationError, match=r"\[0\]\[0\] = 1.5 outside"):
        correlator_behaviour([[1.5]])
    for x in (math.nan, -math.inf):
        with pytest.raises(ValidationError, match=r"\[0\]\[1\]"):
            correlator_behaviour([[0.5, x]])
    b = correlator_behaviour([[1.0, -1.0]])
    assert np.array_equal(correlators(b), [[1.0, -1.0]])


def test_correlator_matrix_clips_rounding_past_one():
    # the product of two unit vectors can round past +-1 (the seesaw's
    # E = 1 + 2**-52 on a perfect game); within PROB_ATOL it is +-1, not a
    # table with a negative entry
    b = correlator_behaviour([[1.0 + 1e-13, -1.0 - 1e-13, 1.0 + 2.0**-52]])
    assert np.array_equal(correlators(b), [[1.0, -1.0, 1.0]])
    assert np.array_equal(b.table[0, 0], [[0.5, 0.0], [0.0, 0.5]])
    assert np.array_equal(b.table[0, 1], [[0.0, 0.5], [0.5, 0.0]])


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


GAME = {"name": "chsh", "nu": 2, "nv": 2, "mu": [[0.25, 0.25], [0.25, 0.25]],
        "f": [[0, 0], [0, 1]]}
BEHAVIOUR = {"nu": 2, "nv": 2, "table": [[[[0.25, 0.25], [0.25, 0.25]]] * 2] * 2}
LOADERS = {"game": (load_game, GAME), "behaviour": (load_behaviour, BEHAVIOUR)}


def _file(tmp_path, content) -> str:
    path = tmp_path / "f.json"
    path.write_bytes(content if isinstance(content, bytes)
                     else json.dumps(content).encode())
    return str(path)


@pytest.mark.parametrize("kind", ["game", "behaviour"])
@pytest.mark.parametrize("content, match", [
    (b"\xff\xfe\x00", "can't decode byte 0xff"),
    (b"[" * 10**5 + b"]" * 10**5, "nested too deeply"),
    (b'{"nu": 2,', r"line 1 col \d+"),
    (b"[1, 2]", "top level must be a JSON object"),
    (b'{"nu": 1' + b"0" * 5000 + b"}", "4300 digits"),
], ids=["not-utf8", "nested-1e5", "truncated", "not-object", "long-integer"])
def test_loaders_map_decode_faults_to_parse_error(tmp_path, kind, content,
                                                  match):
    load, _ = LOADERS[kind]
    with pytest.raises(ParseError, match=match):
        load(_file(tmp_path, content))


@pytest.mark.parametrize("kind", ["game", "behaviour"])
def test_loaders_parse_errors(tmp_path, kind):
    load, good = LOADERS[kind]
    field = "mu" if kind == "game" else "table"
    with pytest.raises(ParseError, match="No such file"):
        load(str(tmp_path / "missing.json"))
    for name in good:
        data = dict(good)
        del data[name]
        with pytest.raises(ParseError, match=f"missing field '{name}'"):
            load(_file(tmp_path, data))
    for size in (True, 2.0, "2", None):
        with pytest.raises(ParseError, match="'nu' and 'nv' must be integers"):
            load(_file(tmp_path, dict(good, nv=size)))
    for grid in ("abc", {"a": 1}, [[0.5], [0.25, 0.25]]):
        with pytest.raises(ParseError, match=f"field '{field}' is not numeric"):
            load(_file(tmp_path, dict(good, **{field: grid})))
    overflow = json.dumps(good).replace("0.25", "1" + "0" * 400, 1)
    with pytest.raises(ParseError, match=f"field '{field}' is not numeric"):
        load(_file(tmp_path, overflow.encode()))
    with pytest.raises(ParseError, match=f"field '{field}' has shape"):
        load(_file(tmp_path, dict(good, nu=3)))


@pytest.mark.parametrize("kind", ["game", "behaviour"])
def test_loaders_bound_the_bytes_read(tmp_path, monkeypatch, kind):
    load, good = LOADERS[kind]
    path = _file(tmp_path, good)
    monkeypatch.setattr(games, "MAX_FILE_BYTES", os.path.getsize(path))
    load(path)
    monkeypatch.setattr(games, "MAX_FILE_BYTES", os.path.getsize(path) - 1)
    with pytest.raises(BudgetError, match="exceeds"):
        load(path)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_loaders_stop_reading_an_endless_file():
    for load in (load_game, load_behaviour):
        with pytest.raises(BudgetError, match=f"exceeds {2**25} bytes"):
            load("/dev/zero")


def test_max_file_bytes_admits_largest_simulated_behaviour(tmp_path):
    # chained:256's round table is the simulate budget: a 256 x 256
    # behaviour of full-precision floats, as save_behaviour writes it
    rng = np.random.default_rng(3)
    t = rng.random((256, 256, 2, 2))
    path = tmp_path / "b.json"
    save_behaviour(Behaviour(t / t.sum(axis=(2, 3), keepdims=True)),
                   str(path))
    assert 3 * os.path.getsize(path) < games.MAX_FILE_BYTES


def test_game_loader_renormalizes_mu(tmp_path):
    mu = np.full((2, 2), 0.25)
    mu[0, 1] += 3e-10
    g = load_game(_file(tmp_path, dict(GAME, mu=mu.tolist())))
    assert np.array_equal(g.mu, mu / mu.sum())
    assert abs(g.mu.sum() - 1.0) <= 1e-12


def test_behaviour_loader_names_the_slice(tmp_path):
    t = np.full((2, 3, 2, 2), 0.25)
    t[1, 2, 0, 1] += 1e-6
    t[0, 0, 1, 1] += 1e-7
    path = _file(tmp_path, {"nu": 2, "nv": 3, "table": t.tolist()})
    with pytest.raises(ValidationError,
                       match=r"slice \[1\]\[2\] sums to 1\.000001; "):
        load_behaviour(path)


def test_loaders_prefix_constructor_errors_with_the_path(tmp_path):
    path = _file(tmp_path, dict(GAME, f=[[0, 2], [0, 1]]))
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(path)}: game field 'f': entry at "
                       r"\[0\]\[1\]"):
        load_game(path)
    t = np.full((2, 2, 2, 2), 0.25)
    t[1, 0] = [[0.5, -0.25], [0.5, 0.25]]
    path = _file(tmp_path, dict(BEHAVIOUR, table=t.tolist()))
    with pytest.raises(ValidationError, match=f"^{re.escape(path)}: behaviour field "
                       r"'table': negative entry at \[1\]\[0\]\[0\]\[1\]"):
        load_behaviour(path)
