import itertools
import math
import time

import numpy as np
import pytest

from xorszilard import (Behaviour, BudgetError, ValidationError, XorGame,
                        class_report, cli, correlators,
                        deterministic_behaviour, game_value, is_nonsignalling,
                        local_value, make_chained, make_chsh, optimize, pr_box,
                        quantum_behaviour, quantum_value, uniform_behaviour)
from xorszilard.optimize import (CHECK_EVERY, DEFAULT_MAX_ITER, DEFAULT_SEED,
                                 DEFAULT_TOL, ClassValueReport, SeesawState,
                                 _omega, _seesaw, _seesaw_start, _weights)

from oracles import dual_upper, quantum_optimal_chsh


def brute_force_local(game):
    """Unreduced oracle: every strategy pair, iterated in reversed order."""
    best = -1.0
    best_pair = None
    strategies = list(itertools.product(
        itertools.product((0, 1), repeat=game.nu),
        itertools.product((0, 1), repeat=game.nv)))
    for amap, bmap in reversed(strategies):
        w = game_value(game, deterministic_behaviour(amap, bmap))
        if w >= best - 1e-15:  # ties resolved toward later = lex smaller
            if w > best + 1e-15 or (amap, bmap) < best_pair:
                best = max(best, w)
                best_pair = (amap, bmap)
    return best, best_pair


def random_game(nu, nv, seed):
    rng = np.random.default_rng(seed)
    mu = rng.random((nu, nv))
    mu /= mu.sum()
    f = rng.integers(0, 2, size=(nu, nv))
    return XorGame(name=f"rand{seed}", mu=mu, f=f)


def uniform_game(nu, nv, seed=None):
    """Uniform weights; the all-zero predicate, or a random one from seed."""
    f = (np.zeros((nu, nv), dtype=int) if seed is None
         else np.random.default_rng(seed).integers(0, 2, size=(nu, nv)))
    return XorGame(name=f"uniform{seed}", mu=np.full((nu, nv), 1.0 / (nu * nv)),
                   f=f)


def sparse_game(nu, nv, cells, seed):
    """Random predicate, with all of mu's weight on ``cells``."""
    rng = np.random.default_rng(seed)
    mu = np.zeros((nu, nv))
    for u, v in cells:
        mu[u, v] = rng.random() + 0.5
    mu /= mu.sum()
    return XorGame(name=f"sparse{seed}", mu=mu, f=rng.integers(0, 2, size=(nu, nv)))


def seeded_seesaw(game, seed=DEFAULT_SEED, tol=DEFAULT_TOL,
                  max_iter=DEFAULT_MAX_ITER):
    """quantum_value's path when the top singular block is rejected: one
    seesaw run from the generator seeded [seed, 0], on a game that weights
    every question."""
    start = _seesaw_start(game, seed, 0)
    a, b, bias, upper, it = _seesaw(_weights(game), *start, tol, max_iter)
    return _omega(bias), SeesawState(
        avecs=a, bvecs=b, bias=bias, upper=upper, iterations=it,
        converged=upper - bias < tol)


PERFECT = XorGame(name="perfect-2x4", mu=[[0.125] * 4] * 2, f=[[0] * 4] * 2)
ONE = XorGame(name="one", mu=[[1.0]], f=[[1]])


def transpose(game):
    return XorGame(name=f"{game.name}^T", mu=game.mu.T, f=game.f.T)


def test_local_value_chsh():
    w, amap, bmap = local_value(make_chsh())
    assert w == 0.75
    assert (amap, bmap) == ((0, 0), (0, 0))  # lexicographically smallest


@pytest.mark.parametrize("n,expect", [(2, 0.75), (3, 1 - 1 / 6), (4, 0.875)])
def test_local_value_chained(n, expect):
    w, amap, bmap = local_value(make_chained(n))
    assert w == pytest.approx(expect, abs=1e-15)
    assert game_value(make_chained(n),
                      deterministic_behaviour(amap, bmap)) \
        == pytest.approx(w, abs=1e-12)


def test_local_value_single_question():
    g = XorGame(name="one", mu=[[1.0]], f=[[0]])
    assert local_value(g)[0] == 1.0


def test_local_matches_brute_force_oracle():
    games = [make_chsh(), make_chained(2), make_chained(3)]
    games += [random_game(2, 3, s) for s in range(5)]
    games += [random_game(3, 3, 40 + s) for s in range(3)]
    # tall and wide games enumerate opposite players; uniform games are full
    # of ties, so they pin the lexicographic tie-break on both sides
    for nu, nv in ((4, 2), (2, 4), (5, 3), (3, 5)):
        games += [random_game(nu, nv, 60 + s) for s in range(3)]
        games += [uniform_game(nu, nv)]
        games += [uniform_game(nu, nv, 80 + s) for s in range(3)]
    # zero-weight questions are answered 0 whatever their predicate
    games += [sparse_game(4, 4, [(2, 3)], 90 + s) for s in range(2)]
    games += [sparse_game(5, 3, [(1, 0), (1, 2), (4, 2)], 92),
              sparse_game(3, 5, [(0, 4), (2, 1)], 93),
              sparse_game(4, 3, [(0, 1), (3, 1), (2, 1)], 94)]
    for g in games:
        w, amap, bmap = local_value(g)
        w_ref, pair_ref = brute_force_local(g)
        assert abs(w - w_ref) < 1e-12
        # the returned strategy achieves the oracle maximum
        assert game_value(g, deterministic_behaviour(amap, bmap)) \
            == pytest.approx(w_ref, abs=1e-12)
        assert (amap, bmap) == pair_ref
        assert local_value(transpose(g))[0] == w


def test_local_tall_game_within_budget():
    # nu + nv = 40: enumerating the 38-question side would take hours
    g = uniform_game(38, 2, seed=7)
    w, amap, bmap = local_value(g)
    wt, bmap_t, amap_t = local_value(transpose(g))
    assert wt == w
    assert game_value(g, deterministic_behaviour(amap, bmap)) \
        == pytest.approx(w, abs=1e-12)
    assert game_value(g, deterministic_behaviour(amap_t, bmap_t)) \
        == pytest.approx(w, abs=1e-12)
    # reference: Bob's four maps, each with Alice's best answer per question
    ref = max(
        sum(max(g.mu[u][np.array(b) == g.f[u]].sum(),
                g.mu[u][np.array(b) != g.f[u]].sum()) for u in range(38))
        for b in itertools.product((0, 1), repeat=2))
    assert w == pytest.approx(ref, abs=1e-12)


def test_local_one_cell_game_is_instant():
    # 2^19 maps of a 20x20 game tie exactly when one cell holds all weight
    for f_cell in (0, 1):
        g = sparse_game(20, 20, [(3, 5)], seed=5)
        f = g.f.copy()
        f[3, 5] = f_cell
        g = XorGame(name="one-cell", mu=g.mu, f=f)
        t0 = time.perf_counter()
        w, amap, bmap = local_value(g)
        assert time.perf_counter() - t0 < 0.1
        assert w == 1.0
        assert amap == (0,) * 20
        assert bmap == tuple(f_cell if v == 5 else 0 for v in range(20))


def test_local_budget_error(monkeypatch):
    # quantum_behaviour shares local_value's question budget, and refuses
    # before the seesaw starts
    def no_seesaw(*args):
        raise AssertionError("the seesaw ran")

    monkeypatch.setattr(optimize, "_seesaw", no_seesaw)
    nu = 41
    mu = np.full((nu, 1), 1.0 / nu)
    g = XorGame(name="big", mu=mu, f=np.zeros((nu, 1)))
    for func in (local_value, quantum_behaviour):
        with pytest.raises(BudgetError, match=r"nu \+ nv = 42 > 40"):
            func(g)


def test_quantum_value_chsh():
    w, state = quantum_value(make_chsh(), seed=1)
    assert abs(w - math.cos(math.pi / 8) ** 2) < 1e-6
    assert state.converged
    assert state.avecs.shape[1] == 4


def test_quantum_value_chained3():
    w, _ = quantum_value(make_chained(3), seed=2)
    assert abs(w - math.cos(math.pi / 12) ** 2) < 1e-6


def test_quantum_value_trivial_game():
    mu = np.full((2, 2), 0.25)
    g = XorGame(name="all-zero", mu=mu, f=np.zeros((2, 2)))
    w, _ = quantum_value(g, seed=3)
    assert abs(w - 1.0) < 1e-9


def test_seesaw_monotone_and_sound():
    # runs of CHECK_EVERY steps, each from the vectors the last one returned
    for g in [make_chsh(), make_chained(4), random_game(3, 3, 9)]:
        weights = _weights(g)
        for k in range(4):
            a, b = _seesaw_start(g, 5, k)
            last, checks = -math.inf, 0
            while True:
                a, b, bias, upper, it = _seesaw(weights, a, b, DEFAULT_TOL,
                                                CHECK_EVERY)
                assert bias >= last - 1e-15  # a rounding error at a maximum
                assert upper >= bias
                last, checks = bias, checks + 1
                if upper - bias < DEFAULT_TOL:
                    break
                assert it == CHECK_EVERY and checks < 1000
        w_local = local_value(g)[0]
        w_quantum, _ = quantum_value(g, seed=6)
        assert w_quantum >= w_local - 1e-9


@pytest.mark.parametrize("n", range(2, 21))
def test_quantum_value_chained_certified(n):
    # W's top singular block is optimal on every chained game, so no seesaw
    # step is taken
    closed = math.cos(math.pi / (4 * n)) ** 2
    w, state = quantum_value(make_chained(n))
    assert abs(w - closed) <= 1e-12
    assert (1.0 + state.upper) / 2.0 >= closed - 1e-15
    assert state.converged and state.iterations == 0
    assert state.upper - state.bias < DEFAULT_TOL


@pytest.mark.parametrize("game, closed", [
    (make_chsh(), math.cos(math.pi / 8) ** 2), (PERFECT, 1.0), (ONE, 1.0)],
    ids=["chsh", "perfect-2x4", "one"])
def test_top_block_certifies_without_a_step(game, closed):
    w, state = quantum_value(game, seed=5)
    assert abs(w - closed) <= 1e-12
    assert (1.0 + state.upper) / 2.0 >= closed - 1e-15
    assert state.converged and state.iterations == 0


def test_rejected_top_block_leaves_the_seeded_run_unchanged():
    # every seesaw step stays in the span of its start, so a rejected
    # candidate is dropped and the seeded full-rank run is the parent's
    shapes = ((15, 3), (12, 3), (3, 14), (3, 12), (6, 6), (8, 8), (10, 10))
    games = [(random_game(nu, nv, s), s) for s in (1, 2, 3)
             for nu, nv in shapes]
    rng = np.random.default_rng(41)
    rejected = 0
    while rejected < 20:
        g = random_game(int(rng.integers(2, 13)), int(rng.integers(2, 13)),
                        int(rng.integers(1000, 10**6)))
        if quantum_value(g)[1].iterations > 0:
            games.append((g, DEFAULT_SEED))
            rejected += 1
    for g, s in games:
        w, state = quantum_value(g, seed=s)
        w_ref, ref = seeded_seesaw(g, seed=s)
        assert state.iterations > 0 and state.converged, g.name
        assert w == w_ref
        for name in ("avecs", "bvecs"):
            assert np.array_equal(getattr(state, name), getattr(ref, name))
        for name in ("bias", "upper", "iterations"):
            assert getattr(state, name) == getattr(ref, name), (g.name, name)


def test_top_block_missing_a_question_falls_back():
    # the top singular block of diag(0.6, 0.4) has no component on
    # question 1, so the seeded seesaw runs
    g = XorGame(name="diag", mu=[[0.6, 0.0], [0.0, 0.4]], f=np.zeros((2, 2)))
    w, state = quantum_value(g, seed=2)
    w_ref, ref = seeded_seesaw(g, seed=2)
    assert state.converged and state.iterations == ref.iterations > 0
    assert w == w_ref == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(state.avecs, ref.avecs)


def test_certified_top_block_keeps_zero_weight_start_rows():
    # questions 1 and 3 of Alice and 0, 2 and 4 of Bob carry no weight
    g = sparse_game(4, 5, [(0, 1), (0, 3), (2, 1), (2, 3)], seed=2)
    for s in (1, 2):
        _, state = quantum_value(g, seed=s)
        assert state.converged and state.iterations == 0
        a, b = _seesaw_start(g, s, 0)
        assert np.array_equal(state.avecs[[1, 3]], a[[1, 3]])
        assert np.array_equal(state.bvecs[[0, 2, 4]], b[[0, 2, 4]])
        assert not np.array_equal(state.avecs[0], a[0])


def test_quantum_behaviour_chsh_is_tsirelson():
    # the optimal CHSH correlators are unique
    b = quantum_behaviour(make_chsh())
    assert np.abs(correlators(b) - correlators(quantum_optimal_chsh())).max() \
        <= 1e-12
    assert is_nonsignalling(b)


@pytest.mark.parametrize("n", [2, 3, 7, 20])
def test_quantum_behaviour_chained(n):
    # the weighted pairs' correlators sit at +-cos(pi/2N), and the table
    # depends on the game alone
    g = make_chained(n)
    b = quantum_behaviour(g)
    e = correlators(b)[g.mu > 0]
    assert np.abs(np.abs(e) - math.cos(math.pi / (2 * n))).max() <= 1e-11
    assert np.array_equal(b.table, quantum_behaviour(g).table)


@pytest.mark.parametrize("n", [30, 60])
def test_large_chained_certified(n):
    # past the CLI's enumeration budget, where plain seesaw steps left
    # chained:60 uncertified after 4000 steps
    closed = math.cos(math.pi / (4 * n)) ** 2
    w, state = quantum_value(make_chained(n))
    assert state.converged and state.iterations == 0
    assert abs(w - closed) <= 1e-12
    assert (1.0 + state.upper) / 2.0 >= closed - 1e-15


def test_seesaw_step_count_chained():
    # deterministic at the default seed; plain seesaw steps take 6232, and
    # an omega set from dual-gap rates over 8-step check blocks took 1696
    steps = sum(seeded_seesaw(make_chained(n))[1].iterations
                for n in range(2, 21))
    assert steps <= 1696


def trace_run(monkeypatch, game, **kwargs):
    """seeded_seesaw with each half-step's omega and each dual check's step
    recorded."""
    omegas, checks = [], []
    toward, dual_bound = optimize._toward, optimize._dual_bound

    def traced_toward(target, rows, omega):
        omegas.append(omega)
        return toward(target, rows, omega)

    def traced_dual_bound(*args):
        checks.append(len(omegas) // 2)
        return dual_bound(*args)

    monkeypatch.setattr(optimize, "_toward", traced_toward)
    monkeypatch.setattr(optimize, "_dual_bound", traced_dual_bound)
    w, state = seeded_seesaw(game, **kwargs)
    return w, state, omegas[::2], checks


def values_games():
    """CHSH, chained games and random games of the values benchmark's
    shapes."""
    shapes = ((15, 3), (12, 3), (3, 14), (3, 12), (6, 6), (8, 8), (10, 10))
    return ([make_chsh()] + [make_chained(n) for n in (3, 4, 5, 6, 7, 8, 10, 12)]
            + [random_game(nu, nv, 40 + i) for i, (nu, nv) in enumerate(shapes)])


def test_checks_on_cadence_and_run_stops_at_first_certified(monkeypatch):
    # the dual check runs at step 0, at every multiple of CHECK_EVERY and at
    # max_iter, and nowhere else; a run returns at its first check whose gap
    # is below tol (a run stopped at an earlier check is that check's state);
    # a run starts with plain steps, and Young's omega raises some of them
    relaxed = False
    for g in values_games():
        _, state, omegas, checks = trace_run(monkeypatch, g, seed=3)
        assert state.converged, g.name
        assert omegas[:1] in ([], [1.0]), g.name
        relaxed = relaxed or any(o != 1.0 for o in omegas)
        assert checks == list(range(0, state.iterations + 1, CHECK_EVERY))
        for c in checks[:-1]:
            _, early = seeded_seesaw(g, seed=3, max_iter=c)
            assert early.upper - early.bias >= DEFAULT_TOL, (g.name, c)
    assert relaxed
    _, state, _, checks = trace_run(monkeypatch, make_chained(12),
                                    max_iter=CHECK_EVERY + 5)
    assert not state.converged
    assert checks == [0, CHECK_EVERY, CHECK_EVERY + 5]


def test_overshooting_step_returns_run_to_plain_steps(monkeypatch):
    # a stand-in over-relaxed step that flips each exact maximizer, so the
    # bias turns negative by the next check; the rest of the run takes plain
    # steps
    omegas = []
    toward = optimize._toward

    def overshoot(target, vecs, omega):
        omegas.append(omega)
        step = toward(target, vecs, 1.0)
        return -step if omega != 1.0 else step

    monkeypatch.setattr(optimize, "_toward", overshoot)
    w, state = seeded_seesaw(make_chained(8))
    # 1 to CHECK_EVERY over-relaxed steps, up to the next check
    relaxed = [i for i, o in enumerate(omegas) if o != 1.0]
    steps = len(relaxed) // 2
    assert 1 <= steps <= CHECK_EVERY
    assert relaxed == list(range(relaxed[0], relaxed[0] + 2 * steps))
    assert (relaxed[-1] + 1) % (2 * CHECK_EVERY) == 0
    assert 1.0 < omegas[relaxed[0]] <= optimize.OMEGA_MAX
    assert len(omegas) > relaxed[-1] + 1  # plain steps follow
    assert state.converged
    assert abs(w - math.cos(math.pi / 32) ** 2) <= 1e-12


def test_in_loop_dual_bound_matches_reference():
    # a run stopped at its first check returns the bound of its start vectors
    rng = np.random.default_rng(23)
    for s in range(12):
        g = random_game(int(rng.integers(1, 9)), int(rng.integers(1, 9)), s)
        weights = _weights(g)
        dim = g.nu + g.nv
        for _ in range(3):
            a = rng.normal(size=(g.nu, dim))
            b = rng.normal(size=(g.nv, dim))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            _, _, bias, upper, it = _seesaw(weights, a, b, DEFAULT_TOL, 0)
            assert it == 0
            assert abs(upper - dual_upper(weights, a, b)) <= 1e-15
            assert abs(bias - np.einsum("uv,ud,vd->", weights, a, b)) <= 1e-15


def test_zero_weighted_sum_gives_run_up_with_sound_bound():
    # a zero row of W sums to zero at every step; quantum_value drops such
    # questions, and _seesaw ends at the first step with the checked vectors
    g = sparse_game(3, 3, [(0, 0), (0, 2), (2, 1)], seed=5)
    weights = _weights(g)
    a, b = _seesaw_start(g, 1, 0)
    a1, b1, bias, upper, it = _seesaw(weights, a, b, DEFAULT_TOL, 100)
    assert it == 1 and a1 is a and b1 is b
    assert abs(upper - dual_upper(weights, a, b)) <= 1e-15
    assert math.isfinite(bias)
    w, state = quantum_value(g)
    assert state.converged and state.avecs.shape == (3, 6)
    assert np.array_equal(state.avecs[1], _seesaw_start(g, DEFAULT_SEED, 0)[0][1])


def test_dual_upper_bounds_any_unit_vectors():
    rng = np.random.default_rng(17)
    for s in range(12):
        g = random_game(int(rng.integers(1, 7)), int(rng.integers(1, 7)), s)
        weights = _weights(g)
        _, best = quantum_value(g, seed=s)
        for _ in range(5):
            # unit rows of a random, non-stationary strategy
            a = rng.normal(size=(g.nu, best.avecs.shape[1]))
            b = rng.normal(size=(g.nv, best.avecs.shape[1]))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            upper = dual_upper(weights, a, b)
            assert upper >= np.einsum("uv,ud,vd->", weights, a, b)
            assert upper >= best.bias


@pytest.mark.parametrize("game", [
    sparse_game(4, 4, [(2, 3), (0, 3)], seed=3),  # zero-weight questions
    ONE,
    PERFECT,
])
def test_certificate_on_degenerate_games(game):
    w, state = quantum_value(game)
    assert state.converged
    assert state.bias <= state.upper < state.bias + DEFAULT_TOL
    assert w == pytest.approx(1.0, abs=1e-12)  # each game is winnable


def test_uncertified_run_stops_at_max_iter():
    closed = math.cos(math.pi / 48) ** 2
    w, state = seeded_seesaw(make_chained(12), max_iter=3)
    assert state.iterations == 3
    assert not state.converged
    assert w < closed <= (1.0 + state.upper) / 2.0


def test_seesaw_max_iter_zero_checks_only_the_start():
    # the run stops only at a check step; max_iter = 0 returns at the
    # step-0 check, uncertified from a seeded start
    _, state = seeded_seesaw(make_chained(5), max_iter=0)
    assert state.iterations == 0 and not state.converged


def test_random_games_certified_from_one_start():
    # the seesaw factors the XOR-game SDP at full rank, nu + nv, where a
    # second-order critical point is generically optimal; README gives the
    # slowest run of these 120 games
    rng = np.random.default_rng(31)
    for s in range(120):
        g = random_game(int(rng.integers(1, 13)), int(rng.integers(1, 13)),
                        500 + s)
        w, state = quantum_value(g)
        assert state.converged and state.iterations <= 200, g.name
        assert state.upper - state.bias < DEFAULT_TOL
        assert w >= local_value(g)[0] - 1e-12


def test_quantum_value_reproducible():
    g = make_chained(5)
    w1, s1 = quantum_value(g, seed=11)
    w2, s2 = quantum_value(g, seed=11)
    assert w1 == w2
    assert np.array_equal(s1.avecs, s2.avecs)


def test_seesaw_state_validates_unit_norms():
    with pytest.raises(ValidationError):
        SeesawState(avecs=np.array([[2.0, 0.0]]),
                    bvecs=np.array([[1.0, 0.0]]), bias=0.5, upper=0.5,
                    iterations=1, converged=True)


def test_seesaw_state_validates_bias_range():
    unit = np.array([[1.0, 0.0]])
    with pytest.raises(ValidationError, match="outside"):
        SeesawState(avecs=unit, bvecs=unit, bias=1.5, upper=1.5,
                    iterations=0, converged=True)


def test_class_value_report_validates_order():
    fields = dict(game="g", omega_local=0.75, omega_quantum=0.85,
                  omega_quantum_upper=0.85, local_strategy=((0,), (0,)),
                  converged=True, iterations=0)
    ClassValueReport(**fields)
    with pytest.raises(ValidationError, match="below 1/2"):
        ClassValueReport(**{**fields, "omega_local": 0.4})
    with pytest.raises(ValidationError, match="out of order"):
        ClassValueReport(**{**fields, "omega_quantum_upper": 0.84})


def test_class_report_rejects_a_failed_certificate(monkeypatch, capsys):
    # the uniform box signals nothing but wins only half the rounds
    monkeypatch.setattr(optimize, "pr_box", uniform_behaviour)
    assert cli.main(["value", "--game", "chsh"]) == cli.EXIT_VALIDATION
    assert "certificate failed" in capsys.readouterr().err


@pytest.mark.parametrize("game", [make_chsh(), make_chained(5),
                                  XorGame(name="pair", mu=[[1.0]], f=[[1]])])
def test_ns_value_certificate(game):
    # the nonsignalling value 1 is certified by the predicate box
    assert class_report(game).omega_ns == 1.0
    cert = pr_box(game)
    assert game_value(game, cert) == 1.0
    assert is_nonsignalling(cert).max_violation == 0.0


def test_is_nonsignalling_detects_violation():
    # Alice's marginal for u=0 depends on v: (1, 0) under v=0, (0.8, 0.2) under v=1
    t = np.zeros((2, 2, 2, 2))
    t[0, 0, 0, 0] = 1.0
    t[0, 1, 0, 0] = 0.8
    t[0, 1, 1, 0] = 0.2
    t[1, :, 0, 0] = 1.0
    rep = is_nonsignalling(Behaviour(t))
    assert not rep
    assert rep.max_violation == pytest.approx(0.2, abs=1e-12)
    assert rep.location[:2] == ("alice", 0)
    # the mirror image: Bob's marginal for v=0 depends on u
    rep = is_nonsignalling(Behaviour(t.transpose(1, 0, 3, 2)))
    assert not rep
    assert rep.max_violation == pytest.approx(0.2, abs=1e-12)
    assert rep.location[:2] == ("bob", 0)


def test_is_nonsignalling_deterministic_and_pr():
    g = make_chsh()
    for b in (deterministic_behaviour([0, 1], [1, 0]), pr_box(g)):
        assert is_nonsignalling(b).max_violation == 0.0


def test_class_report_chsh():
    rep = class_report(make_chsh(), seed=4)
    assert rep.omega_local == 0.75
    assert abs(rep.omega_quantum - 0.853553) < 1e-6
    assert rep.omega_ns == 1.0
    data = rep.to_json_dict()
    assert set(data) >= {"game", "omega_local", "omega_quantum",
                         "omega_quantum_upper", "omega_ns", "strategy",
                         "converged", "iterations"}
    assert "restarts" not in data
    assert (data["omega_local"] <= data["omega_quantum"]
            <= data["omega_quantum_upper"] <= 1.0)
    assert data["omega_quantum_upper"] - data["omega_quantum"] < 1e-12


def test_class_report_chained4():
    rep = class_report(make_chained(4), seed=4)
    assert rep.omega_local == pytest.approx(0.875, abs=1e-15)
    assert abs(rep.omega_quantum - math.cos(math.pi / 16) ** 2) < 1e-6


def test_chained2_report_matches_chsh():
    r1 = class_report(make_chsh(), seed=8)
    r2 = class_report(make_chained(2), seed=8)
    assert r1.omega_local == r2.omega_local
    assert abs(r1.omega_quantum - r2.omega_quantum) < 1e-9
    assert r1.omega_ns == r2.omega_ns


def test_class_ordering_holds_on_random_games():
    for s in range(4):
        g = random_game(2, 2, 70 + s)
        rep = class_report(g, seed=s)
        assert (0.5 <= rep.omega_local <= rep.omega_quantum
                <= rep.omega_quantum_upper <= rep.omega_ns)


def test_seesaw_follows_rising_rate():
    # the plain rate keeps rising after it first settles on these games; a
    # fixed omega from that first rate took 384 and 720 steps
    _, state = seeded_seesaw(make_chained(30), max_iter=4000)
    assert state.converged and state.iterations <= 256
    _, state = quantum_value(random_game(7, 4, 135))
    assert state.converged and state.iterations <= 400
