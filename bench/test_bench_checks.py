"""Each benchmark check passes the program's real output and rejects a
corrupted copy of it; each reference agrees with what it stands in for."""

import copy
import json
import math
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from run import run_job  # noqa: E402
from xorszilard import cli, dynamics  # noqa: E402


def _run(argv):
    rc, _, out, err = run_job(cli, argv)
    assert rc == 0, err
    return out


def _value(game: wl.GameRef, spec: str, seed=5):
    out = json.loads(_run(["value", "--game", spec, "--seed", str(seed)]))
    return out, checks.ValueRef(game)


@pytest.fixture(scope="module")
def chsh_value():
    return _value(wl.chsh_ref(), "chsh")


@pytest.fixture(scope="module")
def tall_value(tmp_path_factory):
    game = wl.random_game(9, 3, seed=4)
    path = tmp_path_factory.mktemp("games") / "tall.json"
    wl._write_game(game, str(path))
    return _value(game, str(path))


def test_value_outputs_pass(chsh_value, tall_value):
    for out, ref in (chsh_value, tall_value):
        assert checks.check_value(out, ref, 5) == []


@pytest.mark.parametrize("corrupt", [
    lambda o: o.update(omega_local=o["omega_local"] - 1e-6),
    lambda o: o.update(omega_quantum=o["omega_quantum"] + 1e-6),
    lambda o: o.update(omega_quantum=o["omega_local"] - 1e-6),
    lambda o: o.update(omega_ns=0.99),
    # flipping all of Alice's answers turns the value w into 1 - w
    lambda o: o["strategy"].update(amap=[1 - a for a in o["strategy"]["amap"]]),
    lambda o: o["ceilings_bits"].update(quantum=o["ceilings_bits"]["quantum"] + 1e-9),
    lambda o: o["ceilings_kt"].update(local=o["ceilings_bits"]["local"]),
    lambda o: o.update(seed=6),
])
def test_value_check_rejects_corruption(chsh_value, tall_value, corrupt):
    for out, ref in (chsh_value, tall_value):
        bad = copy.deepcopy(out)
        corrupt(bad)
        assert checks.check_value(bad, ref, 5)


def test_value_check_rejects_quantum_above_spectral_bound(tall_value):
    out, ref = tall_value
    bad = dict(out, omega_quantum=ref.upper + 1e-6)
    assert any("outside" in e for e in checks.check_value(bad, ref, 5))


def test_local_reference_matches_brute_force():
    for game in (wl.random_game(4, 5, 1), wl.random_game(6, 2, 2),
                 wl.chained_ref(5)):
        brute = max(checks.strategy_value(game, [(a >> u) & 1 for u in range(game.nu)],
                                          [(b >> v) & 1 for v in range(game.nv)])
                    for a in range(1 << game.nu) for b in range(1 << game.nv))
        assert checks.local_value_other_side(game) == pytest.approx(brute, abs=1e-12)


def test_relabelled_games_keep_their_values():
    a, b = wl.random_game(5, 4, seed=1), wl.random_game(5, 4, seed=2)
    assert a.f != b.f
    assert checks.local_value_other_side(a) == pytest.approx(
        checks.local_value_other_side(b), abs=1e-12)
    assert checks.quantum_upper_bound(a) == pytest.approx(
        checks.quantum_upper_bound(b), abs=1e-12)


# ---------------------------------------------------------------------------
# simulate


def _sim_ref(behaviour, n, game_spec="chsh"):
    return wl._sim_jobs([(game_spec, behaviour, n)], records=False)[0].ref


def _simulate(behaviour, n, seed=3, game_spec="chsh", records=None):
    argv = ["simulate", "--game", game_spec, "--behaviour", behaviour,
            "--rounds", str(n), "--seed", str(seed)]
    if records:
        argv += ["--records", records]
    return json.loads(_run(argv)), _sim_ref(behaviour, n, game_spec)


def test_simulate_outputs_pass():
    for spec, game in (("quantum-opt", "chsh"), ("noisy:pr:0.2", "chained:6"),
                       ("mix:pr:0.7", "chained:6"), ("pr", "chsh"),
                       ("pr", "chained:6")):
        out, ref = _simulate(spec, 20_000, game_spec=game)
        assert checks.check_simulate(out, ref, 3) == [], spec


def test_simulate_check_rejects_corruption():
    out, ref = _simulate("quantum-opt", 20_000)
    p = checks.success_probability(ref)
    sigma = math.sqrt(p * (1.0 - p) / ref.rounds)
    for field, delta in (("empirical_p", 6 * sigma), ("analytic_work_kt", 1e-9),
                         ("mean_work_kt", 0.05)):
        assert checks.check_simulate(dict(out, **{field: out[field] + delta}), ref, 3)
    assert checks.check_simulate(dict(out, rounds=19_999), ref, 3)
    assert checks.check_simulate(dict(out, z_score=out["z_score"] + 1.0), ref, 3)


def test_pr_batch_must_be_exact():
    out, ref = _simulate("pr", 20_000)
    assert out["stderr_kt"] == 0.0 and out["mean_work_kt"] == math.log(2.0)
    assert checks.check_simulate(dict(out, stderr_kt=1e-15), ref, 3)
    assert checks.check_simulate(
        dict(out, mean_work_kt=math.nextafter(math.log(2.0), 1.0)), ref, 3)


def test_simulate_bound_passes_an_exact_method():
    ref = _sim_ref("mix:pr:0.7", 1000)
    p = checks.success_probability(ref)
    mean = checks.mean_work(p, *checks.branch_works(p))
    exact = {"rounds": 1000, "seed": 3, "behaviour": "mix:pr:0.7",
             "noise_delta": 0.0, "empirical_p": p, "mean_work_kt": mean,
             "stderr_kt": 0.0, "analytic_work_kt": mean, "z_score": 0.0,
             "mean_work_scaled": mean}
    assert checks.check_simulate(exact, ref, 3) == []


# ---------------------------------------------------------------------------
# transcripts


@pytest.fixture(scope="module")
def transcript(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("rec") / "rounds.csv")
    out, _ = _simulate("mix:pr:0.8", 3000, records=path)
    ref = wl._sim_jobs([("chsh", "mix:pr:0.8", 3000)], records=True)[0].ref
    return checks.digest_csv(path), out, ref


def test_transcript_passes(transcript):
    lines, out, ref = transcript
    assert checks.check_transcript(lines, out, ref, 3) == []


def _edit(lines, old_pred, new_line):
    lines = Counter(lines)
    old = next(ln for ln in lines if ln != checks.HEADER and old_pred(ln))
    lines[old] -= 1
    lines[new_line(old)] += 1
    return lines


def test_transcript_check_rejects_corruption(transcript):
    lines, out, ref = transcript

    def flip(i):
        def go(line):
            cols = line.split(",")
            cols[i] = str(1 - int(cols[i]))
            return ",".join(cols)
        return go

    # flipping x, a, b, r, g, e or won breaks a relation; a flipped question
    # can give another valid row, so it is not tried
    for i in (0, 3, 4, 5, 6, 7, 8):
        assert checks.check_transcript(_edit(lines, lambda ln: True, flip(i)),
                                       out, ref, 3), i
    missing = Counter(lines)
    missing[next(ln for ln in missing if ln != checks.HEADER)] -= 1
    assert checks.check_transcript(missing, out, ref, 3)
    assert checks.check_transcript(
        lines, dict(out, empirical_p=out["empirical_p"] + 1 / 3000), ref, 3)


def test_transcript_check_rejects_rows_off_the_support():
    ref = wl._sim_jobs([("chsh", "pr", 1)], records=True)[0].ref
    # x=0, u=v=0: f=0 so r=0; a=0, b=1 breaks a xor b = f, which a PR box
    # never does, though the row is self-consistent (g=1, e=1, lost)
    lines = Counter({checks.HEADER: 1, "0,0,0,0,1,0,1,1,0": 1})
    out = {"rounds": 1, "seed": 3, "behaviour": "pr", "noise_delta": 0.0,
           "empirical_p": 0.0, "mean_work_kt": 0.0, "stderr_kt": 0.0,
           "analytic_work_kt": math.log(2.0), "z_score": 0.0,
           "mean_work_scaled": 0.0}
    assert any("support" in e for e in checks.check_transcript(lines, out, ref, 3))


# ---------------------------------------------------------------------------
# finite-time


@pytest.fixture(scope="module")
def finite_time():
    ref = wl.FiniteTimeRef(0.9, (5.0, 10.0, 20.0), 2000)
    text = _run(["finite-time", "--p", "0.9", "--tau-grid", "5,10,20",
                 "--reps", "2000", "--seed", "8"])
    rows, out = checks.parse_finite_time(text)
    return rows, out, checks.FiniteTimeRefs(ref)


def test_finite_time_passes(finite_time):
    assert checks.check_finite_time(*finite_time, 8) == []


def test_finite_time_check_rejects_corruption(finite_time):
    rows, out, refs = finite_time

    def with_row(i, col, value):
        bad = copy.deepcopy(rows)
        bad[i][col] = value
        return bad

    se = float(rows[1][2])
    assert checks.check_finite_time(
        with_row(1, 1, repr(refs.sigma[1] + 6 * se)), out, refs, 8)
    assert checks.check_finite_time(with_row(2, 3, "1999"), out, refs, 8)
    assert checks.check_finite_time(rows[:2], out, refs, 8)
    assert checks.check_finite_time(rows, dict(out, slope=out["slope"] + 1e-4),
                                    refs, 8)
    assert checks.check_finite_time(
        rows, dict(out, slope_band=[out["slope"], out["slope"]]), refs, 8)


def test_finite_time_bound_passes_an_exact_method(finite_time):
    _, out, refs = finite_time
    rows = [[repr(t), repr(s), "0.0", "2000", "8"]
            for t, s in zip(refs.ref.taus, refs.sigma)]
    slope, se = checks.ols_slope([math.log(t) for t in refs.ref.taus],
                                 [math.log(s) for s in refs.sigma])
    exact = {"slope": slope, "slope_stderr": se,
             "slope_band": [slope - 1.96 * se, slope + 1.96 * se], "seed": 8}
    assert checks.check_finite_time(rows, exact, refs, 8) == []
    off = copy.deepcopy(rows)
    off[0][1] = repr(refs.sigma[0] * (1 + 1e-6))
    assert checks.check_finite_time(off, exact, refs, 8)


def test_exact_sigma_matches_monte_carlo():
    for p in (0.8, 0.9, 0.95):
        for tau in (5.0, 10.0, 20.0):
            est = dynamics.estimate_sigma(
                p, dynamics.ProtocolSchedule.linear(tau), 4000, 17)
            z = (est.mean_sigma - checks.exact_sigma(p, tau)) / est.stderr
            assert abs(z) < checks.Z_BOUND, (p, tau, z)


# ---------------------------------------------------------------------------
# tracing


def test_layer_totals_self_and_busy_time():
    S = tracing.Span
    spans = [S("cli", 0, None, 0.0, 10.0),
             S("cli.parse_behaviour_spec", 0, 0, 1.0, 4.0),
             S("cli.parse_behaviour_spec", 0, 1, 2.0, 3.0),  # nested spec
             S("engine.simulate_rounds", 0, 0, 5.0, 9.0, {"rounds": 7})]
    t = tracing.layer_totals(spans)
    assert t["cli"]["self_s"] == 3.0
    assert t["cli.parse_behaviour_spec"]["busy_s"] == 3.0
    assert t["cli.parse_behaviour_spec"]["self_s"] == 3.0
    assert t["engine.simulate_rounds"]["rounds"] == 7


def test_tracer_sees_calls_made_inside_the_program():
    import xorszilard
    tracer = tracing.Tracer(xorszilard)
    tracer.install()
    try:
        run_job(cli, ["value", "--game", "chained:3"], tracer)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli"
    assert {"optimize.class_report", "optimize.local_value",
            "engine.class_ceilings", "cli.parse_game_spec"} <= set(names)
    local = next(s for s in tracer.spans if s.name == "optimize.local_value")
    assert tracer.spans[local.parent].name == "optimize.class_report"
    assert local.counts == {"strategies": 4}
