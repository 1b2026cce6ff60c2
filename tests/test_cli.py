import csv
import hashlib
import io
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from xorszilard import (ValidationError, XorGame, apply_noise, cli, dynamics,
                        engine, games, make_chained, optimize, save_game,
                        simulate_rounds)
from xorszilard.channel import _CSV_ROWS
from xorszilard.cli import (EXIT_BUDGET, EXIT_PARSE, EXIT_REGIME,
                            EXIT_VALIDATION, main)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_value_chsh(capsys):
    data = run_json(capsys, "value", "--game", "chsh")
    assert data["omega_local"] == 0.75
    assert abs(data["omega_quantum"] - 0.853553) < 1e-6
    assert data["omega_ns"] == 1.0
    assert data["converged"] is True
    assert data["seed"] == cli.DEFAULT_SEED
    assert abs(data["ceilings_bits"]["local"] - 0.188722) < 5e-4
    assert abs(data["ceilings_bits"]["quantum"] - 0.399134) < 5e-4
    assert data["ceilings_bits"]["ns"] == 1.0


def test_value_chained3(capsys):
    data = run_json(capsys, "value", "--game", "chained:3")
    assert abs(data["omega_local"] - 0.833333) < 1e-6
    assert abs(data["omega_quantum"] - 0.933013) < 1e-6
    assert data["omega_ns"] == 1.0


def test_value_reports_seesaw_iterations(capsys, monkeypatch):
    # the seeded seesaw alone: chained:6's top singular block would certify
    # with no step
    monkeypatch.setattr(optimize, "_top_block", lambda *args: None)
    data = run_json(capsys, "value", "--game", "chained:6")
    assert type(data["iterations"]) is int and data["iterations"] > 0
    assert data["converged"] is True and "restarts" not in data


def test_value_chained_certified_whatever_the_seed(capsys):
    # the top singular block certifies chained:12, so --seed picks nothing
    first, second = (run_json(capsys, "value", "--game", "chained:12",
                              "--seed", seed) for seed in ("1", "2"))
    assert first["iterations"] == second["iterations"] == 0
    assert first["omega_quantum"] == second["omega_quantum"]
    assert first["converged"] is True


def test_value_perfect_game_caps_quantum_value(capsys, tmp_path):
    # the seesaw bias of a perfectly winnable game can round above 1
    path = tmp_path / "perfect.json"
    save_game(XorGame(name="perfect-2x4", mu=[[0.125] * 4] * 2, f=[[0] * 4] * 2),
              str(path))
    data = run_json(capsys, "value", "--game", str(path))
    assert data["omega_quantum"] == 1.0
    assert data["ceilings_bits"]["quantum"] == 1.0


@pytest.mark.parametrize("argv, code", [
    (["value", "--game", "chsh", "--seed", "-1"], EXIT_PARSE),
    (["simulate", "--game", "chsh", "--behaviour", "pr", "--seed", "-1"],
     EXIT_PARSE),
    (["finite-time", "--seed", "-1"], EXIT_PARSE),
    (["finite-time", "--p", "1.0", "--tau-grid", "5,10", "--reps", "100"],
     EXIT_VALIDATION),
    (["sweep", "--step", "nan"], EXIT_VALIDATION),
    (["sweep", "--step", "inf"], EXIT_VALIDATION),
    (["finite-time", "--rate", "nan", "--reps", "100"], EXIT_VALIDATION),
    (["finite-time", "--rate", "inf", "--reps", "100"], EXIT_VALIDATION),
    (["finite-time", "--tau-grid", "10,nan", "--reps", "100"], EXIT_VALIDATION),
    (["finite-time", "--tau-grid", "10,inf", "--reps", "100"], EXIT_VALIDATION),
    (["finite-time", "--tau-grid", "10,abc", "--reps", "100"], EXIT_PARSE),
    (["finite-time", "--tau-grid", "10,10", "--reps", "100"], EXIT_VALIDATION),
    (["simulate", "--game", "chsh", "--behaviour", "pr",
      "--rounds", "100000000000000000000"], EXIT_BUDGET),
    (["simulate", "--game", "chsh", "--behaviour", "pr",
      "--rounds", "100000000000", "--records", "never-written.csv"],
     EXIT_BUDGET),
    (["finite-time", "--tau-grid", "10,1e12", "--reps", "100"], EXIT_BUDGET),
    (["finite-time", "--tau-grid", "10,1e300", "--reps", "100"], EXIT_BUDGET),
    (["finite-time", "--reps", "100000000000000000000"], EXIT_BUDGET),
    (["sweep", "--step", "1e-20"], EXIT_BUDGET),
    (["sweep", "--step", "1e-9"], EXIT_BUDGET),
    (["value", "--game", "chained:257"], EXIT_BUDGET),
    (["simulate", "--game", "chained:10000000000", "--behaviour", "pr"],
     EXIT_BUDGET),
    (["value", "--game", "chsh", "--out", "/nonexistent/dir/v.json"],
     EXIT_PARSE),
    (["sweep", "--out", "/nonexistent/dir/s.csv"], EXIT_PARSE),
    (["simulate", "--game", "chsh", "--behaviour", "pr", "--rounds", "100",
      "--records", "/nonexistent/dir/r.csv"], EXIT_PARSE),
    (["cycle", "--p", "0.8", "--kt", "nan"], EXIT_PARSE),
    (["cycle", "--p", "0.8", "--kt", "0"], EXIT_PARSE),
    (["cycle", "--p", "0.8", "--kt=-2"], EXIT_PARSE),
    (["cycle", "--p", "0.8", "--kt", "inf"], EXIT_PARSE),
    (["value", "--game", "chsh", "--restarts", "1"], EXIT_PARSE),
    (["simulate", "--game", "chsh", "--behaviour", "quantum-opt",
      "--p-model", "1", "--seed", "1", "--rounds", "3"], EXIT_VALIDATION),
    (["simulate", "--game", "chsh", "--behaviour", "quantum-opt",
      "--p-model", "1", "--seed", "1", "--rounds", "1000"], EXIT_VALIDATION),
    (["finite-time", "--tau-grid", "10,20", "--kt", "5"], EXIT_PARSE),
    (["finite-time", "--monte-carlo"], EXIT_PARSE),
    (["value", "--game", "chained:abc"], EXIT_PARSE),
    (["channel", "--game", "chsh", "--behaviour", "noisy:pr"], EXIT_PARSE),
    (["channel", "--game", "chsh", "--behaviour", "noisy:pr:abc"], EXIT_PARSE),
    (["channel", "--game", "chsh", "--behaviour", "mix:pr"], EXIT_PARSE),
    (["channel", "--game", "chsh", "--behaviour", "mix:pr:abc"], EXIT_PARSE),
    (["simulate", "--game", "chsh", "--behaviour", "uniform", "--rounds",
      "100", "--p-model", "0.999", "--kt", "1e308"], EXIT_VALIDATION),
    (["simulate", "--game", "chsh", "--behaviour", "uniform", "--rounds",
      "100", "--p-model", "0.999", "--kt", "1e308", "--records", "r.csv"],
     EXIT_VALIDATION),
    (["simulate", "--game", "chsh", "--behaviour", "pr", "--rounds", "100",
      "--records", "r.csv", "--out", "/nonexistent/o.json"], EXIT_PARSE),
    (["value", "--game", "chsh", "--out="], EXIT_PARSE),
    (["sweep", "--out="], EXIT_PARSE),
], ids=["value-seed", "simulate-seed", "finite-time-seed", "finite-time-p1",
        "sweep-nan", "sweep-inf", "finite-time-rate-nan", "finite-time-rate-inf",
        "finite-time-tau-nan", "finite-time-tau-inf", "finite-time-tau-abc",
        "finite-time-tau-repeated",
        "simulate-rounds",
        "simulate-records", "finite-time-tau-1e12", "finite-time-tau-1e300",
        "finite-time-reps", "sweep-step-1e-20", "sweep-step-1e-9",
        "chained-257", "chained-1e10", "value-out-unwritable",
        "sweep-out-unwritable", "simulate-records-unwritable", "kt-nan",
        "kt-zero", "kt-negative", "kt-inf", "value-restarts",
        "p-model-one-lucky", "p-model-one-loses", "finite-time-kt",
        "finite-time-monte-carlo",
        "chained-abc", "noisy-no-delta", "noisy-delta-abc", "mix-no-v",
        "mix-v-abc", "kt-overflows-work", "kt-overflows-records",
        "simulate-out-unwritable-after-records", "value-out-empty",
        "sweep-out-empty"])
def test_bad_input_exit_codes(capsys, tmp_path, monkeypatch, argv, code):
    # a command that fails leaves no file in its working directory
    monkeypatch.chdir(tmp_path)
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_readme_cli_lines_parse(capsys, tmp_path, monkeypatch):
    # every command in README's CLI block runs to exit 0, its relative
    # output paths under a temporary XORSZILARD_OUT_DIR
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("xorszilard ")]
    assert len(lines) >= 9
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("XORSZILARD_OUT_DIR", str(tmp_path))
    for line in lines:
        try:
            code = main(shlex.split(line)[1:])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == 0 and "Traceback" not in err, (line.strip(), err)


def test_value_bad_game_file_names_mu(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "nu": 2, "nv": 2,
        "mu": [[0.225, 0.225], [0.225, 0.225]],  # sums to 0.9
        "f": [[0, 0], [0, 1]]}))
    code, out, err = run(capsys, "value", "--game", str(path))
    assert code == EXIT_VALIDATION
    assert "mu" in err


@pytest.mark.parametrize("where", ["game", "behaviour"])
def test_nan_input_files_exit_validation(capsys, tmp_path, where):
    # json reads NaN, and NaN passes both a sum test and a sign test
    game = {"name": "chsh", "nu": 2, "nv": 2,
            "mu": [[0.25, 0.25], [0.25, 0.25]], "f": [[0, 0], [0, 1]]}
    table = [[[[0.25, 0.25], [0.25, 0.25]]] * 2] * 2
    if where == "game":
        game["mu"][1][0] = float("nan")
    else:
        table = [[[[float("nan"), 0.25], [0.25, 0.25]]] * 2] * 2
    game_path, behaviour_path = tmp_path / "game.json", tmp_path / "b.json"
    game_path.write_text(json.dumps(game))
    behaviour_path.write_text(json.dumps({"nu": 2, "nv": 2, "table": table}))
    assert "NaN" in (game_path if where == "game" else behaviour_path).read_text()
    commands = [["channel", "--game", str(game_path), "--behaviour",
                 str(behaviour_path)],
                ["simulate", "--game", str(game_path), "--behaviour",
                 str(behaviour_path), "--rounds", "100"]]
    if where == "game":
        commands += [["value", "--game", str(game_path)],
                     ["channel", "--game", str(game_path), "--behaviour", "pr"]]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VALIDATION, (argv, out, err)
        assert out == "" and "non-finite" in err
        assert ("mu" if where == "game" else "table") in err


def test_unknown_specs_exit_parse(capsys):
    code, _, err = run(capsys, "value", "--game", "tictactoe")
    assert code == EXIT_PARSE
    code, _, err = run(capsys, "simulate", "--game", "chsh",
                       "--behaviour", "wat")
    assert code == EXIT_PARSE


def test_budget_exit_code(capsys, tmp_path):
    path = tmp_path / "big.json"
    save_game(make_chained(21), str(path))  # nu + nv = 42
    code, _, err = run(capsys, "value", "--game", str(path))
    assert code == EXIT_BUDGET


def test_round_table_budget_exit_code(capsys, tmp_path):
    # a file game one row past chained:256's round table is refused before
    # the table is built; chained:256 itself still simulates
    nu, nv = 257, 256
    path = tmp_path / "wide.json"
    save_game(XorGame(name="wide", mu=[[1.0 / (nu * nv)] * nv] * nu,
                      f=[[0] * nv] * nu),
              str(path))
    code, out, err = run(capsys, "simulate", "--game", str(path),
                         "--behaviour", "uniform", "--rounds", "1000")
    assert code == EXIT_BUDGET and out == "" and "cells" in err
    data = run_json(capsys, "simulate", "--game", "chained:256",
                    "--behaviour", "pr", "--rounds", "1000")
    assert data["empirical_p"] == 1.0


def test_game_file_roundtrip_bit_identical(capsys, tmp_path):
    ref = run_json(capsys, "value", "--game", "chained:3", "--seed", "5")
    path = tmp_path / "c3.json"
    save_game(make_chained(3), str(path))
    reloaded = run_json(capsys, "value", "--game", str(path), "--seed", "5")
    assert reloaded["omega_local"] == ref["omega_local"]
    assert reloaded["omega_quantum"] == ref["omega_quantum"]
    assert reloaded["strategy"] == ref["strategy"]


def test_channel_mix_spec(capsys):
    data = run_json(capsys, "channel", "--game", "chsh",
                    "--behaviour", "mix:pr:0.5")
    assert data["p"] == pytest.approx(0.75, abs=1e-12)
    assert data["mutual_information_bits"] == pytest.approx(0.188722, abs=1e-6)
    assert data["nonsignalling"] is True


def test_channel_nested_noise_composes(capsys):
    data = run_json(capsys, "channel", "--game", "chsh",
                    "--behaviour", "noisy:noisy:pr:0.1:0.2")
    assert abs(data["p"] - apply_noise(apply_noise(1.0, 0.1), 0.2)) < 1e-15


@pytest.mark.parametrize("kind", ["noisy", "mix"])
def test_deep_wrapper_nesting_applies_every_layer(capsys, kind):
    # 2000 layers: one loop, no recursion limit
    layers, x = 2000, ("0.01" if kind == "noisy" else "0.999")
    spec = f"{kind}:" * layers + "pr" + f":{x}" * layers
    data = run_json(capsys, "channel", "--game", "chsh", "--behaviour", spec)
    label, delta, b = "pr", 0.0, games.pr_box(games.make_chsh())
    for _ in range(layers):
        label = f"{kind}:{label}:{float(x):g}"
        if kind == "noisy":
            delta = apply_noise(delta, float(x))
        else:
            b = games.mix_with_uniform(b, float(x))
    assert data["behaviour"] == label
    assert data["p"] == apply_noise(games.game_value(games.make_chsh(), b),
                                    delta)
    if kind == "noisy":
        p = 1.0
        for _ in range(layers):
            p = apply_noise(p, float(x))
        assert data["p"] == pytest.approx(p, abs=1e-15)


def test_noisy_nesting_past_recursion_limit_exits_zero(capsys):
    spec = "noisy:" * 1200 + "pr" + ":0.01" * 1200
    code, out, err = run(capsys, "channel", "--game", "chsh",
                         "--behaviour", spec)
    assert code == 0, err
    assert json.loads(out)["p"] == pytest.approx(0.5, abs=1e-9)


def test_channel_local_opt(capsys):
    data = run_json(capsys, "channel", "--game", "chsh",
                    "--behaviour", "local-opt")
    assert data["behaviour"] == "local-opt"
    assert data["p"] == 0.75
    assert data["nonsignalling"] is True


def _malformed(tmp_path, kind, content):
    """A game or behaviour file holding ``content``."""
    path = tmp_path / f"{kind}.json"
    path.write_bytes(content if isinstance(content, bytes)
                     else json.dumps(content).encode())
    return str(path)


def _load_argvs(kind, path):
    """Commands that read ``path`` as a game or as a behaviour file."""
    if kind == "game":
        return [["value", "--game", path],
                ["channel", "--game", path, "--behaviour", "uniform"]]
    return [["channel", "--game", "chsh", "--behaviour", path],
            ["simulate", "--game", "chsh", "--behaviour", path,
             "--rounds", "10"]]


@pytest.mark.parametrize("kind", ["game", "behaviour"])
@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00",
    b"[" * 10**5 + b"]" * 10**5,
    "booleans",
], ids=["not-utf8", "nested-1e5", "boolean-sizes"])
def test_malformed_files_exit_parse(capsys, tmp_path, kind, content):
    if content == "booleans":
        content = ({"name": "x", "nu": True, "nv": True, "mu": [[1.0]],
                    "f": [[0]]} if kind == "game" else
                   {"nu": True, "nv": True, "table": [[[[0.25] * 2] * 2]]})
    path = _malformed(tmp_path, kind, content)
    for argv in _load_argvs(kind, path):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_PARSE, (argv, err)
        assert out == "" and err.startswith("error (parse): ")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("kind", ["game", "behaviour"])
def test_endless_file_exits_budget(capsys, kind):
    for argv in _load_argvs(kind, "/dev/zero"):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BUDGET, (argv, err)
        assert out == "" and "exceeds" in err


def test_sweep_huge_step_overflows_quietly(capsys):
    # the running sum overflows past the cut at 4; no RuntimeWarning
    code, out, err = run(capsys, "sweep", "--step", "1e308")
    assert code == 0, err
    assert [line.split(",")[0] for line in out.splitlines()] == [
        "param", "0", "2", "2.82842712", "4"]


def test_finite_time_out_without_kt(capsys, tmp_path):
    path = tmp_path / "ft.csv"
    code, out, err = run(capsys, "finite-time", "--tau-grid", "10,20",
                         "--out", str(path))
    assert code == 0, err
    assert path.read_text().startswith("tau,sigma_mean,")
    assert "slope" in json.loads(out)


def test_channel_quantum_opt_chained(capsys):
    # quantum-opt on a game other than CHSH: the seesaw's behaviour, at
    # chained:3's closed form
    data = run_json(capsys, "channel", "--game", "chained:3",
                    "--behaviour", "quantum-opt")
    assert data["p"] == pytest.approx(math.cos(math.pi / 12) ** 2, abs=1e-12)


def test_channel_quantum_opt_near_chsh_weights(capsys, tmp_path):
    # CHSH's predicate with mu off by 1e-6 is another game, with its own
    # quantum optimum; exact CHSH gives the Tsirelson value
    path = tmp_path / "near-chsh.json"
    mu = [[0.25 + 1e-6, 0.25 - 1e-6], [0.25 - 1e-6, 0.25 + 1e-6]]
    save_game(XorGame(name="near-chsh", mu=mu, f=[[0, 0], [0, 1]]), str(path))
    data = run_json(capsys, "channel", "--game", str(path),
                    "--behaviour", "quantum-opt")
    value = run_json(capsys, "value", "--game", str(path))
    assert data["p"] == pytest.approx(value["omega_quantum"], abs=1e-12)
    save_game(games.make_chsh(), str(path))
    data = run_json(capsys, "channel", "--game", str(path),
                    "--behaviour", "quantum-opt")
    assert data["p"] == pytest.approx(math.cos(math.pi / 8) ** 2, abs=1e-15)


def _sub_seed(*keys):
    """bench/workloads.py's sub_seed: a 31-bit seed from the keys."""
    digest = hashlib.sha256(repr(tuple(keys)).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _values_game(nu, nv, seed):
    """The values benchmark's random game of this shape at a workload seed:
    a base game drawn from seed 2026, relabelled by the workload seed."""
    base = np.random.default_rng([2026, nu, nv])
    mu = base.random((nu, nv))
    mu /= mu.sum()
    f = base.integers(0, 2, size=(nu, nv))
    rng = np.random.default_rng(_sub_seed(seed, nu, nv))
    pu, pv = rng.permutation(nu), rng.permutation(nv)
    mu, f = mu[pu][:, pv], f[pu][:, pv]
    f = f ^ rng.integers(0, 2, size=(nu, 1)) ^ rng.integers(0, 2, size=(1, nv))
    return XorGame(name=f"random-{nu}x{nv}", mu=mu, f=f)


VALUES_SHAPES = ((15, 3), (12, 3), (3, 14), (3, 12), (6, 6), (8, 8), (10, 10))
# CHSH, chained:2-20 (the benchmark's chained games among them), the
# perfect 2x4 game and the benchmark's random games at workload seeds 1-3
QUANTUM_OPT_GAMES = (
    ["chsh"] + [f"chained:{n}" for n in range(2, 21)]
    + [XorGame(name="perfect-2x4", mu=[[0.125] * 4] * 2, f=[[0] * 4] * 2)]
    + [_values_game(nu, nv, seed) for seed in (1, 2, 3)
       for nu, nv in VALUES_SHAPES])


@pytest.mark.parametrize(
    "game", QUANTUM_OPT_GAMES,
    ids=lambda g: g if isinstance(g, str) else g.name)
def test_channel_quantum_opt_reaches_quantum_ceiling(capsys, tmp_path, game):
    if not isinstance(game, str):
        save_game(game, str(tmp_path / "game.json"))
        game = str(tmp_path / "game.json")
    data = run_json(capsys, "channel", "--game", game,
                    "--behaviour", "quantum-opt")
    value = run_json(capsys, "value", "--game", game)
    assert data["p"] == pytest.approx(value["omega_quantum"], abs=1e-12)
    assert data["mutual_information_bits"] == pytest.approx(
        value["ceilings_bits"]["quantum"], abs=1e-12)
    assert (1.0 + data["bias"]) / 2.0 == pytest.approx(data["p"], abs=1e-12)
    assert data["nonsignalling"] is True
    if game.startswith("chained:"):
        n = int(game.split(":")[1])
        assert data["p"] == pytest.approx(math.cos(math.pi / (4 * n)) ** 2,
                                          abs=1e-12)


def test_simulate_quantum_opt_chained(capsys):
    data = run_json(capsys, "simulate", "--game", "chained:6",
                    "--behaviour", "quantum-opt", "--rounds", "1000000")
    assert abs(data["z_score"]) < 4
    p = math.cos(math.pi / 24) ** 2
    assert data["analytic_work_kt"] == pytest.approx(
        math.log(2.0) * (1.0 - (-p * math.log2(p)
                                - (1.0 - p) * math.log2(1.0 - p))), abs=1e-12)


@pytest.mark.parametrize("command", ["channel", "simulate"])
def test_quantum_opt_over_question_budget_exits_4(capsys, tmp_path,
                                                  monkeypatch, command):
    # refused before any seesaw step, on chained:21 and on a 30x11 file
    def no_seesaw(*args):
        raise AssertionError("the seesaw ran")

    monkeypatch.setattr(optimize, "_seesaw", no_seesaw)
    path = tmp_path / "wide.json"
    save_game(XorGame(name="g", mu=[[1 / 330] * 11] * 30, f=[[0] * 11] * 30),
              str(path))
    for game in ("chained:21", str(path)):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "--game", game,
                             "--behaviour", "quantum-opt")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_BUDGET and out == "", err
        assert "nu + nv" in err


def _anti_pr_file(tmp_path):
    """A CHSH behaviour file that always loses (p = 0)."""
    path = tmp_path / "anti-pr.json"
    games.save_behaviour(
        games.correlator_behaviour([[-1.0, -1.0], [-1.0, 1.0]]), str(path))
    return str(path)


@pytest.mark.parametrize("spec, p", [("{}", 0.0), ("mix:{}:0.5", 0.25),
                                     ("noisy:{}:0.1", 0.1)])
def test_simulate_orients_as_channel_does(capsys, tmp_path, spec, p):
    spec = spec.format(_anti_pr_file(tmp_path))
    chan = run_json(capsys, "channel", "--game", "chsh", "--behaviour", spec)
    assert chan["p"] == pytest.approx(p, abs=1e-15) and chan["flipped"]
    data = run_json(capsys, "simulate", "--game", "chsh", "--behaviour", spec,
                    "--rounds", "20000", "--seed", "3")
    assert data["flipped"] is True
    assert data["analytic_work_kt"] == pytest.approx(
        chan["feedback_work_kt"], abs=1e-12)
    if p == 0.0:
        assert data["empirical_p"] == 1.0 and data["stderr_kt"] == 0.0
    else:
        assert abs(data["z_score"]) < 4.0


def test_simulate_pr_exact(capsys):
    data = run_json(capsys, "simulate", "--game", "chsh", "--behaviour", "pr",
                    "--rounds", "20000", "--seed", "3")
    assert data["empirical_p"] == 1.0
    assert data["mean_work_kt"] == pytest.approx(math.log(2), abs=0)
    assert data["stderr_kt"] == 0.0
    assert data["z_score"] == 0.0
    assert data["seed"] == 3
    assert "flipped" not in data  # present only for a channel below 1/2


def test_simulate_noisy_pr(capsys):
    data = run_json(capsys, "simulate", "--game", "chsh",
                    "--behaviour", "noisy:pr:0.1", "--rounds", "100000",
                    "--seed", "4")
    assert data["noise_delta"] == 0.1
    se = math.sqrt(0.9 * 0.1 / 100000)
    assert abs(data["empirical_p"] - 0.9) < 4 * se
    assert abs(data["z_score"]) < 4


def test_simulate_quantum_opt_z_score(capsys):
    data = run_json(capsys, "simulate", "--game", "chsh",
                    "--behaviour", "quantum-opt", "--rounds", "200000",
                    "--seed", "7")
    assert abs(data["z_score"]) <= 4
    assert abs(data["analytic_work_kt"] - 0.276666) < 5e-4


def test_simulate_records_csv(capsys, tmp_path):
    path = tmp_path / "rounds.csv"
    run_json(capsys, "simulate", "--game", "chsh", "--behaviour", "pr",
             "--rounds", "50", "--seed", "1", "--records", str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,u,v,a,b,r,g,e,won"
    assert len(lines) == 51


def test_simulate_records_bytes_match_csv_writer(capsys, tmp_path):
    # the transcript file is the csv module's rendering of the drawn rows,
    # whether it is longer than the round table (72 cells for chained:3,
    # 1152 with two-digit questions for chained:12) or shorter, and over
    # more than two writer chunks
    header = ["x", "u", "v", "a", "b", "r", "g", "e", "won"]
    for chain, n in itertools.product((3, 12), (3000, 20, 2 * _CSV_ROWS + 5)):
        g = make_chained(chain)
        b = games.mix_with_uniform(games.pr_box(g), 0.75)
        path = tmp_path / f"rounds{chain}_{n}.csv"
        data = run_json(capsys, "simulate", "--game", f"chained:{chain}",
                        "--behaviour", "mix:pr:0.75", "--rounds", str(n),
                        "--seed", "7", "--records", str(path))
        stats, rounds, cells = simulate_rounds(g, b, n, 7, keep_records=True)
        assert stats.to_json_dict().items() <= data.items()
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(header)
        writer.writerows([int(r[k]) for k in header] for r in rounds[cells])
        assert path.read_bytes() == ref.getvalue().encode("utf-8")


def test_sweep_markers(capsys):
    code, out, _ = run(capsys, "sweep", "--step", "0.25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,value_bits,value_kt"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert float(rows["0"][1]) == 0.0
    assert abs(float(rows["2"][1]) - 0.188722) < 1e-6
    assert abs(float(rows["2.82842712"][1]) - 0.3991) < 5e-5
    assert float(rows["4"][1]) == 1.0


def _sweep_reference(step, kt):
    """The CSV of the sweep built in memory, from a running float sum."""
    s_values, s = [], 0.0
    while s < 4.0 + 1e-12:
        s_values.append(min(s, 4.0))
        s += step
    s_values += [2.0, 2.0 * math.sqrt(2.0), 4.0]
    lines = ["param,value_bits,value_kt"]
    for s, bits, w in engine.sweep_s_curve(sorted(set(s_values))):
        lines.append(f"{s:.9g},{bits:.9g},{w * kt:.9g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("step,kt", [("0.25", "1"), ("0.3", "2.5"),
                                     ("1e-3", "1"), ("7e-5", "0.5")])
def test_sweep_matches_running_sum(capsys, tmp_path, step, kt):
    # 7e-5 writes 57 144 rows, so several chunks
    expected = _sweep_reference(float(step), float(kt))
    code, out, _ = run(capsys, "sweep", "--step", step, "--kt", kt)
    assert code == 0 and out == expected
    path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--step", step, "--kt", kt,
                     "--out", str(path))
    assert code == 0 and path.read_text() == expected


def test_sweep_memory_bounded(tmp_path):
    # 10^5 rows: one float array of S values and one chunk of rows at a
    # time (holding every row and line took 29.5 MB)
    tracemalloc.start()
    try:
        code = main(["sweep", "--step", "4e-5",
                     "--out", str(tmp_path / "sweep.csv")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 6 * 2**20, peak


def _fail_second_sweep_chunk(monkeypatch, error):
    """Make the second sweep chunk raise ``error``; returns the call log."""
    calls = []
    curve = engine.sweep_s_curve

    def failing(s_values):
        calls.append(len(s_values))
        if len(calls) == 2:
            raise error
        return curve(s_values)

    monkeypatch.setattr(engine, "sweep_s_curve", failing)
    return calls


def test_sweep_validation_error_leaves_no_file(capsys, tmp_path,
                                               monkeypatch):
    # a chunk after the first fails: the rows written so far are removed
    calls = _fail_second_sweep_chunk(monkeypatch, ValidationError("injected"))
    path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--step", "4e-4", "--out", str(path))
    assert code == EXIT_VALIDATION and "injected" in err
    assert len(calls) == 2 and not path.exists()


def test_sweep_os_error_leaves_no_file(capsys, tmp_path, monkeypatch):
    # any error main maps to an exit code removes the partial file, not
    # only a ValidationError
    calls = _fail_second_sweep_chunk(monkeypatch, OSError("injected"))
    code, _, err = run(capsys, "sweep", "--step", "4e-4",
                       "--out", str(tmp_path / "sweep.csv"))
    assert code == EXIT_PARSE and "error (output): injected" in err
    assert len(calls) == 2 and list(tmp_path.iterdir()) == []


def test_failed_command_keeps_an_output_it_never_opened(capsys, tmp_path):
    # --records fails before --out is opened: an existing --out file keeps
    # its bytes
    keep = tmp_path / "keep.json"
    keep.write_bytes(b"old bytes\n")
    code, _, _ = run(capsys, "simulate", "--game", "chsh", "--behaviour", "pr",
                     "--rounds", "100", "--records", "/nonexistent/dir/r.csv",
                     "--out", str(keep))
    assert code == EXIT_PARSE
    assert keep.read_bytes() == b"old bytes\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--game", "chsh", "--behaviour", "pr", "--rounds", "100",
     "--records", os.devnull, "--out", "/nonexistent/o.json"],
    ["sweep", "--step", "4e-4", "--out", os.devnull],
    ["sweep", "--step", "4e-4", "--out", "link.csv"]],
    ids=["records-devnull", "out-devnull", "out-symlink"])
def test_failed_command_removes_no_device_or_symlink(capsys, tmp_path,
                                                     monkeypatch, argv):
    # a failure removes only regular files the command opened, never a
    # device or a symlink; os.remove is recorded, not run
    monkeypatch.chdir(tmp_path)
    (tmp_path / "target.csv").write_bytes(b"")
    (tmp_path / "link.csv").symlink_to(tmp_path / "target.csv")
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    _fail_second_sweep_chunk(monkeypatch, ValidationError("injected"))
    code, _, _ = run(capsys, *argv)
    assert code in (EXIT_PARSE, EXIT_VALIDATION)
    assert removed == []


def test_interrupted_command_leaves_no_file(capsys, tmp_path, monkeypatch):
    # an error main does not map, such as Ctrl-C, still removes the partial
    # file before it propagates
    calls = _fail_second_sweep_chunk(monkeypatch, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--step", "4e-4", "--out", str(tmp_path / "s.csv")])
    assert len(calls) == 2 and list(tmp_path.iterdir()) == []


def test_cycle(capsys):
    assert run_json(capsys, "cycle", "--p", "1.0")["w_net_bits"] == 0.0
    data = run_json(capsys, "cycle", "--p", "0.75")
    assert data["w_net_bits"] == pytest.approx(-0.811278, abs=1e-6)
    assert run_json(capsys, "cycle", "--p", "0.5")["w_net_bits"] == -1.0


def test_finite_time_single_point_errors(capsys):
    code, _, err = run(capsys, "finite-time", "--tau-grid", "1e6",
                       "--reps", "100")
    assert code == EXIT_VALIDATION
    assert "2 points" in err


def test_finite_time_small_run(capsys):
    code, out, _ = run(capsys, "finite-time", "--tau-grid", "5,10,20",
                       "--reps", "400", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,sigma_mean,sigma_stderr,reps,seed"
    assert len(lines) >= 4
    tail = "\n".join(lines[4:])
    data = json.loads(tail)
    assert data["slope"] < 0


def _finite_time(capsys, *argv):
    """(CSV rows, JSON summary) of a successful finite-time run."""
    code, out, err = run(capsys, "finite-time", *argv)
    assert code == 0, err
    head, _, tail = out.partition("\n{")
    rows = [line.split(",") for line in head.strip().splitlines()]
    assert rows[0] == ["tau", "sigma_mean", "sigma_stderr", "reps", "seed"]
    return rows[1:], json.loads("{" + tail)


def test_finite_time_exact_sigma(capsys):
    # exit 5 by Monte Carlo noise at the parent; the exact Sigma(80) is
    # positive, and sigma_stderr is the exact sd / sqrt(reps)
    rows, data = _finite_time(capsys, "--p", "0.78", "--tau-grid",
                              "10,20,40,80", "--seed", "11")
    assert rows[-1][:2] == ["80", "0.00415201349"]
    _, sd = dynamics.sigma_moments(0.78, dynamics.ProtocolSchedule.linear(80))
    assert rows[-1][2:] == [f"{sd / math.sqrt(2000):.9g}", "2000", "11"]
    assert "monte_carlo" not in data
    # the exact Sigma of p = 1/2 is 0: still exit 5, with stderr 0
    code, _, err = run(capsys, "finite-time", "--p", "0.5", "--tau-grid",
                       "10,20", "--reps", "200")
    assert code == EXIT_REGIME
    assert "tau=10: sigma=0+-0;" in err and "exact" in err


def test_finite_time_rate_reaches_the_fit(capsys):
    # --rate reaches scaling_fit as the linear ramp at that rate, which
    # sets both the bath rate and the step count of each schedule
    rows, _ = _finite_time(capsys, "--tau-grid", "5,10", "--rate", "2")
    for row, tau in zip(rows, (5.0, 10.0)):
        at_rate = dynamics.sigma_moments(
            0.85, dynamics.ProtocolSchedule.linear(tau, rate=2.0))[0]
        at_one = dynamics.sigma_moments(
            0.85, dynamics.ProtocolSchedule.linear(tau))[0]
        assert row[1] == f"{at_rate:.9g}" != f"{at_one:.9g}"


def test_finite_time_draws_no_random_numbers(tmp_path):
    # finite-time is the exact recursion: numpy.random stays unimported
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; from xorszilard.cli import main; "
            "rc = main(['finite-time', '--tau-grid', '5,10']); "
            "sys.exit(rc or 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_out_dir_env(capsys, tmp_path, monkeypatch):
    # relative --out and --records paths resolve under the directory, not
    # the working directory
    out_dir, cwd = tmp_path / "out", tmp_path / "cwd"
    out_dir.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("XORSZILARD_OUT_DIR", str(out_dir))
    run_json(capsys, "cycle", "--p", "0.75", "--out", "ledger.json")
    saved = json.loads((out_dir / "ledger.json").read_text())
    assert saved["w_net_bits"] == pytest.approx(-0.811278, abs=1e-6)
    run_json(capsys, "simulate", "--game", "chsh", "--behaviour", "pr",
             "--rounds", "10", "--seed", "1", "--records", "rounds.csv")
    lines = (out_dir / "rounds.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"x,u,v,a,b,r,g,e,won" and len(lines) == 12
    assert list(cwd.iterdir()) == []


def test_kt_scaling(capsys):
    data = run_json(capsys, "cycle", "--p", "0.75", "--kt", "2.0")
    assert data["w_net_scaled"] == pytest.approx(
        -0.8112781244591328 * math.log(2) * 2.0, abs=1e-12)
