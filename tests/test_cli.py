import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc

import pytest

from xorszilard import (ValidationError, XorGame, apply_noise, cli, dynamics,
                        engine, games, make_chained, save_game,
                        simulate_rounds)
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


def test_value_reports_seesaw_iterations(capsys):
    data = run_json(capsys, "value", "--game", "chained:6")
    assert type(data["iterations"]) is int and data["iterations"] > 0
    assert data["converged"] is True and "restarts" not in data


def test_value_perfect_game_caps_quantum_value(capsys, tmp_path):
    # the seesaw bias of a perfectly winnable game can round above 1
    path = tmp_path / "perfect.json"
    save_game(XorGame(name="perfect-2x4", nu=2, nv=4, mu=[[0.125] * 4] * 2,
                      f=[[0] * 4] * 2), str(path))
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
], ids=["value-seed", "simulate-seed", "finite-time-seed", "finite-time-p1",
        "sweep-nan", "sweep-inf", "finite-time-rate-nan", "finite-time-rate-inf",
        "finite-time-tau-nan", "finite-time-tau-inf", "finite-time-tau-abc",
        "simulate-rounds",
        "simulate-records", "finite-time-tau-1e12", "finite-time-tau-1e300",
        "finite-time-reps", "sweep-step-1e-20", "sweep-step-1e-9",
        "chained-257", "chained-1e10", "value-out-unwritable",
        "sweep-out-unwritable", "simulate-records-unwritable", "kt-nan",
        "kt-zero", "kt-negative", "kt-inf", "value-restarts",
        "p-model-one-lucky", "p-model-one-loses"])
def test_bad_input_exit_codes(capsys, tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == code, err
    assert "Traceback" not in err


def test_readme_cli_lines_parse():
    # every command in README's CLI block is accepted by the parser
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block = fh.read().split("## CLI", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("xorszilard ")]
    assert len(lines) >= 9
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line.strip()}")


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
    save_game(XorGame(name="wide", nu=nu, nv=nv,
                      mu=[[1.0 / (nu * nv)] * nv] * nu, f=[[0] * nv] * nu),
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


def test_channel_quantum_opt_requires_chsh(capsys):
    code, _, err = run(capsys, "channel", "--game", "chained:3",
                       "--behaviour", "quantum-opt")
    assert code == EXIT_VALIDATION


def test_simulate_pr_exact(capsys):
    data = run_json(capsys, "simulate", "--game", "chsh", "--behaviour", "pr",
                    "--rounds", "20000", "--seed", "3")
    assert data["empirical_p"] == 1.0
    assert data["mean_work_kt"] == pytest.approx(math.log(2), abs=0)
    assert data["stderr_kt"] == 0.0
    assert data["z_score"] == 0.0
    assert data["seed"] == 3


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
    # whether it is longer than chained:3's 72-cell table or shorter
    g = make_chained(3)
    b = games.mix_with_uniform(games.pr_box(g), 0.75)
    header = ["x", "u", "v", "a", "b", "r", "g", "e", "won"]
    for n in (3000, 20):
        path = tmp_path / f"rounds{n}.csv"
        data = run_json(capsys, "simulate", "--game", "chained:3",
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


def test_sweep_validation_error_leaves_no_file(capsys, tmp_path,
                                               monkeypatch):
    # a chunk after the first fails: the rows written so far are removed
    calls = []
    curve = engine.sweep_s_curve

    def failing(s_values):
        calls.append(len(s_values))
        if len(calls) == 2:
            raise ValidationError("injected")
        return curve(s_values)

    monkeypatch.setattr(engine, "sweep_s_curve", failing)
    path = tmp_path / "sweep.csv"
    code, out, err = run(capsys, "sweep", "--step", "4e-4", "--out", str(path))
    assert code == EXIT_VALIDATION and "injected" in err
    assert len(calls) == 2 and not path.exists()


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


def test_finite_time_monte_carlo(capsys):
    argv = ("--p", "0.9", "--tau-grid", "5,10,20", "--reps", "4000",
            "--seed", "3")
    exact_rows, exact = _finite_time(capsys, *argv)
    rows, data = _finite_time(capsys, *argv, "--monte-carlo")
    # the fit and the CSV are the exact ones either way
    checks = data.pop("monte_carlo")
    assert rows == exact_rows and data == exact and len(checks) == 3
    for i, (row, mc) in enumerate(zip(rows, checks)):
        assert mc["tau"] == float(row[0]) and mc["reps"] == 4000
        assert mc["seed"] == [3, i]
        assert mc["z"] == pytest.approx(
            (mc["sigma_mean"] - float(row[1])) / float(row[2]), rel=1e-6)
        assert abs(mc["z"]) < 5 and abs(mc["z_jarzynski"]) < 5
        assert mc["z_jarzynski"] == pytest.approx(
            (mc["exp_neg_sigma"] - 1) / mc["exp_neg_sigma_stderr"])


def test_finite_time_draws_no_random_numbers(tmp_path):
    # the default run is the exact recursion: numpy.random stays unimported
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; from xorszilard.cli import main; "
            "rc = main(['finite-time', '--tau-grid', '5,10']); "
            "sys.exit(rc or 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_out_dir_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("XORSZILARD_OUT_DIR", str(tmp_path))
    run_json(capsys, "cycle", "--p", "0.75", "--out", "ledger.json")
    saved = json.loads((tmp_path / "ledger.json").read_text())
    assert saved["w_net_bits"] == pytest.approx(-0.811278, abs=1e-6)


def test_kt_scaling(capsys):
    data = run_json(capsys, "cycle", "--p", "0.75", "--kt", "2.0")
    assert data["w_net_scaled"] == pytest.approx(
        -0.8112781244591328 * math.log(2) * 2.0, abs=1e-12)
