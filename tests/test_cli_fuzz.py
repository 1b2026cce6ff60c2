"""A seeded grammar fuzzer of the CLI.

Each case is an argv drawn from a small grammar over the six subcommands,
the behaviour-spec grammar (deep wrapper nesting included), edge numbers
and malformed game and behaviour files, run in-process through
``cli.main``.  Every case must end in a documented exit code, let no
exception escape, print strict JSON (no NaN or Infinity) where a command
prints JSON, and finish within a generous wall-time bound, which checks
that the budgets bound the work.  A pair that ``channel`` accepts must
also simulate: the controller orients any channel, so only the round-table
budget may refuse it.  A small fixed corpus of channels below 1/2 runs
before the drawn cases, and so does ``quantum-opt`` on games beyond CHSH
(chained:20 and chained:21 at the question budget, a perfect game, 1x1,
zero-weight and near-CHSH files), each with its exit code.  Only stdlib
``random`` draws the cases.
"""

import contextlib
import io
import itertools
import json
import os
import random
import time
import traceback

from xorszilard import cli

SEED = 16
CASES = 400
DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
CASE_SECONDS = 10.0  # generous: the slowest case takes well under 1 s
JSON_COMMANDS = {"value", "channel", "simulate", "cycle"}  # JSON-only stdout

EDGE = ["0", "-1", "-0.0", "1e-300", "1e308", "1e400", "nan", "inf", "-inf",
        "abc", "", "0x10", "1_0"]
PROBS = ["0.75", "0.85", "0.99", "0.6", "0.1"]
BAD_PROBS = ["0.5", "0", "1", "1.5", "-0.2"]
FRACTIONS = ["0", "0.01", "0.1", "0.25", "0.5", "0.7", "1"]
BAD_FRACTIONS = ["1.5", "-0.1"]
SEEDS = ["0", "1", "7", "123456789", str(2**64)]
BAD_SEEDS = ["-1", "1.5"]


def _pick(rng, good, bad, p_bad=0.2):
    """A value from ``good``, or with probability ``p_bad`` an edge or
    malformed one from ``bad`` and EDGE."""
    return rng.choice(bad + EDGE) if rng.random() < p_bad else rng.choice(good)


def _game(name, nu, nv, mu, f):
    return {"name": name, "nu": nu, "nv": nv, "mu": mu, "f": f}


def _table(nu, nv, rng):
    rows = []
    for _ in range(nu):
        row = []
        for _ in range(nv):
            w = [rng.random() + 0.01 for _ in range(4)]
            s = sum(w)
            row.append([[w[0] / s, w[1] / s], [w[2] / s, w[3] / s]])
        rows.append(row)
    return rows


def _files(tmp_path, rng):
    """Write valid and malformed game and behaviour files; return
    (game paths, behaviour paths)."""
    quarter = [[0.25, 0.25], [0.25, 0.25]]
    chsh_f = [[0, 0], [0, 1]]
    uniform = [[[[0.25, 0.25], [0.25, 0.25]]] * 2] * 2
    deep = "[" * 100_000 + "]" * 100_000
    texts = {
        "g_chsh.json": _game("chsh", 2, 2, quarter, chsh_f),
        "g_1x1.json": _game("one", 1, 1, [[1.0]], [[1]]),
        "g_3x2.json": _game("r", 3, 2, [[1 / 6] * 2] * 3,
                            [[rng.randrange(2) for _ in range(2)]
                             for _ in range(3)]),
        "g_zero_row.json": _game("z", 2, 3, [[0.0] * 3, [1 / 3] * 3],
                                 [[0, 1, 0], [1, 0, 1]]),
        "g_renorm.json": _game("x", 2, 2, [[0.25 + 3e-10, 0.25], [0.25, 0.25]],
                               chsh_f),
        "g_offsum.json": _game("x", 2, 2, [[0.2] * 2] * 2, chsh_f),
        "g_negative.json": _game("x", 2, 2, [[0.5, -0.25], [0.5, 0.25]], chsh_f),
        "g_nan.json": _game("x", 2, 2, [[float("nan"), 0.25], [0.25, 0.25]],
                            chsh_f),
        "g_inf.json": _game("x", 2, 2, [[float("inf"), 0.25], [0.25, 0.25]],
                            chsh_f),
        "g_null.json": _game("x", 2, 2, [[None, 0.25], [0.25, 0.25]], chsh_f),
        "g_fbits.json": _game("x", 2, 2, quarter, [[0, 2], [0, 1]]),
        "g_shape.json": _game("x", 2, 3, quarter, chsh_f),
        "g_ragged.json": _game("x", 2, 2, [[0.5], [0.25, 0.25]], chsh_f),
        "g_text.json": _game("x", 2, 2, "abc", chsh_f),
        "g_dict.json": _game("x", 2, 2, {"a": 1}, chsh_f),
        "g_bool.json": _game("x", True, True, [[1.0]], [[0]]),
        "g_float.json": _game("x", 2.0, 2, quarter, chsh_f),
        "g_str.json": _game("x", "2", 2, quarter, chsh_f),
        "g_negsize.json": _game("x", -2, 2, quarter, chsh_f),
        "g_hugesize.json": _game("x", 10**30, 2, quarter, chsh_f),
        "g_zerosize.json": _game("x", 0, 2, [], []),
        "g_nameobj.json": _game({"a": [1]}, 2, 2, quarter, chsh_f),
        "g_nested.json": _game("x", 2, 2, [[[[[[[[0.25]]]]]]]] * 2, chsh_f),
        "g_toplist.json": [1, 2],
        "g_nomu.json": {"name": "x", "nu": 2, "nv": 2, "f": chsh_f},
        "g_noname.json": {"nu": 2, "nv": 2, "mu": quarter, "f": chsh_f},
        "b_uniform.json": {"nu": 2, "nv": 2, "table": uniform},
        "b_random.json": {"nu": 2, "nv": 2, "table": _table(2, 2, rng)},
        "b_antipr.json": {"nu": 2, "nv": 2,  # loses CHSH every round
                          "table": [[[[0, 0.5], [0.5, 0]]] * 2,
                                    [[[0, 0.5], [0.5, 0]],
                                     [[0.5, 0], [0, 0.5]]]]},
        "b_3x2.json": {"nu": 3, "nv": 2, "table": _table(3, 2, rng)},
        "b_renorm.json": {"nu": 1, "nv": 1,
                          "table": [[[[0.25 + 3e-10, 0.25], [0.25, 0.25]]]]},
        "b_offsum.json": {"nu": 1, "nv": 1,
                          "table": [[[[0.5, 0.25], [0.25, 0.25]]]]},
        "b_negative.json": {"nu": 1, "nv": 1,
                            "table": [[[[1.25, -0.25], [0.0, 0.0]]]]},
        "b_nan.json": {"nu": 1, "nv": 1,
                       "table": [[[[float("nan"), 0.25], [0.25, 0.25]]]]},
        "b_bool.json": {"nu": True, "nv": True,
                        "table": [[[[0.25, 0.25], [0.25, 0.25]]]]},
        "b_shape.json": {"nu": 2, "nv": 2, "table": quarter},
        "b_notable.json": {"nu": 2, "nv": 2},
    }
    raw = {
        "x_binary.json": b"\xff\xfe\x00",
        "x_deep.json": deep.encode(),
        "x_deep_field.json": b'{"nu": 1, "nv": 1, "mu": ' + deep.encode()
                             + b', "table": ' + deep.encode() + b"}",
        "x_longint.json": b'{"name": "x", "nu": 1, "nv": 1, "mu": [[1'
                          + b"0" * 5000 + b'.0]], "f": [[0]], "table": 1}',
        "x_bigint.json": b'{"name": "x", "nu": 1, "nv": 1, "mu": [[1'
                         + b"0" * 400 + b']], "f": [[0]], '
                         b'"table": [[[[1' + b"0" * 400 + b", 0], [0, 0]]]]}",
        "x_empty.json": b"",
        "x_truncated.json": b'{"nu": 2, "nv": ',
        "x_bom.json": b"\xef\xbb\xbf" + json.dumps(
            _game("chsh", 2, 2, quarter, chsh_f)).encode(),
        "x_utf16.json": json.dumps({"nu": 1}).encode("utf-16"),
    }
    for name, data in texts.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    for name, data in raw.items():
        (tmp_path / name).write_bytes(data)
    paths = sorted(str(tmp_path / n) for n in list(texts) + list(raw))
    games = [p for p in paths if not os.path.basename(p).startswith("b_")]
    behaviours = [p for p in paths if not os.path.basename(p).startswith("g_")]
    games.append(str(tmp_path / "missing.json"))
    behaviours.append(str(tmp_path))  # a directory
    return games, behaviours


def _game_spec(rng, files):
    r = rng.random()
    if r < 0.35:
        return "chsh"
    if r < 0.55:
        return "chained:" + rng.choice(["2", "3", "5", "0", "1", "-2", "21",
                                        "257", "abc", "", "1e3"])
    if r < 0.95:
        return rng.choice(files)
    return rng.choice(["tictactoe", "", "chained", "chsh:2", "/dev/zero"])


def _behaviour_spec(rng, files):
    r = rng.random()
    if r < 0.6:
        spec = rng.choice(["pr", "uniform", "local-opt", "quantum-opt"])
    elif r < 0.9:
        spec = rng.choice(files)
    else:
        spec = rng.choice(["wat", "", "noisy:", "mix:", "noisy::0.1", "/dev/zero"])
    if rng.random() < 0.05:  # deep nesting, far past the recursion limit
        kind = rng.choice(["noisy", "mix"])
        layers = rng.randrange(1200, 2500)
        x = "0.01" if kind == "noisy" else "0.999"
        return f"{kind}:" * layers + spec + f":{x}" * layers
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        kind = rng.choice(["noisy", "mix"])
        spec = f"{kind}:{spec}:{_pick(rng, FRACTIONS, BAD_FRACTIONS, 0.1)}"
    return spec


def _argv(rng, games, behaviours, tmp_path):
    command = rng.choice(["value", "channel", "simulate", "sweep", "cycle",
                          "finite-time"])
    argv = [command]
    opt = {}
    if command in ("value", "channel", "simulate"):
        opt["--game"] = _game_spec(rng, games)
    if command in ("channel", "simulate"):
        opt["--behaviour"] = _behaviour_spec(rng, behaviours)
    if command in ("value", "simulate", "finite-time") and rng.random() < 0.4:
        opt["--seed"] = _pick(rng, SEEDS, BAD_SEEDS)
    if command == "simulate":
        records = rng.random() < 0.3
        opt["--rounds"] = _pick(
            rng, ["1", "100", "1000"],
            ["0", "-5", "1e3"] + ([str(10**7 + 1)] if records
                                  else [str(10**18), str(10**19)]))
        if records:
            opt["--records"] = str(tmp_path / rng.choice(["r.csv",
                                                          "nodir/r.csv"]))
        if rng.random() < 0.3:
            opt["--p-model"] = _pick(rng, PROBS, BAD_PROBS)
    if command == "sweep":
        opt["--step"] = _pick(rng, ["0.5", "0.25", "1", "4", "5", "0.1"],
                              ["1e-300", "1e308"])
    if command == "cycle":
        opt["--p"] = _pick(rng, PROBS, BAD_PROBS)
    if command == "finite-time":
        monte_carlo = rng.random() < 0.3
        if rng.random() < 0.7:
            opt["--p"] = _pick(rng, PROBS, BAD_PROBS)
        if rng.random() < 0.8:
            opt["--tau-grid"] = _pick(
                rng, ["5,10", "1,2,4", "10,20,40"]
                + ([] if monte_carlo else ["1000,2000"]),
                ["10", "5,nan", "10,inf", "0,5", "-5,10", "10,1e12",
                 "10,1e300"])
        opt["--reps"] = _pick(rng, ["2", "100"] + ([] if monte_carlo
                                                   else ["2000"]),
                              ["1", "-3"] + ([] if monte_carlo
                                             else [str(10**20)]))
        if rng.random() < 0.3:
            opt["--rate"] = _pick(rng, ["1", "0.5"], ["1e300"])
        if monte_carlo:
            argv.append("--monte-carlo")
    if rng.random() < (0.05 if command == "finite-time" else 0.3):
        opt["--kt"] = _pick(rng, ["2.5", "1e-21"], [], 0.5)  # finite-time: 2
    if rng.random() < 0.15:
        opt["--out"] = str(tmp_path / rng.choice(["out.txt", "nodir/out.txt"]))
    for key, value in opt.items():
        if rng.random() < 0.03:
            continue  # a missing option, required or not
        argv += [key, value]
    if rng.random() < 0.03:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "x"]))
    return argv


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue()


def test_cli_fuzz(tmp_path, monkeypatch):
    monkeypatch.delenv("XORSZILARD_OUT_DIR", raising=False)
    rng = random.Random(SEED)
    games, behaviours = _files(tmp_path, rng)
    # a fixed corpus first: channels below 1/2, which simulate must orient,
    # then quantum-opt beyond CHSH, each case with its exit code
    anti = str(tmp_path / "b_antipr.json")
    corpus = [(["channel", "--game", "chsh", "--behaviour", spec], 0)
              for spec in (anti, f"mix:{anti}:0.5", f"noisy:{anti}:0.1")]
    extra = {"q_perfect.json": _game("perfect", 2, 4, [[0.125] * 4] * 2,
                                     [[0] * 4] * 2),
             "q_near_chsh.json": _game("near", 2, 2,
                                       [[0.25 + 1e-6, 0.25 - 1e-6],
                                        [0.25 - 1e-6, 0.25 + 1e-6]],
                                       [[0, 0], [0, 1]])}
    for name, data in extra.items():
        (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    perfect = str(tmp_path / "q_perfect.json")
    quantum = [("chained:20", 0), ("chained:21", 4), (perfect, 0),
               (str(tmp_path / "g_1x1.json"), 0),
               (str(tmp_path / "g_zero_row.json"), 0),
               (str(tmp_path / "q_near_chsh.json"), 0)]
    corpus += [([command, "--game", game, "--behaviour", "quantum-opt"], code)
               for game, code in quantum for command in ("channel", "simulate")]
    drawn = ((_argv(rng, games, behaviours, tmp_path), None)
             for _ in range(CASES))
    seen = set()
    for case, (argv, expected) in enumerate(itertools.chain(corpus, drawn)):
        start = time.perf_counter()
        try:
            code, out = _run(argv)
        except Exception:
            raise AssertionError(f"case {case}: {argv!r:.400} raised\n"
                                 f"{traceback.format_exc()}") from None
        elapsed = time.perf_counter() - start
        where = f"case {case}: {argv!r:.400}"
        assert code in DOCUMENTED_EXITS, f"{where}: exit {code!r}"
        assert expected in (None, code), f"{where}: exit {code}, not {expected}"
        assert elapsed < CASE_SECONDS, f"{where}: took {elapsed:.1f} s"
        if code == 0 and argv[0] in JSON_COMMANDS:
            data = json.loads(out, parse_constant=_reject_constant)
            if perfect in argv and argv[0] == "channel":
                assert data["p"] == 1.0, f"{where}: p = {data['p']!r}"
        if code == 0 and argv[0] == "finite-time":  # any CSV rows, then JSON
            json.loads(out[out.index("{"):], parse_constant=_reject_constant)
        if code == 0 and argv[0] == "channel":
            pair = [a for key in ("--game", "--behaviour")
                    for a in (key, argv[argv.index(key) + 1])]
            sim_code, sim_out = _run(["simulate", *pair, "--rounds", "100"])
            assert sim_code in (0, 4), f"{where}: simulate exits {sim_code}"
            if sim_code == 0:
                json.loads(sim_out, parse_constant=_reject_constant)
        seen.add((argv[0], code))
    # the grammar reaches success and failure in every subcommand
    for command in ("value", "channel", "simulate", "sweep", "cycle",
                    "finite-time"):
        assert (command, 0) in seen and (command, 2) in seen, command
