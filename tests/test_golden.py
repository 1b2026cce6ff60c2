import functools
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from golden.regen import (BENCH_CORPUS, COMMANDS, COMMANDS_CORPUS, CORPUS,
                          NAMED, RECORDS, RECORDS_ARGV, bench_outputs,
                          command_outputs, outputs, random_games)
from xorszilard import apply_noise, cli, game_value, orient

# Floats are held to a few ulp.  omega_quantum_upper is rounded to nearest,
# and its last digits move with the BLAS kernel by up to ~1.6e-13 on
# chained:20, so it gets an absolute bound.  A ceiling 1 - h2(omega) is
# ill-conditioned in omega: on other OpenBLAS core types (Haswell,
# SandyBridge, Prescott) omega_quantum moved 1-2 ulp and the quantum
# ceilings up to 10 ulp, so a ceiling also gets the change that ULPS ulp of
# its omega makes.  A simulate float gets the change that ULPS ulp of the
# channel's p makes, the same way (simulate_slopes).
ULPS = 4
UPPER_ABS = 2e-13


@functools.cache
def channel_p(game: str, behaviour: str) -> float:
    """The oriented p a simulate of ``game`` and ``behaviour`` draws from."""
    g = cli.parse_game_spec(game)
    b, delta, _ = cli.parse_behaviour_spec(behaviour, g)
    return orient(apply_noise(game_value(g, b), delta))[0]


def simulate_slopes(out: dict, p: float) -> dict:
    """d/dp, at the channel's p < 1, of each float of the simulate output
    ``out`` that moves with p, for the controller model q = p that every
    corpus command uses and --kt 1.

    With n rounds, p_hat = hits/n, L = ln(p/(1-p)) and
    s = sqrt(p_hat (1-p_hat)/(n-1)): analytic = p ln 2p + (1-p) ln 2(1-p),
    mean = p_hat ln 2p + (1-p_hat) ln 2(1-p), stderr = L s and
    z = (p_hat - p)/s.  An ulp of p ~ 0.983 on chained:6 quantum-opt, whose
    table comes from an SVD, moved stderr_kt 12 ulp and z_score 2.7e-13.
    """
    n, p_hat = out["rounds"], out["empirical_p"]
    mean = p_hat / p - (1.0 - p_hat) / (1.0 - p)
    slopes = {"analytic_work_kt": math.log(p / (1.0 - p)),
              "mean_work_kt": mean, "mean_work_scaled": mean}
    s = math.sqrt(p_hat * (1.0 - p_hat) / (n - 1)) if n > 1 else 0.0
    if s > 0.0:  # else stderr and z are exactly 0
        slopes.update(stderr_kt=s / (p * (1.0 - p)), z_score=1.0 / s)
    return slopes


def float_bound(path: str, want: float, record: dict) -> float:
    """How far the float at ``path`` of corpus entry ``record`` may move."""
    if path.endswith("/omega_quantum_upper"):
        return UPPER_ABS
    bound = ULPS * math.ulp(want)
    head, name = path.rsplit("/", 1)
    out = record["stdout"]
    if head.endswith(("/ceilings_bits", "/ceilings_kt")) and name != "ns":
        omega = out[f"omega_{name}"]
        if omega < 1.0:
            slope = math.log2(omega / (1.0 - omega))  # d(1 - h2)/d omega
            if head.endswith("_kt"):
                slope *= math.log(2.0)
            bound += abs(slope) * ULPS * math.ulp(omega)
    elif head == "/stdout" and "z_score" in out:  # a simulate output
        p = channel_p(out["game"], out["behaviour"])
        if p < 1.0:
            slope = simulate_slopes(out, p).get(name, 0.0)
            bound += abs(slope) * ULPS * math.ulp(p)
    return bound


def mismatches(got, want, record, path=""):
    """Where ``got`` departs from ``want``, a part of corpus entry
    ``record``: types, ints, strings, bools, None and list lengths exactly,
    floats within float_bound."""
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want
                for m in mismatches(got[k], want[k], record, f"{path}/{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, record, f"{path}/{i}")]
    if isinstance(want, float):
        ok = abs(got - want) <= float_bound(path, want, record)
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} != {want!r}"]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def corpus():
    return _load(CORPUS)


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return outputs(str(tmp_path_factory.mktemp("golden")))


def test_corpus_covers_every_game(corpus, current):
    assert current.keys() == corpus.keys()


@pytest.mark.parametrize("name", NAMED + [g.name for g in random_games()])
def test_value_matches_golden(corpus, current, name):
    assert mismatches(current[name], corpus[name], corpus[name]) == []


@pytest.fixture(scope="module")
def commands_corpus():
    return _load(COMMANDS_CORPUS)


@pytest.fixture(scope="module")
def commands_workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden-commands")


@pytest.fixture(scope="module")
def commands_current(commands_workdir):
    return command_outputs(str(commands_workdir))


def test_commands_corpus_covers_every_command(commands_corpus, commands_current):
    assert commands_current.keys() == commands_corpus.keys()


@pytest.mark.parametrize("key", [" ".join(argv)
                                 for argv in COMMANDS + [RECORDS_ARGV]])
def test_command_matches_golden(commands_corpus, commands_current, key):
    want = commands_corpus[key]
    assert mismatches(commands_current[key], want, want) == []


def test_records_match_golden_bytes(commands_current, commands_workdir):
    with open(RECORDS, "rb") as fh:
        want = fh.read()
    assert (commands_workdir / RECORDS_ARGV[-1]).read_bytes() == want


@pytest.fixture(scope="module")
def bench_corpus():
    return _load(BENCH_CORPUS)


@pytest.fixture(scope="module")
def bench_current(tmp_path_factory):
    return bench_outputs(str(tmp_path_factory.mktemp("golden-bench")))


def test_bench_corpus_covers_every_job(bench_corpus, bench_current):
    assert bench_current.keys() == bench_corpus.keys()


# keyed by the stored slice, so a job the benchmark drops fails the test above
@pytest.mark.parametrize("key", list(_load(BENCH_CORPUS)))
def test_bench_job_matches_golden(bench_corpus, bench_current, key):
    want = bench_corpus[key]
    assert mismatches(bench_current[key], want, want) == []


def _openblas() -> bool:
    """Whether numpy's BLAS is OpenBLAS (False where numpy cannot say)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _openblas(),
                    reason="needs OpenBLAS on x86-64")
def test_commands_hold_on_a_second_blas_kernel(tmp_path):
    # the value, command and bench-job corpus, in a child process on
    # OpenBLAS's Prescott kernels, which run on any x86-64 machine: a kernel
    # moves an SVD's last bits
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--basetemp", str(tmp_path / "child"),
         f"{__file__}::test_value_matches_golden",
         f"{__file__}::test_command_matches_golden",
         f"{__file__}::test_records_match_golden_bytes",
         f"{__file__}::test_bench_job_matches_golden"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
