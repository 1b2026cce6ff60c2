import json
import math

import pytest

from golden.regen import (COMMANDS, COMMANDS_CORPUS, CORPUS, NAMED, RECORDS,
                          RECORDS_ARGV, command_outputs, outputs, random_games)

# Floats are held to a few ulp.  omega_quantum_upper is rounded to nearest,
# and its last digits move with the BLAS kernel by up to ~1.6e-13 on
# chained:20, so it gets an absolute bound.  A ceiling 1 - h2(omega) is
# ill-conditioned in omega: on other OpenBLAS core types (Haswell,
# SandyBridge, Prescott) omega_quantum moved 1-2 ulp and the quantum
# ceilings up to 10 ulp, so a ceiling also gets the change that ULPS ulp of
# its omega makes.
ULPS = 4
UPPER_ABS = 2e-13


def float_bound(path: str, want: float, record: dict) -> float:
    """How far the float at ``path`` of corpus entry ``record`` may move."""
    if path.endswith("/omega_quantum_upper"):
        return UPPER_ABS
    bound = ULPS * math.ulp(want)
    head, cls = path.rsplit("/", 1)
    if head.endswith(("/ceilings_bits", "/ceilings_kt")) and cls != "ns":
        omega = record["stdout"][f"omega_{cls}"]
        if omega < 1.0:
            slope = math.log2(omega / (1.0 - omega))  # d(1 - h2)/d omega
            if head.endswith("_kt"):
                slope *= math.log(2.0)
            bound += abs(slope) * ULPS * math.ulp(omega)
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


@pytest.fixture(scope="module")
def corpus():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


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
    with open(COMMANDS_CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


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
