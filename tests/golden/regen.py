"""Rewrite the golden corpus from the working tree.

    PYTHONPATH=src python tests/golden/regen.py

Every corpus file is rewritten in one run, each command run in-process
through ``cli.main``:

- value.json: the exit code and the parsed stdout JSON of
  ``value --game G --seed 1`` for each named and each seeded random game;
- commands.json: the same for each argv of COMMANDS and for RECORDS_ARGV,
  keyed by the argv joined with spaces.  CSV lines that a command prints
  before its JSON, or in its place, are kept as text under ``csv``: they
  carry 9 significant digits, so they are compared exactly;
- records.csv: the transcript RECORDS_ARGV writes, compared as bytes;
- bench_jobs.json: the same for the round-0 jobs of each benchmark workload
  at workload seed BENCH_SEED, with each job seeded as bench/run.py seeds
  it, keyed by "<workload>/<slot> <label>".  A --records job also stores
  the sha256 of its transcript, whose 10^4-10^5 rows are too many to keep.

The corpus is a regression net, not an oracle: tests/test_golden.py holds
the program to the outputs it printed when the corpus was last written.  A
change that rewrites an entry names it in CHANGES.md with the reason.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile

import numpy as np

from xorszilard import XorGame, save_game
from xorszilard.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.append(os.path.join(os.path.dirname(os.path.dirname(HERE)), "bench"))
import workloads  # noqa: E402  (the benchmark's job lists, read only)

CORPUS = os.path.join(HERE, "value.json")
COMMANDS_CORPUS = os.path.join(HERE, "commands.json")
RECORDS = os.path.join(HERE, "records.csv")
BENCH_CORPUS = os.path.join(HERE, "bench_jobs.json")
BENCH_WORKLOADS = ("values", "rounds", "transcripts", "dissipation")
BENCH_SEED = 1
NAMED = ["chsh"] + [f"chained:{n}" for n in (3, 4, 5, 6, 7, 8, 10, 12)]
# the values benchmark's shapes: tall, wide and square
RANDOM_SHAPES = ((15, 3), (12, 3), (3, 14), (3, 12), (6, 6), (8, 8), (10, 10))
RANDOM_SEED = 24

COMMANDS = (
    [["channel", "--game", g, "--behaviour", b]
     for g in ("chsh", "chained:12")
     for b in ("pr", "local-opt", "quantum-opt", "mix:pr:0.75")]
    + [["simulate", "--game", g, "--behaviour", b, "--seed", "5"]
       for g in ("chsh", "chained:6") for b in ("quantum-opt", "noisy:pr:0.1")]
    + [["cycle", "--p", "0.75"], ["sweep", "--step", "0.25"], ["finite-time"]])
# exact probabilities (no BLAS in the behaviour), so the bytes hold on any core
RECORDS_ARGV = ["simulate", "--game", "chained:6", "--behaviour", "mix:pr:0.75",
                "--rounds", "10000", "--seed", "5", "--records", "records.csv"]


def random_games():
    """One random game of each shape, all from one seeded generator."""
    rng = np.random.default_rng(RANDOM_SEED)
    out = []
    for nu, nv in RANDOM_SHAPES:
        mu = rng.random((nu, nv))
        out.append(XorGame(name=f"random-{nu}x{nv}", mu=mu / mu.sum(),
                           f=rng.integers(0, 2, (nu, nv))))
    return out


def run(argv: list[str]) -> dict:
    """Exit code and stdout of ``argv``: its JSON document, parsed, as
    ``stdout`` (None when it prints none), and any CSV lines as ``csv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    csv, brace, doc = out.getvalue().partition("{")
    entry = {"exit": code, "stdout": json.loads(brace + doc) if brace else None}
    if csv:
        entry["csv"] = csv.splitlines()
    return entry


def run_value(spec: str) -> dict:
    """Exit code and parsed stdout of ``value --game spec --seed 1``."""
    return run(["value", "--game", spec, "--seed", "1"])


def outputs(workdir: str) -> dict:
    """Every value.json entry, keyed by game name; game files go in workdir."""
    entries = {name: run_value(name) for name in NAMED}
    for game in random_games():
        path = os.path.join(workdir, f"{game.name}.json")
        save_game(game, path)
        entries[game.name] = run_value(path)
    return entries


def command_outputs(workdir: str) -> dict:
    """Every commands.json entry, keyed by argv; RECORDS_ARGV writes its
    transcript to records.csv in workdir."""
    entries = {" ".join(argv): run(argv) for argv in COMMANDS}
    entries[" ".join(RECORDS_ARGV)] = run(
        RECORDS_ARGV[:-1] + [os.path.join(workdir, RECORDS_ARGV[-1])])
    return entries


def bench_outputs(workdir: str) -> dict:
    """Every bench_jobs.json entry: the round-0 jobs of BENCH_WORKLOADS at
    BENCH_SEED, with game files and transcripts in workdir."""
    records = os.path.join(workdir, "bench-records.csv")
    entries = {}
    for workload in BENCH_WORKLOADS:
        for job in workloads.build(workload, BENCH_SEED, workdir):
            seed = workloads.sub_seed(BENCH_SEED, 0, job.slot)
            argv = job.command(seed, records)
            entry = entries[f"{workload}/{job.slot} {job.label}"] = run(argv)
            if "--records" in argv:
                with open(records, "rb") as fh:
                    entry["records_sha256"] = hashlib.sha256(
                        fh.read()).hexdigest()
    return entries


def _dump(data: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        values = outputs(workdir)
        commands = command_outputs(workdir)
        shutil.copyfile(os.path.join(workdir, RECORDS_ARGV[-1]), RECORDS)
        bench = bench_outputs(workdir)
    _dump(values, CORPUS)
    _dump(commands, COMMANDS_CORPUS)
    _dump(bench, BENCH_CORPUS)
    print(f"wrote {len(values)} entries to {CORPUS}, {len(commands)} to "
          f"{COMMANDS_CORPUS}, a transcript to {RECORDS} and {len(bench)} "
          f"entries to {BENCH_CORPUS}", file=sys.stderr)
