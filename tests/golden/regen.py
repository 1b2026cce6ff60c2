"""Rewrite the golden `value` corpus, value.json, from the working tree.

    PYTHONPATH=src python tests/golden/regen.py

Each entry is the exit code and the parsed stdout JSON of one
``value --game G --seed 1``, run in-process through ``cli.main``.  The
corpus is a regression net, not an oracle: tests/test_golden.py holds the
program to the outputs it printed when the corpus was last written.  A
change that rewrites an entry names it in CHANGES.md with the reason.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from xorszilard import XorGame, save_game
from xorszilard.cli import main

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "value.json")
NAMED = ["chsh"] + [f"chained:{n}" for n in (3, 4, 5, 6, 7, 8, 10, 12)]
# the values benchmark's shapes: tall, wide and square
RANDOM_SHAPES = ((15, 3), (12, 3), (3, 14), (3, 12), (6, 6), (8, 8), (10, 10))
RANDOM_SEED = 24


def random_games():
    """One random game of each shape, all from one seeded generator."""
    rng = np.random.default_rng(RANDOM_SEED)
    out = []
    for nu, nv in RANDOM_SHAPES:
        mu = rng.random((nu, nv))
        out.append(XorGame(name=f"random-{nu}x{nv}", nu=nu, nv=nv,
                           mu=mu / mu.sum(), f=rng.integers(0, 2, (nu, nv))))
    return out


def run_value(spec: str) -> dict:
    """Exit code and parsed stdout of ``value --game spec --seed 1``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["value", "--game", spec, "--seed", "1"])
    return {"exit": code, "stdout": json.loads(out.getvalue())}


def outputs(workdir: str) -> dict:
    """Every corpus entry, keyed by game name; game files go in workdir."""
    entries = {name: run_value(name) for name in NAMED}
    for game in random_games():
        path = os.path.join(workdir, f"{game.name}.json")
        save_game(game, path)
        entries[game.name] = run_value(path)
    return entries


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        corpus = outputs(workdir)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(corpus)} entries to {CORPUS}", file=sys.stderr)
