"""The benchmark's four workloads: their inputs and the jobs of one round.

A round is a fixed list of jobs; a run repeats whole rounds, so every run
attempts the same mix of operations in the same proportions.  Each job is one
``xorszilard`` command line.  Inputs are made from the workload seed alone,
and every job seed is derived from the workload seed, the round index and the
job's slot in the round (see ``sub_seed``).

The reference description attached to each job (``ref``) is built here from
first principles, never from the program, so that ``checks`` can test the
program's output against it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Random games are relabellings of base games drawn once from this fixed seed;
# see make_values.
BASE_GAME_SEED = 2026


def sub_seed(*keys: int) -> int:
    """A non-negative 31-bit seed that depends only on ``keys``."""
    digest = hashlib.sha256(repr(tuple(int(k) for k in keys)).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass(frozen=True)
class GameRef:
    """A game as the references see it: question weights and predicate."""

    name: str
    mu: tuple[tuple[float, ...], ...]
    f: tuple[tuple[int, ...], ...]
    closed_form: tuple[float, float] | None = None  # (omega_local, omega_q)

    @property
    def nu(self) -> int:
        return len(self.mu)

    @property
    def nv(self) -> int:
        return len(self.mu[0])


@dataclass(frozen=True)
class Job:
    """One command of a round.

    ``argv`` may hold the placeholder ``{records}``, the transcript path.  A
    job with ``seeded=False`` always runs with the CLI's default seed,
    whatever the workload seed.
    """

    slot: int
    label: str
    argv: tuple[str, ...]
    ref: object
    seeded: bool = True

    def command(self, seed: int, records: str) -> list[str]:
        out = [a.format(records=records) for a in self.argv]
        if self.seeded:
            out += ["--seed", str(seed)]
        return out


@dataclass(frozen=True)
class SimRef:
    """A simulate job: game, behaviour table [u][v][a][b], noise and rounds."""

    game: GameRef
    behaviour: str
    table: tuple
    delta: float
    rounds: int


@dataclass(frozen=True)
class FiniteTimeRef:
    """A finite-time job: branch probability, tau grid and reps."""

    p: float
    taus: tuple[float, ...]
    reps: int


# ---------------------------------------------------------------------------
# games and behaviours, built apart from the program


def chsh_ref() -> GameRef:
    return GameRef("chsh", ((0.25, 0.25), (0.25, 0.25)), ((0, 0), (0, 1)),
                   closed_form=(0.75, math.cos(math.pi / 8) ** 2))


def chained_ref(n: int) -> GameRef:
    """The N-th chained game: pairs (j, j) and (j+1 mod N, j), weight 1/2N."""
    mu = [[0.0] * n for _ in range(n)]
    f = [[0] * n for _ in range(n)]
    for j in range(n):
        mu[j][j] = 1.0 / (2 * n)
        mu[(j + 1) % n][j] = 1.0 / (2 * n)
    f[0][n - 1] = 1
    return GameRef(f"chained:{n}", tuple(map(tuple, mu)), tuple(map(tuple, f)),
                   closed_form=(1.0 - 1.0 / (2 * n),
                                math.cos(math.pi / (4 * n)) ** 2))


def pr_table(game: GameRef) -> list:
    """The predicate box: a xor b = f(u,v) with uniform marginals."""
    return [[[[0.5 if (a ^ b) == game.f[u][v] else 0.0 for b in (0, 1)]
              for a in (0, 1)] for v in range(game.nv)] for u in range(game.nu)]


def tsirelson_table() -> list:
    """The Tsirelson-optimal CHSH behaviour: correlators +-1/sqrt(2)."""
    c = 1.0 / math.sqrt(2.0)
    e = [[c, c], [c, -c]]
    return [[[[(1.0 + (e[u][v] if a == b else -e[u][v])) / 4.0 for b in (0, 1)]
              for a in (0, 1)] for v in range(2)] for u in range(2)]


def mix_table(table: list, vis: float) -> list:
    return [[[[vis * p + (1.0 - vis) * 0.25 for p in row] for row in cell]
             for cell in line] for line in table]


def _freeze(x):
    return tuple(_freeze(y) for y in x) if isinstance(x, list) else x


def _write_game(game: GameRef, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": game.name, "nu": game.nu, "nv": game.nv,
                   "mu": [list(r) for r in game.mu],
                   "f": [list(r) for r in game.f]}, fh)


# ---------------------------------------------------------------------------
# values

# Tall games make local_value enumerate many strategies (it enumerates
# Alice's side); wide games of the same size cost it nothing; square games
# cost the seesaw more than the enumeration.
RANDOM_SHAPES = ((15, 3), (12, 3), (3, 14), (3, 12), (6, 6), (8, 8), (10, 10))
CHAINED_NS = (3, 4, 5, 6, 7, 8, 10, 12)


def random_game(nu: int, nv: int, seed: int) -> GameRef:
    """A base game relabelled by ``seed``.

    The base game (positive weights, random predicate) is drawn from
    BASE_GAME_SEED, so its cost to the seesaw, which varies by a factor of 50
    between random games of one shape, is the same on every workload seed.
    The workload seed permutes both players' questions and flips the
    predicate by a_u xor b_v; both maps preserve every class value.
    """
    base = np.random.default_rng([BASE_GAME_SEED, nu, nv])
    mu = base.random((nu, nv))
    mu /= mu.sum()
    f = base.integers(0, 2, size=(nu, nv))
    rng = np.random.default_rng(sub_seed(seed, nu, nv))
    pu, pv = rng.permutation(nu), rng.permutation(nv)
    mu, f = mu[pu][:, pv], f[pu][:, pv]
    f = f ^ rng.integers(0, 2, size=(nu, 1)) ^ rng.integers(0, 2, size=(1, nv))
    return GameRef(f"random-{nu}x{nv}", _freeze(mu.tolist()),
                   _freeze(f.astype(int).tolist()))


def make_values(seed: int, workdir: str) -> list[Job]:
    games_in = [(chsh_ref(), "chsh")]
    games_in += [(chained_ref(n), f"chained:{n}") for n in CHAINED_NS]
    for nu, nv in RANDOM_SHAPES:
        game = random_game(nu, nv, seed)
        path = os.path.join(workdir, f"{game.name}.json")
        _write_game(game, path)
        games_in.append((game, path))
    jobs = [Job(i, f"value {g.name}", ("value", "--game", spec), g)
            for i, (g, spec) in enumerate(games_in)]
    # Perfectly winnable, so omega_q = 1; the seesaw overshoots 1 by rounding
    # and `value` exits 3.  Whether it overshoots depends on the seesaw seed,
    # so this job keeps the CLI's default seed and fails on every run.
    perfect = GameRef("perfect-2x4", ((0.125,) * 4,) * 2, ((0,) * 4,) * 2,
                      closed_form=(1.0, 1.0))
    path = os.path.join(workdir, "perfect-2x4.json")
    _write_game(perfect, path)
    jobs.append(Job(len(jobs), "value perfect-2x4", ("value", "--game", path),
                    perfect, seeded=False))
    return jobs


# ---------------------------------------------------------------------------
# rounds and transcripts

CHAINED_SIM = 6


def _behaviour(spec: str, game: GameRef):
    """(table, delta) of a behaviour spec, built from first principles."""
    if spec.startswith("noisy:"):
        inner, _, delta = spec[len("noisy:"):].rpartition(":")
        table, d0 = _behaviour(inner, game)
        d = float(delta)
        return table, d0 + d - 2.0 * d0 * d
    if spec.startswith("mix:"):
        inner, _, vis = spec[len("mix:"):].rpartition(":")
        table, d0 = _behaviour(inner, game)
        return mix_table(table, float(vis)), d0
    if spec == "pr":
        return pr_table(game), 0.0
    if spec == "quantum-opt":
        return tsirelson_table(), 0.0
    raise ValueError(f"no reference for behaviour {spec!r}")


def _sim_jobs(plan, records: bool) -> list[Job]:
    jobs = []
    for slot, (game_spec, behaviour, n) in enumerate(plan):
        game = chsh_ref() if game_spec == "chsh" else chained_ref(CHAINED_SIM)
        table, delta = _behaviour(behaviour, game)
        argv = ["simulate", "--game", game_spec, "--behaviour", behaviour,
                "--rounds", str(n)]
        if records:
            argv += ["--records", "{records}"]
        ref = SimRef(game, behaviour, _freeze(table), delta, n)
        jobs.append(Job(slot, f"simulate {game_spec} {behaviour} n={n}",
                        tuple(argv), ref))
    return jobs


CHAINED = f"chained:{CHAINED_SIM}"

# Four size classes, 4 + 8 + 4 + 4 jobs, so that the median job falls inside
# the 3e5 class and the 90th percentile inside the 2e6 class.
ROUNDS_PLAN = (
    ("chsh", "pr", 100_000),
    ("chsh", "quantum-opt", 100_000),
    (CHAINED, "noisy:pr:0.2", 100_000),
    (CHAINED, "mix:pr:0.7", 100_000),
    ("chsh", "pr", 300_000),
    ("chsh", "quantum-opt", 300_000),
    ("chsh", "mix:pr:0.75", 300_000),
    ("chsh", "noisy:quantum-opt:0.1", 300_000),
    (CHAINED, "pr", 300_000),
    (CHAINED, "mix:pr:0.8", 300_000),
    (CHAINED, "noisy:pr:0.15", 300_000),
    ("chsh", "mix:quantum-opt:0.9", 300_000),
    ("chsh", "quantum-opt", 1_000_000),
    ("chsh", "noisy:pr:0.1", 1_000_000),
    (CHAINED, "mix:pr:0.9", 1_000_000),
    (CHAINED, "pr", 1_000_000),
    ("chsh", "quantum-opt", 2_000_000),
    ("chsh", "mix:pr:0.8", 2_000_000),
    (CHAINED, "noisy:pr:0.05", 2_000_000),
    (CHAINED, "mix:pr:0.85", 2_000_000),
)

# Records store the noiseless transcript, so only noiseless behaviours here.
# 12 jobs of 1e4 rounds, 3 of 3e4 and one of 1e5: the median falls in the
# first class and the 90th percentile in the second.
TRANSCRIPTS_PLAN = (
    ("chsh", "pr", 10_000),
    ("chsh", "quantum-opt", 10_000),
    ("chsh", "mix:pr:0.8", 10_000),
    ("chsh", "mix:quantum-opt:0.9", 10_000),
    (CHAINED, "pr", 10_000),
    (CHAINED, "mix:pr:0.75", 10_000),
    ("chsh", "pr", 10_000),
    ("chsh", "quantum-opt", 10_000),
    ("chsh", "mix:pr:0.6", 10_000),
    (CHAINED, "pr", 10_000),
    (CHAINED, "mix:pr:0.9", 10_000),
    ("chsh", "mix:quantum-opt:0.7", 10_000),
    ("chsh", "quantum-opt", 30_000),
    (CHAINED, "mix:pr:0.8", 30_000),
    ("chsh", "pr", 30_000),
    ("chsh", "quantum-opt", 100_000),
)


def make_rounds(seed: int, workdir: str) -> list[Job]:
    return _sim_jobs(ROUNDS_PLAN, records=False)


def make_transcripts(seed: int, workdir: str) -> list[Job]:
    return _sim_jobs(TRANSCRIPTS_PLAN, records=True)


# ---------------------------------------------------------------------------
# dissipation

# (p, tau grid, reps).  At every grid point the exact dissipation is at
# least 8.9 Monte Carlo standard errors above zero, so a fit meets a
# non-positive estimate (RegimeError) with probability below 1e-18.  Seven
# jobs, so the median falls inside one job's cluster of times.
DISSIPATION_PLAN = (
    (0.95, (5.0, 10.0, 20.0), 4000),
    (0.8, (2.5, 5.0, 10.0), 6000),
    (0.85, (5.0, 10.0, 20.0), 6000),
    (0.9, (5.0, 10.0, 20.0, 40.0), 8000),
    (0.85, (10.0, 20.0, 40.0), 12000),
    (0.95, (10.0, 20.0, 40.0, 80.0), 10000),
    (0.9, (10.0, 20.0, 40.0, 80.0), 16000),
)


def make_dissipation(seed: int, workdir: str) -> list[Job]:
    jobs = []
    for slot, (p, taus, reps) in enumerate(DISSIPATION_PLAN):
        grid = ",".join(f"{t:g}" for t in taus)
        argv = ("finite-time", "--p", str(p), "--tau-grid", grid,
                "--reps", str(reps))
        jobs.append(Job(slot, f"finite-time p={p} grid={grid} reps={reps}",
                        argv, FiniteTimeRef(p, taus, reps)))
    return jobs


MAKERS = {"values": make_values, "rounds": make_rounds,
            "transcripts": make_transcripts, "dissipation": make_dissipation}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """The jobs of one round for ``seed``; game files go to ``workdir``."""
    return MAKERS[workload](seed, workdir)
