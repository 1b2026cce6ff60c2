"""Finite two-player XOR games and behaviour tables.

An XOR game asks two non-communicating players questions ``(u, v)`` drawn
from a distribution ``mu`` and is won when the XOR of their output bits
equals a binary predicate ``f(u, v)``.  A behaviour is the conditional
probability table ``P(a, b | u, v)`` describing the players' device; it may
be local, quantum, or merely nonsignalling.  Everything in this module is a
pure function of immutable values.  The bias form W = mu * (-1)^f lives
here (``_weights``): ``bias`` and optimize's local and quantum values read
it.

Index conventions: behaviour tables are stored as ``table[u][v][a][b]`` and
question matrices row-major as ``m[u][v]``.  The question counts ``nu`` and
``nv`` of a game or behaviour are read from these shapes, never passed; only
a file states them, and its reader checks its grids against them.
Probability checks use absolute tolerance 1e-12; file loaders renormalize
only deviations below 1e-9.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ParseError, ValidationError, check_count

PROB_ATOL = 1e-12
RENORM_ATOL = 1e-9
MAX_CHAIN = 256  # chained:N budget; a simulated PR box peaks at ~81 MB there
MAX_FILE_BYTES = 2**25  # game/behaviour file budget; a 256x256 behaviour is 8.5 MiB


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_entries(arr: np.ndarray, field: str):
    """Reject the first negative or non-finite entry of a probability array;
    NaN passes both ``< 0`` and any sum test, so it is named here."""
    bad = ~np.isfinite(arr) | (arr < 0)
    if bad.any():
        index = np.argwhere(bad)[0]
        where = "".join(f"[{i}]" for i in index)
        kind = "negative" if arr[tuple(index)] < 0 else "non-finite"
        raise ValidationError(f"{field}: {kind} entry at {where}")


@dataclass(frozen=True, eq=False)
class XorGame:
    """An XOR game: question distribution and predicate.

    ``mu`` is a non-empty ``nu x nv`` matrix of question probabilities
    summing to 1; ``f`` is a matrix of predicate bits of the same shape.
    The question counts ``nu`` and ``nv`` are read from mu's shape.
    """

    name: str
    mu: np.ndarray
    f: np.ndarray
    nu: int = field(init=False)
    nv: int = field(init=False)

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        f = np.array(self.f)
        if mu.ndim != 2 or mu.size == 0:
            raise ValidationError("game field 'mu': need a non-empty 2-D "
                                  f"array, got shape {mu.shape}")
        if f.shape != mu.shape:
            raise ValidationError(
                f"game field 'f': shape {f.shape} != {mu.shape}")
        _check_entries(mu, "game field 'mu'")
        total = float(mu.sum())
        if abs(total - 1.0) > PROB_ATOL:
            raise ValidationError(
                f"game field 'mu': entries sum to {total!r}, expected 1")
        bits = (f == 0) | (f == 1)
        if not bits.all():
            u, v = np.argwhere(~bits)[0]
            raise ValidationError(f"game field 'f': entry at [{u}][{v}] not a bit")
        object.__setattr__(self, "mu", _read_only(mu))
        object.__setattr__(self, "f", _read_only(f.astype(np.int64)))
        object.__setattr__(self, "nu", mu.shape[0])
        object.__setattr__(self, "nv", mu.shape[1])


@dataclass(frozen=True, eq=False)
class Behaviour:
    """Conditional probability table P(a,b|u,v), stored as table[u][v][a][b];
    the question counts ``nu`` and ``nv`` are read from its shape."""

    table: np.ndarray
    nu: int = field(init=False)
    nv: int = field(init=False)

    def __post_init__(self):
        t = np.array(self.table, dtype=float)
        if t.ndim != 4 or t.shape[2:] != (2, 2) or t.size == 0:
            raise ValidationError(
                "behaviour field 'table': need a non-empty (nu, nv, 2, 2) "
                f"array, got shape {t.shape}")
        _check_entries(t, "behaviour field 'table'")
        sums = t.sum(axis=(2, 3))
        bad = np.abs(sums - 1.0) > PROB_ATOL
        if bad.any():
            u, v = np.argwhere(bad)[0]
            raise ValidationError(
                f"behaviour field 'table': slice [{u}][{v}] sums to "
                f"{sums[u, v]!r}, expected 1")
        object.__setattr__(self, "table", _read_only(t))
        object.__setattr__(self, "nu", t.shape[0])
        object.__setattr__(self, "nv", t.shape[1])


# ---------------------------------------------------------------------------
# standard instances


def make_chsh() -> XorGame:
    """The CHSH game: two questions each, uniform mu, predicate f(u,v) = u*v."""
    mu = np.full((2, 2), 0.25)
    f = np.array([[0, 0], [0, 1]])
    return XorGame(name="chsh", mu=mu, f=f)


def make_chained(n: int) -> XorGame:
    """The N-th chained game.

    Questions run over {0..N-1} on both sides; the referee samples uniformly
    from the 2N pairs (j, j) and (j+1 mod N, j).  All constrained pairs
    demand equal outputs except the wrap-around pair (0, N-1), which demands
    unequal ones.  N is capped at MAX_CHAIN: mu and f are dense N x N.
    """
    if check_count(n, "chained game: N") < 2:
        raise ValidationError(f"chained game: need integer N >= 2, got {n!r}")
    if n > MAX_CHAIN:
        raise BudgetError(f"chained game: N = {n} > {MAX_CHAIN}")
    mu = np.zeros((n, n))
    f = np.zeros((n, n), dtype=int)
    w = 1.0 / (2 * n)
    for j in range(n):
        mu[j, j] = w
        mu[(j + 1) % n, j] = w
    f[0, n - 1] = 1
    return XorGame(name=f"chained:{n}", mu=mu, f=f)


# ---------------------------------------------------------------------------
# behaviour constructors


def uniform_behaviour(game: XorGame) -> Behaviour:
    """The maximally mixed behaviour: every output pair has probability 1/4."""
    return Behaviour(np.full((game.nu, game.nv, 2, 2), 0.25))


def deterministic_behaviour(amap, bmap) -> Behaviour:
    """Deterministic strategy: player outputs are fixed functions of questions.

    ``amap`` and ``bmap`` list the output bit for each question of Alice and
    Bob respectively, so their lengths are the question counts; a map that
    does not fit a game fails where the behaviour meets it (``_check_dims``).
    """
    a, b = np.asarray(list(amap)), np.asarray(list(bmap))
    if a.ndim != 1 or b.ndim != 1:
        raise ValidationError(
            f"strategy maps must be 1-D, got shapes {a.shape} and {b.shape}")
    if not (((a == 0) | (a == 1)).all() and ((b == 0) | (b == 1)).all()):
        raise ValidationError("strategy maps must contain bits only")
    t = np.zeros((a.size, b.size, 2, 2))
    t[np.arange(a.size)[:, None], np.arange(b.size),
      a.astype(np.int64)[:, None], b.astype(np.int64)] = 1.0
    return Behaviour(t)


def pr_box(game: XorGame) -> Behaviour:
    """The predicate box: output pairs satisfy a xor b = f(u,v) with certainty.

    For CHSH this is the Popescu-Rohrlich box.  Marginals are uniform on
    every question pair, so the box is nonsignalling, and it wins the game
    with probability 1.
    """
    return correlator_behaviour(1.0 - 2.0 * game.f)  # correlator (-1)^f


def correlator_behaviour(e) -> Behaviour:
    """Behaviour with uniform marginals realizing the given correlator matrix
    E_uv = E[(-1)^(a xor b) | u, v], an nu x nv matrix of entries in
    [-1, 1]; entries up to PROB_ATOL outside, as rounding leaves the
    product of two unit vectors, are clipped to it."""
    e = np.array(e, dtype=float)
    if e.ndim != 2:
        raise ValidationError(
            f"correlator matrix: need a 2-D array, got shape {e.shape}")
    outside = ~(np.abs(e) <= 1.0 + PROB_ATOL)  # NaN is outside too
    if outside.any():
        u, v = np.argwhere(outside)[0]
        raise ValidationError(
            f"correlator entry [{u}][{v}] = {float(e[u, v])!r} outside [-1, 1]")
    e = np.clip(e, -1.0, 1.0)  # an entry within PROB_ATOL past +-1 is +-1
    t = np.empty(e.shape + (2, 2))
    t[:, :, 0, 0] = t[:, :, 1, 1] = (1.0 + e) / 4.0
    t[:, :, 0, 1] = t[:, :, 1, 0] = (1.0 - e) / 4.0
    return Behaviour(t)


def mix_with_uniform(b: Behaviour, visibility: float) -> Behaviour:
    """Convex mixture v*b + (1-v)*uniform; the bias scales linearly with v."""
    if not 0.0 <= visibility <= 1.0:
        raise ValidationError(f"visibility {visibility!r} outside [0, 1]")
    t = visibility * b.table + (1.0 - visibility) * 0.25
    return Behaviour(t)


# ---------------------------------------------------------------------------
# evaluation


def _check_dims(game: XorGame, b: Behaviour):
    if (game.nu, game.nv) != (b.nu, b.nv):
        raise ValidationError(
            f"dimension mismatch: game is {game.nu}x{game.nv}, "
            f"behaviour is {b.nu}x{b.nv}")


def correlators(b: Behaviour) -> np.ndarray:
    """Correlators E_uv = E[(-1)^(a xor b) | u, v], clipped to [-1, 1]."""
    t = b.table
    e = t[:, :, 0, 0] + t[:, :, 1, 1] - t[:, :, 0, 1] - t[:, :, 1, 0]
    return np.clip(e, -1.0, 1.0)


def game_value(game: XorGame, b: Behaviour) -> float:
    """Winning probability of the behaviour.

    Computed as 1 minus the exactly-summed lost mass, which keeps perfect
    and near-perfect values exact in floating point (mu itself only sums
    to 1 within tolerance).  A pair (u, v) is won with the probability of
    even outputs when f(u, v) = 0, of odd ones otherwise.
    """
    _check_dims(game, b)
    t = b.table
    won = np.where(game.f == 0, t[:, :, 0, 0] + t[:, :, 1, 1],
                   t[:, :, 0, 1] + t[:, :, 1, 0])
    loss = game.mu * (1.0 - won)
    value = 1.0 - math.fsum(loss.ravel())
    return min(1.0, max(0.0, value))


def _weights(game: XorGame) -> np.ndarray:
    """Bias form W = mu * (-1)^f: strategy signs s, t earn bias s.W.t, and a
    behaviour with correlators E earns sum W * E."""
    return game.mu * np.where(game.f == 0, 1.0, -1.0)


def bias(game: XorGame, b: Behaviour) -> float:
    """Signed correlator sum beta = sum W * E; omega = (1 + beta) / 2."""
    _check_dims(game, b)
    return float(np.sum(_weights(game) * correlators(b)))


def chsh_S(b: Behaviour) -> float:
    """The CHSH expression S = E00 + E01 + E10 - E11 of a 2x2-question behaviour."""
    if (b.nu, b.nv) != (2, 2):
        raise ValidationError(
            f"CHSH expression needs a 2x2-question behaviour, got {b.nu}x{b.nv}")
    e = correlators(b)
    return float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])


# ---------------------------------------------------------------------------
# JSON files
#
# Game file:      {"name": str, "nu": int, "nv": int, "mu": [[..]], "f": [[..]]}
# Behaviour file: {"nu": int, "nv": int, "table": [[[[..]]]]}
# mu is row-major nu x nv; table is nested in [u][v][a][b] order.


def _json_load(path: str) -> dict:
    """Decode a JSON object from at most MAX_FILE_BYTES bytes of UTF-8."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read(MAX_FILE_BYTES + 1)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if len(raw) > MAX_FILE_BYTES:
        raise BudgetError(f"{path}: file exceeds {MAX_FILE_BYTES} bytes")
    try:
        raw = raw.decode("utf-8")  # rebound, so the bytes are freed before parsing
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # not UTF-8, or an integer over 4300 digits
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    return data


def _require(data: dict, field: str, path: str):
    if field not in data:
        raise ParseError(f"{path}: missing field '{field}'")
    return data[field]


def _as_grid(raw, shape, field: str, path: str) -> np.ndarray:
    try:
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: field '{field}' is not numeric") from exc
    if arr.shape != shape:
        raise ParseError(
            f"{path}: field '{field}' has shape {arr.shape}, expected {shape}")
    return arr


def _load(path: str, field: str, tail: tuple, make):
    """Read a game or behaviour file: its integer sizes ``nu`` and ``nv``,
    then the probability grid ``field``, which must have the shape
    ``(nu, nv) + tail`` the file states.

    The grid's distributions (the whole grid when ``tail`` is empty, else
    each ``(u, v)`` slice) are renormalized when off by less than
    RENORM_ATOL.  Returns ``make(data, grid)``, with the path prefixed to
    any ValidationError it raises.
    """
    data = _json_load(path)
    nu = _require(data, "nu", path)
    nv = _require(data, "nv", path)
    if type(nu) is not int or type(nv) is not int:  # JSON true is an int too
        raise ParseError(f"{path}: fields 'nu' and 'nv' must be integers")
    grid = _as_grid(_require(data, field, path), (nu, nv) + tail, field, path)
    sums = grid.sum(axis=(2, 3) if tail else None, keepdims=True)
    dev = np.abs(sums - 1.0)
    if (dev > PROB_ATOL).any():
        if dev.max() < RENORM_ATOL and (sums > 0).all():
            grid = grid / sums
        else:
            index = np.unravel_index(np.argmax(dev), dev.shape)
            where = f" slice [{index[0]}][{index[1]}]" if tail else ""
            raise ValidationError(
                f"{path}: field '{field}'{where} sums to {float(sums[index])!r}; "
                "deviation too large to renormalize")
    try:
        return make(data, grid)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_game(path: str) -> XorGame:
    """Load and validate a game file; renormalizes mu only if off by < 1e-9."""
    return _load(path, "mu", (), lambda data, mu: XorGame(
        name=str(_require(data, "name", path)), mu=mu,
        f=_as_grid(_require(data, "f", path), mu.shape, "f", path)))


def load_behaviour(path: str) -> Behaviour:
    """Load and validate a behaviour file, renormalizing slices off by < 1e-9."""
    return _load(path, "table", (2, 2), lambda data, t: Behaviour(t))


def _save(data: dict, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def save_game(game: XorGame, path: str):
    """Write the file load_game reads.  Library only: tests make game
    files with it."""
    _save({"name": game.name, "nu": game.nu, "nv": game.nv,
           "mu": game.mu.tolist(), "f": game.f.tolist()}, path)


def save_behaviour(b: Behaviour, path: str):
    """Write the file load_behaviour reads.  Library only: tests make
    behaviour files with it."""
    _save({"nu": b.nu, "nv": b.nv, "table": b.table.tolist()}, path)
