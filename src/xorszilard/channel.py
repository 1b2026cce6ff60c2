"""Referee encoding and the induced binary symmetric side-information channel.

A uniform thermal bit x is tied to an XOR game by the referee bit
r = x xor f(u,v).  The controller receives only the compressed bit
g = a xor b xor r, which equals x exactly when the game round is won.
Because the error bit e = a xor b xor f(u,v) is independent of x, the map
x -> g is a binary symmetric channel whose success probability is the game
value of the behaviour.  The channel is represented by that single scalar;
asymmetric channels are out of scope and rejected at construction.

Information quantities here stay in bits; work conversions multiply by ln 2
only at the engine boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .games import MAX_CHAIN, Behaviour, XorGame, _check_dims, game_value


def _check_prob(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name} = {p!r} outside [0, 1]")
    return p


def _check_bit(x, name: str) -> int:
    if x not in (0, 1):
        raise ValidationError(f"{name} = {x!r} is not a bit")
    return int(x)


@dataclass(frozen=True)
class BinaryChannel:
    """Binary symmetric channel x -> g with success probability p.

    ``flipped`` records whether orientation negated the controller bit.
    """

    p: float
    flipped: bool = False

    def __post_init__(self):
        _check_prob(self.p, "channel success probability")


def binary_entropy(p: float) -> float:
    """h2(p) in bits, with the 0 log 0 := 0 convention."""
    p = _check_prob(p, "binary entropy argument")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def mutual_information(c: BinaryChannel) -> float:
    """I(x : g) = 1 - h2(p) bits; the source and output bits are uniform."""
    return 1.0 - binary_entropy(c.p)


def referee_encode(x: int, u: int, v: int, game: XorGame) -> int:
    """The referee bit r = x xor f(u,v); inverting gives x = r xor f(u,v)."""
    x = _check_bit(x, "x")
    if not 0 <= u < game.nu or not 0 <= v < game.nv:
        raise ValidationError(
            f"question pair ({u}, {v}) out of range for a "
            f"{game.nu}x{game.nv} game")
    return x ^ int(game.f[u, v])


def compress(a: int, b: int, r: int) -> int:
    """The controller bit g = a xor b xor r."""
    return _check_bit(a, "a") ^ _check_bit(b, "b") ^ _check_bit(r, "r")


def induced_channel(game: XorGame, b: Behaviour) -> BinaryChannel:
    """The side-information channel induced by playing the game with b."""
    return BinaryChannel(p=game_value(game, b))


def apply_noise(p: float, delta: float) -> float:
    """Success probability after flipping the controller bit with probability delta.

    p_eff = p (1 - 2 delta) + delta, a contraction of the bias toward 1/2.
    """
    p = _check_prob(p, "p")
    delta = float(delta)
    if not 0.0 <= delta <= 0.5:
        raise ValidationError(f"noise delta = {delta!r} outside [0, 1/2]")
    return p * (1.0 - 2.0 * delta) + delta


def orient(p: float) -> BinaryChannel:
    """Flip the controller bit if that raises the success probability.

    Returns a channel with p' = max(p, 1-p); a tie at 1/2 keeps the
    identity orientation.  Mutual information is invariant under this.
    """
    p = _check_prob(p, "p")
    if p < 0.5:
        return BinaryChannel(p=1.0 - p, flipped=True)
    return BinaryChannel(p=p, flipped=False)


# ---------------------------------------------------------------------------
# the round table


ROUND_DTYPE = np.dtype([("x", np.int8), ("u", np.int64), ("v", np.int64),
                        ("a", np.int8), ("b", np.int8), ("r", np.int8),
                        ("g", np.int8), ("e", np.int8), ("won", np.bool_)])
CSV_HEADER = list(ROUND_DTYPE.names)
MAX_CELLS = 8 * MAX_CHAIN**2  # round-table cells, those of chained:MAX_CHAIN
_CSV_ROWS = 2**12  # transcript rows per joined string: ~100 KB chunks


def enumerate_rounds(game: XorGame, b: Behaviour):
    """Every round with its joint probability, as ``(probs, rounds)``.

    ``rounds`` is a record array with one row per (x, u, v, a, b) cell, in
    that nesting order, and the derived bits r = x xor f(u,v),
    g = a xor b xor r, e = g xor x and won = (e == 0).  ``probs[i]`` is the
    probability of row i: x is uniform and independent of everything else,
    (u, v) follows mu, and (a, b) follows the behaviour.  Zero-probability
    cells are kept, so callers can separate support questions from
    impossible outputs.  This is the only place that maps a cell to its
    derived bits; a sampled transcript is an array of indices into it.
    A table holds at most MAX_CELLS cells (BudgetError), checked before
    anything is allocated: each cell costs about 100 bytes.
    """
    _check_dims(game, b)
    if 8 * game.nu * game.nv > MAX_CELLS:
        raise BudgetError(
            f"round table budget exceeded: 8 nu nv = {8 * game.nu * game.nv}"
            f" > {MAX_CELLS} cells")
    x, u, v, a, bb = (c.ravel() for c in
                      np.indices((2, game.nu, game.nv, 2, 2)))
    probs = 0.5 * game.mu[u, v] * b.table[u, v, a, bb]
    r = x ^ game.f[u, v]
    g = a ^ bb ^ r
    e = g ^ x
    rounds = np.rec.fromarrays([x, u, v, a, bb, r, g, e, e == 0],
                               dtype=ROUND_DTYPE)
    return probs, rounds


def rounds_to_csv(rounds, cells, path: str):
    """Write a transcript as CSV with header x,u,v,a,b,r,g,e,won.

    ``cells`` are indices into the round table ``rounds``, one per round in
    transcript order: any integer sequence, such as the compact unsigned
    array ``simulate_rounds`` returns.  Each table cell the transcript
    uses is encoded once as a CRLF-ended line of integer fields, ``won`` as
    0 or 1: a transcript shorter than the table finds its cells with
    np.unique, a longer one encodes the whole table.  The file is those
    lines over ``cells``, joined and written _CSV_ROWS rows at a time, so a
    chunk's index slice, gathered lines, string and encoded bytes each stay
    near 100 KB however long the transcript.
    """
    used = (np.unique(cells) if len(cells) < len(rounds)
            else np.arange(len(rounds)))
    columns = [rounds[name][used].astype(np.int64).tolist()
               for name in CSV_HEADER]
    lines = np.empty(len(rounds), dtype=object)
    lines[used] = [",".join(map(str, row)) + "\r\n" for row in zip(*columns)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for start in range(0, len(cells), _CSV_ROWS):
            fh.write("".join(lines[cells[start:start + _CSV_ROWS]]))
