"""Referee encoding and the induced binary symmetric side-information channel.

A uniform thermal bit x is tied to an XOR game by the referee bit
r = x xor f(u,v).  The controller receives only the compressed bit
g = a xor b xor r, which equals x exactly when the game round is won.
Because the error bit e = a xor b xor f(u,v) is independent of x, the map
x -> g is a binary symmetric channel whose success probability is the game
value of the behaviour (games.game_value).  The channel is that single
scalar p, passed as a plain float; every function that takes it checks that
it lies in [0, 1].  Asymmetric channels are out of scope.

Information quantities here stay in bits; work conversions multiply by ln 2
only at the engine boundary.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError, ValidationError
from .games import MAX_CHAIN, Behaviour, XorGame, _check_dims


def _check_prob(p: float, name: str) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"{name} = {p!r} outside [0, 1]")
    return p


def binary_entropy(p: float) -> float:
    """h2(p) in bits, with the 0 log 0 := 0 convention.

    Below p = 1/2, 1 - p drops p's low digits, so log2(1 - p) is taken from
    log1p(-p); from 1/2 on, 1 - p is exact."""
    p = _check_prob(p, "binary entropy argument")
    if p == 0.0 or p == 1.0:
        return 0.0
    tail = math.log1p(-p) / math.log(2.0) if p < 0.5 else math.log2(1.0 - p)
    return -p * math.log2(p) - (1.0 - p) * tail


def mutual_information(p: float) -> float:
    """I(x : g) = 1 - h2(p) bits of a channel of success probability p; the
    source and output bits are uniform.

    Near p = 1/2, 1 - h2(p) cancels all but a few digits, so for
    |x| < 1/2, x = 2p - 1 (exact there), I is taken as
    (log1p(-x^2) + 2 x atanh(x)) / (2 ln 2), whose terms cancel at most
    about one bit; near |x| = 1 that form loses digits to atanh, so it
    stops at 1/2."""
    p = _check_prob(p, "binary entropy argument")
    x = 2.0 * p - 1.0
    if abs(x) < 0.5:
        return (math.log1p(-x * x) + 2.0 * x * math.atanh(x)) / math.log(4.0)
    return 1.0 - binary_entropy(p)


def apply_noise(p: float, delta: float) -> float:
    """Success probability after flipping the controller bit with probability delta.

    p_eff = p (1 - 2 delta) + delta, a contraction of the bias toward 1/2.
    """
    p = _check_prob(p, "p")
    delta = float(delta)
    if not 0.0 <= delta <= 0.5:
        raise ValidationError(f"noise delta = {delta!r} outside [0, 1/2]")
    return p * (1.0 - 2.0 * delta) + delta


def orient(p: float) -> tuple[float, bool]:
    """Flip the controller bit if that raises the success probability.

    Returns (p', flipped) with p' = max(p, 1-p); a tie at 1/2 keeps the
    identity orientation.  Mutual information is invariant under this.
    """
    p = _check_prob(p, "p")
    if p < 0.5:
        return 1.0 - p, True
    return p, False


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
    uses, found by one counting pass over ``cells``, is encoded once as a
    CRLF-ended line of integer fields, ``won`` as 0 or 1.  The count and the
    file both go _CSV_ROWS rows at a time, the file as those lines over
    ``cells``, joined, so a chunk's index slice, counts, gathered lines,
    string and encoded bytes each stay near 100 KB however long the
    transcript.
    """
    counts = np.zeros(len(rounds), dtype=np.intp)
    for start in range(0, len(cells), _CSV_ROWS):
        counts += np.bincount(cells[start:start + _CSV_ROWS],
                              minlength=len(rounds))
    used = np.flatnonzero(counts)
    columns = [rounds[name][used].astype(np.int64).tolist()
               for name in CSV_HEADER]
    lines = np.empty(len(rounds), dtype=object)
    lines[used] = [",".join(map(str, row)) + "\r\n" for row in zip(*columns)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        for start in range(0, len(cells), _CSV_ROWS):
            fh.write("".join(lines[cells[start:start + _CSV_ROWS]]))
