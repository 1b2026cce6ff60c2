"""Game values over the local, quantum, and nonsignalling behaviour classes.

The local value is an exact maximum over deterministic strategies.  The
quantum value is lower-bounded by an alternating (seesaw) maximization of
the bilinear bias over unit vectors, validated against known analytic
values rather than dual certificates.  The nonsignalling value of an XOR
game is always 1, witnessed by the predicate box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .games import Behaviour, XorGame, game_value, pr_box

LOCAL_BUDGET = 40  # enumeration budget: nu + nv question count

DEFAULT_RESTARTS = 20
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10_000
DEFAULT_SEED = 1234


# ---------------------------------------------------------------------------
# local value


def local_value(game: XorGame) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Exact local value and one maximizing deterministic strategy.

    Enumerates Alice's output maps with amap[0] fixed to 0 (flipping all
    outputs of both players preserves a xor b, so this halves the search
    without losing any value) and chooses Bob's best response per question.
    Ties break to the lexicographically smallest (amap, bmap).

    Strategy values are computed as 1 minus the mu-weight of violated
    pairs, which keeps near-1 values exact in floating point.
    """
    if game.nu + game.nv > LOCAL_BUDGET:
        raise BudgetError(
            f"local enumeration budget exceeded: nu + nv = "
            f"{game.nu + game.nv} > {LOCAL_BUDGET}")
    nu, nv = game.nu, game.nv
    mu, f = game.mu, game.f
    best_value = -1.0
    best_amap = best_bmap = None
    for bits in range(1 << (nu - 1)):
        amap = np.zeros(nu, dtype=np.int64)
        for i in range(1, nu):
            amap[i] = (bits >> (nu - 1 - i)) & 1
        # lost mass per Bob question for bmap[v] = 0 and 1
        miss0 = amap[:, None] != f
        lost0 = np.sum(mu * miss0, axis=0)
        lost1 = np.sum(mu * ~miss0, axis=0)
        bmap = (lost1 < lost0).astype(np.int64)  # ties keep 0
        value = 1.0 - math.fsum(np.where(bmap == 1, lost1, lost0))
        if value > best_value:
            best_value = value
            best_amap = tuple(int(x) for x in amap)
            best_bmap = tuple(int(x) for x in bmap)
    return best_value, best_amap, best_bmap


# ---------------------------------------------------------------------------
# quantum value by seesaw


@dataclass(frozen=True, eq=False)
class SeesawState:
    """Final state of one seesaw optimization.

    ``avecs``/``bvecs`` hold one unit vector per question as rows of an
    (n, dim) array; ``bias`` is the achieved bilinear bias.
    """

    dim: int
    avecs: np.ndarray
    bvecs: np.ndarray
    bias: float
    iterations: int
    converged: bool

    def __post_init__(self):
        for name, vecs in (("avecs", self.avecs), ("bvecs", self.bvecs)):
            norms = np.linalg.norm(vecs, axis=1)
            if np.abs(norms - 1.0).max() > 1e-10:
                raise ValidationError(f"seesaw {name}: rows must be unit vectors")
        if not -1.0 - 1e-9 <= self.bias <= 1.0 + 1e-9:
            raise ValidationError(f"seesaw bias {self.bias!r} outside [-1, 1]")


def _omega(bias: float) -> float:
    """Game value (1 + bias) / 2 of a seesaw bias.

    The seesaw bias of a perfectly winnable game can end a rounding error
    above 1; omega_q <= omega_ns = 1 holds for every XOR game, so the value
    is capped there.
    """
    return min(1.0, (1.0 + bias) / 2.0)


def _normalize_rows(vecs: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    # rows with zero weighted sum keep their previous direction
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    zero = norms[:, 0] < 1e-300
    out = np.where(zero[:, None], fallback, vecs / np.where(zero[:, None], 1.0, norms))
    return out


def _seesaw_once(game: XorGame, rng: np.random.Generator, tol: float,
                 max_iter: int):
    """One seesaw run from a random start.

    Returns (bias, avecs, bvecs, iterations, converged, trace) where trace
    is the per-iteration bias sequence; each half-step is the exact
    maximizer over unit vectors given the other side, so the trace is
    non-decreasing.
    """
    nu, nv = game.nu, game.nv
    dim = nu + nv
    weights = game.mu * np.where(game.f == 0, 1.0, -1.0)
    avecs = rng.normal(size=(nu, dim))
    avecs /= np.linalg.norm(avecs, axis=1, keepdims=True)
    bvecs = rng.normal(size=(nv, dim))
    bvecs /= np.linalg.norm(bvecs, axis=1, keepdims=True)
    bias = float(np.einsum("uv,ud,vd->", weights, avecs, bvecs))
    trace = [bias]
    converged = False
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        avecs = _normalize_rows(weights @ bvecs, avecs)
        bvecs = _normalize_rows(weights.T @ avecs, bvecs)
        new_bias = float(np.einsum("uv,ud,vd->", weights, avecs, bvecs))
        trace.append(new_bias)
        if new_bias - bias < tol:
            bias = max(bias, new_bias)
            converged = True
            break
        bias = new_bias
    return bias, avecs, bvecs, iterations, converged, trace


def _seesaw_restarts(game: XorGame, restarts: int, tol: float, max_iter: int,
                     seed: int):
    if restarts < 1:
        raise ValidationError(f"need restarts >= 1, got {restarts}")
    best_state = None
    omegas = []
    for k in range(restarts):
        rng = np.random.default_rng([seed, k])
        bias, av, bv, iters, conv, _ = _seesaw_once(game, rng, tol, max_iter)
        omegas.append(_omega(bias))
        if best_state is None or bias > best_state.bias:
            best_state = SeesawState(dim=game.nu + game.nv, avecs=av, bvecs=bv,
                                     bias=bias, iterations=iters, converged=conv)
    return best_state, omegas


def quantum_value(game: XorGame, restarts: int = DEFAULT_RESTARTS,
                  tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                  seed: int = DEFAULT_SEED) -> tuple[float, SeesawState]:
    """Seesaw lower bound on the quantum value, best over seeded restarts.

    Restart k draws its start from the deterministic sub-seed (seed, k), so
    runs are reproducible and restarts can be evaluated independently.  A
    run that never meets the improvement tolerance is returned with
    ``converged=False``.
    """
    state, _ = _seesaw_restarts(game, restarts, tol, max_iter, seed)
    return _omega(state.bias), state


# ---------------------------------------------------------------------------
# nonsignalling


@dataclass(frozen=True)
class NonsignallingReport:
    """Result of a nonsignalling check; truthy iff the behaviour passes."""

    ok: bool
    max_violation: float
    location: tuple

    def __bool__(self) -> bool:
        return self.ok


def is_nonsignalling(b: Behaviour, tol: float = 1e-9) -> NonsignallingReport:
    """Check that each player's marginal ignores the other player's question."""
    pa = b.table.sum(axis=3)  # (u, v, a)
    pb = b.table.sum(axis=2)  # (u, v, b)
    spread_a = pa.max(axis=1) - pa.min(axis=1)  # over v -> (u, a)
    spread_b = pb.max(axis=0) - pb.min(axis=0)  # over u -> (v, b)
    worst_a = float(spread_a.max())
    worst_b = float(spread_b.max())
    if worst_a >= worst_b:
        u, a = np.unravel_index(int(spread_a.argmax()), spread_a.shape)
        location = ("alice", int(u), int(a))
        worst = worst_a
    else:
        v, bb = np.unravel_index(int(spread_b.argmax()), spread_b.shape)
        location = ("bob", int(v), int(bb))
        worst = worst_b
    return NonsignallingReport(ok=worst <= tol, max_violation=worst,
                               location=location)


def ns_value(game: XorGame) -> tuple[float, Behaviour]:
    """Nonsignalling value of an XOR game: 1, certified by the predicate box."""
    return 1.0, pr_box(game)


# ---------------------------------------------------------------------------
# bundled report


@dataclass(frozen=True, eq=False)
class ClassValueReport:
    """Local, quantum, and nonsignalling values of one game."""

    game: str
    omega_local: float
    omega_quantum: float
    omega_ns: float
    local_strategy: tuple[tuple[int, ...], tuple[int, ...]]
    ns_certificate: Behaviour
    quantum_stderr: float
    converged: bool
    restarts: int

    def __post_init__(self):
        if not 0.5 <= self.omega_local:
            raise ValidationError(
                f"report: omega_local = {self.omega_local!r} below 1/2")
        if not self.omega_local <= self.omega_quantum + 1e-6:
            raise ValidationError(
                f"report: omega_local = {self.omega_local!r} exceeds "
                f"omega_quantum = {self.omega_quantum!r}")
        if not self.omega_quantum <= self.omega_ns + 1e-6:
            raise ValidationError(
                f"report: omega_quantum = {self.omega_quantum!r} exceeds "
                f"omega_ns = {self.omega_ns!r}")
        if self.omega_ns != 1.0:
            raise ValidationError("report: omega_ns must be 1 for XOR games")

    def to_json_dict(self) -> dict:
        amap, bmap = self.local_strategy
        return {
            "game": self.game,
            "omega_local": self.omega_local,
            "omega_quantum": self.omega_quantum,
            "omega_ns": self.omega_ns,
            "strategy": {"amap": list(amap), "bmap": list(bmap)},
            "converged": self.converged,
            "restarts": self.restarts,
            "quantum_stderr": self.quantum_stderr,
        }


def class_report(game: XorGame, seed: int = DEFAULT_SEED,
                 restarts: int = DEFAULT_RESTARTS) -> ClassValueReport:
    """Bundle local, quantum (seesaw), and nonsignalling values for a game."""
    w_local, amap, bmap = local_value(game)
    state, omegas = _seesaw_restarts(game, restarts, DEFAULT_TOL,
                                     DEFAULT_MAX_ITER, seed)
    w_quantum = _omega(state.bias)
    w_ns, certificate = ns_value(game)
    check = is_nonsignalling(certificate)
    if not check or game_value(game, certificate) != 1.0:
        raise ValidationError("predicate-box certificate failed verification")
    stderr = float(np.std(omegas)) if len(omegas) > 1 else 0.0
    return ClassValueReport(
        game=game.name,
        omega_local=w_local,
        omega_quantum=w_quantum,
        omega_ns=w_ns,
        local_strategy=(amap, bmap),
        ns_certificate=certificate,
        quantum_stderr=stderr,
        converged=state.converged,
        restarts=restarts,
    )
