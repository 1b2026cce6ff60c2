"""Game values over the local, quantum, and nonsignalling behaviour classes.

The local value is an exact maximum over deterministic strategies: the
smaller side's output maps are enumerated as bounded chunks of +-1 sign
rows against the bias form W = mu * (-1)^f, the other side answering each
of its questions best, so the nu + nv budget bounds the work.  The quantum
value is lower-bounded by the bilinear bias of unit vectors and
upper-bounded by a feasible point of the XOR-game SDP dual built from the
same vectors, certified once the two are within a tolerance.  The first
vectors tried are the unit rows of W's top singular block, which certify
CHSH and every chained game with no further work; otherwise one seeded
alternating (seesaw) maximization runs at full rank.  Its rate is measured
at every step from the bias increments; Young's rule turns it into the
over-relaxation, applied with one row-norm pass per half-step, and the
dual bound is checked every CHECK_EVERY steps.  The nonsignalling value of
an XOR game is always 1, witnessed by the predicate box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError, check_count, check_seed
from .games import (Behaviour, XorGame, _weights, correlator_behaviour,
                    game_value, pr_box)

LOCAL_BUDGET = 40  # local_value and quantum_behaviour budget: nu + nv
_CHUNK_BITS = 10  # local enumeration chunks hold 2**10 maps
_SLACK = 1e-12  # bias margin, far above rounding error since |W| sums to 1
CHECK_EVERY = 8  # seesaw steps between two dual checks
RATE_SETTLE = 0.05  # relative agreement of two increment ratios giving a rate
RISE_MIN = 1e-13  # least bias increment whose ratio measures a rate
OMEGA_MAX = 1.95  # over-relaxation cap; omega = 2 would not contract
TOP_TIE = 1e-9  # relative gap of singular values tied with W's largest

DEFAULT_TOL = 1e-12  # certified gap of the quantum bias
DEFAULT_MAX_ITER = 10_000
DEFAULT_SEED = 1234  # fixed constant, never time-based


# ---------------------------------------------------------------------------
# local value


def _bit_rows(index: np.ndarray, n: int) -> np.ndarray:
    """Output maps of n questions numbered by ``index``, question 0 the most
    significant bit, so increasing index is lexicographic order."""
    return (index[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _signs(count: int, n: int) -> np.ndarray:
    """+-1 sign rows (-1)^map of maps 0..count-1 of n questions."""
    return np.where(_bit_rows(np.arange(count), n) == 1, -1.0, 1.0)


def _near_best_rows(weights: np.ndarray) -> np.ndarray:
    """Indices of the row player's maps with near-maximal best-response bias.

    Map i gives signs s = (-1)^_bit_rows(i); the column player's best reply
    earns bias sum_v |sum_u W_uv s_u|.  Only maps with s_0 = +1 are scored
    (the global output flip preserves every bias).  Maps go in chunks of
    2**_CHUNK_BITS rows: the low bits' partial sums are computed once and
    each chunk adds its high bits' partial sum, so a chunk costs one
    (rows, columns) add and reduction.  Every map within _SLACK of the
    running maximum is kept, in increasing index order.
    """
    n = weights.shape[0]
    low = min(n - 1, _CHUNK_BITS)
    low_part = _signs(1 << low, low) @ weights[n - low:]
    high_part = _signs(1 << (n - 1 - low), n - low) @ weights[:n - low]
    best = -math.inf
    kept = []  # (index, bias) of the maps within _SLACK of the running best
    for h, shift in enumerate(high_part):
        bias = np.abs(low_part + shift).sum(axis=1)
        top = bias.max()
        if top > best:
            best = top
            kept = [(i[b >= best - _SLACK], b[b >= best - _SLACK])
                    for i, b in kept]
        near = np.flatnonzero(bias >= best - _SLACK)
        kept.append(((h << low) + near, bias[near]))
    return np.concatenate([i for i, _ in kept])


def _replies(mu: np.ndarray, f: np.ndarray, amaps: np.ndarray) -> np.ndarray:
    """The column player's best reply to each row of ``amaps``; ties keep 0.

    Lost masses are summed in question order.  With mu and f transposed,
    these are the row player's replies to column maps.
    """
    lost0 = np.zeros((len(amaps), f.shape[1]))
    lost1 = np.zeros_like(lost0)
    for u in range(f.shape[0]):
        miss0 = amaps[:, u, None] != f[u]
        lost0 += mu[u] * miss0
        lost1 += mu[u] * ~miss0
    return (lost1 < lost0).astype(np.int64)


def _strategy_values(mu: np.ndarray, f: np.ndarray, amaps: np.ndarray,
                     bmaps: np.ndarray) -> np.ndarray:
    """1 minus the mu-weight of each strategy's violated pairs.

    Each value is correctly rounded (one fsum), so near-1 values stay exact
    and no value depends on question order.
    """
    weighted = mu > 0
    lost = ((amaps[:, :, None] ^ bmaps[:, None, :]) != f)[:, weighted]
    neg = -mu[weighted]
    return np.array([math.fsum([1.0] + neg[row].tolist()) for row in lost])


def local_value(game: XorGame) -> tuple[float, tuple[int, ...], tuple[int, ...]]:
    """Exact local value and one maximizing deterministic strategy.

    Questions of zero weight (an all-zero row or column of mu) never affect
    the value, so they are dropped before enumerating and answered with
    output 0, the lexicographically smallest choice.  Of the remaining
    questions the smaller side is enumerated (Alice's when nu <= nv) as
    chunks of +-1 sign rows scored by the other side's best response, so
    the budget nu + nv <= LOCAL_BUDGET bounds the work at
    2**(LOCAL_BUDGET/2 - 1) maps.  Flipping all outputs of both players
    preserves a xor b, so the first enumerated question's output is fixed.
    The maps within _SLACK of the best are re-evaluated exactly, in chunks:
    Alice's maps, or, when Bob's side is enumerated, Alice's replies to each
    map and to its global flip that have amap[0] = 0.  Ties break to the
    lexicographically smallest (amap, bmap).
    """
    _check_budget(game)
    rows, cols = game.mu.any(axis=1), game.mu.any(axis=0)
    mu, f = game.mu[rows][:, cols], game.f[rows][:, cols]
    weights = _weights(game)[rows][:, cols]
    alice = mu.shape[0] <= mu.shape[1]
    index = _near_best_rows(weights if alice else weights.T)
    best_value, best_amap, best_bmap = -1.0, None, None
    for start in range(0, len(index), 1 << _CHUNK_BITS):
        maps = _bit_rows(index[start:start + (1 << _CHUNK_BITS)],
                         min(mu.shape))
        if alice:
            amaps = maps
        else:
            amaps = _replies(mu.T, f.T, np.concatenate([maps, 1 - maps]))
            amaps = amaps[amaps[:, 0] == 0]
            amaps = amaps[np.lexsort(amaps.T[::-1])]
        bmaps = _replies(mu, f, amaps)
        values = _strategy_values(mu, f, amaps, bmaps)
        j = int(np.argmax(values))  # rows are in lexicographic order
        amap = tuple(int(x) for x in amaps[j])
        if values[j] > best_value or (values[j] == best_value
                                      and amap < best_amap):
            best_value, best_amap, best_bmap = float(values[j]), amap, bmaps[j]
    return best_value, _answers(best_amap, rows), _answers(best_bmap, cols)


def _check_budget(game: XorGame):
    """BudgetError unless nu + nv <= LOCAL_BUDGET, the one question budget
    of local_value and quantum_behaviour."""
    if game.nu + game.nv > LOCAL_BUDGET:
        raise BudgetError(f"question budget exceeded: nu + nv = "
                          f"{game.nu + game.nv} > {LOCAL_BUDGET}")


def _answers(outputs, asked: np.ndarray) -> tuple[int, ...]:
    """A full output map: ``outputs`` on the ``asked`` questions, 0 elsewhere."""
    full = np.zeros(len(asked), dtype=np.int64)
    full[asked] = outputs
    return tuple(int(x) for x in full)


# ---------------------------------------------------------------------------
# quantum value by seesaw


@dataclass(frozen=True, eq=False)
class SeesawState:
    """Final state of a seesaw optimization.

    ``avecs``/``bvecs`` hold one unit vector per question as rows of an
    (nu, nu + nv) and an (nv, nu + nv) array; ``bias`` is their bilinear
    bias, ``upper`` a dual bound on every quantum bias, and ``converged``
    means upper - bias < tol.
    """

    avecs: np.ndarray
    bvecs: np.ndarray
    bias: float
    upper: float
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
    """Game value (1 + bias) / 2 of a bias.

    The seesaw bias of a perfectly winnable game can end a rounding error
    above 1; omega_q <= omega_ns = 1 holds for every XOR game, so the value
    is capped there.
    """
    return min(1.0, (1.0 + float(bias)) / 2.0)


def _seesaw_start(game: XorGame, seed: int | tuple[int, ...], k: int):
    """Random unit-vector start, (nu, dim) and (nv, dim) rows drawn from
    sub-seed (*seed, k)."""
    dim = game.nu + game.nv
    rng = np.random.default_rng([*check_seed(seed), k])
    avecs = rng.normal(size=(game.nu, dim))
    bvecs = rng.normal(size=(game.nv, dim))
    avecs /= np.linalg.norm(avecs, axis=1, keepdims=True)
    bvecs /= np.linalg.norm(bvecs, axis=1, keepdims=True)
    return avecs, bvecs


def _row_norms(vecs: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``vecs``, as an (n, 1) column."""
    return np.sqrt(np.add.reduce(vecs * vecs, axis=-1, keepdims=True))


def _toward(target: np.ndarray, rows: np.ndarray, omega: float) -> np.ndarray:
    """Rows of an over-relaxed half-step, before scaling to unit length.

    ``target`` holds the other side's weighted sums t, whose unit rows are
    the exact maximizer; ``rows`` holds this side's rows s of the previous
    half-step, whose unit rows v = s / |s| are this side's vectors.  The
    result t + (1 - omega) s is t + kappa |s| v with kappa = c / (1 + c) and
    c = 1/omega - 1.  At a fixed point |s| = (1 + c) |t|, so it has the
    fixed points and the linearisation of unit(v + omega (unit(t) - v)) =
    unit(t + c |t| v): the lag in |s| moves s along v only.  omega = 1 is the
    plain step t + 0 s = t.
    """
    return target + (1.0 - omega) * rows


def _dual_bound(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Bound on the bias of every unit-vector strategy from the XOR-game SDP
    dual (Tsirelson; Cleve, Hoyer, Toner and Watrous 2004), valid for any
    unit rows a, b and tight at an optimum: the point y_u = |(W b)_u| / 2,
    z_v = |(W^T a)_v| / 2, shifted by the least eigenvalue of
    M = [[diag y, -W/2], [-W^T/2, diag z]].  The shift adds eigvalsh's
    backward error n * eps * |M|_F to each of the n = nu + nv diagonal
    entries; |M|_F <= 1, so that costs under 4e-13 for n <= 40.

    |M|_F^2 is taken as |W|_F^2 / 2 + |y|^2 + |z|^2, with no pass over M."""
    nu = len(weights)
    diag = 0.5 * np.concatenate([_row_norms(weights @ b),
                                 _row_norms(weights.T @ a)])[:, 0]
    n = len(diag)
    m = np.diag(diag)
    m[:nu, nu:], m[nu:, :nu] = -0.5 * weights, -0.5 * weights.T
    lam = np.linalg.eigvalsh(m)[0]
    frob = math.sqrt(0.5 * np.vdot(weights, weights) + diag @ diag)
    slack = -lam + n * np.finfo(float).eps * frob
    return float(diag.sum() + n * max(0.0, slack))


def _young_omega(rho: float) -> float:
    """Young's optimal over-relaxation for a plain-step rate rho, capped."""
    return min(2.0 / (1.0 + math.sqrt(1.0 - rho)), OMEGA_MAX)


def _young_rho(rate: float, omega: float) -> float:
    """The plain-step rate rho that Young's relation
    (rate + omega - 1)^2 = rate omega^2 rho gives for a rate seen at omega;
    a rate below (omega - 1)^2 gives rho > 1, beyond the model."""
    return (rate + omega - 1.0) ** 2 / (rate * omega * omega)


@np.errstate(invalid="ignore")  # a row of zero weighted sum ends the run
def _seesaw(weights: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float,
            max_iter: int):
    """One over-relaxed seesaw run from unit rows a (nu, dim) and b (nv, dim),
    returning (a, b, bias, upper, iterations).

    A step updates a, then b, each toward the exact maximizer given the
    other side (_toward).  Its two half-steps form a 2-cyclic block
    Gauss-Seidel iteration, so Young's theory gives the best over-relaxation
    from the plain step's rate rho: omega = 2 / (1 + sqrt(1 - rho)), capped
    at OMEGA_MAX.  The rate is measured at every step from the bias, which
    costs one dot product: the error of the vectors contracts by the rate
    per step, so the bias increments contract by its square.  When two
    successive increment ratios r agree within RATE_SETTLE, sqrt(r) is the
    step's rate and Young's relation (rate + omega - 1)^2 = rate omega^2 rho
    gives rho.  A rho above the last one raises omega: the plain rate of a
    nonlinear run keeps rising after it first settles, so omega follows it
    up.  Nothing else raises omega.

    The run bounds every quantum bias from above by the dual point of its
    current vectors (_dual_bound) at step 0, at every multiple of
    CHECK_EVERY and at ``max_iter``, and nowhere else.  Over-relaxed steps
    can lower the bias: a check whose bias is more than _SLACK below the
    best so far returns the run to plain steps, under which the bias never
    falls.  The run keeps the vectors of the last check whose bias is within
    _SLACK of the best seen at a check (near an optimum the bias settles to
    rounding error while the dual gap still shrinks), and the least bound
    seen; both hold for any unit vectors, and the run stops at the first
    check where they are within ``tol``.  A row whose weighted sum is
    exactly zero has no direction: the run then ends with the vectors it
    kept.
    """
    wt = weights.T
    omega, rho, relax = 1.0, 0.0, True
    kept, best, upper = None, -math.inf, math.inf
    rows_a, rows_b = a, b
    wb, wta = weights @ b, wt @ a
    bias = float(np.vdot(a, wb))
    it = 0
    rise = ratio = None  # the last bias increment and increment ratio
    while True:
        if it % CHECK_EVERY == 0 or it == max_iter:
            upper = min(upper, _dual_bound(weights, a, b))
            if bias >= best - _SLACK:
                kept, best = (a, b, bias), max(best, bias)
            elif relax:  # an overshoot: plain steps from here on
                omega, relax = 1.0, False
            if upper - kept[2] < tol or it == max_iter:
                return (*kept, upper, it)
        rows_a = _toward(wb, rows_a, omega)
        a = rows_a / _row_norms(rows_a)
        wta = wt @ a
        rows_b = _toward(wta, rows_b, omega)
        b = rows_b / _row_norms(rows_b)
        wb = weights @ b
        it += 1
        step_rise, bias = -bias, float(np.vdot(a, wb))
        if bias != bias:  # NaN: a row of zero weighted sum
            return (*kept, upper, it)
        if not relax:
            continue
        step_rise += bias
        if rise is not None and rise > RISE_MIN:
            r = step_rise / rise
            if (0.0 < r < 1.0 and ratio is not None
                    and abs(r - ratio) <= RATE_SETTLE * r):
                seen = _young_rho(math.sqrt(r), omega)
                if rho < seen < 1.0 and _young_omega(seen) > omega:
                    rho, omega = seen, _young_omega(seen)
                    step_rise = None
            ratio = r
        else:
            ratio = None
        rise = step_rise


def _top_block(weights: np.ndarray, dim: int):
    """Unit rows of W's top singular block, zero-padded to ``dim`` columns,
    or None when a question has no component in that block.

    The block is the columns of U and V (W = U S V^T) whose singular values
    are within a relative TOP_TIE of the largest, one row per question;
    scaled to unit length they are the optimal vectors of CHSH and every
    chained game (Wehner 2006).  The tie cut only chooses the candidate:
    the caller's dual check decides whether it is optimal."""
    u, s, vt = np.linalg.svd(weights, full_matrices=False)
    k = int(np.count_nonzero(s >= (1.0 - TOP_TIE) * s[0]))
    a, b = np.zeros((weights.shape[0], dim)), np.zeros((weights.shape[1], dim))
    a[:, :k], b[:, :k] = u[:, :k], vt[:k].T
    norm_a, norm_b = _row_norms(a), _row_norms(b)
    if not (norm_a.all() and norm_b.all()):
        return None
    return a / norm_a, b / norm_b


def quantum_value(game: XorGame, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  seed: int | tuple[int, ...] = DEFAULT_SEED
                  ) -> tuple[float, SeesawState]:
    """Lower bound on the quantum value, certified by a dual bound.

    The first candidate is W's top singular block (_top_block): if the dual
    point of those vectors is within ``tol`` of their bias, they are
    returned with ``iterations=0``, as on CHSH and every chained game.
    Otherwise one seesaw run starts from the deterministic sub-seed
    (*seed, 0), so ``seed`` matters only then.  A rejected candidate is not
    continued: every seesaw step stays in the span of its start, so a run
    from it would search only the rank of the block.  The seeded run has
    dimension nu + nv and factors the XOR-game SDP at full rank, where a
    second-order critical point is generically a global optimum, so it is
    certified on every game tried.  It checks its dual bound every
    CHECK_EVERY steps; if it is not within ``tol`` by ``max_iter`` steps,
    the state has ``converged=False``, and its bound still holds.  Questions
    of zero weight never move the bias or the bound, so both run without
    them and they keep their seeded start vectors.  ``tol`` must be finite
    and > 0, ``max_iter`` an integer >= 0 and ``seed`` a valid seed
    (errors.check_seed), or ValidationError.
    """
    max_iter = check_count(max_iter, "max_iter")
    if not (math.isfinite(tol) and tol > 0.0) or max_iter < 0:
        raise ValidationError(f"need finite tol > 0 and max_iter >= 0, got "
                              f"tol = {tol!r}, max_iter = {max_iter!r}")
    weights = _weights(game)
    live_a, live_b = weights.any(axis=1), weights.any(axis=0)
    live = weights[live_a][:, live_b]
    a, b = _seesaw_start(game, seed, 0)
    candidate = _top_block(live, a.shape[1])
    run = None if candidate is None else _seesaw(live, *candidate, tol, 0)
    if run is None or run[3] - run[2] >= tol:  # its gap, upper - bias
        run = _seesaw(live, a[live_a], b[live_b], tol, max_iter)
    a[live_a], b[live_b], bias, upper, iterations = run
    state = SeesawState(avecs=a, bvecs=b, bias=bias, upper=upper,
                        iterations=iterations, converged=upper - bias < tol)
    return _omega(bias), state


def quantum_behaviour(game: XorGame) -> Behaviour:
    """The quantum-optimal behaviour of any game within LOCAL_BUDGET.

    Its correlators are E_uv = a_u . b_v of the unit vectors from
    quantum_value at DEFAULT_SEED: the top singular block of W when its
    dual check certifies it, as on CHSH and every chained game, else the
    seeded seesaw's, so the behaviour depends on the game alone.  With
    uniform marginals, a maximally entangled state of dimension
    2^floor((nu + nv) / 2) realises it (Tsirelson 1980).  Its bias is
    certified within DEFAULT_TOL of the quantum value whenever the state
    converged.  BudgetError for nu + nv > LOCAL_BUDGET, before any SVD or
    seesaw step.
    """
    _check_budget(game)
    _, state = quantum_value(game)
    return correlator_behaviour(state.avecs @ state.bvecs.T)


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


# ---------------------------------------------------------------------------
# bundled report


@dataclass(frozen=True, eq=False)
class ClassValueReport:
    """Local, quantum (best found and dual bound), and nonsignalling values
    of one game.  ``omega_ns`` is a class constant, not a field: the
    nonsignalling value of every XOR game is 1 (class_report)."""

    omega_ns = 1.0

    game: str
    omega_local: float
    omega_quantum: float
    omega_quantum_upper: float
    local_strategy: tuple[tuple[int, ...], tuple[int, ...]]
    converged: bool
    iterations: int  # seesaw steps; 0 when W's top block certified

    def __post_init__(self):
        if not 0.5 <= self.omega_local:
            raise ValidationError(
                f"report: omega_local = {self.omega_local!r} below 1/2")
        if not (self.omega_local <= self.omega_quantum
                <= self.omega_quantum_upper <= self.omega_ns):
            raise ValidationError(
                f"report: class values out of order: {self.omega_local!r}, "
                f"{self.omega_quantum!r}, {self.omega_quantum_upper!r}")

    def to_json_dict(self) -> dict:
        amap, bmap = self.local_strategy
        return {
            "game": self.game,
            "omega_local": self.omega_local,
            "omega_quantum": self.omega_quantum,
            "omega_quantum_upper": self.omega_quantum_upper,
            "omega_ns": self.omega_ns,
            "strategy": {"amap": list(amap), "bmap": list(bmap)},
            "converged": self.converged,
            "iterations": self.iterations,
        }


def class_report(game: XorGame, seed: int = DEFAULT_SEED) -> ClassValueReport:
    """Bundle local, quantum (quantum_value) and nonsignalling values of a
    game; a local strategy is also a quantum one, so it bounds omega_quantum
    too.  The nonsignalling value of an XOR game is 1, certified by the
    predicate box, which is verified here."""
    w_local, amap, bmap = local_value(game)
    w_quantum, state = quantum_value(game, seed=seed)
    certificate = pr_box(game)
    check = is_nonsignalling(certificate)
    if not check or game_value(game, certificate) != 1.0:
        raise ValidationError("predicate-box certificate failed verification")
    return ClassValueReport(
        game=game.name,
        omega_local=w_local,
        omega_quantum=max(w_quantum, w_local),
        omega_quantum_upper=_omega(state.upper),
        local_strategy=(amap, bmap),
        converged=state.converged,
        iterations=state.iterations,
    )
