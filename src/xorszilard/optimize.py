"""Game values over the local, quantum, and nonsignalling behaviour classes.

The local value is an exact maximum over deterministic strategies: the
smaller side's output maps are enumerated as bounded chunks of +-1 sign
rows against the bias form W = mu * (-1)^f, the other side answering each
of its questions best, so the nu + nv budget bounds the work.  The quantum
value is lower-bounded by one seeded alternating (seesaw) maximization of
the bilinear bias over unit vectors, and upper-bounded by a feasible point
of the XOR-game SDP dual built from the same vectors; the seesaw stops once
the two are within a tolerance.  Its rate is measured at every step from
the bias increments; Young's rule turns it into the over-relaxation,
applied with one row-norm pass per half-step.  The dual gap's own rate
spaces the checks.  The nonsignalling value of an XOR game is always 1,
witnessed by the predicate box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .games import Behaviour, XorGame, game_value, pr_box

LOCAL_BUDGET = 40  # enumeration budget: nu + nv question count
_CHUNK_BITS = 10  # local enumeration chunks hold 2**10 maps
_SLACK = 1e-12  # bias margin, far above rounding error since |W| sums to 1
CHECK_EVERY = 8  # seesaw steps to a check when no rate predicts one
CHECK_MAX = 64  # most seesaw steps between two checks
RATE_SETTLE = 0.05  # relative change at which a plain-step rate is used
RELAXED_SETTLE = 0.005  # the same for an over-relaxed step's rate
RISE_MIN = 1e-13  # least bias increment whose ratio measures a rate
OMEGA_MAX = 1.95  # over-relaxation cap; omega = 2 would not contract

DEFAULT_TOL = 1e-12  # certified gap of the quantum bias
DEFAULT_MAX_ITER = 10_000
DEFAULT_SEED = 1234  # fixed constant, never time-based


def _weights(game: XorGame) -> np.ndarray:
    """Bias form W = mu * (-1)^f: strategy signs s, t earn bias s.W.t."""
    return game.mu * np.where(game.f == 0, 1.0, -1.0)


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
    column = np.empty_like(low_part)
    best = -math.inf
    kept = []  # (index, bias) of the maps within _SLACK of the running best
    for h, shift in enumerate(high_part):
        np.add(low_part, shift, out=column)
        bias = np.abs(column, out=column).sum(axis=1)
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
    if game.nu + game.nv > LOCAL_BUDGET:
        raise BudgetError(
            f"local enumeration budget exceeded: nu + nv = "
            f"{game.nu + game.nv} > {LOCAL_BUDGET}")
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
    (n, dim) array; ``bias`` is their bilinear bias, ``upper`` a dual bound
    on every quantum bias, and ``converged`` means upper - bias < tol.
    """

    dim: int
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


def _seesaw_start(game: XorGame, seed: int, k: int):
    """Random unit-vector start, (nu, dim) and (nv, dim) rows drawn from
    sub-seed (seed, k)."""
    dim = game.nu + game.nv
    rng = np.random.default_rng([seed, k])
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
    plain step t.
    """
    if omega == 1.0:
        return target
    return target + (1.0 - omega) * rows


def _dual_upper(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Bound on the bias of every unit-vector strategy from the XOR-game SDP
    dual (Tsirelson; Cleve, Hoyer, Toner and Watrous 2004), valid for any
    unit rows a, b and tight at an optimum: the point y_u = |(W b)_u| / 2,
    z_v = |(W^T a)_v| / 2, shifted by the least eigenvalue of
    M = [[diag y, -W/2], [-W^T/2, diag z]].  The shift adds eigvalsh's
    backward error n * eps * |M|_F to each of the n = nu + nv diagonal
    entries; |M|_F <= 1, so that costs under 4e-13 for n <= 40.

    This is the reference form; the seesaw computes the same bound with
    _dual_bound on a matrix allocated once per run."""
    y = 0.5 * np.linalg.norm(weights @ b, axis=1)
    z = 0.5 * np.linalg.norm(weights.T @ a, axis=1)
    n = len(y) + len(z)
    m = np.block([[np.diag(y), -0.5 * weights], [-0.5 * weights.T, np.diag(z)]])
    lam = np.linalg.eigvalsh(m)[0]
    slack = -lam + n * np.finfo(float).eps * np.linalg.norm(m)
    return float(y.sum() + z.sum() + n * max(0.0, slack))


def _dual_matrix(weights: np.ndarray) -> np.ndarray:
    """M = [[0, -W/2], [-W^T/2, 0]], whose diagonal _dual_bound writes."""
    nu, nv = weights.shape
    m = np.zeros((nu + nv, nu + nv))
    m[:nu, nu:] = -0.5 * weights
    m[nu:, :nu] = -0.5 * weights.T
    return m


def _dual_bound(m: np.ndarray, w_sq: float, wb: np.ndarray,
                wta: np.ndarray) -> float:
    """_dual_upper from the products wb = W b and wta = W^T a, writing the
    diagonal (y, z) into ``m`` from _dual_matrix; w_sq = |W|_F^2, so
    |M|_F^2 = w_sq / 2 + |y|^2 + |z|^2 needs no pass over M."""
    n = len(m)
    diag = 0.5 * np.concatenate([_row_norms(wb), _row_norms(wta)])[:, 0]
    m.flat[::n + 1] = diag
    lam = np.linalg.eigvalsh(m)[0]
    frob = math.sqrt(0.5 * w_sq + diag @ diag)
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


def _young_rate(rho: float, omega: float) -> float:
    """The rate at omega of an iteration whose plain-step rate is rho: the
    largest |lambda| with (lambda + omega - 1)^2 = lambda omega^2 rho."""
    q = omega - 1.0
    half = 0.5 * omega * omega * rho - q
    disc = half * half - q * q
    return half + math.sqrt(disc) if disc > 0.0 else q


def _steps_to(gap: float, rate: float, tol: float) -> int:
    """Steps for a gap that contracts by ``rate`` per step to fall below tol,
    at most CHECK_MAX."""
    if gap <= tol or rate <= 0.0:
        return 1
    steps = math.log(tol / gap) / math.log(rate) if rate < 1.0 else CHECK_MAX
    return max(1, math.ceil(min(steps, CHECK_MAX)))


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
    successive increment ratios r agree within RATE_SETTLE (RELAXED_SETTLE
    once over-relaxed), sqrt(r) is the step's rate and Young's relation
    (rate + omega - 1)^2 = rate omega^2 rho gives rho.  A rho above the last
    one raises omega: the plain rate of a nonlinear run keeps rising after
    it first settles, so omega follows it up.  Nothing else raises omega.
    Over-relaxed steps can lower the bias: a check whose bias is more than
    _SLACK below the best so far returns the run to plain steps, under
    which the bias never falls.

    The run bounds every quantum bias from above by the dual point of its
    current vectors (_dual_bound) at step 0 and then at the step where the
    dual gap is predicted to pass ``tol``: by the rate the gap showed since
    the last check at this omega, else by Young's rate at omega, else
    CHECK_EVERY steps on.  The first check after a change of omega comes
    within CHECK_EVERY steps, so an overshoot is caught as early as with a
    check every CHECK_EVERY steps; plain steps whose bias stalls are checked
    at once.  The run keeps the vectors of the last check whose bias is
    within _SLACK of the best seen at a check (near an optimum the bias
    settles to rounding error while the dual gap still shrinks), and the
    least bound seen; both hold for any unit vectors, and the run stops once
    they are within ``tol``.  A row whose weighted sum is exactly zero has
    no direction: the run then ends with the vectors it kept.
    """
    wt = weights.T
    m = _dual_matrix(weights)
    w_sq = float(np.vdot(weights, weights))
    omega, rho, relax = 1.0, 0.0, True
    kept, best, upper = None, -math.inf, math.inf
    rows_a, rows_b = a, b
    wb, wta = weights @ b, wt @ a
    bias = float(np.vdot(a, wb))
    it = check = 0
    last = None          # (step, gap) of the last check
    rate = None          # the gap's rate at omega
    rise = ratio = None  # the last bias increment and increment ratio
    fresh = True         # omega changed since the last check, or none ran
    while True:
        if it == check:
            bound = _dual_bound(m, w_sq, wb, wta)
            upper = min(upper, bound)
            if bias >= best - _SLACK:
                kept, best = (a, b, bias), max(best, bias)
            elif relax:  # an overshoot: plain steps from here on
                omega, relax, rate, fresh = 1.0, False, rho or None, True
            if upper - kept[2] < tol or it == max_iter:
                return (*kept, upper, it)
            gap = bound - bias
            if not fresh and 0.0 < gap < last[1]:
                rate = (gap / last[1]) ** (1.0 / (it - last[0]))
            spacing = CHECK_EVERY if rate is None else _steps_to(gap, rate, tol)
            check = min(it + spacing, max_iter)
            last, fresh = (it, gap), False
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
            if omega == 1.0 and step_rise <= RISE_MIN:
                check = it  # the plain steps have stalled: check now
            elif 0.0 < r < 1.0 and ratio is not None and abs(r - ratio) <= (
                    RATE_SETTLE if omega == 1.0 else RELAXED_SETTLE) * r:
                lam = math.sqrt(r)
                seen = _young_rho(lam, omega)
                if rho < seen < 1.0 and _young_omega(seen) > omega:
                    rho, omega = seen, _young_omega(seen)
                    rate = _young_rate(rho, omega)
                    due = it + _steps_to(last[1] * lam ** (it - last[0]),
                                         rate, tol)
                    check = min(check if fresh else it + CHECK_EVERY, due,
                                max_iter)
                    fresh, step_rise = True, None
            ratio = r
        else:
            ratio = None
        rise = step_rise


def quantum_value(game: XorGame, tol: float = DEFAULT_TOL,
                  max_iter: int = DEFAULT_MAX_ITER,
                  seed: int = DEFAULT_SEED) -> tuple[float, SeesawState]:
    """Seesaw lower bound on the quantum value, certified by a dual bound.

    One seesaw run from the deterministic sub-seed (seed, 0).  At dimension
    nu + nv it factors the XOR-game SDP at full rank, where a second-order
    critical point is generically a global optimum, so the run is certified
    on every game tried.  If it is not within ``tol`` of its dual bound
    after ``max_iter`` steps, the state has ``converged=False``, and its
    bound still holds.  Questions of zero weight never move the bias or the
    bound, so the seesaw runs without them and they keep their start
    vectors.
    """
    weights = _weights(game)
    live_a, live_b = weights.any(axis=1), weights.any(axis=0)
    a, b = _seesaw_start(game, seed, 0)
    a[live_a], b[live_b], bias, upper, iterations = _seesaw(
        weights[live_a][:, live_b], a[live_a], b[live_b], tol, max_iter)
    state = SeesawState(dim=game.nu + game.nv, avecs=a, bvecs=b, bias=bias,
                        upper=upper, iterations=iterations,
                        converged=upper - bias < tol)
    return _omega(bias), state


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
    """Local, quantum (best found and dual bound), and nonsignalling values
    of one game."""

    game: str
    omega_local: float
    omega_quantum: float
    omega_quantum_upper: float
    omega_ns: float
    local_strategy: tuple[tuple[int, ...], tuple[int, ...]]
    converged: bool
    iterations: int  # seesaw steps of the run

    def __post_init__(self):
        if not 0.5 <= self.omega_local:
            raise ValidationError(
                f"report: omega_local = {self.omega_local!r} below 1/2")
        if self.omega_ns != 1.0:
            raise ValidationError("report: omega_ns must be 1 for XOR games")
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
    """Bundle local, quantum (seesaw), and nonsignalling values for a game;
    a local strategy is also a quantum one, so it bounds omega_quantum too."""
    w_local, amap, bmap = local_value(game)
    w_quantum, state = quantum_value(game, seed=seed)
    w_ns, certificate = ns_value(game)
    check = is_nonsignalling(certificate)
    if not check or game_value(game, certificate) != 1.0:
        raise ValidationError("predicate-box certificate failed verification")
    return ClassValueReport(
        game=game.name,
        omega_local=w_local,
        omega_quantum=max(w_quantum, w_local),
        omega_quantum_upper=_omega(state.upper),
        omega_ns=w_ns,
        local_strategy=(amap, bmap),
        converged=state.converged,
        iterations=state.iterations,
    )
