"""Independent references for every job's output, and the checks against them.

Nothing here imports ``xorszilard``: each reference is computed apart from
the program, from the job's description in ``workloads``.  Each check
returns a list of error strings; an empty list means the output is correct.

Stochastic outputs are held to Z_BOUND standard errors plus ABS_FLOOR, so a
later method that becomes exact (a standard error of 0) still passes, as long
as it agrees with the reference to within rounding.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np

Z_BOUND = 5.0
ABS_FLOOR = 1e-9
EXACT_TOL = 1e-12  # float rounding of a deterministic quantity
SEESAW_TOL = 1e-9  # closed-form quantum values the seesaw must reach
LN2 = math.log(2.0)


def h2(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _close(a, b, tol=EXACT_TOL) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= tol


# ---------------------------------------------------------------------------
# class values


def local_value_other_side(game) -> float:
    """Local value by enumerating Bob's output maps (the program enumerates
    Alice's) and letting Alice answer each of her questions best."""
    mu = np.array(game.mu, dtype=float)
    f = np.array(game.f, dtype=int)
    nv = game.nv
    bits = (np.arange(1 << (nv - 1))[:, None] >> np.arange(nv - 1)[::-1]) & 1
    bmaps = np.hstack([np.zeros((bits.shape[0], 1), dtype=int), bits])
    total = np.zeros(bmaps.shape[0])
    for u in range(game.nu):
        # Alice answering 0 on u wins the pairs with b_v == f(u, v)
        win0 = (bmaps == f[u]) @ mu[u]
        total += np.maximum(win0, mu[u].sum() - win0)
    return float(total.max())


def strategy_value(game, amap, bmap) -> float:
    return math.fsum(game.mu[u][v] for u in range(game.nu)
                     for v in range(game.nv)
                     if amap[u] ^ bmap[v] == game.f[u][v])


def quantum_upper_bound(game) -> float:
    """1/2 (1 + sqrt(nu nv) ||W||_2), W = mu (-1)^f: any unit vectors reach
    at most sqrt(nu) sqrt(nv) ||W||_2 of bias."""
    w = np.array(game.mu) * np.where(np.array(game.f) == 0, 1.0, -1.0)
    return 0.5 * (1.0 + math.sqrt(game.nu * game.nv) * np.linalg.norm(w, 2))


class ValueRef:
    """Cached references for the `value` outputs of one game."""

    def __init__(self, game):
        self.game = game
        self.omega_local = local_value_other_side(game)
        self.upper = quantum_upper_bound(game)


def check_value(out: dict, ref: ValueRef, seed: int | None) -> list[str]:
    game, err = ref.game, []
    try:
        wl, wq, wns = out["omega_local"], out["omega_quantum"], out["omega_ns"]
        amap, bmap = out["strategy"]["amap"], out["strategy"]["bmap"]
        bits, kt = out["ceilings_bits"], out["ceilings_kt"]
    except (KeyError, TypeError) as exc:
        return [f"missing field {exc}"]
    if out.get("game") != game.name:
        err.append(f"game {out.get('game')!r} != {game.name!r}")
    if seed is not None and out.get("seed") != seed:
        err.append(f"seed {out.get('seed')!r} != {seed}")
    if not _close(wl, ref.omega_local):
        err.append(f"omega_local {wl!r} != enumerated {ref.omega_local!r}")
    if (len(amap) != game.nu or len(bmap) != game.nv
            or any(x not in (0, 1) for x in list(amap) + list(bmap))):
        err.append("strategy maps have the wrong length or are not bits")
    elif not _close(strategy_value(game, amap, bmap), wl):
        err.append(f"reported strategy is worth "
                   f"{strategy_value(game, amap, bmap)!r}, not {wl!r}")
    if not isinstance(wq, float) or not wl - SEESAW_TOL <= wq <= ref.upper + EXACT_TOL:
        err.append(f"omega_quantum {wq!r} outside [omega_local, {ref.upper!r}]")
    if isinstance(wq, float) and wq > 1.0:
        err.append(f"omega_quantum {wq!r} above 1")
    if wns != 1.0:
        err.append(f"omega_ns {wns!r} != 1")
    if game.closed_form is not None:
        cl, cq = game.closed_form
        if not _close(wl, cl):
            err.append(f"omega_local {wl!r} != closed form {cl!r}")
        if not (isinstance(wq, float) and cq - SEESAW_TOL <= wq <= cq + EXACT_TOL):
            err.append(f"omega_quantum {wq!r} != closed form {cq!r}")
    for cls, omega in (("local", wl), ("quantum", wq), ("ns", wns)):
        want = 1.0 - h2(omega) if isinstance(omega, float) else math.nan
        if not _close(bits.get(cls), want):
            err.append(f"ceilings_bits.{cls} {bits.get(cls)!r} != 1 - h2 = {want!r}")
        if not _close(kt.get(cls), want * LN2):
            err.append(f"ceilings_kt.{cls} {kt.get(cls)!r} != {want * LN2!r}")
    return err


# ---------------------------------------------------------------------------
# simulated rounds


def success_probability(ref) -> float:
    """P(win) from (mu, table, f), then controller noise delta.

    Summing the lost mass keeps a certain win exactly 1."""
    g = ref.game
    lost = math.fsum(g.mu[u][v] * ref.table[u][v][a][b]
                     for u in range(g.nu) for v in range(g.nv)
                     for a in (0, 1) for b in (0, 1) if a ^ b != g.f[u][v])
    return (1.0 - lost) * (1.0 - 2.0 * ref.delta) + ref.delta


def branch_works(p: float) -> tuple[float, float]:
    """Work in kT of a right and of a wrong guess, branch matched to p."""
    return math.log(2.0 * p), -math.inf if p == 1.0 else math.log(2.0 * (1.0 - p))


def mean_work(p_hit: float, w_hit: float, w_miss: float) -> float:
    """Mean work at hit rate p_hit; a term of weight 0 is left out."""
    if p_hit in (0.0, 1.0):
        return w_hit if p_hit == 1.0 else w_miss
    return p_hit * w_hit + (1.0 - p_hit) * w_miss


def check_simulate(out: dict, ref, seed: int) -> list[str]:
    err = []
    n = ref.rounds
    p = success_probability(ref)
    w_hit, w_miss = branch_works(p)
    mean = mean_work(p, w_hit, w_miss)
    try:
        p_hat, m, se = out["empirical_p"], out["mean_work_kt"], out["stderr_kt"]
        analytic, z = out["analytic_work_kt"], out["z_score"]
    except KeyError as exc:
        return [f"missing field {exc}"]
    if out.get("rounds") != n:
        err.append(f"rounds {out.get('rounds')!r} != {n}")
    if out.get("seed") != seed:
        err.append(f"seed {out.get('seed')!r} != {seed}")
    if out.get("behaviour") != ref.behaviour:
        err.append(f"behaviour {out.get('behaviour')!r} != {ref.behaviour!r}")
    if not _close(out.get("noise_delta"), ref.delta):
        err.append(f"noise_delta {out.get('noise_delta')!r} != {ref.delta!r}")
    if not _close(analytic, mean):
        err.append(f"analytic_work_kt {analytic!r} != {mean!r}")
    if p == 1.0:
        # a deterministic batch is exact: every round extracts kT ln 2
        if p_hat != 1.0 or m != LN2 or se != 0.0 or z != 0.0:
            err.append(f"certain win gave p={p_hat!r} mean={m!r} "
                       f"stderr={se!r} z={z!r}, not 1, ln 2, 0, 0")
        return err
    sigma_p = math.sqrt(p * (1.0 - p) / n)
    if not abs(p_hat - p) <= Z_BOUND * sigma_p + ABS_FLOOR:
        err.append(f"empirical_p {p_hat!r} is {(p_hat - p) / sigma_p:.2f} "
                   f"sigma from {p!r}")
    sigma_w = abs(w_hit - w_miss) * sigma_p
    if not abs(m - mean) <= Z_BOUND * sigma_w + ABS_FLOOR:
        err.append(f"mean_work_kt {m!r} is {(m - mean) / sigma_w:.2f} sigma "
                   f"from {mean!r}")
    if not _close(m, mean_work(p_hat, w_hit, w_miss)):
        err.append(f"mean_work_kt {m!r} is not the mean of its own hit rate")
    if not se >= 0.0 or (se > 0.0 and not _close(z, (m - analytic) / se, 1e-9)):
        err.append(f"stderr_kt {se!r} and z_score {z!r} disagree")
    if not _close(out.get("mean_work_scaled"), m):
        err.append("mean_work_scaled != mean_work_kt at kt = 1")
    return err


# ---------------------------------------------------------------------------
# transcripts

HEADER = "x,u,v,a,b,r,g,e,won"


def digest_csv(path: str) -> Counter:
    """Count each distinct line of a transcript CSV (header included)."""
    with open(path, "r", encoding="utf-8") as fh:
        return Counter(line.rstrip("\r\n") for line in fh)


def _entropy(counts) -> float:
    total = sum(counts)
    return -sum(c / total * math.log2(c / total) for c in counts if c)


def check_transcript(lines: Counter, out: dict, ref, seed: int) -> list[str]:
    err = check_simulate(out, ref, seed)
    g = ref.game
    lines = Counter(lines)
    if lines.pop(HEADER, 0) != 1:
        err.append("transcript header missing or repeated")
    rows = sum(lines.values())
    if rows != ref.rounds:
        err.append(f"transcript has {rows} rows, not {ref.rounds}")
    wins = 0
    g_counts, m_counts = Counter(), Counter()
    for line, count in lines.items():
        try:
            x, u, v, a, b, r, gg, e, won = (int(t) for t in line.split(","))
        except ValueError:
            err.append(f"malformed row {line!r}")
            continue
        if (not 0 <= u < g.nu or not 0 <= v < g.nv
                or any(t not in (0, 1) for t in (x, a, b))):
            err.append(f"row {line!r} out of range")
            continue
        if r != x ^ g.f[u][v] or gg != a ^ b ^ r or e != gg ^ x \
                or won != (e == 0):
            err.append(f"row {line!r} breaks r=x^f, g=a^b^r, e=g^x, won=(e==0)")
        if g.mu[u][v] == 0.0 or ref.table[u][v][a][b] == 0.0:
            err.append(f"row {line!r} is off the support")
        wins += count * won
        g_counts[gg] += count
        m_counts[(gg, u, v, r, a, b)] += count
    if abs(out.get("empirical_p", -1.0) * ref.rounds - wins) > 1e-6:
        err.append(f"{wins} won rows but empirical_p = {out.get('empirical_p')!r}")
    if m_counts and _entropy(m_counts.values()) < _entropy(g_counts.values()) - 1e-9:
        err.append("plug-in H(M) < H(G)")
    return err


# ---------------------------------------------------------------------------
# finite-time dissipation


def exact_sigma(p: float, tau: float) -> float:
    """Mean dissipation of the linear ramp, by the O(steps) recursion.

    The branch is a two-state chain, so the occupation q_k of the unpredicted
    level after k Glauber steps follows q_k = q_{k-1} + dt (pi_k - q_{k-1}),
    pi_k = 1 / (1 + e^gap_k), and the mean extracted work is
    -gap_0 q_0 + sum_k (gap_{k-1} - gap_k) q_{k-1}.  The bath rate is 1, and
    the step density is the program's documented default max(100, 10 tau).
    """
    steps = max(100, int(round(10.0 * tau)))
    dt = tau / steps
    eps = math.log(p / (1.0 - p))
    gaps = [eps * (1.0 - k / steps) for k in range(steps + 1)]
    q = 1.0 - p
    work = -gaps[0] * q
    for k in range(1, steps + 1):
        work += (gaps[k - 1] - gaps[k]) * q
        q += dt * (1.0 / (1.0 + math.exp(gaps[k])) - q)
    w_qs = p * math.log(2.0 * p) + (1.0 - p) * math.log(2.0 * (1.0 - p))
    return w_qs - work


def ols_slope(xs, ys) -> tuple[float, float]:
    """Slope of ys on xs and its residual standard error."""
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    slope = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    if n < 3:
        return slope, 0.0
    rss = math.fsum((y - my - slope * (x - mx)) ** 2 for x, y in zip(xs, ys))
    return slope, math.sqrt(rss / (n - 2) / sxx)


class FiniteTimeRefs:
    """Exact dissipation at each grid point of one finite-time job."""

    def __init__(self, ref):
        self.ref = ref
        self.sigma = [exact_sigma(ref.p, t) for t in ref.taus]


def parse_finite_time(text: str) -> tuple[list[list[str]], dict]:
    """Split `finite-time` stdout into its CSV rows and its JSON summary."""
    head, brace, tail = text.partition("\n{")
    lines = head.strip().splitlines()
    return [ln.split(",") for ln in lines[1:]], json.loads(brace.strip() + tail)


def check_finite_time(rows, out: dict, refs: FiniteTimeRefs,
                      seed: int) -> list[str]:
    ref, err = refs.ref, []
    if len(rows) != len(ref.taus):
        return [f"{len(rows)} CSV rows for {len(ref.taus)} grid points"]
    try:
        tau, sig, se, reps, rseed = (list(map(float, col)) for col in zip(*rows))
        slope, slope_se = out["slope"], out["slope_stderr"]
        band = out["slope_band"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc}"]
    for i, t in enumerate(ref.taus):
        if tau[i] != t or reps[i] != ref.reps or rseed[i] != seed:
            err.append(f"row {i}: tau/reps/seed {tau[i]}, {reps[i]}, {rseed[i]}"
                       f" != {t}, {ref.reps}, {seed}")
        exact = refs.sigma[i]
        if not (se[i] >= 0.0 and abs(sig[i] - exact) <= Z_BOUND * se[i] + ABS_FLOOR):
            err.append(f"tau={t:g}: sigma {sig[i]!r} +- {se[i]!r} is off the "
                       f"exact {exact!r} by more than {Z_BOUND} stderr")
    if not all(s > 0.0 for s in sig):
        return err + ["non-positive sigma in a successful fit"]
    # the CSV carries 9 significant digits, so the refit agrees to ~1e-8
    want, want_se = ols_slope([math.log(t) for t in tau],
                              [math.log(s) for s in sig])
    if not _close(slope, want, 1e-6) or not _close(slope_se, want_se, 1e-6):
        err.append(f"slope {slope!r} +- {slope_se!r} != refit {want!r} +- {want_se!r}")
    elif not (_close(band[0], slope - 1.96 * slope_se, 1e-9)
              and _close(band[1], slope + 1.96 * slope_se, 1e-9)):
        err.append(f"slope_band {band!r} is not slope +- 1.96 stderr")
    if out.get("seed") != seed:
        err.append(f"seed {out.get('seed')!r} != {seed}")
    return err
