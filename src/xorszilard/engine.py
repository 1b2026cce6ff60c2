"""Reversible Szilard feedback work, cycle bookkeeping, and Monte Carlo runs.

Work values are dimensionless: information quantities in bits, trajectory
and branch work in units of kT (natural log), with explicit ln 2 factors at
the conversions.  A physical scale factor is applied only by the CLI.

A channel is its success probability p, a plain float.  The controller
record g selects a branch whose posterior over the microstate is (p, 1-p).
The branch protocol assigns a posterior-matched two-level Hamiltonian (gap
ln(p/(1-p)) kT) and returns it quasistatically to the degenerate one; its
net work is kT ln 2 [1 - h2(p)] per branch, and averaging over g gives
kT ln 2 times the channel mutual information.  A single run extracts
ln 2p kT when the guess g equals the microstate (a hit) and ln 2(1-p) kT
otherwise (a miss): branch_works.
Closing the cycle costs at least the Landauer bound kT ln 2 H(g) to blindly
reset the controller memory, so the net work is never positive.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .channel import apply_noise, binary_entropy, enumerate_rounds, \
    mutual_information, orient
from .errors import BudgetError, ValidationError, check_count, check_seed
from .games import Behaviour, XorGame, game_value

LN2 = math.log(2.0)
MAX_ROUNDS = 10**18  # rounds per batch; multinomial counts are int64
MAX_RECORDS = 10**7  # rounds per batch with the transcript kept


# ---------------------------------------------------------------------------
# branch protocol (quasistatic)


def branch_works(q: float) -> tuple[float, float]:
    """Trajectory works (hit, miss) in kT of the branch matched to q.

    The branch expects the guessed microstate with probability q, so a hit
    extracts ln 2q and a miss ln 2(1-q): negative, as that branch compresses
    instead of expanding, and -inf for the impossible miss of q = 1.  q is
    an oriented success probability in [1/2, 1] (ValidationError otherwise,
    NaN included).
    """
    if not 0.5 <= q <= 1.0:
        raise ValidationError(
            f"controller model p = {q!r} outside [1/2, 1]; orient the "
            "channel before feedback")
    return (math.log(2.0 * q),
            math.log(2.0 * (1.0 - q)) if q < 1.0 else -math.inf)


def branch_decomposition(q: float,
                         offset_kt: float = 0.0) -> tuple[float, float]:
    """Assignment and return strokes of the branch matched to q, in kT.

    The sudden posterior-matched assignment extracts -ln 2 h2(q) - offset
    and the quasistatic return extracts ln 2 + offset, where ``offset_kt``
    is an arbitrary additive constant of the branch Hamiltonian.  The
    offset cancels in the sum, which equals ln 2 times
    ``mutual_information(q)``.  q must lie in [0, 1] (binary_entropy).
    Library only: the paper's stroke split, acceptance criterion 6.
    """
    return -LN2 * binary_entropy(q) - offset_kt, LN2 + offset_kt


def class_ceilings(report) -> tuple[float, float, float]:
    """Local/quantum/nonsignalling feedback-work ceilings in bits.

    ``report`` carries the class values ``omega_local``, ``omega_quantum``
    and ``omega_ns``, as an optimize.ClassValueReport does.  The average
    reversible feedback work of a channel is its mutual information, so
    each ceiling is 1 - h2(omega) of that class value.
    """
    return tuple(map(mutual_information, (
        report.omega_local, report.omega_quantum, report.omega_ns)))


# ---------------------------------------------------------------------------
# full-cycle ledger


@dataclass(frozen=True)
class CycleLedger:
    """Feedback work against the Landauer reset bound, in bits.

    The reset cost is reported at the bound (minimal blind reset of the
    uniform controller bit), so the net work is the upper bound
    -h2(p) <= 0, with equality only for a perfect or perfectly wrong
    channel.
    """

    p: float
    i_bits: float
    h_g_bits: float
    h_g_given_x_bits: float
    w_fb_bits: float
    w_reset_bits: float
    w_net_bits: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def cycle_ledger(p: float) -> CycleLedger:
    """The ledger of a channel of success probability p."""
    h_cond = binary_entropy(p)
    i = 1.0 - h_cond
    return CycleLedger(p=float(p), i_bits=i, h_g_bits=1.0,
                       h_g_given_x_bits=h_cond, w_fb_bits=i,
                       w_reset_bits=1.0, w_net_bits=-h_cond)


# ---------------------------------------------------------------------------
# memory scope

EPS_STAT = 1e-9
# G is a deterministic function of the transcript, so the plug-in entropies
# satisfy H(M) >= H(G) exactly; EPS_STAT only absorbs float rounding.


def _entropy_bits(weights) -> float:
    total = math.fsum(weights)
    return -math.fsum(w / total * math.log2(w / total)
                      for w in weights if w > 0.0)


def _ledger(rounds, weights) -> tuple[float, float, bool]:
    """Entropies of G and of M = (g, u, v, r, a, b) under weighted cells.

    ``weights`` holds one weight per cell of the round table ``rounds``:
    the counts of a sampled batch (plug-in entropies) or the exact cell
    probabilities; zero weights drop out.  M and the cell (x, u, v, a, b)
    determine each other, since x = r xor f(u, v), so H(M) is the entropy
    of the cell weights themselves.
    """
    h_g = _entropy_bits(np.bincount(rounds["g"], weights=weights))
    h_m = _entropy_bits(weights)
    return h_g, h_m, h_m >= h_g - EPS_STAT


def memory_ledger(rounds, cells) -> tuple[float, float, bool]:
    """Empirical entropies of the controller bit and the full transcript.

    ``cells`` index the round table ``rounds``, such as the transcript that
    ``simulate_rounds`` returns.  Returns (h_g, h_m, ok) in bits, where the
    transcript is m = (g, u, v, r, a, b) and ok checks h_m >= h_g - EPS_STAT.
    Storing the auxiliary round variables can only increase the Landauer
    reset burden.
    Library only: the paper's memory-scope claim, acceptance criterion 11.
    """
    if len(cells) == 0:
        raise ValidationError("memory ledger needs a nonempty batch")
    return _ledger(rounds, np.bincount(cells, minlength=len(rounds)))


def exact_memory_ledger(game: XorGame, b: Behaviour) -> tuple[float, float, bool]:
    """Memory ledger from the exactly enumerated round distribution.

    Library only: the paper's memory-scope claim, acceptance criterion 11.
    """
    probs, rounds = enumerate_rounds(game, b)
    return _ledger(rounds, probs)


# ---------------------------------------------------------------------------
# Monte Carlo simulation


@dataclass(frozen=True)
class SimulationStats:
    """A simulated batch of feedback rounds, as its hit count.

    A round's trajectory work takes one of two values, ln 2q on a hit and
    ln 2(1-q) on a miss, where q = ``p_model`` is the controller's branch,
    so ``(rounds, hits)`` and q determine the batch.  The empirical success
    rate, the mean work and its standard error follow from those integers
    with no per-round sum; a batch of all hits or all misses is exact: its
    mean is that work and its standard error is 0.  ``flipped`` records
    that the controller negated its bit to orient a channel below 1/2.
    """

    rounds: int
    hits: int
    p_model: float
    analytic_work_kt: float
    seeds: tuple  # each pooled batch's seed, an int or a tuple of ints, in order
    flipped: bool = False

    @property
    def empirical_p(self) -> float:
        return self.hits / self.rounds

    @property
    def mean_work_kt(self) -> float:
        return _mean_work(self.empirical_p, *branch_works(self.p_model))

    @property
    def stderr_kt(self) -> float:
        n, hits = self.rounds, self.hits
        if not 0 < hits < n:
            return 0.0
        w_hit, w_miss = branch_works(self.p_model)
        return abs(w_hit - w_miss) * math.sqrt(hits * (n - hits) / (n - 1)) / n

    def to_json_dict(self) -> dict:
        """The batch's fields; ``flipped`` appears only when it is true.

        One batch gives its ``seed``; a merged batch gives ``seeds``, the
        list of every pooled batch's seed, so it never reads as one batch
        with a tuple seed.
        """
        seeds = [list(s) if isinstance(s, tuple) else s for s in self.seeds]
        return {
            "rounds": self.rounds,
            "empirical_p": self.empirical_p,
            "mean_work_kt": self.mean_work_kt,
            "stderr_kt": self.stderr_kt,
            "analytic_work_kt": self.analytic_work_kt,
            **({"seed": seeds[0]} if len(seeds) == 1 else {"seeds": seeds}),
            **({"flipped": True} if self.flipped else {}),
        }


def _mean_work(p_hit: float, w_hit: float, w_miss: float) -> float:
    """Mean of a work that is ``w_hit`` with weight ``p_hit``, else ``w_miss``.

    A term of zero weight is left out, so a certain hit at q = 1 never forms
    0 * -inf, and a certain hit or miss returns its work exactly.
    """
    if p_hit == 1.0:
        return w_hit
    if p_hit == 0.0:
        return w_miss
    return p_hit * w_hit + (1.0 - p_hit) * w_miss


def merge_stats(a: SimulationStats, b: SimulationStats) -> SimulationStats:
    """Pool two batches of one controller model by adding their counts.

    The merge is exact and associative, and equals the stats of the pooled
    batch; its ``seeds`` hold every pooled batch's seed, in order.
    """
    if ((a.p_model, a.analytic_work_kt, a.flipped)
            != (b.p_model, b.analytic_work_kt, b.flipped)):
        raise ValidationError("cannot merge stats with different controller "
                              "models, analytic targets or orientations")
    return replace(a, rounds=a.rounds + b.rounds, hits=a.hits + b.hits,
                   seeds=a.seeds + b.seeds)


def simulate_rounds(game: XorGame, behaviour: Behaviour, n: int,
                    seed: int | tuple[int, ...],
                    p_model: float | None = None, noise_delta: float = 0.0,
                    keep_records: bool = False):
    """Sample n feedback rounds and count the controller's hits.

    Each round draws x uniformly, (u, v) from mu, and (a, b) from the
    behaviour with no access to x; the controller sees the compressed bit
    (flipped with probability ``noise_delta`` if nonzero), negated when
    the channel's success probability is below 1/2 (channel.orient), and
    runs the branch matched to ``p_model`` (default: the oriented success
    probability).  A mismatched ``p_model`` models a controller with an
    imperfect channel estimate.

    Rounds are independent, so the batch is one multinomial draw of n over
    the cells of ``enumerate_rounds``, from the generator seeded
    (*seed, 0) (a bare integer seed is the 1-tuple); the hits are the counts in won cells, controller noise
    thins the won and the lost counts binomially, and a flipped controller
    hits exactly the other rounds, with the same draws.  Memory is constant in n
    unless records are kept.  Batches of one model combine exactly with
    ``merge_stats``.

    Returns SimulationStats, or (SimulationStats, rounds, cells) when
    ``keep_records`` is set: ``rounds`` is the round table
    ``enumerate_rounds(game, behaviour)[1]`` the batch was drawn from, and
    ``cells`` index its rows in a random order, the noiseless transcript
    of the game, whatever the controller's orientation.
    They are held in the smallest unsigned dtype that indexes the table
    (uint8 for CHSH's 32 cells, uint16 up to 65 536 cells), which shuffles
    with the same draws as int64.  A batch is capped at MAX_ROUNDS
    rounds, and at MAX_RECORDS when its transcript is kept (BudgetError).
    A controller model outside [1/2, 1] is rejected (branch_works), and so
    is a model of 1 unless the channel never errs: its branch would cost
    infinite work on a wrong guess (ValidationError, before any draw), as
    are an n that is not an integer and a bad seed (errors.check_seed).
    """
    n = check_count(n, "round count n")
    if n < 1:
        raise ValidationError(f"need n >= 1 rounds, got {n}")
    limit = MAX_RECORDS if keep_records else MAX_ROUNDS
    if n > limit:
        raise BudgetError(
            f"round budget exceeded: n = {n} > {limit}"
            + (" with records kept" if keep_records else ""))
    p_true, flipped = orient(apply_noise(game_value(game, behaviour),
                                         noise_delta))
    q = p_true if p_model is None else float(p_model)
    works = branch_works(q)
    if q == 1.0 and p_true < 1.0:
        raise ValidationError(
            f"controller model p = 1 on a channel that errs (p = {p_true!r}): "
            "a wrong guess would cost infinite work")
    analytic = _mean_work(p_true, *works)

    probs, rounds = enumerate_rounds(game, behaviour)
    cells = np.flatnonzero(probs > 0.0)
    pvals = probs[cells] / math.fsum(probs[cells])
    key = check_seed(seed)
    seed = key if isinstance(seed, tuple) else key[0]  # as ints, for JSON
    rng = np.random.default_rng([*key, 0])
    counts = rng.multinomial(n, pvals)
    hits = int(counts[rounds.won[cells]].sum())
    if noise_delta > 0.0:
        # the flip is independent of the round: it turns a lost round into
        # a hit and a won round into a miss
        hits += (int(rng.binomial(n - hits, noise_delta))
                 - int(rng.binomial(hits, noise_delta)))
    if flipped:
        hits = n - hits
    stats = SimulationStats(rounds=n, hits=hits, p_model=q,
                            analytic_work_kt=analytic, seeds=(seed,),
                            flipped=flipped)
    if keep_records:
        order = np.repeat(cells.astype(np.min_scalar_type(len(rounds) - 1)),
                          counts)
        rng.shuffle(order)  # in place: the draws of rng.permutation
        return stats, rounds, order
    return stats


# ---------------------------------------------------------------------------
# expansions, thresholds, sweeps


def small_bias_work(beta: float, order: int = 2) -> float:
    """Leading-order feedback work near random guessing, in kT.

    Takes the bias beta = 2p - 1 and returns beta^2/2 (+ beta^4/12 at order
    4); for CHSH beta = S/4, so S^2/32 (+ S^4/3072).  Useful for
    |p - 1/2| <= 0.2/8, i.e. beta <= 0.05 or S <= 0.2; beyond that use the
    exact formula.
    Library only: the paper's small-S expansion, acceptance criterion 9.
    """
    if order not in (2, 4):
        raise ValidationError(f"expansion order must be 2 or 4, got {order!r}")
    w = beta * beta / 2.0
    if order == 4:
        w += beta ** 4 / 12.0
    return w


def noise_threshold(p_resource: float, omega_q: float) -> float:
    """Largest controller-noise delta keeping the channel above omega_q.

    Closed form: delta* = (p - omega_q) / (2p - 1), the root of
    channel.apply_noise(p, delta) = omega_q.
    Library only: the paper's PR-box noise tolerance, acceptance criterion 8.
    """
    p = float(p_resource)
    w = float(omega_q)
    if not 0.5 <= w < p <= 1.0:
        raise ValidationError(
            f"no noise margin: need 1/2 <= omega_q < p_resource, got "
            f"omega_q = {w!r}, p_resource = {p!r}")
    return (p - w) / (2.0 * p - 1.0)


def sweep_s_curve(s_values) -> list[tuple[float, float, float]]:
    """Rows (S, work_bits, work_kt) of the CHSH feedback-value curve.

    work_bits = 1 - h2(1/2 + S/8); the kT column multiplies by ln 2.
    """
    rows = []
    for s in s_values:
        s = float(s)
        if not 0.0 <= s <= 4.0:
            raise ValidationError(f"CHSH expression S = {s!r} outside [0, 4]")
        bits = mutual_information(0.5 + s / 8.0)
        rows.append((s, bits, bits * LN2))
    return rows
