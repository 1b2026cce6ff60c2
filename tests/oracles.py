"""Second spellings of library quantities, kept as test oracles.

The library computes each quantity once; each function here derives one of
them again by another route, so that a test can hold the library to it.
Nothing in ``src/`` imports this module.
"""

import math

import numpy as np

from xorszilard import ValidationError, XorGame, apply_noise, correlator_behaviour


def _check_bit(x, name: str) -> int:
    if x not in (0, 1):
        raise ValidationError(f"{name} = {x!r} is not a bit")
    return int(x)


def referee_encode(x: int, u: int, v: int, game: XorGame) -> int:
    """The referee bit r = x xor f(u,v); inverting gives x = r xor f(u,v).
    Reference for the ``r`` column of channel.enumerate_rounds."""
    x = _check_bit(x, "x")
    if not 0 <= u < game.nu or not 0 <= v < game.nv:
        raise ValidationError(
            f"question pair ({u}, {v}) out of range for a "
            f"{game.nu}x{game.nv} game")
    return x ^ int(game.f[u, v])


def compress(a: int, b: int, r: int) -> int:
    """The controller bit g = a xor b xor r.  Reference for the ``g``
    column of channel.enumerate_rounds."""
    return _check_bit(a, "a") ^ _check_bit(b, "b") ^ _check_bit(r, "r")


def quantum_optimal_chsh():
    """The Tsirelson-optimal CHSH behaviour.

    Given as an explicit correlator table with E = +1/sqrt(2) on the three
    aligned question pairs and -1/sqrt(2) on (1, 1), with uniform marginals.
    Its CHSH value is S = 2*sqrt(2), i.e. winning probability cos^2(pi/8).
    The program builds ``quantum-opt`` from the seesaw on every game
    (optimize.quantum_behaviour); this closed form is what its CHSH
    behaviour is held to.
    """
    c = 1.0 / math.sqrt(2.0)
    return correlator_behaviour([[c, c], [c, -c]])


def noise_threshold_bisect(p_resource: float, omega_q: float) -> float:
    """engine.noise_threshold by bisection of apply_noise(p, delta) - omega_q
    on [0, 1/2], to float resolution, in place of the closed form."""
    lo, hi = 0.0, 0.5  # p_eff(lo) = p > w, p_eff(hi) = 1/2 < w
    mid = 0.25
    while lo < mid < hi:
        if apply_noise(p_resource, mid) > omega_q:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def dual_upper(weights: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Bound on the bias of every unit-vector strategy from the XOR-game SDP
    dual (Tsirelson; Cleve, Hoyer, Toner and Watrous 2004), valid for any
    unit rows a, b and tight at an optimum: the point y_u = |(W b)_u| / 2,
    z_v = |(W^T a)_v| / 2, shifted by the least eigenvalue of
    M = [[diag y, -W/2], [-W^T/2, diag z]].  The shift adds eigvalsh's
    backward error n * eps * |M|_F to each of the n = nu + nv diagonal
    entries; |M|_F <= 1, so that costs under 4e-13 for n <= 40.

    Reference for optimize._dual_bound, which computes the same bound with
    |M|_F taken from |W|_F and the diagonal."""
    y = 0.5 * np.linalg.norm(weights @ b, axis=1)
    z = 0.5 * np.linalg.norm(weights.T @ a, axis=1)
    n = len(y) + len(z)
    m = np.block([[np.diag(y), -0.5 * weights], [-0.5 * weights.T, np.diag(z)]])
    lam = np.linalg.eigvalsh(m)[0]
    slack = -lam + n * np.finfo(float).eps * np.linalg.norm(m)
    return float(y.sum() + z.sum() + n * max(0.0, slack))
