"""Command-line front end.

Subcommands: value, channel, simulate, sweep, cycle, finite-time.
Game specs: ``chsh``, ``chained:N``, or a JSON file path.  Behaviour specs:
``pr``, ``local-opt``, ``quantum-opt`` (quantum_value's certified vectors
at the default seed: W's top singular block on CHSH and every chained
game, else the seeded seesaw's; for any game with nu + nv <= 40),
``uniform``, a JSON file path, ``noisy:<spec>:<delta>`` (controller-bit
noise applied at channel level), or ``mix:<spec>:<v>`` (visibility mixing
with the uniform behaviour; a distinct operation from channel noise).

Outputs are dimensionless by default (bits, kT); ``--kt`` rescales kT to a
physical energy in every subcommand but finite-time, which prints the
dimensionless dissipation only.  CSV floats carry 9 significant digits with
'.' decimals.  finite-time's ``--rate`` reaches the fit through the schedule:
scaling_fit gets the linear ramp at that rate as its schedule template.
Exit codes: 0 ok, 2 parse (also a game or behaviour file that is not a
UTF-8 JSON object, nests too deeply or gives non-integer sizes, a --kt that
is not finite and > 0, a --tau-grid entry that is not a number, and an
output file that cannot be written, an empty path included), 3 validation,
4 budget (game and behaviour file bytes, chained:N length, the nu + nv
questions of value, local-opt and quantum-opt, round-table cells, rounds
per simulate batch and kept transcript rows, finite-time steps and
reps*steps, sweep rows), 5 regime.  ``main`` is every command's one exit:
a command that fails, with any of these codes or an uncaught error, leaves
none of the files it wrote (--out, --records); a device or symlink it wrote
through is not removed.
The environment variable XORSZILARD_OUT_DIR sets the default directory for
relative output paths.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import stat
import sys

import numpy as np

from . import channel as chan
from . import dynamics, engine, games, optimize
from .errors import BudgetError, ParseError, RegimeError, ValidationError
from .optimize import DEFAULT_SEED

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_REGIME = 5

MAX_SWEEP_ROWS = 10**6  # rows of one sweep, about 4/step
_SWEEP_CHUNK = 2**12  # sweep rows per written chunk


def _seed(text: str) -> int:
    """argparse type of --seed: numpy seeds are non-negative integers."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _kt(text: str) -> float:
    """argparse type of --kt: a physical energy scale, finite and > 0."""
    kt = float(text)
    if not (math.isfinite(kt) and kt > 0.0):
        raise argparse.ArgumentTypeError(
            f"kT scale must be finite and > 0, got {text}")
    return kt


def _tau_grid(text: str) -> list[float]:
    """argparse type of --tau-grid: a comma-separated list of numbers.

    Only the syntax is checked here; dynamics rejects a non-finite or
    non-positive tau (exit 3).
    """
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"tau grid must be comma-separated numbers, got {text!r}") from None


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _z(deviation: float, stderr: float) -> float:
    """deviation / stderr, and 0 when an exact stderr of 0 leaves no scale."""
    return deviation / stderr if stderr > 0.0 else 0.0


def _open_out(args, path: str):
    """Open the output file ``path`` for writing, under XORSZILARD_OUT_DIR
    when relative.  An empty path is a file that cannot be written.

    The path joins ``args.written`` only once it is open, and only when it
    names a regular file and not a symlink, so main removes every file the
    command wrote when it fails, and never a device such as /dev/null.
    """
    base = os.environ.get("XORSZILARD_OUT_DIR")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    fh = open(path, "w", encoding="utf-8")
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and not os.path.islink(path):
        args.written.append(path)
    return fh


def _emit_json(data: dict, args, path: str | None):
    """Print ``data`` as JSON, and write it to ``path`` too unless None."""
    try:
        text = json.dumps(data, indent=2, allow_nan=False)
    except ValueError:  # strict JSON has no NaN or Infinity
        raise ValidationError(
            "a result is not finite (a --kt this large overflows it)") from None
    if path is not None:
        with _open_out(args, path) as fh:
            fh.write(text + "\n")
    print(text)


def _write_csv(args, chunks, header: list[str], path: str | None):
    """Write CSV to ``path``, or stdout when None: the header, then each
    list of rows in ``chunks`` as one string, so only one chunk's text is
    held at a time.

    The chunks are produced as they are written, so a chunk that fails
    leaves the rows before it in the file; main removes it.
    """
    with (_open_out(args, path) if path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(header) + "\n")
        for rows in chunks:
            fh.write("".join(
                ",".join(_fmt(x) if isinstance(x, float) else str(x)
                         for x in row) + "\n" for row in rows))


# ---------------------------------------------------------------------------
# spec parsing


def parse_game_spec(spec: str) -> games.XorGame:
    if spec == "chsh":
        return games.make_chsh()
    if spec.startswith("chained:"):
        arg = spec.split(":", 1)[1]
        try:
            n = int(arg)
        except ValueError:
            raise ParseError(f"game spec '{spec}': chain length must be an integer")
        return games.make_chained(n)
    if spec.endswith(".json") or os.path.exists(spec):
        return games.load_game(spec)
    raise ParseError(f"unknown game spec '{spec}' (use chsh, chained:N, or a file)")


def parse_behaviour_spec(spec: str, game: games.XorGame):
    """Resolve a behaviour spec.  Returns (behaviour, noise_delta, label).

    The ``noisy:`` and ``mix:`` wrappers are peeled outermost first and
    applied innermost first, in one loop whatever their depth.
    """
    wrappers = []
    while spec.startswith(("noisy:", "mix:")):
        kind, rest = spec.split(":", 1)
        inner, _, tail = rest.rpartition(":")
        name = "delta" if kind == "noisy" else "visibility"
        if not inner:
            raise ParseError(
                f"behaviour spec '{spec}': expected {kind}:<spec>:<{name}>")
        try:
            wrappers.append((kind, float(tail)))
        except ValueError:
            raise ParseError(f"behaviour spec '{spec}': {name} must be a number")
        spec = inner
    if spec == "pr":
        b = games.pr_box(game)
    elif spec == "uniform":
        b = games.uniform_behaviour(game)
    elif spec == "local-opt":
        _, amap, bmap = optimize.local_value(game)
        b = games.deterministic_behaviour(amap, bmap)
    elif spec == "quantum-opt":
        b = optimize.quantum_behaviour(game)
    elif spec.endswith(".json") or os.path.exists(spec):
        b = games.load_behaviour(spec)
    else:
        raise ParseError(
            f"unknown behaviour spec '{spec}' (use pr, local-opt, quantum-opt, "
            "uniform, noisy:<spec>:<delta>, mix:<spec>:<v>, or a file)")
    delta, label = 0.0, spec
    for kind, x in reversed(wrappers):
        if kind == "noisy":
            delta = chan.apply_noise(delta, x)
        else:
            b = games.mix_with_uniform(b, x)
        label = f"{kind}:{label}:{x:g}"
    return b, delta, label


# ---------------------------------------------------------------------------
# subcommands


def cmd_value(args) -> int:
    game = parse_game_spec(args.game)
    report = optimize.class_report(game, seed=args.seed)
    w_l, w_q, w_ns = engine.class_ceilings(report)
    scale = engine.LN2 * args.kt
    data = report.to_json_dict()
    data["seed"] = args.seed
    data["ceilings_bits"] = {"local": w_l, "quantum": w_q, "ns": w_ns}
    data["ceilings_kt"] = {"local": w_l * scale, "quantum": w_q * scale,
                           "ns": w_ns * scale}
    _emit_json(data, args, args.out)
    return 0


def cmd_channel(args) -> int:
    game = parse_game_spec(args.game)
    behaviour, delta, label = parse_behaviour_spec(args.behaviour, game)
    p = chan.apply_noise(games.game_value(game, behaviour), delta)
    oriented, flipped = chan.orient(p)
    info = chan.mutual_information(oriented)
    data = {
        "game": game.name,
        "behaviour": label,
        "p": p,
        "oriented_p": oriented,
        "flipped": flipped,
        "bias": games.bias(game, behaviour),
        "h_g_given_x_bits": chan.binary_entropy(oriented),
        "mutual_information_bits": info,
        "feedback_work_kt": info * engine.LN2 * args.kt,
        "nonsignalling": bool(optimize.is_nonsignalling(behaviour)),
    }
    if (game.nu, game.nv) == (2, 2):
        data["chsh_S"] = games.chsh_S(behaviour)
    _emit_json(data, args, args.out)
    return 0


def cmd_simulate(args) -> int:
    game = parse_game_spec(args.game)
    behaviour, delta, label = parse_behaviour_spec(args.behaviour, game)
    result = engine.simulate_rounds(game, behaviour, args.rounds, args.seed,
                                    p_model=args.p_model, noise_delta=delta,
                                    keep_records=args.records is not None)
    stats, *transcript = result if args.records is not None else (result,)
    z = _z(stats.mean_work_kt - stats.analytic_work_kt, stats.stderr_kt)
    data = stats.to_json_dict()
    data["game"] = game.name
    data["behaviour"] = label
    data["noise_delta"] = delta
    data["mean_work_scaled"] = stats.mean_work_kt * args.kt
    data["z_score"] = z
    if transcript:  # opened here too, so main removes a partial transcript
        with _open_out(args, args.records) as fh:
            chan.rounds_to_csv(*transcript, fh.name)
    _emit_json(data, args, args.out)
    return 0


def cmd_sweep(args) -> int:
    if not (math.isfinite(args.step) and args.step > 0.0):
        raise ValidationError(
            f"sweep step must be finite and positive, got {args.step!r}")
    if 4.0 / args.step > MAX_SWEEP_ROWS:
        raise BudgetError(
            f"sweep row budget exceeded: 4/step = {4.0 / args.step:.3g} > "
            f"{MAX_SWEEP_ROWS}")
    s_values = _sweep_grid(args.step)
    chunks = ([(s, bits, kt * args.kt) for s, bits, kt
               in engine.sweep_s_curve(s_values[start:start + _SWEEP_CHUNK])]
              for start in range(0, len(s_values), _SWEEP_CHUNK))
    _write_csv(args, chunks, ["param", "value_bits", "value_kt"], args.out)
    return 0


def _sweep_grid(step: float) -> np.ndarray:
    """S = 0, step, 2 step, ... while below 4 + 1e-12, each capped at 4,
    with the markers 2, 2 sqrt(2) and 4, sorted and distinct.

    Each S is the previous one plus step, rounded, as a running float sum
    makes it: np.add.accumulate adds in sequence.  4/step <= MAX_SWEEP_ROWS
    keeps the rounding far below one step, so int(4/step) + 2 sums pass
    4 + 1e-12.
    """
    s = np.full(int(4.0 / step) + 3, step)
    s[0] = 0.0
    with np.errstate(over="ignore"):  # a huge step overflows past the cut
        np.add.accumulate(s, out=s)
    s = np.minimum(s[:np.searchsorted(s, 4.0 + 1e-12)], 4.0)
    s = np.sort(np.append(s, [2.0, 2.0 * math.sqrt(2.0), 4.0]))
    return s[np.append(True, s[1:] > s[:-1])]


def cmd_cycle(args) -> int:
    ledger = engine.cycle_ledger(args.p)
    data = ledger.to_json_dict()
    scale = engine.LN2 * args.kt
    data["w_fb_scaled"] = ledger.w_fb_bits * scale
    data["w_reset_scaled"] = ledger.w_reset_bits * scale
    data["w_net_scaled"] = ledger.w_net_bits * scale
    _emit_json(data, args, args.out)
    return 0


def cmd_finite_time(args) -> int:
    fit = dynamics.scaling_fit(
        args.p, args.tau_grid, args.reps,
        lambda tau: dynamics.ProtocolSchedule.linear(tau, rate=args.rate))
    rows = [(pt.tau, pt.mean_sigma, pt.stderr, pt.reps, args.seed)
            for pt in fit.points]
    _write_csv(args, [rows],
               ["tau", "sigma_mean", "sigma_stderr", "reps", "seed"], args.out)
    band = 1.96 * fit.slope_stderr
    data = {"slope": fit.slope, "slope_stderr": fit.slope_stderr,
            "slope_band": [fit.slope - band, fit.slope + band],
            "seed": args.seed}
    _emit_json(data, args, None)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xorszilard",
        description="XOR-game values and the Szilard feedback work of the "
                    "side-information channels they induce.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--kt", type=_kt, default=1.0,
                       help="physical energy per kT (default 1: dimensionless)")
        p.add_argument("--out", default=None, help="also write output to this file")

    p = sub.add_parser("value", help="local/quantum/nonsignalling values and ceilings")
    p.add_argument("--game", required=True)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    common(p)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("channel", help="induced-channel diagnostics for a pair")
    p.add_argument("--game", required=True)
    p.add_argument("--behaviour", required=True)
    common(p)
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("simulate", help="Monte Carlo feedback rounds")
    p.add_argument("--game", required=True)
    p.add_argument("--behaviour", required=True)
    p.add_argument("--rounds", type=int, default=100_000)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--p-model", dest="p_model", type=float, default=None,
                   help="controller channel estimate (default: exact)")
    p.add_argument("--records", default=None,
                   help="write the round transcript CSV to this path")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="CHSH feedback-value curve as CSV")
    p.add_argument("--step", type=float, default=0.01)
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cycle", help="full-cycle work ledger for a channel")
    p.add_argument("--p", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_cycle)

    p = sub.add_parser("finite-time",
                       help="exact dissipation scaling over a tau grid")
    p.add_argument("--p", type=float, default=0.85)
    p.add_argument("--tau-grid", dest="tau_grid", type=_tau_grid,
                   default="10,20,40,80,160")
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--out", default=None, help="also write the CSV to this file")
    p.set_defaults(func=cmd_finite_time)

    return parser


# exit code and label of each error a command may raise; an OSError comes
# from a write only, as games maps a failed read to ParseError
_EXITS = {ParseError: (EXIT_PARSE, "parse"),
          ValidationError: (EXIT_VALIDATION, "validation"),
          BudgetError: (EXIT_BUDGET, "budget"),
          RegimeError: (EXIT_REGIME, "regime"),
          OSError: (EXIT_PARSE, "output")}


def main(argv=None) -> int:
    """Run one command: its exit code, or on an error of ``_EXITS`` that
    error's code and label on stderr.  Whatever stops a command, every file
    it wrote is removed; an error outside ``_EXITS`` is then raised again."""
    args = build_parser().parse_args(argv)
    args.written = []
    try:
        return args.func(args)
    except BaseException as exc:
        for path in args.written:
            with contextlib.suppress(OSError):  # a path given twice
                os.remove(path)
        if not isinstance(exc, tuple(_EXITS)):
            raise
        code, label = next(_EXITS[c] for c in type(exc).__mro__ if c in _EXITS)
        print(f"error ({label}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
