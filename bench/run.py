"""End-to-end benchmark of the xorszilard CLI, with a traced per-layer mode.

Usage, from the root of a checkout:

    python3 bench/run.py --workload values --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client in this process: the jobs of
a round (see ``workloads``) run one after another through ``cli.main(argv)``
with stdout captured, and whole rounds repeat until ``--seconds`` of loop
time have passed.  Every job's output is checked against references computed
apart from the program (see ``checks``).  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which are the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Details go to bench/_out/.  See bench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
SETUP_PROBES = 7
DEADLINE_S = 170  # the run must end within 180 s, however slow the program
P90_MIN_JOBS = 100

END_TO_END_UNITS = {"setup_s": "s", "job_p50_s": "s", "job_p90_s": "s",
                    "jobs_per_s": "1/s", "peak_rss_mb": "MB"}


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException, so run_job does not take it for a
    failed job."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("values", "rounds", "transcripts", "dissipation"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", dest="setup_probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_program():
    import xorszilard
    from xorszilard import cli
    if Path(xorszilard.__file__).resolve().parent != SRC / "xorszilard":
        raise ImportError(f"xorszilard imported from {xorszilard.__file__}, "
                          f"not from {SRC}")
    return xorszilard, cli


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(args, work: Path) -> int:
    """Child process: import the program, build the inputs, report times."""
    import_program()
    t_import = time.perf_counter()
    import workloads
    workloads.build(args.workload, args.seed, str(work))
    t_inputs = time.perf_counter()
    print(json.dumps({"import_s": t_import - T_START,
                      "inputs_s": t_inputs - t_import}))
    return 0


def measure_setup(args) -> dict:
    """Medians over SETUP_PROBES fresh interpreters.

    ``setup_s`` is the wall time from starting a fresh interpreter to the
    program imported and the workload's inputs built, as measured from here.
    """
    walls, imports, inputs = [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(times["import_s"])
        inputs.append(times["inputs_s"])
    return {"setup_s": statistics.median(walls),
            "setup.import_s": statistics.median(imports),
            "setup.inputs_s": statistics.median(inputs)}


# ---------------------------------------------------------------------------
# jobs


def run_job(cli, argv, tracer=None):
    """Run one CLI command in-process.

    Returns (exit code, seconds, stdout, stderr).
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.begin("cli") if tracer else None
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error of the program fails the job
            rc = -1
            traceback.print_exc(file=err)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end(span)
    return rc, dt, out.getvalue(), err.getvalue()


def make_refs(jobs):
    import checks
    import workloads as wl
    refs = {}
    for job in jobs:
        if isinstance(job.ref, wl.GameRef):
            refs[job.slot] = checks.ValueRef(job.ref)
        elif isinstance(job.ref, wl.FiniteTimeRef):
            refs[job.slot] = checks.FiniteTimeRefs(job.ref)
        else:
            refs[job.slot] = job.ref
    return refs


def check_job(job, ref, seed, stdout, records) -> list[str]:
    import checks
    import workloads as wl
    try:
        if isinstance(job.ref, wl.GameRef):
            return checks.check_value(json.loads(stdout), ref,
                                      seed if job.seeded else None)
        if isinstance(job.ref, wl.FiniteTimeRef):
            rows, out = checks.parse_finite_time(stdout)
            return checks.check_finite_time(rows, out, ref, seed)
        out = json.loads(stdout)
        if "--records" in job.argv:
            return checks.check_transcript(checks.digest_csv(records), out,
                                           ref, seed)
        return checks.check_simulate(out, ref, seed)
    except (ValueError, OSError) as exc:
        return [f"unreadable output: {exc}"]


# ---------------------------------------------------------------------------
# the run


def run(args, work: Path) -> int:
    setup = measure_setup(args)
    xorszilard, cli = import_program()
    import tracing
    import workloads
    jobs = workloads.build(args.workload, args.seed, str(work))
    refs = make_refs(jobs)
    records = str(work / "records.csv")
    tracer = tracing.Tracer(xorszilard) if args.trace else None

    def attempt(job, rnd, traced):
        seed = workloads.sub_seed(args.seed, rnd, job.slot)
        rc, dt, stdout, stderr = run_job(cli, job.command(seed, records),
                                         tracer if traced else None)
        t0 = time.perf_counter()
        errors = check_job(job, refs[job.slot], seed, stdout, records) \
            if rc == 0 else []
        return rc, dt, stderr, errors, time.perf_counter() - t0

    # warm-up: one job, untimed and uncounted; its output is still checked
    _, _, _, errors, _ = attempt(jobs[0], -1, False)
    problems = [f"warm-up: {e}" for e in errors]

    jobs_log, times = [], []
    failed = 0
    loop = {False: [0.0, 0], True: [0.0, 0]}  # traced? -> [seconds, jobs]
    rnd = 0
    elapsed = 0.0
    while rnd < 1 + args.trace or elapsed < args.seconds:
        traced = bool(args.trace) and rnd % 2 == 1
        if traced:
            tracer.install()
        t_round, check_s = time.perf_counter(), 0.0
        for job in jobs:
            if traced:
                tracer.job = len(times)
            rc, dt, stderr, errors, c_s = attempt(job, rnd, traced)
            check_s += c_s
            times.append(dt)
            if rc != 0:
                failed += 1
            problems += [f"round {rnd} {job.label}: {e}" for e in errors]
            jobs_log.append({"round": rnd, "job": job.label, "exit": rc,
                             "seconds": dt, "stderr": stderr.strip()[-300:],
                             "errors": errors})
        if traced:
            tracer.uninstall()
        round_s = time.perf_counter() - t_round - check_s
        loop[traced][0] += round_s
        loop[traced][1] += len(jobs)
        elapsed += round_s
        rnd += 1

    attempted = len(times)
    if args.trace:
        metrics = per_layer_metrics(tracer, loop, setup, rnd // 2)
    else:
        metrics = {"setup_s": setup["setup_s"],
                   "job_p50_s": statistics.median(times),
                   "jobs_per_s": attempted / loop[False][0],
                   "peak_rss_mb":
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if attempted >= P90_MIN_JOBS:
            metrics["job_p90_s"] = statistics.quantiles(times, n=10)[8]
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(str(OUT / f"{stem}.spans.jsonl"))
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "rounds": rnd, "metrics": metrics, "problems": problems,
                   "jobs": jobs_log}, fh, indent=1)
    for msg in problems[:20]:
        print(f"bench: wrong output: {msg}", file=sys.stderr)
    for entry in [j for j in jobs_log if j["exit"] != 0][:3]:
        print(f"bench: failed: {entry['job']} (exit {entry['exit']}): "
              f"{entry['stderr']}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def per_layer_metrics(tracer, loop, setup, traced_rounds) -> dict:
    """Per-layer figures per traced round, and the tracing overhead."""
    import tracing
    totals = tracing.layer_totals(tracer.spans)
    zero = {"busy_s": 0.0, "self_s": 0.0}

    def get(name, key):
        return totals.get(name, zero).get(key, 0) / traced_rounds

    def rate(name, count):
        busy = totals.get(name, zero)["busy_s"]
        return totals[name].get(count, 0) / busy if busy > 0 else 0.0

    m = {}
    for name in ("optimize.local_value", "engine.class_ceilings",
                 "engine.simulate_rounds", "channel.rounds_to_csv",
                 "dynamics.estimate_sigma", "dynamics.fit_loglog_slope",
                 "cli.parse_game_spec", "cli.parse_behaviour_spec"):
        m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    for name in ("optimize.class_report", "dynamics.scaling_fit", "cli"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for name, count in (("optimize.local_value", "strategies"),
                        ("optimize.class_report", "calls"),
                        ("engine.simulate_rounds", "rounds"),
                        ("channel.rounds_to_csv", "rows"),
                        ("dynamics.estimate_sigma", "updates")):
        m[f"{name}.{count}"] = (get(name, count), "count")
    m["channel.rounds_to_csv.bytes"] = (get("channel.rounds_to_csv", "bytes"),
                                        "bytes")
    m["engine.simulate_rounds.rounds_per_s"] = (
        rate("engine.simulate_rounds", "rounds"), "1/s")
    m["dynamics.estimate_sigma.updates_per_s"] = (
        rate("dynamics.estimate_sigma", "updates"), "1/s")
    m["setup.import_s"] = (setup["setup.import_s"], "s")
    m["setup.inputs_s"] = (setup["setup.inputs_s"], "s")
    plain = loop[False][1] / loop[False][0]
    traced = loop[True][1] / loop[True][0]
    m["trace.jobs_per_s_untraced"] = (plain, "1/s")
    m["trace.jobs_per_s_traced"] = (traced, "1/s")
    m["trace.overhead_pct"] = (100.0 * (plain - traced) / plain, "%")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xorszilard" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    # One BLAS thread on every run, set before numpy loads: the size of the
    # thread pool changes both `import numpy` time and job times.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)

    def expire(signum, frame):
        raise Deadline(f"run passed {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        if args.setup_probe:
            return setup_probe(args, work)
        return run(args, work)
    except Deadline as exc:
        print(f"bench: {exc}; no result", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
