#!/usr/bin/env python3
"""Benchmark of the parext package: certified quotients, dilation sequences
and gradient-ascent search, timed end to end and layer by layer.

    python3 benchmarks/run.py --workload {certify,sequence,search} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from ``src/``.
With ``--trace 0`` it times rounds of the workload with the package
unmodified and reports the end-to-end metrics.  With ``--trace 1`` it
alternates untraced rounds with rounds traced by ``tracer.Tracer`` and
reports the per-layer metrics.  Every operation is checked; the last line of
standard output is one JSON object with the verdict and the metrics.
See README.md in this directory for the workloads and the metrics.
"""

import os

# the only parallelism is the library's own ``threads`` argument
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 3  # fresh processes whose set-up time is measured
# a run starts another round only while the last round's duration still
# fits before --seconds is up, and times at least MIN_ROUNDS rounds
MIN_ROUNDS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric: unit.  Counts and times cover the traced set-up plus one
# traced round (the mean over the traced rounds); NOT_SUMMED are worst cases.
PER_LAYER = {
    "extension.apply.calls": "count",
    "extension.apply.self_s": "s",
    "extension.apply.field_mpts": "Mpt",
    "extension.apply.bytes_out": "B",
    "extension.adjoint.calls": "count",
    "extension.adjoint.self_s": "s",
    "extension.operator_init.calls": "count",
    "extension.operator_init.self_s": "s",
    "extension.extend.calls": "count",
    "norms.lq_norm.calls": "count",
    "norms.lq_norm.self_s": "s",
    "norms.quotient_single.self_s": "s",
    "norms.quotient_pair.self_s": "s",
    "norms.cert_rel_width": "ratio",
    "norms.ref_rel_err": "ratio",
    "grids.profile.calls": "count",
    "grids.profile.self_s": "s",
    "sequences.convergence_study.self_s": "s",
    "sequences.weak_limit.calls": "count",
    "sequences.weak_limit.self_s": "s",
    "sequences.limit_gap": "ratio",
    "search.field_evals": "count",
    "search.steps": "count",
    "search.accept_ratio": "ratio",
    "search.maximize.self_s": "s",
    "search.fit_symmetry.calls": "count",
    "search.fit_symmetry.self_s": "s",
    "symmetry.pushthrough.calls": "count",
    "cli.run_experiment.self_s": "s",
    "cli.bytes_written": "B",
    "proc.cpu_s": "s",
    "proc.cpu_util": "ratio",
    "proc.sys_s": "s",
    "mem.peak_traced_mb": "MB",
    "trace.overhead_frac": "ratio",
}
# figures that are a worst case or a per-round state rather than a sum
NOT_SUMMED = {"norms.cert_rel_width", "norms.ref_rel_err", "sequences.limit_gap", "mem.peak_traced_mb"}


def _import_package():
    sys.path.insert(0, SRC)
    try:
        import parext
    except ImportError as ex:
        sys.exit(f"cannot import parext from {SRC}: {ex}")
    if os.path.dirname(os.path.abspath(parext.__file__)) != os.path.join(SRC, "parext"):
        sys.exit(f"parext was imported from {parext.__file__}, not from {SRC}")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("certify", "sequence", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the workload's inputs in a fresh process and report when done
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload's inputs
    are ready: imports, grids, profiles and reference constants."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def _timed_round(wl, tally):
    """(wall seconds, wall seconds per unit of work, os.times() delta) of one round."""
    before = os.times()
    start = time.perf_counter()
    units = wl.round(tally)
    wall = time.perf_counter() - start
    after = os.times()
    return wall, wall / units, (after.user - before.user, after.system - before.system)


def _run_plain(args, wl_cls, tally):
    setup = [_probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    wl = wl_cls(args.seed, ROOT)
    per_unit = []
    deadline = time.monotonic() + args.seconds
    last = 0.0
    while len(per_unit) < MIN_ROUNDS or time.monotonic() + last < deadline:
        last, unit, _ = _timed_round(wl, tally)
        per_unit.append(unit)
    metrics = {
        "wall_s": statistics.median(per_unit),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rounds = f"{len(per_unit)} rounds of {[round(v, 6) for v in per_unit]} s per unit; set-up {[round(v, 4) for v in setup]} s"
    return wl, metrics, rounds


def _figures(tracer, wl=None) -> dict:
    """Per-layer figures of one collection period of the tracer."""
    calls = tracer.calls()
    fig = {f"{name}.calls": n for name, n in calls.items()}
    fig.update({f"{name}.self_s": s for name, s in tracer.self_seconds().items()})
    fig.update(tracer.counters)
    fig["mem.peak_traced_mb"] = tracer.peak_traced_bytes / 2**20
    # in an ascent every field evaluation applies the unshifted operator once
    fig["search.field_evals"] = fig.get("extension.apply.unshifted_calls", 0) if calls.get("search.maximize") else 0
    if wl is not None:
        fig.update(wl.figures())
    return fig


def _run_traced(args, wl_cls, tally):
    from tracer import Tracer

    tracer = Tracer()
    with tracer.active():
        wl = wl_cls(args.seed, ROOT)
    setup_fig = _figures(tracer)
    plain, traced, rounds = [], [], []
    deadline = time.monotonic() + args.seconds
    wall = 0.0
    while not traced or time.monotonic() + wall < deadline:
        if len(plain) <= len(traced):
            wall, per_unit, _ = _timed_round(wl, tally)
            plain.append(per_unit)
            continue
        tracer.reset()
        with tracer.active():
            wall, per_unit, cpu = _timed_round(wl, tally)
        fig = _figures(tracer, wl)
        problems = wl.trace_check(fig)
        if problems:
            sys.exit("tracer self-check failed: span counts differ from those the inputs imply\n  " + "\n  ".join(problems))
        fig["proc.cpu_s"], fig["proc.sys_s"], fig["round_wall_s"] = sum(cpu), cpu[1], wall
        traced.append(per_unit)
        rounds.append(fig)

    out = {}
    for name in PER_LAYER:
        vals = [r.get(name, 0) for r in rounds]
        if name in NOT_SUMMED:
            out[name] = max(vals + [setup_fig.get(name, 0)])
        else:
            out[name] = setup_fig.get(name, 0) + statistics.fmean(vals)
    out["search.accept_ratio"] = out["search.steps"] / out["search.field_evals"] if out["search.field_evals"] else 0.0
    out["proc.cpu_util"] = statistics.fmean(r["proc.cpu_s"] for r in rounds) / statistics.fmean(
        r["round_wall_s"] for r in rounds
    )
    out["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return wl, out, f"{len(plain)} untraced and {len(traced)} traced rounds"


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    from workloads import WORKLOADS, Tally

    wl_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        wl_cls(args.seed, ROOT)
        print(repr(time.monotonic()))
        return 0

    tally = Tally()
    run = _run_traced if args.trace else _run_plain
    wl, values, rounds = run(args, wl_cls, tally)
    units = PER_LAYER if args.trace else END_TO_END

    for msg in tally.messages:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {wl.describe}")
    print(rounds)
    print(f"environment {json.dumps(_environment(), sort_keys=True)}")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]!r} {unit}")
    print(f"  {'fail_frac':36s} {tally.failed / max(1, tally.attempted)!r} ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
