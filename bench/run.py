"""qregion benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload inner --seed 1 --seconds 20 --trace 0

Run from anywhere inside a full checkout: the package is imported from the
checkout's ``src/``.  The workload's inputs are generated from ``--seed``;
jobs then run back to back (each starts when the previous one has finished
and been checked) in whole passes over the job list ("cycles") for about
``--seconds``.  Every job's output is checked; a failed check counts the job
as failed and never stops the run.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced cycles with cycles that have spans installed on qregion's layers,
and reports the per-layer metrics (see ``bench/README.md``).  Every metric
is printed as a line with its unit; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: set-ups per run; ``setup_s`` takes the median
SETUP_REPS = 5
#: in the untraced run a job repeats within its cycle until it has taken
#: this long, so cheap jobs get enough samples for a steady median
MIN_JOB_S = 0.02
IMPORT = ("import time; t = time.perf_counter(); import numpy, qregion.cli; "
          "print(time.perf_counter() - t)")
#: BLAS threads: one keeps the eigensolver timings steady on a shared machine
BLAS_THREADS = "1"
WORKLOADS = ("inner", "outer")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run header

def git_rev() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info(numpy) -> tuple[str, str]:
    """BLAS name/version from numpy's build config, and its thread count
    as reported by OpenBLAS when it exposes one."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        name = "unknown"
    threads = f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, str(fn())
    return name, threads


def header(args, numpy) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    blas, threads = blas_info(numpy)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# jobs

def child_import_s() -> float:
    """Import time of the package in a fresh interpreter, measured there."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout)


def execute(job, tracer=None, job_id=None):
    """Run one job, timing only the call into qregion; returns
    (seconds, problem or None)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            if tracer is None:
                result = job.run()
            else:
                result = tracer.run_job(job_id, job.run)
        except Exception:  # a crashed job is a failed job; keep running
            seconds = perf_counter() - start
            return seconds, "raised " + traceback.format_exc(limit=3)
        seconds = perf_counter() - start
    if tracer is not None and job.output and Path(job.output).is_file():
        tracer.counters["cli.report_bytes"] += Path(job.output).stat().st_size
    try:
        problem = job.check(result, out.getvalue())
    except Exception:  # an unreadable output is a failed check
        problem = "check raised " + traceback.format_exc(limit=3)
    if problem and err.getvalue():
        problem += " | stderr: " + err.getvalue().strip().splitlines()[-1]
    return seconds, problem


def run_cycle(jobs, index, tracer=None, min_s=0.0):
    """One pass over ``jobs``: per job (name, [seconds], [problems]).  A job
    runs again until it has taken ``min_s`` in this cycle."""
    cycle = []
    for i, job in enumerate(jobs):
        times, problems = [], []
        while not times or sum(times) < min_s:
            dt, problem = execute(job, tracer, f"{index}.{i}")
            times.append(dt)
            if problem:
                problems.append(problem)
        cycle.append((job.name, times, problems))
    return cycle


def enough(start, cycles, seconds):
    """Stop once one more cycle would end further from ``seconds`` than
    stopping now."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / cycles / 2 >= seconds


def run_cycles(jobs, seconds):
    cycles = []
    start = perf_counter()
    while True:
        cycles.append(run_cycle(jobs, len(cycles), min_s=MIN_JOB_S))
        if enough(start, len(cycles), seconds):
            return cycles


def report(name, value, unit, note=""):
    print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    return {"value": value, "unit": unit}


def quantile_note(times):
    """Median of all samples plus the highest of p90/p99 with at least ten
    samples above it, for the printed line."""
    n = len(times)
    notes = [f"p50 = {statistics.median(times):.6g} s, n = {n}"]
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(times, n=100)[q - 1]
            notes.append(f"p{q} = {cut:.6g} s")
            break
    return ", ".join(notes)


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qregion" / "__init__.py").is_file():
        print(f"error: {SRC / 'qregion'} not found; the benchmark runs from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    t0 = perf_counter()
    import numpy
    import qregion.cli  # noqa: F401  (every module a job touches)
    imports = [perf_counter() - t0]

    import tracer as tracing
    import workloads

    info = header(args, numpy)
    print("# header " + json.dumps(info))
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        if not args.trace:  # setup_s is an end-to-end metric
            imports += [child_import_s() for _ in range(SETUP_REPS - 1)]
        setups = []
        for _ in range(1 if args.trace else SETUP_REPS):
            start = perf_counter()
            wl = workloads.make(args.workload, args.seed, workdir)
            for warmup in wl.warmups:
                _, problem = execute(warmup)
                if problem:
                    print(f"warm-up {warmup.name} failed: {problem}",
                          file=sys.stderr)
            setups.append(perf_counter() - start)
        if args.trace:
            return traced_run(args, wl, info, tracing)
        return plain_run(args, wl, imports, setups, workloads)


def job_medians(cycles):
    """Each job's median time over all its samples in the run.  The
    machine's own speed drifts by tens of percent over seconds; with the
    few samples a long job gets, the median of a run is steadier from run
    to run than the minimum, which depends on the fastest spell caught."""
    return [statistics.median(dt for c in cycles for dt in c[j][1])
            for j in range(len(cycles[0]))]


def samples(cycles):
    return [dt for cycle in cycles for _, times, _ in cycle for dt in times]


def failures(cycles):
    bad = [(name, problem) for cycle in cycles
           for name, _, problems in cycle for problem in problems]
    for name, problem in bad[:10]:
        print(f"FAILED {name}: {problem}", file=sys.stderr)
    return len(bad)


def plain_run(args, wl, imports, setups, workloads) -> int:
    cycles = run_cycles(wl.jobs, args.seconds)
    times = samples(cycles)
    failed = failures(cycles)
    per_job = job_medians(cycles)

    panel = workloads.quality_panel(args.seed)
    panel_ok = all(0.0 <= e.value <= e.baseline + workloads.TOL
                   for e in panel)
    if not panel_ok:
        print("quality panel: an estimate lies outside [0, baseline]",
              file=sys.stderr)

    print(f"# {len(cycles)} cycles of {len(wl.jobs)} jobs")
    print(f"failed_frac = {failed / len(times)!r} 1  "
          f"({failed} of {len(times)} jobs)")
    metrics = {
        "setup_s": report(
            "setup_s", statistics.median(imports) + statistics.median(setups),
            "s", "median import of " + ", ".join(f"{s:.4g}" for s in imports)
            + " s + median input generation and warm-up of "
            + ", ".join(f"{s:.4g}" for s in setups) + " s"),
        "jobs_per_s": report(
            "jobs_per_s", len(per_job) / sum(per_job), "1/s",
            f"all samples: {len(times) / sum(times):.6g}"),
        "job_s_p50": report(
            "job_s_p50", statistics.median(per_job), "s",
            f"{len(per_job)} jobs, each at its median over {len(cycles)} "
            "cycles; "
            f"all samples: {quantile_note(times)}"),
        "peak_rss_mb": report(
            "peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "esq_bound_mean": report(
            "esq_bound_mean",
            statistics.fmean(e.value for e in panel), "bit",
            "fixed panel: " + ", ".join(f"{e.value:.6f}" for e in panel)),
    }
    print(json.dumps({"correct": failed == 0 and panel_ok,
                      "attempted": len(times), "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_run(args, wl, info, tracing) -> int:
    # traced and untraced cycles alternate, starting and ending traced, so
    # drift in the machine's speed hits both sides of trace.overhead_frac
    tracer = tracing.Tracer()
    plain, traced, deltas = [], [], []

    def traced_cycle():
        layers = tracing.install(tracer)
        before = tracer.snapshot()
        try:
            traced.append(run_cycle(wl.jobs, len(traced), tracer))
        finally:
            tracer.uninstall()
        deltas.append(tracing.delta(tracer.snapshot(), before))
        return layers

    start = perf_counter()
    layers = traced_cycle()
    while len(traced) < 2 or not enough(start, len(plain) + len(traced),
                                        args.seconds):
        plain.append(run_cycle(wl.jobs, len(plain)))
        traced_cycle()

    def cycle_time(cycles):
        return sum(job_medians(cycles))

    failed = failures(plain + traced)
    attempted = len(samples(plain + traced))
    values = tracing.layer_metrics(deltas)
    values["trace.overhead_frac"] = (
        cycle_time(traced) / cycle_time(plain) - 1.0, "ratio")
    problems = tracing.self_test(deltas, layers, wl.exercised,
                                 tracer.missing)
    values["selftest.failures"] = (len(problems), "count")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print(f"# {len(plain)} untraced and {len(traced)} traced cycles of "
          f"{len(wl.jobs)} jobs; self-test "
          + ("pass" if not problems else f"{len(problems)} failures"))
    metrics = {name: report(name, value, unit)
               for name, (value, unit) in values.items()}

    trace_path = OUT / f"trace-{args.workload}.jsonl"
    tracer.write(trace_path, info, {name: m["value"]
                                    for name, m in metrics.items()})
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
