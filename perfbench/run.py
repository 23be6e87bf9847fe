"""meladapt benchmark: one workload per run, end-to-end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-transcribed --seed 1 --seconds 38 --trace 0

The workload's inputs are generated from --seed. Set-up runs several times
and reports its median (it also warms the code the jobs run); then the
workload's fixed job repeats, one at a time, for as many whole jobs as fit
into --seconds (at least three), and every repetition's output is checked
against the first. `--trace 0` prints the end-to-end
metrics. `--trace 1` sets up once and runs four jobs, alternating between
step boundaries only and every layer wrapped, and prints the per-layer
metrics. The last line of standard output is one JSON object {"correct",
"attempted", "failed", "metrics"}; the exit code is 0 only when every
operation and check passed. A JSON record of every run, machine facts
included, and the spans of a traced run are written under .perfbench_out/.
See perfbench/README.md.
"""

import os

# one BLAS thread, set before numpy loads: OpenBLAS's default of one thread
# per core doubled CPU time on these 32-wide matmuls without lowering wall
# time, and leaves results at the mercy of what else runs on the host
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse      # noqa: E402
import gc            # noqa: E402
import json          # noqa: E402
import platform      # noqa: E402
import resource      # noqa: E402
import shutil        # noqa: E402
import statistics    # noqa: E402
import sys           # noqa: E402
import time          # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 5, 2.0, 20
MIN_JOBS = 3
# share of a traced step that may fall outside its forward, backward and
# Adam spans: the stage loop's own bookkeeping plus the spans' cost
STEP_GAP_TOLERANCE = 0.05


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_meladapt():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "meladapt" / "__init__.py").is_file():
        raise SystemExit(f"error: meladapt sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import meladapt
    if Path(meladapt.__file__).resolve().parent != (SRC / "meladapt").resolve():
        raise SystemExit(f"error: imported meladapt from {meladapt.__file__}, "
                         f"not from {SRC}")


# -- machine facts ---------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(handle, fn):
                getter = getattr(handle, fn)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_facts():
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_set": int(BLAS_THREADS),
        "blas_threads_reported": _blas_threads(),
    }


# -- statistics ------------------------------------------------------------


def p95(values):
    """95th percentile, linear between order statistics."""
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


# -- one run ---------------------------------------------------------------


class Tally:
    """Operations and checks attempted and failed in this run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, name, passed):
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.failures.append(name)

    def operations(self, n, failed=False, why=""):
        self.attempted += n
        if failed:
            self.failed += n
            self.failures.append(why)


def timed_setup(workload, seed, directory, repeats=None):
    """Run set-up repeatedly; returns (state of the last one, seconds each)."""
    times = []
    while True:
        # the previous state is garbage before the next set-up starts, so
        # peak memory holds one state, as in a user's process
        st = None
        gc.collect()
        t0 = time.perf_counter()
        st = workload.setup(seed, directory)
        times.append(time.perf_counter() - t0)
        if repeats is not None:
            if len(times) >= repeats:
                break
        elif (len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS) \
                or len(times) >= SETUP_MAX_REPEATS:
            break
    return st, times


def run_job(workload, st, tracer, job, tally, reference):
    """One job under `tracer`, then its checks: each stage against itself and
    against `reference` (which the first successful job fills). Returns the
    job's StageResults, or None when the job raised a meladapt error."""
    from meladapt.errors import MelAdaptError
    from workloads import verify
    tracer.begin_job(job)
    try:
        stages = workload.job(st, tracer)
    except MelAdaptError as exc:
        print(f"job {job} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        tally.operations(1, failed=True, why=f"job {job}: {type(exc).__name__}")
        return None
    tracer.begin_job(None)  # the checks below are not part of the job
    for stage in stages:
        tally.operations(stage.units)
        checks, digest = verify(st, stage)
        for name, passed in checks:
            tally.check(name, passed)
        if stage.name not in reference:
            reference[stage.name] = (stage.trajectory, digest)
        else:
            tally.check("trajectory_repeats", stage.trajectory == reference[stage.name][0])
            tally.check("output_bytes_repeat", digest == reference[stage.name][1])
    return stages


def setup_checks(st, tally):
    from workloads import roundtrip_ok
    for path in (st.files or {}).values():
        tally.check("setup_save_load_save_identical",
                    roundtrip_ok(path, st.dir / "roundtrip.ckpt"))


def median_of_repeats(tracer, stage_span, jobs, tally):
    """Each unit's median repetition across jobs, in ms. Every job repeats
    the same steps on the same inputs. Other tenants of the host slow the
    CPU in phases of seconds and leave rare fast windows: the median over a
    run's repetitions moves little between runs, while the fastest one
    depends on whether such a window fell into the run."""
    stage, span = stage_span
    per_job = [tracer.durations(span, stage, job) for job in jobs]
    tally.check("units_repeat", len({len(d) for d in per_job}) == 1)
    return [median(reps) * 1e3 for reps in zip(*per_job)]


def run_end_to_end(workload, args, workdir, tally):
    from spans import Tracer
    st, setup_times = timed_setup(workload, args.seed, workdir)
    setup_checks(st, tally)
    tracer = Tracer(full=False)
    reference, results = {}, []
    deadline = time.perf_counter() + args.seconds
    longest = 0.0  # a job with its checks; no job starts that would overrun
    with tracer:
        while len(results) < MIN_JOBS or time.perf_counter() + longest < deadline:
            gc.collect()  # every job starts from a collected heap, untimed
            t0 = time.perf_counter()
            stages = run_job(workload, st, tracer, len(results) + 1, tally, reference)
            if stages is None:
                break
            results.append(stages)
            longest = max(longest, time.perf_counter() - t0)
    if not results:
        return None
    jobs = range(1, len(results) + 1)
    primary = median_of_repeats(tracer, workload.primary, jobs, tally)
    secondary = median_of_repeats(tracer, workload.secondary, jobs, tally)
    stage = workload.primary[0]
    job_s = median(tracer.durations("stage", stage, job)[0] for job in jobs)
    first = next(r for r in results[0] if r.name == stage)
    n = f"{len(primary)}x{len(results)}"
    metrics = {
        "setup_s": (median(setup_times), "s", len(setup_times)),
        "step_ms": (median(primary), "ms", n),
        "step_ms_p95": (p95(primary), "ms", n),
        "step2_ms": (median(secondary), "ms", f"{len(secondary)}x{len(results)}"),
        "job_s": (job_s, "s", len(results)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1),
        "mean_loss": (first.mean_loss, "loss", first.units),
    }
    extra = {"units_per_s": (first.units / job_s, "1/s", first.units)}
    return metrics, extra


def run_traced(workload, args, workdir, tally):
    """Set-up with every layer wrapped, then jobs alternating between only
    step boundaries wrapped (the overhead baseline) and every layer wrapped.
    Returns per-layer metrics from the fully traced jobs."""
    from spans import Tracer, job_profiles, layer_metrics
    full, lite = Tracer(full=True), Tracer(full=False)
    with full:
        full.begin_job(0)
        st, _ = timed_setup(workload, args.seed, workdir, repeats=1)
    setup_checks(st, tally)
    reference = {}
    plain_jobs, traced_jobs = (1, 3), (2, 4)
    for job in sorted(plain_jobs + traced_jobs):
        tracer = full if job in traced_jobs else lite
        with tracer:
            if run_job(workload, st, tracer, job, tally, reference) is None:
                return None
    plain = median(median_of_repeats(lite, workload.primary, plain_jobs, tally))
    traced = median(median_of_repeats(full, workload.primary, traced_jobs, tally))
    overhead_pct = 100.0 * (traced / plain - 1.0)
    profiles = job_profiles(full)
    first, second = traced_jobs
    stages = sorted({name for job, name in profiles if job == first and name})
    for name in stages:
        tally.check("counts_repeat", profiles[(first, name)][1] == profiles[(second, name)][1])
        ms = profiles[(first, name)][0]
        if ms["step_ms"]:
            # forward + backward + Adam must cover the step, up to the loop's
            # bookkeeping and the spans' own cost
            tally.check("step_decomposes",
                        ms["pipeline.step_self_ms"] <= STEP_GAP_TOLERANCE * ms["step_ms"])
    OUT.mkdir(exist_ok=True)
    full.write_csv(OUT / f"trace-{workload.name}.csv")
    metrics = {name: (value, unit, len(traced_jobs)) for name, (value, unit)
               in layer_metrics(profiles, traced_jobs, overhead_pct).items()}
    counts = {name: dict(sorted(profiles[(first, name)][1].items())) for name in stages}
    return metrics, {"counts_per_job": counts}


def report(workload, args, facts, metrics, extra, tally):
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, (value, unit, n) in metrics.items():
        alias = workload.aliases.get(name, "")
        print(f"  {name:<40} {value:>14.6g} {unit:<6} n={n!s:<7} {alias}")
    if args.trace == 0 and metrics:
        value, _, n = extra["units_per_s"]
        print(f"  {'units_per_s':<40} {value:>14.6g} {'1/s':<6} n={n!s:<7} "
              f"{workload.aliases.get('units_per_s', '')}")
    fraction = tally.failed / max(tally.attempted, 1)
    print(f"  {'failed_fraction':<40} {fraction:>14.6g} {'ratio':<6} n={tally.attempted}")
    for why in tally.failures:
        print(f"  FAILED {why}")


def main(argv=None):
    args = parse_args(argv)
    import_meladapt()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}, "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    facts = machine_facts()
    facts["loadavg_start"] = list(os.getloadavg())
    tally = Tally()
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_end_to_end
        outcome = run(workload, args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    facts["loadavg_end"] = list(os.getloadavg())
    metrics, extra = outcome if outcome is not None else ({}, {})
    correct = tally.failed == 0 and outcome is not None
    report(workload, args, facts, metrics, extra, tally)

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "correct": correct,
              "attempted": tally.attempted, "failed": tally.failed,
              "failures": tally.failures,
              "metrics": {k: {"value": v, "unit": u, "n": n}
                          for k, (v, u, n) in metrics.items()},
              "extra": extra}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
