"""Benchmark for the twostroke CLI: seeded sweeps, the eigh oracle and pool, validate.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tau_engine --seed 1 --seconds 30 --trace 0

Each job is one in-process ``twostroke.cli.main`` call on a config file made
from the seed (workloads.py), run closed loop by this one client process until
the jobs have taken ``--seconds`` of wall time.  Every output is checked
outside the timed region (checks.py).  Durations are reported in reference
seconds (hostclock.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics from interleaved passes over the same jobs: untraced at the
workload's pool width, untraced at the other width (the pool baseline), and
traced at one worker with spans around the functions in TRACED (spans.py).
The last line of stdout is one JSON object; the exit code is 0 only when
every output passed its checks.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy

import workloads
from checks import check_sweep_csv, check_validate_output
from hostclock import (IMPORT_KERNEL, import_reference_seconds, kernel_seconds,
                       reference_seconds)
from spans import Tracer, calls_per_job, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9

# Functions with a per-layer metric; their self time is what the trace accounts for.
SELF_US_PER_ROW = (
    "linalg.kron", "linalg.is_density", "linalg.is_unitary", "linalg.expm_unitary",
    "model.initial_state", "model.free_hamiltonian", "model.interaction_hamiltonian",
    "propagators.propagator", "propagators.evolve",
    "thermo.energetics_from_states", "thermo.energetics_closed", "thermo.energetics_cf",
    "squeezing.xi_general", "squeezing.xi_closed_form", "squeezing.l1_coherence",
    "sweep.evaluate_point", "sweep.write_csv",
)
CALLS_PER_ROW = ("linalg.kron", "linalg.is_density", "linalg.expm_unitary")
VALIDATION_CHECKS = (
    "check_propagator_equivalence", "check_route_equivalence", "check_second_law",
    "check_first_law", "check_regime_bands", "check_squeezing_sanity",
    "check_carnot_bound", "check_cf_health",
)
# Every traced function.  Time outside all of them but cli.main is "unaccounted".
TRACED = SELF_US_PER_ROW + (
    "sweep.rows_to_csv", "cli.main", "cli.load_config", "validation.run_validation",
) + tuple(f"validation.{name}" for name in VALIDATION_CHECKS)


class SetupError(Exception):
    pass


def load_package():
    """Import twostroke from this checkout's src/, never from anywhere else."""
    if not (SRC / "twostroke" / "cli.py").is_file():
        raise SetupError(f"no twostroke sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import twostroke
    import twostroke.cli  # noqa: F401 - binds twostroke.cli

    if Path(twostroke.__file__).resolve().parent != (SRC / "twostroke").resolve():
        raise SetupError(f"twostroke imported from {twostroke.__file__}, not {SRC}")
    return twostroke


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median reference seconds of `import twostroke.cli` in a fresh interpreter.

    One extra import first writes the bytecode cache, as any earlier CLI call
    would.  Each child times the import kernel (hostclock.py) just before.
    """
    code = "\n".join([
        "import time",
        "t0 = time.perf_counter()",
        "import " + ", ".join(IMPORT_KERNEL),
        "t1 = time.perf_counter()",
        "import twostroke.cli",
        "print(repr(t1 - t0), repr(time.perf_counter() - t1))",
    ])
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        kernel, measured = map(float, done.stdout.split())
        times.append(import_reference_seconds(measured, kernel))
    return statistics.median(times[1:])


@dataclass
class Pass:
    """Jobs run at one pool width, traced or not.

    Per job: measured seconds, reference seconds (hostclock.py), rows, output
    digest and problems found.
    """

    workers: int
    tracer: Optional[Tracer] = None
    measured: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        """Reference seconds of all jobs."""
        return sum(self.seconds)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


class Bench:
    """Runs and checks the jobs of one workload and seed in a scratch directory."""

    def __init__(self, package, workload: str, seed: int, workdir: Path):
        self.package = package
        self.workload = workload
        self.seed = seed
        self.workdir = workdir

    def run_job(self, job, workers: int, tracer: Optional[Tracer] = None):
        """One cli.main call; returns (seconds, exit code, CSV or stdout text)."""
        config = self.workdir / "job.ini"
        out = self.workdir / "job.csv"
        if job.config is not None:
            config.write_text(job.config, encoding="utf-8")
        argv = job.argv(str(config), str(out), workers)
        sink = io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            if tracer is not None:
                stack.enter_context(tracer.installed())
            main = self.package.cli.main
            t0 = time.perf_counter()
            try:
                rc = main(argv) if tracer is None else tracer.run_job(job.index, main, argv)
            except Exception as exc:  # noqa: BLE001 - a traceback is a failed job
                rc = f"raised {exc!r}"
            seconds = time.perf_counter() - t0
        if job.config is None:
            return seconds, rc, sink.getvalue()
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        out.unlink(missing_ok=True)
        return seconds, rc, text

    def check(self, job, rc, text) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        if job.config is None:
            return check_validate_output(text, workloads.VALIDATE_CHECKS)
        rng = random.Random(f"check/{self.seed}/{job.index}")
        return check_sweep_csv(text, job.points, job.mode, self.package, rng)

    def run(self, passes, budget: float = None, count: int = None) -> None:
        """Run jobs 0, 1, ... once in each pass in turn, until `count` jobs ran or
        all passes' jobs took `budget` measured seconds at the end of a round.

        Interleaving job by job lets every pass see the same machine conditions,
        so differences between passes are not drift over the run.
        """
        rounds = workloads.ROUND[self.workload]
        index = 0
        while count is None or index < count:
            spent = sum(sum(run.measured) for run in passes)
            if budget is not None and index % rounds == 0 and spent >= budget:
                break
            job = workloads.make_job(self.workload, self.seed, index)
            for run in passes:
                before = kernel_seconds()
                measured, rc, text = self.run_job(job, run.workers, run.tracer)
                run.measured.append(measured)
                run.seconds.append(reference_seconds(measured, before, kernel_seconds()))
                run.rows.append(job.points)
                run.digests.append(hashlib.sha256(text.encode()).hexdigest())
                run.problems.append([f"job {index}: {p}" for p in self.check(job, rc, text)])
            index += 1

    def warm_up(self) -> None:
        """Let lazy numpy and module set-up finish before anything is timed."""
        self.run_job(workloads.make_job(workloads.TAU_ENGINE, self.seed, 0), 1)


def same_bytes(reference: Pass, other: Pass, what: str) -> None:
    """Fail each job of `other` whose output bytes differ from the reference's."""
    for i, (x, y) in enumerate(zip(reference.digests, other.digests)):
        if x != y:
            other.problems[i].append(f"job {i}: CSV bytes differ {what}")


def tally(passes) -> tuple:
    """(attempted, failed, problems) over every job of every pass."""
    attempted = sum(len(run.seconds) for run in passes)
    failed = sum(run.failed for run in passes)
    return attempted, failed, [p for run in passes for job in run.problems for p in job]


def other_width(workers: int) -> int:
    return 2 if workers == 1 else 1


def peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(bench: Bench, seconds: float):
    """Returns (metrics, samples, passes, notes); notes are reported, not gated."""
    workers = workloads.WORKERS[bench.workload]
    main = Pass(workers)
    bench.run([main], budget=seconds)
    passes = [main]
    if bench.workload != workloads.VALIDATE:
        # Job 0 again at the same width and at the other width: same bytes.
        again = [Pass(workers), Pass(other_width(workers))]
        bench.run(again, count=1)
        same_bytes(main, again[0], "on a repeat")
        same_bytes(main, again[1], "across widths")
        passes += again
    rss = peak_rss_mib(resource.RUSAGE_SELF)
    setup = measure_setup()
    times = main.seconds
    metrics = {
        "setup_s": (setup, "s"),
        "job_s_p50": (statistics.median(times), "s"),
        "rows_per_s": (statistics.median(r / t for r, t in zip(main.rows, times)), "1/s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    samples = {"setup_s": SETUP_REPEATS, "job_s_p50": len(times), "rows_per_s": len(times),
               "peak_rss_mib": 1}
    # Too few validate jobs fit in a run for a steady p90, so it is not a gated metric.
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    notes = {"job_s_p90": p90,
             "measured_job_s_p50": statistics.median(main.measured)}
    return metrics, samples, passes, notes


def per_layer(bench: Bench, seconds: float):
    """Returns (metrics, samples, passes, notes); notes are reported, not gated."""
    workers = workloads.WORKERS[bench.workload]
    tracer = Tracer(bench.package, TRACED)
    main = Pass(workers)
    traced = Pass(1, tracer)
    if bench.workload == workloads.VALIDATE:
        passes = [main, traced]
        single = main
    else:
        other = Pass(other_width(workers))
        passes = [main, other, traced]
        single, double = (main, other) if workers == 1 else (other, main)
    bench.run(passes, budget=seconds)
    jobs = len(main.seconds)
    pool = {"sweep.pool.efficiency": (0.0, "ratio"),
            "sweep.pool.overhead_ms_per_job": (0.0, "ms")}
    if bench.workload != workloads.VALIDATE:
        same_bytes(main, other, "across widths")
        same_bytes(single, traced, "under tracing")
        pool = {
            "sweep.pool.efficiency": (single.wall / (2.0 * double.wall), "ratio"),
            "sweep.pool.overhead_ms_per_job": (
                1e3 * (double.wall - single.wall / 2.0) / jobs, "ms"),
        }
    child_rss = peak_rss_mib(resource.RUSAGE_CHILDREN)
    tracer.save(OUT / f"spans-{bench.workload}.npz")

    spans = tracer.arrays()
    stats = summarize(tracer.names, **spans)
    # Span times are measured seconds; the pass's own factor makes them reference seconds.
    scale = traced.wall / sum(traced.measured)

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return scale * stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return scale * stats.get(name, (0, 0.0, 0.0))[2]

    rows = sum(traced.rows)
    metrics = {}
    for name in CALLS_PER_ROW:
        metrics[f"{name}.calls_per_row"] = (calls(name) / rows, "count")
    for name in SELF_US_PER_ROW:
        metrics[f"{name}.self_us_per_row"] = (1e6 * self_s(name) / rows, "us")
    metrics["sweep.rows_to_csv.us_per_row"] = (1e6 * total_s("sweep.rows_to_csv") / rows, "us")
    metrics.update(pool)
    metrics["sweep.pool.child_peak_rss_mib"] = (child_rss, "MiB")
    metrics["cli.main.self_ms_per_job"] = (1e3 * self_s("cli.main") / jobs, "ms")
    metrics["cli.load_config.ms_per_job"] = (1e3 * total_s("cli.load_config") / jobs, "ms")
    for name in VALIDATION_CHECKS:
        metrics[f"validation.{name}.s"] = (total_s(f"validation.{name}") / jobs, "s")
    # The quick-determinism block: run_validation's time outside its eight checks.
    in_checks = sum(total_s(f"validation.{name}") for name in VALIDATION_CHECKS)
    metrics["validation.run_validation.self_s"] = (
        (total_s("validation.run_validation") - in_checks) / jobs, "s")
    unaccounted = self_s("job") + self_s("cli.main")
    metrics["trace.unaccounted_share"] = (unaccounted / traced.wall, "share")
    metrics["trace.overhead_ms_per_job"] = (1e3 * (traced.wall - single.wall) / jobs, "ms")

    samples = {name: rows if name.endswith("_per_row") else jobs for name in metrics}
    modes = [workloads.make_job(bench.workload, bench.seed, i).mode or bench.workload
             for i in range(jobs)]
    per_job = {name: calls_per_job(tracer.names, spans["name_id"], spans["job"], name, jobs)
               for name in CALLS_PER_ROW}
    by_mode = {}
    for mode in dict.fromkeys(modes):
        picked = [i for i, m in enumerate(modes) if m == mode]
        mode_rows = sum(traced.rows[i] for i in picked)
        by_mode[mode] = {name: int(counts[picked].sum()) / mode_rows
                         for name, counts in per_job.items()}
    return metrics, samples, passes, {"calls_per_row_by_mode": by_mode}


def src_stats() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_loc": lines, "src_sha256": digest.hexdigest()}


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        package = load_package()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bench = Bench(package, args.workload, args.seed, Path(tmp))
        bench.warm_up()
        measure = per_layer if args.trace else end_to_end
        metrics, samples, passes, notes = measure(bench, args.seconds)
    attempted, failed, problems = tally(passes)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = [m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]]
    if list(metrics) != expected:
        print(f"error: metrics {list(metrics)} differ from BENCHMARK.json {expected}",
              file=sys.stderr)
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        **src_stats(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems[:50],
        "jobs": [{"workers": run.workers, "traced": run.tracer is not None,
                  "rows": run.rows, "measured_s": run.measured, "reference_s": run.seconds}
                 for run in passes],
        "metrics": {name: {"value": value, "unit": unit, "samples": samples[name]}
                    for name, (value, unit) in metrics.items()},
        "notes": notes,
    }
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs, "
          f"{failed} failed (failed_frac {failed / attempted:.4g}); "
          f"python {record['python']}, numpy {record['numpy']}, nproc {record['nproc']}, "
          f"src_loc {record['src_loc']}, commit {record['commit']}")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} (n={samples[name]})")
    for name, value in notes.items():
        print(f"  note {name}: {json.dumps(value)}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
