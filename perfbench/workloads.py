"""Seeded workload generator: the benchmark's inputs, one config file per job.

The program only ever sees the generated ``key = value`` config files and the
CLI arguments below; every number in them comes from ``--seed``.  Job ``i`` of
a workload depends only on (workload, seed, i), so two passes over the first
N jobs of a run see identical inputs whatever happened in between.

Why each workload exists, and what it draws from:

``tau_engine``
    tau sweeps over [0, 60] at engine-like operating points (presets
    fig3a-fig5): eps_b/eps_a 0.5-0.7, beta_b 1.5-3, kappa 0.05-0.2,
    omega 0.25-1, ``interaction`` mode, routes ``trace,closed,cf``, one worker.
    Series lengths rotate through 200, 450, 700, 950 and 1200 points, so both
    per-job and per-row costs show and every run has the same length mix.
    This is where the per-row Python cost of all three energetics routes
    lives; it never reaches the eigh oracle or the process pool.

``ratio_oracle_pool``
    400-point gap-ratio sweeps over eps_b/eps_a in [0.05, 2.0] (presets
    fig2, fig9, fig10): kappa 0.1-1, omega/kappa 1-10, tau 0.1-1, route
    ``trace``, two workers.  Modes rotate over ``full``, ``oracle-full`` and
    ``oracle-interaction``.  It drives the eigh oracle, the Hamiltonian
    construction and the process pool, and bypasses the closed and cf routes.

``validate``
    ``twostroke validate`` (quick suite).  Its inputs are fixed by the
    program; the seed is unused.  It reaches the same layers point by point
    through the scalar public API.

Two known defects are left out of the inputs on purpose; each is a
correctness item with its own fix, not something a timing benchmark should
trip over:

* closed and cf routes under the ``full`` modes, whose residuals measure the
  mode/route mismatch rather than an error budget (ROADMAP 4a);
* the fixed characteristic-function step at large gaps (ROADMAP 4b); every
  gap here is at most 2.
"""

import random
from dataclasses import dataclass
from typing import Optional

TAU_ENGINE = "tau_engine"
RATIO_ORACLE_POOL = "ratio_oracle_pool"
VALIDATE = "validate"
WORKLOADS = (TAU_ENGINE, RATIO_ORACLE_POOL, VALIDATE)

TAU_LENGTHS = (200, 450, 700, 950, 1200)
RATIO_POINTS = 400
RATIO_MODES = ("full", "oracle-full", "oracle-interaction")

# Number of result rows a validate job reports: one line per check.
VALIDATE_CHECKS = 9

# Workers each workload's jobs run with; the other width is the pool baseline.
WORKERS = {TAU_ENGINE: 1, RATIO_ORACLE_POOL: 2, VALIDATE: 1}

# Jobs in one full turn of a workload's rotation (series lengths or modes).
# Runs stop only after whole rounds, so every run has the same job mix and
# per-row call counts repeat exactly.
ROUND = {TAU_ENGINE: len(TAU_LENGTHS), RATIO_ORACLE_POOL: len(RATIO_MODES), VALIDATE: 1}


@dataclass(frozen=True)
class Job:
    """One CLI invocation: a config text (None for validate) plus CLI workers."""

    workload: str
    index: int
    config: Optional[str]
    mode: Optional[str]
    points: int

    def argv(self, config_path: str, out_path: str, workers: int) -> list[str]:
        if self.config is None:
            return ["validate"]
        return ["sweep", "--config", config_path, "--out", out_path,
                "--workers", str(workers)]


def _config_text(cycle: dict, sweep: dict) -> str:
    lines = [f"{key} = {value!r}" for key, value in cycle.items()]
    lines.append("")
    lines.append("[sweep]")
    lines += [f"{key} = {value}" for key, value in sweep.items()]
    return "\n".join(lines) + "\n"


def make_job(workload: str, seed: int, index: int) -> Job:
    """The index-th job of a workload; a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == TAU_ENGINE:
        points = TAU_LENGTHS[index % len(TAU_LENGTHS)]
        cycle = {
            "eps_a": 1.0,
            "eps_b": rng.uniform(0.5, 0.7),
            "beta_a": 1.0,
            "beta_b": rng.uniform(1.5, 3.0),
            "kappa": rng.uniform(0.05, 0.2),
            "omega": rng.uniform(0.25, 1.0),
            "tau": 1.0,
        }
        sweep = {"variable": "tau", "start": 0.0, "stop": 60.0, "points": points,
                 "mode": "interaction", "routes": "trace,closed,cf"}
    elif workload == RATIO_ORACLE_POOL:
        points = RATIO_POINTS
        kappa = rng.uniform(0.1, 1.0)
        cycle = {
            "eps_a": 1.0,
            "eps_b": 1.0,
            "beta_a": 1.0,
            "beta_b": 2.0,
            "kappa": kappa,
            "omega": kappa * rng.uniform(1.0, 10.0),
            "tau": rng.uniform(0.1, 1.0),
        }
        sweep = {"variable": "eps_ratio", "start": 0.05, "stop": 2.0, "points": points,
                 "mode": RATIO_MODES[index % len(RATIO_MODES)], "routes": "trace"}
    elif workload == VALIDATE:
        return Job(workload, index, None, None, VALIDATE_CHECKS)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return Job(workload, index, _config_text(cycle, sweep), sweep["mode"], points)
