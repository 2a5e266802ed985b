"""Tests of the benchmark itself: generator, span arithmetic, tracer, checkers.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import configparser
import random

import pytest

import checks
import run
import workloads
from spans import JOB, Tracer, self_times, summarize


def parsed(job):
    parser = configparser.ConfigParser()
    parser.read_string("[cycle]\n" + job.config)
    return parser


# --- generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_workload_seed_and_index(workload):
    first = [workloads.make_job(workload, 7, i) for i in range(12)]
    again = [workloads.make_job(workload, 7, i) for i in reversed(range(12))][::-1]
    assert first == again


@pytest.mark.parametrize("workload", [workloads.TAU_ENGINE, workloads.RATIO_ORACLE_POOL])
def test_generator_inputs_change_with_the_seed(workload):
    one = [workloads.make_job(workload, 1, i).config for i in range(6)]
    two = [workloads.make_job(workload, 2, i).config for i in range(6)]
    assert all(a != b for a, b in zip(one, two))


def test_tau_engine_draws_from_the_documented_ranges():
    for i in range(50):
        job = workloads.make_job(workloads.TAU_ENGINE, 3, i)
        cfg = parsed(job)
        cycle, sweep = cfg["cycle"], cfg["sweep"]
        assert 0.5 <= cycle.getfloat("eps_b") / cycle.getfloat("eps_a") <= 0.7
        assert 1.5 <= cycle.getfloat("beta_b") <= 3.0
        assert 0.05 <= cycle.getfloat("kappa") <= 0.2
        assert 0.25 <= cycle.getfloat("omega") <= 1.0
        assert (sweep["variable"], sweep.getfloat("start"), sweep.getfloat("stop")) == ("tau", 0.0, 60.0)
        assert sweep.getint("points") == workloads.TAU_LENGTHS[i % 5] == job.points
        assert (sweep["mode"], sweep["routes"]) == ("interaction", "trace,closed,cf")


def test_ratio_oracle_pool_draws_from_the_documented_ranges():
    for i in range(50):
        job = workloads.make_job(workloads.RATIO_ORACLE_POOL, 3, i)
        cfg = parsed(job)
        cycle, sweep = cfg["cycle"], cfg["sweep"]
        kappa = cycle.getfloat("kappa")
        assert 0.1 <= kappa <= 1.0
        assert 1.0 <= cycle.getfloat("omega") / kappa <= 10.0
        assert 0.1 <= cycle.getfloat("tau") <= 1.0
        assert (sweep["variable"], sweep.getfloat("start"), sweep.getfloat("stop")) == ("eps_ratio", 0.05, 2.0)
        assert sweep.getint("points") == workloads.RATIO_POINTS
        assert sweep["mode"] == workloads.RATIO_MODES[i % 3] == job.mode
        assert sweep["routes"] == "trace"


def test_generated_configs_load_through_the_cli_parser(package, tmp_path):
    for workload in (workloads.TAU_ENGINE, workloads.RATIO_ORACLE_POOL):
        for i in range(6):
            path = tmp_path / "job.ini"
            path.write_text(workloads.make_job(workload, 11, i).config)
            spec, out = package.cli.load_config(str(path))
            assert out is None and spec.points == workloads.make_job(workload, 11, i).points


# --- span arithmetic ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > leaf [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert list(self_times(start, end, parent)) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_summarize_counts_and_ignores_spans_outside_jobs():
    names = [JOB, "f", "g"]
    name_id = [0, 1, 2, 1, 1]
    start = [0.0, 1.0, 2.0, 5.0, 20.0]
    end = [10.0, 4.0, 3.0, 9.0, 21.0]
    parent = [-1, 0, 1, 0, -1]
    job = [0, 0, 0, 0, -1]  # the last span ran outside any job
    stats = summarize(names, name_id, start, end, parent, job)
    assert stats[JOB] == (1, pytest.approx(10.0), pytest.approx(3.0))
    assert stats["f"] == (2, pytest.approx(7.0), pytest.approx(6.0))
    assert stats["g"] == (1, pytest.approx(1.0), pytest.approx(1.0))


def test_tracer_wraps_every_binding_and_restores_them(package):
    original = package.linalg.is_density
    tracer = Tracer(package, ["linalg.is_density", "linalg.kron", "no_such.layer"])
    spec = package.sweep.SweepSpec(
        base=package.model.CycleParams(1.0, 0.6, 1.0, 2.0, 0.1, 0.5, 1.0),
        variable="tau", start=0.0, stop=6.0, points=4, routes=("trace",))
    with tracer.installed():
        assert package.squeezing.is_density is package.propagators.is_density
        assert package.squeezing.is_density is not original
        tracer.run_job(0, package.sweep.run_sweep, spec)
    assert package.linalg.is_density is original
    assert package.squeezing.is_density is original
    stats = summarize(tracer.names, **tracer.arrays())
    # three density checks and five Kronecker products per interaction-mode row
    assert stats["linalg.is_density"][0] == 3 * 4
    assert stats["linalg.kron"][0] == 5 * 4


# --- output checks --------------------------------------------------------------------


def sweep_csv(package, tmp_path, job):
    config, out = tmp_path / "job.ini", tmp_path / "job.csv"
    config.write_text(job.config)
    assert package.cli.main(job.argv(str(config), str(out), 1)) == 0
    return out.read_text()


def corrupt(text, column, change):
    lines = text.splitlines(keepends=True)
    header = lines[0].strip().split(",")
    col = header.index(column)
    for i in range(1, len(lines)):
        cells = lines[i].rstrip("\n").split(",")
        cells[col] = change(cells[col])
        lines[i] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.fixture(scope="module")
def tau_csv(package, tmp_path_factory):
    job = workloads.make_job(workloads.TAU_ENGINE, 5, 0)
    return job, sweep_csv(package, tmp_path_factory.mktemp("tau"), job)


def problems(package, job, text):
    return checks.check_sweep_csv(text, job.points, job.mode, package, random.Random(0))


def test_checker_accepts_the_program_output(package, tau_csv):
    job, text = tau_csv
    assert problems(package, job, text) == []


@pytest.mark.parametrize(
    "column, change",
    [
        ("W", lambda v: repr(float(v) + 1e-6)),          # breaks the first law
        ("resid_closed", lambda v: "1e-6"),               # over the closed budget
        ("resid_cf", lambda v: "0.5"),                    # over the cf budget
        ("W", lambda v: ""),                              # a failed row
    ],
)
def test_checker_rejects_a_corrupted_csv(package, tau_csv, column, change):
    job, text = tau_csv
    assert problems(package, job, corrupt(text, column, change))


def test_checker_rejects_values_that_disagree_with_the_oracle(package, tau_csv):
    job, text = tau_csv
    # Shift W and Q_C together, so the first law still holds.
    shifted = corrupt(corrupt(text, "W", lambda v: repr(float(v) + 1e-6)),
                      "Q_C", lambda v: repr(float(v) - 1e-6))
    found = problems(package, job, shifted)
    assert found and all("oracle" in p for p in found)


def test_checker_rejects_missing_rows(package, tau_csv):
    job, text = tau_csv
    assert problems(package, job, "".join(text.splitlines(keepends=True)[:-1]))


def test_validate_checker_wants_every_check_passed():
    ok = "first law  PASS  [0.1s]  fine\n9/9 checks passed\n"
    assert checks.check_validate_output(ok, 9) == []
    assert checks.check_validate_output(ok.replace("9/9", "8/9"), 9)
    assert checks.check_validate_output(ok.replace("9/9", "8/8"), 9)
    assert checks.check_validate_output("", 9)


def test_run_fails_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.SetupError):
        run.load_package()
