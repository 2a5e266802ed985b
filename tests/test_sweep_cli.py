import hashlib
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import twostroke
from twostroke import validation
from twostroke.cli import load_config, main
from twostroke.model import CycleParams
from twostroke.presets import PRESET_NAMES, figure_preset
from twostroke.propagators import PropagatorMode
from twostroke.sweep import (
    CSV_COLUMNS,
    SweepSpec,
    apply_variable,
    rows_to_csv,
    run_sweep,
)


def base_params(**overrides):
    base = dict(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0, kappa=0.1, omega=0.5, tau=1.0)
    base.update(overrides)
    return CycleParams(**base)


def small_spec(**overrides):
    spec = dict(base=base_params(), variable="tau", start=0.0, stop=6.0, points=13)
    spec.update(overrides)
    return SweepSpec(**spec)


# --- spec validation ------------------------------------------------------------

def test_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        small_spec(variable="temperature")
    with pytest.raises(ValueError):
        small_spec(start=2.0, stop=1.0)
    with pytest.raises(ValueError):
        small_spec(points=1)
    with pytest.raises(ValueError):
        small_spec(routes=("trace", "magic"))
    with pytest.raises(ValueError):
        small_spec(routes=())
    # the closed and cf routes evaluate the interaction-only evolution
    for mode in (PropagatorMode.FULL, PropagatorMode.ORACLE_FULL):
        for routes in (("trace", "closed"), ("cf",)):
            with pytest.raises(ValueError, match="interaction-only"):
                small_spec(mode=mode, routes=routes)
        assert small_spec(mode=mode, routes=("trace",)).mode is mode


def test_apply_variable_eps_ratio_holds_eps_a():
    p = apply_variable(base_params(eps_a=2.0), "eps_ratio", 0.7)
    assert p.eps_a == 2.0
    assert p.eps_b == pytest.approx(1.4)


# --- running sweeps ----------------------------------------------------------------

def test_rows_ordered_and_complete():
    spec = small_spec()
    rows = run_sweep(spec)
    assert len(rows) == 13
    values = [r.swept_value for r in rows]
    assert values == sorted(values)
    assert not any(row.error for row in rows)


def test_zero_time_row_is_inert():
    rows = run_sweep(small_spec(points=2, stop=0.1))
    first = rows[0]
    assert first.swept_value == 0.0
    assert first.w == 0.0 and first.q_hot == 0.0 and first.q_cold == 0.0
    assert first.sigma == 0.0 and first.power == 0.0
    assert first.regime == "Other"
    assert first.eta is None


def test_error_rows_do_not_abort_the_sweep():
    # negative twisting strengths are invalid; those rows carry the error text
    spec = SweepSpec(
        base=base_params(), variable="kappa", start=-0.2, stop=0.2, points=5
    )
    rows = run_sweep(spec)
    assert len(rows) == 5
    assert sum(row.error is not None for row in rows) == 2
    assert rows[0].error is not None and rows[0].w is None
    assert rows[-1].error is None and rows[-1].w is not None


def test_first_law_row_check_scales_with_the_energies():
    # beta * eps held at the engine point: the rows are the eps_a = 1 engine's
    # cycles, whose first-law roundoff (~1e-10 absolute here) is ~1e-18 relative
    base = CycleParams(eps_a=1e8, eps_b=6e7, beta_a=1e-8, beta_b=2e-8,
                       kappa=0.1, omega=0.5, tau=1.0)
    spec = SweepSpec(base, "tau", 0.0, 60.0, 200, routes=("trace", "closed"))
    assert [row.error for row in run_sweep(spec) if row.error is not None] == []


def test_residual_columns_follow_routes():
    rows = run_sweep(small_spec(routes=("trace",), points=3))
    assert all(r.resid_closed is None and r.resid_cf is None for r in rows)
    rows = run_sweep(small_spec(points=3))
    assert all(r.resid_closed is not None and r.resid_cf is not None for r in rows)
    assert max(r.resid_closed for r in rows) < 1e-9
    assert max(r.resid_cf for r in rows) < 1e-6


# --- CSV ------------------------------------------------------------------------------

# the column list of the README's CSV schema section
README_HEADER = (
    "swept_value,eps_a,eps_b,beta_a,beta_b,kappa,omega,tau,"
    "W,Q_H,Q_C,Sigma,eta,power,xi_general,xi_closed,coherence_l1,"
    "regime,resid_closed,resid_cf"
)


def test_csv_schema_and_formatting():
    rows = run_sweep(small_spec(points=4))
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == README_HEADER
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 4 + 2  # header + rows + trailing newline
    # 17 significant digits round-trip exactly
    cells = lines[1].split(",")
    assert float(cells[1]) == 1.0
    w_cell = cells[CSV_COLUMNS.index("W")]
    rebuilt = format(float(w_cell), ".17g")
    assert rebuilt == w_cell


def test_csv_blank_eta_outside_engine():
    rows = run_sweep(small_spec(points=2, stop=0.1))
    line = rows_to_csv(rows).split("\n")[1]
    assert line.split(",")[CSV_COLUMNS.index("eta")] == ""


def test_csv_deterministic_across_runs_and_workers():
    spec = small_spec(points=24)
    first = rows_to_csv(run_sweep(spec, workers=1))
    again = rows_to_csv(run_sweep(spec, workers=1))
    pooled = rows_to_csv(run_sweep(spec, workers=2))
    assert first == again == pooled


def test_pool_width_capped_at_grid_size(monkeypatch):
    widths = []

    class InlineExecutor:
        """Runs the chunks in this process and records the requested width."""

        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlineExecutor)
    spec = small_spec(points=3)
    wide = rows_to_csv(run_sweep(spec, workers=200))
    assert widths == [3]
    assert wide == rows_to_csv(run_sweep(spec, workers=1))
    assert widths == [3]  # one worker never builds a pool


# --- presets ----------------------------------------------------------------------------

def test_preset_names_all_build():
    for name in PRESET_NAMES:
        series = figure_preset(name)
        assert series
        for _, spec in series:
            assert spec.points >= 2


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ValueError, match="fig2a"):
        figure_preset("fig99")


def test_engine_time_preset_has_two_couplings():
    series = figure_preset("fig3a")
    kappas = sorted(spec.base.kappa for _, spec in series)
    assert kappas == [0.10, 0.12]
    for _, spec in series:
        assert spec.variable == "tau"
        assert spec.base.omega == 0.5
        assert spec.base.eps_b == pytest.approx(0.6)


def test_time_axis_presets_share_one_series():
    shared = figure_preset("fig3a")
    for name in ("fig3b", "fig4a", "fig4b", "fig5"):
        assert figure_preset(name) is shared


def test_scaled_controls_preset():
    for label, spec in figure_preset("fig2b"):
        assert spec.variable == "eps_ratio"
        assert spec.base.omega == pytest.approx(10.0 * spec.base.kappa)
        assert spec.base.tau == pytest.approx(10.0 * spec.base.kappa)


def test_mode_comparison_presets():
    for name in ("fig9", "fig10"):
        modes = {spec.mode for _, spec in figure_preset(name)}
        assert modes == {PropagatorMode.INTERACTION_ONLY, PropagatorMode.FULL}


def test_fig9_parameters():
    for _, spec in figure_preset("fig9"):
        assert spec.base.kappa == pytest.approx(0.1)
        assert spec.base.omega == pytest.approx(1.0)
        assert spec.base.tau == pytest.approx(0.1)


def test_reference_grid_is_pinned():
    # the digest pins every bit of the 520 points the validation checks run on
    grid = validation.reference_grid()
    assert len(grid) == 520
    assert hashlib.md5(repr(grid).encode()).hexdigest() == "7c3df15d0d6bf352cf1b82120c9c2d38"


# --- determinism check --------------------------------------------------------------------

def test_determinism_check_reports_failed_rows():
    # tau < 0 makes an invalid cycle in the first two rows
    result = validation.check_determinism({"bad": small_spec(start=-1.0, stop=1.0, points=5)})
    assert not result.passed
    assert "bad: row -1.0 failed" in result.detail
    assert "bad: row -0.5 failed" in result.detail


def test_preset_sweeps_hold_every_series_once():
    sweeps = validation.preset_sweeps()
    specs = list(sweeps.values())
    assert len(set(specs)) == len(specs)
    labels = [label for key in sweeps for label in key.split("=")]
    assert len(set(labels)) == len(labels)
    for name in PRESET_NAMES:
        for label, spec in figure_preset(name):
            key = next(key for key in sweeps if f"{name}/{label}" in key.split("="))
            assert sweeps[key] == spec
    # the five time-axis figures share one sweep per coupling; fig10/interaction is fig2a
    assert "fig3a/k0.10=fig3b/k0.10=fig4a/k0.10=fig4b/k0.10=fig5/k0.10" in sweeps
    assert "fig2a/main=fig10/interaction" in sweeps


# --- config files and the CLI -------------------------------------------------------------

CONFIG = """\
# engine operating point
eps_a = 1.0
eps_b = 0.6
beta_a = 1.0
beta_b = 2.0
kappa = 0.1
omega = 0.5
tau = 1.0

[sweep]
variable = tau
start = 0.0
stop = 4.0
points = 9
mode = interaction
routes = trace,closed
"""


def test_load_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    spec, out = load_config(str(path))
    assert out is None
    assert spec.variable == "tau"
    assert spec.points == 9
    assert spec.routes == ("trace", "closed")
    assert spec.mode is PropagatorMode.INTERACTION_ONLY
    assert spec.base.kappa == pytest.approx(0.1)


def test_load_config_reports_missing_keys(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("eps_a = 1.0\n[sweep]\nvariable = tau\nstart=0\nstop=1\npoints=4\n")
    from twostroke.cli import UsageError

    with pytest.raises(UsageError, match="missing cycle keys"):
        load_config(str(path))


def test_cli_config_sweep(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    out = tmp_path / "rows.csv"
    code = main(["sweep", "--config", str(config), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 10


def test_cli_flag_overrides_config(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    out = tmp_path / "rows.csv"
    code = main([
        "sweep", "--config", str(config), "--out", str(out),
        "--mode", "oracle-interaction", "--routes", "trace",
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    resid_cell = lines[1].split(",")[CSV_COLUMNS.index("resid_closed")]
    assert resid_cell == ""  # closed route disabled by the override


def test_cli_preset_writes_one_file_per_series(tmp_path):
    out = tmp_path / "map.csv"
    code = main(["sweep", "--preset", "fig9", "--out", str(out)])
    assert code == 0
    written = sorted(f.name for f in tmp_path.iterdir())
    assert written == ["map__full.csv", "map__interaction.csv"]
    for name in written:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 401


def test_cli_usage_errors(tmp_path, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started before the usage error was reported")

    monkeypatch.setattr("twostroke.cli.run_sweep", no_sweep)
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--preset", "fig99", "--out", "x.csv"]) == 2
    assert main(["sweep", "--out", "x.csv"]) == 2
    assert main(["sweep", "--preset", "fig9"]) == 2
    assert main(["sweep", "--preset", "fig9", "--out", out, "--workers", "0"]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.ini"), "--out", out]) == 2
    assert main(["sweep", "--preset", "fig9", "--out", str(tmp_path / "no" / "x.csv")]) == 2
    # SweepSpec judges the route names, for a preset and for a config alike
    config = tmp_path / "run.ini"
    config.write_text(CONFIG)
    for routes in ("bogus", ","):
        assert main(["sweep", "--preset", "fig9", "--out", out, "--routes", routes]) == 2
        assert main(["sweep", "--config", str(config), "--out", out, "--routes", routes]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 10 and all(line.startswith("error: ") for line in errors)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_rejects_interaction_routes_in_full_modes(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.replace("mode = interaction", "mode = full"))
    out = str(tmp_path / "rows.csv")
    assert main(["sweep", "--config", str(config), "--out", out]) == 2
    assert main(["sweep", "--preset", "fig2a", "--out", out, "--mode", "oracle-full"]) == 2
    assert "interaction-only" in capsys.readouterr().err
    # flags override the file before the combination is judged
    assert main(["sweep", "--config", str(config), "--out", out, "--routes", "trace"]) == 0
    assert main(["sweep", "--config", str(config), "--out", out, "--mode", "interaction"]) == 0


def test_cli_reports_row_failures(tmp_path, capsys):
    # an invalid range fails row by row with one cause: one grouped line
    config = tmp_path / "run.ini"
    out = tmp_path / "rows.csv"
    from_minus_two = CONFIG.replace("start = 0.0", "start = -2.0")
    # eps_ratio * eps_a overflows: eps_b is inf, and numpy must not warn about it
    overflowing = (CONFIG.replace("eps_a = 1.0", "eps_a = 1e200")
                   .replace("start = 0.0", "start = 1e199").replace("stop = 4.0", "stop = 1e200"))
    cases = [
        ("tau", from_minus_two,
         "  3 rows, first at tau = -2.0: tau must be nonnegative, got -2.0", [-2.0, -1.25, -0.5]),
        ("eps_ratio", from_minus_two,
         "  3 rows, first at eps_ratio = -2.0: eps_b must be positive, got -2.0", [-2.0, -1.25, -0.5]),
        ("eps_ratio", overflowing,
         "  9 rows, first at eps_ratio = 1e+199: eps_b must be finite, got inf",
         np.linspace(1e199, 1e200, 9).tolist()),
    ]
    for variable, text, group, values in cases:
        config.write_text(text.replace("variable = tau", f"variable = {variable}"))
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [group, f"{len(values)} rows failed"]
        # a failed row shows the cycle its rule saw: its swept value and the config's others
        base = asdict(load_config(str(config))[0].base)
        header, *lines = out.read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        failed = [row for row in rows if row["W"] == ""]
        assert [float(row["swept_value"]) for row in failed] == values
        for row in failed:
            value = float(row["swept_value"])
            swept = {"eps_b": value * base["eps_a"]} if variable == "eps_ratio" else {variable: value}
            assert {name: float(row[name]) for name in base} == {**base, **swept}

    # every row of a degenerate cycle fails with one message: one grouped line
    degenerate = CONFIG.replace("kappa = 0.1", "kappa = 0.0").replace("omega = 0.5", "omega = 0.0")
    config.write_text(degenerate)
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors == [
        "  9 rows, first at tau = 0.0: kappa and omega cannot both vanish (degenerate cycle)",
        "9 rows failed",
    ]


def test_cli_import_leaves_process_pool_unloaded():
    src = os.path.dirname(os.path.dirname(twostroke.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, twostroke.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_finite_local_extrema_match_a_pointwise_scan(rng):
    def scan(y, find_min):
        idx = []
        for i in range(1, len(y) - 1):
            a, b, c = y[i - 1], y[i], y[i + 1]
            if np.isfinite(a) and np.isfinite(b) and np.isfinite(c):
                if (b < a and b < c) if find_min else (b > a and b > c):
                    idx.append(i)
        return idx

    for _ in range(20):
        y = rng.integers(0, 4, size=30).astype(float)  # repeated values make plateaus
        y[rng.random(30) < 0.15] = rng.choice([np.nan, np.inf, -np.inf])
        for find_min in (True, False):
            assert validation._finite_local_extrema(y, find_min) == scan(y, find_min)
