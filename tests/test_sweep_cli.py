import numpy as np
import pytest

from twostroke.cli import load_config, main
from twostroke.model import CycleParams
from twostroke.presets import PRESET_NAMES, figure_preset
from twostroke.propagators import PropagatorMode
from twostroke.sweep import (
    CSV_COLUMNS,
    SweepSpec,
    apply_variable,
    failure_count,
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
    assert failure_count(rows) == 0


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
    assert failure_count(rows) == 2
    assert rows[0].error is not None and rows[0].w is None
    assert rows[-1].error is None and rows[-1].w is not None


def test_residual_columns_follow_routes():
    rows = run_sweep(small_spec(routes=("trace",), points=3))
    assert all(r.resid_closed is None and r.resid_cf is None for r in rows)
    rows = run_sweep(small_spec(points=3))
    assert all(r.resid_closed is not None and r.resid_cf is not None for r in rows)
    assert max(r.resid_closed for r in rows) < 1e-9
    assert max(r.resid_cf for r in rows) < 1e-6


# --- CSV ------------------------------------------------------------------------------

def test_csv_schema_and_formatting():
    rows = run_sweep(small_spec(points=4))
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
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


# --- presets ----------------------------------------------------------------------------

def test_preset_names_all_build():
    for name in PRESET_NAMES:
        preset = figure_preset(name)
        assert preset.series
        for _, spec in preset.series:
            assert spec.points >= 2


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ValueError, match="fig2a"):
        figure_preset("fig99")


def test_engine_time_preset_has_two_couplings():
    preset = figure_preset("fig3a")
    kappas = sorted(spec.base.kappa for _, spec in preset.series)
    assert kappas == [0.10, 0.12]
    for _, spec in preset.series:
        assert spec.variable == "tau"
        assert spec.base.omega == 0.5
        assert spec.base.eps_b == pytest.approx(0.6)


def test_scaled_controls_preset():
    preset = figure_preset("fig2b")
    for label, spec in preset.series:
        assert spec.variable == "eps_ratio"
        assert spec.base.omega == pytest.approx(10.0 * spec.base.kappa)
        assert spec.base.tau == pytest.approx(10.0 * spec.base.kappa)


def test_mode_comparison_presets():
    for name in ("fig9", "fig10"):
        preset = figure_preset(name)
        modes = {spec.mode for _, spec in preset.series}
        assert modes == {PropagatorMode.INTERACTION_ONLY, PropagatorMode.FULL}


def test_fig9_parameters():
    preset = figure_preset("fig9")
    for _, spec in preset.series:
        assert spec.base.kappa == pytest.approx(0.1)
        assert spec.base.omega == pytest.approx(1.0)
        assert spec.base.tau == pytest.approx(0.1)


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
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 6 and all(line.startswith("error: ") for line in errors)
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
    config = tmp_path / "run.ini"
    config.write_text(CONFIG.replace("start = 0.0", "start = -2.0"))
    out = tmp_path / "rows.csv"
    code = main(["sweep", "--config", str(config), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "failed" in captured.err
