"""Cross-route invariant suite.

Every closed-form expression in the package has an independent brute-force
counterpart; the checks here sweep a reference grid spanning the headline
figure parameter ranges and verify the two sides agree, plus the physical
invariants (laws of thermodynamics, squeezing bounds, regime structure).

The same checks back the CLI ``validate`` command and the acceptance tests.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .linalg import checked
from .model import CycleArrays, CycleParams, collective_ops, populations
from .presets import PRESET_NAMES, figure_preset
from .propagators import PropagatorMode, align_global_phase, evolved_states, unitaries
from .squeezing import flag_states, squeezing_stack, xi_closed_form, xi_closed_stack, xi_general
from .sweep import SweepSpec, run_sweep, rows_to_csv
from .thermo import (
    CF_STEP,
    Regime,
    carnot_efficiency,
    cf_book,
    characteristic_function,
    closed_book,
    energetics_trace,
    otto_efficiency,
    trace_route,
)

PROPAGATOR_TOL = 1e-10
CLOSED_TOL = 1e-9
CF_REL_TOL = 1e-6
SIGMA_FLOOR = -1e-12
FIRST_LAW_TOL = 1e-12
XI_BOUND_SLACK = 1e-12
GRID_SEARCH_TOL = 1e-9
ROTATION_TOL = 1e-10
CARNOT_SLACK = 1e-9
CF_UNIT_TOL = 1e-12
CF_FORM_TOL = 1e-10

BOTH_MODES = (PropagatorMode.INTERACTION_ONLY, PropagatorMode.FULL)

_GRID_CACHE: tuple[CycleParams, ...] | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def reference_grid() -> tuple[CycleParams, ...]:
    """Deterministic grid of >= 500 parameter points across figure ranges."""
    global _GRID_CACHE
    if _GRID_CACHE is not None:
        return _GRID_CACHE
    points: list[CycleParams] = []
    # gap-ratio band at strong coupling (regime map / energetics comparison)
    for r in np.linspace(0.05, 2.0, 100):
        points.append(
            CycleParams(eps_a=1.0, eps_b=float(r), beta_a=1.0, beta_b=2.0,
                        kappa=1.0, omega=10.0, tau=1.0)
        )
    # gap-ratio bands at weak coupling, controls scaling with the coupling
    for kappa in (0.10, 0.12):
        for r in np.linspace(0.05, 2.0, 60):
            points.append(
                CycleParams(eps_a=1.0, eps_b=float(r), beta_a=1.0, beta_b=2.0,
                            kappa=kappa, omega=10.0 * kappa, tau=10.0 * kappa)
            )
    # interaction-time bands at the engine operating point
    for kappa in (0.10, 0.12):
        for t in np.linspace(0.0, 60.0, 100):
            points.append(
                CycleParams(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0,
                            kappa=kappa, omega=0.5, tau=float(t))
            )
    # gap-ratio band for the free-Hamiltonian comparison
    for r in np.linspace(0.05, 2.0, 60):
        points.append(
            CycleParams(eps_a=1.0, eps_b=float(r), beta_a=1.0, beta_b=2.0,
                        kappa=0.1, omega=1.0, tau=0.1)
        )
    # short-time detail at strong coupling
    for t in np.linspace(0.0, 2.0, 40):
        points.append(
            CycleParams(eps_a=1.0, eps_b=0.5, beta_a=1.0, beta_b=2.0,
                        kappa=1.0, omega=10.0, tau=float(t))
        )
    _GRID_CACHE = tuple(points)
    return _GRID_CACHE


def check_propagator_equivalence() -> CheckResult:
    """Closed-form unitaries match the matrix-exponential oracle on the grid."""
    start = time.perf_counter()
    grid = reference_grid()
    c = CycleArrays(grid)
    oracle_int, oracle_full, u_int, u_full = (
        checked(unitaries, c, mode)
        for mode in (
            PropagatorMode.ORACLE_INTERACTION,
            PropagatorMode.ORACLE_FULL,
            PropagatorMode.INTERACTION_ONLY,
            PropagatorMode.FULL,
        )
    )
    worst_int = float(np.max(np.abs(u_int - oracle_int)))
    worst_full = max(
        float(np.max(np.abs(align_global_phase(u, ref) - ref)))
        for u, ref in zip(u_full, oracle_full)
    )
    elapsed = time.perf_counter() - start
    passed = worst_int < PROPAGATOR_TOL and worst_full < PROPAGATOR_TOL and elapsed < 5.0
    detail = (
        f"{len(grid)} points; max |U_int - oracle| = {worst_int:.3e}, "
        f"max |U_full - oracle| (phase-aligned) = {worst_full:.3e}, "
        f"elapsed {elapsed:.2f}s (< 5s)"
    )
    return CheckResult("propagator equivalence", passed, detail, elapsed)


def check_route_equivalence() -> CheckResult:
    """Trace, closed-form, and characteristic-function energetics agree."""
    start = time.perf_counter()
    grid = reference_grid()
    c = CycleArrays(grid)
    pops = populations(c)
    trace = checked(trace_route, c, pops, PropagatorMode.INTERACTION_ONLY)
    closed = checked(closed_book, c, pops)
    cf = checked(cf_book, c, pops, CF_STEP)
    worst_closed = 0.0
    worst_cf = 0.0
    for attr in ("w", "q_hot", "q_cold", "sigma"):
        t = getattr(trace, attr)
        worst_closed = max(worst_closed, float(np.max(np.abs(t - getattr(closed, attr)))))
        scaled = np.abs(t - getattr(cf, attr)) / np.maximum(1.0, np.abs(t))
        worst_cf = max(worst_cf, float(np.max(scaled)))
    elapsed = time.perf_counter() - start
    passed = worst_closed < CLOSED_TOL and worst_cf < CF_REL_TOL and elapsed < 10.0
    detail = (
        f"{len(grid)} points; max |trace - closed| = {worst_closed:.3e} (< 1e-9), "
        f"max scaled |trace - cf| = {worst_cf:.3e} (< 1e-6), elapsed {elapsed:.2f}s (< 10s)"
    )
    return CheckResult("thermodynamic route equivalence", passed, detail, elapsed)


def check_second_law() -> CheckResult:
    """Entropy production stays nonnegative at every grid point, both modes."""
    start = time.perf_counter()
    c = CycleArrays(reference_grid())
    pops = populations(c)
    books = [checked(trace_route, c, pops, mode) for mode in BOTH_MODES]
    worst = min(float(np.min(book.sigma)) for book in books)
    regimes = {regime.value for book in books for regime in book.regime}
    elapsed = time.perf_counter() - start
    passed = worst >= SIGMA_FLOOR
    detail = f"min Sigma = {worst:.3e} (>= -1e-12); regimes seen: {sorted(regimes)}"
    return CheckResult("second law", passed, detail, elapsed)


def check_first_law() -> CheckResult:
    """w + q_hot + q_cold vanishes at every grid point, both modes."""
    start = time.perf_counter()
    c = CycleArrays(reference_grid())
    pops = populations(c)
    books = [checked(trace_route, c, pops, mode) for mode in BOTH_MODES]
    worst = max(float(np.max(np.abs(book.w + book.q_hot + book.q_cold))) for book in books)
    elapsed = time.perf_counter() - start
    passed = worst < FIRST_LAW_TOL
    detail = f"max |w + q_hot + q_cold| = {worst:.3e} (< 1e-12)"
    return CheckResult("first law", passed, detail, elapsed)


def _label_runs(labels: list[str]) -> list[tuple[str, int]]:
    runs: list[tuple[str, int]] = []
    for label in labels:
        if runs and runs[-1][0] == label:
            runs[-1] = (label, runs[-1][1] + 1)
        else:
            runs.append((label, 1))
    return runs


def check_regime_bands() -> CheckResult:
    """The gap-ratio sweep partitions into refrigerator/engine/accelerator bands.

    A band counts as nontrivial when it covers at least 2% of the grid.  The
    transition between the refrigerator and engine bands is not a single sign
    flip: the hot heat reverses before the work does, leaving a physically
    real crossover zone a couple of grid points wide (an accelerator sliver
    plus dead-band OTHER points).  Those boundary features are dropped by the
    width rule but must stay tiny in total.
    """
    start = time.perf_counter()
    preset = figure_preset("fig2a")
    rows = run_sweep(preset.series[0][1])
    errors = [r for r in rows if r.error is not None]
    labels = [r.regime for r in rows if r.error is None]
    runs = _label_runs(labels)
    min_width = max(3, len(labels) // 50)
    macro = [label for label, width in runs if width >= min_width]
    dropped = sum(width for _, width in runs if width < min_width)
    expected = [Regime.REFRIGERATOR.value, Regime.ENGINE.value, Regime.ACCELERATOR.value]

    # engine membership at the engine operating point, over sampled times
    engine_hits = 0
    eta_missing = False
    samples = np.linspace(2.0, 58.0, 25)
    for t in samples:
        p = CycleParams(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0,
                        kappa=0.1, omega=0.5, tau=float(t))
        book = energetics_trace(p, PropagatorMode.INTERACTION_ONLY)
        if book.regime is Regime.ENGINE:
            engine_hits += 1
            eta_missing = eta_missing or book.eta is None
    elapsed = time.perf_counter() - start
    passed = (
        macro == expected
        and dropped <= len(labels) // 50
        and not errors
        and engine_hits > 0
        and not eta_missing
    )
    detail = (
        f"runs: {runs}; nontrivial bands (>= {min_width} pts): {macro}; "
        f"boundary points dropped: {dropped}; engine hits at operating point: "
        f"{engine_hits}/{len(samples)}"
    )
    return CheckResult("regime band structure", passed, detail, elapsed)


def _grid_search_min_variance(rho: np.ndarray, angles: int = 10_000) -> float:
    """Brute-force transverse-variance minimum: build the spin component at
    every angle, square it, trace — no use of the closed-form sinusoid."""
    ops = collective_ops()
    phi = np.linspace(0.0, math.pi, angles, endpoint=False)
    s_phi = np.cos(phi)[:, None, None] * ops.sx + np.sin(phi)[:, None, None] * ops.sy
    variances = np.einsum("aij,ajk,ki->a", s_phi, s_phi, rho).real
    best = int(np.argmin(variances))
    # golden-section polish around the best sample
    step = math.pi / angles
    lo, hi = phi[best] - step, phi[best] + step

    def var_at(angle: float) -> float:
        s = math.cos(angle) * ops.sx + math.sin(angle) * ops.sy
        return float(np.trace(s @ s @ rho).real)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = var_at(c), var_at(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = var_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = var_at(d)
    return min(float(variances[best]), fc, fd)


def check_squeezing_sanity() -> CheckResult:
    """Exact limits, global bound, grid-search oracle, rotation invariance."""
    start = time.perf_counter()
    grid = reference_grid()
    problems = []

    base = CycleParams(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0,
                       kappa=0.1, omega=0.5, tau=7.0)
    if xi_closed_form(replace(base, kappa=0.0)) != 1.0:
        problems.append("xi(kappa=0) != 1 exactly")
    if xi_closed_form(replace(base, tau=0.0)) != 1.0:
        problems.append("xi(tau=0) != 1 exactly")

    c = CycleArrays(grid)
    pops = populations(c)
    states = checked(evolved_states, c, pops, PropagatorMode.INTERACTION_ONLY)
    checked(flag_states, states)
    worst_bound = max(
        float(np.max(squeezing_stack(states)[0])) - 1.0,
        float(np.max(xi_closed_stack(c, pops))) - 1.0,
    )
    if worst_bound > XI_BOUND_SLACK:
        problems.append(f"xi exceeds 1 by {worst_bound:.3e}")

    stride = max(1, len(grid) // 40)
    worst_grid_search = 0.0
    for rho in states[::stride]:
        report = xi_general(rho)
        brute = _grid_search_min_variance(rho)
        worst_grid_search = max(worst_grid_search, abs(report.xi - 2.0 * brute))
    if worst_grid_search > GRID_SEARCH_TOL:
        problems.append(f"grid-search mismatch {worst_grid_search:.3e}")

    rng = np.random.default_rng(20240517)
    worst_rotation = 0.0
    for rho in states[:: max(1, len(grid) // 25)]:
        xi = xi_general(rho).xi
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        rot = np.diag(np.exp(-1j * theta * np.array([1.0, 0.0, 0.0, -1.0])))
        xi_rot = xi_general(rot @ rho @ np.conj(rot.T)).xi
        worst_rotation = max(worst_rotation, abs(xi - xi_rot))
    if worst_rotation > ROTATION_TOL:
        problems.append(f"rotation invariance broken by {worst_rotation:.3e}")

    elapsed = time.perf_counter() - start
    detail = (
        f"max(xi - 1) = {worst_bound:.3e}; grid-search residual = "
        f"{worst_grid_search:.3e}; rotation residual = {worst_rotation:.3e}"
    )
    if problems:
        detail += "; PROBLEMS: " + "; ".join(problems)
    return CheckResult("squeezing sanity", not problems, detail, elapsed)


def check_carnot_bound() -> CheckResult:
    """Engine efficiencies never beat Carnot; record the supremum vs the
    gap-ratio reference line (informational)."""
    start = time.perf_counter()
    c = CycleArrays(reference_grid())
    book = checked(trace_route, c, populations(c), PropagatorMode.INTERACTION_ONLY)
    engine = book.regime == Regime.ENGINE
    engine_points = int(np.count_nonzero(engine))
    excess = (book.eta - carnot_efficiency(c))[engine]
    worst_excess = float(np.max(excess)) if engine_points else -math.inf

    # supremum of eta over the engine-figure time grid, vs the gap-ratio line
    preset = figure_preset("fig4a")
    sup_eta = {}
    for label, spec in preset.series:
        rows = run_sweep(spec)
        etas = [r.eta for r in rows if r.eta is not None]
        sup_eta[label] = max(etas) if etas else float("nan")
    otto = otto_efficiency(preset.series[0][1].base)
    elapsed = time.perf_counter() - start
    passed = engine_points > 0 and worst_excess <= CARNOT_SLACK
    detail = (
        f"{engine_points} engine points; max(eta - eta_Carnot) = {worst_excess:.3e} "
        f"(<= 1e-9); sup eta over time grid vs gap-ratio line {otto:.3f}: "
        + ", ".join(f"{k}: {v:.6f}" for k, v in sorted(sup_eta.items()))
        + " (informational)"
    )
    return CheckResult("Carnot bound", passed, detail, elapsed)


def _finite_local_extrema(y: np.ndarray, find_min: bool) -> list[int]:
    idx = []
    for i in range(1, len(y) - 1):
        a, b, c = y[i - 1], y[i], y[i + 1]
        if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(c)):
            continue
        if (b < a and b < c) if find_min else (b > a and b > c):
            idx.append(i)
    return idx


def _worst_step_distance(source: list[int], target: list[int]):
    """Worst distance (in grid steps) from each source extremum to the
    nearest target extremum; None when either list is empty."""
    if not source or not target:
        return None
    t = np.asarray(target)
    return int(max(int(np.min(np.abs(s - t))) for s in source))


def check_extremum_alignment() -> CheckResult:
    """Alignment of coherence maxima, efficiency maxima, and entropy-production
    minima with squeezing-parameter minima on the engine time grid.

    As configured this check asserts that all three families of extrema fall
    within one grid step of xi minima.  The model's dynamics put the
    efficiency maxima and entropy-production minima where the squeezing
    parameter returns to 1 (squeezing momentarily off), i.e. at xi MAXIMA,
    half an oscillation period away from its minima; and the slow secular
    drift of the coherence maxima exceeds one step at this grid resolution.
    The check therefore fails by construction and is retained deliberately;
    the diagnostics below report the alignments that do hold.
    """
    start = time.perf_counter()
    preset = figure_preset("fig3a")
    per_series = []
    passed = True
    for label, spec in preset.series:
        rows = run_sweep(spec)
        xi = np.array([r.xi_general if r.xi_general is not None else np.nan for r in rows])
        coh = np.array([r.coherence_l1 if r.coherence_l1 is not None else np.nan for r in rows])
        eta = np.array([r.eta if r.eta is not None else np.nan for r in rows])
        sigma = np.array([r.sigma if r.sigma is not None else np.nan for r in rows])

        xi_min = _finite_local_extrema(xi, find_min=True)
        xi_max = _finite_local_extrema(xi, find_min=False)
        coh_max = _finite_local_extrema(coh, find_min=False)
        eta_max = _finite_local_extrema(eta, find_min=False)
        sigma_min = _finite_local_extrema(sigma, find_min=True)

        d_coh = _worst_step_distance(coh_max, xi_min)
        d_eta = _worst_step_distance(eta_max, xi_min)
        d_sigma = _worst_step_distance(sigma_min, xi_min)
        series_ok = all(d is not None and d <= 1 for d in (d_coh, d_eta, d_sigma))
        passed = passed and series_ok

        # physically observed pairings, for the record
        d_eta_ximax = _worst_step_distance(eta_max, xi_max)
        d_sigma_eta = _worst_step_distance(sigma_min, eta_max)
        per_series.append(
            f"{label}: steps to xi minima: coherence max {d_coh}, eta max {d_eta}, "
            f"sigma min {d_sigma}; observed: eta max to xi MAXIMA {d_eta_ximax}, "
            f"sigma min to eta max {d_sigma_eta}"
        )
    elapsed = time.perf_counter() - start
    return CheckResult("extremum alignment", passed, " | ".join(per_series), elapsed)


def check_cf_health() -> CheckResult:
    """F(0,0) = 1 and the two characteristic-function forms agree."""
    start = time.perf_counter()
    grid = reference_grid()
    worst_unit = 0.0
    for p in grid[::5]:
        worst_unit = max(worst_unit, abs(characteristic_function(p, 0.0, 0.0) - 1.0))

    rng = np.random.default_rng(987654321)
    anchors = [
        CycleParams(1.0, 0.6, 1.0, 2.0, kappa=0.1, omega=0.5, tau=2.0),
        CycleParams(1.0, 0.5, 1.0, 2.0, kappa=1.0, omega=10.0, tau=1.0),
        CycleParams(1.0, 1.4, 1.0, 2.0, kappa=0.12, omega=1.2, tau=1.2),
    ]
    worst_form = 0.0
    for _ in range(100):
        lam, nu = rng.uniform(-3.0, 3.0, size=2)
        for p in anchors:
            closed = characteristic_function(p, float(lam), float(nu), form="closed")
            operator = characteristic_function(p, float(lam), float(nu), form="operator")
            worst_form = max(worst_form, abs(closed - operator))
    elapsed = time.perf_counter() - start
    passed = worst_unit < CF_UNIT_TOL and worst_form < CF_FORM_TOL
    detail = (
        f"max |F(0,0) - 1| = {worst_unit:.3e} (< 1e-12); "
        f"max |closed - operator| over 100 random (lambda, nu) x {len(anchors)} "
        f"parameter points = {worst_form:.3e} (< 1e-10)"
    )
    return CheckResult("characteristic-function health", passed, detail, elapsed)


def check_determinism(presets: tuple[str, ...] = PRESET_NAMES) -> CheckResult:
    """Byte-identical CSV across repeated runs and across pool widths.

    Since this walks every preset row anyway, it also enforces the per-row
    residual budget of the requested routes (1e-9 for the closed forms,
    1e-6 scaled for the characteristic function).
    """
    start = time.perf_counter()
    mismatches = []
    worst_closed = 0.0
    worst_cf = 0.0
    for name in presets:
        preset = figure_preset(name)
        for label, spec in preset.series:
            rows = run_sweep(spec, workers=1)
            first = rows_to_csv(rows)
            again = rows_to_csv(run_sweep(spec, workers=1))
            pooled = rows_to_csv(run_sweep(spec, workers=2))
            if first != again:
                mismatches.append(f"{name}/{label}: rerun differs")
            if first != pooled:
                mismatches.append(f"{name}/{label}: pool width changes bytes")
            for row in rows:
                if row.error is not None:
                    mismatches.append(f"{name}/{label}: row {row.swept_value} failed")
                    continue
                if row.resid_closed is not None:
                    worst_closed = max(worst_closed, row.resid_closed)
                if row.resid_cf is not None:
                    scale = max(1.0, abs(row.w), abs(row.q_hot), abs(row.q_cold), abs(row.sigma))
                    worst_cf = max(worst_cf, row.resid_cf / scale)
    if worst_closed >= CLOSED_TOL:
        mismatches.append(f"closed-route residual {worst_closed:.3e} over budget")
    if worst_cf >= CF_REL_TOL:
        mismatches.append(f"cf-route residual {worst_cf:.3e} over budget")
    elapsed = time.perf_counter() - start
    detail = (
        f"{len(presets)} presets checked (rerun + 2-worker pool); row residuals "
        f"closed {worst_closed:.2e}, cf {worst_cf:.2e}; "
        + ("all byte-identical" if not mismatches else "; ".join(mismatches))
    )
    return CheckResult("determinism", not mismatches, detail, elapsed)


def quick_determinism_spec() -> SweepSpec:
    base = CycleParams(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0,
                       kappa=0.1, omega=0.5, tau=1.0)
    return SweepSpec(base=base, variable="tau", start=0.0, stop=6.0, points=40)


def run_validation(quick: bool = True) -> list[CheckResult]:
    """The invariant suite behind the CLI ``validate`` command.

    The deliberately failing extremum-alignment acceptance check is not part
    of this suite; it lives in the acceptance tests with its analysis.
    """
    results = [
        check_propagator_equivalence(),
        check_route_equivalence(),
        check_second_law(),
        check_first_law(),
        check_regime_bands(),
        check_squeezing_sanity(),
        check_carnot_bound(),
        check_cf_health(),
    ]
    if quick:
        start = time.perf_counter()
        spec = quick_determinism_spec()
        first = rows_to_csv(run_sweep(spec, workers=1))
        again = rows_to_csv(run_sweep(spec, workers=1))
        pooled = rows_to_csv(run_sweep(spec, workers=2))
        ok = first == again == pooled
        results.append(
            CheckResult(
                "determinism (quick)",
                ok,
                "40-point sweep, rerun + 2-worker pool byte-identical" if ok else "byte mismatch",
                time.perf_counter() - start,
            )
        )
    else:
        results.append(check_determinism())
    return results
