"""Cross-route invariant suite.

Every closed-form expression in the package has an independent brute-force
counterpart; the checks here sweep a reference grid spanning the headline
figure parameter ranges and verify the two sides agree, plus the physical
invariants (laws of thermodynamics, squeezing bounds, regime structure).

The same checks back the CLI ``validate`` command and the acceptance tests.
"""

import functools
import math
import time
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter

import numpy as np

from .linalg import checked
from .model import SX, SY, CycleArrays, CycleParams, populations
from .presets import PRESETS, STRONG_COUPLING, engine_base, figure_preset, scaled_base
from .propagators import PropagatorMode, align_global_phase, evolved_states, unitaries
from .squeezing import flag_states, squeezing_stack, xi_closed_form, xi_closed_stack
from .sweep import SweepSpec, _book_residual, apply_variable, rows_to_csv, run_sweep
from .thermo import (
    EnergyBook,
    Regime,
    _cf_closed,
    _cf_operator,
    carnot_efficiency,
    cf_book,
    closed_book,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


@functools.cache
def reference_grid() -> tuple[CycleParams, ...]:
    """Deterministic grid of 520 parameter points sampled from the figure sweeps."""
    fig2a, fig2b, fig3a, fig9 = (
        dict(figure_preset(name)) for name in ("fig2a", "fig2b", "fig3a", "fig9")
    )
    bands = [
        replace(fig2a["main"], points=100),  # regime map at strong coupling
        *(replace(spec, points=60) for spec in fig2b.values()),  # controls scale with kappa
        *(replace(spec, points=100) for spec in fig3a.values()),  # engine point over time
        replace(fig9["interaction"], points=60),  # free-Hamiltonian comparison
        SweepSpec(STRONG_COUPLING, "tau", 0.0, 2.0, 40),  # short times at strong coupling
    ]
    return tuple(
        apply_variable(spec.base, spec.variable, value)
        for spec in bands
        for value in spec.grid().tolist()
    )


def _reference_cycles() -> tuple[CycleArrays, np.ndarray]:
    """The reference grid as one batch, and its initial populations (built per call)."""
    c = CycleArrays(reference_grid())
    return c, populations(c)


def _trace_books(c: CycleArrays, pops: np.ndarray, *modes: PropagatorMode) -> list[EnergyBook]:
    """The trace-route book of the batch `c` in each of `modes`."""
    return [checked(trace_route, c, pops, mode) for mode in modes]


def check_propagator_equivalence() -> CheckResult:
    """Closed-form unitaries match the matrix-exponential oracle on the grid."""
    start = time.perf_counter()
    c, _ = _reference_cycles()
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
        f"{len(c)} points; max |U_int - oracle| = {worst_int:.3e}, "
        f"max |U_full - oracle| (phase-aligned) = {worst_full:.3e}, "
        f"elapsed {elapsed:.2f}s (< 5s)"
    )
    return CheckResult("propagator equivalence", passed, detail, elapsed)


def check_route_equivalence() -> CheckResult:
    """Trace, closed-form, and characteristic-function energetics agree."""
    start = time.perf_counter()
    c, pops = _reference_cycles()
    trace, = _trace_books(c, pops, PropagatorMode.INTERACTION_ONLY)
    worst_closed = float(np.max(_book_residual(trace, checked(closed_book, c, pops))))
    cf = checked(cf_book, c, pops)
    worst_cf = 0.0
    for attr in ("w", "q_hot", "q_cold", "sigma"):
        t = getattr(trace, attr)
        scaled = np.abs(t - getattr(cf, attr)) / np.maximum(1.0, np.abs(t))
        worst_cf = max(worst_cf, float(np.max(scaled)))
    elapsed = time.perf_counter() - start
    passed = worst_closed < CLOSED_TOL and worst_cf < CF_REL_TOL and elapsed < 10.0
    detail = (
        f"{len(c)} points; max |trace - closed| = {worst_closed:.3e} (< 1e-9), "
        f"max scaled |trace - cf| = {worst_cf:.3e} (< 1e-6), elapsed {elapsed:.2f}s (< 10s)"
    )
    return CheckResult("thermodynamic route equivalence", passed, detail, elapsed)


def check_second_law() -> CheckResult:
    """Entropy production stays nonnegative at every grid point, both modes."""
    start = time.perf_counter()
    books = _trace_books(*_reference_cycles(), *BOTH_MODES)
    worst = min(float(np.min(book.sigma)) for book in books)
    regimes = {regime.value for book in books for regime in book.regime}
    elapsed = time.perf_counter() - start
    passed = worst >= SIGMA_FLOOR
    detail = f"min Sigma = {worst:.3e} (>= -1e-12); regimes seen: {sorted(regimes)}"
    return CheckResult("second law", passed, detail, elapsed)


def check_first_law() -> CheckResult:
    """w + q_hot + q_cold vanishes at every grid point, both modes."""
    start = time.perf_counter()
    books = _trace_books(*_reference_cycles(), *BOTH_MODES)
    worst = max(float(np.max(np.abs(book.w + book.q_hot + book.q_cold))) for book in books)
    elapsed = time.perf_counter() - start
    passed = worst < FIRST_LAW_TOL
    detail = f"max |w + q_hot + q_cold| = {worst:.3e} (< 1e-12)"
    return CheckResult("first law", passed, detail, elapsed)


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
    rows = run_sweep(figure_preset("fig2a")[0][1])
    errors = [r for r in rows if r.error is not None]
    labels = [r.regime for r in rows if r.error is None]
    runs = [(label, len(list(run))) for label, run in groupby(labels)]
    min_width = max(3, len(labels) // 50)
    macro = [label for label, width in runs if width >= min_width]
    dropped = sum(width for _, width in runs if width < min_width)
    expected = [Regime.REFRIGERATOR.value, Regime.ENGINE.value, Regime.ACCELERATOR.value]

    # engine membership at the engine operating point, over sampled times
    samples = np.linspace(2.0, 58.0, 25)
    c = CycleArrays([replace(engine_base(0.1), tau=t) for t in samples.tolist()])
    book = checked(trace_route, c, populations(c), PropagatorMode.INTERACTION_ONLY)
    engine = book.regime == Regime.ENGINE
    engine_hits = int(np.count_nonzero(engine))
    eta_missing = bool(np.any(np.isnan(book.eta[engine])))
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


def _squared_components(phi: np.ndarray) -> np.ndarray:
    """(cos(phi) S_x + sin(phi) S_y)^2 at each angle, flattened to shape (angles, 16)."""
    s_phi = np.cos(phi)[:, None, None] * SX + np.sin(phi)[:, None, None] * SY
    return (s_phi @ s_phi).reshape(len(phi), 16)


def _grid_search_min_variance(states: np.ndarray) -> np.ndarray:
    """Brute-force transverse-variance minimum of each state: tr(S_phi^2 rho) on
    10,000 angles, then on 1,001 angles across the best cell — no use of the
    closed-form sinusoid.

    The coarse S_phi^2 stack is built once and each state is contracted against
    it on its own, so no (states x angles) array is ever held.
    """
    phi = np.linspace(0.0, math.pi, 10_000, endpoint=False)
    coarse = _squared_components(phi)
    step = phi[1] - phi[0]
    minima = np.empty(len(states))
    for k, rho in enumerate(states):
        # tr(S rho) = sum_ij S_ij rho_ji; einsum, not a threaded BLAS matrix-vector call
        flat = rho.T.reshape(16)
        variances = np.einsum("ai,i->a", coarse, flat).real
        best = int(np.argmin(variances))
        cell = _squared_components(np.linspace(phi[best] - step, phi[best] + step, 1001))
        minima[k] = min(variances[best], float(np.min(np.einsum("ai,i->a", cell, flat).real)))
    return minima


def check_squeezing_sanity() -> CheckResult:
    """Exact limits, global bound, grid-search oracle, rotation invariance."""
    start = time.perf_counter()
    c, pops = _reference_cycles()
    problems = []

    base = replace(engine_base(0.1), tau=7.0)
    if xi_closed_form(replace(base, kappa=0.0)) != 1.0:
        problems.append("xi(kappa=0) != 1 exactly")
    if xi_closed_form(replace(base, tau=0.0)) != 1.0:
        problems.append("xi(tau=0) != 1 exactly")

    states = checked(evolved_states, c, pops, PropagatorMode.INTERACTION_ONLY)
    checked(flag_states, states)
    xi = squeezing_stack(states)[0]
    worst_bound = max(float(np.max(xi)) - 1.0, float(np.max(xi_closed_stack(c, pops))) - 1.0)
    if worst_bound > XI_BOUND_SLACK:
        problems.append(f"xi exceeds 1 by {worst_bound:.3e}")

    stride = max(1, len(c) // 40)
    brute = _grid_search_min_variance(states[::stride])
    worst_grid_search = float(np.max(np.abs(xi[::stride] - 2.0 * brute)))
    if worst_grid_search > GRID_SEARCH_TOL:
        problems.append(f"grid-search mismatch {worst_grid_search:.3e}")

    # rotations exp(-i theta S_z) by a random angle per state leave xi unchanged
    stride = max(1, len(c) // 25)
    sampled = states[::stride]
    theta = np.random.default_rng(20240517).uniform(0.0, 2.0 * math.pi, size=len(sampled))
    phases = np.exp(-1j * theta[:, None] * np.array([1.0, 0.0, 0.0, -1.0]))
    rotated = phases[:, :, None] * sampled * np.conj(phases)[:, None, :]
    checked(flag_states, rotated)
    worst_rotation = float(np.max(np.abs(xi[::stride] - squeezing_stack(rotated)[0])))
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
    c, pops = _reference_cycles()
    book, = _trace_books(c, pops, PropagatorMode.INTERACTION_ONLY)
    engine = book.regime == Regime.ENGINE
    engine_points = int(np.count_nonzero(engine))
    excess = (book.eta - carnot_efficiency(c))[engine]
    worst_excess = float(np.max(excess)) if engine_points else -math.inf

    # supremum of eta over the engine-figure time grid, vs the gap-ratio line
    series = figure_preset("fig4a")
    sup_eta = {}
    for label, spec in series:
        rows = run_sweep(spec)
        etas = [r.eta for r in rows if r.eta is not None]
        sup_eta[label] = max(etas) if etas else float("nan")
    otto = otto_efficiency(series[0][1].base)
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
    """Interior indices i with y[i] strictly below (or above) both finite neighbours."""
    a, b, c = y[:-2], y[1:-1], y[2:]
    finite = np.isfinite(a) & np.isfinite(b) & np.isfinite(c)
    extreme = (b < a) & (b < c) if find_min else (b > a) & (b > c)
    return (np.flatnonzero(finite & extreme) + 1).tolist()


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
    per_series = []
    passed = True
    columns = attrgetter("xi_general", "coherence_l1", "eta", "sigma")  # None reads as NaN
    for label, spec in figure_preset("fig3a"):
        xi, coh, eta, sigma = np.array([columns(r) for r in run_sweep(spec)], dtype=float).T

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
    c = CycleArrays(reference_grid()[::5])
    worst_unit = float(np.max(np.abs(_cf_closed(c, populations(c))(0.0, 0.0) - 1.0)))

    rng = np.random.default_rng(987654321)
    anchors = [
        replace(engine_base(0.1), tau=2.0),
        STRONG_COUPLING,
        replace(scaled_base(0.12), eps_b=1.4),
    ]
    # 100 random (lambda, nu), each at every anchor
    lam, nu = rng.uniform(-3.0, 3.0, size=(100, 2)).repeat(len(anchors), axis=0).T
    c = CycleArrays(anchors * 100)
    pops = populations(c)
    closed = _cf_closed(c, pops)(lam, nu)
    operator = checked(_cf_operator, c, pops, lam, nu)
    worst_form = float(np.max(np.abs(closed - operator)))
    elapsed = time.perf_counter() - start
    passed = worst_unit < CF_UNIT_TOL and worst_form < CF_FORM_TOL
    detail = (
        f"max |F(0,0) - 1| = {worst_unit:.3e} (< 1e-12); "
        f"max |closed - operator| over 100 random (lambda, nu) x {len(anchors)} "
        f"parameter points = {worst_form:.3e} (< 1e-10)"
    )
    return CheckResult("characteristic-function health", passed, detail, elapsed)


def preset_sweeps() -> dict[str, SweepSpec]:
    """The sweep of every preset series, each distinct sweep once.

    Series with equal specs share one entry, labelled ``name/series`` for
    each of them, joined by ``=`` (fig3a/3b/4a/4b/5 are one sweep per
    coupling, and fig10's interaction series is fig2a).
    """
    labels: dict[SweepSpec, list[str]] = {}
    for name, series in PRESETS.items():
        for label, spec in series:
            labels.setdefault(spec, []).append(f"{name}/{label}")
    return {"=".join(names): spec for spec, names in labels.items()}


def check_determinism(specs: dict[str, SweepSpec] | None = None) -> CheckResult:
    """Byte-identical CSV across repeated runs and across pool widths.

    `specs` maps a label to each sweep to check; by default every distinct
    preset sweep.  Since this walks every row anyway, it also enforces the
    per-row residual budget of the requested routes (1e-9 for the closed
    forms, 1e-6 scaled for the characteristic function).
    """
    start = time.perf_counter()
    specs = preset_sweeps() if specs is None else specs
    mismatches = []
    worst_closed = 0.0
    worst_cf = 0.0
    for label, spec in specs.items():
        rows = run_sweep(spec, workers=1)
        first = rows_to_csv(rows)
        if first != rows_to_csv(run_sweep(spec, workers=1)):
            mismatches.append(f"{label}: rerun differs")
        if first != rows_to_csv(run_sweep(spec, workers=2)):
            mismatches.append(f"{label}: pool width changes bytes")
        for row in rows:
            if row.error is not None:
                mismatches.append(f"{label}: row {row.swept_value} failed")
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
        f"{len(specs)} sweep(s), {sum(spec.points for spec in specs.values())} rows "
        f"(rerun + 2-worker pool); row residuals "
        f"closed {worst_closed:.2e}, cf {worst_cf:.2e}; "
        + ("all byte-identical" if not mismatches else "; ".join(mismatches))
    )
    return CheckResult("determinism", not mismatches, detail, elapsed)


QUICK_DETERMINISM_SPEC = SweepSpec(engine_base(0.1), "tau", 0.0, 6.0, 40)


def run_validation(quick: bool = True) -> list[CheckResult]:
    """The invariant suite behind the CLI ``validate`` command.

    Determinism and the row residual budgets are checked on one 40-point
    sweep (quick) or on every distinct preset sweep.  The deliberately red
    extremum-alignment check lives in the acceptance tests with its analysis.
    """
    return [
        check_propagator_equivalence(),
        check_route_equivalence(),
        check_second_law(),
        check_first_law(),
        check_regime_bands(),
        check_squeezing_sanity(),
        check_carnot_bound(),
        check_cf_health(),
        check_determinism({"quick": QUICK_DETERMINISM_SPEC} if quick else None),
    ]
