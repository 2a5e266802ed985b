import numpy as np
import pytest
from scipy.optimize import brentq

from twostroke.linalg import checked
from twostroke.model import CycleParams, initial_state
from twostroke.propagators import PropagatorMode
from twostroke.squeezing import variance_orthogonal
from twostroke.thermo import (
    Regime,
    _regimes,
    carnot_efficiency,
    characteristic_function,
    classify_regime,
    closed_sigma_terms,
    energetics_closed,
    energetics_trace,
    entropy_production,
    otto_efficiency,
)
from twostroke.validation import reference_grid


def params(**overrides):
    base = dict(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0, kappa=0.1, omega=0.5, tau=2.0)
    base.update(overrides)
    return CycleParams(**base)


FIG2 = dict(eps_a=1.0, beta_a=1.0, beta_b=2.0, kappa=1.0, omega=10.0, tau=1.0)


# --- regime classification ------------------------------------------------------

def test_classify_engine():
    assert classify_regime(-0.1, 0.25, -0.15) is Regime.ENGINE


def test_classify_refrigerator():
    assert classify_regime(0.1, -0.25, 0.15) is Regime.REFRIGERATOR


def test_classify_accelerator():
    assert classify_regime(0.1, 0.05, -0.15) is Regime.ACCELERATOR


def test_classify_dead_band_is_other():
    assert classify_regime(0.0, 0.0, 0.0) is Regime.OTHER
    assert classify_regime(1e-13, 1e-13, -2e-13) is Regime.OTHER


def test_classify_rejects_first_law_violation():
    with pytest.raises(ValueError):
        classify_regime(0.3, 0.3, 0.3)
    # the bound scales with the energies, but an infinite total still fails
    assert classify_regime(-1e8, 3e8, -2e8 + 1e-7) is Regime.ENGINE
    infinite = (np.array([x]) for x in (np.inf, 0.0, 0.0))
    with pytest.raises(ValueError, match="first-law violation"):
        checked(_regimes, *infinite)


# The one-row functions reject a non-finite scalar argument by name; the batch
# kernels they run stay free of the check, so no sweep row's text changes.
@pytest.mark.parametrize(
    "function, args, message",
    [
        (classify_regime, (np.nan, 1.0, -1.0), "w must be finite, got nan"),
        (classify_regime, (np.inf, -np.inf, 0.0), "w must be finite, got inf"),
        (classify_regime, (-0.1, 0.25, np.nan), "q_cold must be finite, got nan"),
        (characteristic_function, (params(), np.nan, 0.0), "lam must be finite, got nan"),
        (characteristic_function, (params(), 0.0, -np.inf), "nu must be finite, got -inf"),
        (variance_orthogonal, (initial_state(params()), np.nan), "phi must be finite, got nan"),
    ],
    ids=["w-nan", "w-inf", "q_cold", "lam", "nu", "phi"],
)
def test_one_row_functions_reject_non_finite_scalars(function, args, message):
    with pytest.raises(ValueError) as exc:
        function(*args)
    assert str(exc.value) == message


# --- trace route ------------------------------------------------------------------

def test_zero_time_cycle_is_inert():
    book = energetics_trace(params(tau=0.0))
    assert book.w == book.q_hot == book.q_cold == 0.0
    assert book.sigma == 0.0
    assert book.regime is Regime.OTHER
    assert book.power == 0.0 and book.degenerate
    assert book.eta is None


def test_no_twisting_moves_no_energy():
    book = energetics_trace(params(kappa=0.0, omega=3.0, tau=11.0))
    for value in (book.w, book.q_hot, book.q_cold, book.sigma):
        assert abs(value) < 1e-14


def test_three_regimes_across_the_gap_ratio():
    seen = []
    for r in np.linspace(0.05, 2.0, 120):
        book = energetics_trace(CycleParams(eps_b=float(r), **FIG2))
        if not seen or seen[-1] != book.regime:
            seen.append(book.regime)
    assert Regime.REFRIGERATOR in seen and Regime.ENGINE in seen and Regime.ACCELERATOR in seen
    # refrigerator opens the sweep, accelerator closes it, engine in between
    named = [reg for reg in seen if reg is not Regime.OTHER]
    assert named[0] is Regime.REFRIGERATOR
    assert named[-1] is Regime.ACCELERATOR
    assert 0 < named.index(Regime.ENGINE) < len(named) - 1


def test_band_edges_match_sign_change_roots():
    # root-finding oracle on the trace route: the refrigerator band ends at
    # the cold-heat sign change, the engine band is bracketed by the work
    # sign changes, and the hot heat flips inside the crossover zone between
    def w_of(r):
        return energetics_trace(CycleParams(eps_b=float(r), **FIG2)).w

    def qh_of(r):
        return energetics_trace(CycleParams(eps_b=float(r), **FIG2)).q_hot

    def qc_of(r):
        return energetics_trace(CycleParams(eps_b=float(r), **FIG2)).q_cold

    r_qc = brentq(qc_of, 0.3, 0.7, xtol=1e-12)
    r_qh = brentq(qh_of, 0.3, 0.7, xtol=1e-12)
    r_w_lo = brentq(w_of, r_qh, 0.7, xtol=1e-12)
    r_w_hi = brentq(w_of, 0.7, 1.2, xtol=1e-12)
    assert r_qc < r_qh < r_w_lo < r_w_hi

    grid = np.linspace(0.05, 2.0, 400)
    regimes = [energetics_trace(CycleParams(eps_b=float(r), **FIG2)).regime for r in grid]
    step = grid[1] - grid[0]
    engine = [r for r, reg in zip(grid, regimes) if reg is Regime.ENGINE]
    assert abs(engine[0] - r_w_lo) < step
    assert abs(engine[-1] - r_w_hi) < step
    refrigerator = [r for r, reg in zip(grid, regimes) if reg is Regime.REFRIGERATOR]
    assert abs(refrigerator[-1] - r_qc) < step


# --- closed route -------------------------------------------------------------------

def test_closed_matches_trace_on_grid():
    worst = 0.0
    for p in reference_grid()[::3]:
        trace = energetics_trace(p, PropagatorMode.INTERACTION_ONLY)
        closed = energetics_closed(p)
        for attr in ("w", "q_hot", "q_cold", "sigma"):
            worst = max(worst, abs(getattr(trace, attr) - getattr(closed, attr)))
    assert worst < 1e-9


def test_closed_form_balanced_gaps_leave_only_corner_term():
    # beta_a*eps_a = beta_b*eps_b kills the center-block factor
    p = params(eps_b=0.5)
    book = energetics_closed(p)
    corner, center = closed_sigma_terms(p)
    assert center == 0.0
    assert book.sigma == pytest.approx(corner, abs=1e-16)
    assert book.w == pytest.approx(-p.eps_p / p.eps_a * book.q_hot, abs=1e-15)


def test_closed_form_no_twisting_is_zero():
    book = energetics_closed(params(kappa=0.0))
    assert book.w == 0.0 and book.q_hot == 0.0 and book.q_cold == 0.0 and book.sigma == 0.0


def test_closed_sigma_terms_individually_nonnegative():
    for p in reference_grid()[::3]:
        corner, center = closed_sigma_terms(p)
        assert corner >= 0.0
        assert center >= -1e-16


# --- entropy production and laws ------------------------------------------------------

def test_sigma_formulations_agree():
    for p in reference_grid()[::5]:
        book = energetics_trace(p)
        direct = entropy_production(book.w, book.q_hot, p)
        weighted = -p.beta_a * book.q_hot - p.beta_b * book.q_cold
        assert abs(book.sigma - direct) == 0.0
        assert abs(direct - weighted) < 1e-12


def test_laws_of_thermodynamics_on_grid():
    for p in reference_grid()[::5]:
        for mode in (PropagatorMode.INTERACTION_ONLY, PropagatorMode.FULL):
            book = energetics_trace(p, mode)
            assert abs(book.w + book.q_hot + book.q_cold) < 1e-12
            assert book.sigma >= -1e-12


# --- performance -----------------------------------------------------------------------

def test_reference_efficiencies():
    p = params()
    assert carnot_efficiency(p) == pytest.approx(0.5)
    assert otto_efficiency(p) == pytest.approx(0.4)


def test_engine_point_efficiency_arithmetic():
    p = params(tau=30.0)
    book = energetics_trace(p)
    assert book.regime is Regime.ENGINE
    assert book.eta == pytest.approx(-book.w / book.q_hot)
    assert book.power == pytest.approx(-book.w / 30.0)
    assert carnot_efficiency(p) == pytest.approx(0.5)
    assert otto_efficiency(p) == pytest.approx(0.4)


def test_efficiency_absent_outside_engine():
    p = params(eps_b=0.2, tau=5.0)
    book = energetics_trace(p)
    assert book.regime is not Regime.ENGINE
    assert book.eta is None


def test_carnot_bound_on_engine_points():
    for p in reference_grid()[::3]:
        book = energetics_trace(p)
        if book.regime is Regime.ENGINE:
            assert book.eta <= carnot_efficiency(p) + 1e-9


def test_power_sign_convention():
    # engine points extract work: w < 0, power > 0
    book = energetics_trace(params(tau=30.0))
    assert book.w < 0.0 and book.power > 0.0
    assert book.power == pytest.approx(-book.w / 30.0)
