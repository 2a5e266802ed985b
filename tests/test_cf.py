"""Characteristic-function route: both forms, moments, and their trace oracle."""

import numpy as np
import pytest

from twostroke.linalg import checked
from twostroke.model import CycleArrays, CycleParams, populations
from twostroke.propagators import PropagatorMode
from twostroke.thermo import (
    NumericalConsistencyError,
    _cf_operator,
    characteristic_function,
    energetics_trace,
    moments_from_cf,
)
from twostroke.validation import reference_grid


def params(**overrides):
    base = dict(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0, kappa=0.1, omega=0.5, tau=2.0)
    base.update(overrides)
    return CycleParams(**base)


def test_normalization_at_origin():
    for p in (params(), params(kappa=1.0, omega=10.0, tau=1.0), params(tau=0.0)):
        for form in ("closed", "operator"):
            assert abs(characteristic_function(p, 0.0, 0.0, form) - 1.0) < 1e-12


def test_no_twisting_makes_cf_flat(rng):
    p = params(kappa=0.0, omega=1.5, tau=4.0)
    for _ in range(10):
        lam, nu = rng.uniform(-5.0, 5.0, size=2)
        assert abs(characteristic_function(p, float(lam), float(nu)) - 1.0) < 1e-14


def test_forms_agree_at_reference_point():
    p = params()
    closed = characteristic_function(p, 0.3, 0.1, "closed")
    operator = characteristic_function(p, 0.3, 0.1, "operator")
    assert abs(closed - operator) < 1e-10


def test_forms_agree_at_random_arguments(rng):
    p = params(tau=7.3)
    for _ in range(50):
        lam, nu = rng.uniform(-3.0, 3.0, size=2)
        closed = characteristic_function(p, float(lam), float(nu), "closed")
        operator = characteristic_function(p, float(lam), float(nu), "operator")
        assert abs(closed - operator) < 1e-10


def test_stacked_operator_form_matches_one_cycle_calls_bit_for_bit(rng):
    grid = reference_grid()[::7]
    lam, nu = rng.uniform(-3.0, 3.0, size=(2, len(grid)))
    c = CycleArrays(grid)
    stacked = checked(_cf_operator, c, populations(c), lam, nu)
    for p, value, l, n in zip(grid, stacked.tolist(), lam.tolist(), nu.tolist()):
        assert characteristic_function(p, l, n, "operator") == value


def test_conjugation_symmetry(rng):
    # F(-lam, -nu) is the conjugate of F(lam, nu): moments come out real
    p = params(tau=5.1)
    for _ in range(10):
        lam, nu = rng.uniform(-3.0, 3.0, size=2)
        f = characteristic_function(p, float(lam), float(nu))
        g = characteristic_function(p, float(-lam), float(-nu))
        assert abs(f - np.conj(g)) < 1e-14


def test_unknown_form_rejected():
    with pytest.raises(ValueError):
        characteristic_function(params(), 0.0, 0.0, form="series")


# --- moments ---------------------------------------------------------------------

def test_first_moments_vanish_without_twisting():
    p = params(kappa=0.0, omega=1.0, tau=3.0)
    assert moments_from_cf(p, 1, 0).value == pytest.approx(0.0, abs=1e-12)
    assert moments_from_cf(p, 0, 1).value == pytest.approx(0.0, abs=1e-12)


def test_first_moments_match_trace_route():
    p = params()
    book = energetics_trace(p, PropagatorMode.INTERACTION_ONLY)
    moments = moments_from_cf(p, 1, 0)
    assert moments.w_mean == pytest.approx(book.w, rel=1e-6, abs=1e-12)
    assert moments.qh_mean == pytest.approx(book.q_hot, rel=1e-6, abs=1e-12)
    assert moments_from_cf(p, 0, 1).value == pytest.approx(book.q_hot, rel=1e-6, abs=1e-12)


def test_first_moments_match_trace_route_across_times():
    for t in np.linspace(0.5, 40.0, 9):
        p = params(tau=float(t))
        book = energetics_trace(p, PropagatorMode.INTERACTION_ONLY)
        moments = moments_from_cf(p, 1, 0)
        assert abs(moments.w_mean - book.w) < 1e-6 * max(1.0, abs(book.w))
        assert abs(moments.qh_mean - book.q_hot) < 1e-6 * max(1.0, abs(book.q_hot))


def test_second_moments_are_sane():
    p = params(tau=6.0)
    w2 = moments_from_cf(p, 2, 0)
    qh2 = moments_from_cf(p, 0, 2)
    cross = moments_from_cf(p, 1, 1)
    # variances are nonnegative, correlations respect Cauchy-Schwarz
    var_w = w2.value - w2.w_mean**2
    var_qh = qh2.value - qh2.qh_mean**2
    assert var_w > -1e-10
    assert var_qh > -1e-10
    cov = cross.value - cross.w_mean * cross.qh_mean
    assert cov**2 <= var_w * var_qh + 1e-10


def test_moment_order_validated():
    with pytest.raises(ValueError):
        moments_from_cf(params(), 0, 0)
    with pytest.raises(ValueError):
        moments_from_cf(params(), 2, 1)


def test_moments_record_steps():
    m = moments_from_cf(params(), 1, 0)
    assert m.lambda_step == m.nu_step == 1e-4
    assert m.order == (1, 0)
    assert isinstance(m.value, float)


def test_imag_residue_guard_exists():
    assert issubclass(NumericalConsistencyError, RuntimeError)
