import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from twostroke import validation
from twostroke.model import SX, SY, CycleParams, initial_state
from twostroke.linalg import checked
from twostroke.propagators import PropagatorMode, evolve, evolved_states, propagator
from twostroke.squeezing import (
    l1_coherence,
    variance_orthogonal,
    xi_closed_form,
    xi_general,
)
from twostroke.validation import _grid_search_min_variance, reference_grid


def params(**overrides):
    base = dict(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0, kappa=0.1, omega=0.5, tau=2.0)
    base.update(overrides)
    return CycleParams(**base)


def evolved(p, mode=PropagatorMode.INTERACTION_ONLY):
    return evolve(initial_state(p), propagator(p, mode))


def brute_force_min_variance(rho, angles=10_000):
    """Independent oracle: trace of the squared spin component at each angle,
    then a bounded scalar minimization around the best sample."""
    def var_at(phi):
        s = math.cos(phi) * SX + math.sin(phi) * SY
        return float(np.trace(s @ s @ rho).real)

    grid = np.linspace(0.0, math.pi, angles, endpoint=False)
    s = np.cos(grid)[:, None, None] * SX + np.sin(grid)[:, None, None] * SY
    values = np.einsum("aij,ji->a", s @ s, rho).real
    best = int(np.argmin(values))
    step = math.pi / angles
    result = minimize_scalar(
        var_at, bounds=(grid[best] - step, grid[best] + step), method="bounded",
        options={"xatol": 1e-14},
    )
    return min(values[best], float(result.fun))


# --- xi_general -----------------------------------------------------------------

def test_product_thermal_state_is_unsqueezed():
    report = xi_general(initial_state(params()))
    assert report.xi == pytest.approx(1.0, abs=1e-12)
    assert report.delta_min == pytest.approx(0.5, abs=1e-12)
    assert report.coherence_l1 == 0.0


def test_no_twisting_no_squeezing():
    rho = evolved(params(kappa=0.0, omega=0.8, tau=13.0))
    assert xi_general(rho).xi == pytest.approx(1.0, abs=1e-10)


def test_squeezing_dips_along_the_time_axis():
    taus = np.linspace(0.0, 60.0, 601)
    xis = np.array([xi_general(evolved(params(tau=float(t)))).xi for t in taus])
    assert xis.min() < 0.92
    interior_minima = [
        i for i in range(1, len(xis) - 1)
        if xis[i] < xis[i - 1] and xis[i] < xis[i + 1] and xis[i] < 0.95
    ]
    assert len(interior_minima) >= 3


def test_xi_equals_twice_minimized_variance():
    report = xi_general(evolved(params(tau=3.1)))
    assert report.xi == pytest.approx(2.0 * report.delta_min, abs=1e-14)


def test_msd_violation_raises_with_operator_name():
    plus_x = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    rho = np.kron(plus_x, np.diag([0.3, 0.7]))
    with pytest.raises(ValueError, match="S_x"):
        xi_general(rho)
    with pytest.raises(ValueError, match="S_z"):
        xi_general(np.eye(4, dtype=complex) / 4.0)


def test_rotation_about_z_leaves_xi_invariant(rng):
    rho = evolved(params(tau=3.1))
    base = xi_general(rho).xi
    for _ in range(8):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.diag(np.exp(-1j * theta * np.array([1.0, 0.0, 0.0, -1.0])))
        assert abs(xi_general(rot @ rho @ rot.conj().T).xi - base) < 1e-10


# --- variance_orthogonal ----------------------------------------------------------

def test_variance_constant_for_uncorrelated_state():
    rho = initial_state(params())
    for phi in np.linspace(0.0, math.pi, 7):
        assert variance_orthogonal(rho, float(phi)) == pytest.approx(0.5, abs=1e-12)


def test_variance_at_optimal_angle_is_the_minimum():
    rho = evolved(params(tau=3.1))
    report = xi_general(rho)
    assert 0.0 <= report.phi_opt < math.pi
    assert variance_orthogonal(rho, report.phi_opt) == pytest.approx(
        report.delta_min, abs=1e-12
    )


def test_grid_search_oracle_matches_analytic_minimum(rng):
    for _ in range(6):
        p = params(
            kappa=float(rng.uniform(0.05, 1.0)),
            omega=float(rng.uniform(0.1, 2.0)),
            tau=float(rng.uniform(0.5, 20.0)),
        )
        rho = evolved(p)
        report = xi_general(rho)
        assert abs(report.delta_min - brute_force_min_variance(rho)) < 1e-9


def wrap_around_state():
    """A state whose optimal angle lies just below pi, i.e. in the coarse
    grid's wrap-around cell around phi = 0 (a rotation about z puts it there)."""
    rho = evolved(params(tau=7.0))
    theta = (math.pi - 1e-5) - xi_general(rho).phi_opt
    rot = np.diag(np.exp(-1j * theta * np.array([1.0, 0.0, 0.0, -1.0])))
    return rot @ rho @ rot.conj().T


def test_validation_grid_search_matches_analytic_minimum():
    states = [evolved(params(tau=t)) for t in (0.7, 3.1, 9.4)] + [wrap_around_state()]
    assert xi_general(states[-1]).phi_opt > math.pi - 1e-4
    for rho, brute in zip(states, _grid_search_min_variance(np.array(states))):
        assert abs(xi_general(rho).delta_min - brute) < 1e-12


def whole_stack_squared_components(phi):
    s_phi = np.cos(phi)[:, None, None] * SX + np.sin(phi)[:, None, None] * SY
    return (s_phi @ s_phi).reshape(len(phi), 16)


def whole_stack_min_variance(states):
    """The grid-search oracle as it was before it streamed its angles: the
    whole 10,000-angle S_phi^2 stack at once, each state contracted on its own."""
    phi = np.linspace(0.0, math.pi, 10_000, endpoint=False)
    coarse = whole_stack_squared_components(phi)
    step = phi[1] - phi[0]
    minima = np.empty(len(states))
    for k, rho in enumerate(states):
        # tr(S rho) = sum_ij S_ij rho_ji; einsum, not a threaded BLAS matrix-vector call
        flat = rho.T.reshape(16)
        variances = np.einsum("ai,i->a", coarse, flat).real
        best = int(np.argmin(variances))
        cell = whole_stack_squared_components(
            np.linspace(phi[best] - step, phi[best] + step, 1001))
        minima[k] = min(variances[best], float(np.min(np.einsum("ai,i->a", cell, flat).real)))
    return minima


def heap_peak(function, *args):
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_grid_search_is_bit_identical_and_holds_half_the_heap():
    # the states check_squeezing_sanity samples, and the wrap-around cell
    c, pops = validation._reference_cycles()
    states = checked(evolved_states, c, pops, PropagatorMode.INTERACTION_ONLY)
    states = np.concatenate([states[::max(1, len(c) // 40)], [wrap_around_state()]])
    assert len(states) == 41
    assert np.array_equal(_grid_search_min_variance(states), whole_stack_min_variance(states))
    streamed = heap_peak(_grid_search_min_variance, states)
    assert streamed <= heap_peak(whole_stack_min_variance, states) / 2


def test_minimized_variance_is_a_lower_bound():
    rho = evolved(params(tau=9.4))
    report = xi_general(rho)
    assert report.delta_min >= 0.0
    for phi in np.linspace(0.0, math.pi, 1000, endpoint=False):
        assert variance_orthogonal(rho, float(phi)) - report.delta_min >= -1e-12


# --- closed form -------------------------------------------------------------------

def test_closed_form_exact_limits():
    assert xi_closed_form(params(kappa=0.0)) == 1.0
    assert xi_closed_form(params(tau=0.0)) == 1.0


def test_closed_form_matches_evolved_state():
    for t in np.linspace(0.1, 50.0, 23):
        p = params(tau=float(t))
        assert abs(xi_closed_form(p) - xi_general(evolved(p)).xi) < 1e-8


def test_closed_form_bounded_on_grid():
    for p in reference_grid()[::5]:
        assert xi_closed_form(p) <= 1.0 + 1e-12


def test_verbatim_closed_form_differs():
    # published constants give a visibly different curve at the engine point
    p = params(tau=3.1)
    assert abs(xi_closed_form(p) - xi_closed_form(p, "verbatim")) > 1e-3


# --- l1 coherence -------------------------------------------------------------------

def test_diagonal_states_carry_no_coherence():
    assert l1_coherence(initial_state(params())) == 0.0
    assert l1_coherence(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)) == 0.0


def test_bell_state_coherence():
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1.0 / math.sqrt(2.0)
    rho = np.outer(vec, vec.conj())
    assert l1_coherence(rho) == pytest.approx(1.0, abs=1e-14)


def test_one_qubit_matrices_are_rejected_as_two_qubit_states():
    for function in (l1_coherence, xi_general):
        with pytest.raises(ValueError, match=r"expected a two-qubit \(4x4\) state"):
            function(np.eye(2) / 2)


def test_coherence_maxima_track_squeezing_minima():
    # companion grid at 301 points: the one-grid-step alignment metric is
    # resolution-bound (the slow |sin(kappa*tau)| term drifts the coherence
    # maxima by ~0.15 in tau, i.e. below one step only for steps >= 0.2)
    taus = np.linspace(0.0, 60.0, 301)
    xis, cohs = [], []
    for t in taus:
        report = xi_general(evolved(params(tau=float(t))))
        xis.append(report.xi)
        cohs.append(report.coherence_l1)
    xis, cohs = np.array(xis), np.array(cohs)
    xi_minima = [i for i in range(1, 300) if xis[i] < xis[i - 1] and xis[i] < xis[i + 1]]
    coh_maxima = [i for i in range(1, 300) if cohs[i] > cohs[i - 1] and cohs[i] > cohs[i + 1]]
    assert len(xi_minima) >= 8 and len(coh_maxima) >= 8
    for i in coh_maxima:
        assert min(abs(i - j) for j in xi_minima) <= 1
    for j in xi_minima:
        assert min(abs(j - i) for i in coh_maxima) <= 1
