import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from conftest import random_hermitian
from twostroke.linalg import checked, dagger, expm_stack, unitary_mask
from twostroke.model import CycleArrays, CycleParams, initial_state
from twostroke.propagators import (
    PropagatorMode,
    _closed,
    align_global_phase,
    closed_vs_oracle_residuals,
    evolve,
    propagator,
)
from twostroke.validation import reference_grid

ALL_MODES = tuple(PropagatorMode)
INTERACTION, FULL = PropagatorMode.INTERACTION_ONLY, PropagatorMode.FULL
ORACLE_INTERACTION, ORACLE_FULL = PropagatorMode.ORACLE_INTERACTION, PropagatorMode.ORACLE_FULL


def params(**overrides):
    base = dict(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0, kappa=0.1, omega=0.5, tau=2.0)
    base.update(overrides)
    return CycleParams(**base)


def verbatim(p, include_free):
    """One cycle's closed-form unitary with the published constants."""
    return checked(_closed, CycleArrays([p]), include_free, "verbatim")[0]


# --- trivial limits -----------------------------------------------------------

def test_zero_time_gives_identity():
    p = params(tau=0.0)
    for mode in ALL_MODES:
        assert_allclose(propagator(p, mode), np.eye(4), atol=1e-14)


def test_field_only_oracle_is_diagonal():
    # kappa = 0: generator omega*S_z with S_z eigenvalues (1, 0, 0, -1)
    p = params(kappa=0.0, omega=0.7, tau=1.9)
    expected = np.diag(np.exp(-1j * 0.7 * 1.9 * np.array([1.0, 0.0, 0.0, -1.0])))
    assert_allclose(propagator(p, ORACLE_INTERACTION), expected, atol=1e-13)
    assert_allclose(propagator(p, INTERACTION), expected, atol=1e-13)


def test_no_twisting_kills_entangling_entries():
    u = propagator(params(kappa=0.0, omega=0.7, tau=3.0), INTERACTION)
    assert_allclose(u[1:3, 1:3], np.eye(2), atol=1e-14)
    assert u[0, 3] == 0 and u[3, 0] == 0


def test_degenerate_generator_rejected():
    p = params(kappa=0.0, omega=0.0)
    with pytest.raises(ValueError):
        propagator(p, INTERACTION)
    with pytest.raises(ValueError):
        propagator(p, FULL)


# --- closed forms vs the matrix-exponential oracle ----------------------------

def test_interaction_closed_matches_oracle_strong_coupling():
    p = params(eps_b=0.5, kappa=1.0, omega=10.0, tau=1.0)
    diff = propagator(p, INTERACTION) - propagator(p, ORACLE_INTERACTION)
    assert np.max(np.abs(diff)) < 1e-10


def test_full_closed_matches_oracle_after_phase_alignment():
    for r in np.linspace(0.05, 2.0, 17):
        p = params(eps_b=float(r), kappa=0.1, omega=1.0, tau=0.1)
        oracle = propagator(p, ORACLE_FULL)
        aligned = align_global_phase(propagator(p, FULL), oracle)
        assert np.max(np.abs(aligned - oracle)) < 1e-10


def test_closed_matches_oracle_on_reference_grid():
    worst_int = worst_full = 0.0
    for p in reference_grid():
        oracle_int = propagator(p, ORACLE_INTERACTION)
        oracle_full = propagator(p, ORACLE_FULL)
        u_int = propagator(p, INTERACTION)
        u_full = align_global_phase(propagator(p, FULL), oracle_full)
        worst_int = max(worst_int, float(np.max(np.abs(u_int - oracle_int))))
        worst_full = max(worst_full, float(np.max(np.abs(u_full - oracle_full))))
    assert worst_int < 1e-10
    assert worst_full < 1e-10


def test_full_reduces_to_interaction_in_vanishing_gap_limit():
    # delta_eps -> 0 and eps_p -> 0 cannot be reached exactly (gaps must stay
    # positive); tiny gaps approach the interaction-only assembly linearly
    p = params(eps_a=1e-8, eps_b=1e-8, kappa=0.4, omega=0.9, tau=1.3)
    diff = propagator(p, FULL) - propagator(p, INTERACTION)
    assert np.max(np.abs(diff)) < 5e-7


# --- invariants ----------------------------------------------------------------

def test_unitarity_and_block_sparsity_everywhere():
    for p in reference_grid()[::7]:
        for mode in ALL_MODES:
            u = propagator(p, mode)
            assert unitary_mask(u, 1e-12)
            for i in (0, 3):
                for j in (1, 2):
                    assert abs(u[i, j]) < 1e-14
                    assert abs(u[j, i]) < 1e-14


def test_composition_in_time():
    base = params(tau=0.0)
    for mode in (PropagatorMode.INTERACTION_ONLY, PropagatorMode.FULL):
        for t1, t2 in ((0.3, 1.4), (2.0, 5.5)):
            u1 = propagator(replace(base, tau=t1), mode)
            u2 = propagator(replace(base, tau=t2), mode)
            u12 = propagator(replace(base, tau=t1 + t2), mode)
            assert np.max(np.abs(u12 - u2 @ u1)) < 1e-11


def test_closed_form_block_frequencies():
    # an off-diagonal entry of a block turning at gamma has modulus
    # kappa*|sin(gamma*tau/2)|/gamma
    p = params(kappa=0.3, omega=0.8, tau=2.3)

    def amplitude(gamma):
        return 0.3 * abs(np.sin(0.5 * gamma * p.tau)) / gamma

    u = propagator(p, INTERACTION)
    assert abs(u[0, 3]) == pytest.approx(amplitude(np.hypot(0.3, 1.6)))
    u = verbatim(p, False)
    assert abs(u[0, 3]) == pytest.approx(amplitude(np.hypot(0.3, 0.8)))
    u = propagator(p, FULL)
    assert abs(u[0, 3]) == pytest.approx(amplitude(np.hypot(0.3, 1.6 + p.eps_p)))
    for u in (propagator(p, FULL), verbatim(p, True)):
        assert abs(u[1, 2]) == pytest.approx(amplitude(np.hypot(0.3, p.delta_eps)))
    u = verbatim(p, True)
    assert abs(u[0, 3]) == pytest.approx(amplitude(np.hypot(0.3, 0.8 - 0.5 * p.eps_p)))


def test_verbatim_constants_disagree_with_oracle():
    # the published corner constants sit far from the exact block dynamics;
    # the corrected assembly is the one pinned to the oracle
    res = closed_vs_oracle_residuals(params(eps_b=0.5, kappa=1.0, omega=10.0, tau=1.0))
    assert res["interaction_corrected"] < 1e-12
    assert res["full_corrected"] < 1e-12
    assert res["interaction_verbatim"] > 1e-2
    assert res["full_verbatim"] > 1e-2
    # with no transverse field both corner frequencies coincide
    res0 = closed_vs_oracle_residuals(params(omega=0.0, kappa=0.5, tau=3.0))
    assert res0["interaction_verbatim"] < 1e-12


def test_phase_alignment_rejects_mismatched_shapes():
    for u, reference in ((np.eye(2), np.eye(4)), (np.eye(4), np.eye(2))):
        with pytest.raises(ValueError, match="dimensions differ"):
            align_global_phase(u, reference)


# --- evolve ---------------------------------------------------------------------

def test_evolve_identity_and_commuting():
    p = params()
    rho0 = initial_state(p)
    assert_allclose(evolve(rho0, np.eye(4)), rho0, atol=0)
    diag_u = np.diag(np.exp(-1j * np.array([0.1, 0.2, 0.3, 0.4])))
    assert_allclose(evolve(rho0, diag_u), rho0, atol=1e-16)


def test_evolve_preserves_spectrum_and_trace(rng):
    p = params()
    rho0 = initial_state(p)
    for _ in range(5):
        u = expm_stack(random_hermitian(rng, 4)[None], rng.uniform(0, 3, size=1))[0]
        rho = evolve(rho0, u)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        got = np.linalg.eigvalsh(rho)
        want = np.sort(np.diag(rho0).real)
        assert np.max(np.abs(got - want)) < 1e-10


def test_evolve_rejects_non_unitary():
    p = params()
    with pytest.raises(ValueError):
        evolve(initial_state(p), np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex))
    with pytest.raises(ValueError):
        evolve(np.diag([0.7, 0.5, 0.0, 0.0]).astype(complex), np.eye(4))


def test_evolved_state_is_physical():
    p = params(tau=7.7)
    rho = evolve(initial_state(p), propagator(p, FULL))
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(0.5 * (rho + dagger(rho))).min() > -1e-12
