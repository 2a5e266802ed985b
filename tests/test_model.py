import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from twostroke.linalg import RowErrors, checked, density_mask, hermitian_mask
from twostroke.model import (
    DEGENERATE,
    IDENTITY_4,
    NONNEGATIVE,
    POSITIVE,
    SIGMA_X,
    SX,
    SY,
    SZ,
    CycleArrays,
    CycleParams,
    _gibbs,
    center_gap,
    corner_gap,
    flag_invalid,
    free_generators,
    initial_state,
    interaction_generators,
    local_levels,
    populations,
    require,
    value_rules,
)
from twostroke.propagators import PropagatorMode
from twostroke.sweep import ROUTES, evaluate


BASE = dict(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0, kappa=0.1, omega=0.5, tau=2.0)


def params(**overrides):
    return CycleParams(**{**BASE, **overrides})


def columns(**overrides):
    """BASE as a batch of one row, or of as many rows as the overriding arrays."""
    return CycleArrays.from_columns(**{**BASE, "tau": np.array([BASE["tau"]]), **overrides})


def gibbs(eps, beta):
    """(p_g, p_e) of one qubit."""
    p_g, p_e = _gibbs(np.array([eps]), np.array([beta]))
    return np.array([p_g[0], p_e[0]])


def interaction(kappa, omega):
    """kappa*S_x^2 + omega*S_z of one row."""
    return checked(interaction_generators, np.array([kappa]), np.array([omega]))[0]


# --- CycleParams validation --------------------------------------------------

@pytest.mark.parametrize(
    "overrides",
    [
        {"eps_a": 0.0},
        {"eps_b": -0.4},
        {"beta_a": 0.0},
        {"beta_b": -1.0},
        {"kappa": -0.1},
        {"omega": -0.1},
        {"tau": -1.0},
        {"beta_a": 2.0, "beta_b": 2.0},  # equal temperatures
        {"beta_a": 3.0, "beta_b": 2.0},  # a colder than b
        {"eps_a": float("nan")},
    ],
)
def test_cycle_params_rejects_invalid(overrides):
    with pytest.raises(ValueError):
        params(**overrides)


# One case per validity rule, in order of precedence, with the exact text
# CycleParams has always raised for it.
RULE_CASES = [
    ({"eps_a": math.nan}, "eps_a must be finite, got nan"),
    ({"eps_b": math.inf}, "eps_b must be finite, got inf"),
    ({"beta_a": -math.inf}, "beta_a must be finite, got -inf"),
    ({"beta_b": math.inf}, "beta_b must be finite, got inf"),
    ({"kappa": math.nan}, "kappa must be finite, got nan"),
    ({"omega": -math.inf}, "omega must be finite, got -inf"),
    ({"tau": math.inf}, "tau must be finite, got inf"),
    ({"eps_a": 0.0}, "eps_a must be positive, got 0.0"),
    ({"eps_b": -0.4}, "eps_b must be positive, got -0.4"),
    ({"beta_a": -0.5}, "beta_a must be positive, got -0.5"),
    ({"beta_b": 0.0}, "beta_b must be positive, got 0.0"),
    ({"kappa": -0.1}, "kappa must be nonnegative, got -0.1"),
    ({"omega": -1.0}, "omega must be nonnegative, got -1.0"),
    ({"tau": -2.0}, "tau must be nonnegative, got -2.0"),
    ({"beta_a": 3.0}, "qubit a must be the hot one (beta_a < beta_b), got beta_a=3.0, beta_b=2.0"),
    # two broken rules: finiteness comes before positivity
    ({"eps_a": -1.0, "tau": math.nan}, "tau must be finite, got nan"),
]
VALUE = re.compile(r"(?<=[ =])(nan|-?inf|-?\d+\.\d+)(?=,|$)")


@pytest.mark.parametrize("overrides, message", RULE_CASES)
def test_one_cycle_and_a_column_batch_break_the_same_rule(overrides, message):
    with pytest.raises(ValueError) as scalar:
        params(**overrides)
    assert str(scalar.value) == message
    cycle = {**BASE, **overrides}
    columns = {name: np.array([value]) for name, value in cycle.items()}
    batch = CycleArrays.from_columns(**columns)
    row, = evaluate([0.0], batch, PropagatorMode.INTERACTION_ONLY, ROUTES)
    assert row.error == message and row.w is None
    # the failed row shows the values the rule saw, not some other cycle
    assert_array_equal([getattr(row, name) for name in cycle], list(cycle.values()))
    # the cause is the message with its values taken out
    assert row.cause == VALUE.sub("{!r}", message)


# Rules on single named values run the same rule kinds and texts: finite, then the sign.
@pytest.mark.parametrize(
    "kinds, values, message",
    [
        ({"eps": POSITIVE}, {"eps": math.nan}, "eps must be finite, got nan"),
        ({"eps": POSITIVE, "beta": POSITIVE}, {"eps": 0.0, "beta": 1.0},
         "eps must be positive, got 0.0"),
        ({"eps": POSITIVE, "beta": POSITIVE}, {"eps": -1.0, "beta": math.nan},
         "beta must be finite, got nan"),
        ({"kappa": NONNEGATIVE, "omega": NONNEGATIVE}, {"kappa": -0.1, "omega": 0.5},
         "kappa must be nonnegative, got -0.1"),
        ({"kappa": NONNEGATIVE, "omega": NONNEGATIVE}, {"kappa": 0.1, "omega": -math.inf},
         "omega must be finite, got -inf"),
    ],
    ids=["eps", "thermal-eps", "thermal-beta", "kappa", "omega"],
)
def test_one_value_functions_break_the_cycle_rules(kinds, values, message):
    with pytest.raises(ValueError) as exc:
        require(value_rules(**kinds), **values)
    assert str(exc.value) == message


def test_cycle_params_derived_fields():
    p = params()
    assert p.delta_eps == pytest.approx(0.4)
    assert p.eps_p == pytest.approx(1.6)


# --- local Hamiltonian and thermal states ------------------------------------

def test_local_hamiltonian_values():
    # h = diag(0, -eps), qubit a in the first slot
    e_a, e_b = local_levels(columns(eps_a=np.array([1.0, 0.6]), eps_b=np.array([0.6, 0.3])))
    assert_array_equal(e_a, [[0.0, 0.0, -1.0, -1.0], [0.0, 0.0, -0.6, -0.6]])
    assert_array_equal(e_b, [[0.0, -0.6, 0.0, -0.6], [0.0, -0.3, 0.0, -0.3]])


def test_local_hamiltonian_gap():
    gaps = np.array([0.3, 1.0, 7.5])
    for levels in local_levels(columns(eps_a=gaps, eps_b=gaps)):
        assert_allclose(levels.max(axis=1) - levels.min(axis=1), gaps, rtol=1e-15)


def test_local_hamiltonian_rejects_nonpositive():
    errors = RowErrors()
    flag_invalid(columns(eps_a=np.array([0.0, -1.0, 1.0])), errors)
    assert [str(errors.first[i]) for i in sorted(errors.first)] == [
        "eps_a must be positive, got 0.0", "eps_a must be positive, got -1.0"]


def test_thermal_state_infinite_temperature_limit():
    assert_allclose(gibbs(1.0, 1e-12), [0.5, 0.5], atol=1e-9)


def test_thermal_state_gibbs_weights():
    # scalar oracle: populations (1/Z, e/Z) with Z = 1 + e
    z = 1.0 + math.e
    pops = gibbs(1.0, 1.0)
    assert_allclose(pops, [1.0 / z, math.e / z], atol=1e-15)
    assert_allclose(pops, [0.26894, 0.73106], atol=1e-5)
    assert density_mask(np.diag(pops).astype(complex), 1e-14)


def test_thermal_state_ground_state_limit():
    # the -eps level saturates at low temperature
    assert_allclose(gibbs(1.0, 50.0), [0.0, 1.0], atol=1e-9)


def test_thermal_state_survives_extreme_beta():
    p_g, p_e = gibbs(1.0, 5000.0)
    assert p_g == 0.0 and p_e == 1.0


# --- collective operators -----------------------------------------------------

def test_collective_sz_spectrum():
    assert_allclose(SZ, np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex), atol=0)


def test_collective_sx_squared():
    # expansion of ((sigma_x x I + I x sigma_x)/2)^2 by Pauli algebra
    expected = 0.5 * (IDENTITY_4 + np.kron(SIGMA_X, SIGMA_X))
    assert_allclose(SX @ SX, expected, atol=1e-15)


def test_collective_su2_commutator():
    comm = SX @ SY - SY @ SX
    assert np.max(np.abs(comm - 1j * SZ)) < 1e-14


# --- interaction and free Hamiltonians ----------------------------------------

def test_interaction_field_only():
    assert_allclose(interaction(0.0, 2.0), 2.0 * np.diag([1.0, 0.0, 0.0, -1.0]), atol=0)


def test_interaction_twisting_only():
    expected = 0.5 * 0.7 * (IDENTITY_4 + np.kron(SIGMA_X, SIGMA_X))
    assert_allclose(interaction(0.7, 0.0), expected, atol=1e-15)


def test_interaction_block_structure():
    h = interaction(1.0, 10.0)
    assert hermitian_mask(h, 1e-14)
    # no matrix elements between the {gg, ee} and {ge, eg} blocks
    for i in (0, 3):
        for j in (1, 2):
            assert h[i, j] == 0 and h[j, i] == 0


def test_interaction_rejects_degenerate():
    errors = RowErrors()
    interaction_generators(np.array([0.0, 0.1, 0.0]), np.array([0.0, 0.0, 0.5]), errors)
    assert list(errors.first) == [0] and str(errors.first[0]) == DEGENERATE
    with pytest.raises(ValueError, match="degenerate"):
        interaction(0.0, 0.0)


def test_free_hamiltonian_diagonal():
    h = free_generators(columns())[0]
    assert_allclose(h, np.diag([0.0, -0.6, -1.0, -1.6]).astype(complex), atol=1e-15)
    assert hermitian_mask(h, 1e-14)


def test_free_hamiltonian_commutators():
    h0 = free_generators(columns())[0]
    h_field = interaction(0.0, 0.5)
    assert np.max(np.abs(h0 @ h_field - h_field @ h0)) == 0.0
    h_twist = interaction(0.1, 0.5)
    assert np.max(np.abs(h0 @ h_twist - h_twist @ h0)) > 1e-3


# --- initial state -------------------------------------------------------------

def test_initial_state_is_uncorrelated_product():
    p = CycleParams(eps_a=1.0, eps_b=0.5, beta_a=1.0, beta_b=2.0, kappa=1.0, omega=10.0, tau=1.0)
    rho = initial_state(p)
    pops = populations(CycleArrays([p]))[0]
    assert density_mask(rho, 1e-14)
    assert np.max(np.abs(rho - np.diag(pops))) == 0.0
    assert np.all((pops > 0) & (pops < 1))
    assert pops.sum() == pytest.approx(1.0, abs=1e-14)
    assert_allclose(pops, np.kron(gibbs(p.eps_a, p.beta_a), gibbs(p.eps_b, p.beta_b)), atol=1e-16)


def test_initial_state_mean_transverse_spin_vanishes():
    rho = initial_state(params())
    assert abs(np.trace(SX @ rho)) == 0.0
    assert abs(np.trace(SY @ rho)) == 0.0


def test_swap_symmetric_product_of_equal_thermal_states():
    # with identical gaps and temperatures the product state is swap invariant
    zeta = np.diag(gibbs(1.0, 1.3)).astype(complex)
    rho = np.kron(zeta, zeta)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.max(np.abs(swap @ rho @ swap - rho)) == 0.0


def test_population_gaps():
    def pops(p):
        return populations(CycleArrays([p]))[0]

    p = params()
    # raw partition functions Z = 1 + exp(beta*eps)
    za = 1.0 + math.exp(p.beta_a * p.eps_a)
    zb = 1.0 + math.exp(p.beta_b * p.eps_b)
    assert za > 2.0 and zb > 2.0
    zbar = corner_gap(pops(p))
    assert zbar == pytest.approx(1.0 - 1.0 / za - 1.0 / zb, abs=1e-15)
    assert 0.0 <= zbar < 1.0
    # center gap follows the sign of beta_a*eps_a - beta_b*eps_b
    assert center_gap(pops(p)) < 0.0  # 1.0 < 1.2
    assert center_gap(pops(params(eps_b=0.3))) > 0.0
