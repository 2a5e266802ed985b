import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from conftest import random_hermitian
from twostroke.linalg import (
    NOT_HERMITIAN, RowErrors, density_mask, expm_stack, hermitian_mask, unitary_mask,
)
from twostroke.model import SIGMA_X, SIGMA_Z, SX, SZ, CycleArrays, local_levels
from twostroke.propagators import _oracle

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def expm(h, t):
    """exp(-i h t) of one Hermitian matrix, as a stack of one."""
    return expm_stack(np.asarray(h, dtype=complex)[None], np.array([float(t)]))[0]


def taylor_expm(h, t, terms=30):
    """Independent oracle: truncated series for exp(-i h t)."""
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ (-1j * t * h) / k
        out = out + term
    return out


# --- product basis: qubit a in the first kron slot ----------------------------

def test_kron_sigma_z_first_slot():
    # S_z and qubit a's levels put sigma_z / h_a in the first slot
    assert_allclose(
        np.kron(SIGMA_Z, np.eye(2)), np.diag([1, 1, -1, -1]).astype(complex), atol=0
    )
    assert_allclose(SZ, np.diag([1.0, 0.0, 0.0, -1.0]), atol=0)
    e_a, e_b = local_levels(CycleArrays.from_columns(
        eps_a=np.array([0.7]), eps_b=0.3, beta_a=1.0, beta_b=2.0, kappa=0.1, omega=0.5, tau=1.0))
    assert_array_equal(e_a[0], np.diag(np.kron(np.diag([0.0, -0.7]), np.eye(2))))
    assert_array_equal(e_b[0], np.diag(np.kron(np.eye(2), np.diag([0.0, -0.3]))))


def test_kron_sigma_x_both_slots():
    # (2 S_x)^2 = 2 + 2 sigma_x x sigma_x, which exchanges gg <-> ee and ge <-> eg
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
    assert_allclose(np.kron(SIGMA_X, SIGMA_X), expected, atol=0)
    assert_allclose(2.0 * SX @ SX - np.eye(4), expected, atol=0)


# --- expm_stack ---------------------------------------------------------------

def test_expm_zero_time_is_identity(rng):
    h = random_hermitian(rng, 4)
    assert_allclose(expm(h, 0.0), np.eye(4), atol=1e-14)


def test_expm_diagonal_generator():
    t = 0.83
    expected = np.diag([np.exp(-1j * t), np.exp(1j * t)])
    assert_allclose(expm(SIGMA_Z, t), expected, atol=1e-12)


def test_expm_matches_taylor_series(rng):
    h = random_hermitian(rng, 4)
    u = expm(h, 0.7)
    assert np.max(np.abs(u - taylor_expm(h, 0.7))) < 1e-10


def test_expm_matches_scipy(rng):
    from scipy.linalg import expm as scipy_expm

    h = random_hermitian(rng, 4)
    assert_allclose(expm(h, 1.3), scipy_expm(-1.3j * h), atol=1e-12)


def test_expm_is_unitary(rng):
    h = np.stack([random_hermitian(rng, 4) for _ in range(10)])
    assert unitary_mask(expm_stack(h, rng.uniform(0, 10, size=10)), 1e-12).all()


def test_expm_rejects_non_hermitian():
    # expm_stack trusts its caller; the oracle screens its generators with
    # hermitian_mask and fails the rows that are not Hermitian
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert_array_equal(hermitian_mask(np.stack([m, m + m.T])), [False, True])
    c = CycleArrays.from_columns(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0,
                                 kappa=np.array([0.1, np.nan]), omega=0.5, tau=1.0)
    errors = RowErrors()
    u = _oracle(c, False, errors)
    assert list(errors.first) == [1] and str(errors.first[1]) == NOT_HERMITIAN
    assert unitary_mask(u[0])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(finite, min_size=16, max_size=16),
    st.lists(finite, min_size=16, max_size=16),
    st.floats(-5.0, 5.0, allow_nan=False),
    st.floats(-5.0, 5.0, allow_nan=False),
)
def test_expm_group_properties(real, imag, t1, t2):
    m = np.array(real).reshape(4, 4) + 1j * np.array(imag).reshape(4, 4)
    h = 0.5 * (m + m.conj().T)
    u1 = expm(h, t1)
    assert np.max(np.abs(u1 @ expm(h, -t1) - np.eye(4))) < 1e-12
    assert np.max(np.abs(expm(h, t1 + t2) - u1 @ expm(h, t2))) < 1e-11


# --- predicates -------------------------------------------------------------

def test_predicates():
    assert hermitian_mask(SIGMA_X)
    assert not hermitian_mask(np.array([[0, 1], [0, 0]], dtype=complex))
    assert unitary_mask(np.eye(4))
    assert density_mask(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))
    assert not density_mask(np.diag([0.8, 0.8]).astype(complex))
    assert not density_mask(np.diag([1.5, -0.5]).astype(complex))
    # a stack is judged matrix by matrix, a non-finite one among them
    stack = np.stack([np.eye(2) / 2, np.diag([1.5, -0.5]), np.full((2, 2), np.nan)])
    assert_array_equal(density_mask(stack.astype(complex)), [True, False, False])
