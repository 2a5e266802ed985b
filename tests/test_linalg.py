import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from conftest import random_hermitian
from twostroke.linalg import (
    expm_unitary,
    is_density,
    is_hermitian,
    is_unitary,
    kron,
)
from twostroke.model import IDENTITY_2, SIGMA_X, SIGMA_Z

finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _matrix_2x2(draw_real, draw_imag):
    return np.array(draw_real, dtype=float).reshape(2, 2) + 1j * np.array(
        draw_imag, dtype=float
    ).reshape(2, 2)


def taylor_expm(h, t, terms=30):
    """Independent oracle: truncated series for exp(-i h t)."""
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ (-1j * t * h) / k
        out = out + term
    return out


# --- kron -------------------------------------------------------------------

def test_kron_identity():
    assert_allclose(kron(IDENTITY_2, IDENTITY_2), np.eye(4), atol=0)


def test_kron_sigma_z_first_slot():
    assert_allclose(kron(SIGMA_Z, IDENTITY_2), np.diag([1, 1, -1, -1]).astype(complex), atol=0)


def test_kron_sigma_x_both_slots():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
    assert_allclose(kron(SIGMA_X, SIGMA_X), expected, atol=0)


def test_kron_rejects_wrong_dimensions():
    with pytest.raises(ValueError):
        kron(np.eye(4), np.eye(2))
    with pytest.raises(ValueError):
        kron(np.eye(2), np.eye(3))


@given(
    st.lists(finite, min_size=4, max_size=4),
    st.lists(finite, min_size=4, max_size=4),
    st.lists(finite, min_size=4, max_size=4),
    st.lists(finite, min_size=4, max_size=4),
)
def test_kron_bilinear_and_trace_multiplicative(ar, ai, br, bi):
    a = _matrix_2x2(ar, ai)
    b = _matrix_2x2(br, bi)
    assert_allclose(kron(a + b, b), kron(a, b) + kron(b, b), atol=1e-12)
    assert_allclose(kron(a, 2.5 * b), 2.5 * kron(a, b), atol=1e-12)
    assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


# --- expm_unitary -----------------------------------------------------------

def test_expm_zero_time_is_identity(rng):
    h = random_hermitian(rng, 4)
    assert_allclose(expm_unitary(h, 0.0), np.eye(4), atol=1e-14)


def test_expm_diagonal_generator():
    t = 0.83
    expected = np.diag([np.exp(-1j * t), np.exp(1j * t)])
    assert_allclose(expm_unitary(SIGMA_Z, t), expected, atol=1e-12)


def test_expm_matches_taylor_series(rng):
    h = random_hermitian(rng, 4)
    u = expm_unitary(h, 0.7)
    assert np.max(np.abs(u - taylor_expm(h, 0.7))) < 1e-10


def test_expm_matches_scipy(rng):
    from scipy.linalg import expm as scipy_expm

    h = random_hermitian(rng, 4)
    assert_allclose(expm_unitary(h, 1.3), scipy_expm(-1.3j * h), atol=1e-12)


def test_expm_is_unitary(rng):
    for _ in range(10):
        h = random_hermitian(rng, 4)
        assert is_unitary(expm_unitary(h, rng.uniform(0, 10)), 1e-12)


def test_expm_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        expm_unitary(m, 1.0)


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
    u1 = expm_unitary(h, t1)
    assert np.max(np.abs(u1 @ expm_unitary(h, -t1) - np.eye(4))) < 1e-12
    assert np.max(np.abs(expm_unitary(h, t1 + t2) - u1 @ expm_unitary(h, t2))) < 1e-11


# --- predicates -------------------------------------------------------------

def test_predicates():
    assert is_hermitian(SIGMA_X)
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_unitary(np.eye(4))
    assert is_density(np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))
    assert not is_density(np.diag([0.8, 0.8]).astype(complex))
    assert not is_density(np.diag([1.5, -0.5]).astype(complex))
