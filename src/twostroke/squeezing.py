"""Squeezing and coherence diagnostics for two-qubit states.

The squeezing parameter is the minimized transverse spin variance scaled by
the coherent-state limit N/4; values below 1 certify squeezing.  States from
this package's cycle keep their mean spin along z, so the transverse plane is
always the x-y plane and the minimization over the quadrature angle is exact.

Every expectation value is summed over the operator's nonzero entries in a
fixed order, so a state's diagnostics do not depend on the batch it sits in.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import RowErrors, as_cmat, density_mask, checked
from .model import SX, SY, SZ, CycleArrays, CycleParams, corner_gap, populations
from .propagators import CORRECTED, _check_variant

N_SPINS = 2
MSD_TOL = 1e-8
MEAN_SPIN_MIN = 1e-10

_SUM_XY = SX @ SX + SY @ SY     # S_x^2 + S_y^2
_DIFF_XY = SX @ SX - SY @ SY    # S_x^2 - S_y^2
_CROSS_XY = SX @ SY + SY @ SX   # {S_x, S_y}


@dataclass(frozen=True)
class SqueezeReport:
    """Squeezing diagnostics of one state.

    xi            squeezing parameter, < 1 means squeezed
    phi_opt       optimal quadrature angle in [0, pi)
    delta_min     minimized transverse variance (xi = 2*delta_min for N = 2)
    coherence_l1  l1 coherence in the energy (computational) basis
    msd_ok        mean spin direction check passed (<S_x>, <S_y> vanish)
    """

    xi: float
    phi_opt: float
    delta_min: float
    coherence_l1: float
    msd_ok: bool


def _expect(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """tr(op @ rho).real for each state of a stack."""
    total = 0.0
    for i, j in zip(*np.nonzero(op)):
        total = total + op[i, j] * rho[:, j, i]
    return total.real


def flag_states(rho: np.ndarray, errors: RowErrors) -> None:
    """Fail the states that are unphysical or whose mean spin is not along z."""
    errors.flag(
        ~density_mask(rho), lambda i: ValueError("rho is not a density matrix within tolerance")
    )
    sx_mean, sy_mean, sz_mean = (_expect(op, rho) for op in (SX, SY, SZ))
    errors.flag(
        np.abs(sx_mean) >= MSD_TOL,
        lambda i: ValueError(f"mean spin is not along z: <S_x> = {float(sx_mean[i])!r}"),
    )
    errors.flag(
        np.abs(sy_mean) >= MSD_TOL,
        lambda i: ValueError(f"mean spin is not along z: <S_y> = {float(sy_mean[i])!r}"),
    )
    errors.flag(
        np.abs(sz_mean) <= MEAN_SPIN_MIN,
        lambda i: ValueError("mean spin direction undefined: <S_z> vanishes"),
    )


def _msd_state(rho) -> np.ndarray:
    """One state as a stack of one, after the checks of `flag_states`."""
    rho = as_cmat(rho)
    if rho.shape[0] != 4:
        raise ValueError("expected a two-qubit (4x4) state")
    checked(flag_states, rho[None])
    return rho[None]


def _second_moments(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return _expect(_SUM_XY, rho), _expect(_DIFF_XY, rho), _expect(_CROSS_XY, rho)


def squeezing_stack(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(xi, phi_opt, delta_min) of each state of a stack already checked by `flag_states`.

    The transverse variance is an exact sinusoid in twice the quadrature
    angle, so the minimum and the optimal angle come out in closed form from
    three second moments.
    """
    sum_xy, diff_xy, cross_xy = _second_moments(rho)
    alpha1 = 2.0 * sum_xy / N_SPINS
    alpha2 = (2.0 * diff_xy / N_SPINS) ** 2
    alpha3 = (2.0 * cross_xy / N_SPINS) ** 2
    xi = alpha1 - np.sqrt(alpha2 + alpha3)

    delta_min = 0.5 * (sum_xy - np.hypot(diff_xy, cross_xy))
    phi_opt = (0.5 * math.pi + 0.5 * np.arctan2(cross_xy, diff_xy)) % math.pi
    return xi, phi_opt, delta_min


def coherence_stack(rho: np.ndarray) -> np.ndarray:
    """Sum of absolute off-diagonal entries of each state of a stack."""
    mags = np.abs(rho)
    total = 0.0
    for i in range(4):
        for j in range(4):
            if i != j:
                total = total + mags[:, i, j]
    return total


def xi_general(rho) -> SqueezeReport:
    """Squeezing report of a state whose mean spin points along z."""
    stack = _msd_state(rho)
    xi, phi_opt, delta_min = squeezing_stack(stack)
    return SqueezeReport(
        xi=float(xi[0]),
        phi_opt=float(phi_opt[0]),
        delta_min=float(delta_min[0]),
        coherence_l1=float(coherence_stack(stack)[0]),
        msd_ok=True,
    )


def variance_orthogonal(rho, phi: float) -> float:
    """Variance of the spin component at angle `phi` in the transverse plane."""
    sum_xy, diff_xy, cross_xy = (float(m[0]) for m in _second_moments(_msd_state(rho)))
    return 0.5 * sum_xy + 0.5 * diff_xy * math.cos(2.0 * phi) + 0.5 * cross_xy * math.sin(2.0 * phi)


def _eta_sq(c: CycleArrays, variant: str) -> np.ndarray:
    if variant == CORRECTED:
        g = np.hypot(c.kappa, 2.0 * c.omega)
    else:
        g = np.hypot(c.kappa, c.omega - 0.5 * c.eps_p)
    return np.sqrt(16.0 * c.omega**2 + 2.0 * c.kappa**2 * (1.0 + np.cos(g * c.tau)))


def eta_sq(p: CycleParams, variant: str = CORRECTED) -> float:
    """Squeeze-amplitude factor of the closed-form squeezing parameter.

    Named eta_sq to stay clear of the engine efficiency eta.
    """
    _check_variant(variant)
    return float(_eta_sq(CycleArrays([p]), variant)[0])


def xi_closed_stack(c: CycleArrays, pops: np.ndarray, variant: str = CORRECTED) -> np.ndarray:
    """Closed-form squeezing parameter of each row's interaction-only evolved state."""
    twist = c.kappa != 0.0
    if variant == CORRECTED:
        g_corner = np.hypot(c.kappa, 2.0 * c.omega)
    else:
        g_corner = np.hypot(c.kappa, c.omega)
    g_corner = np.where(twist, g_corner, 1.0)
    amplitude = _eta_sq(c, variant)
    zbar = corner_gap(pops)
    xi = 1.0 - c.kappa * zbar * amplitude * np.abs(np.sin(0.5 * g_corner * c.tau)) / g_corner**2
    return np.where(twist, xi, 1.0)


def xi_closed_form(p: CycleParams, variant: str = CORRECTED) -> float:
    """Closed-form squeezing parameter of the interaction-only evolved state.

    The corrected variant uses the corner-block frequency validated against
    the propagator oracle (both in the sine and inside the amplitude factor)
    and matches xi_general on the evolved state to roundoff.  The verbatim
    variant keeps the published constants for residual reporting.
    """
    _check_variant(variant)
    c = CycleArrays([p])
    return float(xi_closed_stack(c, populations(c), variant)[0])


def l1_coherence(rho) -> float:
    """Sum of absolute off-diagonal entries in the energy basis.

    The free Hamiltonian is diagonal in the computational product basis, so
    that basis is the energy basis; it stays the fixed convention even when
    eps_a = eps_b makes the eigenbasis degenerate.
    """
    rho = as_cmat(rho)
    if not density_mask(rho):
        raise ValueError("rho is not a density matrix within tolerance")
    return float(coherence_stack(rho[None])[0])
