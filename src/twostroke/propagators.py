"""Interaction-stroke unitaries, three ways.

The stroke-1 propagator is produced by

* a closed-form assembly restricted to the interaction generator,
* a closed-form assembly for the full generator (free part included),
* a brute-force matrix-exponential oracle of the exact generator.

Both closed forms come in two variants.  The ``corrected`` variant carries
frequency constants obtained by exact 2x2 block diagonalization under this
package's operator conventions; it agrees with the oracle to roundoff and is
the one used for physics.  The ``verbatim`` variant keeps the originally
published constants (corner frequency sqrt(kappa^2 + omega^2) and its
full-generator analogue), which correspond to a different S_z normalization;
it is retained so the residual against the oracle can be measured, not for
production use.
"""

import enum
from dataclasses import dataclass, fields

import numpy as np

from .linalg import (
    NOT_HERMITIAN,
    Column,
    RowErrors,
    as_cmat,
    dagger,
    density_mask,
    expm_stack,
    hermitian_mask,
    checked,
    unitary_mask,
)
from .model import (
    CycleArrays,
    CycleParams,
    diagonal_states,
    flag_degenerate,
    free_generators,
    interaction_generators,
)

CORRECTED = "corrected"
VERBATIM = "verbatim"
_VARIANTS = (CORRECTED, VERBATIM)

EVOLVE_UNITARY_TOL = 1e-10


class PropagatorMode(enum.Enum):
    """Which generator and which construction produce the stroke unitary."""

    FULL = "full"
    INTERACTION_ONLY = "interaction"
    ORACLE_FULL = "oracle-full"
    ORACLE_INTERACTION = "oracle-interaction"


@dataclass(frozen=True)
class BlockParams:
    """Scalar ingredients of the closed-form propagator assemblies.

    gamma0/gamma1 are the |gg>/|ee> corner-block frequencies without/with the
    free Hamiltonian; gamma2 is the |ge>/|eg> center-block frequency.  The
    theta/phi/lambda entries are the corresponding diagonal block amplitudes
    and mu0/mu1/mu2 the off-diagonal ones (zero-frequency limits give mu = 0).
    The batch kernels fill every numeric field with an array of shape (N,).
    """

    variant: str
    gamma0: Column
    gamma1: Column
    gamma2: Column
    delta_eps: Column
    eps_p: Column
    mu0: Column
    mu1: Column
    mu2: Column
    theta_plus: Column
    theta_minus: Column
    phi_plus: Column
    phi_minus: Column
    lambda_plus: Column
    lambda_minus: Column


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _over(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den, and 0 where den vanishes."""
    zero = den == 0.0
    return np.where(zero, 0.0, num / np.where(zero, 1.0, den))


def _half_sine_over(gamma: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sin(gamma*tau/2)/gamma, continuous at gamma = 0."""
    return np.where(gamma == 0.0, 0.5 * tau, _over(np.sin(0.5 * gamma * tau), gamma))


def _unit(x: np.ndarray) -> np.ndarray:
    """cos(x) + i sin(x)."""
    return np.cos(x) + 1j * np.sin(x)


def _blocks(c: CycleArrays, variant: str, errors: RowErrors) -> BlockParams:
    """Every scalar entering the closed-form assemblies, one array per field."""
    flag_degenerate(c.kappa, c.omega, errors)
    kappa, omega, tau = c.kappa, c.omega, c.tau
    eps_p, delta_eps = c.eps_p, c.delta_eps

    if variant == CORRECTED:
        gamma0 = np.hypot(kappa, 2.0 * omega)
        gamma1 = np.hypot(kappa, 2.0 * omega + eps_p)
        z0 = 2.0 * omega
        z1 = 2.0 * omega + eps_p
    else:
        gamma0 = np.hypot(kappa, omega)
        gamma1 = np.hypot(kappa, omega - 0.5 * eps_p)
        z0 = omega
        z1 = None  # verbatim keeps the published split theta +/- eps_p term
    gamma2 = np.hypot(kappa, delta_eps)

    c0 = np.cos(0.5 * gamma0 * tau)
    f0 = _half_sine_over(gamma0, tau)
    c1 = np.cos(0.5 * gamma1 * tau)
    f1 = _half_sine_over(gamma1, tau)
    c2 = np.cos(0.5 * gamma2 * tau)
    f2 = _half_sine_over(gamma2, tau)
    phase = _unit(0.5 * eps_p * tau)

    theta_plus = c0 - 1j * z0 * f0
    theta_minus = c0 + 1j * z0 * f0
    if variant == CORRECTED:
        phi_plus = phase * (c1 - 1j * z1 * f1)
        phi_minus = phase * (c1 + 1j * z1 * f1)
    else:
        phi_plus = phase * (theta_plus - 1j * eps_p * f1)
        phi_minus = phase * (theta_minus + 1j * eps_p * f1)
    lambda_plus = phase * (c2 - 1j * delta_eps * f2)
    lambda_minus = phase * (c2 + 1j * delta_eps * f2)

    return BlockParams(
        variant=variant,
        gamma0=gamma0,
        gamma1=gamma1,
        gamma2=gamma2,
        delta_eps=delta_eps,
        eps_p=eps_p,
        mu0=_over(-1j * kappa, gamma0),
        mu1=_over(-1j * kappa * phase, gamma1),
        mu2=_over(kappa * phase, gamma2),
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        phi_plus=phi_plus,
        phi_minus=phi_minus,
        lambda_plus=lambda_plus,
        lambda_minus=lambda_minus,
    )


def block_params(p: CycleParams, variant: str = CORRECTED) -> BlockParams:
    """Compute every scalar entering the closed-form assemblies."""
    _check_variant(variant)
    bp = checked(_blocks, CycleArrays([p]), variant)
    return BlockParams(
        variant=variant,
        **{f.name: getattr(bp, f.name)[0].item() for f in fields(BlockParams)[1:]},
    )


def _checkerboard(corner, center, d0, d1, d2, d3, global_phase) -> np.ndarray:
    """Stack of unitaries with the |gg>/|ee> and |ge>/|eg> block structure."""
    u = np.zeros((len(d0), 4, 4), dtype=complex)
    u[:, 0, 0], u[:, 1, 1], u[:, 2, 2], u[:, 3, 3] = d0, d1, d2, d3
    u[:, 0, 3] = u[:, 3, 0] = corner
    u[:, 1, 2] = u[:, 2, 1] = center
    return global_phase[:, None, None] * u


def _closed(c: CycleArrays, include_free: bool, variant: str, errors: RowErrors) -> np.ndarray:
    """Closed-form unitaries of the interaction or the full generator, (N, 4, 4)."""
    bp = _blocks(c, variant, errors)
    kappa, tau = c.kappa, c.tau
    cc = np.cos(0.5 * kappa * tau)
    sc = np.sin(0.5 * kappa * tau)
    global_phase = cc - 1j * sc
    if not include_free:
        corner_off = -1j * kappa * _half_sine_over(bp.gamma0, tau)
        return _checkerboard(
            corner_off, -1j * sc, bp.theta_plus, cc, cc, bp.theta_minus, global_phase
        )
    phase = _unit(0.5 * bp.eps_p * tau)
    corner_off = -1j * kappa * phase * _half_sine_over(bp.gamma1, tau)
    center_off = -1j * kappa * phase * _half_sine_over(bp.gamma2, tau)
    return _checkerboard(
        corner_off, center_off, bp.phi_plus, bp.lambda_plus, bp.lambda_minus, bp.phi_minus,
        global_phase,
    )


def _oracle(c: CycleArrays, include_free: bool, errors: RowErrors) -> np.ndarray:
    """Matrix exponentials of the exact generators, one stacked eigh."""
    h = interaction_generators(c.kappa, c.omega, errors)
    if include_free:
        h = h + free_generators(c)
    ok = hermitian_mask(h)
    errors.flag(~ok, lambda i: ValueError(NOT_HERMITIAN))
    return expm_stack(np.where(ok[:, None, None], h, 0.0), c.tau)


def unitaries(c: CycleArrays, mode: PropagatorMode, errors: RowErrors) -> np.ndarray:
    """Stroke unitaries of every row in the requested mode, shape (N, 4, 4)."""
    if mode is PropagatorMode.FULL:
        return _closed(c, True, CORRECTED, errors)
    if mode is PropagatorMode.INTERACTION_ONLY:
        return _closed(c, False, CORRECTED, errors)
    if mode is PropagatorMode.ORACLE_FULL:
        return _oracle(c, True, errors)
    if mode is PropagatorMode.ORACLE_INTERACTION:
        return _oracle(c, False, errors)
    raise ValueError(f"unknown propagator mode {mode!r}")


def _one(kernel, p: CycleParams, *args) -> np.ndarray:
    """A unitary kernel run on the single row `p`; raises that row's failure."""
    return checked(kernel, CycleArrays([p]), *args)[0]


def propagator_interaction_closed(p: CycleParams, variant: str = CORRECTED) -> np.ndarray:
    """Closed-form unitary for the interaction generator alone."""
    _check_variant(variant)
    return _one(_closed, p, False, variant)


def propagator_full_closed(p: CycleParams, variant: str = CORRECTED) -> np.ndarray:
    """Closed-form unitary for the full generator (free part included)."""
    _check_variant(variant)
    return _one(_closed, p, True, variant)


def propagator_oracle(p: CycleParams, include_free: bool) -> np.ndarray:
    """Ground-truth unitary: matrix exponential of the exact generator."""
    return _one(_oracle, p, include_free)


def propagator(p: CycleParams, mode: PropagatorMode) -> np.ndarray:
    """Dispatch to the requested construction (closed forms are corrected)."""
    return _one(unitaries, p, mode)


def evolve_stack(
    rho0: np.ndarray, u: np.ndarray, unitary_tol: float, errors: RowErrors
) -> np.ndarray:
    """U rho U† row by row, failing rows whose state or unitary is unphysical."""
    errors.flag(
        ~density_mask(rho0), lambda i: ValueError("rho0 is not a density matrix within tolerance")
    )
    errors.flag(
        ~unitary_mask(u, unitary_tol), lambda i: ValueError("u is not unitary within tolerance")
    )
    return u @ rho0 @ dagger(u)


def evolved_states(
    c: CycleArrays, pops: np.ndarray, mode: PropagatorMode, errors: RowErrors
) -> np.ndarray:
    """Each row's initial product state (populations `pops`) after its stroke."""
    u = unitaries(c, mode, errors)
    return evolve_stack(diagonal_states(pops), u, EVOLVE_UNITARY_TOL, errors)


def evolve(rho0, u, unitary_tol: float = EVOLVE_UNITARY_TOL) -> np.ndarray:
    """Conjugate a density matrix by a unitary: U rho U†."""
    rho0 = as_cmat(rho0)
    u = as_cmat(u)
    if rho0.shape != u.shape:
        raise ValueError("state and unitary dimensions differ")
    return checked(evolve_stack, rho0[None], u[None], unitary_tol)[0]


def align_global_phase(u: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rephase `u` so it matches `reference` at the largest-magnitude entry.

    Physical quantities never see the global phase; this makes elementwise
    matrix comparisons meaningful for assemblies whose overall phase is
    conventional.
    """
    u = as_cmat(u)
    reference = as_cmat(reference)
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    z = reference[idx] * np.conj(u[idx])
    mag = abs(z)
    if mag == 0.0:
        return u
    return (z / mag) * u


def closed_vs_oracle_residuals(p: CycleParams) -> dict[str, float]:
    """Max-abs deviation of each closed-form assembly from the oracle.

    Full-generator assemblies are compared after global-phase alignment.
    The corrected entries quantify roundoff; the verbatim entries quantify
    how far the published constants sit from the exact block dynamics.
    """
    oracle_int = propagator_oracle(p, include_free=False)
    oracle_full = propagator_oracle(p, include_free=True)
    out = {}
    for variant in _VARIANTS:
        u_int = propagator_interaction_closed(p, variant)
        u_full = align_global_phase(propagator_full_closed(p, variant), oracle_full)
        out[f"interaction_{variant}"] = float(np.max(np.abs(u_int - oracle_int)))
        out[f"full_{variant}"] = float(np.max(np.abs(u_full - oracle_full)))
    return out
