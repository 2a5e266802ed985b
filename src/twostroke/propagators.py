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

import numpy as np

from .linalg import (
    NOT_HERMITIAN,
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


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")


def _half_sine_over(gamma: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sin(gamma*tau/2)/gamma, continuous at gamma = 0."""
    zero = gamma == 0.0
    return np.where(zero, 0.5 * tau, np.sin(0.5 * gamma * tau) / np.where(zero, 1.0, gamma))


def _unit(x: np.ndarray) -> np.ndarray:
    """cos(x) + i sin(x)."""
    return np.cos(x) + 1j * np.sin(x)


def _block(gamma: np.ndarray, z: np.ndarray, tau: np.ndarray):
    """(c - i*z*f, c + i*z*f, f) of a 2x2 block of frequency gamma and detuning z,
    with c = cos(gamma*tau/2) and f = sin(gamma*tau/2)/gamma."""
    c = np.cos(0.5 * gamma * tau)
    f = _half_sine_over(gamma, tau)
    return c - 1j * z * f, c + 1j * z * f, f


def _checkerboard(corner, center, d0, d1, d2, d3, global_phase) -> np.ndarray:
    """Stack of unitaries with the |gg>/|ee> and |ge>/|eg> block structure."""
    u = np.zeros((len(d0), 4, 4), dtype=complex)
    u[:, 0, 0], u[:, 1, 1], u[:, 2, 2], u[:, 3, 3] = d0, d1, d2, d3
    u[:, 0, 3] = u[:, 3, 0] = corner
    u[:, 1, 2] = u[:, 2, 1] = center
    return global_phase[:, None, None] * u


def _closed(c: CycleArrays, include_free: bool, variant: str, errors: RowErrors) -> np.ndarray:
    """Closed-form unitaries of the interaction or the full generator, (N, 4, 4).

    Block frequencies: |gg>/|ee> hypot(kappa, z0), or with the free part
    hypot(kappa, z0 + eps_p) (verbatim: omega - eps_p/2, published split
    amplitudes); |ge>/|eg> kappa, or with the free part hypot(kappa, delta_eps).
    """
    flag_degenerate(c.kappa, c.omega, errors)
    kappa, omega, tau = c.kappa, c.omega, c.tau
    cc = np.cos(0.5 * kappa * tau)
    sc = np.sin(0.5 * kappa * tau)
    global_phase = cc - 1j * sc
    z0 = 2.0 * omega if variant == CORRECTED else omega
    if not include_free:
        theta_plus, theta_minus, f0 = _block(np.hypot(kappa, z0), z0, tau)
        return _checkerboard(
            -1j * kappa * f0, -1j * sc, theta_plus, cc, cc, theta_minus, global_phase
        )
    eps_p, delta_eps = c.eps_p, c.delta_eps
    if variant == CORRECTED:
        z1 = 2.0 * omega + eps_p
        phi_plus, phi_minus, f1 = _block(np.hypot(kappa, z1), z1, tau)
    else:
        theta_plus, theta_minus, _ = _block(np.hypot(kappa, z0), z0, tau)
        f1 = _half_sine_over(np.hypot(kappa, omega - 0.5 * eps_p), tau)
        phi_plus = theta_plus - 1j * eps_p * f1
        phi_minus = theta_minus + 1j * eps_p * f1
    lambda_plus, lambda_minus, f2 = _block(np.hypot(kappa, delta_eps), delta_eps, tau)
    phase = _unit(0.5 * eps_p * tau)
    return _checkerboard(
        -1j * kappa * phase * f1, -1j * kappa * phase * f2,
        phase * phi_plus, phase * lambda_plus, phase * lambda_minus, phase * phi_minus,
        global_phase,
    )


def _oracle(c: CycleArrays, include_free: bool, errors: RowErrors) -> np.ndarray:
    """Matrix exponentials of the exact generators, one stacked eigh."""
    h = interaction_generators(c.kappa, c.omega, errors)
    if include_free:
        h = h + free_generators(c)
    ok = hermitian_mask(h)
    errors.flag(~ok, NOT_HERMITIAN)
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


def propagator(p: CycleParams, mode: PropagatorMode) -> np.ndarray:
    """Dispatch to the requested construction (closed forms are corrected)."""
    return checked(unitaries, CycleArrays([p]), mode)[0]


def evolve_stack(rho0: np.ndarray, u: np.ndarray, errors: RowErrors) -> np.ndarray:
    """U rho U† row by row, failing rows whose state or unitary is unphysical
    (U unitary to EVOLVE_UNITARY_TOL)."""
    errors.flag(~density_mask(rho0), "rho0 is not a density matrix within tolerance")
    errors.flag(~unitary_mask(u, EVOLVE_UNITARY_TOL), "u is not unitary within tolerance")
    return u @ rho0 @ dagger(u)


def evolved_states(
    c: CycleArrays, pops: np.ndarray, mode: PropagatorMode, errors: RowErrors
) -> np.ndarray:
    """Each row's initial product state (populations `pops`) after its stroke."""
    u = unitaries(c, mode, errors)
    return evolve_stack(diagonal_states(pops), u, errors)


def evolve(rho0, u) -> np.ndarray:
    """Conjugate a density matrix by a unitary: U rho U† (U unitary to EVOLVE_UNITARY_TOL)."""
    rho0 = as_cmat(rho0)
    u = as_cmat(u)
    if rho0.shape != u.shape:
        raise ValueError("state and unitary dimensions differ")
    return checked(evolve_stack, rho0[None], u[None])[0]


def align_global_phase(u: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rephase `u` so it matches `reference` at the largest-magnitude entry.

    Physical quantities never see the global phase; this makes elementwise
    matrix comparisons meaningful for assemblies whose overall phase is
    conventional.
    """
    u = as_cmat(u)
    reference = as_cmat(reference)
    if u.shape != reference.shape:
        raise ValueError("unitary and reference dimensions differ")
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
    c = CycleArrays([p])
    oracle_int = checked(_oracle, c, False)[0]
    oracle_full = checked(_oracle, c, True)[0]
    out = {}
    for variant in _VARIANTS:
        u_int = checked(_closed, c, False, variant)[0]
        u_full = align_global_phase(checked(_closed, c, True, variant)[0], oracle_full)
        out[f"interaction_{variant}"] = float(np.max(np.abs(u_int - oracle_int)))
        out[f"full_{variant}"] = float(np.max(np.abs(u_full - oracle_full)))
    return out
