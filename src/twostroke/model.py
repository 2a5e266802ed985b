"""Physical building blocks: local qubit Hamiltonians, thermal states,
collective spin operators for two qubits, and the nonlinear interaction.

Conventions, fixed once for the whole package:

* single-qubit basis order (|g>, |e|) with sigma_z |g> = +|g>;
* two-qubit basis order |gg>, |ge>, |eg>, |ee>, qubit a in the first slot;
* qubit a is the hot one (beta_a < beta_b);
* the local Hamiltonian puts the excited level at energy -eps, so the
  thermally favoured level is |e> (no re-gauging to +eps: the closed-form
  expressions downstream depend on this sign).
"""

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .linalg import RowErrors, kron, checked

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
IDENTITY_4 = np.eye(4, dtype=complex)

# exp(beta*eps) overflows float64 beyond this; populations never need it.
BETA_EPS_MAX = 700.0

DEGENERATE = "kappa and omega cannot both vanish (degenerate cycle)"


class _Gaps:
    """Gap combinations shared by one cycle and a batch of cycles."""

    @property
    def delta_eps(self):
        """Gap difference eps_a - eps_b."""
        return self.eps_a - self.eps_b

    @property
    def eps_p(self):
        """Gap sum eps_a + eps_b."""
        return self.eps_a + self.eps_b


@dataclass(frozen=True)
class CycleParams(_Gaps):
    """All physical controls of one cycle (hbar = k_B = 1).

    eps_a, eps_b   energy gaps of the hot/cold qubit
    beta_a, beta_b inverse temperatures, beta_a < beta_b (a is hot)
    kappa          twisting strength, >= 0
    omega          transverse field, >= 0
    tau            interaction-stroke duration, >= 0
    """

    eps_a: float
    eps_b: float
    beta_a: float
    beta_b: float
    kappa: float
    omega: float
    tau: float

    def __post_init__(self):
        for name in ("eps_a", "eps_b", "beta_a", "beta_b", "kappa", "omega", "tau"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("eps_a", "eps_b", "beta_a", "beta_b"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("kappa", "omega", "tau"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if not self.beta_a < self.beta_b:
            raise ValueError(
                f"qubit a must be the hot one (beta_a < beta_b), got "
                f"beta_a={self.beta_a!r}, beta_b={self.beta_b!r}"
            )


CYCLE_FIELDS = tuple(f.name for f in fields(CycleParams))


class CycleArrays(_Gaps):
    """N validated cycles as float64 arrays of shape (N,), one row per cycle.

    The batch kernels of the package take this; every public one-cycle
    function is the same kernel run on a single row.
    """

    eps_a: np.ndarray
    eps_b: np.ndarray
    beta_a: np.ndarray
    beta_b: np.ndarray
    kappa: np.ndarray
    omega: np.ndarray
    tau: np.ndarray

    def __init__(self, params: Sequence[CycleParams]):
        table = np.array(
            [[getattr(p, name) for name in CYCLE_FIELDS] for p in params], dtype=float
        ).reshape(-1, len(CYCLE_FIELDS))
        # one contiguous array per field: a row's arithmetic must not depend
        # on the stride or position it has in its batch
        for name, column in zip(CYCLE_FIELDS, np.ascontiguousarray(table.T)):
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.tau)


@dataclass(frozen=True)
class SpinOps:
    """Collective spin-1/2 operators for the two-qubit space."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def local_hamiltonian(eps: float) -> np.ndarray:
    """Single-qubit Hamiltonian -eps |e><e|, i.e. diag(0, -eps)."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    return np.diag([0.0, -eps]).astype(complex)


def thermal_populations(eps: float, beta: float) -> tuple[float, float]:
    """Gibbs populations (p_g, p_e) of the local Hamiltonian.

    Evaluated in logistic form with exp(-beta*eps) only, so arbitrarily large
    beta*eps stays finite (p_g underflows to 0, p_e saturates at 1).
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    p_g, p_e = _gibbs(np.array([eps], dtype=float), np.array([beta], dtype=float))
    return float(p_g[0]), float(p_e[0])


def _gibbs(eps: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = np.exp(-beta * eps)
    return w / (1.0 + w), 1.0 / (1.0 + w)


def thermal_state(eps: float, beta: float) -> np.ndarray:
    """Local thermal equilibrium state exp(-beta H)/Z as a diagonal 2x2 matrix."""
    p_g, p_e = thermal_populations(eps, beta)
    return np.diag([p_g, p_e]).astype(complex)


def partition_function(eps: float, beta: float) -> float:
    """Raw partition function Z = 1 + exp(beta*eps).

    Raises OverflowError once beta*eps exceeds the float64 range; callers that
    only need populations or log Z should use the stable forms instead.
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    if beta * eps > BETA_EPS_MAX:
        raise OverflowError(
            f"beta*eps = {beta * eps!r} overflows exp(); use thermal_populations "
            f"or log_partition_function"
        )
    return 1.0 + math.exp(beta * eps)


def log_partition_function(eps: float, beta: float) -> float:
    """log Z = log(1 + exp(beta*eps)), stable for any beta*eps."""
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    x = beta * eps
    # log(1+e^x) = x + log(1+e^-x) for x > 0
    return x + math.log1p(math.exp(-x))


# Collective operators S_alpha = (sigma_alpha x I + I x sigma_alpha)/2.
SX = 0.5 * (kron(SIGMA_X, IDENTITY_2) + kron(IDENTITY_2, SIGMA_X))
SY = 0.5 * (kron(SIGMA_Y, IDENTITY_2) + kron(IDENTITY_2, SIGMA_Y))
SZ = 0.5 * (kron(SIGMA_Z, IDENTITY_2) + kron(IDENTITY_2, SIGMA_Z))
_SX_SQUARED = SX @ SX


def collective_ops() -> SpinOps:
    """Collective operators S_alpha = (sigma_alpha x I + I x sigma_alpha)/2."""
    return SpinOps(sx=SX.copy(), sy=SY.copy(), sz=SZ.copy())


def flag_degenerate(kappa: np.ndarray, omega: np.ndarray, errors: RowErrors) -> None:
    """Fail the rows whose coupling vanishes entirely (kappa = omega = 0)."""
    errors.flag((kappa == 0.0) & (omega == 0.0), lambda i: ValueError(DEGENERATE))


def interaction_generators(kappa: np.ndarray, omega: np.ndarray, errors: RowErrors) -> np.ndarray:
    """kappa*S_x^2 + omega*S_z for each row, shape (N, 4, 4)."""
    flag_degenerate(kappa, omega, errors)
    return kappa[:, None, None] * _SX_SQUARED + omega[:, None, None] * SZ


def free_generators(c: CycleArrays) -> np.ndarray:
    """Sum of the local Hamiltonians for each row, shape (N, 4, 4)."""
    h = np.zeros((len(c), 4, 4), dtype=complex)
    h[:, 1, 1] = -c.eps_b
    h[:, 2, 2] = -c.eps_a
    h[:, 3, 3] = -c.eps_a - c.eps_b
    return h


def interaction_hamiltonian(kappa: float, omega: float) -> np.ndarray:
    """Twisting-plus-field coupling kappa*S_x^2 + omega*S_z.

    Couples |gg> <-> |ee> and |ge> <-> |eg> only (checkerboard block
    structure); rejects the fully degenerate kappa = omega = 0 case.
    """
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise ValueError(f"kappa must be nonnegative and finite, got {kappa!r}")
    if not (math.isfinite(omega) and omega >= 0.0):
        raise ValueError(f"omega must be nonnegative and finite, got {omega!r}")
    return checked(interaction_generators, np.array([float(kappa)]), np.array([float(omega)]))[0]


def free_hamiltonian(p: CycleParams) -> np.ndarray:
    """Sum of the local Hamiltonians: diag(0, -eps_b, -eps_a, -eps_a-eps_b)."""
    return free_generators(CycleArrays([p]))[0]


def populations(c: CycleArrays) -> np.ndarray:
    """Diagonal of each initial state, (p_gg, p_ge, p_eg, p_ee): shape (N, 4)."""
    pg_a, pe_a = _gibbs(c.eps_a, c.beta_a)
    pg_b, pe_b = _gibbs(c.eps_b, c.beta_b)
    return np.stack([pg_a * pg_b, pg_a * pe_b, pe_a * pg_b, pe_a * pe_b], axis=-1)


def diagonal_states(pops: np.ndarray) -> np.ndarray:
    """Density matrices with the given diagonals, shape (N, 4, 4)."""
    rho = np.zeros(pops.shape + (4,), dtype=complex)
    idx = np.arange(4)
    rho[:, idx, idx] = pops
    return rho


def initial_state(p: CycleParams) -> np.ndarray:
    """Product of the two local thermal states (diagonal, uncorrelated)."""
    return diagonal_states(populations(CycleArrays([p])))[0]


def initial_populations(p: CycleParams) -> np.ndarray:
    """Diagonal of the initial state: (p_gg, p_ge, p_eg, p_ee)."""
    return populations(CycleArrays([p]))[0]


def corner_gap(pops: np.ndarray) -> np.ndarray:
    """p_ee - p_gg over the last axis of a population array."""
    return pops[..., 3] - pops[..., 0]


def center_gap(pops: np.ndarray) -> np.ndarray:
    """p_eg - p_ge over the last axis of a population array."""
    return pops[..., 2] - pops[..., 1]


def corner_population_gap(p: CycleParams) -> float:
    """p_ee - p_gg, the population imbalance in the |gg>/|ee> block.

    Equals 1 - 1/Z_a - 1/Z_b; strictly inside [0, 1) for valid parameters.
    """
    return float(corner_gap(initial_populations(p)))


def center_population_gap(p: CycleParams) -> float:
    """p_eg - p_ge, the population imbalance in the |ge>/|eg> block.

    Sign follows beta_a*eps_a - beta_b*eps_b; it changes sign across the
    gap-ratio axis and drives the regime changes of the machine.
    """
    return float(center_gap(initial_populations(p)))
