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
        require(CYCLE_RULES, **vars(self))


CYCLE_FIELDS = tuple(f.name for f in fields(CycleParams))

# Rule kinds on one value, as (test, wording); a test takes a number, or an
# array and holds elementwise.
FINITE = (lambda v: abs(v) < math.inf, "finite")
POSITIVE = (lambda v: v > 0.0, "positive")
NONNEGATIVE = (lambda v: v >= 0.0, "nonnegative")


def value_rules(**signs) -> tuple:
    """Rules on named values, each first finite, then of its sign kind, as
    (fields, test, message) with `message` a template of the fields' values."""
    kinds = [(name, FINITE) for name in signs] + list(signs.items())
    return tuple(((name,), test, f"{name} must be {wording}, got {{!r}}")
                 for name, (test, wording) in kinds)


def require(rules, **values) -> None:
    """Raise the message of the first of `rules` that the named `values` break."""
    for names, test, message in rules:
        args = [values[name] for name in names]
        if not test(*args):
            raise ValueError(message.format(*args))


# The validity rules of a cycle in order of precedence; `test` takes the
# fields' values, of one cycle or (N,) columns of them.
CYCLE_RULES = (
    *value_rules(eps_a=POSITIVE, eps_b=POSITIVE, beta_a=POSITIVE, beta_b=POSITIVE,
                 kappa=NONNEGATIVE, omega=NONNEGATIVE, tau=NONNEGATIVE),
    (("beta_a", "beta_b"), lambda beta_a, beta_b: beta_a < beta_b,
     "qubit a must be the hot one (beta_a < beta_b), got beta_a={!r}, beta_b={!r}"),
)


class CycleArrays(_Gaps):
    """N cycles as float64 arrays of shape (N,), one row per cycle.

    The batch kernels of the package take this; every public one-cycle
    function is the same kernel run on a single row.  Built from CycleParams
    the rows are valid; built from columns they are checked by `flag_invalid`.
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
        self.__dict__.update(zip(CYCLE_FIELDS, np.ascontiguousarray(table.T)))

    @classmethod
    def from_columns(cls, **columns) -> "CycleArrays":
        """Rows from one number or (N,) array per field, at least one an array."""
        c = cls(())
        arrays = np.broadcast_arrays(*(columns[name] for name in CYCLE_FIELDS))
        c.__dict__.update(zip(CYCLE_FIELDS, np.array(arrays, dtype=float)))
        return c

    def __len__(self) -> int:
        return len(self.tau)


def local_hamiltonian(eps: float) -> np.ndarray:
    """Single-qubit Hamiltonian -eps |e><e|, i.e. diag(0, -eps)."""
    require(value_rules(eps=POSITIVE), eps=eps)
    return np.diag([0.0, -eps]).astype(complex)


def thermal_populations(eps: float, beta: float) -> tuple[float, float]:
    """Gibbs populations (p_g, p_e) of the local Hamiltonian.

    Evaluated in logistic form with exp(-beta*eps) only, so arbitrarily large
    beta*eps stays finite (p_g underflows to 0, p_e saturates at 1).
    """
    require(value_rules(eps=POSITIVE, beta=POSITIVE), eps=eps, beta=beta)
    p_g, p_e = _gibbs(np.array([eps], dtype=float), np.array([beta], dtype=float))
    return float(p_g[0]), float(p_e[0])


def _gibbs(eps: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w = np.exp(-beta * eps)
    return w / (1.0 + w), 1.0 / (1.0 + w)


def thermal_state(eps: float, beta: float) -> np.ndarray:
    """Local thermal equilibrium state exp(-beta H)/Z as a diagonal 2x2 matrix."""
    p_g, p_e = thermal_populations(eps, beta)
    return np.diag([p_g, p_e]).astype(complex)


# Collective operators S_alpha = (sigma_alpha x I + I x sigma_alpha)/2.
SX = 0.5 * (kron(SIGMA_X, IDENTITY_2) + kron(IDENTITY_2, SIGMA_X))
SY = 0.5 * (kron(SIGMA_Y, IDENTITY_2) + kron(IDENTITY_2, SIGMA_Y))
SZ = 0.5 * (kron(SIGMA_Z, IDENTITY_2) + kron(IDENTITY_2, SIGMA_Z))
_SX_SQUARED = SX @ SX


def flag_invalid(c: CycleArrays, errors: RowErrors) -> None:
    """Fail the rows that break a rule of CYCLE_RULES, each with its first broken rule."""
    for names, test, message in CYCLE_RULES:
        args = [getattr(c, name) for name in names]
        errors.flag(~test(*args), message, *args)


def flag_degenerate(kappa: np.ndarray, omega: np.ndarray, errors: RowErrors) -> None:
    """Fail the rows whose coupling vanishes entirely (kappa = omega = 0)."""
    errors.flag((kappa == 0.0) & (omega == 0.0), DEGENERATE)


def interaction_generators(kappa: np.ndarray, omega: np.ndarray, errors: RowErrors) -> np.ndarray:
    """kappa*S_x^2 + omega*S_z for each row, shape (N, 4, 4)."""
    flag_degenerate(kappa, omega, errors)
    return kappa[:, None, None] * _SX_SQUARED + omega[:, None, None] * SZ


def local_levels(c: CycleArrays) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of h_a x I and I x h_b for each row, each of shape (N, 4)."""
    zero = np.zeros(len(c))
    e_a = np.stack([zero, zero, -c.eps_a, -c.eps_a], axis=-1)
    e_b = np.stack([zero, -c.eps_b, zero, -c.eps_b], axis=-1)
    return e_a, e_b


def free_generators(c: CycleArrays) -> np.ndarray:
    """Sum of the local Hamiltonians for each row, shape (N, 4, 4)."""
    e_a, e_b = local_levels(c)
    return diagonal_states(e_a + e_b)


def interaction_hamiltonian(kappa: float, omega: float) -> np.ndarray:
    """Twisting-plus-field coupling kappa*S_x^2 + omega*S_z.

    Couples |gg> <-> |ee> and |ge> <-> |eg> only (checkerboard block
    structure); rejects the fully degenerate kappa = omega = 0 case.
    """
    require(value_rules(kappa=NONNEGATIVE, omega=NONNEGATIVE), kappa=kappa, omega=omega)
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
    """Diagonal matrices with the given diagonals, shape (N, 4, 4): density
    matrices for populations, phase matrices for unit-modulus entries."""
    rho = np.zeros(pops.shape + (4,), dtype=complex)
    idx = np.arange(4)
    rho[:, idx, idx] = pops
    return rho


def initial_state(p: CycleParams) -> np.ndarray:
    """Product of the two local thermal states (diagonal, uncorrelated)."""
    return diagonal_states(populations(CycleArrays([p])))[0]


def corner_gap(pops: np.ndarray) -> np.ndarray:
    """p_ee - p_gg = 1 - 1/Z_a - 1/Z_b over the last axis of a population array."""
    return pops[..., 3] - pops[..., 0]


def center_gap(pops: np.ndarray) -> np.ndarray:
    """p_eg - p_ge over the last axis, signed like beta_a*eps_a - beta_b*eps_b."""
    return pops[..., 2] - pops[..., 1]
