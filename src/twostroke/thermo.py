"""Nonequilibrium thermodynamics of the cycle, three independent ways.

Average work, the two heats, and the entropy production are computed by

* trace formulas on the evolved state (any propagator mode),
* closed-form expressions (interaction-only evolution semantics),
* finite differences of the two-point-measurement characteristic function.

The trace route is the oracle; the other two are cross-checked against it.

Entropy production uses Sigma = (beta_b - beta_a)*Q_H + beta_b*W, which under
the first law is identical to -beta_a*Q_H - beta_b*Q_C, i.e. the weighted sum
of local energy changes beta_a*dE_a + beta_b*dE_b.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .linalg import Column, RowErrors, dagger, checked
from .model import CycleArrays, CycleParams, center_gap, corner_gap, initial_state, populations
from .propagators import PropagatorMode, evolved_states, propagator

DEAD_BAND = 1e-12
FIRST_LAW_TOL = 1e-10

CF_STEP = 1e-4
CF_IMAG_TOL = 1e-8


class NumericalConsistencyError(RuntimeError):
    """A numerical health check failed (e.g. a moment came out complex)."""


class Regime(enum.Enum):
    ENGINE = "Engine"
    REFRIGERATOR = "Refrigerator"
    ACCELERATOR = "Accelerator"
    OTHER = "Other"


@dataclass(frozen=True)
class EnergyBook:
    """Averaged energetics of one cycle.

    w, q_hot, q_cold  work and heats, satisfying w + q_hot + q_cold = 0
    sigma             entropy production, nonnegative
    eta               efficiency -w/q_hot, present only in the engine regime
    power             extracted power -w/tau (0 for the degenerate tau = 0 cycle)
    regime            operating-regime label
    method            which evaluation route produced the numbers
    degenerate        tau = 0, so power is a placeholder

    The batch kernels return one book whose numeric fields are arrays of
    shape (N,), `regime` an object array, and `eta` NaN outside the engine
    regime; `row(i)` is the one-cycle book of row i.
    """

    w: Column
    q_hot: Column
    q_cold: Column
    sigma: Column
    eta: Optional[Column]
    power: Column
    regime: Union[Regime, np.ndarray]
    method: str
    degenerate: Union[bool, np.ndarray] = False

    def row(self, i: int) -> "EnergyBook":
        regime = self.regime[i]
        return EnergyBook(
            w=float(self.w[i]),
            q_hot=float(self.q_hot[i]),
            q_cold=float(self.q_cold[i]),
            sigma=float(self.sigma[i]),
            eta=float(self.eta[i]) if regime is Regime.ENGINE else None,
            power=float(self.power[i]),
            regime=regime,
            method=self.method,
            degenerate=bool(self.degenerate[i]),
        )


class Performance(NamedTuple):
    eta: Optional[float]
    power: float
    eta_otto: float
    eta_carnot: float


@dataclass(frozen=True)
class CFMoments:
    """Finite-difference moments of the characteristic function.

    w_mean and qh_mean are always filled; `value` is the requested moment
    <W^n Q_H^m> for the stored order (n, m).
    """

    lambda_step: float
    nu_step: float
    w_mean: float
    qh_mean: float
    order: tuple[int, int]
    value: float


def _regimes(
    w: np.ndarray, q_hot: np.ndarray, q_cold: np.ndarray, errors: RowErrors
) -> np.ndarray:
    """Operating regime of each row from the signs of work and heats.

    Rows that break the first law fail.  Values inside the dead band count as
    zero, so exact boundary points land in OTHER instead of flipping on
    roundoff.
    """
    total = w + q_hot + q_cold
    errors.flag(
        np.abs(total) > FIRST_LAW_TOL,
        lambda i: ValueError(f"first-law violation: w + q_hot + q_cold = {float(total[i])!r}"),
    )
    w, q_hot, q_cold = (np.where(np.abs(x) < DEAD_BAND, 0.0, x) for x in (w, q_hot, q_cold))
    regime = np.full(w.shape, Regime.OTHER, dtype=object)
    regime[(q_hot > 0.0) & (q_cold < 0.0) & (w < 0.0)] = Regime.ENGINE
    regime[(q_hot < 0.0) & (q_cold > 0.0) & (w > 0.0)] = Regime.REFRIGERATOR
    regime[(q_hot > 0.0) & (q_cold < 0.0) & (w > 0.0)] = Regime.ACCELERATOR
    return regime


def classify_regime(w: float, q_hot: float, q_cold: float) -> Regime:
    """Operating regime from the signs of work and heats.

    Values inside the dead band count as zero, so exact boundary points land
    in OTHER instead of flipping on roundoff.
    """
    return checked(_regimes, *(np.array([float(x)]) for x in (w, q_hot, q_cold)))[0]


def entropy_production(w, q_hot, p):
    """Sigma = (beta_b - beta_a)*Q_H + beta_b*W for one cycle or a batch."""
    return (p.beta_b - p.beta_a) * q_hot + p.beta_b * w


def carnot_efficiency(p: CycleParams) -> float:
    """Temperature-ratio bound 1 - T_cold/T_hot = 1 - beta_a/beta_b."""
    return 1.0 - p.beta_a / p.beta_b


def otto_efficiency(p: CycleParams) -> float:
    """Gap-ratio reference line 1 - eps_b/eps_a (metadata, not a bound)."""
    return 1.0 - p.eps_b / p.eps_a


def _book(
    c: CycleArrays,
    w: np.ndarray,
    q_hot: np.ndarray,
    q_cold: np.ndarray,
    method: str,
    errors: RowErrors,
) -> EnergyBook:
    regime = _regimes(w, q_hot, q_cold, errors)
    engine = regime == Regime.ENGINE
    degenerate = c.tau == 0.0
    return EnergyBook(
        w=w,
        q_hot=q_hot,
        q_cold=q_cold,
        sigma=entropy_production(w, q_hot, c),
        eta=np.where(engine, -w / np.where(engine, q_hot, 1.0), np.nan),
        power=np.where(degenerate, 0.0, -w / np.where(degenerate, 1.0, c.tau)),
        regime=regime,
        method=method,
        degenerate=degenerate,
    )


def _one_book(kernel, p: CycleParams, *args) -> EnergyBook:
    """An energetics kernel run on the single row `p`; raises that row's failure."""
    c = CycleArrays([p])
    return checked(kernel, c, populations(c), *args).row(0)


def _local_levels(c: CycleArrays) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of h_a x I and I x h_b for each row, each of shape (N, 4)."""
    zero = np.zeros(len(c))
    e_a = np.stack([zero, zero, -c.eps_a, -c.eps_a], axis=-1)
    e_b = np.stack([zero, -c.eps_b, zero, -c.eps_b], axis=-1)
    return e_a, e_b


def _trace_diag(e: np.ndarray, d: np.ndarray) -> np.ndarray:
    """tr(diag(e) diag(d)) row by row, summed in basis order."""
    return e[:, 0] * d[:, 0] + e[:, 1] * d[:, 1] + e[:, 2] * d[:, 2] + e[:, 3] * d[:, 3]


def trace_book(
    c: CycleArrays, p0: np.ndarray, rho_tau: np.ndarray, method: str, errors: RowErrors
) -> EnergyBook:
    """Trace-formula energetics from the initial populations and evolved states.

    Every Hamiltonian involved is diagonal in the product basis, so the
    traces need only the populations before (p0) and after the stroke.
    """
    e_a, e_b = _local_levels(c)
    diff = np.diagonal(rho_tau, axis1=-2, axis2=-1).real - p0
    w = _trace_diag(e_a + e_b, diff)
    q_hot = -_trace_diag(e_a, diff)
    q_cold = -_trace_diag(e_b, diff)
    return _book(c, w, q_hot, q_cold, method, errors)


def energetics_from_states(
    p: CycleParams, rho0: np.ndarray, rho_tau: np.ndarray, method: str
) -> EnergyBook:
    """Trace-formula energetics given the initial and evolved states."""
    p0 = np.diagonal(rho0).real[None]
    return checked(trace_book, CycleArrays([p]), p0, np.asarray(rho_tau)[None], method).row(0)


def trace_route(
    c: CycleArrays, pops: np.ndarray, mode: PropagatorMode, errors: RowErrors
) -> EnergyBook:
    """Evolve each row's initial state with the requested propagator and take traces."""
    return trace_book(c, pops, evolved_states(c, pops, mode, errors), f"trace:{mode.value}", errors)


def energetics_trace(
    p: CycleParams, mode: PropagatorMode = PropagatorMode.INTERACTION_ONLY
) -> EnergyBook:
    """Evolve the initial state with the requested propagator and take traces."""
    return _one_book(trace_route, p, mode)


def _transition_weights(c: CycleArrays) -> tuple[np.ndarray, np.ndarray]:
    """Corner and center transition probabilities of the interaction-only stroke.

    Corner: kappa^2 sin^2(gamma tau/2)/gamma^2 with the corner-block
    frequency; center: sin^2(kappa tau/2).
    """
    twist = c.kappa != 0.0
    gamma = np.where(twist, np.hypot(c.kappa, 2.0 * c.omega), 1.0)
    corner = np.where(twist, (c.kappa * np.sin(0.5 * gamma * c.tau) / gamma) ** 2, 0.0)
    return corner, np.sin(0.5 * c.kappa * c.tau) ** 2


def closed_book(c: CycleArrays, pops: np.ndarray, errors: RowErrors) -> EnergyBook:
    """Closed-form energetics of the interaction-only evolution.

    The exponential prefactors are evaluated through population differences,
    which is the same expression in algebraically identical, overflow-proof
    form.  The cold heat is reconstructed from the first law.
    """
    xs, qs = _transition_weights(c)
    zbar = corner_gap(pops)
    delta = center_gap(pops)
    w = c.eps_p * xs * zbar + c.delta_eps * qs * delta
    q_hot = -c.eps_a * (xs * zbar + qs * delta)
    q_cold = -w - q_hot
    return _book(c, w, q_hot, q_cold, "closed", errors)


def energetics_closed(p: CycleParams) -> EnergyBook:
    """Closed-form energetics of the interaction-only evolution."""
    return _one_book(closed_book, p)


def closed_sigma_terms(p: CycleParams) -> tuple[float, float]:
    """Both terms of the closed-form entropy production, each nonnegative."""
    c = CycleArrays([p])
    pops = populations(c)
    xs, qs = _transition_weights(c)
    term_corner = (c.beta_a * c.eps_a + c.beta_b * c.eps_b) * xs * corner_gap(pops)
    term_center = (c.beta_a * c.eps_a - c.beta_b * c.eps_b) * qs * center_gap(pops)
    return float(term_corner[0]), float(term_center[0])


def characteristic_function(
    p: CycleParams, lam: float, nu: float, form: str = "closed"
) -> complex:
    """Two-point-measurement characteristic function F(lambda, nu).

    `form` picks the implementation: "closed" evaluates the six-term scalar
    expression, "operator" runs the defining trace over phase-conjugated
    local Hamiltonians with the interaction-only unitary.  Both satisfy
    F(0, 0) = 1 and agree to roundoff.
    """
    if form == "closed":
        c = CycleArrays([p])
        return complex(_cf_closed(c, populations(c))(lam, nu)[0])
    if form == "operator":
        return _cf_operator(p, lam, nu)
    raise ValueError(f"form must be 'closed' or 'operator', got {form!r}")


def _cf_closed(c: CycleArrays, pops: np.ndarray):
    """F(lambda, nu) of every row, as a function of scalar lambda and nu."""
    p_gg, p_ge, p_eg, p_ee = pops.T
    xs, sin2 = _transition_weights(c)
    corner_stay = 1.0 - xs          # |theta_+|^2 by unitarity of the corner block
    cos2 = np.cos(0.5 * c.kappa * c.tau) ** 2
    flat = corner_stay * (p_gg + p_ee) + cos2 * (p_ge + p_eg)

    def f(lam: float, nu: float) -> np.ndarray:
        u = np.cos(c.eps_a * (lam - nu)) - 1j * np.sin(c.eps_a * (lam - nu))
        v = np.cos(c.eps_b * lam) - 1j * np.sin(c.eps_b * lam)
        return (
            flat
            + xs * (p_gg * u * v + p_ee * np.conj(u) * np.conj(v))
            + sin2 * (p_eg * np.conj(u) * v + p_ge * u * np.conj(v))
        )

    return f


def _cf_operator(p: CycleParams, lam: float, nu: float) -> complex:
    u = propagator(p, PropagatorMode.INTERACTION_ONLY)
    rho0 = initial_state(p)
    e_a, e_b = (e[0] for e in _local_levels(CycleArrays([p])))
    phases = np.exp(1j * ((lam - nu) * e_a + lam * e_b))
    conjugated = dagger(u) @ np.diag(phases) @ u @ np.diag(np.conj(phases))
    return complex(np.trace(conjugated @ rho0))


def _richardson_first(f, h: float):
    def central(step):
        return (f(step) - f(-step)) / (2.0 * step)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def _richardson_second(f, h: float):
    f0 = f(0.0)

    def central(step):
        return (f(step) - 2.0 * f0 + f(-step)) / step**2

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def _richardson_mixed(f, h: float):
    def central(step):
        return (
            f(step, step) - f(step, -step) - f(-step, step) + f(-step, -step)
        ) / (4.0 * step**2)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def _real_moment(raw: np.ndarray, prefactor: complex, label: str, errors: RowErrors) -> np.ndarray:
    value = prefactor * raw
    errors.flag(
        np.abs(value.imag) > CF_IMAG_TOL,
        lambda i: NumericalConsistencyError(
            f"moment {label} has imaginary residue {float(value.imag[i])!r}"
        ),
    )
    return value.real


def cf_moments(
    c: CycleArrays, pops: np.ndarray, n: int, m: int, step: float, errors: RowErrors
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(<W>, <Q_H>, <W^n Q_H^m>) of every row from central finite differences of F.

    One Richardson refinement is applied on top of the central stencils; a
    row whose moment keeps an imaginary residue fails.
    """
    if n < 0 or m < 0 or not 1 <= n + m <= 2:
        raise ValueError(f"moment order (n, m) must satisfy 1 <= n+m <= 2, got {(n, m)}")
    f = _cf_closed(c, pops)

    w_mean = _real_moment(_richardson_first(lambda s: f(s, 0.0), step), -1j, "<W>", errors)
    qh_mean = _real_moment(_richardson_first(lambda s: f(0.0, s), step), -1j, "<Q_H>", errors)

    if (n, m) == (1, 0):
        value = w_mean
    elif (n, m) == (0, 1):
        value = qh_mean
    elif (n, m) == (2, 0):
        value = _real_moment(_richardson_second(lambda s: f(s, 0.0), step), -1.0, "<W^2>", errors)
    elif (n, m) == (0, 2):
        value = _real_moment(_richardson_second(lambda s: f(0.0, s), step), -1.0, "<Q_H^2>", errors)
    else:
        value = _real_moment(_richardson_mixed(f, step), -1.0, "<W Q_H>", errors)
    return w_mean, qh_mean, value


def moments_from_cf(
    p: CycleParams, n: int, m: int, step: float = CF_STEP
) -> CFMoments:
    """<W^n Q_H^m> from central finite differences of F at the origin.

    One Richardson refinement is applied on top of the central stencils; the
    imaginary residue of every returned moment is asserted small.
    """
    c = CycleArrays([p])
    w_mean, qh_mean, value = checked(cf_moments, c, populations(c), n, m, step)
    return CFMoments(
        lambda_step=step,
        nu_step=step,
        w_mean=float(w_mean[0]),
        qh_mean=float(qh_mean[0]),
        order=(n, m),
        value=float(value[0]),
    )


def cf_book(c: CycleArrays, pops: np.ndarray, step: float, errors: RowErrors) -> EnergyBook:
    """Energetics with first moments from the characteristic function."""
    w, q_hot, _ = cf_moments(c, pops, 1, 0, step, errors)
    return _book(c, w, q_hot, -w - q_hot, "cf", errors)


def energetics_cf(p: CycleParams, step: float = CF_STEP) -> EnergyBook:
    """Energetics with first moments from the characteristic function."""
    return _one_book(cf_book, p, step)


def performance(book: EnergyBook, p: CycleParams) -> Performance:
    """Efficiency and power plus the two reference lines.

    eta is only defined in the engine regime; the reference lines are
    attached as metadata and never asserted as achieved efficiencies.
    """
    eta = book.eta if book.regime is Regime.ENGINE else None
    power = 0.0 if p.tau == 0.0 else -book.w / p.tau
    return Performance(
        eta=eta,
        power=power,
        eta_otto=otto_efficiency(p),
        eta_carnot=carnot_efficiency(p),
    )
