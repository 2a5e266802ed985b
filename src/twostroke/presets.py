"""Canned sweep configurations, one per headline figure of the study.

A preset bundles one or more labelled sweeps ("series"): two-coupling figures
carry one series per twisting strength, and the free-Hamiltonian comparison
figures carry one series per propagator mode.  Each series produces its own
CSV with the fixed column schema.  `PRESETS` is the one table of them, and
each figure operating point below is written once.

Grid choices not pinned by the figures themselves: interaction-time axes use
tau in [0, 60] with 1200 points (several oscillation periods of the corner
frequency ~1 at the engine operating point), and gap-ratio axes use
eps_b/eps_a in [0.05, 2.0] with 400 points.
"""

from dataclasses import replace

from .model import CycleParams
from .propagators import PropagatorMode
from .sweep import SweepSpec

RATIO_START, RATIO_STOP, RATIO_POINTS = 0.05, 2.0, 400
TAU_START, TAU_STOP, TAU_POINTS = 0.0, 60.0, 1200

# regime-map operating point: unit hot gap, 2:1 inverse temperatures,
# kappa = 1 with omega = 10*kappa and tau = kappa
STRONG_COUPLING = CycleParams(
    eps_a=1.0, eps_b=0.5, beta_a=1.0, beta_b=2.0, kappa=1.0, omega=10.0, tau=1.0
)
# free-Hamiltonian comparison point: weak twisting, short stroke
FREE_COMPARISON = replace(STRONG_COUPLING, kappa=0.1, omega=1.0, tau=0.1)


def engine_base(kappa: float) -> CycleParams:
    # engine operating point: eps_b = 0.6*eps_a, omega = 0.5
    return replace(STRONG_COUPLING, eps_b=0.6, kappa=kappa, omega=0.5)


def scaled_base(kappa: float) -> CycleParams:
    # omega and tau scale with the twisting strength
    return replace(STRONG_COUPLING, kappa=kappa, omega=10.0 * kappa, tau=10.0 * kappa)


def _ratio(base: CycleParams, **evaluation) -> SweepSpec:
    return SweepSpec(base, "eps_ratio", RATIO_START, RATIO_STOP, RATIO_POINTS, **evaluation)


def _tau(base: CycleParams) -> SweepSpec:
    return SweepSpec(base, "tau", TAU_START, TAU_STOP, TAU_POINTS)


def _per_coupling(sweep, base) -> tuple[tuple[str, SweepSpec], ...]:
    return tuple((f"k{kappa:.2f}", sweep(base(kappa))) for kappa in (0.10, 0.12))


def _with_and_without_free(base: CycleParams, routes) -> tuple[tuple[str, SweepSpec], ...]:
    return (
        ("interaction", _ratio(base, routes=routes)),
        ("full", _ratio(base, mode=PropagatorMode.FULL, routes=("trace",))),
    )


# squeezing, coherence, efficiency, power and entropy production over the
# interaction time: one sweep, plot the relevant column
_ENGINE_TIME = _per_coupling(_tau, engine_base)

PRESETS: dict[str, tuple[tuple[str, SweepSpec], ...]] = {
    "fig2a": (("main", _ratio(STRONG_COUPLING)),),  # regime map over the gap ratio
    "fig2b": _per_coupling(_ratio, scaled_base),  # squeezing over the gap ratio
    "fig3a": _ENGINE_TIME,
    "fig3b": _ENGINE_TIME,
    "fig4a": _ENGINE_TIME,
    "fig4b": _ENGINE_TIME,
    "fig5": _ENGINE_TIME,
    # squeezing, then energetics, with and without the free Hamiltonian
    "fig9": _with_and_without_free(FREE_COMPARISON, ("trace", "closed")),
    "fig10": _with_and_without_free(STRONG_COUPLING, ("trace", "closed", "cf")),
}
PRESET_NAMES = tuple(PRESETS)


def figure_preset(name: str) -> tuple[tuple[str, SweepSpec], ...]:
    """The labelled series of the named preset; unknown names raise with the valid list."""
    try:
        return PRESETS[name]
    except KeyError:
        valid = ", ".join(PRESET_NAMES)
        raise ValueError(f"unknown preset {name!r}; valid presets: {valid}") from None
