"""Canned sweep configurations, one per headline figure of the study.

A preset bundles one or more labelled sweeps ("series"): two-coupling figures
carry one series per twisting strength, and the free-Hamiltonian comparison
figures carry one series per propagator mode.  Each series produces its own
CSV with the fixed column schema.

Grid choices not pinned by the figures themselves: interaction-time axes use
tau in [0, 60] with 1200 points (several oscillation periods of the corner
frequency ~1 at the engine operating point), and gap-ratio axes use
eps_b/eps_a in [0.05, 2.0] with 400 points.
"""

from dataclasses import dataclass

from .model import CycleParams
from .propagators import PropagatorMode
from .sweep import SweepSpec

PRESET_NAMES = (
    "fig2a",
    "fig2b",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig5",
    "fig9",
    "fig10",
)

RATIO_START, RATIO_STOP, RATIO_POINTS = 0.05, 2.0, 400
TAU_START, TAU_STOP, TAU_POINTS = 0.0, 60.0, 1200


@dataclass(frozen=True)
class FigurePreset:
    name: str
    series: tuple[tuple[str, SweepSpec], ...]
    note: str


def _strong_coupling_base() -> CycleParams:
    # regime-map operating point: unit hot gap, 2:1 inverse temperatures,
    # kappa = 1 with omega = 10*kappa and tau = kappa
    return CycleParams(
        eps_a=1.0, eps_b=0.5, beta_a=1.0, beta_b=2.0, kappa=1.0, omega=10.0, tau=1.0
    )


def engine_base(kappa: float) -> CycleParams:
    # engine operating point: eps_b = 0.6*eps_a, omega = 0.5
    return CycleParams(
        eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0, kappa=kappa, omega=0.5, tau=1.0
    )


def _ratio_spec(base: CycleParams, mode: PropagatorMode, routes) -> SweepSpec:
    return SweepSpec(
        base=base,
        variable="eps_ratio",
        start=RATIO_START,
        stop=RATIO_STOP,
        points=RATIO_POINTS,
        mode=mode,
        routes=tuple(routes),
    )


def _tau_engine_series() -> tuple[tuple[str, SweepSpec], ...]:
    series = []
    for kappa in (0.10, 0.12):
        spec = SweepSpec(
            base=engine_base(kappa),
            variable="tau",
            start=TAU_START,
            stop=TAU_STOP,
            points=TAU_POINTS,
            mode=PropagatorMode.INTERACTION_ONLY,
            routes=("trace", "closed", "cf"),
        )
        series.append((f"k{kappa:.2f}", spec))
    return tuple(series)


def figure_preset(name: str) -> FigurePreset:
    """Build the named preset; unknown names raise with the valid list."""
    if name == "fig2a":
        spec = _ratio_spec(
            _strong_coupling_base(), PropagatorMode.INTERACTION_ONLY, ("trace", "closed", "cf")
        )
        return FigurePreset(
            name=name,
            series=(("main", spec),),
            note="regime map over the gap ratio: refrigerator, engine, accelerator bands",
        )
    if name == "fig2b":
        series = []
        for kappa in (0.10, 0.12):
            # omega and tau scale with each series' twisting strength
            base = CycleParams(
                eps_a=1.0,
                eps_b=0.5,
                beta_a=1.0,
                beta_b=2.0,
                kappa=kappa,
                omega=10.0 * kappa,
                tau=10.0 * kappa,
            )
            spec = _ratio_spec(base, PropagatorMode.INTERACTION_ONLY, ("trace", "closed", "cf"))
            series.append((f"k{kappa:.2f}", spec))
        return FigurePreset(
            name=name,
            series=tuple(series),
            note="squeezing parameter over the gap ratio for two twisting strengths",
        )
    if name in ("fig3a", "fig3b", "fig4a", "fig4b", "fig5"):
        what = {
            "fig3a": "squeezing parameter",
            "fig3b": "l1 coherence",
            "fig4a": "efficiency",
            "fig4b": "extracted power",
            "fig5": "entropy production",
        }[name]
        return FigurePreset(
            name=name,
            series=_tau_engine_series(),
            note=f"{what} over the interaction time at the engine operating point "
            f"(all columns share one sweep; plot the relevant one)",
        )
    if name == "fig9":
        base = CycleParams(
            eps_a=1.0, eps_b=0.5, beta_a=1.0, beta_b=2.0, kappa=0.1, omega=1.0, tau=0.1
        )
        return FigurePreset(
            name=name,
            series=(
                ("interaction", _ratio_spec(base, PropagatorMode.INTERACTION_ONLY, ("trace", "closed"))),
                ("full", _ratio_spec(base, PropagatorMode.FULL, ("trace",))),
            ),
            note="squeezing parameter with and without the free Hamiltonian in the evolution",
        )
    if name == "fig10":
        base = _strong_coupling_base()
        return FigurePreset(
            name=name,
            series=(
                ("interaction", _ratio_spec(base, PropagatorMode.INTERACTION_ONLY, ("trace", "closed", "cf"))),
                ("full", _ratio_spec(base, PropagatorMode.FULL, ("trace",))),
            ),
            note="energetics with and without the free Hamiltonian in the evolution",
        )
    raise ValueError(f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")
