"""Parameter sweeps over one cycle control, with multi-route evaluation.

Each grid point is independent, so a sweep is evaluated array-at-a-time: the
kernels run once per grid, or once per contiguous chunk of it on a process
pool.  Every formula is elementwise and every reduction runs in a fixed order,
so a row's numbers do not depend on the chunk it lands in and the output is
byte-identical for any pool width.
"""

import math
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .linalg import RowErrors
from .model import CYCLE_FIELDS, CycleArrays, CycleParams, flag_invalid, populations
from .propagators import PropagatorMode, evolved_states
from .squeezing import coherence_stack, flag_states, squeezing_stack, xi_closed_stack
from .thermo import EnergyBook, Regime, cf_book, closed_book, trace_book

SWEEP_VARIABLES = ("tau", "kappa", "omega", "eps_ratio")
ROUTES = ("trace", "closed", "cf")
# Routes whose formulas assume the interaction-only evolution.
INTERACTION_ROUTES = ("closed", "cf")
FULL_MODES = (PropagatorMode.FULL, PropagatorMode.ORACLE_FULL)

@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over a fixed base cycle.

    `eps_ratio` sweeps eps_b/eps_a with eps_a held fixed; the other variables
    replace the corresponding base field directly.
    """

    base: CycleParams
    variable: str
    start: float
    stop: float
    points: int
    mode: PropagatorMode = PropagatorMode.INTERACTION_ONLY
    routes: tuple[str, ...] = ROUTES

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("start and stop must be finite")
        if not self.start < self.stop:
            raise ValueError(f"start must be below stop, got [{self.start!r}, {self.stop!r}]")
        if self.points < 2:
            raise ValueError(f"points must be at least 2, got {self.points!r}")
        if not self.routes:
            raise ValueError("at least one evaluation route is required")
        for route in self.routes:
            if route not in ROUTES:
                raise ValueError(f"unknown route {route!r}, valid routes: {ROUTES}")
        mismatched = [route for route in self.routes if route in INTERACTION_ROUTES]
        if self.mode in FULL_MODES and mismatched:
            raise ValueError(
                f"routes {', '.join(mismatched)} evaluate the interaction-only evolution; "
                f"mode {self.mode.value!r} supports only the trace route"
            )

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; its fields up to `resid_cf`, in order, are the
    CSV columns.  On failure the fields after the cycle's are None, `error` is
    the error text and `cause` its message template, without the row's values."""

    swept_value: float
    eps_a: float
    eps_b: float
    beta_a: float
    beta_b: float
    kappa: float
    omega: float
    tau: float
    w: Optional[float] = None
    q_hot: Optional[float] = None
    q_cold: Optional[float] = None
    sigma: Optional[float] = None
    eta: Optional[float] = None
    power: Optional[float] = None
    xi_general: Optional[float] = None
    xi_closed: Optional[float] = None
    coherence_l1: Optional[float] = None
    regime: Optional[str] = None
    resid_closed: Optional[float] = None
    resid_cf: Optional[float] = None
    error: Optional[str] = None
    cause: Optional[str] = None


CSV_FIELDS = tuple(f.name for f in fields(SweepRow))[:-2]
# the only headers that differ from their field; the fields keep EnergyBook's names
CSV_COLUMNS = tuple({"w": "W", "q_hot": "Q_H", "q_cold": "Q_C", "sigma": "Sigma"}.get(name, name)
                    for name in CSV_FIELDS)


def _swept(base: CycleParams, variable: str, values) -> dict:
    """The fields of `base` with `variable` set to `values`, a number or an array."""
    if variable == "eps_ratio":
        with np.errstate(over="ignore"):  # an overflowing eps_b fails its finiteness rule
            return {**asdict(base), "eps_b": values * base.eps_a}
    return {**asdict(base), variable: values}


def apply_variable(base: CycleParams, variable: str, value: float) -> CycleParams:
    return CycleParams(**_swept(base, variable, value))


def _book_residual(primary: EnergyBook, other: EnergyBook) -> np.ndarray:
    return np.maximum.reduce([
        np.abs(primary.w - other.w),
        np.abs(primary.q_hot - other.q_hot),
        np.abs(primary.q_cold - other.q_cold),
        np.abs(primary.sigma - other.sigma),
    ])


def evaluate(
    values: Sequence[float],
    c: CycleArrays,
    mode: PropagatorMode,
    routes: Sequence[str],
) -> list[SweepRow]:
    """Evaluate the cycles `c` (swept values `values`) as one batch.

    A failing row carries the error text the one-cycle public functions raise
    for it, and its own cycle parameters as the rules saw them; the other rows
    are unaffected.  A row whose arithmetic overflows fails too, so no
    non-finite number reaches its numeric cells.  The closed and cf routes read
    the cycle parameters and populations only, never the trace route's
    unitary or evolved state, so their residuals stay an independent check.
    """
    errors = RowErrors()
    flag_invalid(c, errors)
    # overflowing rows fail below instead of warning once per array operation
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pops = populations(c)
        rho_tau = evolved_states(c, pops, mode, errors)

        books: dict[str, EnergyBook] = {}
        if "trace" in routes:
            books["trace"] = trace_book(c, pops, rho_tau, f"trace:{mode.value}", errors)
        if "closed" in routes:
            books["closed"] = closed_book(c, pops, errors)
        if "cf" in routes:
            books["cf"] = cf_book(c, pops, errors)
        flag_states(rho_tau, errors)

        primary = books.get("trace") or books.get("closed") or books["cf"]
        numeric = {
            "W": primary.w,
            "Q_H": primary.q_hot,
            "Q_C": primary.q_cold,
            "Sigma": primary.sigma,
            "power": primary.power,
            "xi_general": squeezing_stack(rho_tau)[0],
            "coherence_l1": coherence_stack(rho_tau),
        }
        if mode not in FULL_MODES:  # an interaction-only formula; blank otherwise
            numeric["xi_closed"] = xi_closed_stack(c, pops)
        for route in ("closed", "cf"):
            if "trace" in books and route in books:
                numeric[f"resid_{route}"] = _book_residual(books["trace"], books[route])
    for name, column in numeric.items():
        errors.flag(~np.isfinite(column), f"{name} is not finite", error=ArithmeticError)

    cells = {
        "swept_value": values,
        **{name: getattr(c, name).tolist() for name in CYCLE_FIELDS},
        **{name: column.tolist() for name, column in numeric.items()},
        "eta": [eta if regime is Regime.ENGINE else None
                for eta, regime in zip(primary.eta.tolist(), primary.regime)],
        "regime": [regime.value for regime in primary.regime],
    }
    blank = [None] * len(c)
    known = 1 + len(CYCLE_FIELDS)  # a failed row keeps its swept value and cycle
    return [
        SweepRow(*row) if i not in errors.first
        else SweepRow(*row[:known], error=str(errors.first[i]), cause=errors.cause[i])
        for i, row in enumerate(zip(*(cells.get(name, blank) for name in CSV_COLUMNS)))
    ]


def evaluate_grid(spec: SweepSpec, values: np.ndarray) -> list[SweepRow]:
    """Evaluate grid values of `spec` in one batch, in grid order: `spec.base`
    with the swept values in one column."""
    c = CycleArrays.from_columns(**_swept(spec.base, spec.variable, values))
    return evaluate(values.tolist(), c, spec.mode, spec.routes)


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate the whole grid, in grid order, optionally on a process pool.

    Results do not depend on `workers`; a width of 1 avoids the pool
    entirely, and a wider pool evaluates one contiguous chunk per worker,
    with no more workers than grid points.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    values = spec.grid()
    workers = min(workers, len(values))
    if workers == 1:
        return evaluate_grid(spec, values)
    # imported here: loading the pool machinery costs every CLI start ~20 ms
    from concurrent.futures import ProcessPoolExecutor

    chunks = np.array_split(values, workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(evaluate_grid, [spec] * len(chunks), chunks)
        return [row for part in parts for row in part]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render rows in the fixed column order, 17 significant digits, LF endings."""
    cells = attrgetter(*CSV_FIELDS)
    lines = [",".join(CSV_COLUMNS), *(",".join(map(_cell, cells(row))) for row in rows)]
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[SweepRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
