"""Parameter sweeps over one cycle control, with multi-route evaluation.

Each grid point is independent, so a sweep is evaluated array-at-a-time: the
kernels run once per grid, or once per contiguous chunk of it on a process
pool.  Every formula is elementwise and every reduction runs in a fixed order,
so a row's numbers do not depend on the chunk it lands in and the output is
byte-identical for any pool width.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .linalg import RowErrors
from .model import CycleArrays, CycleParams, populations
from .propagators import PropagatorMode, evolved_states
from .squeezing import coherence_stack, flag_states, squeezing_stack, xi_closed_stack
from .thermo import CF_STEP, EnergyBook, Regime, cf_book, closed_book, trace_book

SWEEP_VARIABLES = ("tau", "kappa", "omega", "eps_ratio")
ROUTES = ("trace", "closed", "cf")
# Routes whose formulas assume the interaction-only evolution.
INTERACTION_ROUTES = ("closed", "cf")
FULL_MODES = (PropagatorMode.FULL, PropagatorMode.ORACLE_FULL)

CSV_COLUMNS = (
    "swept_value",
    "eps_a",
    "eps_b",
    "beta_a",
    "beta_b",
    "kappa",
    "omega",
    "tau",
    "W",
    "Q_H",
    "Q_C",
    "Sigma",
    "eta",
    "power",
    "xi_general",
    "xi_closed",
    "coherence_l1",
    "regime",
    "resid_closed",
    "resid_cf",
)


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
    output_path: Optional[str] = None

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
    """One evaluated grid point (numeric fields are None on failure)."""

    swept_value: float
    params: CycleParams
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


def apply_variable(base: CycleParams, variable: str, value: float) -> CycleParams:
    if variable == "eps_ratio":
        return replace(base, eps_b=value * base.eps_a)
    return replace(base, **{variable: value})


def _book_residual(primary: EnergyBook, other: EnergyBook) -> np.ndarray:
    return np.maximum.reduce([
        np.abs(primary.w - other.w),
        np.abs(primary.q_hot - other.q_hot),
        np.abs(primary.q_cold - other.q_cold),
        np.abs(primary.sigma - other.sigma),
    ])


def evaluate(
    values: Sequence[float],
    params: Sequence[CycleParams],
    mode: PropagatorMode,
    routes: Sequence[str],
) -> list[SweepRow]:
    """Evaluate the cycles `params` (swept values `values`) as one batch.

    A failing row carries the error text the one-cycle public functions raise
    for it; the other rows are unaffected.  A row whose arithmetic overflows
    fails too, so no non-finite number reaches the output.  The closed and cf
    routes read the cycle parameters and populations only, never the trace
    route's unitary or evolved state, so their residuals stay an independent
    cross-check.
    """
    if not params:
        return []
    c = CycleArrays(params)
    errors = RowErrors()
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
            books["cf"] = cf_book(c, pops, CF_STEP, errors)
        flag_states(rho_tau, errors)

        primary = books.get("trace") or books.get("closed") or books["cf"]
        numeric = {
            "W": primary.w,
            "Q_H": primary.q_hot,
            "Q_C": primary.q_cold,
            "Sigma": primary.sigma,
            "power": primary.power,
            "xi_general": squeezing_stack(rho_tau)[0],
            "xi_closed": xi_closed_stack(c, pops),
            "coherence_l1": coherence_stack(rho_tau),
        }
        for route in ("closed", "cf"):
            if "trace" in books and route in books:
                numeric[f"resid_{route}"] = _book_residual(books["trace"], books[route])
    for name, column in numeric.items():
        errors.flag(~np.isfinite(column), lambda i: ArithmeticError(f"{name} is not finite"))

    missing = [None] * len(params)
    columns = zip(
        *(numeric[name].tolist() for name in ("W", "Q_H", "Q_C", "Sigma")),
        [eta if regime is Regime.ENGINE else None
         for eta, regime in zip(primary.eta.tolist(), primary.regime)],
        *(numeric[name].tolist() for name in ("power", "xi_general", "xi_closed", "coherence_l1")),
        [regime.value for regime in primary.regime],
        *(numeric[name].tolist() if name in numeric else missing
          for name in ("resid_closed", "resid_cf")),
    )
    failures = [errors.first.get(i) for i in range(len(params))]
    return [
        SweepRow(value, p, *cells) if error is None
        else SweepRow(swept_value=value, params=p, error=str(error))
        for value, p, cells, error in zip(values, params, columns, failures)
    ]


def evaluate_grid(spec: SweepSpec, values: np.ndarray) -> list[SweepRow]:
    """Evaluate grid values of `spec` in one batch, in grid order.

    Values that make an invalid cycle fail their own row with the parameter
    error; the rest are evaluated together.
    """
    rows: list[Optional[SweepRow]] = []
    slots, good_values, good_params = [], [], []
    for value in values.tolist():
        try:
            params = apply_variable(spec.base, spec.variable, value)
        except ValueError as exc:
            rows.append(SweepRow(swept_value=value, params=spec.base, error=str(exc)))
            continue
        slots.append(len(rows))
        rows.append(None)
        good_values.append(value)
        good_params.append(params)
    for slot, row in zip(slots, evaluate(good_values, good_params, spec.mode, spec.routes)):
        rows[slot] = row
    return rows


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """Evaluate the whole grid, in grid order, optionally on a process pool.

    Results do not depend on `workers`; a width of 1 avoids the pool
    entirely, and a wider pool evaluates one contiguous chunk per worker.
    When `spec.output_path` is set the CSV is written as well.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    values = spec.grid()
    if workers == 1:
        rows = evaluate_grid(spec, values)
    else:
        chunks = np.array_split(values, workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(evaluate_grid, [spec] * len(chunks), chunks)
            rows = [row for part in parts for row in part]
    if spec.output_path is not None:
        write_csv(rows, spec.output_path)
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Render rows in the fixed column order, 17 significant digits, LF endings."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        p = row.params
        lines.append(
            ",".join(
                _cell(v)
                for v in (
                    row.swept_value,
                    p.eps_a,
                    p.eps_b,
                    p.beta_a,
                    p.beta_b,
                    p.kappa,
                    p.omega,
                    p.tau,
                    row.w,
                    row.q_hot,
                    row.q_cold,
                    row.sigma,
                    row.eta,
                    row.power,
                    row.xi_general,
                    row.xi_closed,
                    row.coherence_l1,
                    row.regime,
                    row.resid_closed,
                    row.resid_cf,
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[SweepRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))


def failure_count(rows: Sequence[SweepRow]) -> int:
    return sum(1 for row in rows if row.error is not None)
