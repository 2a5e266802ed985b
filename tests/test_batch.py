"""Array-at-a-time evaluation: chunking invariance, agreement with the
one-cycle public functions, and cross-route properties over random batches."""

import math
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twostroke.linalg import checked
from twostroke.model import CYCLE_FIELDS, CycleArrays, CycleParams, initial_state, populations
from twostroke.propagators import (
    PropagatorMode,
    align_global_phase,
    evolve,
    propagator,
    unitaries,
)
from twostroke.squeezing import l1_coherence, xi_closed_form, xi_general
from twostroke.sweep import FULL_MODES, SweepSpec, evaluate, evaluate_grid, rows_to_csv
from twostroke.thermo import (
    cf_book,
    closed_book,
    energetics_closed,
    energetics_trace,
    trace_book,
    trace_route,
)

ROUTES_OF_MODE = {
    PropagatorMode.INTERACTION_ONLY: ("trace", "closed", "cf"),
    PropagatorMode.ORACLE_INTERACTION: ("trace", "closed", "cf"),
    PropagatorMode.FULL: ("trace",),
    PropagatorMode.ORACLE_FULL: ("trace",),
}


def engine_spec(mode, scale=1.0):
    """The engine point's tau sweep, with both gaps times `scale` and both betas over it."""
    base = CycleParams(eps_a=1.0 * scale, eps_b=0.6 * scale, beta_a=1.0 / scale,
                       beta_b=2.0 / scale, kappa=0.1, omega=0.5, tau=1.0)
    return SweepSpec(base=base, variable="tau", start=0.0, stop=60.0, points=41,
                     mode=mode, routes=ROUTES_OF_MODE[mode])


@pytest.mark.parametrize("mode", list(PropagatorMode))
def test_csv_bytes_do_not_depend_on_chunking(mode):
    spec = engine_spec(mode)
    values = spec.grid()
    whole = rows_to_csv(evaluate_grid(spec, values))
    for parts in (2, 3, 7, len(values)):
        chunks = np.array_split(values, parts)
        rows = [row for chunk in chunks for row in evaluate_grid(spec, chunk)]
        assert rows_to_csv(rows) == whole, f"{parts} chunks"


# every mode at three energy scales; scale 1 keeps the mode's own test id
@pytest.mark.parametrize("mode, scale", [
    pytest.param(mode, scale, id=str(mode) if scale == 1.0 else f"{mode}-scale{scale}")
    for scale in (1.0, 2.5, 0.4) for mode in PropagatorMode])
def test_scalar_api_reproduces_sweep_rows_bit_for_bit(mode, scale):
    spec = engine_spec(mode, scale)
    rows = evaluate_grid(spec, spec.grid())
    for row in rows[::8]:
        p = CycleParams(*(getattr(row, name) for name in CYCLE_FIELDS))
        book = energetics_trace(p, mode)
        assert (book.w, book.q_hot, book.q_cold, book.sigma) == (
            row.w, row.q_hot, row.q_cold, row.sigma)
        rho = evolve(initial_state(p), propagator(p, mode))
        p0 = np.diagonal(initial_state(p)).real[None]
        assert checked(trace_book, CycleArrays([p]), p0, rho[None], book.method).row(0) == book
        assert xi_general(rho).xi == row.xi_general
        assert l1_coherence(rho) == row.coherence_l1
        # the closed form describes the interaction-only evolution alone
        assert row.xi_closed == (None if mode in FULL_MODES else xi_closed_form(p))
        if "closed" in spec.routes:
            closed = energetics_closed(p)
            fields = ("w", "q_hot", "q_cold", "sigma")
            assert row.resid_closed == max(
                abs(getattr(book, f) - getattr(closed, f)) for f in fields)


@pytest.mark.parametrize("mode", list(PropagatorMode))
def test_xi_closed_is_blank_exactly_in_full_modes(mode):
    spec = engine_spec(mode)
    rows = evaluate_grid(spec, spec.grid())
    assert all(row.error is None for row in rows)
    header, *lines = rows_to_csv(rows).splitlines()
    column = header.split(",").index("xi_closed")
    cells = [line.split(",")[column] for line in lines]
    if mode in FULL_MODES:
        assert cells == [""] * len(rows)
    else:
        assert all(cell != "" for cell in cells)


def test_overflowing_row_fails_instead_of_writing_nan():
    ok = CycleParams(eps_a=1.0, eps_b=0.6, beta_a=1.0, beta_b=2.0, kappa=0.1, omega=0.5, tau=1.0)
    huge = replace(ok, kappa=1e300, tau=0.0)  # kappa**2 overflows in the closed-form xi
    routes = ROUTES_OF_MODE[PropagatorMode.INTERACTION_ONLY]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = evaluate([0, 1], CycleArrays([huge, ok]), PropagatorMode.INTERACTION_ONLY, routes)
    assert rows[0].error == "xi_closed is not finite" and rows[0].xi_closed is None
    assert rows[1] == evaluate([1], CycleArrays([ok]), PropagatorMode.INTERACTION_ONLY, routes)[0]


# --- properties over random batches in the benchmark's parameter ranges -------------

def _cycle(eps_b, beta_b, kappa, omega, tau):
    return CycleParams(eps_a=1.0, eps_b=eps_b, beta_a=1.0, beta_b=beta_b,
                       kappa=kappa, omega=omega, tau=tau)


def _unit(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# tau sweeps at engine-like points, and short gap-ratio sweeps at stronger coupling
tau_engine = st.builds(_cycle, _unit(0.5, 0.7), _unit(1.5, 3.0), _unit(0.05, 0.2),
                       _unit(0.25, 1.0), _unit(0.0, 60.0))
ratio_oracle = st.builds(
    lambda eps_b, kappa, omega_ratio, tau: _cycle(eps_b, 2.0, kappa, kappa * omega_ratio, tau),
    _unit(0.05, 2.0), _unit(0.1, 1.0), _unit(1.0, 10.0), _unit(0.1, 1.0))
batches = st.lists(st.one_of(tau_engine, ratio_oracle), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(batches)
def test_routes_and_oracle_agree_on_random_batches(params):
    c = CycleArrays(params)
    pops = populations(c)

    u_int = checked(unitaries, c, PropagatorMode.INTERACTION_ONLY)
    assert np.max(np.abs(u_int - checked(unitaries, c, PropagatorMode.ORACLE_INTERACTION))) < 1e-10
    u_full = checked(unitaries, c, PropagatorMode.FULL)
    for u, oracle in zip(u_full, checked(unitaries, c, PropagatorMode.ORACLE_FULL)):
        assert np.max(np.abs(align_global_phase(u, oracle) - oracle)) < 1e-10

    trace = checked(trace_route, c, pops, PropagatorMode.INTERACTION_ONLY)
    closed = checked(closed_book, c, pops)
    cf = checked(cf_book, c, pops)
    for field in ("w", "q_hot", "q_cold", "sigma"):
        t = getattr(trace, field)
        assert np.max(np.abs(t - getattr(closed, field))) < 1e-9
        assert np.max(np.abs(t - getattr(cf, field)) / np.maximum(1.0, np.abs(t))) < 1e-6
    for mode in (PropagatorMode.INTERACTION_ONLY, PropagatorMode.FULL):
        book = checked(trace_route, c, pops, mode)
        assert np.max(np.abs(book.w + book.q_hot + book.q_cold)) <= 1e-12
        assert np.min(book.sigma) >= -1e-12


# Each breaks one rule of a batch's first cycle: kappa = omega = 0 passes
# CycleParams but has no propagator; the others break a parameter rule.  The
# batches have beta_a = 1 < beta_b <= 3, so beta_b = 1 makes the two equal.
BREAKS = (
    {"kappa": 0.0, "omega": 0.0},
    {"tau": -1.0},
    {"eps_b": 0.0},
    {"eps_b": -0.5},
    {"omega": math.nan},
    {"beta_b": 1.0},
    {"beta_a": 5.0},
)


@settings(max_examples=25, deadline=None)
@given(batches, st.integers(min_value=0), st.sampled_from(list(PropagatorMode)),
       st.sampled_from(BREAKS))
def test_invalid_row_fails_alone_with_the_scalar_error(params, position, mode, breaks):
    bad = {**asdict(params[0]), **breaks}
    with pytest.raises(ValueError) as scalar:
        energetics_trace(CycleParams(**bad), mode)
    at = position % (len(params) + 1)
    table = [asdict(p) for p in params[:at]] + [bad] + [asdict(p) for p in params[at:]]
    batch = CycleArrays.from_columns(
        **{name: np.array([row[name] for row in table]) for name in CYCLE_FIELDS})
    routes = ROUTES_OF_MODE[mode]
    rows = evaluate(list(range(len(table))), batch, mode, routes)
    assert rows[at].error == str(scalar.value)
    assert rows[at].w is None and rows[at].cause is not None
    clean = evaluate(list(range(len(params))), CycleArrays(params), mode, routes)
    assert [replace(r, swept_value=0) for r in rows[:at] + rows[at + 1:]] == [
        replace(r, swept_value=0) for r in clean]
    # each row of a batch equals the same cycle evaluated on its own
    for i, p in enumerate(params):
        assert replace(evaluate([i], CycleArrays([p]), mode, routes)[0], swept_value=0) == replace(
            clean[i], swept_value=0)
