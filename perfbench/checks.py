"""Output checks, run outside the timed region; every problem fails its job.

Budgets are the ones ``twostroke validate`` enforces: closed-route residual
below 1e-9, characteristic-function residual below 1e-6 after scaling by
max(1, |W|, |Q_H|, |Q_C|, |Sigma|), first law to 1e-12 on every row, and
sampled rows within 1e-9 of the trace route under the matching oracle mode.
"""

import csv
import io
import random
import re

CLOSED_TOL = 1e-9
CF_REL_TOL = 1e-6
FIRST_LAW_TOL = 1e-12
ORACLE_TOL = 1e-9
ORACLE_SAMPLES = 2

CYCLE_COLUMNS = ("eps_a", "eps_b", "beta_a", "beta_b", "kappa", "omega", "tau")

# Matching oracle of each propagator mode: the same generator by eigh.
ORACLE_MODE = {
    "interaction": "oracle-interaction",
    "oracle-interaction": "oracle-interaction",
    "full": "oracle-full",
    "oracle-full": "oracle-full",
}

_VALIDATE_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_sweep_csv(text: str, points: int, mode: str, package, rng: random.Random) -> list[str]:
    """Problems found in one sweep CSV (an empty list means it passed)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != points:
        return [f"expected {points} rows, got {len(rows)}"]
    problems = []
    for i, row in enumerate(rows):
        if row["W"] == "":
            problems.append(f"row {i}: failed row")
            continue
        w, q_hot, q_cold, sigma = (float(row[k]) for k in ("W", "Q_H", "Q_C", "Sigma"))
        if abs(w + q_hot + q_cold) > FIRST_LAW_TOL:
            problems.append(f"row {i}: |W+Q_H+Q_C| = {abs(w + q_hot + q_cold):.3e}")
        if row["resid_closed"] != "" and not float(row["resid_closed"]) < CLOSED_TOL:
            problems.append(f"row {i}: resid_closed = {row['resid_closed']}")
        if row["resid_cf"] != "":
            scale = max(1.0, abs(w), abs(q_hot), abs(q_cold), abs(sigma))
            if not float(row["resid_cf"]) / scale < CF_REL_TOL:
                problems.append(f"row {i}: scaled resid_cf = {row['resid_cf']}")
    if problems:
        return problems

    oracle = package.propagators.PropagatorMode(ORACLE_MODE[mode])
    for i in rng.sample(range(len(rows)), min(ORACLE_SAMPLES, len(rows))):
        row = rows[i]
        params = package.model.CycleParams(**{k: float(row[k]) for k in CYCLE_COLUMNS})
        book = package.thermo.energetics_trace(params, oracle)
        for column, value in (("W", book.w), ("Q_H", book.q_hot), ("Q_C", book.q_cold)):
            if not abs(float(row[column]) - value) <= ORACLE_TOL:
                problems.append(f"row {i}: {column} {row[column]} vs {oracle.value} {value!r}")
    return problems


def check_validate_output(text: str, expected_checks: int) -> list[str]:
    """Problems in the stdout of ``twostroke validate``."""
    lines = text.strip().splitlines()
    match = _VALIDATE_SUMMARY.match(lines[-1]) if lines else None
    if match is None:
        return ["no 'N/M checks passed' summary line"]
    passed, total = int(match.group(1)), int(match.group(2))
    if passed != total or total != expected_checks:
        return [f"validate reported {passed}/{total}, expected "
                f"{expected_checks}/{expected_checks}"]
    return []
