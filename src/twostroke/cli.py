"""Command-line front end: parameter sweeps and the validation suite.

Exit codes: 0 success, 1 row failures or failed checks, 2 usage errors.
"""

import argparse
import configparser
import sys
from dataclasses import replace
from pathlib import Path

from .model import CYCLE_FIELDS, CycleParams
from .presets import PRESET_NAMES, figure_preset
from .propagators import PropagatorMode
from .sweep import ROUTES, SweepRow, SweepSpec, run_sweep, write_csv
from .validation import run_validation

_MODE_NAMES = {mode.value: mode for mode in PropagatorMode}


class UsageError(Exception):
    pass


def _parse_mode(text: str) -> PropagatorMode:
    try:
        return _MODE_NAMES[text]
    except KeyError:
        raise UsageError(
            f"unknown mode {text!r}; valid modes: {', '.join(sorted(_MODE_NAMES))}"
        ) from None


def _parse_routes(text: str) -> tuple[str, ...]:
    """The comma-separated route names; `SweepSpec` judges them."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def load_config(path: str, **overrides) -> tuple[SweepSpec, str | None]:
    """Read a key = value run configuration.

    Cycle parameters are plain top-level keys (a leading [cycle] header is
    also accepted); the sweep axis lives in a [sweep] section.  `overrides`
    replace SweepSpec fields before the spec is validated.  Returns the
    spec and the configured output path, if any.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc.strerror or exc}") from None
    stripped = text.lstrip()
    if not stripped.startswith("["):
        text = "[cycle]\n" + text
    parser = configparser.ConfigParser(strict=False)
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config {path}: {exc}") from None

    if not parser.has_section("cycle"):
        raise UsageError(f"config {path} has no cycle parameters")
    if not parser.has_section("sweep"):
        raise UsageError(f"config {path} has no [sweep] section")

    cycle = parser["cycle"]
    missing = [key for key in CYCLE_FIELDS if key not in cycle]
    if missing:
        raise UsageError(f"config {path} is missing cycle keys: {', '.join(missing)}")
    try:
        base = CycleParams(**{key: cycle.getfloat(key) for key in CYCLE_FIELDS})
    except ValueError as exc:
        raise UsageError(f"invalid cycle parameters in {path}: {exc}") from None

    sweep = parser["sweep"]
    for key in ("variable", "start", "stop", "points"):
        if key not in sweep:
            raise UsageError(f"config {path} [sweep] is missing {key!r}")
    evaluation = {
        "mode": _parse_mode(sweep.get("mode", PropagatorMode.INTERACTION_ONLY.value)),
        "routes": _parse_routes(sweep.get("routes", ",".join(ROUTES))),
        **overrides,
    }
    try:
        spec = SweepSpec(
            base=base,
            variable=sweep.get("variable"),
            start=sweep.getfloat("start"),
            stop=sweep.getfloat("stop"),
            points=sweep.getint("points"),
            **evaluation,
        )
    except ValueError as exc:
        raise UsageError(f"invalid [sweep] section in {path}: {exc}") from None
    return spec, sweep.get("out", None)


def _series_path(out: Path, label: str, multi: bool) -> Path:
    if not multi:
        return out
    return out.with_name(f"{out.stem}__{label}{out.suffix or '.csv'}")


def _cmd_sweep(args) -> int:
    if args.preset is None and args.config is None:
        raise UsageError("provide --preset or --config")
    if args.workers < 1:
        raise UsageError(f"--workers must be at least 1, got {args.workers}")
    overrides = {}
    if args.mode is not None:
        overrides["mode"] = _parse_mode(args.mode)
    if args.routes is not None:
        overrides["routes"] = _parse_routes(args.routes)

    series: list[tuple[str, SweepSpec]] = []
    out: Path | None = Path(args.out) if args.out else None
    if args.config is not None:
        spec, config_out = load_config(args.config, **overrides)
        if out is None and config_out:
            out = Path(config_out)
        series.append(("main", spec))
    if args.preset is not None:
        try:
            series.extend(
                (label, replace(spec, **overrides)) for label, spec in figure_preset(args.preset)
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if out is None:
        raise UsageError("provide --out (or an `out` key in the config)")
    if not out.parent.is_dir():
        raise UsageError(f"output directory {out.parent} does not exist")
    if out.is_dir():
        raise UsageError(f"output path {out} is a directory, not a CSV file")

    failures = 0
    multi = len(series) > 1
    for label, spec in series:
        rows = run_sweep(spec, workers=args.workers)
        path = _series_path(out, label, multi)
        write_csv(rows, str(path))
        failed: dict[str, list[SweepRow]] = {}
        for row in rows:
            if row.cause is not None:
                failed.setdefault(row.cause, []).append(row)
        bad = sum(map(len, failed.values()))
        failures += bad
        status = "ok" if bad == 0 else f"{bad} failed rows"
        print(f"wrote {path} ({len(rows)} rows, {status})")
        for group in failed.values():
            first = group[0]
            print(f"  {len(group)} rows, first at {spec.variable} = {first.swept_value!r}: "
                  f"{first.error}", file=sys.stderr)
    if failures:
        print(f"{failures} rows failed", file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args) -> int:
    results = run_validation(quick=not args.full)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{r.name:<{width}}  {mark}  [{r.elapsed:6.2f}s]  {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twostroke",
        description="Two-stroke spin-squeezing thermal machine: sweeps and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and write CSV")
    sweep.add_argument("--config", help="key = value run configuration file")
    sweep.add_argument("--preset", help=f"figure preset: {', '.join(PRESET_NAMES)}")
    sweep.add_argument("--out", help="output CSV path (presets with several series get suffixed files)")
    sweep.add_argument("--mode", help="propagator mode: " + ", ".join(sorted(_MODE_NAMES)))
    sweep.add_argument("--routes", help="comma-separated evaluation routes: " + ",".join(ROUTES))
    sweep.add_argument("--workers", type=int, default=1, help="process-pool width (default 1)")
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser("validate", help="run the cross-route invariant suite")
    validate.add_argument(
        "--full", action="store_true",
        help="run the determinism check over every distinct preset sweep (slow)",
    )
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
