"""Batch front end: sweeps, dataset emission, validation, scaling fits.

argparse is the one settings parser: every flag declares its type, choices
and default once. `--config FILE` turns each flat `key = value` line into
the flag `--key=value` (`_` in a key reads as `-`; the switches `strict`
and `validate` take a yes/no word), so a file value is checked exactly as
the flag is. The file's flags are parsed first, with no prefix matching,
and the command line on top, so flags win. A preset supplies the particle
set and temperature grid unless those are given. Exit codes: 0 success,
1 validation failure, 2 bad configuration (a bad value or choice, an
unknown file key), 3 non-converged rows under --strict.
"""

from __future__ import annotations

import argparse
import sys

from .canonical import QuadratureConfig
from .spectrum import DomainError
from .sweep import (
    DISCREPANCY_CHANNELS,
    PRESETS,
    fit_scaling,
    run_sweep,
    temperature_grid,
    write_csv,
    write_json,
)
from .validate import run_validation

__all__ = ["main"]

# Config-file keys that are bare switches on the command line.
SWITCHES = ("strict", "validate")
TRUE_WORDS = ("1", "true", "yes", "on")
FALSE_WORDS = ("0", "false", "no", "off")

# After a preset sweep, every discrepancy channel is fitted at this T/Tc.
FIT_T = 0.6


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def _particles(text: str) -> list:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        values = []
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(
            f"want positive particle numbers, got {text!r}")
    return values


def _t_grid(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"want start:stop:step, got {text!r}")
    try:
        return temperature_grid(*(float(p) for p in parts))
    except (ValueError, DomainError) as err:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}: {err}") from None


def _count_or_auto(text: str) -> int | None:
    if text.strip().lower() == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"want a positive integer or 'auto', got {text!r}")
    return value


def read_config_file(path: str) -> list:
    """Flat key = value lines as flags; '#' starts a comment."""
    args = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, value = line.partition("=")
                key, value = key.strip().replace("_", "-"), value.strip()
                if not eq or key == "config":
                    raise ConfigError(f"{path}:{lineno}: want key = value "
                                      f"(key not config), got {line!r}")
                if key not in SWITCHES:
                    args.append(f"--{key}={value}")
                elif value.lower() in TRUE_WORDS:
                    args.append(f"--{key}")
                elif value.lower() not in FALSE_WORDS:
                    raise ConfigError(f"{path}:{lineno}: {key} wants yes "
                                      f"or no, got {value!r}")
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return args


def build_parser(allow_abbrev: bool = True) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bosecanon",
        description="Fixed-N trapped-boson statistics: sweeps and validation.",
        allow_abbrev=allow_abbrev,
    )
    add = parser.add_argument
    add("--preset", choices=sorted(PRESETS),
        help="named particle set and temperature grid")
    add("--particles", type=_particles,
        help="comma-separated particle numbers, e.g. 100,1000")
    add("--t-over-tc", dest="t_grid", type=_t_grid, metavar="START:STOP:STEP",
        help="temperature grid in units of Tc")
    add("--m-max", type=_count_or_auto,
        help="level truncation, integer or 'auto' (default auto)")
    add("--out", default="sweep", help="output path base (default: sweep)")
    add("--format", choices=("csv", "json", "both"), default="both",
        help="emit csv, json, or both (default both)")
    add("--threads", type=_count_or_auto, default=1,
        help="worker count or 'auto' (default 1)")
    add("--strict", action="store_true",
        help="exit 3 if any row fails to converge")
    add("--validate", action="store_true",
        help="run the self-check suites instead of a sweep")
    add("--max-n", type=int, default=100,
        help="largest N probed by --validate (default 100)")
    add("--tolerance", type=float, default=1e-8,
        help="suite tolerance for --validate (default 1e-8)")
    add("--config", help="flat key = value settings file; flags win")
    return parser


def resolve_settings(argv=None) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    settings = build_parser().parse_args(argv)
    if settings.config:
        # File flags must name an option exactly. argparse sets a default
        # only where the namespace lacks a value, so the command line,
        # parsed second, overrides the file and keeps its other values.
        file_args = read_config_file(settings.config)
        try:
            settings = build_parser(allow_abbrev=False).parse_args(file_args)
        except ConfigError as err:
            raise ConfigError(f"{settings.config}: {err}") from None
        build_parser().parse_args(argv, settings)
    if settings.validate:
        return settings
    if settings.preset:
        preset = PRESETS[settings.preset]
        if settings.particles is None:
            settings.particles = list(preset.particles)
        if settings.t_grid is None:
            settings.t_grid = preset.grid()
    if settings.particles is None or settings.t_grid is None:
        raise ConfigError(
            "nothing to do: give --preset, or --particles with --t-over-tc, "
            "or --validate")
    return settings


def _output_paths(settings: argparse.Namespace):
    base = settings.out.removesuffix(".csv").removesuffix(".json")
    return {fmt: f"{base}.{fmt}" for fmt in ("csv", "json")
            if settings.format in (fmt, "both")}


def _run_validate(settings: argparse.Namespace) -> int:
    try:
        report = run_validation(settings.max_n, settings.tolerance)
    except DomainError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _run_sweep(settings: argparse.Namespace) -> int:
    result = run_sweep(
        settings.particles,
        settings.t_grid,
        config=QuadratureConfig(m_max=settings.m_max),
        threads=settings.threads,
    )
    result.meta["preset"] = settings.preset
    paths = _output_paths(settings)
    if "csv" in paths:
        write_csv(result.rows, paths["csv"])
    if "json" in paths:
        write_json(result, paths["json"])
    ok = len(result.rows) - len(result.failed_rows)
    print(f"rows: {ok}/{len(result.rows)} converged; "
          f"wrote {', '.join(sorted(paths.values()))} "
          f"in {result.meta['elapsed_seconds']}s")
    for row in result.failed_rows:
        print(f"  failed: N={row.n} T/Tc={row.t_over_tc}: {row.error}",
              file=sys.stderr)
    if settings.preset:
        for channel in DISCREPANCY_CHANNELS:
            try:
                fit = fit_scaling(result.rows, channel, FIT_T)
            except DomainError:
                continue
            print(f"{channel} at T/Tc={FIT_T}: "
                  f"N^({fit.exponent:+.3f} +- {fit.stderr:.3f}) "
                  f"from {fit.points} sizes")
    if settings.strict and result.failed_rows:
        return 3
    return 0


def main(argv=None) -> int:
    try:
        settings = resolve_settings(argv)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    if settings.validate:
        return _run_validate(settings)
    try:
        return _run_sweep(settings)
    except (DomainError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
