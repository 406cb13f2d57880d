"""Batch front end: sweeps, dataset emission, scaling fits.

argparse is the one settings parser: every flag declares its type, choices
and default once. `--config FILE` turns each flat `key = value` line into
the flag `--key=value` (`_` in a key reads as `-`; the switch `strict`
takes a yes/no word), so a file value is checked exactly as the flag is.
The file's flags are parsed first, with no prefix matching, and the
command line on top, so flags win. A preset supplies the particle set and
temperature grid unless those are given. A sweep writes `<out>.csv` and
`<out>.json`. Exit codes: 0 success, 2 bad configuration (a bad value or
choice, an unknown file key, a temperature grid of more than
sweep.MAX_GRID_POINTS points, an `--out` whose directory is missing or
not writable or whose `<out>.csv` or `<out>.json` is a directory, and a
count that run_sweep refuses: no particle number, or a particle number
below 1; all refused before the first row), 3 non-converged rows under
--strict.
"""

from __future__ import annotations

import argparse
import os
import sys

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

__all__ = ["main"]

# Config-file keys that are bare switches on the command line.
SWITCHES = ("strict",)
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
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want whole particle numbers, got {text!r}") from None


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
        description="Fixed-N trapped-boson statistics: sweeps.",
        allow_abbrev=allow_abbrev,
    )
    add = parser.add_argument
    add("--preset", choices=sorted(PRESETS),
        help="named particle set and temperature grid")
    add("--particles", type=_particles,
        help="comma-separated particle numbers, e.g. 100,1000")
    add("--t-over-tc", dest="t_grid", type=_t_grid, metavar="START:STOP:STEP",
        help="temperature grid in units of Tc")
    add("--out", default="sweep",
        help="output path base: writes OUT.csv and OUT.json (default: sweep)")
    add("--strict", action="store_true",
        help="exit 3 if any row fails to converge")
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
    if settings.preset:
        preset = PRESETS[settings.preset]
        if settings.particles is None:
            settings.particles = list(preset.particles)
        if settings.t_grid is None:
            settings.t_grid = preset.grid()
    if settings.particles is None or settings.t_grid is None:
        raise ConfigError(
            "nothing to do: give --preset, or --particles with --t-over-tc")
    # refused here, not after the whole sweep has run
    folder = os.path.dirname(settings.out) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write --out {settings.out}: "
                          f"{folder} is not a writable directory")
    # from here on, out is the base of the two files
    settings.out = settings.out.removesuffix(".csv").removesuffix(".json")
    for target in (f"{settings.out}.csv", f"{settings.out}.json"):
        if os.path.isdir(target):
            raise ConfigError(f"cannot write --out {settings.out}: "
                              f"{target} is a directory")
    return settings


def _run_sweep(settings: argparse.Namespace) -> int:
    result = run_sweep(settings.particles, settings.t_grid)
    result.meta["preset"] = settings.preset
    write_csv(result.rows, f"{settings.out}.csv")
    write_json(result, f"{settings.out}.json")
    ok = len(result.rows) - len(result.failed_rows)
    print(f"rows: {ok}/{len(result.rows)} converged; "
          f"wrote {settings.out}.csv, {settings.out}.json "
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
    try:
        return _run_sweep(settings)
    except (DomainError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
