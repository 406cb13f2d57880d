"""Batch front end: sweeps, dataset emission, validation, scaling fits.

Settings resolve in three layers: built-in defaults, then the config file
(flat key=value lines mirroring the flags), then explicit flags. A preset
supplies the particle set and temperature grid unless those are given
explicitly. Exit codes: 0 success, 1 validation failure, 2 bad
configuration, 3 non-converged rows under --strict.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

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

TAIL_ALIASES = {"mb": "maxwell_boltzmann_closure",
                "truncate": "truncate"}

# After a preset sweep, every discrepancy channel is fitted at this T/Tc.
FIT_T = 0.6


class ConfigError(ValueError):
    pass


@dataclass
class Settings:
    preset: str | None = None
    particles: list | None = None
    t_grid: list | None = None
    m_max: int | None = None
    ground_offset: float | None = None
    tail: str = "maxwell_boltzmann_closure"
    rel_tol: float = 1e-12
    out: str = "sweep"
    format: str = "both"
    threads: int | None = 1
    strict: bool = False
    validate: bool = False
    max_n: int = 100
    tolerance: float = 1e-8


def _parse_particles(text: str) -> list:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"bad particle list {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"particle numbers must be positive: {text!r}")
    return values


def _parse_t_grid(text: str) -> list:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"t-over-tc wants start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
        return temperature_grid(start, stop, step)
    except (ValueError, DomainError) as err:
        raise ConfigError(f"bad t-over-tc grid {text!r}: {err}") from None


def _parse_int_or_auto(text: str, what: str) -> int | None:
    if text.strip().lower() == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise ConfigError(f"bad {what} {text!r}") from None
    if value < 1:
        raise ConfigError(f"{what} must be positive or 'auto', got {text!r}")
    return value


def _parse_bool(text: str, what: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean for {what}: {text!r}")


def read_config_file(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; keys mirror the flags."""
    values = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from None
    return values


_KNOWN_KEYS = {
    "preset", "particles", "t_over_tc", "m_max", "ground_offset", "tail",
    "rel_tol", "out", "format", "threads", "strict", "validate",
    "max_n", "tolerance",
}


def _apply(settings: Settings, key: str, value: str) -> None:
    if key == "preset":
        if value not in PRESETS:
            raise ConfigError(
                f"unknown preset {value!r}; choose from {sorted(PRESETS)}")
        settings.preset = value
    elif key == "particles":
        settings.particles = _parse_particles(value)
    elif key == "t_over_tc":
        settings.t_grid = _parse_t_grid(value)
    elif key == "m_max":
        settings.m_max = _parse_int_or_auto(value, "m-max")
    elif key == "ground_offset":
        try:
            settings.ground_offset = float(value)
        except ValueError:
            raise ConfigError(f"bad ground-offset {value!r}") from None
    elif key == "tail":
        if value not in TAIL_ALIASES:
            raise ConfigError(f"tail must be one of {sorted(TAIL_ALIASES)}")
        settings.tail = TAIL_ALIASES[value]
    elif key == "rel_tol":
        try:
            settings.rel_tol = float(value)
        except ValueError:
            raise ConfigError(f"bad rel-tol {value!r}") from None
    elif key == "out":
        settings.out = value
    elif key == "format":
        if value not in ("csv", "json", "both"):
            raise ConfigError("format must be csv, json, or both")
        settings.format = value
    elif key == "threads":
        settings.threads = _parse_int_or_auto(value, "threads")
    elif key == "strict":
        settings.strict = _parse_bool(value, "strict")
    elif key == "validate":
        settings.validate = _parse_bool(value, "validate")
    elif key == "max_n":
        try:
            settings.max_n = int(value)
        except ValueError:
            raise ConfigError(f"bad max-n {value!r}") from None
    elif key == "tolerance":
        try:
            settings.tolerance = float(value)
        except ValueError:
            raise ConfigError(f"bad tolerance {value!r}") from None
    else:
        raise ConfigError(f"unknown config key {key!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosecanon",
        description="Fixed-N trapped-boson statistics: sweeps and validation.",
    )
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named particle set and temperature grid")
    parser.add_argument("--particles",
                        help="comma-separated particle numbers, e.g. 100,1000")
    parser.add_argument("--t-over-tc", dest="t_over_tc",
                        help="temperature grid start:stop:step in units of Tc")
    parser.add_argument("--m-max", dest="m_max",
                        help="level truncation, integer or 'auto'")
    parser.add_argument("--ground-offset", dest="ground_offset",
                        help="fixed evaluation offset (default: saddle point)")
    parser.add_argument("--tail", choices=sorted(TAIL_ALIASES),
                        help="levels beyond m-max: 'mb' closure or 'truncate'")
    parser.add_argument("--rel-tol", dest="rel_tol",
                        help="early-exit relative tolerance")
    parser.add_argument("--out", help="output path base (default: sweep)")
    parser.add_argument("--format", choices=("csv", "json", "both"),
                        help="emit csv, json, or both")
    parser.add_argument("--threads", help="worker count or 'auto' (default 1)")
    parser.add_argument("--strict", action="store_true", default=None,
                        help="exit 3 if any row fails to converge")
    parser.add_argument("--validate", action="store_true", default=None,
                        help="run the self-check suites instead of a sweep")
    parser.add_argument("--max-n", dest="max_n",
                        help="largest N probed by --validate (default 100)")
    parser.add_argument("--tolerance",
                        help="suite tolerance for --validate (default 1e-8)")
    parser.add_argument("--config", help="flat key=value settings file")
    return parser


def resolve_settings(argv) -> Settings:
    args = build_parser().parse_args(argv)
    settings = Settings()
    if args.config:
        for key, value in read_config_file(args.config).items():
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            _apply(settings, key, value)
    for key in _KNOWN_KEYS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if isinstance(value, bool):
            if key == "strict":
                settings.strict = value
            else:
                settings.validate = value
        else:
            _apply(settings, key, str(value))
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


def _output_paths(settings: Settings):
    base = settings.out
    for suffix in (".csv", ".json"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    paths = {}
    if settings.format in ("csv", "both"):
        paths["csv"] = base + ".csv"
    if settings.format in ("json", "both"):
        paths["json"] = base + ".json"
    return paths


def _run_validate(settings: Settings) -> int:
    try:
        report = run_validation(settings.max_n, settings.tolerance)
    except DomainError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _run_sweep(settings: Settings) -> int:
    config = QuadratureConfig(
        m_max=settings.m_max,
        convergence_rel_tol=settings.rel_tol,
        tail_mode=settings.tail,
        ground_offset=settings.ground_offset,
    )
    result = run_sweep(
        settings.particles,
        settings.t_grid,
        config=config,
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
                  f"over {fit.points} decades")
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
