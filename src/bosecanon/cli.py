"""Batch front end: sweeps, dataset emission, scaling fits.

argparse is the one settings parser: every flag declares its type, choices
and default once, and one parse of the command line sets every value. A
preset supplies the particle set and temperature grid unless those are
given. A sweep writes `<out>.csv` and `<out>.json`. Exit codes: 0 success,
2 bad configuration (a bad value or choice, an unknown flag, a temperature
grid of more than sweep.MAX_GRID_POINTS points, an `--out` with no file
name, whose directory is missing or not writable, or whose `<out>.csv` or
`<out>.json` is a directory, and a count that run_sweep refuses: no
particle number, or a particle number below 1; all refused before the
first row), 3 non-converged rows under --strict.
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

# After a preset sweep, every discrepancy channel is fitted at this T/Tc.
FIT_T = 0.6


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises DomainError instead of exiting."""

    def error(self, message):
        raise DomainError(message)


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
    except ValueError as err:  # DomainError is a ValueError
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}: {err}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bosecanon",
        description="Fixed-N trapped-boson statistics: sweeps.",
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
    return parser


def resolve_settings(argv=None) -> argparse.Namespace:
    settings = build_parser().parse_args(argv)
    if settings.preset:
        preset = PRESETS[settings.preset]
        if settings.particles is None:
            settings.particles = list(preset.particles)
        if settings.t_grid is None:
            settings.t_grid = preset.grid()
    if settings.particles is None or settings.t_grid is None:
        raise DomainError(
            "nothing to do: give --preset, or --particles with --t-over-tc")
    # refused here, not after the whole sweep has run; from here on, out
    # is the base of the two files
    out = settings.out.removesuffix(".csv").removesuffix(".json")
    settings.out = out
    if os.path.basename(out) in ("", ".", ".."):
        raise DomainError(f"cannot write --out {out!r}: it has no file name")
    folder = os.path.dirname(out) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise DomainError(f"cannot write --out {out}: "
                          f"{folder} is not a writable directory")
    for target in (f"{out}.csv", f"{out}.json"):
        if os.path.isdir(target):
            raise DomainError(f"cannot write --out {out}: "
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
    cost = result.meta["totals"]
    print(f"layers: solve {cost['solve_s']:.3g}s "
          f"({cost['solve_evals']} evaluations), "
          f"integrand {cost['integrand_s']:.3g}s "
          f"({cost['points_evaluated']} points), "
          f"moments {cost['moments_s']:.3g}s")
    worst = result.meta["worst_rel_error"]
    print("worst relative error estimate: "
          + ", ".join(f"{k.removesuffix('_rel_error')} {v:.2g}"
                      for k, v in worst.items()))
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
        return _run_sweep(resolve_settings(argv))
    except (DomainError, OSError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
