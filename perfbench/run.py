"""bosecanon benchmark: fixed-N observable tables, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig1_serial --seed 1 --seconds 10 --trace 0

Every workload is one closed-loop caller: a `run_sweep` over the
workload's (N, T/Tc) lists, then `write_csv` and `write_json` of the rows.
The seed only shuffles the particle list and rotates the temperature list
handed to `run_sweep`; the rows themselves are deterministic. The workload
is repeated back to back a fixed number of times per run: --seconds
divided by the workload's nominal repetition time, rounded, and at least
once. The count never depends on how fast the host happens to be.

Times are in reference seconds (hostspeed.py): a calibration slice runs
ten times a second during the timed work, its CPU time is subtracted, and
the rest is scaled by the host speed the slices measured. Wall, CPU and
row times are medians over the repetitions; setup_s is the median of
fresh-process set-ups taken before, between and after them.

--trace 0 reports the end-to-end metrics. The only instrumentation is the
host-speed sampler and a per-row timer around `sweep.compute_row` for row
latency.
--trace 1 runs the workload once without spans as the baseline and once
with the span wrappers of spans.py installed, and reports the per-layer
metrics and the tracing overhead (traced wall minus baseline wall). Its
times are plain seconds: the host-speed sampler does not run.

After timing, every row goes through the correctness gate (gate.py) and
the written CSV/JSON are read back and compared with the rows; a row that
fails any check counts in `failed`. A run record with the build, versions,
seed, worker count and the deterministic counts is written to
.bench_build/perfbench/BENCH_<workload>_seed<seed>_trace<trace>.json, and
the spans of a traced run beside it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

import gate
import hostspeed
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# Fresh-process set-ups measured per run: some before the timed
# repetitions, one after each, some at the end, so that they sample the
# whole run; setup_s is their median. Each child then measures the host's
# speed with calibration slices, and its set-up time is scaled by it.
SETUP_BEFORE = 3
SETUP_AFTER = 2
SETUP_SLICES = 20
# A row's latency is scaled by the slices within this many seconds of it,
# because the host's speed swings within seconds.
ROW_WINDOW_S = 1.0
SETUP_CODE = f"""\
import time
t0 = time.perf_counter()
import bosecanon
sp = bosecanon.TrapSpectrum()
bosecanon.canonical_observables(sp, 0.5 * bosecanon.critical_temperature(sp, 100), 100)
setup = time.perf_counter() - t0
import hostspeed
print(repr(setup), repr(hostspeed.slice_seconds({SETUP_SLICES})))
"""


@dataclass(frozen=True)
class Workload:
    threads: int
    rep_s: float  # nominal reference seconds of one repetition
    preset: str | None = None
    particles: tuple = ()
    t_grid: tuple = ()

    def repetitions(self, seconds: float) -> int:
        return max(1, round(seconds / self.rep_s))

    def inputs(self, sweep):
        if self.preset is not None:
            preset = sweep.PRESETS[self.preset]
            return list(preset.particles), list(preset.grid())
        return list(self.particles), list(self.t_grid)


# Why each workload exists is in NOTES.md and BENCHMARK.json.
WORKLOADS = {
    "fig1_serial": Workload(threads=1, rep_s=20.0, preset="fig1"),
    "fig1_threads": Workload(threads=2, rep_s=18.0, preset="fig1"),
    "large_n": Workload(threads=1, rep_s=12.0,
                        particles=(1_000_000,), t_grid=(0.5,)),
    "lowt_full_period": Workload(threads=1, rep_s=5.0,
                                 particles=(10_000,), t_grid=(0.05,)),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "1/s",
    "row_p50_s": "s",
    "row_p90_s": "s",
    "rows_ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sweep.run_sweep.busy_s": "s",
    "sweep.compute_row.calls": "count",
    "sweep.compute_row.self_s": "s",
    "sweep.compute_row.gil_wait_share": "ratio",
    "sweep.concurrency": "ratio",
    "sweep.gc_solve_s": "s",
    "sweep.write_csv.busy_s": "s",
    "sweep.write_json.busy_s": "s",
    "sweep.output_bytes": "bytes",
    "canonical.busy_s": "s",
    "canonical.self_s": "s",
    "canonical.self_share": "ratio",
    "canonical.self_ns_per_interval": "ns",
    "canonical.saddle_s": "s",
    "canonical.intervals_evaluated": "count",
    "canonical.intervals_total": "count",
    "canonical.early_exit_ratio": "ratio",
    "canonical.full_period_rows": "count",
    "kernels.projection_chunk.calls": "count",
    "kernels.projection_chunk.busy_s": "s",
    "kernels.projection_chunk.busy_share": "ratio",
    "kernels.projection_chunk.points": "count",
    "kernels.projection_chunk.level_points": "count",
    "kernels.projection_chunk.ns_per_level_point": "ns",
    "grand_canonical.solve_fugacity.calls": "count",
    "grand_canonical.solve_fugacity.busy_s": "s",
    "grand_canonical.solve_fugacity.evals": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def import_package():
    """Import bosecanon from this checkout's src/, and from nowhere else."""
    init = SRC / "bosecanon" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bosecanon sources not found at {init}")
    sys.path.insert(0, str(SRC))
    import bosecanon

    if Path(bosecanon.__file__).resolve() != init.resolve():
        raise SystemExit(f"imported bosecanon from {bosecanon.__file__}, not {init}")
    return bosecanon


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure_setup(repeats: int) -> list:
    """(seconds, slice seconds) for import plus one warm-up row, each in a
    fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        setup, slice_s = out.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup), float(slice_s)))
    return samples


def percentile(values, q: float, half_width: float) -> float:
    """Mean of the values ranked within q +- half_width of the data.

    Unlike a single order statistic, this moves smoothly when rows trade
    places across a gap in the distribution; fig1 has one at its median.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = min(max(math.floor((q - half_width) * n), 0), n - 1)
    hi = max(math.ceil((q + half_width) * n), lo + 1)
    return statistics.fmean(ordered[lo:hi])


def run_once(sweep, particles, t_grid, threads, out_dir, recorder=None,
             sampled=True):
    """One sweep plus output; returns timings, rows and the output check.

    When sampled, a per-row timer and the host-speed sampler run, and times
    are reference seconds with the sampler's own slices taken out.
    Otherwise times are plain seconds, and with a recorder the span
    wrappers are installed for the duration.
    """
    csv_path = out_dir / "rows.csv"
    json_path = out_dir / "rows.json"
    row_spans = {}
    compute_row = sweep.compute_row

    def timed_row(spectrum, n, t_over_tc, *args, **kwargs):
        start = time.perf_counter()
        try:
            return compute_row(spectrum, n, t_over_tc, *args, **kwargs)
        finally:
            row_spans[gate.row_key(n, t_over_tc)] = (start, time.perf_counter())

    def body():
        if recorder is None:
            result = sweep.run_sweep(particles, t_grid, threads=threads)
            sweep.write_csv(result.rows, csv_path)
            sweep.write_json(result, json_path)
            return result
        with recorder.span("sweep.run_sweep"):
            result = sweep.run_sweep(particles, t_grid, threads=threads)
        with recorder.span("sweep.write_csv"):
            sweep.write_csv(result.rows, csv_path)
        with recorder.span("sweep.write_json"):
            sweep.write_json(result, json_path)
        return result

    if sampled:
        sweep.compute_row = timed_row
        try:
            with hostspeed.Sampler() as sampler:
                cpu0, wall0 = time.process_time(), time.perf_counter()
                result = body()
                wall1, cpu1 = time.perf_counter(), time.process_time()
        finally:
            sweep.compute_row = compute_row
        scale = sampler.scale()
        slices = sampler.cpu_between(wall0, wall1)
        timing = {
            "wall": (wall1 - wall0 - slices) * scale,
            "cpu": (cpu1 - cpu0 - slices) * scale,
            "latencies": {
                key: (t1 - t0 - sampler.cpu_between(t0, t1))
                * sampler.scale(t0 - ROW_WINDOW_S, t1 + ROW_WINDOW_S)
                for key, (t0, t1) in row_spans.items()},
            "raw_wall": wall1 - wall0,
            "scale": scale,
            "slices": len(sampler.cpu),
        }
    else:
        with spans.installed(recorder) if recorder else contextlib.nullcontext():
            cpu0, wall0 = time.process_time(), time.perf_counter()
            result = body()
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        timing = {"wall": wall, "cpu": cpu, "latencies": {}, "raw_wall": wall}
    return {
        **timing,
        "rows": result.rows,
        "output_failures": check_outputs(result.rows, csv_path, json_path),
        "output_bytes": csv_path.stat().st_size + json_path.stat().st_size,
    }


def check_outputs(rows, csv_path, json_path) -> dict:
    """Rows whose CSV or JSON record does not read back to the row itself."""
    with open(json_path) as fh:
        written = json.load(fh)["rows"]
    with open(csv_path, newline="") as fh:
        lines = list(csv.DictReader(fh))
    failures = {}
    if len(written) != len(rows) or len(lines) != len(rows):
        return {"*": [f"wrote {len(written)} JSON and {len(lines)} CSV rows "
                      f"for {len(rows)}"]}
    for row, js, line in zip(rows, written, lines):
        expected = row.to_dict()
        for key, value in expected.items():
            if isinstance(value, float):
                ok = (js[key] is None and math.isnan(value)) or js[key] == value
                ok = ok and (float(line[key]) == value
                             or math.isnan(value) and line[key] == "nan")
            else:
                ok = js[key] == value and line[key] == str(value)
            if not ok:
                failures.setdefault(gate.row_key(row.n, row.t_over_tc), []).append(
                    f"{key} does not read back from the output files")
    return failures


def row_counts(rows) -> dict:
    """Deterministic per-row engine counts, keyed and sorted by row."""
    return {gate.row_key(r.n, r.t_over_tc): {
        "intervals_evaluated": r.intervals_evaluated,
        "intervals_total": r.intervals_total,
        "m_max": r.m_max,
    } for r in sorted(rows, key=lambda r: (r.n, r.t_over_tc))}


def count_metrics(rows) -> dict:
    evaluated = sum(r.intervals_evaluated for r in rows)
    total = sum(r.intervals_total for r in rows)
    return {
        "canonical.intervals_evaluated": evaluated,
        "canonical.intervals_total": total,
        "canonical.early_exit_ratio": evaluated / total,
        "canonical.full_period_rows":
            sum(1 for r in rows if r.intervals_evaluated == r.intervals_total),
    }


def gate_iterations(iterations, reference) -> dict:
    """Failure reasons per (iteration, row) across all repetitions."""
    failures = {}
    for i, it in enumerate(iterations):
        found = gate.check_rows(it["rows"], reference)
        for key, reasons in it["output_failures"].items():
            found.setdefault(key, []).extend(reasons)
        for key, reasons in found.items():
            failures[f"{i}:{key}"] = reasons
    return failures


def run(name, workload, seed, seconds, trace, out_dir) -> dict:
    """Run one workload; return the result record (metrics included)."""
    limit = nproc()
    threads = workload.threads
    if threads > limit:
        raise SystemExit(f"refusing {threads} threads: nproc is {limit}")
    out_dir.mkdir(parents=True, exist_ok=True)

    pkg = import_package()
    setup_samples = [] if trace else measure_setup(SETUP_BEFORE)
    sweep = pkg.sweep
    reference = gate.load_reference()

    particles, t_grid = workload.inputs(sweep)
    rng = random.Random(seed)
    rng.shuffle(particles)
    # Rotate rather than shuffle the temperatures. With two threads a row's
    # latency depends on the rows that run beside it, and a shuffle changes
    # those neighbours; a rotation keeps them but for the row it cuts.
    turn = rng.randrange(len(t_grid))
    t_grid = t_grid[turn:] + t_grid[:turn]

    # One untimed row first, so that the first timed rows do not pay for
    # lazy set-up in numpy and the package; setup_s measures that cost.
    sweep.compute_row(pkg.TrapSpectrum(), 100, 0.5)
    iterations = []
    if trace:
        iterations.append(run_once(sweep, particles, t_grid, threads, out_dir,
                                   sampled=False))
        recorder = spans.SpanRecorder()
        iterations.append(run_once(sweep, particles, t_grid, threads, out_dir,
                                   recorder, sampled=False))
        recorder.dump(out_dir / f"SPANS_{name}_seed{seed}.json")
    else:
        for _ in range(workload.repetitions(seconds)):
            iterations.append(run_once(sweep, particles, t_grid, threads, out_dir))
            setup_samples += measure_setup(1)
        setup_samples += measure_setup(SETUP_AFTER)
    # Read before the gate, whose recursion tables are not the workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = gate_iterations(iterations, reference)
    attempted = sum(len(it["rows"]) for it in iterations)
    counts = [row_counts(it["rows"]) for it in iterations]
    rows = iterations[0]["rows"]

    if trace:
        base, traced = iterations
        metrics = spans.layer_metrics(recorder.spans, traced["wall"])
        metrics.update(count_metrics(rows))
        metrics["canonical.self_ns_per_interval"] = (
            metrics["canonical.self_s"] / metrics["canonical.intervals_evaluated"] * 1e9)
        metrics["sweep.output_bytes"] = traced["output_bytes"]
        metrics["trace.wall_s"] = traced["wall"]
        metrics["trace.overhead_s"] = traced["wall"] - base["wall"]
        units = PER_LAYER_UNITS
    else:
        wall = statistics.median(it["wall"] for it in iterations)
        latencies = [statistics.median(it["latencies"][key] for it in iterations)
                     for key in iterations[0]["latencies"]]
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(it["cpu"] for it in iterations),
            "rows_per_s": len(rows) / wall,
            "row_p50_s": percentile(latencies, 0.5, 0.1),
            "row_p90_s": percentile(latencies, 0.9, 0.05),
            "rows_ok_frac": 1.0 - len(failures) / attempted,
            "setup_s": statistics.median(
                setup * hostspeed.REFERENCE_SLICE_S / slice_s
                for setup, slice_s in setup_samples),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "run": {
            "using_numba": pkg._kernels.USING_NUMBA,
            "numpy": numpy.__version__,
            "python": platform.python_version(),
            "nproc": limit,
            "git_sha": git_sha(),
            "workers": threads,
            "iterations": len(iterations),
            "row_samples": len(iterations[0]["latencies"]),
            "setup_samples_s": [setup for setup, _ in setup_samples],
            "setup_slice_s": [slice_s for _, slice_s in setup_samples],
            "iteration_wall_s": [it["wall"] for it in iterations],
            "iteration_raw_wall_s": [it["raw_wall"] for it in iterations],
            "iteration_speed_scale": [it.get("scale") for it in iterations],
            "iteration_slices": [it.get("slices") for it in iterations],
            "row_latency_s": [it["latencies"] for it in iterations],
        },
        "counts": {
            "rows": len(rows),
            **count_metrics(rows),
            "repeat_exactly": all(c == counts[0] for c in counts),
            "per_row": counts[0],
        },
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    record = run(args.workload, WORKLOADS[args.workload], args.seed,
                 args.seconds, args.trace, OUT_DIR)
    path = OUT_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for name, m in record["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"rows attempted {record['attempted']}, failed {record['failed']}, "
          f"iterations {record['run']['iterations']}, record {path.relative_to(ROOT)}")
    for key, reasons in record["failures"].items():
        print(f"FAILED {key}: {'; '.join(reasons)}")
    print(json.dumps({
        "correct": record["failed"] == 0 and record["counts"]["repeat_exactly"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
