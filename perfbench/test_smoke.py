"""Smoke test of the benchmark harness on a tiny sweep.

Run with: python -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402

TINY = run.Workload(threads=1, rep_s=0.01, particles=(100,), t_grid=(0.5, 1.0))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_end_to_end_metrics_present(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_BEFORE", 1)
    monkeypatch.setattr(run, "SETUP_AFTER", 1)
    record = run.run("tiny", TINY, seed=3, seconds=0.01, trace=0,
                     out_dir=tmp_path)
    assert set(record["metrics"]) == _names("end_to_end")
    assert record["failed"] == 0 and record["attempted"] == 2
    assert record["metrics"]["rows_ok_frac"]["value"] == 1.0
    assert record["counts"]["repeat_exactly"]
    for key in ("using_numba", "numpy", "python", "nproc", "git_sha", "workers"):
        assert key in record["run"]


def test_per_layer_metrics_present(tmp_path):
    record = run.run("tiny", TINY, seed=3, seconds=0.01, trace=1,
                     out_dir=tmp_path)
    metrics = record["metrics"]
    assert set(metrics) == _names("per_layer")
    assert metrics["sweep.compute_row.calls"]["value"] == 2
    assert metrics["grand_canonical.solve_fugacity.calls"]["value"] == 4
    assert metrics["grand_canonical.solve_fugacity.evals"]["value"] > 0
    assert metrics["kernels.projection_chunk.level_points"]["value"] > 0
    assert (tmp_path / "SPANS_tiny_seed3.json").is_file()


def test_wrappers_are_restored(tmp_path):
    pkg = run.import_package()
    canonical, grand_canonical, sweep = pkg.canonical, pkg.grand_canonical, pkg.sweep
    before = (canonical.projection_chunk, canonical.solve_fugacity,
              sweep.canonical_observables, sweep.solve_fugacity,
              sweep.compute_row, grand_canonical._occupation_sums)
    run.run("tiny", TINY, seed=0, seconds=0.01, trace=1, out_dir=tmp_path)
    after = (canonical.projection_chunk, canonical.solve_fugacity,
             sweep.canonical_observables, sweep.solve_fugacity,
             sweep.compute_row, grand_canonical._occupation_sums)
    assert after == before


def test_gate_flags_perturbed_rows():
    pkg = run.import_package()
    reference = gate.load_reference()
    row = pkg.compute_row(pkg.TrapSpectrum(), 100, 0.5)
    assert gate.check_row(row, reference) == []
    bad = {
        "perturbed": dataclasses.replace(row, n0_mean=row.n0_mean * (1 + 1e-9)),
        "unconverged": dataclasses.replace(row, converged=0),
        "errored": dataclasses.replace(row, error="ConvergenceError: test"),
        "unreferenced": dataclasses.replace(row, t_over_tc=0.123),
    }
    reasons = {name: gate.check_row(r, reference) for name, r in bad.items()}
    assert all(reasons.values()), reasons
    assert any(r.startswith("n0_mean off reference") for r in reasons["perturbed"])


def test_refuses_threads_above_nproc(tmp_path):
    too_many = dataclasses.replace(TINY, threads=run.nproc() + 1)
    with pytest.raises(SystemExit):
        run.run("tiny", too_many, seed=0, seconds=0.01, trace=0, out_dir=tmp_path)


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "large_n",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
