"""The package namespace: what `import bosecanon` loads, and its exports."""

import contextlib
import importlib
import subprocess
import sys

import pytest

import bosecanon
from conftest import Recorder

ENGINE_MODULES = ["bosecanon", "bosecanon._kernels", "bosecanon.canonical",
                  "bosecanon.grand_canonical", "bosecanon.spectrum"]

# Every name the package exports, with the submodule that defines it.
EXPORTS = {
    "ZETA3": "spectrum",
    "DomainError": "spectrum",
    "TrapSpectrum": "spectrum",
    "critical_temperature": "spectrum",
    "CanonicalResult": "canonical",
    "ConvergenceError": "canonical",
    "canonical_observables": "canonical",
    "GrandCanonicalState": "grand_canonical",
    "auto_m_max": "grand_canonical",
    "solve_fugacity": "grand_canonical",
    "DELTA_N0_PREFACTOR": "asymptotics",
    "DampingCrossover": "asymptotics",
    "InteractionParams": "asymptotics",
    "condensate_fraction_limit": "asymptotics",
    "correlation_limit": "asymptotics",
    "damping_crossover": "asymptotics",
    "delta_n0_fraction_limit": "asymptotics",
    "EnumerationResult": "oracle",
    "enumerate_exact": "oracle",
    "recursion_table": "oracle",
    "PRESETS": "sweep",
    "ScalingFit": "sweep",
    "SweepResult": "sweep",
    "SweepRow": "sweep",
    "compute_row": "sweep",
    "fit_scaling": "sweep",
    "run_sweep": "sweep",
    "temperature_grid": "sweep",
    "write_csv": "sweep",
    "write_json": "sweep",
}

LOADED = """
print(" ".join(m for m in sys.modules
               if m.startswith("bosecanon") or m == "concurrent.futures"))
"""
SWEEP_MODULES = [*ENGINE_MODULES, "bosecanon.asymptotics", "bosecanon.sweep"]
# id: (program run in a fresh interpreter, with the output base as argv[1];
# the bosecanon modules, and the thread pool, it must leave loaded)
COLD_RUNS = {
    "engine-row": ("""\
import sys
import bosecanon
spec = bosecanon.TrapSpectrum()
t = 0.5 * bosecanon.critical_temperature(spec, 100)
bosecanon.canonical_observables(spec, t, 100)
""", ENGINE_MODULES),
    # every row needs the sweep's asymptotic limits, but not the oracle,
    # and a serial sweep needs no thread pool
    "console-sweep": ("""\
import sys
from bosecanon.cli import main
main(["--particles", "100", "--t-over-tc", "0.5:0.5:0.1", "--out", sys.argv[1]])
""", [*SWEEP_MODULES, "bosecanon.cli"]),
    "threaded-sweep": ("""\
import sys
from bosecanon import run_sweep
run_sweep([20], [0.5], threads=2)
""", [*SWEEP_MODULES, "concurrent.futures"]),
}


@pytest.mark.parametrize("program, modules", COLD_RUNS.values(),
                         ids=COLD_RUNS.keys())
def test_a_fresh_process_loads_only_what_it_uses(tmp_path, program, modules):
    # a fresh interpreter: this one has loaded every module already
    out = subprocess.run([sys.executable, "-c", program + LOADED,
                          str(tmp_path / "run")], check=True,
                         capture_output=True, text=True, timeout=120)
    assert sorted(out.stdout.splitlines()[-1].split()) == sorted(modules)


@pytest.mark.parametrize("name, module", EXPORTS.items(), ids=EXPORTS.keys())
def test_export_is_its_submodule_attribute(name, module):
    namespace = {}
    exec(f"from bosecanon import {name}", namespace)
    home = importlib.import_module(f"bosecanon.{module}")
    assert namespace[name] is getattr(home, name)
    assert name in dir(bosecanon) and name in bosecanon.__all__


def test_package_exports_exactly_the_table():
    assert sorted(bosecanon.__all__) == sorted(EXPORTS)
    assert bosecanon.sweep is sys.modules["bosecanon.sweep"]
    with pytest.raises(AttributeError, match="no_such_name"):
        bosecanon.no_such_name


# The module attributes perfbench/spans.py patches with its span wrappers;
# a row calls each but sweep.solve_fugacity, which is kept for the tracer.
TRACED = [("canonical", "projection_chunk"), ("canonical", "solve_fugacity"),
          ("sweep", "canonical_observables"), ("sweep", "solve_fugacity"),
          ("sweep", "compute_row"), ("grand_canonical", "_occupation_sums")]


def test_the_names_the_benchmark_reaches_resolve():
    # perfbench/ sits outside testpaths, so these names and call shapes,
    # not its digits, are held here: the attributes its tracer patches,
    # USING_NUMBA in its run record, its set-up's positional engine call,
    # the offset-free recursion of its gate and the row columns it reads
    with contextlib.ExitStack() as stack:
        hooks = {}
        for module, attr in TRACED:
            home = importlib.import_module(f"bosecanon.{module}")
            assert callable(getattr(home, attr)), (module, attr)
            hooks[module, attr] = stack.enter_context(Recorder(home, attr))
        result = bosecanon.run_sweep([100], [0.5])
    # the tracer's hooks see every layer a row runs through
    called = {key for key, hook in hooks.items() if hook.calls}
    assert called == set(TRACED) - {("sweep", "solve_fugacity")}
    assert isinstance(bosecanon._kernels.USING_NUMBA, bool)
    sp = bosecanon.TrapSpectrum()
    assert sp.with_ground_offset(0.0) == sp
    t = 0.5 * bosecanon.critical_temperature(sp, 100)
    res = bosecanon.canonical_observables(sp, t, 100)
    table = bosecanon.recursion_table(sp.with_ground_offset(0.0), t, 100,
                                      m_max=res.m_max, tail_closure=True)
    assert 0.0 < table.occupation(1.0) < table.occupation(0.0) < 100
    row, = result.rows
    for column in ("intervals_evaluated", "intervals_total", "ground_offset",
                   "log_z"):
        assert getattr(row, column) == getattr(res, column), column
