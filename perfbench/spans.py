"""Span recorder and the wrappers that attach it to bosecanon's layers.

A span is one call of a wrapped entry point: name, wall start and end,
thread CPU start and end, the span that was open on the same thread when
it began (its parent), the row it works for, the thread it ran on, and
optional counters. Spans live in memory in one list guarded by one lock
and are written out once, after the traced run.

`installed(recorder)` patches the module attributes the package looks its
layers up through, and puts every original back on exit:

    canonical.projection_chunk        -> kernels.projection_chunk
    canonical.solve_fugacity          -> grand_canonical.solve_fugacity (saddle)
    sweep.canonical_observables       -> canonical.canonical_observables
    sweep.solve_fugacity              -> grand_canonical.solve_fugacity (gc column)
    sweep.compute_row                 -> sweep.compute_row
    grand_canonical._occupation_sums  -> counter `evals` on the open span

Nothing under src/ is modified; the wrappers sit outside the package.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager

from gate import row_key

# Fields of one span record, in storage order.
FIELDS = ("name", "start", "end", "cpu_start", "cpu_end", "parent", "row",
          "thread", "counters")
NAME, START, END, CPU_START, CPU_END, PARENT, ROW, THREAD, COUNTERS = range(9)


class SpanRecorder:
    """Thread-safe, in-memory span store."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, row=None, **counters):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if row is None and parent is not None:
            row = self.spans[parent][ROW]
        record = [name, 0.0, 0.0, 0.0, 0.0, parent, row,
                  threading.get_ident(), dict(counters)]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(record)
        stack.append(idx)
        record[CPU_START] = time.thread_time()
        record[START] = time.perf_counter()
        return idx

    def close(self, idx):
        end = time.perf_counter()
        record = self.spans[idx]
        record[CPU_END] = time.thread_time()
        record[END] = end
        stack = self._stack()
        if not stack or stack[-1] != idx:
            raise RuntimeError(f"span {record[NAME]} closed out of order")
        stack.pop()

    @contextmanager
    def span(self, name, row=None, **counters):
        idx = self.open(name, row, **counters)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, key):
        """Add one to a counter of the innermost span open on this thread."""
        stack = self._stack()
        if stack:
            counters = self.spans[stack[-1]][COUNTERS]
            counters[key] = counters.get(key, 0) + 1

    def wrap(self, name, fn, row_of=None, counters_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = row_of(*args) if row_of else None
            extra = counters_of(*args) if counters_of else {}
            idx = self.open(name, row, **extra)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def dump(self, path):
        with self._lock:
            rows = [dict(zip(FIELDS, s)) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": FIELDS, "spans": rows}, fh)
            fh.write("\n")


def _kernel_counters(q, g, n, s_mb, h, i0, i1, nodes, *rest):
    return {"points": (i1 - i0) * int(nodes.size), "levels": int(q.size)}


def _row_of(spectrum, n, t_over_tc, *rest):
    return row_key(n, t_over_tc)


@contextmanager
def installed(recorder: SpanRecorder):
    """Patch the layer entry points with span wrappers; restore on exit."""
    from bosecanon import canonical, grand_canonical, sweep

    occupation_sums = grand_canonical._occupation_sums

    def counted_occupation_sums(*args, **kwargs):
        recorder.count("evals")
        return occupation_sums(*args, **kwargs)

    replacements = {
        (canonical, "projection_chunk"): recorder.wrap(
            "kernels.projection_chunk", canonical.projection_chunk,
            counters_of=_kernel_counters),
        (canonical, "solve_fugacity"): recorder.wrap(
            "grand_canonical.solve_fugacity", canonical.solve_fugacity),
        (sweep, "canonical_observables"): recorder.wrap(
            "canonical.canonical_observables", sweep.canonical_observables),
        (sweep, "solve_fugacity"): recorder.wrap(
            "grand_canonical.solve_fugacity", sweep.solve_fugacity),
        (sweep, "compute_row"): recorder.wrap(
            "sweep.compute_row", sweep.compute_row, row_of=_row_of),
        (grand_canonical, "_occupation_sums"): counted_occupation_sums,
    }
    originals = {(module, attr): getattr(module, attr)
                 for module, attr in replacements}
    try:
        for (module, attr), fn in replacements.items():
            setattr(module, attr, fn)
        yield recorder
    finally:
        for (module, attr), fn in originals.items():
            setattr(module, attr, fn)


def layer_metrics(spans, wall_s):
    """Per-layer totals from a finished span list.

    Self time of a span is its duration minus the durations of its direct
    children; children of one span run nested on the same thread, so they
    never overlap and their sum is the time they cover.
    """
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child_time[s[PARENT]] += dur[i]

    def select(name):
        return [i for i, s in enumerate(spans) if s[NAME] == name]

    def parent_name(i):
        p = spans[i][PARENT]
        return spans[p][NAME] if p is not None else None

    rows = select("sweep.compute_row")
    canon = select("canonical.canonical_observables")
    kern = select("kernels.projection_chunk")
    solves = select("grand_canonical.solve_fugacity")
    sweeps = select("sweep.run_sweep")

    row_busy = sum(dur[i] for i in rows)
    row_cpu = sum(spans[i][CPU_END] - spans[i][CPU_START] for i in rows)
    canon_self = sum(dur[i] - child_time[i] for i in canon)
    kern_busy = sum(dur[i] for i in kern)
    points = sum(spans[i][COUNTERS]["points"] for i in kern)
    level_points = sum(spans[i][COUNTERS]["points"] * spans[i][COUNTERS]["levels"]
                       for i in kern)
    saddle = sum(dur[i] for i in solves
                 if parent_name(i) == "canonical.canonical_observables")
    gc_solve = sum(dur[i] for i in solves
                   if parent_name(i) == "sweep.compute_row")
    sweep_wall = sum(dur[i] for i in sweeps)

    def busy(name):
        return sum(dur[i] for i in select(name))

    return {
        "sweep.run_sweep.busy_s": sweep_wall,
        "sweep.compute_row.calls": len(rows),
        "sweep.compute_row.self_s": sum(dur[i] - child_time[i] for i in rows),
        "sweep.compute_row.gil_wait_share": 1.0 - row_cpu / row_busy,
        "sweep.concurrency": row_busy / sweep_wall,
        "sweep.gc_solve_s": gc_solve,
        "sweep.write_csv.busy_s": busy("sweep.write_csv"),
        "sweep.write_json.busy_s": busy("sweep.write_json"),
        "canonical.busy_s": sum(dur[i] for i in canon),
        "canonical.self_s": canon_self,
        "canonical.self_share": canon_self / wall_s,
        "canonical.saddle_s": saddle,
        "kernels.projection_chunk.calls": len(kern),
        "kernels.projection_chunk.busy_s": kern_busy,
        "kernels.projection_chunk.busy_share": kern_busy / wall_s,
        "kernels.projection_chunk.points": points,
        "kernels.projection_chunk.level_points": level_points,
        "kernels.projection_chunk.ns_per_level_point":
            kern_busy / level_points * 1e9,
        "grand_canonical.solve_fugacity.calls": len(solves),
        "grand_canonical.solve_fugacity.busy_s": saddle + gc_solve,
        "grand_canonical.solve_fugacity.evals":
            sum(spans[i][COUNTERS].get("evals", 0) for i in solves),
    }
