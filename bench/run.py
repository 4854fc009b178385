"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload fem_sweep --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload again with timing wrappers on
every layer, prints the per-layer metrics, and writes the spans to
``.bench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, ROOT)

# none of these load numpy, so the thread pools can still be pinned
from bench import env, stats, tracing  # noqa: E402
from bench.metrics import PER_LAYER, UNITS, layer_metrics  # noqa: E402

STUDY_SETUPS = 5
QUERY_SETUPS = 3
# Hard stop of the query loop, far inside the per-run time limit.
QUERY_LOOP_CAP_S = 100.0


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("fem_sweep", "field_queries", "full_study"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import thinjunction from this checkout's src/, never elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "thinjunction", "__init__.py")):
        raise SystemExit("error: src/thinjunction not found next to the "
                         "benchmark; run from a source checkout")
    sys.path.insert(0, SRC)
    env.pin_threads()
    import thinjunction

    where = os.path.realpath(thinjunction.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"error: thinjunction imported from {where}")


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


try:
    _MALLINFO2 = ctypes.CDLL(None).mallinfo2
    _MALLINFO2.restype = _MallInfo2
except (OSError, AttributeError):  # not glibc >= 2.33
    _MALLINFO2 = None


def heap_mb():
    """Memory malloc has handed out and not yet taken back, in MB: the
    in-use heap plus mmapped chunks, where numpy keeps array data.
    Unlike the resident size, it drops when memory is freed, even if the
    allocator keeps the pages.  0.0 where glibc's mallinfo2 is missing."""
    if _MALLINFO2 is None:
        return 0.0
    info = _MALLINFO2()
    return (info.uordblks + info.hblkhd) / 2**20


def study_growth_mb(before):
    """Heap growth since ``before`` across one study call.  A study leaves
    reference cycles behind (a FemContext and its point locator); they
    are garbage, not memory the call kept, so they are collected first."""
    gc.collect()
    return heap_mb() - before


class Run:
    """Everything one run measured, ready to print."""

    def __init__(self):
        self.setup_s = []
        self.op_s = []
        self.op_cpu_s = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.points = 0
        self.loop_s = 0.0
        self.notes = []
        self.layers = {}
        self.mesh = None
        self.peak_rss_mb = 0.0
        # heap in use when the untraced set-up ends, and its growth over
        # the untraced operations of the timed loop
        self.ready_heap_mb = 0.0
        self.loop_growth_mb = 0.0
        self.tracer = None

    def loop_done(self, start):
        """Close the timed loop; the checks that follow do not count
        toward the peak memory of the workload."""
        self.loop_s = time.perf_counter() - start
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


# -- study workloads -----------------------------------------------------

# The two wrappers of an untraced study loop: they count the points
# handed to Expansion.evaluate and the sizes of the FEM meshes built.
COUNTED = tuple(t for t in tracing.TARGETS
                if t[2] in ("fem3d.FemContext", "expansion.evaluate"))


def largest_mesh(spans):
    """(nodes, tets, nnz) of the largest FemContext built, or None."""
    sizes = [(s.attrs["nodes"], s.attrs["tets"], s.attrs["nnz"])
             for s in spans if s.name == "fem3d.FemContext" and s.attrs]
    return max(sizes, default=None)


def study_op(w, plan, run, label):
    """One run_study call, timed and gated; returns (wall s, CPU s, report)."""
    run.attempted += 1
    t, c = time.perf_counter(), time.process_time()
    try:
        report = w.operate(plan)
    except Exception:  # noqa: BLE001 - a failed operation is data
        run.failed += 1
        run.notes.append(f"{label}: raised\n{traceback.format_exc()}")
        return time.perf_counter() - t, time.process_time() - c, None
    dt, dc = time.perf_counter() - t, time.process_time() - c
    ok, notes = w.check(report)
    if not ok or run.attempted == 1:  # the first call, and any mismatch
        run.notes += [f"{label}: {n}" for n in notes]
    if not ok:
        run.failed += 1
        run.correct = False
    return dt, dc, report


def run_study_workload(w, seconds, trace):
    run = Run()
    run.notes.append(f"source amplitude {w.amp:+.6f}")
    plan = None
    for _ in range(STUDY_SETUPS):
        plan, dt = timed(w.setup)
        run.setup_s.append(dt)

    run.ready_heap_mb = heap_mb()

    if not trace:
        counter = tracing.Tracer()
        patches = tracing.Patches()
        tracing.install(counter, patches, targets=COUNTED)
        try:
            start = time.perf_counter()
            while True:
                before = heap_mb()
                dt, dc, report = study_op(w, plan, run,
                                          f"op {run.attempted}")
                run.loop_growth_mb += study_growth_mb(before)
                if report is not None:
                    run.op_s.append(dt)
                    run.op_cpu_s.append(dc)
                if time.perf_counter() - start >= seconds:
                    break
            run.loop_done(start)
        finally:
            patches.restore()
        run.points = sum(s.attrs.get("points", 0) for s in counter.spans
                         if s.name == "expansion.evaluate")
        run.mesh = largest_mesh(counter.spans)
        return run

    # traced: one untraced call, then one traced call of the same plan
    before = heap_mb()
    base_s, _, report = study_op(w, plan, run, "untraced op")
    run.loop_growth_mb = study_growth_mb(before)
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    tracing.install(tracer, patches)
    try:
        tracer.request = "op:0"
        span = tracer.begin("study.run_study")
        try:
            traced_s, _, _ = study_op(w, plan, run, "traced op")
        finally:
            tracer.end(span)
    finally:
        patches.restore()
    run.layers = layer_metrics(tracer.spans, n_setup=1, n_op=1)
    if report is not None:
        for t in report.targets:
            run.layers[f"study.target.{t.target}.ms"] = float(sum(t.wall_ms))
    run.layers["trace.overhead_frac"] = traced_s / base_s - 1.0
    run.mesh = largest_mesh(tracer.spans)
    run.tracer = tracer
    return run


# -- query workload ------------------------------------------------------

def run_query_workload(w, seconds, trace):
    from bench.workloads import matching_zone

    run = Run()
    tracer = patches = None
    for _ in range(1 if trace else QUERY_SETUPS):
        exp = None  # release the previous build before the next one
        exp, dt = timed(w.setup)
        run.setup_s.append(dt)
    run.ready_heap_mb = heap_mb()
    if trace:
        tracer = tracing.Tracer()
        patches = tracing.Patches()
        tracing.install(tracer, patches)
        tracer.request = "setup:0"
        try:
            exp, traced_setup = timed(w.setup)
        finally:
            patches.restore()
        run.notes.append(f"set-up traced {traced_setup:.3f} s, untraced "
                         f"{run.setup_s[0]:.3f} s")

    stream = w.stream()
    errors = collections.Counter()
    served = []
    lat = {True: [], False: []}
    cpu = []
    zone = total = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and (
            trace or len(lat[False]) >= w.min_requests)
        if enough or elapsed >= QUERY_LOOP_CAP_S:
            break
        eps, pts = stream.next()
        zone += int(matching_zone(w.spec, pts, eps).sum())
        total += len(pts)
        traced = trace and run.attempted % 2 == 0
        if traced:
            tracer.request = f"op:{run.attempted}"
            tracing.install(tracer, patches)
        run.attempted += 1
        before = heap_mb()
        t, c = time.perf_counter(), time.process_time()
        try:
            vals, grads = w.operate(exp, eps, pts)
        except Exception as exc:  # noqa: BLE001 - a failed request is data
            run.failed += 1
            errors[f"{type(exc).__name__}({str(exc)!r})"] += 1
            continue
        finally:
            dt, dc = time.perf_counter() - t, time.process_time() - c
            if traced:
                patches.restore()
            else:  # spans kept by traced requests would count as growth
                run.loop_growth_mb += heap_mb() - before
        lat[traced].append(dt)
        if not traced:
            cpu.append(dc)
            # the results are kept for the consistency check below
            run.loop_growth_mb -= (vals.nbytes + grads.nbytes) / 2**20
        served.append((eps, pts, vals, grads))
        run.points += len(pts)
    run.loop_done(start)
    run.op_s = lat[False]
    run.op_cpu_s = cpu
    timed_requests = run.attempted

    for text, count in errors.items():
        run.notes.append(f"{count} of {timed_requests} requests raised "
                         f"{text}")
    run.notes.append(f"failed_frac (timed requests) "
                     f"{run.failed / timed_requests:.6f}")
    run.notes.append(f"matching-zone share of points {zone / total:.6f}")

    bad = w.consistency(exp, served)
    run.failed += bad
    run.correct &= bad == 0
    run.notes.append(f"served vs bulk re-evaluation: {bad} of "
                     f"{len(served)} answered requests disagree")
    gate_n, gate_bad, gate_notes = w.golden_gate(exp)
    run.attempted += gate_n
    run.failed += gate_bad
    run.correct &= gate_bad == 0
    run.notes += gate_notes
    run.notes.append(f"golden check set: {gate_bad} of {gate_n} requests "
                     f"mismatch")
    still, known = w.outside_probe(exp)
    run.notes.append(f"recorded outside-the-mesh points still raising: "
                     f"{still} of {known}")
    ctx = exp.junction.ctx
    run.mesh = (ctx.mesh.num_nodes, ctx.mesh.num_tets, ctx.matrix.nnz)

    if trace:
        n_traced = sum(1 for s in tracer.spans
                       if s.name == "expansion.evaluate"
                       and s.request.startswith("op") and s.parent is None)
        run.layers = layer_metrics(tracer.spans, n_setup=1,
                                   n_op=max(1, n_traced))
        run.layers["query.matching_zone_frac"] = zone / total
        run.layers["trace.overhead_frac"] = (
            stats.median(lat[True]) / stats.median(lat[False]) - 1.0)
        run.notes.append(f"traced requests {n_traced}, untraced "
                         f"{len(lat[False])}")
        run.tracer = tracer
    return run


# -- output --------------------------------------------------------------

def end_to_end(run, import_s, kind):
    setup = import_s + stats.median(run.setup_s)
    ms = [1e3 * s for s in run.op_s] or [1e3 * run.loop_s]
    cpu_ms = [1e3 * s for s in run.op_cpu_s] or ms
    if kind == "query":
        q = 99
        try:
            tail = stats.tail(cpu_ms, q)
        except ValueError as exc:  # only when the loop hit its time cap
            tail = stats.percentile(cpu_ms, q)
            run.notes.append(f"WARNING {exc}")
        run.notes.append(
            f"op_cpu_ms.tail is the CPU-time p99 of {len(cpu_ms)} answered "
            f"requests ({stats.samples_beyond(len(cpu_ms), q)} beyond it); "
            f"wall-clock p99 "
            f"{stats.percentile(ms, q):.3f} ms, CPU-time p50 "
            f"{stats.median(cpu_ms):.3f} ms")
    else:
        tail = max(cpu_ms)
        run.notes.append(f"op_cpu_ms.tail is the CPU time of the slowest of "
                         f"{len(cpu_ms)} study calls")
    return {
        "setup_s": setup,
        "op_ms.p50": stats.median(ms),
        "op_cpu_ms.tail": tail,
        "points_per_s": run.points / run.loop_s if run.loop_s else 0.0,
        "ok_frac": (run.attempted - run.failed) / max(run.attempted, 1),
        "peak_rss_mb": run.peak_rss_mb,
    }


def main(argv=None):
    args = parse(argv)
    import_package()
    from bench import workloads

    import_s = time.perf_counter() - T_START
    record = env.record()
    print("env " + json.dumps(record, sort_keys=True))
    w = workloads.make(args.workload, args.seed)
    if w.kind == "query":
        run = run_query_workload(w, args.seconds, args.trace)
    else:
        run = run_study_workload(w, args.seconds, args.trace)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"import {import_s:.4f} s; set-up runs "
          + " ".join(f"{s:.4f}" for s in run.setup_s) + " s")
    if run.mesh is not None:
        nodes, tets, nnz = run.mesh
        size = workloads.mesh_bytes(nodes, tets, nnz)
        l3 = record["l3_bytes"]
        share = f" = {size / l3:.4f} x L3" if l3 else ""
        print(f"largest mesh {nodes} nodes {tets} tets nnz {nnz}: "
              f"{size} bytes computed{share}")
    print(f"heap in use {run.ready_heap_mb:.3f} MB when the untraced "
          f"set-up ends, {run.loop_growth_mb:+.3f} MB growth over the "
          f"untraced operations of the timed loop")
    if args.trace:
        run.layers["mem.ready_heap_mb"] = run.ready_heap_mb
        run.layers["mem.loop_growth_mb"] = run.loop_growth_mb
        # a layer that never ran on this workload reads 0
        metrics = {name: run.layers.get(name, 0.0) for name, *_ in PER_LAYER}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json")
        run.tracer.dump(path, {"env": record, "metrics": metrics})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(run, import_s, w.kind)
    for note in run.notes:
        print(note)
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {UNITS[name]}")
    print(json.dumps({
        "correct": bool(run.correct),
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {name: {"value": float(value), "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
