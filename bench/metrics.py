"""Metric definitions (mirrored in BENCHMARK.json) and their aggregation."""

from __future__ import annotations

from collections import defaultdict

from .tracing import self_times

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ms.p50", "ms", "lower", 0.25),
    ("op_cpu_ms.tail", "ms", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
    ("ok_frac", "ratio", "higher", 0.03),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

STUDY_TARGETS = ("T0_M", "COR42_H1_U0", "COR42_L2_U0", "COR42_CYL",
                 "COR43_POINTWISE", "COR44_POINTWISE")

PER_LAYER = (
    ("mesh3d.build_thin_mesh.s", "s", "lower"),
    ("mesh3d.build_junction_mesh.s", "s", "lower"),
    ("mesh3d.nodes", "count", "lower"),
    ("mesh3d.tets", "count", "lower"),
    ("fem3d.FemContext.s", "s", "lower"),
    ("fem3d.cg.s", "s", "lower"),
    ("fem3d.cg.iterations", "count", "lower"),
    ("fem3d.cg.residual_max", "ratio", "lower"),
    ("fem3d.cg.bytes_computed", "bytes", "lower"),
    ("fem3d.solve_poisson.s", "s", "lower"),
    ("reference.solve_reference.s", "s", "lower"),
    ("fem3d.norms.self_s", "s", "lower"),
    ("fem3d.locate.s", "s", "lower"),
    ("fem3d.locate.points", "count", "lower"),
    ("fem3d.locate.us_per_point", "us", "lower"),
    ("fem3d.locate.found_ratio", "ratio", "higher"),
    ("fem3d.field_gradients.s", "s", "lower"),
    ("fem3d.field_gradients.calls", "count", "lower"),
    ("junction.TruncatedJunction.s", "s", "lower"),
    ("junction.solve_special.s", "s", "lower"),
    ("junction.solve_decaying.s", "s", "lower"),
    ("junction.assemble_load.s", "s", "lower"),
    ("junction.compute_delta.s", "s", "lower"),
    ("junction.JunctionField.evaluate.self_s", "s", "lower"),
    ("graph.solve_limit.s", "s", "lower"),
    ("graph.solve_omega_k.s", "s", "lower"),
    ("corrector.build_corrector.s", "s", "lower"),
    ("corrector.solve_disk_neumann.calls", "count", "lower"),
    ("corrector.EdgeCorrector.modal_batch.s", "s", "lower"),
    ("corrector.EdgeCorrector.modal_batch.calls", "count", "lower"),
    ("layers.build_pi.s", "s", "lower"),
    ("layers.BoundaryLayerTerm.eval.s", "s", "lower"),
    ("expansion.Expansion.s", "s", "lower"),
    ("expansion.evaluate.self_s", "s", "lower"),
    ("expansion.evaluate.points", "count", "lower"),
    ("study.run_study.s", "s", "lower"),
) + tuple((f"study.target.{t}.ms", "ms", "lower") for t in STUDY_TARGETS) + (
    ("mem.ready_heap_mb", "MB", "lower"),
    ("mem.loop_growth_mb", "MB", "lower"),
    ("query.matching_zone_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# span name -> metric prefix for plain per-unit wall time
_TIMED = (
    "mesh3d.build_thin_mesh", "mesh3d.build_junction_mesh",
    "fem3d.FemContext", "fem3d.cg", "fem3d.solve_poisson",
    "reference.solve_reference", "fem3d.locate", "fem3d.field_gradients",
    "junction.TruncatedJunction", "junction.solve_special",
    "junction.solve_decaying", "junction.assemble_load",
    "junction.compute_delta", "graph.solve_limit", "graph.solve_omega_k",
    "corrector.build_corrector", "corrector.EdgeCorrector.modal_batch",
    "layers.build_pi", "layers.BoundaryLayerTerm.eval",
    "expansion.Expansion", "study.run_study",
)
_SELF = ("fem3d.norms", "junction.JunctionField.evaluate",
         "expansion.evaluate")
_CALLS = ("fem3d.field_gradients", "corrector.solve_disk_neumann",
          "corrector.EdgeCorrector.modal_batch")

# Bytes one CSR spmv streams: float64 value + int32 column per nonzero,
# int32 row pointer, one read of x and one write of y per row.
SPMV_BYTES_PER_NNZ = 12
SPMV_BYTES_PER_ROW = 4 + 8 + 8


def layer_metrics(spans, n_setup, n_op):
    """Per-layer numbers per operation, or per set-up for a layer that
    only runs during set-up.

    A span belongs to the set-up phase when its request id starts with
    ``setup`` and to the operation phase otherwise.  A layer seen in any
    operation is reported per traced operation from those spans alone;
    a layer seen only in set-up is reported per traced set-up.
    """
    selfs = self_times(spans)
    in_setup = {s.id for s in spans
                if s.request is not None and s.request.startswith("setup")}
    in_ops = {s.name for s in spans
              if s.request is not None and s.id not in in_setup}
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(float)
    attr = defaultdict(float)
    residual = 0.0
    for s in spans:
        if s.request is None:
            continue
        if s.id not in in_setup:
            w = 1.0 / n_op
        elif s.name not in in_ops:
            w = 1.0 / n_setup
        else:
            continue
        total[s.name] += w * s.duration
        own[s.name] += w * selfs[s.id]
        calls[s.name] += w
        for key, val in s.attrs.items():
            if key == "residual":
                residual = max(residual, val)
            else:
                attr[s.name, key] += w * val
        if s.name == "fem3d.cg":
            attr["fem3d.cg", "bytes"] += w * s.attrs["iterations"] * (
                SPMV_BYTES_PER_NNZ * s.attrs["nnz"]
                + SPMV_BYTES_PER_ROW * s.attrs["n"])

    out = {f"{name}.s": total[name] for name in _TIMED}
    out.update({f"{name}.self_s": own[name] for name in _SELF})
    out.update({f"{name}.calls": calls[name] for name in _CALLS})
    meshes = ("mesh3d.build_thin_mesh", "mesh3d.build_junction_mesh")
    out["mesh3d.nodes"] = sum(attr[m, "nodes"] for m in meshes)
    out["mesh3d.tets"] = sum(attr[m, "tets"] for m in meshes)
    out["fem3d.cg.iterations"] = attr["fem3d.cg", "iterations"]
    out["fem3d.cg.residual_max"] = residual
    out["fem3d.cg.bytes_computed"] = attr["fem3d.cg", "bytes"]
    points = attr["fem3d.locate", "points"]
    out["fem3d.locate.points"] = points
    out["fem3d.locate.us_per_point"] = (
        1e6 * total["fem3d.locate"] / points if points else 0.0)
    out["fem3d.locate.found_ratio"] = (
        attr["fem3d.locate", "found"] / points if points else 0.0)
    out["expansion.evaluate.points"] = attr["expansion.evaluate", "points"]
    out["trace.spans"] = float(len(spans))
    return out
