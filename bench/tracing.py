"""Spans recorded around the calls into each layer of the package.

A traced run installs timing wrappers on the names that callers look
up (module globals such as ``thinjunction.reference.build_thin_mesh``
and methods on their classes), records one span per call in memory and
removes every wrapper afterwards.  Nothing inside the package changes.

A span is ``(id, name, start, end, parent, request, attrs)``; ``parent``
is the id of the span that was open when the call began and
``request`` the identifier of the benchmark operation it served.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded benchmark run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.request = None
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), 0.0, parent,
                    self.request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span):
        span.end = self.clock()
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self._stack.pop()

    def wrap(self, fn, name, hook=None):
        """``fn`` recording one span per call; ``hook(args, result)``
        returns attributes to attach to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    span.attrs.update(hook(args, result))
                return result
            finally:
                self.end(span)

        return traced

    def dump(self, path, extra=None):
        doc = {"spans": [{
            "id": s.id, "name": s.name, "start": s.start, "end": s.end,
            "parent": s.parent, "request": s.request, "attrs": s.attrs}
            for s in self.spans]}
        doc.update(extra or {})
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)


class Patches:
    """Attribute replacements that can be undone exactly."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        # A class attribute is saved from the class's own __dict__ so that
        # restoring does not copy an inherited method onto the subclass.
        had = attr in vars(owner)
        self._saved.append((owner, attr, had,
                            vars(owner)[attr] if had else None))
        setattr(owner, attr, value)

    def restore(self):
        while self._saved:
            owner, attr, had, old = self._saved.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def __len__(self):
        return len(self._saved)


def _mesh_attrs(_args, mesh):
    return {"nodes": int(mesh.num_nodes), "tets": int(mesh.num_tets)}


def _context_attrs(args, _result):
    ctx = args[0]
    return {"nodes": int(ctx.mesh.num_nodes), "tets": int(ctx.mesh.num_tets),
            "nnz": int(ctx.matrix.nnz)}


def _cg_attrs(args, result):
    a = args[0]
    info = result[1]
    return {"iterations": int(info["iterations"]),
            "residual": float(info["relative_residual"]),
            "nnz": int(a.nnz), "n": int(a.shape[0])}


def _locate_attrs(args, result):
    found = result[0]
    return {"points": int(len(found)), "found": int((found >= 0).sum())}


def _points_attrs(args, _result):
    return {"points": int(len(args[1]))}


# (module, attribute path, span name, attribute hook).  Module globals
# are patched in the module whose code looks them up, so every caller
# of a layer is covered: ``_solve_spd`` is the one CG entry point and
# is imported by name into both ``fem3d`` and ``junction``.
TARGETS = (
    ("thinjunction.reference", "build_thin_mesh", "mesh3d.build_thin_mesh",
     _mesh_attrs),
    ("thinjunction.junction", "build_junction_mesh",
     "mesh3d.build_junction_mesh", _mesh_attrs),
    ("thinjunction.fem3d", "FemContext.__init__", "fem3d.FemContext",
     _context_attrs),
    ("thinjunction.fem3d", "_solve_spd", "fem3d.cg", _cg_attrs),
    ("thinjunction.junction", "_solve_spd", "fem3d.cg", _cg_attrs),
    ("thinjunction.reference", "solve_poisson", "fem3d.solve_poisson", None),
    ("thinjunction.reference", "norms", "fem3d.norms", None),
    ("thinjunction.fem3d", "PointLocator.locate", "fem3d.locate",
     _locate_attrs),
    ("thinjunction.fem3d", "FemContext.field_gradients",
     "fem3d.field_gradients", None),
    ("thinjunction.study", "solve_reference", "reference.solve_reference",
     None),
    ("thinjunction.junction", "TruncatedJunction.__init__",
     "junction.TruncatedJunction", None),
    ("thinjunction.expansion", "solve_special", "junction.solve_special",
     None),
    ("thinjunction.expansion", "solve_decaying", "junction.solve_decaying",
     None),
    ("thinjunction.junction", "assemble_load", "junction.assemble_load",
     None),
    ("thinjunction.expansion", "compute_delta", "junction.compute_delta",
     None),
    ("thinjunction.junction", "JunctionField.evaluate",
     "junction.JunctionField.evaluate", None),
    ("thinjunction.expansion", "solve_limit", "graph.solve_limit", None),
    ("thinjunction.expansion", "solve_omega_k", "graph.solve_omega_k", None),
    ("thinjunction.expansion", "build_corrector", "corrector.build_corrector",
     None),
    ("thinjunction.corrector", "solve_disk_neumann",
     "corrector.solve_disk_neumann", None),
    ("thinjunction.corrector", "EdgeCorrector.modal_batch",
     "corrector.EdgeCorrector.modal_batch", None),
    ("thinjunction.expansion", "build_pi", "layers.build_pi", None),
    ("thinjunction.layers", "BoundaryLayerTerm.values",
     "layers.BoundaryLayerTerm.eval", None),
    ("thinjunction.layers", "BoundaryLayerTerm.gradient",
     "layers.BoundaryLayerTerm.eval", None),
    ("thinjunction.expansion", "Expansion.__init__", "expansion.Expansion",
     None),
    ("thinjunction.expansion", "Expansion.evaluate", "expansion.evaluate",
     _points_attrs),
)


def install(tracer, patches, targets=TARGETS):
    """Wrap every target; undo with ``patches.restore()``."""
    for module, path, name, hook in targets:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        patches.replace(owner, attr,
                        tracer.wrap(getattr(owner, attr), name, hook))


def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, cursor, s.start), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out
