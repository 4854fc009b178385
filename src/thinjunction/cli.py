"""Command-line interface for solves, expansions, and studies."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import load_spec
from .expansion import Expansion
from .graph import solve_limit
from .junction import TruncatedJunction, solve_special
from .reference import solve_reference, with_epsilon
from .study import emit, load_plan, run_study, spec_digest


def _write(out_dir, name, text):
    if out_dir is None:
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def _cmd_limit_solve(args):
    spec = load_spec(args.config)
    gf = solve_limit(spec)
    xs = np.linspace(0.0, 1.0, 101)
    print(f"vertex value {gf.edges[0].vertex_value:.12g}")
    for i in range(3):
        e = gf.edges[i]
        print(f"edge {i}: slope(0) {e.vertex_slope:+.12g} "
              f"end value {e.value(1.0):+.3e}")
    if args.out:
        doc = {"vertex_value": gf.edges[0].vertex_value,
               "edges": [{"x": xs.tolist(),
                          "omega0": gf.edges[i].value(xs).tolist()}
                         for i in range(3)]}
        path = _write(args.out, "limit.json",
                      json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_expand(args):
    spec = load_spec(args.config)
    if args.order is not None:
        import dataclasses
        spec = dataclasses.replace(spec, order=int(args.order))
    exp = Expansion(spec, junction_R=args.R, junction_refine=args.refine)
    doc = {"order": exp.order, "vertex_value":
           exp.graph[0].edges[0].vertex_value, "levels": []}
    print(f"expansion order {exp.order}")
    for k in range(1, exp.order + 1):
        tr = exp.trans[k]
        level = {"k": k, "delta2": tr.delta2, "delta3": tr.delta3,
                 "dstar": tr.dstar, "solvability": exp.solvability[k]}
        doc["levels"].append(level)
        print(f"  k={k}: jumps ({tr.delta2:+.6e}, {tr.delta3:+.6e}) "
              f"flux {tr.dstar:+.6e} balance defect "
              f"{exp.solvability[k]:.2e}")
    if args.out:
        path = _write(args.out, "expansion.json",
                      json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_junction(args):
    spec = load_spec(args.config)
    tj = TruncatedJunction(spec, R=args.R, refine=args.refine)
    print(f"mesh: {tj.mesh.num_nodes} nodes, {tj.mesh.num_tets} tets, "
          f"R={tj.R:.3f}")
    doc = {"R": tj.R, "nodes": int(tj.mesh.num_nodes),
           "tets": int(tj.mesh.num_tets), "specials": []}
    for edge in (1, 2):
        fld = solve_special(tj, edge)
        slopes = fld.info["slopes"]
        plats = fld.info["plateaus"]
        print(f"  special {edge}: slopes "
              + ", ".join(f"{s:+.6f}" for s in slopes)
              + "; plateaus "
              + ", ".join(f"{p:+.6f}" for p in plats)
              + f"; load defect {fld.load_defect:.2e}")
        doc["specials"].append({"edge": edge, "slopes": list(slopes),
                                "plateaus": list(plats),
                                "load_defect": fld.load_defect})
    if args.out:
        path = _write(args.out, "junction.json",
                      json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_reference(args):
    spec = load_spec(args.config)
    if args.epsilon is not None:
        spec = with_epsilon(spec, args.epsilon)
    ref = solve_reference(spec, axial=args.axial)
    print(f"mesh: {ref.mesh.num_nodes} nodes, {ref.mesh.num_tets} tets")
    print(f"solver: {ref.info['iterations']} iterations, relative "
          f"residual {ref.info['relative_residual']:.2e}")
    if args.out:
        doc = {"epsilon": ref.epsilon, "nodes": int(ref.mesh.num_nodes),
               "iterations": int(ref.info["iterations"]), "profiles": []}
        for i in range(3):
            xs, means = ref.station_values(i)
            doc["profiles"].append({"edge": i, "x": xs.tolist(),
                                    "mean": means.tolist()})
        path = _write(args.out, "reference.json",
                      json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _cmd_study(args):
    plan = load_plan(args.plan)
    print(f"spec digest {spec_digest(plan.spec)[:16]}")
    report = run_study(plan)
    for t in report.targets:
        slope = "n/a" if t.slope is None else f"{t.slope:+.3f}"
        pred = "none" if t.predicted is None else f"{t.predicted:+.3f}"
        mark = "pass" if t.passed else "FAIL"
        print(f"  {t.target:18s} slope {slope} predicted {pred} "
              f"[{t.status}] {mark}")
    for note in report.notes:
        print(f"  note: {note}")
    if args.out:
        fmts = ["json", "csv"] if args.format == "both" else [args.format]
        os.makedirs(args.out, exist_ok=True)
        for fmt in fmts:
            path = os.path.join(args.out, f"study.{fmt}")
            emit(report, fmt, path)
            print(f"wrote {path}")
    print("study:", "pass" if report.passed else "FAIL")
    return 0 if report.passed else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="thinjunction",
        description="Asymptotic expansions on a thin three-tube junction")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("limit-solve", help="solve the limit graph problem")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_limit_solve)

    s = sub.add_parser("expand", help="build the expansion hierarchy")
    s.add_argument("--config", required=True)
    s.add_argument("--order", type=int, default=None)
    s.add_argument("--R", type=float, default=None)
    s.add_argument("--refine", type=float, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_expand)

    s = sub.add_parser("junction", help="solve junction special fields")
    s.add_argument("--config", required=True)
    s.add_argument("--R", type=float, default=None)
    s.add_argument("--refine", type=float, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_junction)

    s = sub.add_parser("reference", help="direct thin-domain FEM solve")
    s.add_argument("--config", required=True)
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--axial", type=float, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_reference)

    s = sub.add_parser("study", help="run a convergence study plan")
    s.add_argument("--plan", required=True)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=["json", "csv", "both"],
                   default="json")
    s.set_defaults(fn=_cmd_study)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
