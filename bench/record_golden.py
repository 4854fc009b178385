"""Record the golden outputs the benchmark's correctness gate compares with.

    python3 bench/record_golden.py [fem_sweep|full_study|field_queries ...]

Run once on the commit whose outputs define "correct" and commit the
files under bench/golden/.  Re-recording hides a change in results, so
a later change re-records only when it means to change the outputs and
says so.
"""

from __future__ import annotations

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from bench import env  # noqa: E402

env.pin_threads()

import numpy as np  # noqa: E402

import thinjunction  # noqa: E402
from bench import workloads  # noqa: E402

CHECK_SEED = 20261017
CHECK_POINTS = 128
WALL_POINTS = 8


def write(name, doc):
    text = json.dumps(doc, indent=1, sort_keys=True)
    # one line per innermost list of numbers (a point, a gradient)
    text = re.sub(r"\[\s+([^\[\]{}]+?)\s+\]",
                  lambda m: "[" + ", ".join(
                      v.strip() for v in m.group(1).split(",")) + "]", text)
    path = os.path.join(workloads.GOLDEN, f"{name}.json")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")
    print(f"wrote {path}")


def record_study(name):
    plan = thinjunction.load_plan(workloads.scaled_plan(name, 1.0))
    report = thinjunction.run_study(plan)
    write(name, {
        "epsilons": plan.epsilons,
        "errors": {t.target: t.errors for t in report.targets},
        "passed": {t.target: t.passed for t in report.targets},
        "slopes": {t.target: t.slope for t in report.targets},
    })


def _evaluate_each(exp, eps, pts):
    """Per point (value, gradient) or None where evaluation raises."""
    out = []
    for p in pts:
        try:
            v, g = exp.evaluate(p[None, :], eps, gradient=True)
            out.append((float(v[0]), g[0].tolist()))
        except ValueError:
            out.append(None)
    return out


def record_queries():
    w = workloads.QueryWorkload(seed=0)
    exp = w.setup()
    spec = w.spec
    rng = np.random.default_rng(CHECK_SEED)
    check, outside = {}, {}
    for eps in w.plan["epsilons"]:
        pts = workloads.sample_points(spec, eps, CHECK_POINTS, rng)
        # points at the circular wall inside the matching zone: the
        # polygonal junction tubes do not reach them
        wall = []
        for _ in range(WALL_POINTS):
            i = int(rng.integers(3))
            a, b = thinjunction.config.TRANSVERSE_AXES[i]
            x = rng.uniform(eps * spec.ell, 3.0 * spec.ell * eps ** spec.alpha)
            th = rng.uniform(0.0, 2.0 * np.pi)
            p = np.zeros(3)
            p[i] = x
            p[a] = 0.9999 * eps * spec.h[i](x) * np.cos(th)
            p[b] = 0.9999 * eps * spec.h[i](x) * np.sin(th)
            wall.append(p)
        pts = np.vstack([pts, wall])
        results = []
        batch = w.plan["batch"]
        for lo in range(0, len(pts), batch):
            chunk = pts[lo:lo + batch]
            try:
                v, g = exp.evaluate(chunk, eps, gradient=True)
                results += [(float(a), b.tolist()) for a, b in zip(v, g)]
            except ValueError:
                results += _evaluate_each(exp, eps, chunk)
        keep = [k for k, r in enumerate(results) if r is not None]
        check[repr(eps)] = {
            "points": pts[keep].tolist(),
            "values": [results[k][0] for k in keep],
            "gradients": [results[k][1] for k in keep],
        }
        outside[repr(eps)] = [pts[k].tolist() for k, r in enumerate(results)
                              if r is None]
        print(f"eps {eps}: {len(keep)} check points, "
              f"{len(outside[repr(eps)])} outside the mesh")
    write("field_queries", {"check_seed": CHECK_SEED, "check": check,
                            "outside": outside})


def main(names):
    for name in names or workloads.WORKLOADS:
        if name == "field_queries":
            record_queries()
        else:
            record_study(name)


if __name__ == "__main__":
    main(sys.argv[1:])
