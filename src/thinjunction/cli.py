"""Command-line interface: run a convergence study plan."""

from __future__ import annotations

import argparse
import os
import sys

from .study import emit, load_plan, run_study, spec_digest


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
