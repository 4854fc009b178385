"""Every top-level import of a package or test module is used, every
module-level function and class of the package is read, and importing
the package loads no module it does not need.

No linter runs on the repository, so this is the check for unused
imports and definitions.  The package's ``__init__.py`` re-exports names
and ``__future__`` imports are directives, so both are left out.
"""

import ast
import dataclasses
import json
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "thinjunction"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))
BENCH_MODULES = sorted((TESTS.parent / "bench").glob("*.py"))

# Definitions that only tests read, each kept for its reason.
TEST_ONLY = {
    ("graph", "weak_residual"): "a check of the paper's weak form",
    ("mesh3d", "build_tube_mesh"):
        "the uniform-spacing tube of the FEM convergence tests: thin meshes "
        "grade their stations, and on the fem_sweep spec halving axial "
        "left the thin mesh unchanged, so the rate read 0",
}


def unused_imports(source):
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - read)


def test_the_check_sees_unused_names():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\n"
           "from dataclasses import dataclass, field\n"
           "x = np.zeros(1)\n@dataclass\nclass A:\n    pass\n")
    assert unused_imports(src) == ["field", "os"]


def unread_definitions(modules, readers):
    """(module, name) of the module-level functions and classes of
    ``modules`` ({name: source}) that no source of ``modules`` or
    ``readers`` reads, as a name or as an attribute."""
    read = set()
    for source in [*modules.values(), *readers]:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return sorted((module, n.name) for module, source in modules.items()
                  for n in ast.parse(source).body
                  if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                  and n.name not in read)


def test_the_check_sees_unread_definitions():
    modules = {"a": "def f():\n    return g()\ndef g():\n    pass\n"
                    "class C:\n    pass\nh = 1\n",
               "b": "import a\ndef k():\n    k = 2\n"}
    assert unread_definitions(modules, []) == [("a", "C"), ("a", "f"),
                                                ("b", "k")]
    assert unread_definitions(modules, ["from a import f\nf()\na.C"]) == [
        ("b", "k")]


def test_every_package_definition_is_read():
    """Read in a package module (its own counts), in ``cli.py`` or in the
    benchmark's modules; the re-exports of ``__init__.py`` do not count."""
    modules = {p.stem: p.read_text() for p in MODULES}
    readers = [p.read_text() for p in BENCH_MODULES]
    assert unread_definitions(modules, readers) == sorted(TEST_ONLY)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_import_in_tests(path):
    assert unused_imports(path.read_text()) == []


def _loaded_by_package_import(module):
    code = ("import sys, thinjunction; "
            f"print({module!r} in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         cwd=SRC.parent).stdout
    return out.strip() == "True"


def test_package_import_leaves_scipy_stats_out():
    # scipy.stats takes about half a second to import and nothing in
    # the package needs it
    assert not _loaded_by_package_import("scipy.stats")


def test_package_import_leaves_scipy_optimize_out():
    # scipy.optimize takes about 0.2 s to import; the disk roots are
    # polished by Newton steps instead of its brentq
    assert not _loaded_by_package_import("scipy.optimize")


def test_package_import_leaves_scipy_linalg_out():
    # scipy.sparse.linalg and the scipy.linalg it loads (LAPACK wrappers,
    # ARPACK, PROPACK) cost about 8 MB of RSS a process; the package runs
    # its own CG loop and inverts the coarse matrix with numpy
    for module in ("scipy.sparse.linalg", "scipy.linalg"):
        assert not _loaded_by_package_import(module)


SOLVE_AND_SERVE = """
import json, sys
import numpy as np
from thinjunction import Expansion, load_plan, load_spec, run_study
spec = load_spec(sys.argv[1])
exp = Expansion(spec, junction_R=spec.ell + 4.0, junction_refine=0.7)
eps = 0.1
exp.evaluate(np.array([[0.5 * spec.ell * eps, 1e-3 * eps, 2e-3 * eps]]),
             eps, gradient=True)
run_study(load_plan(sys.argv[2]))
print(json.dumps([m for m in ("scipy.sparse.linalg", "scipy.linalg")
                  if m in sys.modules]))
"""


def test_solves_serving_and_studies_leave_scipy_linalg_out(rich_spec,
                                                            fx_spec):
    """No module of the solve, serve and study paths imports them while
    it runs: an order-2 expansion (junction solves) serves one request,
    then a small order-0 study runs (reference solves and the fit).  A
    plan needs three slenderness values; these are the tests' coarsest."""
    plan = {"spec": dataclasses.replace(fx_spec, order=0).to_json(),
            "epsilons": [0.3, 0.25, 0.2], "targets": ["COR42_L2_U0"],
            "axial": 0.05, "fem_refine": 0.4}
    out = subprocess.run(
        [sys.executable, "-c", SOLVE_AND_SERVE,
         json.dumps(rich_spec.to_json()), json.dumps(plan)],
        check=True, capture_output=True, text=True, cwd=SRC.parent).stdout
    assert json.loads(out) == []
