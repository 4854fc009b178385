"""Every top-level import of a package or test module is used, and
importing the package loads no module it does not need.

No linter runs on the repository, so this is the check for unused
imports.  The package's ``__init__.py`` re-exports names and
``__future__`` imports are directives, so both are left out.
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
