"""Every top-level import of a package or test module is used, and
importing the package loads no module it does not need.

No linter runs on the repository, so this is the check for unused
imports.  The package's ``__init__.py`` re-exports names and
``__future__`` imports are directives, so both are left out.
"""

import ast
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
