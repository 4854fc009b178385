"""Environment record printed with every benchmark run."""

from __future__ import annotations

import importlib.util
import os
import platform
import subprocess

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def pin_threads():
    """Single-threaded BLAS/OpenMP pools; must run before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _cache_size(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True,
                             text=True, timeout=10, check=True).stdout
        return int(out.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _blas():
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def record():
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "pyamg_importable": importlib.util.find_spec("pyamg") is not None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_size("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _cache_size("LEVEL3_CACHE_SIZE"),
    }
