"""Asymptotic solver for Poisson flow through three thin branches
joined by a small bulge, with a matched junction layer and sealed ends."""

__version__ = "0.1.0"

from .config import (LateralLoad, ProblemSpec, RadiusProfile, SourceField,
                     load_spec)
from .corrector import (DiskCompatibilityError, build_corrector,
                        corrector_rhs, solve_disk_neumann)
from .diskspec import DiskSpectrum
from .expansion import Expansion, RecurrenceError
from .graph import TransmissionData, solve_limit, solve_omega_k
from .junction import (TruncatedJunction, build_inner_rhs,
                       check_solvability, compute_delta, compute_dstar,
                       solve_decaying, solve_special)
from .layers import build_pi
from .mesh3d import build_junction_mesh, build_thin_mesh, build_tube_mesh
from .reference import ReferenceSolution, solve_reference, with_epsilon
from .study import (StudyPlan, StudyReport, emit, load_plan, run_study,
                    spec_digest)

__all__ = [
    "DiskCompatibilityError", "DiskSpectrum", "Expansion", "LateralLoad",
    "ProblemSpec", "RadiusProfile", "RecurrenceError", "ReferenceSolution",
    "SourceField", "StudyPlan", "StudyReport",
    "TransmissionData", "TruncatedJunction", "build_corrector",
    "build_inner_rhs", "build_junction_mesh", "build_pi", "build_thin_mesh",
    "build_tube_mesh", "check_solvability", "compute_delta", "compute_dstar",
    "corrector_rhs", "emit", "load_plan", "load_spec", "run_study",
    "solve_decaying", "solve_disk_neumann", "solve_limit", "solve_omega_k",
    "solve_reference", "solve_special", "spec_digest", "with_epsilon",
    "__version__",
]
