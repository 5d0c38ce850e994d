"""poissonforge: a workbench for computational Poisson geometry.

Exact Schouten calculus on polynomial multivector fields, formal
normal-form/linearization machinery in graded truncations, and numerical
symplectic realizations via Poisson sprays.
"""

import importlib.util as _importlib_util
import os as _os
import sys as _sys


def _apply_thread_cap():
    """Cap the BLAS/OpenMP thread pools at POISSON_FORGE_THREADS.

    The pools read these variables once, when NumPy is first imported.
    Package import runs this first and loads no NumPy itself: the exact
    modules import it inside their float functions, and ``realize`` loads on
    first use.  So the cap is in place whenever NumPy comes, and an exact
    verb never loads it.  A value that is not a positive integer is not
    forwarded: it returns the error the CLI reports.
    """
    cap = _os.environ.get("POISSON_FORGE_THREADS")
    if cap and not (cap.isascii() and cap.isdigit() and int(cap) > 0):
        return f"POISSON_FORGE_THREADS must be a positive integer, got {cap!r}"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS") if cap else ():
        _os.environ.setdefault(var, cap)
    return None


_THREAD_CAP_ERROR = _apply_thread_cap()

from .polyalg import Poly, SolveOutcome, exact_rank, format_poly, \
    parse_poly, solve_linear_exact
from .multivector import GradedPiece, PolyMVF, dilate, grade_component, \
    schouten, truncate_jet, wedge
from .poisson import CohomologyTable, PoissonCheck, casimir_basis, check_poisson, \
    cohomology_dims, hamiltonian_vf, poisson_bracket, sharp
from .liealg import LieAlgebraSpec, WeylCircleSample, coadjoint_invariance_check, \
    killing_classify, linear_poisson, preset, su3_invariants, validate, \
    weyl_circle_sample
from .formal import FilteredJet, GaugeSolution, HomotopyResult, ProlongResult, \
    ad_exp, bch, formal_linearize, homotopy_solve, mc_equivalence, order_of, \
    prolong_step


def _lazy_submodule(name: str):
    """Register submodule ``name`` in ``sys.modules``; its body runs on first attribute use."""
    spec = _importlib_util.find_spec(f"{__name__}.{name}")
    spec.loader = _importlib_util.LazyLoader(spec.loader)
    module = _importlib_util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# The numeric realization layer imports NumPy, so it loads only when used:
# the exact verbs never pay for NumPy.
realize = _lazy_submodule("realize")
_REALIZE_NAMES = frozenset((
    "FlowBlowupError", "RealizationReport", "SprayField", "dh_variation",
    "flow_with_jacobian", "realization_form", "sphere_leaf_form",
    "symplectic_area", "verify_realization"))


def __getattr__(name):
    if name in _REALIZE_NAMES:
        return getattr(realize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
