"""Every grade, order, degree and count of the public API is read as an integer.

Each parameter goes through ``polyalg._as_int``: anything ``operator.index``
takes but a ``bool`` is accepted, NumPy integers among them, and anything
else raises ``ValueError`` naming the parameter rather than being rounded,
truncated or taken as 0 or 1.
"""

import re

import numpy as np
import pytest

from poissonforge import (FilteredJet, GradedPiece, Poly, PolyMVF, ad_exp, bch,
                          casimir_basis, coadjoint_invariance_check, cohomology_dims,
                          exact_rank, formal_linearize, grade_component, homotopy_solve,
                          linear_poisson, mc_equivalence, preset, prolong_step, schouten,
                          solve_linear_exact, truncate_jet)
from poissonforge.liealg import LieAlgebraSpec
from poissonforge.poisson import basis_size, graded_basis
from poissonforge.realize import symplectic_area, verify_realization

_PI = linear_poisson(preset("so3"))
_X = PolyMVF(3, 1, {(1,): Poly(3, {(2, 0, 0): 1})})  # x1^2 d1, of order 1
_W = PolyMVF(2, 1, {(1,): Poly.variable(2, 1)})      # x1 d1, of grade 1
_Z = GradedPiece(2, PolyMVF.zero(3, 2))


def _area(grid):
    return symplectic_area(lambda phi, theta: np.ones(np.broadcast(phi, theta).shape), grid)


# id -> (the name the error gives, the call with the value, an accepted value,
# whether None is accepted too, as "no bound" or "infer it")
_PARAMETERS = {
    "Poly.diff-index": ("index", lambda v: Poly.variable(3, 1).diff(v), 2, False),
    "Poly.pow-n": ("power", lambda v: Poly.variable(2, 1) ** v, 2, False),
    "exact_rank-ncols": ("ncols", lambda v: exact_rank([{0: 1}], v), 2, True),
    "solve_linear_exact-ncols": ("ncols", lambda v: solve_linear_exact([{0: 1}], [1], v),
                                 2, True),
    "schouten-max_grade": ("max_grade", lambda v: schouten(_PI, _PI, max_grade=v), 2, True),
    "truncate_jet-k": ("jet order k", lambda v: truncate_jet(_W, v), 2, False),
    "GradedPiece-l": ("grade l", lambda v: GradedPiece(v, PolyMVF.zero(2, 1)), 2, False),
    "grade_component-l": ("grade l", lambda v: grade_component(_W, v), 2, False),
    "basis_size-n": ("n", lambda v: basis_size(v, 1, 1, [1, 1]), 2, False),
    "basis_size-k": ("k", lambda v: basis_size(2, v, 1, [1, 1]), 2, False),
    "basis_size-l": ("grade l", lambda v: basis_size(2, 1, v, [1, 1]), 2, False),
    "basis_size-base_degree_cap": ("base_degree_cap",
                                   lambda v: basis_size(2, 1, 1, [0, 1], v), 2, False),
    "graded_basis-n": ("n", lambda v: graded_basis(v, 1, 1, [1, 1]), 2, False),
    "graded_basis-k": ("k", lambda v: graded_basis(2, v, 1, [1, 1]), 2, False),
    "graded_basis-l": ("grade l", lambda v: graded_basis(2, 1, v, [1, 1]), 2, False),
    "graded_basis-base_degree_cap": ("base_degree_cap",
                                     lambda v: graded_basis(2, 1, 1, [0, 1], v), 2, False),
    "casimir_basis-D": ("max degree D", lambda v: casimir_basis(_PI, v), 2, False),
    "cohomology_dims-l": ("grade l", lambda v: cohomology_dims(_PI, v, 1), 2, False),
    "cohomology_dims-kmax": ("max degree kmax", lambda v: cohomology_dims(_PI, 1, v), 2, False),
    "FilteredJet-D": ("jet order D", lambda v: FilteredJet(_PI, v), 2, False),
    "ad_exp-D": ("jet order D", lambda v: ad_exp(_X, _PI, v), 2, False),
    "ad_exp-jets-D": ("jet order D",
                      lambda v: ad_exp(FilteredJet(_X, 2), FilteredJet(_PI, 2), v), 2, False),
    "bch-D": ("jet order D", lambda v: bch(_X, _X, v), 2, False),
    "mc_equivalence-D": ("jet order D", lambda v: mc_equivalence(_PI, _PI, v), 2, False),
    "mc_equivalence-base_degree_cap": ("base_degree_cap",
                                       lambda v: mc_equivalence(_PI, _PI, 2, v), 2, False),
    "formal_linearize-D": ("jet order D", lambda v: formal_linearize(_PI, v), 2, False),
    "formal_linearize-base_degree_cap": ("base_degree_cap",
                                         lambda v: formal_linearize(_PI, 2, v), 2, False),
    "homotopy_solve-base_degree_cap": ("base_degree_cap",
                                       lambda v: homotopy_solve(_PI, _Z, v), 2, False),
    "prolong_step-m": ("grade m", lambda v: prolong_step(FilteredJet(_PI, 2), v), 2, False),
    "prolong_step-base_degree_cap": ("base_degree_cap",
                                     lambda v: prolong_step(FilteredJet(_PI, 2), 2, v), 2, False),
    "verify_realization-n_samples": ("n_samples",
                                     lambda v: verify_realization(_PI, v, 0.1, 1, 2), 2, False),
    "verify_realization-seed": ("seed", lambda v: verify_realization(_PI, 2, 0.1, v, 2), 2, False),
    "verify_realization-steps": ("steps", lambda v: verify_realization(_PI, 2, 0.1, 1, v),
                                 2, False),
    "symplectic_area-grid": ("grid", _area, 32, False),
    "symplectic_area-grid-pair": ("grid", lambda v: _area((v, 40)), 32, False),
    "coadjoint_invariance_check-trials": (
        "trials", lambda v: coadjoint_invariance_check(preset("so3"), Poly.variable(3, 1), v, 0),
        2, False),
    "coadjoint_invariance_check-seed": (
        "seed", lambda v: coadjoint_invariance_check(preset("so3"), Poly.variable(3, 1), 1, v),
        2, False),
    "LieAlgebraSpec-dim": ("dim", lambda v: LieAlgebraSpec(v, {}), 2, False),
}


@pytest.mark.parametrize("name, call, good, nullable", _PARAMETERS.values(), ids=_PARAMETERS)
def test_integer_parameters_refuse_what_they_would_coerce(name, call, good, nullable):
    # each of these was once reinterpreted: diff(True) as d/dx1,
    # truncate_jet(W, 1.5) as the 1-jet, ad_exp(X, pi, 2.5) as a 2.5-jet,
    # exact_rank(A, True) as one column, and the grid (32.5, 40) read as an
    # area of 20.04 where 2 pi^2 = 19.74
    for bad in (True, 1.5, 2.0, good + 0.5, "2") + (() if nullable else (None,)):
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            call(bad)
    call(np.int64(good))
    if nullable:
        call(None)


@pytest.mark.parametrize("call", [basis_size, graded_basis], ids=["basis_size", "graded_basis"])
@pytest.mark.parametrize("weights", [[2, 2], [1], [1, 1, 1], [True, 1], [1.0, 1]],
                         ids=["two", "short", "long", "bool", "float"])
def test_basis_weights_are_read_as_polymvf_reads_them(call, weights):
    # once unchecked: basis_size(2, 1, 1, [2, 2]) was 4 while graded_basis
    # built no element, and graded_basis(2, 1, 1, [1]) raised IndexError
    with pytest.raises(ValueError, match="weights"):
        call(2, 1, 1, weights)
    with pytest.raises(ValueError, match="weights"):
        PolyMVF(2, 1, weights=weights)


def test_basis_weights_take_integer_entries():
    weights = (np.int64(0), np.int64(1))
    assert basis_size(2, 1, 1, weights) == len(graded_basis(2, 1, 1, weights)) == 2


def test_integer_results_are_ints():
    # what is read is stored as an int, not as the NumPy integer given
    assert type(GradedPiece(np.int64(2), PolyMVF.zero(2, 1)).l) is int
    assert type(FilteredJet(_PI, np.int64(2)).D) is int
    assert type(ad_exp(_X, _PI, np.int64(2)).D) is int
    assert type(LieAlgebraSpec(np.int64(3), {}).dim) is int
