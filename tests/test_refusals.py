"""Refusals of bad input that no other test or benchmark case reaches.

Each case calls one public function on an input it must refuse and checks
the ``ValueError`` and its message, so a refusal cannot turn silently into
a reinterpretation.
"""

import re

import pytest

from poissonforge import (FilteredJet, Poly, PolyMVF, ad_exp, casimir_basis, check_poisson,
                          cohomology_dims, dilate, linear_poisson, mc_equivalence,
                          poisson_bracket, preset, schouten, sharp, solve_linear_exact,
                          truncate_jet)
from poissonforge.formal import _as_jet

_PI = linear_poisson(preset("so3"))
_X1 = PolyMVF(3, 1, {(1,): Poly.variable(3, 2)})                     # x2 d1, a vector field
_F = Poly.variable(3, 1)
_NOT_POISSON = PolyMVF(3, 2, {(1, 2): Poly.variable(3, 3), (1, 3): Poly.variable(3, 1)})
_D13 = PolyMVF(3, 2, {(1, 3): Poly.constant(3, 1)}, (0, 0, 1))      # grade 1 by its weights


@pytest.mark.parametrize("call, message", [
    (lambda: solve_linear_exact([[1, 2]], [1, 2]), "dimension mismatch: 1 rows vs 2 rhs entries"),
    (lambda: PolyMVF(3, 2, {(1,): _F}), "index tuple (1,) has wrong length for grade 2"),
    (lambda: schouten(_PI, PolyMVF.zero(2, 2)), "variable count mismatch"),
    (lambda: schouten(_PI, _PI.with_weights((0, 1, 1))), "weight vector mismatch"),
    (lambda: _PI + _X1, "cannot add multivectors of different degree"),
    (lambda: PolyMVF.from_json_obj({"nvars": 2, "grade": 2, "terms": [
        {"indices": [1, 2], "poly": "x1"}, {"indices": [1, 2], "poly": "x2"}]}),
     "repeated index tuple [1, 2] in terms"),
    (lambda: _PI.apply_to_functions([_F]), "need exactly one function per degree"),
    (lambda: dilate(_PI, 0), "dilation parameter must be nonzero"),
    (lambda: check_poisson(_X1), "expected a bivector, got degree 1"),
    (lambda: sharp(_X1, 1), "expected a bivector, got degree 1"),
    (lambda: poisson_bracket(_X1, _F, _F), "expected a bivector, got degree 1"),
    (lambda: sharp(_PI, [_F, _F]), "1-form needs 3 coefficients"),
    (lambda: casimir_basis(_NOT_POISSON, 1), "bivector is not Poisson; Casimirs undefined"),
    (lambda: cohomology_dims(_NOT_POISSON, 1, 1), "bivector is not Poisson"),
    (lambda: cohomology_dims(_D13, 1, 1), "cohomology_dims requires all-ones weights"),
    (lambda: ad_exp(_PI, _PI, 3), "exponent must be a vector field"),
    (lambda: mc_equivalence(FilteredJet(_PI, 3), FilteredJet(_PI * 2, 3), 3),
     "gamma and gamma' must agree in grade 1"),
    (lambda: preset("so4"), "unknown preset 'so4'"),
], ids=["solve-rhs-count", "index-tuple-length", "check-nvars", "check-weights",
        "add-degrees", "json-repeated-indices", "apply-function-count", "dilate-zero",
        "check_poisson-vector", "sharp-vector", "poisson_bracket-vector", "sharp-form-length",
        "casimirs-not-poisson", "cohomology-not-poisson", "cohomology-weights",
        "ad_exp-bivector-exponent", "mc-grade-1", "preset-unknown"])
def test_bad_input_is_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_a_jet_of_another_order_is_truncated_again():
    cubic = _PI + PolyMVF(3, 2, {(1, 2): Poly(3, {(0, 0, 3): 1})})
    jet = _as_jet(FilteredJet(cubic, 4), 2)
    assert jet.D == 2
    assert jet.value == truncate_jet(cubic, 2) == _PI
