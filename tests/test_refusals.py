"""Refusals of bad input that no other test or benchmark case reaches.

Each case calls one public function, or a CLI verb, on an input it must
refuse and checks the ``ValueError`` and its message, or the exit code 2 and
the one ``error:`` line, so a refusal cannot turn silently into a
reinterpretation.
"""

import json
import math
import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from poissonforge import (FilteredJet, GradedPiece, LieAlgebraSpec, Poly, PolyMVF, ad_exp, bch,
                          casimir_basis, check_poisson, cli, coadjoint_invariance_check,
                          cohomology_dims, dilate, exact_rank, formal, grade_component,
                          hamiltonian_vf, homotopy_solve, linear_poisson, mc_equivalence,
                          poisson_bracket, preset, prolong_step, schouten, sharp,
                          solve_linear_exact, su3_invariants, truncate_jet, weyl_circle_sample)
from poissonforge.formal import _as_jet
from poissonforge.multivector import MAX_NVARS
from poissonforge.polyalg import parse_poly
from poissonforge.realize import (FlowBlowupError, SprayField, dh_variation, flow_with_jacobian,
                                  sphere_leaf_form, verify_realization)

_PI = linear_poisson(preset("so3"))
_ZERO_PI = PolyMVF.zero(3, 2)  # sharp must check each coefficient even where pi is zero
_X1 = PolyMVF(3, 1, {(1,): Poly.variable(3, 2)})                     # x2 d1, a vector field
_F = Poly.variable(3, 1)
_NOT_POISSON = PolyMVF(3, 2, {(1, 2): Poly.variable(3, 3), (1, 3): Poly.variable(3, 1)})
_D13 = PolyMVF(3, 2, {(1, 3): Poly.constant(3, 1)}, (0, 0, 1))      # grade 1 by its weights
_X11 = PolyMVF(3, 1, {(1,): Poly(3, {(2, 0, 0): 1})})                 # x1^2 d1
# x2^3 d1^d2 on the plane: from x2 = 1, y1 = 3 the flow leaves numeric range before t = 1
_BLOWUP_SPRAY = SprayField(PolyMVF(2, 2, {(1, 2): parse_poly("x2^3", 2)}))
# a 1-jet read as a 3-jet would lose its x3^2 d1^d2 term: ad_exp must not answer for it
_PI_1JET = FilteredJet(_PI + PolyMVF(3, 2, {(1, 2): Poly(3, {(0, 0, 2): 1})}), 1)
# the 2-jet of demos/jet_prolongation.py: its grade-3 correction is -x1*x2*x3 d1^d2,
# which a 0- or 1-jet of it cannot see
_TWO_JET = PolyMVF(3, 2, {(1, 2): parse_poly("-x1*x3 - x2*x3 + x3", 3),
                          (1, 3): parse_poly("-x1^2 - x1*x2 + x2^2 - x2", 3),
                          (2, 3): parse_poly("-x1^2 + x1*x2 + x2^2 + x1", 3)})
# [pi, x1*x2 d1] read with weights (1, 0, 1): its grade-2 piece lies in the image of
# [pi, .] on all-ones weights, so it must be refused before it is solved
_Z_REWEIGHTED = grade_component(schouten(_PI, PolyMVF(3, 1, {(1,): parse_poly("x1*x2", 3)}))
                                .with_weights((1, 0, 1)), 2)
# gamma' = (1 + 2 x1 - x2) d1^d2 and gamma = Ad(e^X) gamma' for the Hamiltonian field X
# of a cubic-plus-quartic h on the plane: the first gauge round leaves [X_q, d1^d2]
# one grade below the order it solved, which no later round can remove
_GAMMA_P = PolyMVF(2, 2, {(1, 2): parse_poly("1 + 2*x1 - x2", 2)})
_GAMMA = ad_exp(hamiltonian_vf(PolyMVF(2, 2, {(1, 2): Poly.constant(2, 1)}),
                               parse_poly("x1^3 + x1*x2^2 + x2^4", 2)), _GAMMA_P, 4)


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
    (lambda: sharp(_PI, 2.0), "'dx_i in 1..3' must be an integer, got 2.0"),
    (lambda: casimir_basis(_NOT_POISSON, 1), "bivector is not Poisson; Casimirs undefined"),
    (lambda: cohomology_dims(_NOT_POISSON, 1, 1), "bivector is not Poisson"),
    (lambda: cohomology_dims(_D13, 1, 1), "cohomology_dims requires all-ones weights"),
    (lambda: ad_exp(_PI, _PI, 3), "exponent must be a vector field"),
    (lambda: mc_equivalence(FilteredJet(_PI, 3), FilteredJet(_PI * 2, 3), 3),
     "gamma and gamma' must agree in grade 1"),
    (lambda: ad_exp(_X11, _PI_1JET, 3), "a jet of order 1 cannot stand for one of order 3"),
    (lambda: mc_equivalence(FilteredJet(_PI, 2), FilteredJet(_PI, 3), 3),
     "a jet of order 2 cannot stand for one of order 3"),
    (lambda: prolong_step(FilteredJet(_TWO_JET, 0), 3),
     "a jet of order 0 cannot give the grade-3 Jacobiator"),
    (lambda: prolong_step(FilteredJet(_TWO_JET, 1), 3),
     "a jet of order 1 cannot give the grade-3 Jacobiator"),
    (lambda: preset("so4"), "unknown preset 'so4'"),
    (lambda: cohomology_dims(_X1, 1, 1), "expected a bivector, got degree 1"),
    (lambda: prolong_step(FilteredJet(_X1, 2), 3), "expected a bivector, got degree 1"),
    (lambda: SprayField(_X1), "expected a bivector, got degree 1"),
    (lambda: _X1.bivector_matrix(np.zeros(3)), "expected a bivector, got degree 1"),
    (lambda: ad_exp(_X1, _PI, 3), "ad_exp needs order >= 1 (grade >= 2) exponent"),
    (lambda: bch(_X1, _X11, 3), "bch needs arguments of order >= 1"),
    (lambda: homotopy_solve(_PI, GradedPiece(2, _X11)), "right-hand side must be a bivector"),
    (lambda: homotopy_solve(_PI, _Z_REWEIGHTED), "weight vector mismatch"),
    (lambda: homotopy_solve(_PI, GradedPiece(1, PolyMVF.zero(2, 2))), "variable count mismatch"),
    (lambda: homotopy_solve(_PI, GradedPiece(2, PolyMVF.zero(3, 1))),
     "right-hand side must be a bivector"),
    (lambda: homotopy_solve(_PI, GradedPiece(2, PolyMVF.zero(3, 3))),
     "right-hand side must be a bivector"),
    (lambda: sharp(_PI, "123"), "'1-form alpha' must be a sequence, got '123'"),
    (lambda: sharp(_PI, {1: 1, 2: 0, 3: 0}),
     "'1-form alpha' must be a sequence, got {1: 1, 2: 0, 3: 0}"),
    (lambda: solve_linear_exact(["12", "34"], [5, 6]), "'dense row' must be a sequence, got '12'"),
    (lambda: solve_linear_exact([[1, 2], [3, 4]], "56"),
     "'b' must be a sequence, got '56'"),
    (lambda: solve_linear_exact([[1, 2], [3, 4]], {0: 5, 1: 6}),
     "'b' must be a sequence, got {0: 5, 1: 6}"),
    (lambda: exact_rank(["12", "34"]), "'dense row' must be a sequence, got '12'"),
    (lambda: exact_rank({(1, 2): 0, (3, 4): 0}), "'A' must be a sequence, got {(1, 2): 0,"),
    (lambda: exact_rank(5), "'A' must be a sequence, got 5"),
    (lambda: solve_linear_exact([[1]], 5), "'b' must be a sequence, got 5"),
    (lambda: exact_rank([[1, 2], 5]), "'dense row' must be a sequence, got 5"),
    (lambda: solve_linear_exact([[1, 2], 5], [1, 2]), "'dense row' must be a sequence, got 5"),
    (lambda: Poly.variable(3, 4), "variable index 4 out of range 1..3"),
    (lambda: _F + Poly.variable(2, 1), "variable count mismatch: 3 vs 2"),
    (lambda: coadjoint_invariance_check(preset("so3"), Poly.variable(2, 1), 1, 0),
     "polynomial variable count must match the algebra dimension"),
    (lambda: flow_with_jacobian(_BLOWUP_SPRAY, np.array([0.0, 1.0, 3.0, 0.0]), 1.0, 400),
     "spray flow left numeric range near t = "),
    (lambda: mc_equivalence(_GAMMA, FilteredJet(_GAMMA_P, 4), 4),
     "gamma' has a grade-0 part <PolyMVF deg=2 (1) d1^d2>"),
    (lambda: PolyMVF(10**30, 2), f"'nvars' must be at most {MAX_NVARS}, got {10**30}"),
    (lambda: LieAlgebraSpec(10**30), f"'dim' must be at most {MAX_NVARS}, got {10**30}"),
    (lambda: PolyMVF.from_json_obj({"nvars": 3, "grade": 2, "terms": ""}),
     "'terms' must be a JSON list, got ''"),
    (lambda: PolyMVF.from_json_obj({"nvars": 3, "grade": 2, "terms": {}}),
     "'terms' must be a JSON list, got {}"),
    (lambda: PolyMVF.from_json_obj({"nvars": 3, "grade": 2, "terms": [5]}),
     "each entry of 'terms' must be a JSON object, got 5"),
    (lambda: LieAlgebraSpec.from_json_obj({"dim": 3, "C": {}}), "'C' must be a JSON list, got {}"),
    (lambda: LieAlgebraSpec.from_json_obj({"dim": 3, "C": [[1, 2, 3]]}),
     "each entry of 'C' must be a JSON object, got [1, 2, 3]"),
    (lambda: PolyMVF(2, 1, {(1,): 3}), "coefficient of (1,) must be a Poly, got 3"),
    (lambda: PolyMVF.from_function(3), "function must be a Poly, got 3"),
    (lambda: hamiltonian_vf(_PI, 3), "function must be a Poly, got 3"),
    (lambda: _PI.apply_to_functions([3, _F]), "function must be a Poly, got 3"),
    (lambda: hamiltonian_vf(_PI, Poly.variable(2, 1)), "variable count mismatch"),
    (lambda: sharp(_PI, [Poly.variable(2, 1), 0, 0]), "variable count mismatch"),
    (lambda: sharp(_ZERO_PI, [Poly.variable(2, 1), 0, 0]), "variable count mismatch"),
], ids=["solve-rhs-count", "index-tuple-length", "check-nvars", "check-weights",
        "add-degrees", "json-repeated-indices", "apply-function-count", "dilate-zero",
        "check_poisson-vector", "sharp-vector", "poisson_bracket-vector", "sharp-form-length",
        "sharp-float-index",
        "casimirs-not-poisson", "cohomology-not-poisson", "cohomology-weights",
        "ad_exp-bivector-exponent", "mc-grade-1", "ad_exp-lower-order-jet",
        "mc-lower-order-jet", "prolong-0-jet-grade-3", "prolong-1-jet-grade-3",
        "preset-unknown", "cohomology-vector", "prolong-vector", "spray-vector",
        "bivector_matrix-vector", "ad_exp-order-0-exponent",
        "bch-order-0-argument", "homotopy-vector-rhs", "homotopy-weights",
        "homotopy-zero-nvars", "homotopy-zero-vector-rhs", "homotopy-zero-trivector-rhs",
        "sharp-string-form", "sharp-mapping-form", "solve-string-rows", "solve-string-rhs",
        "solve-mapping-rhs", "rank-string-rows", "rank-mapping-matrix", "rank-int-matrix",
        "solve-int-rhs", "rank-int-row", "solve-int-row", "poly-variable-index",
        "poly-nvars-mismatch", "coadjoint-nvars", "flow-blowup", "mc-grade-0-part",
        "field-nvars-huge", "spec-dim-huge", "json-terms-string", "json-terms-object",
        "json-terms-entry", "json-C-object", "json-C-entry", "field-int-coefficient",
        "function-int", "hamiltonian-int", "apply-int-function", "hamiltonian-nvars",
        "sharp-coefficient-nvars", "zero-sharp-coefficient-nvars"])
def test_bad_input_is_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


_BI_1 = PolyMVF(3, 2, {(1, 2): parse_poly("x1^2", 3)})             # bivectors of order 1
_BI_2 = PolyMVF(3, 2, {(1, 3): parse_poly("x2^2 + x3^3", 3)})
_FN = PolyMVF.from_function(parse_poly("x1^2 + x2^3", 3))          # a function of order 1


@pytest.mark.parametrize("X, Y, D", [(_BI_1, _BI_2, 2), (_FN, _FN, 5), (_X11, _BI_1, 4)],
                         ids=["bivectors", "functions", "vector-field-and-bivector"])
def test_bch_refuses_all_but_vector_fields(X, Y, D):
    # bch returned P + Q for the bivectors and 2f for the function, as if they
    # composed, and failed in a sum of the vector field and the bivector
    with mock.patch.object(formal, "schouten", wraps=formal.schouten) as bracket, \
            pytest.raises(ValueError, match="^exponent must be a vector field$"):
        bch(X, Y, D)
    assert bracket.call_count == 0


@pytest.mark.parametrize("verb", ["check", "casimirs"])
@pytest.mark.parametrize("obj, field", [
    ({"nvars": 10**30, "grade": 2, "terms": []}, "nvars"),
    ({"dim": 10**30, "C": []}, "dim"),
], ids=["nvars", "dim"])
def test_a_huge_size_exits_2_naming_its_field(tmp_path, capsys, obj, field, verb):
    # read unbounded, 10^30 overflowed an index (a traceback and exit 1), and
    # 10^8 variables allocated memory until the host ran out
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert cli.main([verb, str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {field!r} must be at most {MAX_NVARS}, got {10**30}\n"


@pytest.mark.parametrize("content, reason", [
    (b'{"nvars": ' + b"9" * 5000 + b', "grade": 2, "terms": []}',
     "an integer of 5000 digits, above the 4300-digit limit"),
    (b'\xff{"dim": 3}', "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["integer-of-5000-digits", "not-utf-8"])
def test_unreadable_json_exits_2_naming_its_file(tmp_path, capsys, content, reason):
    # json.load raised a bare ValueError here, and the error line named no file;
    # an over-long integer's line then ended in advice to call
    # sys.set_int_max_str_digits(), which a CLI user cannot do
    path = tmp_path / "input.json"
    path.write_bytes(content)
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: unreadable JSON: {reason}\n"


@pytest.mark.parametrize("index", [np.int64(2), np.uint8(2)], ids=["numpy-int64", "numpy-uint8"])
def test_covector_index_takes_any_integer(index):
    # a NumPy integer names dx_2 as the int 2 does, not a 1-form to iterate
    assert sharp(_PI, index) == sharp(_PI, 2)


def test_a_jet_of_another_order_is_truncated_again():
    cubic = _PI + PolyMVF(3, 2, {(1, 2): Poly(3, {(0, 0, 3): 1})})
    jet = _as_jet(FilteredJet(cubic, 4), 2)
    assert jet.D == 2
    assert jet.value == truncate_jet(cubic, 2) == _PI


_P = Poly(3, {(1, 0, 0): 2, (0, 1, 1): Fraction(-1, 3)})


@pytest.mark.parametrize("call", [
    lambda: _P * 0.5, lambda: 0.5 * _P, lambda: _P + 0.5, lambda: 0.5 + _P,
    lambda: _P - 0.5, lambda: 0.5 - _P, lambda: _P * True, lambda: _P + True,
    lambda: _PI * 0.5, lambda: 0.5 * _PI, lambda: _PI * True, lambda: _PI + 0.5,
    lambda: sharp(_PI, [2.5, 0, 0]), lambda: sharp(_ZERO_PI, [2.5, 0, 0]),
    lambda: sharp(_ZERO_PI, [0, True, 0]),
], ids=["poly*float", "float*poly", "poly+float", "float+poly", "poly-float", "float-poly",
        "poly*bool", "poly+bool", "field*float", "float*field", "field*bool", "field+float",
        "sharp-float-coefficient", "zero-sharp-float-coefficient", "zero-sharp-bool-coefficient"])
def test_inexact_scalars_raise_type_error(call):
    # a float is not read as the rational it rounds to, nor a bool as 0 or 1
    with pytest.raises(TypeError):
        call()


def test_rational_strings_are_exact_scalars():
    half = Fraction(1, 2)
    assert _P * "1/2" == _P * half == "1/2" * _P
    assert _P + "1/2" == _P + half and _P - "1/2" == _P - half
    assert _PI * "1/2" == _PI * half
    assert (_PI * "-2/3").terms[(1, 2)] == _PI.terms[(1, 2)] * Fraction(-2, 3)


_SPRAY = SprayField(_PI)
_XI = np.array([0.1, 0.0, 0.0, 0.0, 0.1, 0.0])


@pytest.mark.parametrize("call, message", [
    (lambda: verify_realization(_PI, 2, True, 1, 10), "'radius' must be a finite real number, got True"),
    (lambda: verify_realization(_PI, 2, math.nan, 1, 10), "'radius' must be a finite real number, got nan"),
    (lambda: verify_realization(_PI, 2, "0.1", 1, 10), "'radius' must be a finite real number, got '0.1'"),
    (lambda: verify_realization(_PI, 2, 0.1j, 1, 10), "'radius' must be a finite real number, got 0.1j"),
    (lambda: verify_realization(_PI, 2, 0.0, 1, 10), "'radius' must be > 0, got 0.0"),
    (lambda: flow_with_jacobian(_SPRAY, _XI, True, 10), "'t_final' must be a finite real number, got True"),
    (lambda: flow_with_jacobian(_SPRAY, _XI, np.True_, 10), "'t_final' must be a finite real number, got"),
    (lambda: flow_with_jacobian(_SPRAY, _XI, math.nan, 10), "'t_final' must be a finite real number, got nan"),
    (lambda: flow_with_jacobian(_SPRAY, _XI, math.inf, 10), "'t_final' must be a finite real number, got inf"),
    (lambda: flow_with_jacobian(_SPRAY, _XI, -math.inf, 10), "'t_final' must be a finite real number, got -inf"),
    (lambda: flow_with_jacobian(_SPRAY, _XI, 10**400, 10), "'t_final' must be a finite real number, got 1000"),
    (lambda: flow_with_jacobian(_SPRAY, _XI, None, 10), "'t_final' must be a finite real number, got None"),
    (lambda: dh_variation(True, 1e-5), "'radius r' must be a finite real number, got True"),
    (lambda: dh_variation(1.0, False), "'step h' must be a finite real number, got False"),
    (lambda: dh_variation(0.0, 1e-5), "'radius r' must be > 0, got 0.0"),
    (lambda: weyl_circle_sample(True, 0.0), "'radius r' must be a finite real number, got True"),
    (lambda: weyl_circle_sample(1.0, math.nan), "'theta' must be a finite real number, got nan"),
    (lambda: weyl_circle_sample(1.0, math.inf), "'theta' must be a finite real number, got inf"),
    (lambda: sphere_leaf_form(_PI, True), "'radius r' must be a finite real number, got True"),
    (lambda: sphere_leaf_form(_PI, math.nan), "'radius r' must be a finite real number, got nan"),
    (lambda: sphere_leaf_form(_PI, 0.0), "'radius r' must be > 0, got 0.0"),
    (lambda: sphere_leaf_form(_PI, -1.0), "'radius r' must be > 0, got -1.0"),
    (lambda: sphere_leaf_form(_PI, 1.0, scale=math.nan), "'scale' must be a finite real number, got nan"),
    (lambda: sphere_leaf_form(_PI, 1.0, scale=True), "'scale' must be a finite real number, got True"),
    (lambda: sphere_leaf_form(_PI, 1.0, scale=0.0), "'scale' must be nonzero"),
    (lambda: sphere_leaf_form(PolyMVF(2, 2, {(1, 2): Poly.variable(2, 1)}), 1.0),
     "sphere leaves require a bivector on R^3"),
    (lambda: su3_invariants([1.0] * 7 + [math.nan]), "'xi' must have finite entries"),
    (lambda: su3_invariants([math.inf] + [0.0] * 7), "'xi' must have finite entries"),
    (lambda: su3_invariants([True] * 8), "'xi' must have real entries, got [True, True"),
    (lambda: su3_invariants([True] + [0.5] * 7), "'xi' must have real entries, got [True, 0.5"),
    (lambda: su3_invariants(np.array(["1.0"] * 8)), "'xi' must have real entries, got ['1.0'"),
], ids=["verify-radius-bool", "verify-radius-nan", "verify-radius-str", "verify-radius-complex",
        "verify-radius-zero", "flow-t-bool", "flow-t-numpy-bool", "flow-t-nan", "flow-t-inf",
        "flow-t-minus-inf", "flow-t-past-float-range", "flow-t-none", "dh-radius-bool",
        "dh-step-bool", "dh-radius-zero", "weyl-radius-bool", "weyl-theta-nan", "weyl-theta-inf",
        "leaf-radius-bool", "leaf-radius-nan", "leaf-radius-zero", "leaf-radius-negative",
        "leaf-scale-nan", "leaf-scale-bool", "leaf-scale-zero", "leaf-nvars", "su3-xi-nan", "su3-xi-inf",
        "su3-xi-bool", "su3-xi-bool-among-floats", "su3-xi-numeric-strings"])
def test_bad_float_arguments_are_refused(call, message):
    # a bool is not read as 0 or 1, and a NaN or infinity is named as the
    # argument it came in, not reported as a blow-up of the flow
    with pytest.raises(ValueError, match=re.escape(message)) as refusal:
        call()
    assert not isinstance(refusal.value, FlowBlowupError)


def test_real_arguments_are_read_as_floats():
    x, J = flow_with_jacobian(_SPRAY, _XI, 1.0, 10)
    for t in (1, Fraction(1), np.float64(1.0), np.int64(1)):
        x_t, J_t = flow_with_jacobian(_SPRAY, _XI, t, 10)
        assert np.array_equal(x_t, x) and np.array_equal(J_t, J)
    assert type(verify_realization(_PI, 2, Fraction(1, 10), 1, 10).radius) is float
