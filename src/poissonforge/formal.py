"""Filtered graded Lie algebra engine for formal normal forms.

Everything here lives in a grade-D truncation of the algebra of polynomial
multivector fields: the order function of the jet filtration, adjoint
exponentials, the Dynkin form of the Campbell-Hausdorff product, homotopy
operators realized as exact linear solves against [pi_lin, .], the recursive
gauge-equivalence iteration for Maurer-Cartan elements, step-wise jet
prolongation, and the formal linearization pipeline built from the above.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .polyalg import Poly, _as_int, _Rows, solve_linear_exact
from .multivector import GradedPiece, PolyMVF, _grade, grade_component, schouten, truncate_jet
from .poisson import _bracket_rows, check_poisson, graded_basis

__all__ = [
    "FilteredJet",
    "GaugeSolution",
    "HomotopyResult",
    "order_of",
    "ad_exp",
    "bch",
    "homotopy_solve",
    "mc_equivalence",
    "prolong_step",
    "formal_linearize",
]


@dataclass(frozen=True)
class FilteredJet:
    """A multivector field truncated so all graded pieces have grade <= D."""

    value: PolyMVF
    D: int

    def __post_init__(self):
        object.__setattr__(self, "D", _as_int(self.D, "jet order D", 0))
        object.__setattr__(self, "value", truncate_jet(self.value, self.D))

    @staticmethod
    def _raw(value: PolyMVF, D: int) -> "FilteredJet":
        """Wrap ``value``, trusted to have no piece above grade ``D``, untruncated."""
        out = object.__new__(FilteredJet)
        object.__setattr__(out, "value", value)
        object.__setattr__(out, "D", D)
        return out

    @property
    def order(self):
        return order_of(self)


def _as_jet(u, D: int) -> FilteredJet:
    if isinstance(u, FilteredJet):
        if u.D != D:
            return FilteredJet(u.value, D)
        return u
    return FilteredJet(u, D)


def order_of(u):
    """(min grade with a nonzero piece) - 1, or math.inf for zero."""
    value = u.value if isinstance(u, FilteredJet) else u
    g = value.min_grade()
    return math.inf if g is None else g - 1


def ad_exp(X, u, D: int) -> FilteredJet:
    """Ad(e^X)u = sum_n ad_X^n(u)/n! in the grade-D truncation."""
    D = _as_int(D, "jet order D", 0)
    X = _as_jet(X, D)
    u = _as_jet(u, D)
    if X.value.grade not in (1,) and not X.value.is_zero():
        raise ValueError("exponent must be a vector field")
    if order_of(X) < 1:
        raise ValueError("ad_exp needs order >= 1 (grade >= 2) exponent")
    acc = u.value
    term = u.value
    n = 0
    while not term.is_zero():
        n += 1
        term = schouten(X.value, term, max_grade=D) * Fraction(1, n)
        acc = acc + term
        if n > 4 * D + 8:  # nilpotency guarantees termination well before this
            raise RuntimeError("ad_exp series failed to terminate")
    return FilteredJet._raw(acc, D)  # u and every bracket bounded by D


def _dynkin_words(budget: int, ox: int, oy: int, k: int):
    """Words ((l1,m1),...,(lk,mk)) with l_i+m_i >= 1, m_k >= 1 and
    ox*(l1+...+lk) + oy*(m1+...+mk) <= budget."""
    if k == 0:
        yield ()
        return
    m_min = 1 if k == 1 else 0      # the innermost block needs an ad_Y
    for l in range(budget // ox + 1):
        for m in range(m_min, (budget - ox * l) // oy + 1):
            if l + m == 0:
                continue
            for rest in _dynkin_words(budget - ox * l - oy * m, ox, oy, k - 1):
                yield ((l, m),) + rest


def bch(X, Y, D: int) -> FilteredJet:
    """Campbell-Hausdorff product X*Y with ad_exp(X*Y) = ad_exp(X) ad_exp(Y).

    Dynkin-type expansion
        X*Y = X + Y + sum_{k>=1} (-1)^k/(k+1) *
              sum 1/((sum l_i)+1) * prod 1/(l_i! m_i!) *
              ad_X^{l1} ad_Y^{m1} ... ad_X^{lk} ad_Y^{mk} (X),
    finite here because every ad raises the order past D eventually.

    Words that vanish in the grade-D truncation are skipped before any
    bracket is formed, so the sum is exact:
    - orders add under the bracket, so a word has order at least
      o(X)*(1 + sum l_i) + o(Y)*sum m_i and vanishes once that exceeds D-1;
    - a word whose innermost block is ad_X^l X with l >= 1 (m_k = 0) is 0.
    Zero arguments are returned as they are: X*0 = X and 0*Y = Y.
    """
    D = _as_int(D, "jet order D", 0)
    X = _as_jet(X, D)
    Y = _as_jet(Y, D)
    ox, oy = order_of(X), order_of(Y)
    if min(ox, oy) < 1:
        raise ValueError("bch needs arguments of order >= 1")
    if X.value.is_zero():
        return Y
    if Y.value.is_zero():
        return X
    budget = D - 1 - ox      # order left for the ad operators around X
    total = X.value + Y.value
    # each block costs at least min(ox, oy) of the budget
    for k in range(1, max(0, budget) // min(ox, oy) + 1):
        coeff_k = Fraction((-1) ** k, k + 1)
        for blocks in _dynkin_words(budget, ox, oy, k):
            suml = sum(l for l, _ in blocks)
            denom = (suml + 1) * math.prod(
                math.factorial(l) * math.factorial(m) for l, m in blocks)
            term = X.value
            for l, m in reversed(blocks):
                for _ in range(m):
                    term = schouten(Y.value, term, max_grade=D)
                for _ in range(l):
                    term = schouten(X.value, term, max_grade=D)
                if term.is_zero():
                    break
            else:
                total = total + term * (coeff_k * Fraction(1, denom))
    return FilteredJet._raw(total, D)  # X, Y and every bracket bounded by D


# ---------------------------------------------------------------------------
# Homotopy operators: exact solves against d = [pi_lin, .]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomotopyResult:
    status: str                 # "solved" | "obstructed"
    X: GradedPiece | None       # vector field with [pi_lin, X] = Z, when solved
    obstruction: GradedPiece | None
    certificate: list | None    # infeasibility witness of the exact solve


def _solve_bracket_equation(pi: PolyMVF, rhs: PolyMVF, unknown_basis,
                            restrict_grade: int | None = None):
    """Solve [pi, sum c_b b] = rhs exactly over the given monomial basis.

    With restrict_grade set, only the components of the bracket with grade
    <= restrict_grade are constrained (higher grades are left free): the
    rows above it are never formed.  The integer rows of ``bracket_rows``
    are the matrix times pi's denominator ``den``, so the right-hand side
    is multiplied by ``den`` too, and so is the witness of that scaled
    system, which makes it the witness of the equation as given.
    """
    den, rows = _bracket_rows(pi, unknown_basis, True, restrict_grade)
    keys = set(rows)
    for lg, poly in rhs.terms.items():
        keys.update((lg, e) for e in poly.terms)
    keys = sorted(keys)
    A = _Rows(rows.get(key, {}) for key in keys)
    b_vec = []
    for lg, e in keys:
        poly = rhs.terms.get(lg)
        c = poly.terms.get(e, 0) * den if poly else 0
        # an integral value as an int keeps the row [A | b] all-int for _rref
        b_vec.append(c.numerator if c.denominator == 1 else c)
    out = solve_linear_exact(A, b_vec, ncols=len(unknown_basis))
    if not out.feasible:
        return None, [w * den for w in out.witness]
    monos: dict[tuple, dict] = {}
    for (legs, exps), c in zip(unknown_basis, out.particular):
        if c:
            monos.setdefault(legs, {})[exps] = c
    terms = {legs: Poly._raw(pi.nvars, m) for legs, m in monos.items()}
    grade = len(unknown_basis[0][0]) if unknown_basis else 0
    return PolyMVF._raw(pi.nvars, grade, terms, pi.weights), None


def homotopy_solve(pi_lin: PolyMVF, Z: GradedPiece, base_degree_cap: int = 8) -> HomotopyResult:
    """Find a grade-q vector field X with [pi_lin, X] = Z (exact), or certify failure."""
    base_degree_cap = _as_int(base_degree_cap, "base_degree_cap", 0)
    if Z.value.is_zero():
        zero = GradedPiece(Z.l, PolyMVF.zero(pi_lin.nvars, 1, pi_lin.weights))
        return HomotopyResult("solved", zero, None, None)
    if Z.value.grade != 2:
        raise ValueError("right-hand side must be a bivector")
    dZ = schouten(pi_lin, Z.value)
    if not dZ.is_zero():
        raise ValueError("right-hand side is not a cocycle: [pi_lin, Z] != 0")
    n = pi_lin.nvars
    basis = graded_basis(n, 1, Z.l, pi_lin.weights, base_degree_cap)
    sol, witness = _solve_bracket_equation(pi_lin, Z.value, basis)
    if sol is None:
        return HomotopyResult("obstructed", None, Z, witness)
    return HomotopyResult("solved", GradedPiece(Z.l, sol), None, None)


# ---------------------------------------------------------------------------
# Maurer-Cartan gauge equivalence and linearization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugeSolution:
    status: str                  # "equivalent" | "obstructed"
    X: FilteredJet | None = None
    rounds: int = 0
    degree: int | None = None
    cochain: GradedPiece | None = None
    certificate: list | None = None
    base_degree_cap: int | None = None

    def to_json_obj(self) -> dict:
        if self.status == "equivalent":
            return {"status": "equivalent", "X": self.X.value.to_json_obj(),
                    "rounds": self.rounds}
        return {"status": "obstructed", "degree": self.degree,
                "cochain": self.cochain.value.to_json_obj(),
                "base_degree_cap": self.base_degree_cap}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def _check_mc(gamma: FilteredJet, name: str):
    br = schouten(gamma.value, gamma.value, max_grade=gamma.D)
    if not br.is_zero():
        raise ValueError(f"{name} is not Maurer-Cartan mod grade {gamma.D}: "
                         f"[{name},{name}] has grade-{br.min_grade()} defect")


def mc_equivalence(gamma: FilteredJet, gamma_p: FilteredJet, D: int,
                   base_degree_cap: int = 8) -> GaugeSolution:
    """Gauge-equivalence of two MC bivectors agreeing to first order.

    Runs the recursion X_k = h(gamma_{k-1} - gamma), gamma_k = Ad(e^{X_k})
    gamma_{k-1}, composing the X_k with the Campbell-Hausdorff product.

    Composition stays although X_k has strictly higher order than the gauge
    so far.  Adding X_k instead drops the bracket terms of the product, such
    as [X_k, X_total]/2, which shifts the right-hand side of a later round
    (grade 4 at D = 4) and with it the RREF gauge field solved there, so the
    returned X (and the CLI output) would change.  With the pruned Dynkin
    sum, bch(X_k, X_total) costs at most one bracket once o(X_k) >= 2.
    """
    base_degree_cap = _as_int(base_degree_cap, "base_degree_cap", 0)
    D = _as_int(D, "jet order D", 0)
    gamma = _as_jet(gamma, D)
    gamma_p = _as_jet(gamma_p, D)
    _check_mc(gamma, "gamma")
    _check_mc(gamma_p, "gamma'")
    # a difference of two D-jets is a D-jet: each round's is formed once
    diff = gamma_p.value - gamma.value
    if order_of(diff) < 1:
        raise ValueError("gamma and gamma' must agree in grade 1")
    pi_lin = grade_component(gamma.value, 1).value
    current = gamma_p
    X_total = None
    rounds = 0
    while not diff.is_zero():
        q = diff.min_grade()
        rounds += 1
        if rounds > D + 1:
            raise RuntimeError("gauge iteration failed to make progress")
        Z = grade_component(diff, q)
        res = homotopy_solve(pi_lin, Z, base_degree_cap)
        if res.status == "obstructed":
            return GaugeSolution("obstructed", degree=q, cochain=Z,
                                 certificate=res.certificate,
                                 base_degree_cap=base_degree_cap)
        # Ad(e^X) cancels Z at leading order: [X, pi_lin] = -[pi_lin, X] = -Z
        Xk = FilteredJet._raw(res.X.value, D)  # grade q of a D-jet's piece
        current = ad_exp(Xk, current, D)
        diff = current.value - gamma.value
        if not order_of(diff) > q - 1:
            raise RuntimeError("gauge round did not raise the order")
        X_total = Xk if X_total is None else bch(Xk, X_total, D)
    if X_total is None:
        X_total = FilteredJet(PolyMVF.zero(gamma.value.nvars, 1, gamma.value.weights), D)
    if ad_exp(X_total, gamma_p, D).value != gamma.value:
        raise RuntimeError("composed gauge element failed re-verification")
    return GaugeSolution("equivalent", X=X_total, rounds=rounds,
                         base_degree_cap=base_degree_cap)


@dataclass(frozen=True)
class ProlongResult:
    status: str                 # "solved" | "obstructed"
    eta: PolyMVF | None         # bivector correction, when solved
    obstruction: GradedPiece | None
    certificate: list | None


def prolong_step(pi_partial: FilteredJet, m: int, base_degree_cap: int = 8) -> ProlongResult:
    """One jet-extension step: correct pi so its Jacobiator vanishes in grade m.

    Solves [pi, eta]_m = -1/2 [pi,pi]_m for a bivector correction eta and
    returns it, or the obstruction cochain with an infeasibility certificate.
    The correction may span several dilation grades when weighted variables
    spread pi itself over several grades.
    """
    base_degree_cap = _as_int(base_degree_cap, "base_degree_cap", 0)
    m = _as_int(m, "grade m", 0)
    pi = pi_partial.value if isinstance(pi_partial, FilteredJet) else pi_partial
    if pi.grade != 2:
        raise ValueError("expected a bivector")
    # a grade-0 part brackets the grade-(m+1) part, which the m-jet drops, into grade m
    if 0 in pi._grades():
        raise ValueError("pi must vanish at the origin (no grade-0 part)")
    jac = schouten(pi, pi, max_grade=m)
    if not jac.is_zero() and jac.min_grade() < m:
        raise ValueError(f"Jacobiator already fails below grade {m} "
                         f"(at grade {jac.min_grade()})")
    rhs_piece = grade_component(jac, m)
    if rhs_piece.value.is_zero():
        return ProlongResult("solved", PolyMVF.zero(pi.nvars, 2, pi.weights),
                             None, None)
    rhs = rhs_piece.value * Fraction(-1, 2)
    eta_grades = sorted({m + 1 - g for g in pi._grades() if m + 1 - g >= 1})
    # the given data is pi's jet in the fiber-ideal filtration: corrections
    # may only carry strictly higher fiber degree (the grade of x^exps as a
    # function), so they leave it untouched
    fiber_floor = 1 + max(_grade(pi.weights, (), exps)
                          for poly in pi.terms.values() for exps in poly.terms)
    basis = [(legs, exps) for g in eta_grades
             for legs, exps in graded_basis(pi.nvars, 2, g, pi.weights, base_degree_cap)
             if _grade(pi.weights, (), exps) >= fiber_floor]
    sol, witness = _solve_bracket_equation(pi, rhs, basis, restrict_grade=m)
    if sol is None:
        return ProlongResult("obstructed", None, rhs_piece, witness)
    corrected = pi + sol
    jac2 = schouten(corrected, corrected, max_grade=m)
    if not jac2.is_zero() and jac2.min_grade() <= m:
        return ProlongResult("obstructed", None, rhs_piece, None)
    return ProlongResult("solved", sol, None, None)


def formal_linearize(pi: PolyMVF, D: int, base_degree_cap: int = 8) -> GaugeSolution:
    """Gauge pi's D-jet to its linear part, or report the obstruction."""
    if 0 in pi._grades():
        raise ValueError("pi must vanish at the origin (no grade-0 part)")
    pi_lin = grade_component(pi, 1).value
    if not check_poisson(pi_lin).is_poisson:
        raise ValueError("linear part of pi is not Poisson")
    gamma = FilteredJet(pi, D)
    gamma_p = FilteredJet(pi_lin, D)
    return mc_equivalence(gamma, gamma_p, D, base_degree_cap)
