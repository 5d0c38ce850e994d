"""Filtered graded Lie algebra engine for formal normal forms.

Everything here lives in a grade-D truncation of the algebra of polynomial
multivector fields: the order function of the jet filtration, adjoint
exponentials, the Campbell-Hausdorff product as a Lie series, homotopy
operators realized as exact linear solves against [pi_lin, .], the recursive
gauge-equivalence iteration for Maurer-Cartan elements, step-wise jet
prolongation, and the formal linearization pipeline built from the above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import mul

from .polyalg import _as_int, _fraction_vector, _OnFirstRead, _Rows, solve_linear_exact
from .multivector import (GradedPiece, PolyMVF, _ad_series, _bracket_rows, _check_bivector,
                          _grade, grade_component, schouten, truncate_jet)
from .poisson import _graded_bases, check_poisson, graded_basis

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


def _as_jet(u, D: int) -> FilteredJet:
    """``u`` as a D-jet: a higher-order jet is truncated, a lower-order one refused."""
    if not isinstance(u, FilteredJet):
        return FilteredJet(u, D)
    if u.D < D:
        raise ValueError(f"a jet of order {u.D} cannot stand for one of order {D}: "
                         f"its grades {u.D + 1}..{D} are unknown")
    return u if u.D == D else FilteredJet(u.value, D)


def order_of(u):
    """(min grade with a nonzero piece) - 1, or math.inf for zero."""
    value = u.value if isinstance(u, FilteredJet) else u
    g = value.min_grade()
    return math.inf if g is None else g - 1


def ad_exp(X, u, D: int) -> FilteredJet:
    """Ad(e^X)u = sum_n ad_X^n(u)/n! in the grade-D truncation; X is read to grade
    D + 1 where u has a grade-0 part, which brackets that grade of X into grade D.
    The series runs in the Schouten kernel's packed form (``_ad_series``)."""
    D = _as_int(D, "jet order D", 0)
    u = _as_jet(u, D)
    X = _as_jet(X, D + 1 if 0 in u.value._grades() else D)
    _check_vector_field(X)
    if order_of(X) < 1:
        raise ValueError("ad_exp needs order >= 1 (grade >= 2) exponent")
    return FilteredJet._raw(_ad_series(X.value, u.value, D), D)


def _check_vector_field(V: FilteredJet) -> None:
    """An exponent of ``ad_exp`` or an argument of ``bch``: a vector field, or zero."""
    if V.value.grade != 1 and not V.value.is_zero():
        raise ValueError("exponent must be a vector field")


def _scaled(V: PolyMVF, num: int, den: int) -> PolyMVF:
    """V * num / den, scaled in integers: no ``Fraction`` is made."""
    return V._like({key: c * num for key, c in V._ints.items()}, V.den * den)


def bch(X, Y, D: int) -> FilteredJet:
    """Campbell-Hausdorff product X*Y with ad_exp(X*Y) = ad_exp(X) ad_exp(Y).

    X*Y = Z(1) for the Lie series Z(t) = sum_m t^m Z_m that starts at Z_0 = B
    and solves Z' = sum_n c_n ad_Z^n(A) (Varadarajan, Lie Groups, Lie Algebras,
    and Their Representations, 1984, 2.15).  A is the argument of larger order
    o_A (X on a tie) and B the other, of order o_B; c_n = B_n/n! for the
    Bernoulli numbers of z/(e^z - 1) when A is X, and of z/(1 - e^-z), with
    B_1 = +1/2, when A is Y.  With W_{n,m} = [t^m] ad_Z^n(A), so W_{0,m} =
    delta_m0 A and W_{n,m} = sum_{j<=m} [Z_j, W_{n-1,m-j}], the series is
    Z_{m+1} = sum_n c_n W_{n,m}/(m+1).  Orders add under the bracket, so Z_m
    has order >= m o_A and W_{n,m} order >= o_A + n o_B: m stops at
    (D-1)//o_A, n at N = (D-1-o_A)//o_B, and a bracket whose operands' orders
    sum past D - 1, zero in the grade-D truncation, is not formed.  The c_n
    are integers over one denominator, N! (N+1)!, so no ``Fraction`` is made.
    Zero arguments are returned as they are: X*0 = X and 0*Y = Y.
    """
    D = _as_int(D, "jet order D", 0)
    X = _as_jet(X, D)
    Y = _as_jet(Y, D)
    _check_vector_field(X)
    _check_vector_field(Y)
    ox, oy = order_of(X), order_of(Y)
    if min(ox, oy) < 1:
        raise ValueError("bch needs arguments of order >= 1")
    if X.value.is_zero():
        return Y
    if Y.value.is_zero():
        return X
    args = [(ox, X.value), (oy, Y.value)]
    (o_a, A), (o_b, B) = args if ox >= oy else args[::-1]
    steps, N = (D - 1) // o_a, (D - 1 - o_a) // o_b
    q = math.factorial(N) * math.factorial(N + 1)
    P = [q]  # P[n] = q c_n, from sum_{k<=n} c_k (n+1)!/(n+1-k)! = 0
    for n in range(1, N + 1):
        P.append(-sum(p * math.perm(n + 1, k) for k, p in enumerate(P)) // math.factorial(n + 1))
    if N and ox < oy:
        P[1] = -P[1]
    zero = A._like({}, 1)
    Z, W = [B], [[A] + [zero] * steps] + [[] for _ in range(N)]  # Z_j; W[n][k] is W_{n,k}
    for m in range(steps):
        for n in range(1, N + 1):
            W[n].append(sum((schouten(z, w, max_grade=D)
                             for z, w in zip(Z, reversed(W[n - 1][:m + 1]))
                             if order_of(z) + order_of(w) < D), zero))
        Z.append(sum((_scaled(W[n][m], P[n], q * (m + 1)) for n in range(1, N + 1) if P[n]),
                     W[0][m]))  # c_0 W_{0,m}/(m+1) = W_{0,m}
    return FilteredJet._raw(sum(Z, zero), D)  # every bracket bounded by D


# ---------------------------------------------------------------------------
# Homotopy operators: exact solves against d = [pi_lin, .]
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomotopyResult:
    status: str                 # "solved" | "obstructed"
    X: GradedPiece | None       # vector field with [pi_lin, X] = Z, when solved
    obstruction: GradedPiece | None
    certificate: list | None = _OnFirstRead()   # the failed solve's witness, solved when read


def _solve_bracket_equation(pi: PolyMVF, rhs: PolyMVF, unknown_basis,
                            restrict_grade: int | None = None):
    """Solve [pi, sum c_b b] = rhs exactly over the given monomial basis.

    With restrict_grade set, only the components of the bracket with grade
    <= restrict_grade are constrained (higher grades are left free): the
    rows above it are never formed.  The integer rows R of ``_bracket_rows``
    are the matrix times pi's denominator ``den``, and rhs is its integers z
    over ``rhs.den``.  The solve takes R x' = den z on the rows as built, and
    the RREF solution scales with the right-hand side, so x' / ``rhs.den``
    is the solution; the solve's witness w times ``den * rhs.den``, scaled
    in integers, is the witness of the equation, returned as a ``partial`` of
    ``_scaled_witness`` that solves and scales it when called, and pickles
    unread.  The rows are the decoded (legs, exps)
    monomials in sorted order; the solution is read off the solve's integers.
    """
    den, packed, decode = _bracket_rows(pi, unknown_basis, restrict_grade)
    rows = {decode(key): row for key, row in packed.items()}
    b = {(legs, exps): c * den for (_, legs, exps), c in rhs._ints.items()}
    keys = sorted(rows.keys() | b.keys())
    A = _Rows(rows.get(key, {}) for key in keys)
    out = solve_linear_exact(A, [b.get(key, 0) for key in keys], ncols=len(unknown_basis))
    if not out.feasible:
        return None, partial(_scaled_witness, out, den * rhs.den)
    grade = len(unknown_basis[0][0]) if unknown_basis else 0
    ints, sol_den = out._particular
    sol = {}
    for j in sorted(ints):
        legs, exps = unknown_basis[j]
        sol[_grade(pi.weights, legs, exps), legs, exps] = ints[j]
    return PolyMVF._raw(pi.nvars, grade, sol, pi.weights, sol_den * rhs.den), None


def _scaled_witness(out, scale: int) -> list:
    """The witness of infeasible solve ``out`` times ``scale``, as a list of Fractions."""
    ints, den = out._witness
    return _fraction_vector({j: v * scale for j, v in ints.items()}, den, out._n)


def homotopy_solve(pi_lin: PolyMVF, Z: GradedPiece, base_degree_cap: int = 8) -> HomotopyResult:
    """Find a grade-q vector field X with [pi_lin, X] = Z (exact), or certify failure.

    The solve comes first.  A solution is certified, [pi_lin, X] = Z, so for
    Poisson pi_lin [pi_lin, Z] = 1/2 [[pi_lin, pi_lin], X] = 0 and the cocycle
    bracket is formed only when the solve fails: a non-cocycle Z raises
    ValueError, a cocycle is obstructed.  A non-Poisson pi_lin whose image
    holds a non-cocycle Z therefore gets that Z's exact solution.  A Z whose
    variable count or weights differ from pi_lin's raises ValueError first.
    """
    base_degree_cap = _as_int(base_degree_cap, "base_degree_cap", 0)
    pi_lin._check(Z.value)
    if Z.value.grade != 2:
        raise ValueError("right-hand side must be a bivector")
    if Z.value.is_zero():
        zero = GradedPiece(Z.l, PolyMVF.zero(pi_lin.nvars, 1, pi_lin.weights))
        return HomotopyResult("solved", zero, None, None)
    basis = graded_basis(pi_lin.nvars, 1, Z.l, pi_lin.weights, base_degree_cap)
    sol, witness = _solve_bracket_equation(pi_lin, Z.value, basis)
    if sol is None:
        if not schouten(pi_lin, Z.value).is_zero():
            raise ValueError("right-hand side is not a cocycle: [pi_lin, Z] != 0")
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
    certificate: list | None = _OnFirstRead()   # as HomotopyResult's, solved when read
    base_degree_cap: int | None = None

    def to_json_obj(self) -> dict:
        if self.status == "equivalent":
            return {"status": "equivalent", "X": self.X.value.to_json_obj(),
                    "rounds": self.rounds}
        return {"status": "obstructed", "degree": self.degree,
                "cochain": self.cochain.value.to_json_obj(),
                "base_degree_cap": self.base_degree_cap}


def _check_mc(gamma: FilteredJet, name: str):
    br = schouten(gamma.value, gamma.value, max_grade=gamma.D)
    if not br.is_zero():
        raise ValueError(f"{name} is not Maurer-Cartan mod grade {gamma.D}: "
                         f"[{name},{name}] has grade-{br.min_grade()} defect")


def mc_equivalence(gamma: FilteredJet, gamma_p: FilteredJet, D: int,
                   base_degree_cap: int = 8) -> GaugeSolution:
    """Gauge-equivalence of two MC bivectors agreeing to first order.

    Runs the recursion X_q = h(Ad(e^X) gamma' - gamma) on one state, the
    gauge X, from X = 0: each round solves for X_q in the least grade q of
    the difference, composes X = X_q * X by the Campbell-Hausdorff product
    and measures the difference anew with ad_exp(X, gamma', D).  The loop
    ends only on an X with ad_exp(X, gamma', D) == gamma, the check.

    Composition stays although X_q has strictly higher order than X.
    Adding X_q instead drops the bracket terms of the product, such as
    [X_q, X]/2, which shifts the right-hand side of a later round (grade 4
    at D = 4) and with it the RREF gauge field solved there, so the
    returned X (and the CLI output) would change.  bch(X_q, X) runs its Lie
    series in X_q, the argument of larger order: (D - 1)//o(X_q) steps, so
    one step of at most (D - 1 - o(X_q))//o(X) brackets once 2 o(X_q) >= D.

    Each round inverts [pi_lin, .] alone, so a grade-0 part pi_0 of gamma'
    puts [X_q, pi_0] one grade below the order solved; when a round thus
    fails to raise the order, ValueError names pi_0.  Else [X_q, pi_0] = 0,
    so the Lie words in the X_q above grade D, which the D-jet X drops and
    ad_exp reads, commute with pi_0.

    The Maurer-Cartan checks, [gamma, gamma] = 0 and [gamma', gamma'] = 0 mod
    grade D, follow one rule (``_gauge``).  gamma' is checked first, so
    pi_lin, its grade-1 piece, is Poisson and a solved round forms no cocycle
    bracket.  gamma is checked after the loop, on every answer but an
    equivalence: before "obstructed" is returned, and before a ValueError or
    RuntimeError is raised, that of gamma' included, so gamma's error comes
    first.  An equivalence proves [gamma, gamma] = 0 unless gamma or gamma'
    has a grade-0 part, and only then is gamma checked after it: brackets of
    grades a, b >= 1 land in grade a + b - 1 >= 1, so Ad(e^X) is an
    automorphism of the grade->=1 D-truncation, and gamma = Ad(e^X) gamma'
    gives [gamma, gamma] = Ad(e^X) [gamma', gamma'] = 0 mod grade D.
    """
    base_degree_cap = _as_int(base_degree_cap, "base_degree_cap", 0)
    D = _as_int(D, "jet order D", 0)
    return _gauge(_as_jet(gamma, D), _as_jet(gamma_p, D), D, base_degree_cap)


def _gauge(gamma: FilteredJet, gamma_p: FilteredJet, D: int, base_degree_cap: int,
           gamma_p_checked: bool = False) -> GaugeSolution:
    """``mc_equivalence`` on checked arguments, with its Maurer-Cartan checks;
    ``gamma_p_checked`` skips that of gamma', which the caller has made."""
    try:
        if not gamma_p_checked:
            _check_mc(gamma_p, "gamma'")
        sol = _gauge_loop(gamma, gamma_p, D, base_degree_cap)
    except (ValueError, RuntimeError):
        _check_mc(gamma, "gamma")
        raise
    if sol.status == "obstructed" or 0 in gamma.value._grades() | gamma_p.value._grades():
        _check_mc(gamma, "gamma")
    return sol


def _gauge_loop(gamma: FilteredJet, gamma_p: FilteredJet, D: int,
                base_degree_cap: int) -> GaugeSolution:
    """The gauge recursion of ``mc_equivalence``, on gamma' checked Maurer-Cartan."""
    # a difference of two D-jets is a D-jet: each round's is formed once
    diff = gamma_p.value - gamma.value
    if order_of(diff) < 1:
        raise ValueError("gamma and gamma' must agree in grade 1")
    pi_lin = grade_component(gamma.value, 1).value
    X, rounds = FilteredJet._raw(PolyMVF.zero(pi_lin.nvars, 1, pi_lin.weights), D), 0
    while not diff.is_zero():
        q, rounds = diff.min_grade(), rounds + 1
        Z = grade_component(diff, q)
        res = homotopy_solve(pi_lin, Z, base_degree_cap)
        if res.status == "obstructed":
            return GaugeSolution("obstructed", degree=q, cochain=Z,
                                 certificate=res._certificate,
                                 base_degree_cap=base_degree_cap)
        # Ad(e^X_q) cancels Z at leading order: [X_q, pi_lin] = -[pi_lin, X_q] = -Z
        X = bch(FilteredJet._raw(res.X.value, D), X, D)  # X_q: grade q of a D-jet's piece
        diff = ad_exp(X.value, gamma_p, D).value - gamma.value
        if not order_of(diff) > q - 1:
            pi_0 = grade_component(gamma_p.value, 0).value
            if not pi_0.is_zero():
                raise ValueError(f"gamma' has a grade-0 part {pi_0!r}, whose bracket "
                                 "with a round's gauge field lowers the order")
            raise RuntimeError("gauge round did not raise the order")
    return GaugeSolution("equivalent", X=X, rounds=rounds,
                         base_degree_cap=base_degree_cap)


@dataclass(frozen=True)
class ProlongResult:
    status: str                 # "solved" | "obstructed"
    eta: PolyMVF | None         # bivector correction, when solved
    obstruction: GradedPiece | None
    certificate: list | None = _OnFirstRead()   # as HomotopyResult's, solved when read


def prolong_step(pi_partial: FilteredJet, m: int, base_degree_cap: int = 8) -> ProlongResult:
    """One jet-extension step: correct pi so its Jacobiator vanishes in grade m.

    Solves [pi, eta]_m = -1/2 [pi,pi]_m, with [pi, eta] = 0 below m, for a
    bivector correction eta, which may span several dilation grades when
    weighted variables spread pi over several.  [pi, pi] vanishes below m and
    bivectors bracket symmetrically, so [pi + eta, pi + eta] = [eta, eta] up to
    grade m.  If that survives, the step is obstructed with no certificate:
    only a failed solve certifies an obstruction cochain.
    """
    base_degree_cap = _as_int(base_degree_cap, "base_degree_cap", 0)
    m = _as_int(m, "grade m", 0)
    pi = pi_partial.value if isinstance(pi_partial, FilteredJet) else pi_partial
    _check_bivector(pi)
    # a grade-0 part brackets the grade-(m+1) part, which the m-jet drops, into grade m
    if 0 in pi._grades():
        raise ValueError("pi must vanish at the origin (no grade-0 part)")
    jac = schouten(pi, pi, max_grade=m)
    if not jac.is_zero() and jac.min_grade() < m:
        raise ValueError(f"Jacobiator already fails below grade {m} "
                         f"(at grade {jac.min_grade()})")
    if isinstance(pi_partial, FilteredJet) and pi_partial.D < m - 1:
        raise ValueError(f"a jet of order {pi_partial.D} cannot give the grade-{m} "
                         f"Jacobiator: it needs the pieces up to grade {m - 1}")
    rhs_piece = grade_component(jac, m)
    if rhs_piece.value.is_zero():
        return ProlongResult("solved", PolyMVF.zero(pi.nvars, 2, pi.weights),
                             None, None)
    rhs = _scaled(rhs_piece.value, -1, 2)
    eta_grades = sorted({m + 1 - g for g in pi._grades() if m + 1 - g >= 1})
    # the given data is pi's jet in the fiber-ideal filtration: corrections
    # may only carry strictly higher fiber degree (the grade of x^exps as a
    # function), so they leave it untouched
    fiber_floor = 1 + max(sum(map(mul, exps, pi.weights)) for _, _, exps in pi._ints)
    basis = [b for g in eta_grades for b in _graded_bases(
        pi.nvars, (2,), g, pi.weights, base_degree_cap, fiber_floor)[0]]
    sol, witness = _solve_bracket_equation(pi, rhs, basis, restrict_grade=m)
    if sol is None:
        return ProlongResult("obstructed", None, rhs_piece, witness)
    if not schouten(sol, sol, max_grade=m).is_zero():
        return ProlongResult("obstructed", None, rhs_piece, None)
    return ProlongResult("solved", sol, None, None)


def formal_linearize(pi: PolyMVF, D: int, base_degree_cap: int = 8) -> GaugeSolution:
    """Gauge pi's D-jet to its linear part, or report the obstruction.

    The linear part pi_lin is checked Poisson, [pi_lin, pi_lin] = 0, which
    makes its D-jet, gamma', Maurer-Cartan: the gauge loop does not check it
    again.  pi has no grade-0 part, so its D-jet gamma is checked only when
    the answer is not an equivalence, as ``mc_equivalence`` says: a verified
    gauge proves [gamma, gamma] = 0 mod grade D."""
    if 0 in pi._grades():
        raise ValueError("pi must vanish at the origin (no grade-0 part)")
    pi_lin = grade_component(pi, 1).value
    if not check_poisson(pi_lin).is_poisson:
        raise ValueError("linear part of pi is not Poisson")
    gamma = FilteredJet(pi, D)
    gamma_p = FilteredJet(pi_lin, D)
    base_degree_cap = _as_int(base_degree_cap, "base_degree_cap", 0)
    return _gauge(gamma, gamma_p, gamma.D, base_degree_cap, gamma_p_checked=True)
