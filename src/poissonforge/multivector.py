"""Polynomial multivector fields with the Schouten bracket and dilation grading.

A multivector field of degree q on R^n is stored as a map from strictly
increasing index tuples (i1 < ... < iq, 1-based) to polynomial coefficients.
Each field carries a weight vector in {0,1}^n splitting the coordinates into
base (weight 0) and fiber (weight 1) directions; the fiberwise dilations
induce the grading used by the jet/truncation machinery.

The dilation grade of a monomial x^a d_I is its fiber degree, the sum of the
a_i over fiber variables, plus the number of base legs in I.  ``_grade`` is
its one definition; the Schouten kernel and ``formal.prolong_step`` use it
too, and ``poisson.graded_basis`` enumerates its inverse.  One walk,
``_by_grade``, keeps, drops or scales each monomial by its grade for
``truncate_jet``, ``grade_component``, ``dilate`` and ``graded_pieces``; the
grade set ``PolyMVF._grades`` answers ``min_grade``, the homogeneity check
of ``GradedPiece`` and callers that only ask which grades occur.

The Schouten bracket treats each leg d_i as an odd variable xi_i, so that
a d_{i1}^...^d_{ip} is the superfunction a xi_{i1}...xi_{ip}, and is

    [W, V] = sum_i (d^R_{xi_i} W)(d_{x_i} V) - (d_{x_i} W)(d^L_{xi_i} V),

with the xi-derivative taken from the right on W and from the left on V
(Kosmann-Schwarzbach, Ann. Inst. Fourier 46, 1996).  Functions are the
grade-0 fields.  This sign convention makes the bracket of vector fields the
Lie bracket with L_X L_Y - L_Y L_X = L_[X,Y], gives [W, f] = (-1)^(p-1) i_df W
for a p-vector W, and so the Hamiltonian vector field of a bivector pi is
H_f = -[pi, f].

One integer kernel evaluates this sum of 2n products for ``schouten``,
``apply_to_functions`` and ``poisson._bracket_rows``.  Each operand is
brought over one denominator, the lcm of its coefficients' denominators, as
a list of leg sets with their (exponent vector, integer) terms.  A
derivative operand keeps that form: d_{x_i} lowers exponent i and scales by
it, and d_{xi_i} drops leg i from the leg sets that hold it, with the sign
of moving xi_i to the right end (d^R) or to the left end (d^L).  The kernel
multiplies two such operands as ``wedge`` multiplies fields, with each
exponent vector packed into one int (Monagan & Pearce, CASC 2007), and its
sums stay in ``int``: ``schouten`` builds one ``Fraction`` per output
monomial, and ``_bracket_rows`` keeps the integers over pi's denominator.
The kernel and ``wedge`` hold a leg set as an n-bit mask, leg i at bit
i - 1, and read each sign off bit counts (``_merge_sign``).

As in ``polyalg``, data is validated where it enters: the public
``PolyMVF(...)`` constructor and ``PolyMVF.from_json_obj`` check leg tuples,
weights and coefficient variable counts, and refuse a non-integer or
``bool`` ``nvars``, ``grade``, weight or leg rather than round it, as
``schouten``, ``truncate_jet`` and ``GradedPiece`` refuse such a jet order
or grade.  Fields that the operations here build from valid fields are
wrapped by ``PolyMVF._raw`` without re-checking; it trusts that every key
is a strictly increasing tuple of ``grade`` legs in 1..nvars, every value
a nonzero ``Poly`` in ``nvars`` variables, and ``weights`` a tuple in
{0,1}^nvars.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .polyalg import Poly, _add_term, _as_fraction, _as_int, format_poly, parse_poly

if TYPE_CHECKING:  # annotations only: NumPy is imported where floats are computed
    import numpy as np

__all__ = [
    "PolyMVF",
    "GradedPiece",
    "wedge",
    "schouten",
    "grade_component",
    "dilate",
    "truncate_jet",
]


def _json_ints(obj: dict, key: str) -> tuple:
    """The list field ``obj[key]`` of JSON integers, as a tuple."""
    v = obj[key]
    if not isinstance(v, list):
        raise ValueError(f"{key!r} must be a JSON list, got {v!r}")
    return tuple(_as_int(x, key) for x in v)


def _mask(legs) -> int:
    """The mask of distinct legs: leg i is bit i - 1."""
    return sum(1 << (i - 1) for i in legs)


def _legs(mask: int) -> tuple:
    """The increasing legs of a mask."""
    return tuple(i for i in range(1, mask.bit_length() + 1) if mask >> (i - 1) & 1)


def _merge_sign(A: int, B: int) -> int:
    """The sign that sorts the legs of A, then B (disjoint masks): the parity of the
    pairs with a leg of A above one of B (Dorst, Fontijne & Mann 2007, ch. 19)."""
    swaps = 0
    while A := A >> 1:
        swaps += (A & B).bit_count()
    return -1 if swaps & 1 else 1


def _grade(weights: tuple, legs, exps) -> int:
    """The dilation grade of x^exps d_legs: fiber degree plus base legs."""
    return sum(map(mul, exps, weights)) + sum(1 for i in legs if not weights[i - 1])


def _weights(weights, n: int) -> tuple:
    """``weights`` as a tuple of n ints, each read by ``_as_int`` and each 0 or 1,
    else ``ValueError``."""
    weights = tuple(_as_int(w, "weights") for w in weights)
    if len(weights) != n or any(w not in (0, 1) for w in weights):
        raise ValueError(f"weights must lie in {{0,1}}^{n}")
    return weights


class PolyMVF:
    """Polynomial multivector field on R^n with exact rational coefficients."""

    __slots__ = ("nvars", "grade", "weights", "terms")

    def __init__(self, nvars: int, grade: int, terms: dict | None = None,
                 weights: Sequence[int] | None = None):
        self.nvars = _as_int(nvars, "nvars", 0)
        self.grade = _as_int(grade, "grade", 0)
        self.weights = (1,) * self.nvars if weights is None else _weights(weights, self.nvars)
        clean: dict[tuple, Poly] = {}
        if terms:
            for indices, poly in terms.items():
                indices = tuple(_as_int(i, "indices") for i in indices)
                if len(indices) != self.grade:
                    raise ValueError(f"index tuple {indices} has wrong length for grade {self.grade}")
                if any(not 1 <= i <= self.nvars for i in indices):
                    raise ValueError(f"index tuple {indices} out of range 1..{self.nvars}")
                if any(a >= b for a, b in zip(indices, indices[1:])):
                    raise ValueError(f"index tuple {indices} is not strictly increasing")
                if poly.nvars != self.nvars:
                    raise ValueError("coefficient variable count mismatch")
                _add_term(clean, indices, poly)
        self.terms = clean

    @staticmethod
    def _raw(nvars: int, grade: int, terms: dict, weights: tuple) -> "PolyMVF":
        """Wrap ``terms`` without checks (see the module docstring for what is trusted)."""
        out = PolyMVF.__new__(PolyMVF)
        out.nvars = nvars
        out.grade = grade
        out.weights = weights
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, grade: int, weights=None) -> "PolyMVF":
        return cls(nvars, grade, {}, weights)

    @classmethod
    def from_function(cls, poly: Poly, weights=None) -> "PolyMVF":
        return cls(poly.nvars, 0, {(): poly}, weights)

    def with_weights(self, weights) -> "PolyMVF":
        return PolyMVF(self.nvars, self.grade, dict(self.terms), weights)

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "PolyMVF"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.weights != other.weights:
            raise ValueError("weight vector mismatch")

    def __eq__(self, other):
        if not (isinstance(other, PolyMVF) and self.nvars == other.nvars
                and self.weights == other.weights):
            return NotImplemented if not isinstance(other, PolyMVF) else False
        if self.is_zero() and other.is_zero():
            return True
        return self.grade == other.grade and self.terms == other.terms

    def __hash__(self):
        grade = -1 if self.is_zero() else self.grade
        return hash((self.nvars, grade, self.weights,
                     frozenset(self.terms.items())))

    # -- linear structure ---------------------------------------------

    def __add__(self, other: "PolyMVF") -> "PolyMVF":
        self._check(other)
        if self.grade != other.grade:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise ValueError("cannot add multivectors of different degree")
        terms = dict(self.terms)
        for idx, p in other.terms.items():
            _add_term(terms, idx, p)
        return PolyMVF._raw(self.nvars, self.grade, terms, self.weights)

    def __neg__(self):
        return PolyMVF._raw(self.nvars, self.grade, {i: -p for i, p in self.terms.items()},
                            self.weights)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        terms = {i: q for i, p in self.terms.items() if (q := p * scalar)}
        return PolyMVF._raw(self.nvars, self.grade, terms, self.weights)

    __rmul__ = __mul__

    # -- grading ------------------------------------------------------

    def _grades(self) -> set:
        """The dilation grades of the monomials."""
        return {_grade(self.weights, legs, exps)
                for legs, poly in self.terms.items() for exps in poly.terms}

    def graded_pieces(self) -> dict[int, "PolyMVF"]:
        """Decompose into homogeneous pieces keyed by dilation grade."""
        return {l: _by_grade(self, lambda g, c, l=l: c if g == l else 0)
                for l in sorted(self._grades())}

    def min_grade(self):
        """Smallest dilation grade with a nonzero piece; None if zero."""
        return min(self._grades(), default=None)

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        items = sorted(self.terms.items())
        return {
            "nvars": self.nvars,
            "weights": list(self.weights),
            "grade": self.grade,
            "terms": [{"indices": list(idx), "poly": format_poly(p)} for idx, p in items],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PolyMVF":
        """Read a field: ``nvars`` (>= 1), ``grade`` (>= 0) and each entry of
        the ``weights`` and ``indices`` lists are JSON integers; each ``poly``
        is a string in the polynomial grammar."""
        nvars = _as_int(obj["nvars"], "nvars", 1)
        grade = _as_int(obj["grade"], "grade", 0)
        weights = _json_ints(obj, "weights") if "weights" in obj else None
        terms = {}
        for entry in obj.get("terms", []):
            idx = _json_ints(entry, "indices")
            if idx in terms:
                raise ValueError(f"repeated index tuple {list(idx)} in terms")
            terms[idx] = parse_poly(entry["poly"], nvars)
        return cls(nvars, grade, terms, weights)

    def __repr__(self):
        if self.grade == 0:
            body = format_poly(self.terms.get((), Poly.zero(self.nvars)))
        else:
            parts = []
            for idx, p in sorted(self.terms.items()):
                legs = "^".join(f"d{i}" for i in idx)
                parts.append(f"({format_poly(p)}) {legs}")
            body = " + ".join(parts) if parts else "0"
        return f"<PolyMVF deg={self.grade} {body}>"

    # -- evaluation ---------------------------------------------------

    def apply_to_functions(self, funcs: Sequence[Poly]) -> Poly:
        """Evaluate as a multiderivation: W(df_1, ..., df_q).

        Contracts df_1, then df_2, ... through the bracket:
        i_df U = (-1)^(deg U - 1) [U, f].
        """
        if len(funcs) != self.grade:
            raise ValueError("need exactly one function per degree")
        U = self
        for f in funcs:
            U = schouten(U, PolyMVF.from_function(f, self.weights))
            if U.grade % 2:
                U = -U
        return U.terms.get((), Poly.zero(self.nvars))

    def bivector_matrix(self, points: np.ndarray) -> np.ndarray:
        """Numeric skew matrix field Pi(x) for a bivector, shape (..., n, n)."""
        import numpy as np
        if self.grade != 2:
            raise ValueError("bivector_matrix needs degree 2")
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1] + (self.nvars, self.nvars))
        for (i, j), poly in self.terms.items():
            vals = poly.eval_numeric(points)
            out[..., i - 1, j - 1] += vals
            out[..., j - 1, i - 1] -= vals
        return out


class GradedPiece:
    """A dilation-homogeneous multivector: dilate(value, t) = t^(l-1) * value."""

    __slots__ = ("l", "value")

    def __init__(self, l: int, value: PolyMVF):
        self.l = _as_int(l, "grade l", 0)
        if value._grades() - {self.l}:
            raise ValueError(f"value is not homogeneous of grade {self.l}")
        self.value = value

    def __eq__(self, other):
        return isinstance(other, GradedPiece) and self.l == other.l and self.value == other.value

    def __repr__(self):
        return f"GradedPiece(l={self.l}, {self.value!r})"


# ---------------------------------------------------------------------------
# Algebraic operations
# ---------------------------------------------------------------------------

def wedge(W: PolyMVF, V: PolyMVF) -> PolyMVF:
    """Exterior product; graded-commutative with sign (-1)^(|W||V|).

    Repeated legs wedge to zero; their product is never formed.
    """
    W._check(V)
    terms: dict[tuple, Poly] = {}
    v_terms = [(_mask(iv), pv) for iv, pv in V.terms.items()]
    for iw, pw in W.terms.items():
        mw = _mask(iw)
        for mv, pv in v_terms:
            if not mw & mv:
                _add_term(terms, _legs(mw | mv), pw * pv * _merge_sign(mw, mv))
    return PolyMVF._raw(W.nvars, W.grade + V.grade, terms, W.weights)


def schouten(W: PolyMVF, V: PolyMVF, max_grade: int | None = None) -> PolyMVF:
    """Schouten bracket [W, V] of a p-vector W and a q-vector V.

    It is the sum of the products of derivative operands in the module
    docstring.  Functions (p or q = 0) take the same formula, so that
    [W, f] = (-1)^(p-1) i_df W and H_f = -[pi, f] for every bivector pi.
    The integer kernel ``_schouten_sums`` evaluates it, with the
    coefficients of each operand brought over one denominator.

    With ``max_grade`` set the result is exactly
    ``truncate_jet(schouten(W, V), max_grade)``, but the monomials above the
    bound are never formed: monomials of dilation grades g and h bracket to
    grade g + h - 1 (dilation is a bracket automorphism), so a pair with
    g + h - 1 > max_grade is skipped before it is multiplied.
    """
    W._check(V)
    max_grade = max_grade if max_grade is None else _as_int(max_grade, "max_grade", 0)
    den_w, w_terms = _integer_terms(W)
    den_v, v_terms = _integer_terms(V)
    sums = _schouten_sums(w_terms, v_terms, W.weights, max_grade)
    den = den_w * den_v
    terms: dict[tuple, dict] = {}
    for (legs, exps), tagged in sums.items():
        terms.setdefault(legs, {})[exps] = (Fraction(tagged[0], den) if den != 1
                                            else Fraction(tagged[0]))
    return PolyMVF._raw(W.nvars, max(W.grade + V.grade - 1, 0),
                        {legs: Poly._raw(W.nvars, t) for legs, t in terms.items()}, W.weights)


# ---------------------------------------------------------------------------
# The integer Schouten kernel
# ---------------------------------------------------------------------------
#
# An operand is a list ``[(legs, [(exps, c, tag)])]`` of integer
# coefficients c over one denominator.  The kernel packs each exponent
# vector into one int, ``width`` bits per variable with x_i at bit
# width*(i-1).  Packed words add as exponent vectors do, as long as every
# exponent of a product fits its field, and a derivative d_i subtracts
# 1 << width*(i-1) from a word whose field i is nonzero (Monagan & Pearce,
# CASC 2007).  Sums are keyed by one int: the output word, then the n-bit
# mask of its legs, then the tags, which add through like exponents.  A field's
# tags are 0; ``poisson._bracket_rows`` tags each basis monomial with its column.

def _integer_terms(W: PolyMVF):
    """``W`` as ``(den, [(legs, [(exps, c, 0)])])`` with ``W = sum c x^exps d_legs / den``.

    ``den`` is the lcm of the coefficients' denominators.
    """
    den = math.lcm(*(c.denominator for poly in W.terms.values() for c in poly.terms.values()))
    return den, [(legs, [(exps, c.numerator * (den // c.denominator), 0)
                         for exps, c in poly.terms.items()])
                 for legs, poly in W.terms.items()]


def _schouten_sums(W: list, V: list, weights: tuple, max_grade, keyed=True):
    """The bracket of integer operands.

    Returns ``{(legs, exps): {tag: coefficient}}`` with the nonzero integer
    coefficients, or with ``keyed`` false the list of its values, in order;
    the bracket of the fields is this over the product of the operands'
    denominators.  It adds the 2n products of derivative operands of the
    module docstring.  Only with ``max_grade`` set is a grade computed: a
    derivative keeps the grade of the monomial it came from, and a pair of
    grades g and h with g + h - 1 > max_grade is skipped unmultiplied.
    """
    n = len(weights)
    degree = [max((sum(exps) for _, monos in X for exps, _, _ in monos), default=0)
              for X in (W, V)]
    width = max(sum(degree), 1).bit_length()
    low, tag_shift = n * width, n * width + n
    units = [1 << (width * v) for v in range(n)]
    limit = math.inf if max_grade is None else max_grade + 1

    def packed(X):
        """X as [(mask, sign, [(word, exps, c, grade)])], one entry per leg set."""
        return [(_mask(legs), 1, [(sum(map(mul, exps, units)) + (tag << tag_shift), exps, c,
                                   max_grade is not None and _grade(weights, legs, exps))
                                  for exps, c, tag in monos])
                for legs, monos in X]

    def d_x(X, v):
        """d/dx_v: the monomials with e_v > 0, lowered and times e_v."""
        return [(m, s, lowered) for m, s, monos in X
                if (lowered := [(word - units[v], exps, c * exps[v], g)
                                for word, exps, c, g in monos if exps[v]])]

    W, V, sums = packed(W), packed(V), {}

    def product(A, B):
        """Add the product A B, leg sets of A before those of B."""
        for mA, sA, a_monos in A:
            for mB, sB, b_monos in B:
                if mA & mB:
                    continue
                s, off = sA * sB * _merge_sign(mA, mB), (mA | mB) << low
                for wa, _, c, g in a_monos:
                    base, sc = wa + off, s * c
                    for wb, _, d, h in b_monos:
                        if g + h <= limit:
                            key = base + wb
                            sums[key] = sums.get(key, 0) + sc * d

    for v in range(n):
        bit = 1 << v
        # xi_v taken off the right of each leg set of W and off the left of
        # V's; the minus of the second product rides on d^L_{xi_v} V
        product([(m ^ bit, _merge_sign(m ^ bit, bit), monos) for m, _, monos in W if m & bit],
                d_x(V, v))
        product(d_x(W, v),
                [(m ^ bit, -_merge_sign(bit, m ^ bit), monos) for m, _, monos in V if m & bit])

    # group by monomial, so each exponent vector and leg mask is decoded once
    monomial = (1 << tag_shift) - 1
    grouped: dict[int, dict] = {}
    for key, c in sums.items():
        if c:
            grouped.setdefault(key & monomial, {})[key >> tag_shift] = c
    if not keyed:
        return list(grouped.values())
    legs = {m: _legs(m) for m in {key >> low for key in grouped}}
    field, shifts = (1 << width) - 1, range(0, low, width)
    return {(legs[key >> low], tuple((key >> s) & field for s in shifts)): tagged
            for key, tagged in grouped.items()}


def _by_grade(W: PolyMVF, scale) -> PolyMVF:
    """``W`` with the coefficient c of each monomial of grade g replaced by
    ``scale(g, c)``; a monomial that it sends to 0 is dropped."""
    terms: dict[tuple, Poly] = {}
    for legs, poly in W.terms.items():
        kept = {exps: v for exps, c in poly.terms.items()
                if (v := scale(_grade(W.weights, legs, exps), c))}
        if kept:
            terms[legs] = Poly._raw(W.nvars, kept)
    return PolyMVF._raw(W.nvars, W.grade, terms, W.weights)


def grade_component(W: PolyMVF, l: int) -> GradedPiece:
    """The dilation-homogeneous component of grade l."""
    return GradedPiece(l, _by_grade(W, lambda g, c: c if g == l else 0))


def dilate(W: PolyMVF, t) -> PolyMVF:
    """Dilation automorphism: multiplies each grade-l piece by t^(l-1).

    ``t`` is exact: an int, a ``Fraction`` or a rational string (a float or
    a ``bool`` raises ``TypeError``).
    """
    t = _as_fraction(t)
    if t == 0:
        raise ValueError("dilation parameter must be nonzero")
    return _by_grade(W, lambda g, c: c * t ** (g - 1))


def truncate_jet(W: PolyMVF, k: int) -> PolyMVF:
    """Drop all graded pieces of grade > k (the k-th order jet)."""
    k = _as_int(k, "jet order k", 0)
    return _by_grade(W, lambda g, c: c if g <= k else 0)
