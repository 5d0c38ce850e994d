"""Polynomial multivector fields with the Schouten bracket and dilation grading.

A q-vector field on R^n is a sum of monomials c x^exps d_legs, legs a
strictly increasing tuple (i1 < ... < iq, 1-based) and c rational.  Each
field carries a weight vector in {0,1}^n splitting the coordinates into base
(weight 0) and fiber (weight 1) directions; the fiberwise dilations induce
the grading used by the jet/truncation machinery.  The dilation grade of
x^a d_I is its fiber degree, the sum of the a_i over fiber variables, plus
the number of base legs in I.  ``_grade`` is its one definition, and
``poisson.graded_basis`` enumerates its inverse.

A field stores integer numerators over one denominator: ``den`` and
``_ints``, a dict ``{(g, legs, exps): c}`` with W = sum c x^exps d_legs /
den.  A monomial's grade g is computed once, where the monomial enters, and
carried: grading, truncation and the kernel's ``max_grade`` bound read it.
``den`` is positive and coprime to the numerators together, so a field has
one representation, which ``==`` and ``hash`` compare.  Coefficients and a
dilation's scale factors become integers through ``polyalg._over_lcm``, the
one converter.  Sums scale by the lcm of the denominators, a scalar multiplies
the numerators by its numerator and ``den`` by its denominator, and
``PolyMVF._raw`` divides out the gcd.
``PolyMVF.terms`` is the ``{legs: Poly}`` form, built on each read for
parsing, formatting and the readers outside this module.

The Schouten bracket treats each leg d_i as an odd variable xi_i, so that
a d_{i1}^...^d_{ip} is the superfunction a xi_{i1}...xi_{ip}, and is

    [W, V] = sum_i (d^R_{xi_i} W)(d_{x_i} V) - (d_{x_i} W)(d^L_{xi_i} V),

with the xi-derivative taken from the right on W and from the left on V
(Kosmann-Schwarzbach, Ann. Inst. Fourier 46, 1996).  Functions are the
grade-0 fields.  This sign convention makes the bracket of vector fields the
Lie bracket with L_X L_Y - L_Y L_X = L_[X,Y], gives [W, f] = (-1)^(p-1) i_df W
for a p-vector W, and so the Hamiltonian vector field of a bivector pi is
H_f = -[pi, f].

One integer kernel evaluates this sum of 2n products on the numerators for
``schouten``, ``apply_to_functions`` and ``poisson._bracket_rows``, with
each operand grouped by leg set and grade.  A derivative operand keeps that
form: d_{x_i} lowers exponent i and scales by it, and d_{xi_i} drops leg i
from the leg sets that hold it, with the sign of moving xi_i to the right
end (d^R) or to the left end (d^L).  The kernel multiplies two such operands
as ``wedge`` multiplies fields, with each exponent vector packed into one
int (Monagan & Pearce, CASC 2007); its sums stay in ``int`` and build no
``Fraction``.  Under a grade bound it drops, before packing, each monomial
whose grade plus the other operand's least grade exceeds the bound plus 1.
It and ``wedge`` hold a leg set as an n-bit mask, leg i at bit i - 1, and
read each sign off bit counts (``_merge_sign``).

As in ``polyalg``, data is validated where it enters: the public
``PolyMVF(...)`` constructor and ``PolyMVF.from_json_obj`` check leg tuples,
weights and coefficient variable counts, and refuse a non-integer or
``bool`` ``nvars``, ``grade``, weight or leg rather than round it, as
``schouten``, ``truncate_jet`` and ``GradedPiece`` refuse such a jet order
or grade, and an ``nvars`` above ``MAX_NVARS``.  Fields that the operations
here build from valid fields are wrapped by ``PolyMVF._raw`` without
re-checking.  It trusts that each key is ``(g, legs, exps)`` with legs
``grade`` increasing legs in 1..nvars, exps nvars ints >= 0 and g their
grade under ``weights``, a tuple in {0,1}^nvars; that each value is a
nonzero ``int``; and that ``den`` is a positive int.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, itemgetter, mul
from types import MappingProxyType
from typing import TYPE_CHECKING, Sequence

from .polyalg import Poly, _add_term, _as_fraction, _as_int, _over_lcm, format_poly, parse_poly

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


# The most variables a field or a Lie algebra may have, a bound on ``nvars`` and
# ``dim`` where they are read.  It is the value of ``poisson.MAX_BASIS``: above
# it even the degree-1 function basis is larger than that bound.  Without it a
# huge count fails only in an allocation, which overflows or exhausts memory.
MAX_NVARS = 2048


def _json_ints(obj: dict, key: str) -> tuple:
    """The list field ``obj[key]`` of JSON integers, as a tuple."""
    v = obj[key]
    if not isinstance(v, list):
        raise ValueError(f"{key!r} must be a JSON list, got {v!r}")
    return tuple(_as_int(x, key) for x in v)


def _check_bivector(pi) -> None:
    """Refuse a field ``pi`` that is not a bivector."""
    if pi.grade != 2:
        raise ValueError(f"expected a bivector, got degree {pi.grade}")


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


def _integral(weights: tuple, monos: dict) -> tuple:
    """``_over_lcm`` of distinct monomials ``{(legs, exps): c}``, keys led by grade."""
    ints, den = _over_lcm(monos)
    return {(_grade(weights, *mono), *mono): c for mono, c in ints.items()}, den


class PolyMVF:
    """Polynomial multivector field on R^n with exact rational coefficients."""

    __slots__ = ("nvars", "grade", "weights", "den", "_ints")

    def __init__(self, nvars: int, grade: int, terms: dict | None = None,
                 weights: Sequence[int] | None = None):
        self.nvars = _as_int(nvars, "nvars", 0, MAX_NVARS)
        self.grade = _as_int(grade, "grade", 0)
        self.weights = (1,) * self.nvars if weights is None else _weights(weights, self.nvars)
        monos: dict[tuple, Fraction] = {}
        for indices, poly in (terms or {}).items():
            indices = tuple(_as_int(i, "indices") for i in indices)
            if len(indices) != self.grade:
                raise ValueError(f"index tuple {indices} has wrong length for grade {self.grade}")
            if any(not 1 <= i <= self.nvars for i in indices):
                raise ValueError(f"index tuple {indices} out of range 1..{self.nvars}")
            if any(a >= b for a, b in zip(indices, indices[1:])):
                raise ValueError(f"index tuple {indices} is not strictly increasing")
            if poly.nvars != self.nvars:
                raise ValueError("coefficient variable count mismatch")
            for exps, c in poly.terms.items():  # index tuples may read to the same legs
                _add_term(monos, (indices, exps), c)
        self._ints, self.den = _integral(self.weights, monos)

    @staticmethod
    def _raw(nvars: int, grade: int, ints: dict, weights: tuple, den: int = 1) -> "PolyMVF":
        """Wrap ``ints / den`` without checks (see the module docstring for what is
        trusted), dividing out the gcd of ``den`` and the numerators."""
        if den != 1 and (g := math.gcd(den, *ints.values())) != 1:
            ints = {key: c // g for key, c in ints.items()}
            den //= g
        out = PolyMVF.__new__(PolyMVF)
        out.nvars, out.grade, out.weights, out.den, out._ints = nvars, grade, weights, den, ints
        return out

    def _like(self, ints: dict, den: int) -> "PolyMVF":
        """A field of this one's kind holding ``ints / den``."""
        return PolyMVF._raw(self.nvars, self.grade, ints, self.weights, den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, grade: int, weights=None) -> "PolyMVF":
        return cls(nvars, grade, {}, weights)

    @classmethod
    def from_function(cls, poly: Poly, weights=None) -> "PolyMVF":
        return cls(poly.nvars, 0, {(): poly}, weights)

    def with_weights(self, weights) -> "PolyMVF":
        weights = (1,) * self.nvars if weights is None else _weights(weights, self.nvars)
        ints = {(_grade(weights, *key[1:]), *key[1:]): c for key, c in self._ints.items()}
        return PolyMVF._raw(self.nvars, self.grade, ints, weights, self.den)

    # -- basic queries ------------------------------------------------

    @property
    def terms(self) -> MappingProxyType:
        """The coefficients as a read-only ``{legs: Poly}``, built on each read."""
        polys: dict[tuple, dict] = {}
        for (_, legs, exps), c in self._ints.items():
            polys.setdefault(legs, {})[exps] = Fraction(c, self.den)
        return MappingProxyType({legs: Poly._raw(self.nvars, t) for legs, t in polys.items()})

    def is_zero(self) -> bool:
        return not self._ints

    def _check(self, other: "PolyMVF"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.weights != other.weights:
            raise ValueError("weight vector mismatch")

    def __eq__(self, other):
        if not isinstance(other, PolyMVF):
            return NotImplemented
        if self.nvars != other.nvars or self.weights != other.weights:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.grade == other.grade and self.den == other.den and self._ints == other._ints

    def __hash__(self):
        grade = -1 if self.is_zero() else self.grade
        return hash((self.nvars, grade, self.weights, self.den, frozenset(self._ints.items())))

    # -- linear structure ---------------------------------------------

    def __add__(self, other: "PolyMVF") -> "PolyMVF":
        """The sum, over the lcm of the denominators."""
        if not isinstance(other, PolyMVF):
            return NotImplemented
        self._check(other)
        if other.is_zero() or self.is_zero():
            return self if other.is_zero() else other
        if self.grade != other.grade:
            raise ValueError("cannot add multivectors of different degree")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        ints = self._ints.copy() if a == 1 else {k: c * a for k, c in self._ints.items()}
        for key, c in other._ints.items():
            if s := ints.get(key, 0) + c * b:
                ints[key] = s
            else:
                del ints[key]
        return self._like(ints, den)

    def __neg__(self):
        return self._like({key: -c for key, c in self._ints.items()}, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        """The field times an int, a ``Fraction`` or a rational string (``_as_fraction``)."""
        t = _as_fraction(scalar)
        num = t.numerator  # 0 keeps no monomial
        ints = self._ints if num == 1 else {key: c * num for key, c in self._ints.items() if num}
        return self._like(ints, self.den * t.denominator)

    __rmul__ = __mul__

    # -- grading ------------------------------------------------------

    def _grades(self) -> set:
        """The dilation grades of the monomials."""
        return {g for g, _, _ in self._ints}

    def graded_pieces(self) -> dict[int, "PolyMVF"]:
        """Decompose into homogeneous pieces keyed by dilation grade."""
        return {g: grade_component(self, g).value for g in sorted(self._grades())}

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
        """Read a field: ``nvars`` (1..``MAX_NVARS``), ``grade`` (>= 0) and each
        entry of the ``weights`` and ``indices`` lists are JSON integers; each
        ``poly`` is a string in the polynomial grammar."""
        nvars = _as_int(obj["nvars"], "nvars", 1, MAX_NVARS)
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
        terms = sorted(self.terms.items())
        if self.grade == 0:
            body = format_poly(terms[0][1]) if terms else "0"
        else:
            body = " + ".join(f"({format_poly(p)}) " + "^".join(f"d{i}" for i in idx)
                              for idx, p in terms) or "0"
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
        _check_bivector(self)
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

    Repeated legs wedge to zero; their product is never formed.  Grades add.
    """
    W._check(V)
    ints: dict[tuple, int] = {}
    v_ints = [(_mask(legs), h, exps, d) for (h, legs, exps), d in V._ints.items()]
    for (g, legs, exps), c in W._ints.items():
        mw = _mask(legs)
        for mv, h, ev, d in v_ints:
            if not mw & mv:
                key = (g + h, _legs(mw | mv), tuple(map(add, exps, ev)))
                ints[key] = ints.get(key, 0) + c * d * _merge_sign(mw, mv)
    return PolyMVF._raw(W.nvars, W.grade + V.grade, {k: c for k, c in ints.items() if c},
                        W.weights, W.den * V.den)


def schouten(W: PolyMVF, V: PolyMVF, max_grade: int | None = None) -> PolyMVF:
    """Schouten bracket [W, V] of a p-vector W and a q-vector V.

    It is the sum of the products of derivative operands in the module
    docstring.  Functions (p or q = 0) take the same formula, so that
    [W, f] = (-1)^(p-1) i_df W and H_f = -[pi, f] for every bivector pi.
    The integer kernel ``_schouten_sums`` evaluates it on the numerators;
    the bracket is its result over ``W.den * V.den``.

    With ``max_grade`` set the result is exactly
    ``truncate_jet(schouten(W, V), max_grade)``, but the monomials above the
    bound are never formed: monomials of dilation grades g and h bracket to
    grade g + h - 1 (dilation is a bracket automorphism), so a pair with
    g + h - 1 > max_grade is skipped before it is multiplied.  A monomial
    that joins only such pairs, as its grade plus the other operand's least
    grade is above max_grade + 1, is dropped before the operands are packed.
    """
    W._check(V)
    max_grade = max_grade if max_grade is None else _as_int(max_grade, "max_grade", 0)
    return PolyMVF._raw(W.nvars, max(W.grade + V.grade - 1, 0),
                        _schouten_sums(W._ints, V._ints, W.weights, max_grade),
                        W.weights, W.den * V.den)


# ---------------------------------------------------------------------------
# The integer Schouten kernel
# ---------------------------------------------------------------------------
#
# An operand is a dict ``{(grade, legs, exps): c}`` of integer numerators, as
# ``PolyMVF._ints``.  The kernel packs each exponent vector into one int,
# ``width`` bits per variable with x_i at bit width*(i-1).  Packed words add
# as exponent vectors do, as long as every exponent of a product fits its
# field, and a derivative d_i subtracts 1 << width*(i-1) from a word whose
# field i is nonzero (Monagan & Pearce, CASC 2007).  Sums are keyed by one
# int: the output word, the n-bit mask of its legs, and extra bits that add
# through: grades g + h for fields, or each basis monomial's column for
# ``poisson._bracket_rows`` (and none for pi).

def _schouten_sums(W: dict, V: dict, weights: tuple, max_grade, rows=None):
    """The bracket of integer operands: the 2n products of the module docstring.

    With ``rows`` None it is ``{(grade, legs, exps): c}``, nonzero, over the
    product of the operands' denominators.  Otherwise V's values are column
    tags of monomials with coefficient 1, and it is ``{(legs, exps): {tag:
    c}}``, or with ``rows`` False the list of its values, in order.  A
    derivative keeps its monomial's grade, and with ``max_grade`` set a pair
    of grades g and h with g + h - 1 > max_grade is skipped unmultiplied; a
    monomial that joins only such pairs, its grade plus the other operand's
    least grade above max_grade + 1, is dropped before packing.
    """
    n = len(weights)
    limit = math.inf if max_grade is None else max_grade + 1
    if max_grade is not None:  # drop the monomials whose every pair lies above the bound
        least_W, least_V = (min((g for g, _, _ in X), default=0) for X in (W, V))
        W = {key: c for key, c in W.items() if key[0] + least_V <= limit}
        V = {key: c for key, c in V.items() if key[0] + least_W <= limit}
    degree = [max(map(sum, map(itemgetter(2), X)), default=0) for X in (W, V)]
    width = max(sum(degree), 1).bit_length()
    low, top = n * width, n * width + n
    units = [1 << (width * v) for v in range(n)]

    def packed(X, tags):
        """X as [(mask, grade, extra bits, sign, [(word, exps, c)])] by leg set and grade."""
        groups: dict[tuple, list] = {}
        for (g, legs, exps), c in X.items():
            word = sum(map(mul, exps, units))
            if tags:
                word, c = word + (c << top), 1
            groups.setdefault((legs, g), []).append((word, exps, c))
        return [(_mask(legs), g, 0 if rows is not None else g << top, 1, monos)
                for (legs, g), monos in groups.items()]

    def d_x(X, v):
        """d/dx_v: the monomials with e_v > 0, lowered and times e_v."""
        return [(m, g, x, s, lowered) for m, g, x, s, monos in X
                if (lowered := [(word - units[v], exps, c * exps[v])
                                for word, exps, c in monos if exps[v]])]

    W, V, sums = packed(W, False), packed(V, rows is not None), {}

    def product(A, B):
        """Add the product A B, leg sets of A before those of B."""
        for mA, gA, xA, sA, a_monos in A:
            for mB, gB, xB, sB, b_monos in B:
                if mA & mB or gA + gB > limit:
                    continue
                s, off = sA * sB * _merge_sign(mA, mB), ((mA | mB) << low) + xA + xB
                for wa, _, c in a_monos:
                    base, sc = wa + off, s * c
                    for wb, _, d in b_monos:
                        key = base + wb
                        sums[key] = sums.get(key, 0) + sc * d

    for v in range(n):
        bit = 1 << v
        # xi_v taken off the right of each leg set of W and off the left of
        # V's; the minus of the second product rides on d^L_{xi_v} V
        product([(m ^ bit, g, x, _merge_sign(m ^ bit, bit), monos)
                 for m, g, x, _, monos in W if m & bit], d_x(V, v))
        product(d_x(W, v), [(m ^ bit, g, x, -_merge_sign(bit, m ^ bit), monos)
                            for m, g, x, _, monos in V if m & bit])

    field, shifts = (1 << width) - 1, range(0, low, width)
    if rows is None:
        sums = {key: c for key, c in sums.items() if c}
        legs_of = (1 << n) - 1
        legs = {m: _legs(m) for m in {key >> low & legs_of for key in sums}}
        return {((key >> top) - 1, legs[key >> low & legs_of],
                 tuple((key >> s) & field for s in shifts)): c for key, c in sums.items()}
    # group by monomial, so each exponent vector and leg mask is decoded once
    monomial = (1 << top) - 1
    grouped: dict[int, dict] = {}
    for key, c in sums.items():
        if c:
            grouped.setdefault(key & monomial, {})[key >> top] = c
    if not rows:
        return list(grouped.values())
    legs = {m: _legs(m) for m in {key >> low for key in grouped}}
    return {(legs[key >> low], tuple((key >> s) & field for s in shifts)): tagged
            for key, tagged in grouped.items()}


def grade_component(W: PolyMVF, l: int) -> GradedPiece:
    """The dilation-homogeneous component of grade l."""
    return GradedPiece(l, W._like({key: c for key, c in W._ints.items() if key[0] == l}, W.den))


def dilate(W: PolyMVF, t) -> PolyMVF:
    """Dilation automorphism: multiplies each grade-l piece by t^(l-1).

    ``t`` is exact: an int, a ``Fraction`` or a rational string (a float or
    a ``bool`` raises ``TypeError``).
    """
    t = _as_fraction(t)
    if t == 0:
        raise ValueError("dilation parameter must be nonzero")
    factor, lcm = _over_lcm({g: t ** (g - 1) for g in W._grades()})
    return W._like({key: c * factor[key[0]] for key, c in W._ints.items()}, W.den * lcm)


def truncate_jet(W: PolyMVF, k: int) -> PolyMVF:
    """Drop all graded pieces of grade > k (the k-th order jet)."""
    k = _as_int(k, "jet order k", 0)
    kept = {key: c for key, c in W._ints.items() if key[0] <= k}
    return W if len(kept) == len(W._ints) else W._like(kept, W.den)
