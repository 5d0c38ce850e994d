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
``PolyMVF._raw`` divides out the gcd.  A field's JSON is read and written
in integers: ``from_json_obj`` puts the terms of the grammar's one reader,
``polyalg._parse_terms``, over the lcm of their denominators, and
``to_json_obj`` and ``repr`` reduce each numerator over ``den`` by one gcd
for its one writer, ``polyalg._format_terms``.  ``PolyMVF.terms`` is the
``{legs: Poly}`` form, built on each read for the readers outside this module.

The Schouten bracket treats each leg d_i as an odd variable xi_i, so that
a d_{i1}^...^d_{ip} is the superfunction a xi_{i1}...xi_{ip}, and is

    [W, V] = sum_i (d^R_{xi_i} W)(d_{x_i} V) - (d_{x_i} W)(d^L_{xi_i} V),

with the xi-derivative taken from the right on W and from the left on V
(Kosmann-Schwarzbach, Ann. Inst. Fourier 46, 1996).  Functions are the
grade-0 fields.  This sign convention makes the bracket of vector fields the
Lie bracket with L_X L_Y - L_Y L_X = L_[X,Y], gives [W, f] = (-1)^(p-1) i_df W
for a p-vector W, and so the Hamiltonian vector field of a bivector pi is
H_f = -[pi, f].  A self-bracket [W, W] takes the first product, doubled:
for even p, d^L_{xi_i} W = -d^R_{xi_i} W, as xi_i crosses the other p - 1
odd factors, and the even d_{x_i} W commutes, so [W, W] = 2 sum_i
(d^R_{xi_i} W)(d_{x_i} W); for odd p, graded antisymmetry makes it 0.

One integer kernel, ``_products``, evaluates this sum of 2n products on the
numerators for ``schouten`` (so for ``apply_to_functions``, ``poisson.sharp``
and ``hamiltonian_vf``), for ``_bracket_rows``, the one builder of the matrix of
[pi, .] on a monomial basis, and for each step of ``formal.ad_exp``'s Lie
series, which stays packed from step to step, each operand grouped by leg set
and grade.  A derivative operand keeps that form: d_{x_i} lowers exponent i and
scales by it, and d_{xi_i} drops leg i from the leg sets that hold it, with the
sign of moving xi_i to the right end (d^R) or to the left end (d^L).  Each
product is one ``_multiply``, and so is ``wedge``: every product of fields packs
each exponent vector into one int (Monagan & Pearce, CASC 2007), holds a leg set
as an n-bit mask, leg i at bit i - 1, reads each sign off bit counts
(``_merge_sign``) and sums in ``int``, with no ``Fraction``.  Under a grade
bound the kernel drops on entry each group whose grade plus the other operand's
least grade exceeds the bound plus 1.

As in ``polyalg``, data is validated where it enters: the public
``PolyMVF(...)`` constructor and ``PolyMVF.from_json_obj`` check leg tuples,
weights and coefficients (each a ``Poly`` of ``nvars`` variables), and refuse
a non-integer or ``bool`` ``nvars``, ``grade``, weight or leg, as
``schouten``, ``truncate_jet`` and ``GradedPiece`` refuse such a jet order
or grade, and an ``nvars`` above ``MAX_NVARS``.  Fields that the operations
here build from valid fields are wrapped by ``PolyMVF._raw`` without
re-checking.  It trusts that each key is ``(g, legs, exps)`` with legs
``grade`` increasing legs in 1..nvars, exps nvars ints >= 0 and g their
grade under ``weights``, a tuple in {0,1}^nvars; that each value is a
nonzero ``int``; and that ``den`` is a positive int.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import itemgetter, mul
from types import MappingProxyType
from typing import TYPE_CHECKING, Sequence

from .polyalg import (Poly, _add_term, _as_fraction, _as_int, _format_terms, _over_lcm,
                      _parse_terms)

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


def _json_require(obj: dict, keys, where: str) -> None:
    """Refuse ``obj`` with a ``ValueError`` naming the first of ``keys`` it lacks and ``where``."""
    for key in keys:
        if key not in obj:
            raise ValueError(f"missing key {key!r} in {where}")


def _json_list(obj: dict, key: str, objects: bool = False) -> list:
    """The list field ``obj[key]``, each entry a JSON object when ``objects``;
    anything else raises ``ValueError`` naming ``key``."""
    v = obj[key]
    if not isinstance(v, list):
        raise ValueError(f"{key!r} must be a JSON list, got {v!r}")
    for entry in v if objects else ():
        if not isinstance(entry, dict):
            raise ValueError(f"each entry of {key!r} must be a JSON object, got {entry!r}")
    return v


def _json_ints(obj: dict, key: str) -> tuple:
    """The list field ``obj[key]`` of JSON integers, as a tuple."""
    return tuple(_as_int(x, key) for x in _json_list(obj, key))


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
    while A:  # the lowest leg of A passes the legs of B below it, then leaves A
        swaps, A = swaps + (B & (A & -A) - 1).bit_count(), A & (A - 1)
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


def _check_legs(indices: tuple, nvars: int, grade: int) -> tuple:
    """``indices`` if it holds ``grade`` strictly increasing legs in 1..nvars, else
    ``ValueError``."""
    if len(indices) != grade:
        raise ValueError(f"index tuple {indices} has wrong length for grade {grade}")
    if any(not 1 <= i <= nvars for i in indices):
        raise ValueError(f"index tuple {indices} out of range 1..{nvars}")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"index tuple {indices} is not strictly increasing")
    return indices


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
            indices = _check_legs(tuple(_as_int(i, "indices") for i in indices),
                                  self.nvars, self.grade)
            if not isinstance(poly, Poly):
                raise ValueError(f"coefficient of {indices} must be a Poly, got {poly!r}")
            if poly.nvars != self.nvars:
                raise ValueError("coefficient variable count mismatch")
            for exps, c in poly.terms.items():  # index tuples may read to the same legs
                _add_term(monos, (indices, exps), c)
        ints, self.den = _over_lcm(monos)
        self._ints = {(_grade(self.weights, *mono), *mono): c for mono, c in ints.items()}

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
        if not isinstance(poly, Poly):
            raise ValueError(f"function must be a Poly, got {poly!r}")
        return cls(poly.nvars if weights is None else len(weights), 0, {(): poly}, weights)

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
        return self._combine(other, 1)

    def __neg__(self):
        return self._like({key: -c for key, c in self._ints.items()}, self.den)

    def __sub__(self, other: "PolyMVF") -> "PolyMVF":
        """The difference, over the lcm of the denominators, formed without ``-other``."""
        return self._combine(other, -1)

    def _combine(self, other: "PolyMVF", sign: int) -> "PolyMVF":
        """``self + sign * other``: the operand with more monomials is copied,
        scaled to the lcm of the denominators, and the other added into it."""
        if not isinstance(other, PolyMVF):
            return NotImplemented
        self._check(other)
        if other.is_zero() or self.is_zero():
            return self if other.is_zero() else other if sign == 1 else -other
        if self.grade != other.grade:
            raise ValueError("cannot add multivectors of different degree")
        den = math.lcm(self.den, other.den)
        big, a, small, b = self._ints, den // self.den, other._ints, sign * (den // other.den)
        if len(big) < len(small):
            big, a, small, b = small, b, big, a
        ints = big.copy() if a == 1 else {k: c * a for k, c in big.items()}
        for key, c in small.items():
            if s := ints.get(key, 0) + c * b:
                ints[key] = s
            else:
                del ints[key]
        return self._like(ints, den)

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

    def _texts(self) -> list:
        """``[(legs, text)]`` by legs: each coefficient in the polynomial grammar,
        written from the numerators, with one gcd per coefficient."""
        polys: dict[tuple, list] = {}
        for (_, legs, exps), c in self._ints.items():
            g = math.gcd(c, self.den)
            polys.setdefault(legs, []).append((exps, c // g, self.den // g))
        return sorted((legs, _format_terms(t)) for legs, t in polys.items())

    def to_json_obj(self) -> dict:
        return {
            "nvars": self.nvars,
            "weights": list(self.weights),
            "grade": self.grade,
            "terms": [{"indices": list(legs), "poly": text} for legs, text in self._texts()],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PolyMVF":
        """Read a field: ``nvars`` (1..``MAX_NVARS``), ``grade`` (>= 0) and the
        entries of the ``weights`` and ``indices`` lists are JSON integers,
        ``terms`` is a list of objects and each ``poly`` a string in the
        grammar.  ``nvars``, ``grade`` and each entry's ``indices`` and ``poly``
        are required, and a missing one is refused by name.  It is refused as
        ``PolyMVF(...)`` refuses it, and its terms are read as integers
        (``polyalg._parse_terms``) over one lcm."""
        _json_require(obj, ("nvars", "grade"), "a field")
        nvars = _as_int(obj["nvars"], "nvars", 1, MAX_NVARS)
        grade = _as_int(obj["grade"], "grade", 0)
        weights = _json_ints(obj, "weights") if "weights" in obj else None
        terms = {}
        for entry in _json_list(obj, "terms", True) if "terms" in obj else ():
            _json_require(entry, ("indices", "poly"), "a 'terms' entry")
            idx = _json_ints(entry, "indices")
            if idx in terms:
                raise ValueError(f"repeated index tuple {list(idx)} in terms")
            terms[idx] = list(_parse_terms(entry["poly"], nvars))
        zero = cls(nvars, grade, None, weights)  # the weights checked as PolyMVF(...) checks them
        den = math.lcm(*(d for t in terms.values() for _, _, d in t))
        ints: dict[tuple, int] = {}
        for idx, t in terms.items():
            legs = _check_legs(idx, nvars, grade)
            for exps, num, d in t:
                _add_term(ints, (_grade(zero.weights, legs, exps), legs, exps), num * (den // d))
        return zero._like(ints, den)

    def __repr__(self):
        texts = self._texts()
        if self.grade == 0:
            body = texts[0][1] if texts else "0"
        else:
            body = " + ".join(f"({text}) " + "^".join(f"d{i}" for i in legs)
                              for legs, text in texts) or "0"
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

    It is one ``_multiply`` of the packed operands, the kernel's product, so
    repeated legs wedge to zero and their product is never formed.  Grades
    add: W's groups are packed one grade up, as ``_decode`` takes 1 off g + h.
    """
    W._check(V)
    n = W.nvars
    (width, units, low), sums = _layout(n, W._ints, V._ints), {}
    gbit = 1 << (low + n)
    _multiply(sums, [(m, g + 1, (g + 1) * gbit, 1, monos) for m, g, monos in _pack(W._ints, units)],
              [(m, h, h * gbit, 1, monos) for m, h, monos in _pack(V._ints, units)], low, math.inf)
    return PolyMVF._raw(n, W.grade + V.grade, _decode(sums, n, width), W.weights, W.den * V.den)


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
    g + h - 1 > max_grade is skipped before it is multiplied (``_products``).
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
# ``PolyMVF._ints``.  ``_pack`` packs each exponent vector into one int,
# ``width`` bits per variable with x_i at bit width*(i-1), and groups the
# monomials by leg mask and grade.  Packed words add as exponent vectors do,
# as long as every exponent of a product fits its field, and a derivative d_i
# reads e_i off field i and subtracts 1 << width*(i-1) (Monagan & Pearce,
# CASC 2007).  ``_products`` keys its sums by one int: the output word, its
# leg mask at bit low = n*width and the grades g + h at bit top = low + n,
# which add through, so ``key >> low`` is the key's group in a next bracket's
# operand.  A monomial is ``(word, c, col)``.  ``col`` is None, but in ``_bracket_rows``,
# the matrix entry, it is a basis column, and ``_multiply`` adds into rows ``[key][col]``
# keyed without grade bits.

def _schouten_sums(W: dict, V: dict, weights: tuple, max_grade) -> dict:
    """The bracket of integer operands: packed, one ``_products`` step, decoded.

    It is ``{(grade, legs, exps): c}``, nonzero, over the product of the
    operands' denominators.  ``max_grade`` is the bound of ``_products``.
    """
    if W is V and (not W or len(next(iter(W))[1]) % 2):  # [W, W], as in the module docstring
        return {}
    n = len(weights)
    width, units, low = _layout(n, W, V)
    P = _pack(W, units)
    return _decode(_products(P, P if W is V else _pack(V, units), n, width,
                             math.inf if max_grade is None else max_grade + 1), n, width)


def _bracket_rows(pi: PolyMVF, basis, max_grade: int | None = None):
    """The matrix of [pi, .] on a monomial basis, as ``(den, rows, decode)``.

    It is ``rows / den``, ``den`` pi's denominator: sparse rows ``{col: int}`` of
    nonzero ``int``s keyed by packed monomials, which ``decode`` turns into (legs,
    exps).  Column c is ``basis[c]``, trusted to be as ``graded_basis`` builds it.
    With ``max_grade`` set, only rows of grade <= ``max_grade`` are formed, and only
    then are columns packed at their grades (else at 0, saving a ``_grade`` each).
    Each basis monomial carries its column, ``(word, 1, col)``, so ``_multiply``
    adds each product into its row, and drops an entry or a row that cancels.
    """
    n, bounded, groups = pi.nvars, max_grade is not None, {}
    width, units, low = _layout(n, pi._ints, basis)
    for col, (legs, exps) in enumerate(basis):
        groups.setdefault((legs, _grade(pi.weights, legs, exps) if bounded else 0), []).append(
            (sum(map(mul, exps, units)), 1, col))
    rows = _products(_pack(pi._ints, units),
                     [(_mask(legs), g, monos) for (legs, g), monos in groups.items()],
                     n, width, max_grade + 1 if bounded else math.inf)
    legs, field, shifts = functools.cache(_legs), (1 << width) - 1, range(0, low, width)
    return pi.den, rows, lambda key: (legs(key >> low), tuple([key >> s & field for s in shifts]))


def _layout(n: int, *operands) -> tuple:
    """``(width, units, low)`` of words holding each exponent of a product of operands."""
    degree = sum(max(map(sum, map(itemgetter(-1), X)), default=0) for X in operands)
    width = max(degree, 1).bit_length()
    return width, [1 << (width * v) for v in range(n)], n * width


def _pack(X: dict, units: list) -> list:
    """X as ``[(mask, grade, [(word, c, None)])]``."""
    groups: dict[tuple, list] = {}
    for (g, legs, exps), c in X.items():
        groups.setdefault((legs, g), []).append((sum(map(mul, exps, units)), c, None))
    return [(_mask(legs), g, monos) for (legs, g), monos in groups.items()]


def _products(W: list, V: list, n: int, width: int, limit) -> dict:
    """The sums, zeros kept, of the 2n products of the module docstring on packed operands
    (V is W for a self-bracket), or, if V has columns, their rows less what cancels.  A
    derivative keeps its monomial's grade.  A finite ``limit`` drops on entry a group whose
    grade plus the other operand's least grade exceeds it, and skips pairs with g + h > it."""
    twice, low, cols = W is V, n * width, bool(V) and V[0][2][0][2] is not None
    field, gbit = (1 << width) - 1, 0 if cols else 1 << (low + n)
    if limit < math.inf:
        least_W, least_V = (min((g for _, g, _ in X), default=0) for X in (W, V))
        W = [x for x in W if x[1] + least_V <= limit]
        V = W if twice else [x for x in V if x[1] + least_W <= limit]
    sums: dict = {}

    def d_x(X, v):
        """d/dx_v: the monomials with e_v > 0, lowered and times e_v."""
        shift = width * v
        unit, bits = 1 << shift, field << shift
        return [(m, g, g * gbit, 1, lowered) for m, g, monos in X
                if (lowered := [(word - unit, c * (e >> shift), col) for word, c, col in monos
                                if (e := word & bits)])]

    for v in range(n):
        bit = 1 << v
        # xi_v taken off the right of each leg set of W and off the left of
        # V's; the minus of the second product rides on d^L_{xi_v} V, and the
        # 2 of a self-bracket on d^R_{xi_v} W
        _multiply(sums, [(m ^ bit, g, g * gbit, (2 if twice else 1) * _merge_sign(m ^ bit, bit),
                          monos) for m, g, monos in W if m & bit], d_x(V, v), low, limit)
        if not twice:
            _multiply(sums, d_x(W, v), [(m ^ bit, g, g * gbit, -_merge_sign(bit, m ^ bit), monos)
                                        for m, g, monos in V if m & bit], low, limit)
    return sums


def _multiply(sums: dict, A: list, B: list, low: int, limit) -> None:
    """Add A B, leg sets of A first, of ``[(mask, grade, grade bits, sign, monos)]`` into ``sums``
    (into rows ``sums[key][col]`` where B has columns), skipping shared legs and gA + gB > limit."""
    for mA, gA, xA, sA, a_monos in A:
        for mB, gB, xB, sB, b_monos in B:
            if mA & mB or gA + gB > limit:
                continue
            s, off = sA * sB * _merge_sign(mA, mB), ((mA | mB) << low) + xA + xB
            for wa, c, _ in a_monos:
                base, sc = wa + off, s * c
                for wb, d, col in b_monos:
                    if col is None:
                        sums[key] = sums.get(key := base + wb, 0) + sc * d
                    elif (row := sums.get(key := base + wb)) is None:
                        sums[key] = {col: sc * d}
                    elif x := row.pop(col, 0) + sc * d:
                        row[col] = x
                    elif not row:
                        del sums[key]


def _decode(sums: dict, n: int, width: int) -> dict:
    """Graded sums ``{key: c}`` as ``{(grade, legs, exps): c}``, zeros dropped."""
    low, field, legs_of = n * width, (1 << width) - 1, (1 << n) - 1
    shifts = range(0, low, width)
    sums = {key: c for key, c in sums.items() if c}
    legs = {m: _legs(m) for m in {key >> low & legs_of for key in sums}}
    return {((key >> (low + n)) - 1, legs[key >> low & legs_of],
             tuple((key >> s) & field for s in shifts)): c for key, c in sums.items()}


def _ad_series(X: PolyMVF, u: PolyMVF, max_grade: int) -> PolyMVF:
    """sum_k ad_X^k(u)/k! up to grade ``max_grade``, for X of least grade >= 2.

    Step k brackets step k - 1's packed sums into T_k = ad_X^k(u) den_u den_X^k
    in one bounded ``_products``.  Over den_u den_X^k k!, the terms 1..k sum to
    acc_k = acc_(k-1) den_X k + T_k, which is decoded once and added to u.  A
    step raises the least grade by least_X - 1 or more, so at most s =
    (max_grade - least_u) // (least_X - 1) + 1 steps are taken, and a field of
    a word holds deg u + s deg X (u is a ``max_grade``-jet, so s >= 1).
    """
    if u.is_zero() or X.is_zero():
        return u
    n, steps = u.nvars, (max_grade - u.min_grade()) // (X.min_grade() - 1) + 1
    width, units, low = _layout(n, u._ints, *[X._ints] * steps)
    word_bits = (1 << low) - 1
    Xp, T, acc, N = _pack(X._ints, units), _pack(u._ints, units), {}, 0
    while T:
        sums, groups = _products(Xp, T, n, width, max_grade + 1), {}
        for key, c in sums.items():
            if c:
                groups.setdefault(key >> low, []).append((key & word_bits, c, None))
        if T := [(k & (1 << n) - 1, (k >> n) - 1, monos) for k, monos in groups.items()]:
            N += 1
            acc = {key: c * X.den * N for key, c in acc.items()}
            for key, c in sums.items():
                acc[key] = acc.get(key, 0) + c
    return u + PolyMVF._raw(u.nvars, u.grade, _decode(acc, n, width), u.weights,
                            u.den * X.den ** N * math.factorial(N))


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
