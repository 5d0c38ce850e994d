"""Exact rational substrate: sparse multivariate polynomials and exact linear solving.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``).
Polynomials are stored sparsely as a map from exponent vectors to nonzero
coefficients, with graded-lexicographic term order used for all canonical
output.

The linear solver returns the RREF answer (particular solution and kernel
basis, or a witness of infeasibility), which depends only on the system.
``solve_linear_exact`` and ``exact_rank`` read every answer off one RREF,
``_rref``, found by one certified multi-modular path: the rows of a matrix
with a ``Fraction`` are cleared by ``_over_lcm``, the package's one converter
to integers over the lcm of the denominators, the matrix is reduced
modulo one prime after another, counting down from ``2^30 - 35``, by sparse
Gauss-Jordan on dict rows of Python ints, the residues of the primes that
share the best pivot set are combined by the Chinese remainder theorem, and
the kernel basis is lifted by rational reconstruction into one integer form:
each vector sparse ints over one denominator.  One exact integer check,
``M v = 0`` for each of those vectors, certifies the lift; until it passes,
the next prime is taken.  A solve reduces ``M = [A | b]``, so the same
certificate covers feasibility, infeasibility and the witness; ``b``
goes into new rows, never into a row it is given.  All of it runs in
Python ints, so no entry is too large for it, and a ``SolveOutcome``
holds its vectors in that one form: they become ``Fraction``s only where
they are read.  The ranks of a complex, whose matrices
compose to zero, are taken each on a complement of the image of the one
before, and certified by its exactness where that suffices
(``_complex_ranks``), and by ``_rref`` where it does not.

Data is validated where it enters and trusted inside.  The public
``Poly(nvars, terms)``, the ``zero``/``constant``/``variable``/``monomial``
constructors and ``parse_poly`` refuse what they would have to reinterpret:
``nvars``, an exponent or an index must be an integer (``_as_int``), a
coefficient exact (``_as_fraction``), and neither a ``bool``.  Every
integer argument of the package, a grade, order, degree or count, is read
by ``_as_int`` too, and every real one, a radius, time, step or scale, by
``_as_real``.  Results the kernel builds from polynomials that already
passed those checks (sums, products, derivatives, graded pieces) are
wrapped by ``Poly._raw`` without re-checking; ``_add_term`` is the one
accumulator that keeps stored coefficients nonzero.  A matrix is checked
row by row, a dense one as dicts (``_to_sparse_rows``), except ``_Rows``.

The text grammar has one reader, ``_parse_terms``, which yields each term
as integers ``(exps, num, den)``, and one writer, ``_format_terms``, of
reduced integer terms.  ``parse_poly`` and ``format_poly`` go through them
for a ``Poly``, and a multivector field's JSON and ``repr`` go through them
from its numerators, with no ``Fraction``.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
import numbers
import operator
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # annotations only: NumPy is imported where floats are computed
    import numpy as np

__all__ = [
    "Poly",
    "SolveOutcome",
    "solve_linear_exact",
    "exact_rank",
    "parse_poly",
    "format_poly",
    "PolyParseError",
]


class PolyParseError(ValueError):
    """Raised when a polynomial string violates the text grammar."""


def _as_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an ``int``: anything ``operator.index`` takes but a ``bool``,
    at least ``low`` and at most ``high`` when given; anything else raises
    ``ValueError``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name!r} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name!r} must be at least {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name!r} must be at most {high}, got {value}")
    return value


def _as_real(value, name: str, positive: bool = False) -> float:
    """``value`` as a finite ``float``, above 0 when ``positive``: any real number but
    a ``bool``; anything else, NaN and the infinities included, raises ``ValueError``."""
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError
        real = float(value)                      # an int past the float range overflows
        if not math.isfinite(real):
            raise TypeError
    except (TypeError, OverflowError):
        raise ValueError(f"{name!r} must be a finite real number, got {value!r}") from None
    if positive and real <= 0:
        raise ValueError(f"{name!r} must be > 0, got {real!r}")
    return real


def _as_float(c, exps) -> float:
    """``float(c)`` of a nonzero exact coefficient of x^exps, refused by a ``ValueError``
    naming the monomial where ``float`` overflows (it raises, never returns inf) or is 0."""
    with contextlib.suppress(OverflowError):
        if real := float(c):
            return real
    raise ValueError(f"the coefficient of {_format_terms([(exps, 1, 1)])} is out of float range")


def _as_sequence(value, name: str):
    """``value``, but ``ValueError`` for a string or a mapping, whose characters or
    keys are no entries, and for anything not iterable, such as a bare number."""
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise ValueError(f"{name!r} must be a sequence, got {value!r}")
    return value


def _as_fraction(value) -> Fraction:
    """An ``int``, ``Fraction`` or rational string as a ``Fraction``, else ``TypeError``."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact rational coefficient")


def _add_term(terms: dict, key, value):
    """``terms[key] += value``, dropping ``key`` when the sum is zero.

    Serves any value type whose zero is falsy: ``Fraction`` coefficients of a
    ``Poly`` and ``Poly`` coefficients of a multivector field.
    """
    s = terms.get(key)
    s = value if s is None else s + value
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def _over_lcm(values: dict) -> tuple:
    """``(ints, den)``: the nonzero ``int`` and ``Fraction`` values of the dict as
    integers at the same keys, over the lcm ``den`` of their denominators (coprime to them)."""
    den = math.lcm(*(v.denominator for v in values.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in values.items() if v}, den


class Poly:
    """Sparse polynomial in ``nvars`` variables with exact rational coefficients.

    ``terms`` maps exponent tuples (length ``nvars``, nonnegative entries) to
    nonzero ``Fraction`` coefficients.  Zero coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = _as_int(nvars, "nvars", 0)
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(_as_int(e, "exponent") for e in exps)
                if len(exps) != self.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps} for nvars={self.nvars}")
                _add_term(clean, exps, _as_fraction(coeff))
        self.terms = clean

    @staticmethod
    def _raw(nvars: int, terms: dict) -> "Poly":
        """Wrap ``terms`` without checks.

        Trusted: ``nvars`` is an int, every key is a tuple of ``nvars``
        nonnegative ints and every value a nonzero ``Fraction``.  The dict is
        taken over, not copied.
        """
        out = Poly.__new__(Poly)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        nvars = _as_int(nvars, "nvars", 0)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The coordinate ``x_index`` (1-based)."""
        nvars, index = _as_int(nvars, "nvars", 0), _as_int(index, "index")
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        return cls(nvars, {tuple(int(m == index) for m in range(1, nvars + 1)): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff=1) -> "Poly":
        return cls(nvars, {tuple(exps): coeff})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def sorted_terms(self):
        """Terms in graded-lex order, highest first."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            _add_term(terms, exps, c)
        return Poly._raw(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -_as_fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _as_fraction(other)
            return Poly._raw(self.nvars, {e: c * v for e, v in self.terms.items()} if c else {})
        self._check(other)
        terms: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_term(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Poly._raw(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _as_int(n, "power", 0)
        result = Poly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Poly.constant(self.nvars, other)
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Partial derivative with respect to ``x_index`` (1-based)."""
        if not 1 <= (index := _as_int(index, "index")) <= self.nvars:
            raise ValueError(f"variable index {index} outside 1..{self.nvars}")
        i = index - 1
        terms = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = c * e[i]
        return Poly._raw(self.nvars, terms)

    # -- evaluation ---------------------------------------------------

    def eval_numeric(self, points: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation at ``points`` of shape (..., nvars)."""
        import numpy as np
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1])
        for e, c in self.terms.items():
            term = np.full(points.shape[:-1], _as_float(c, e))
            for i, k in enumerate(e):
                if k:
                    term = term * points[..., i] ** k
            out = out + term
        return out

    def __repr__(self):
        return f"Poly({self.nvars}, {format_poly(self)!r})"

    def __str__(self):
        return format_poly(self)


# ---------------------------------------------------------------------------
# Text grammar (whitespace may separate any two tokens; indices are 1-based):
#   poly   := signs? term (signs term)*        signs := ('+' | '-')+
#   term   := int ('/' int)? ('*' varpow)*  |  varpow ('*' varpow)*
#   varpow := 'x' int ('^' int)?
# An odd number of '-' in a sign run negates the term.  Digit runs may have
# leading zeros; every index must lie in 1..nvars, every exponent and every
# denominator must be positive.
# ---------------------------------------------------------------------------

_VARPOW = re.compile(r"x(\d+)(?:\s*\^\s*(\d+))?")
_TERM = re.compile(rf"\s*(?P<signs>(?:[-+]\s*)*)"
                   rf"(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?|{_VARPOW.pattern})"
                   rf"(?:\s*\*\s*{_VARPOW.pattern})*\s*")


def _format_terms(terms) -> str:
    """The text of reduced terms ``(exps, num, den)``, ``den > 0`` coprime to
    ``num != 0`` and the exponent vectors distinct, in graded-lex order, highest first."""
    pieces = []
    for exps, num, den in sorted(terms, key=lambda t: (sum(t[0]), t[0]), reverse=True):
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(exps) if k]
        mag = f"{abs(num)}" if den == 1 else f"{abs(num)}/{den}"
        if not factors:
            body = mag
        elif mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        if not pieces:
            pieces.append(body if num > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if num > 0 else '-'} {body}")
    return " ".join(pieces) or "0"


def format_poly(p: Poly) -> str:
    return _format_terms((e, c.numerator, c.denominator) for e, c in p.terms.items())


def _parse_terms(text: str, nvars: int):
    """The terms of ``text`` in the polynomial grammar, in order, each ``(exps,
    num, den)``: an exponent tuple of ``nvars`` ints and the signed integer
    coefficient ``num / den``, ``den > 0`` (not reduced, and exponent vectors
    may repeat).  A generator: the checks run as it is read."""
    if not isinstance(text, str):
        raise TypeError(f"polynomial text must be a string, got {text!r}")
    nvars = _as_int(nvars, "nvars", 0)
    if not text.strip():
        raise PolyParseError("empty polynomial string")
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None:
            raise PolyParseError(f"expected a term at position {pos}: {text[pos:]!r}")
        pos = m.end()
        if pos < len(text) and text[pos] not in "+-":
            raise PolyParseError(f"expected '+' or '-' at position {pos}: {text[pos:]!r}")
        den = int(m["den"] or 1)
        if den == 0:
            raise PolyParseError(f"denominator must be positive in {m[0].strip()!r}")
        exps = [0] * nvars
        for v in _VARPOW.finditer(m[0]):
            index, power = int(v[1]), int(v[2] or 1)
            if not 1 <= index <= nvars:
                raise PolyParseError(f"variable index {index} out of range 1..{nvars} "
                                     "(indices are 1-based)")
            if power < 1:
                raise PolyParseError(f"exponent {power} of x{index} must be positive")
            exps[index - 1] += power
        num = int(m["num"] or 1)
        yield tuple(exps), -num if m["signs"].count("-") % 2 else num, den


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse the polynomial grammar, e.g. ``1/2*x1^2*x3 - x2``."""
    terms: dict[tuple, Fraction] = {}
    for exps, num, den in _parse_terms(text, nvars):
        _add_term(terms, exps, Fraction(num, den))
    return Poly._raw(_as_int(nvars, "nvars", 0), terms)


# ---------------------------------------------------------------------------
# Exact linear solving
# ---------------------------------------------------------------------------

class SolveOutcome:
    """Result of an exact linear solve ``A x = b``.

    When feasible, ``particular`` is the RREF particular solution (free
    variables set to zero) and ``kernel_basis`` spans ker A.  When
    infeasible, ``witness`` is a row combination w with ``w A = 0`` and
    ``w . b = 1``: the RREF particular solution of
    ``[A^T; b^T] w = (0, ..., 0, 1)``, which by the Fredholm alternative is
    solvable exactly when ``A x = b`` is not.  It is computed only for
    infeasible systems.

    An outcome holds each vector as the certified RREF does, an ``(ints,
    den)`` of length ``n``: nonzero integers at keys in ``0..n-1`` over one
    positive denominator, coprime to them.  It is infeasible exactly when
    it has a ``witness``.  Each vector becomes a list of ``Fraction``s when
    first read, so a caller that reads only the integers, ``_particular``
    and ``_witness`` (``formal._solve_bracket_equation``), makes none.
    """

    def __init__(self, n: int, particular: tuple | None = None, kernel_basis=(),
                 witness: tuple | None = None):
        self.status = "feasible" if witness is None else "infeasible"
        self._n, self._particular, self._witness = n, particular, witness
        self._kernel_basis = kernel_basis

    @functools.cached_property
    def particular(self) -> list | None:
        return None if self._particular is None else _fraction_vector(*self._particular, self._n)

    @functools.cached_property
    def kernel_basis(self) -> list:
        return [_fraction_vector(*vector, self._n) for vector in self._kernel_basis]

    @functools.cached_property
    def witness(self) -> list | None:
        return None if self._witness is None else _fraction_vector(*self._witness, self._n)

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def _fields(self) -> tuple:
        return self.status, self.particular, self.kernel_basis, self.witness

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return ("SolveOutcome(status={!r}, particular={!r}, kernel_basis={!r}, witness={!r})"
                .format(*self._fields()))


class _Rows(list):
    """Sparse rows the package builds itself: dicts of nonzero ``int``s at ``int``
    keys in ``0..ncols-1``, which ``_to_sparse_rows`` passes on unchecked."""


def _to_sparse_rows(A, ncols=None):
    """``A`` as sparse rows of nonzero exact entries, and its column count.

    An ``int`` entry stays an ``int``; a ``Fraction`` or a rational string
    becomes a ``Fraction``; any other entry, a ``bool`` or a ``float`` among
    them, raises ``ValueError``.

    ``ncols`` is read by ``_as_int``.  A dense row (no string or mapping) has
    ``ncols`` entries (with ``ncols`` None, as many as the first dense row) and
    is read as ``dict(enumerate(row))``.  Keys must be ints in ``0..ncols-1``
    (with ``ncols`` None, any int >= 0, and the count is one past the
    largest); a ``bool`` is not a key.  Anything else raises ``ValueError``.
    ``_Rows`` with ``ncols`` given are trusted and returned as they are: no
    solve writes into a row it is given, so none is copied.
    """
    ncols = ncols if ncols is None else _as_int(ncols, "ncols", 0)
    if type(A) is _Rows and ncols is not None:
        return A, ncols
    rows, top = [], 0
    for row in _as_sequence(A, "A"):
        if not isinstance(row, dict):
            row = _as_sequence(row, "dense row")
            if ncols is None:
                ncols = len(row)
            if len(row) != ncols:
                raise ValueError(f"dense row of length {len(row)} in a matrix of {ncols} columns")
            row = dict(enumerate(row))
        for j in row:
            if not isinstance(j, int) or isinstance(j, bool) or j < 0:
                raise ValueError(f"column key {j!r} is not an int >= 0")
        top = max(top, max(row, default=-1) + 1)
        rows.append({j: ev for j, v in row.items()
                     if (ev := v if type(v) is int else _matrix_entry(v))})
    if ncols is None:
        ncols = top
    elif top > ncols:
        raise ValueError(f"column key {top - 1} outside 0..{ncols - 1}")
    return rows, ncols


def _matrix_entry(v, name: str = "matrix entry") -> Fraction:
    """An ``int``, ``Fraction`` or rational string as a ``Fraction``; anything
    else, a ``bool`` or a ``float`` among them, raises ``ValueError`` naming it."""
    if isinstance(v, (int, Fraction, str)) and not isinstance(v, bool):
        return _as_fraction(v)
    raise ValueError(f"{name} {v!r} is not an exact rational")


# -- the certified modular path ----------------------------------------------
#
# A matrix M, its rows cleared to integers, is reduced mod one prime after
# another by sparse Gauss-Jordan (_rref_mod_p), the reductions are combined
# by CRT and lifted to Q, and the lift is checked with exact integer
# products, which makes it the RREF over Q:
# - the rank mod p never exceeds the rank over Q;
# - each free column f of the mod-p RREF lifts to a vector v_f with 1 at f,
#   0 at the other free columns and support left of f otherwise; M v_f = 0
#   makes column f dependent on earlier columns, so the n - r_p vectors give
#   rank_Q <= r_p, and equality pins the pivot columns to the mod-p ones;
# - a kernel vector is fixed by its free coordinates, so v_f is the RREF
#   kernel vector.

# i -> the i-th prime of the supply; racing threads store one value.  The first
# is the largest prime below 2^30: CPython stores ints in 30-bit digits, so
# every residue fits one digit and `% p` takes the one-digit path.
_PRIMES = {0: 2**30 - 35}


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, exact for odd ``7 < n <
    3,215,031,751`` (Jaeschke, Math. Comp. 61, 1993)."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    return not any(pow(a, d, n) != 1 and all(pow(a, d << k, n) != n - 1 for k in range(s))
                   for a in (2, 3, 5, 7))


def _primes():
    """The primes from 2^30 - 35 down to 11, each searched for once per process."""
    for i in itertools.count():
        if i not in _PRIMES:
            _PRIMES.setdefault(i, next(n for n in range(_PRIMES[i - 1] - 2, 7, -2) if _is_prime(n)))
        yield _PRIMES[i]


def _rref_mod_p(rows: list, p: int):
    """Sparse Gauss-Jordan over GF(p) on integer dict ``rows``.

    Returns ``(piv, tails, pivot_rows)``: the pivot columns, ascending, for
    each the residues of its reduced row off the pivot (where the row holds
    1), and the given rows that yielded a pivot, ``len(piv)`` rows that span
    the row space mod p.  A tail has no entry at any pivot column, so its
    keys are free columns.

    The rows go in descending order of their leading column.  Each is
    reduced by the pivot rows found so far, which can only move its leading
    column right, and that column becomes a pivot.  That column is cleared
    from the earlier pivot rows, but only those whose pivot lies left of it
    can hold an entry there, and in this order the new pivot almost always
    lies left of them all (Dumas & Villard, CASC 2002, on sparse elimination
    over GF(p)).

    ``settled`` holds the pivot columns whose tail is empty, where every
    kernel vector is 0.  Reducing a row by such a pivot row only deletes
    its entry there, so a row whose columns all lie in ``settled`` reduces
    to the empty row: it is skipped before it is copied, as structured
    Gaussian elimination drops such rows (LaMacchia & Odlyzko, CRYPTO '90).
    A tail never gains an entry once empty, since back-elimination only
    touches the tails that hold the new lead; it can empty one, which then
    joins the set.  So the set only grows, and ``(piv, tails)`` is what
    reducing every row gives.
    """
    tails: dict[int, dict] = {}
    piv: list[int] = []
    settled: set[int] = set()
    pivot_rows = []
    for given in sorted(filter(None, rows), key=min, reverse=True):
        if given.keys() <= settled:
            continue
        row = dict(given)
        for j in [j for j in row if j in tails]:
            f = row.pop(j)
            for c, v in tails[j].items():
                row[c] = row.get(c, 0) - f * v
        row = {j: r for j, v in row.items() if (r := v % p)}
        if not row:
            continue
        pivot_rows.append(given)
        lead = min(row)
        inv = pow(row.pop(lead), -1, p)
        tail = {j: v * inv % p for j, v in row.items()}
        at = bisect.bisect(piv, lead)
        for k in piv[:at]:
            t = tails[k]
            g = t.pop(lead, 0)
            if g:
                for c, v in tail.items():
                    if r := (t.get(c, 0) - g * v) % p:
                        t[c] = r
                    else:
                        del t[c]
                if not t:
                    settled.add(k)
        piv.insert(at, lead)
        tails[lead] = tail
        if not tail:
            settled.add(lead)
    return piv, [tails[k] for k in piv], pivot_rows


def _lift(u: int, m: int, bound: int):
    """Wang's rational reconstruction of the residue ``u`` mod ``m`` (Wang,
    Guy & Davenport, SIGSAM Bull. 16, 1982): ``(num, den)`` with ``num = den
    * u`` mod m, ``|num|, den <= bound`` and ``gcd(num, den) = 1``, or None.
    With ``2 bound^2 < m`` at most one such pair exists.
    """
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return (-r1, -t1) if t1 < 0 else (r1, t1)


def _lift_kernel(ncols: int, piv: list, tails: list, m: int):
    """The RREF kernel basis lifted from the residues ``tails`` mod ``m``, or
    None at the first entry that does not lift.

    Returns ``{f: (ints, den)}`` by ascending free column ``f``: the kernel
    vector of ``f`` is ``ints / den``, sparse integers over the lcm ``den``
    of its entries' denominators, with ``ints[f] == den``.  Its entry at
    pivot column ``p`` lifts ``m`` minus the residue of ``f`` in the tail of ``p``.
    """
    bound = math.isqrt(m // 2)  # Wang's bound: 2 bound^2 < m
    pivots = set(piv)
    dens = {f: 1 for f in range(ncols) if f not in pivots}
    lifted = []
    for p, tail in zip(piv, tails):
        for f, u in tail.items():
            frac = _lift(m - u, m, bound)
            if frac is None:
                return None
            lifted.append((p, f, *frac))
            dens[f] = math.lcm(dens[f], frac[1])
    kernel = {f: ({f: den}, den) for f, den in dens.items()}
    for p, f, num, den in lifted:
        kernel[f][0][p] = num * (dens[f] // den)
    return kernel


def _check_exact(rows: list, ncols: int, kernel: dict) -> bool:
    """``M ints = 0`` in integers for each ``(ints, den)`` of the ``kernel``
    that ``_lift_kernel`` returns, the very vectors every answer is read off.

    ``column[j]`` holds the entries at j of the vectors, keyed by free
    column, and each row sums its products per vector.  A row with no
    column in the kernel's ``support`` has the product 0 with every vector,
    so it is skipped and the verdict is unchanged.  With no free column
    there is nothing to check: the rank mod p is full, so over Q too.
    """
    if not kernel:
        return True
    column = [{} for _ in range(ncols)]
    for f, (ints, _) in kernel.items():
        for j, v in ints.items():
            column[j][f] = v
    support = {j for j, c in enumerate(column) if c}
    for row in rows:
        if support.isdisjoint(row):
            continue
        acc = {}
        for j, a in row.items():
            for f, w in column[j].items():
                acc[f] = acc.get(f, 0) + a * w
        if any(acc.values()):
            return False
    return True


def _rref(rows: list, ncols: int, first=None):
    """The RREF of the sparse rational matrix ``rows`` with ``ncols`` columns.

    Returns ``(piv, kernel)``: the pivot columns, ascending, and the RREF
    kernel basis ``{f: (ints, den)}`` of ``_lift_kernel``, integers over one
    denominator per vector, as ``_check_exact`` certified it.

    ``first``, passed only by ``_complex_ranks``, is ``_rref_mod_p(rows, p)``
    of integer ``rows`` at the first prime ``p`` of ``_primes()``, already
    computed: the loop starts from it instead of reducing the matrix again
    (its tails are updated in place).
    """
    if set(map(type, itertools.chain.from_iterable(map(dict.values, rows)))) - {int}:
        rows = [_over_lcm(row)[0] for row in rows]
    best = None
    # Why this loop ends.  Let J be the pivot columns over Q and r = |J|.
    # Every prefix of columns has rank mod p at most its rank over Q, so a
    # pivot set mod p has at most r pivots, and with r of them it is J or
    # lies right of J: the prime with the most pivots, the leftmost set on a
    # tie, is the best so far.  A prime that gives J gives the residues of
    # the RREF over Q, which is M[I, J]^-1 M[I, :] for any r rows I whose
    # minor on J it does not divide.  Fix one such minor d != 0: a prime
    # that does not divide d gives J, so only finitely many primes fail.
    # Every RREF entry is a minor of M over d (Cramer), both at most
    # Hadamard's bound H, so once the primes that gave J multiply past
    # 2 H^2, Wang's reconstruction returns every entry and the check passes.
    # Each prime above 2^29 adds 29 bits, and about 2.6 * 10^7 primes lie
    # between 2^29 and 2^30.  Lifting only when the number of primes folded
    # into the residues is a power of two keeps this: a lift still comes once
    # their product passes 2 H^2, after at most twice as many primes.
    for p in _primes():
        piv, tails, _ = _rref_mod_p(rows, p) if first is None else first
        first = None
        if best is None or len(piv) > len(best) or (len(piv) == len(best) and piv < best):
            best, residues, m, folded = piv, tails, p, 1
        elif piv == best:
            inv = pow(m, -1, p)
            for old, new in zip(residues, tails):
                for f in old.keys() | new.keys():
                    u = old.get(f, 0)
                    old[f] = u + m * ((new.get(f, 0) - u) * inv % p)
            m *= p
            folded += 1
        else:
            continue
        if folded & (folded - 1):
            continue
        kernel = _lift_kernel(ncols, best, residues, m)
        if kernel is not None and _check_exact(rows, ncols, kernel):
            break
    return best, kernel


def _complex_ranks(rows_of, ncols: list) -> list:
    """The ranks r_k of the integer differentials d_k of a complex.

    d_k maps C^k, of dimension ``ncols[k]``, to C^{k+1}, and the caller
    guarantees d_{k+1} d_k = 0.  ``rows_of(k, skip) -> (rows by key, decode)``
    gives the rows of d_k on the columns of the C^k basis without the
    elements in ``skip``, numbered in order, as ``multivector._bracket_rows``
    gives them beside its denominator; ``decode`` names the C^{k+1} basis
    element of a key, and is called only on pivot rows' keys, none at the
    last k.

    Each d_k is built without the set P of C^k elements whose rows of d_{k-1}
    yielded the pivots modulo the first prime p.  Those rows are independent
    mod p, so over Q too: the image of d_{k-1} projects onto the coordinates
    P, over GF(p) and over Q, and every cochain is an image plus one off P.
    As d_k vanishes on the image, its rank mod p and over Q is that of its
    columns off P, and by the same argument one degree down, the columns
    d_{k-1} keeps give its whole image.  The sum need not be direct: over Q
    the image is larger than P where p lowers the rank of d_{k-1}, and the
    ranks still hold.  So the rank low_k of d_k modulo p is at most r_k, and

        r_k <= min(rows of d_k, dim C^k - r_{k-1}, dim C^{k+1} - low_{k+1}),

    with r_{-1} = 0 and the last term only where d_{k+1} is given.  Where
    low_k meets this bound, r_k = low_k with no lift; elsewhere ``_rref``
    certifies r_k on the same columns, continuing from the same reduction.
    """
    p = next(_primes())
    mats, first, skip = [], [], set()
    for k in range(len(ncols)):
        keyed, decode = rows_of(k, skip)
        mats.append(list(keyed.values()))
        first.append(_rref_mod_p(mats[-1], p))
        if k + 1 < len(ncols):
            yielded = set(map(id, first[-1][2]))
            skip = {decode(key) for key, row in keyed.items() if id(row) in yielded}
    low = [len(piv) for piv, _, _ in first]
    ranks = []
    for k, rows in enumerate(mats):
        up = min(len(rows), ncols[k] - (ranks[-1] if ranks else 0),
                 ncols[k + 1] - low[k + 1] if k + 1 < len(mats) else math.inf)
        width = ncols[k] - (low[k - 1] if k else 0)
        ranks.append(low[k] if low[k] == up else len(_rref(rows, width, first[k])[0]))
    return ranks


def _fraction_vector(ints: dict, den: int, n: int) -> list:
    """``ints / den``, its keys in ``0..n-1``, as a dense list of ``n`` Fractions."""
    vec = [Fraction(0)] * n
    for j, v in ints.items():
        vec[j] = Fraction(v, den)
    return vec


def solve_linear_exact(A, b, ncols: int | None = None) -> SolveOutcome:
    """Solve ``A x = b`` exactly over the rationals.

    ``A`` and ``b`` are sequences, never a string or a mapping, and each row
    of ``A`` is a dense sequence (the same) or a sparse ``{column: value}``
    dict (pass ``ncols`` with sparse rows).  The result is the RREF one: the
    particular solution has its free variables at zero and kernel vector f
    has 1 at free column f and 0 at the others.

    All of it is read off the certified RREF (``_rref``) of ``M = [A | b]``
    with ``b`` as column ``ncols`` (new rows ``{**row, ncols: c}`` for each
    nonzero ``c`` of ``b``): the system is infeasible exactly when
    that column is a pivot, and otherwise the particular solution is minus
    its kernel vector.  Infeasibility is a status, never an exception; only
    then is the witness of ``SolveOutcome`` computed, from the RREF of
    ``[[A^T, 0], [b^T, -1]]``: the kernel vector ``(w, 1)`` of its last
    column has ``w A = 0`` and ``w . b = 1``.  The outcome is built from
    these vectors as ``_rref`` lifted them, integers over one denominator each.
    """
    rows, ncols = _to_sparse_rows(A, ncols)
    b = [v if type(v) is int else _matrix_entry(v) for v in _as_sequence(b, "b")]
    if len(b) != len(rows):
        raise ValueError(f"dimension mismatch: {len(rows)} rows vs {len(b)} rhs entries")
    rows = [{**row, ncols: c} if c else row for row, c in zip(rows, b)]
    piv, kernel = _rref(rows, ncols + 1)
    if piv and piv[-1] == ncols:
        m = len(rows)
        transpose = [{} for _ in range(ncols + 1)]
        for i, row in enumerate(rows):
            for j, v in row.items():
                transpose[j][i] = v
        transpose[ncols][m] = -1
        _, kernel = _rref(transpose, m + 1)
        ints, den = kernel[m]
        return SolveOutcome(m, witness=({j: v for j, v in ints.items() if j < m}, den))
    ints, den = kernel.pop(ncols)
    particular = {j: -v for j, v in ints.items() if j < ncols}
    return SolveOutcome(ncols, (particular, den), list(kernel.values()))


def exact_rank(A, ncols: int | None = None) -> int:
    """Rank of a rational matrix: the pivot count of its RREF (``_rref``)."""
    rows, ncols = _to_sparse_rows(A, ncols)
    return len(_rref(rows, ncols)[0])
