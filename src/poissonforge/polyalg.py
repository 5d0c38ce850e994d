"""Exact rational substrate: sparse multivariate polynomials and exact linear solving.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``).
Polynomials are stored sparsely as a map from exponent vectors to nonzero
coefficients, with graded-lexicographic term order used for all canonical
output.  The linear solver performs exact elimination with a fixed pivot
rule, so every result (particular solution, kernel basis, infeasibility
witness) is deterministic and certified.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

Rational = Fraction

__all__ = [
    "Rational",
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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {value!r} as an exact rational coefficient")


class Poly:
    """Sparse polynomial in ``nvars`` variables with exact rational coefficients.

    ``terms`` maps exponent tuples (length ``nvars``, nonnegative entries) to
    nonzero ``Fraction`` coefficients.  Zero coefficients are never stored.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = int(nvars)
        clean: dict[tuple, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent vector {exps} for nvars={self.nvars}")
                c = _as_fraction(coeff)
                if c != 0:
                    clean[exps] = clean.get(exps, Fraction(0)) + c
                    if clean[exps] == 0:
                        del clean[exps]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value) -> "Poly":
        c = _as_fraction(value)
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        """The coordinate ``x_index`` (1-based)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        exps = [0] * nvars
        exps[index - 1] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exps: Sequence[int], coeff=1) -> "Poly":
        return cls(nvars, {tuple(exps): _as_fraction(coeff)})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def weighted_degrees(self, mask: Iterable[int]) -> set:
        """Set of degrees counted over the masked variable positions (0-based)."""
        mask = tuple(mask)
        return {sum(e[i] for i in mask) for e in self.terms}

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def sorted_terms(self):
        """Terms in graded-lex order, highest first."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps, Fraction(0)) + c
            if s == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return Poly.zero(self.nvars)
            out = Poly.__new__(Poly)
            out.nvars = self.nvars
            out.terms = {e: c * v for e, v in self.terms.items()}
            return out
        self._check(other)
        terms: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Partial derivative with respect to ``x_index`` (1-based)."""
        i = index - 1
        terms = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                terms[tuple(ne)] = c * e[i]
        return Poly(self.nvars, terms)

    def substitute_scale(self, t, mask: Iterable[int]) -> "Poly":
        """Replace ``x_i -> t*x_i`` for each 1-based index i in ``mask``."""
        t = _as_fraction(t)
        positions = {i - 1 for i in mask}
        terms = {}
        for e, c in self.terms.items():
            d = sum(e[i] for i in positions)
            nc = c * t**d
            if nc != 0:
                terms[e] = nc
        return Poly(self.nvars, terms)

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == degree})

    # -- evaluation ---------------------------------------------------

    def eval_exact(self, point: Sequence) -> Fraction:
        value = Fraction(0)
        point = [_as_fraction(p) for p in point]
        for e, c in self.terms.items():
            term = c
            for x, k in zip(point, e):
                if k:
                    term *= x**k
            value += term
        return value

    def eval_numeric(self, points: np.ndarray) -> np.ndarray:
        """Vectorized float evaluation at ``points`` of shape (..., nvars)."""
        points = np.asarray(points, dtype=float)
        out = np.zeros(points.shape[:-1])
        for e, c in self.terms.items():
            term = np.full(points.shape[:-1], float(c))
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
# Text grammar:  poly := term (('+'|'-') term)*
#                term := coeff ('*' varpow)* | varpow ('*' varpow)*
#                coeff := int | int '/' posint
#                varpow := 'x' index ('^' posexp)?
# Whitespace insignificant; variable indices are 1-based.
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<var>x\d+)|(?P<num>\d+)|(?P<op>[-+*/^]))")


def format_poly(p: Poly) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for exps, coeff in p.sorted_terms():
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(exps) if k]
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise PolyParseError(f"unexpected character at position {pos}: {text[pos:]!r}")
            break
        if m.group("var"):
            tokens.append(("var", m.group("var")))
        elif m.group("num"):
            tokens.append(("num", m.group("num")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse the polynomial grammar, e.g. ``1/2*x1^2*x3 - x2``."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial string")

    result = Poly.zero(nvars)
    i = 0

    def parse_varpow(i):
        if i >= len(tokens):
            raise PolyParseError("expected variable, got end of input")
        kind, tok = tokens[i]
        if kind != "var":
            raise PolyParseError(f"expected variable, got {tok!r}")
        index = int(tok[1:])
        if index < 1 or index > nvars:
            raise PolyParseError(f"variable index {index} out of range 1..{nvars} (indices are 1-based)")
        i += 1
        power = 1
        if i < len(tokens) and tokens[i] == ("op", "^"):
            i += 1
            if i >= len(tokens) or tokens[i][0] != "num":
                raise PolyParseError("expected exponent after '^'")
            power = int(tokens[i][1])
            if power < 1:
                raise PolyParseError("exponents must be positive")
            i += 1
        return index, power, i

    while i < len(tokens):
        sign = Fraction(1)
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= len(tokens):
            raise PolyParseError("dangling sign")

        coeff = Fraction(1)
        exps = [0] * nvars
        if tokens[i][0] == "num":
            num = int(tokens[i][1])
            i += 1
            if i < len(tokens) and tokens[i] == ("op", "/"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "num":
                    raise PolyParseError("expected denominator after '/'")
                den = int(tokens[i][1])
                if den <= 0:
                    raise PolyParseError("denominator must be positive")
                coeff = Fraction(num, den)
                i += 1
            else:
                coeff = Fraction(num)
            while i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                index, power, i = parse_varpow(i)
                exps[index - 1] += power
        elif tokens[i][0] == "var":
            index, power, i = parse_varpow(i)
            exps[index - 1] += power
            while i < len(tokens) and tokens[i] == ("op", "*"):
                i += 1
                index, power, i = parse_varpow(i)
                exps[index - 1] += power
        else:
            raise PolyParseError(f"unexpected token {tokens[i][1]!r}")

        result = result + Poly.monomial(nvars, exps, sign * coeff)
        if i < len(tokens) and tokens[i] not in (("op", "+"), ("op", "-")):
            raise PolyParseError(f"expected '+' or '-' after a term, got {tokens[i][1]!r}")
    return result


# ---------------------------------------------------------------------------
# Exact linear solving
# ---------------------------------------------------------------------------

@dataclass
class SolveOutcome:
    """Result of an exact linear solve ``A x = b``.

    When feasible, ``particular`` is the RREF particular solution (free
    variables set to zero) and ``kernel_basis`` spans ker A.  When
    infeasible, ``witness`` is a row combination w with ``w A = 0`` and
    ``w . b = 1``: the RREF particular solution of
    ``[A^T; b^T] w = (0, ..., 0, 1)``, which by the Fredholm alternative is
    solvable exactly when ``A x = b`` is not.  It is computed only for
    infeasible systems.
    """

    status: str  # "feasible" | "infeasible"
    particular: list | None = None
    kernel_basis: list = field(default_factory=list)
    witness: list | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _to_sparse_rows(A, ncols=None):
    rows = []
    width = 0
    for row in A:
        dense = not isinstance(row, dict)
        items = enumerate(row) if dense else row.items()
        sr = {int(j): fv for j, v in items if (fv := _as_fraction(v)) != 0}
        width = max(width, len(row) if dense else max(sr, default=-1) + 1)
        rows.append(sr)
    if ncols is None:
        ncols = width
    return rows, ncols


def _eliminate(rows: list, rhs: list, ncols: int) -> list:
    """Reduce sparse ``rows`` to RREF in place, carrying ``rhs`` along.

    The pivot of each column is the first unused row with a nonzero entry in
    it, so the result is deterministic.  Returns the (column, row) pivots;
    every other row ends up empty.
    """
    nrows = len(rows)
    used = [False] * nrows
    pivots = []
    for col in range(ncols):
        pivot = next((i for i in range(nrows) if not used[i] and col in rows[i]), None)
        if pivot is None:
            continue
        used[pivot] = True
        pivots.append((col, pivot))
        pv = rows[pivot][col]
        if pv != 1:
            rows[pivot] = {j: v / pv for j, v in rows[pivot].items()}
            rhs[pivot] = rhs[pivot] / pv
        prow, prhs = rows[pivot], rhs[pivot]
        for i in range(nrows):
            f = rows[i].get(col)
            if i == pivot or not f:
                continue
            ri = rows[i]
            for j, v in prow.items():
                s = ri.get(j, 0) - f * v
                if s:
                    ri[j] = s
                else:
                    ri.pop(j, None)
            if prhs:
                rhs[i] -= f * prhs
    return pivots


def _witness(A, b: list, ncols: int) -> list:
    """RREF particular solution w of ``[A^T; b^T] w = (0, ..., 0, 1)``."""
    rows, _ = _to_sparse_rows(A, ncols)
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, v in row.items():
            cols[j][i] = v
    cols.append({i: v for i, v in enumerate(b) if v != 0})
    rhs = [Fraction(0)] * ncols + [Fraction(1)]
    w = [Fraction(0)] * len(rows)
    for col, row in _eliminate(cols, rhs, len(rows)):
        w[col] = rhs[row]
    return w


def solve_linear_exact(A, b, ncols: int | None = None) -> SolveOutcome:
    """Solve ``A x = b`` exactly over the rationals.

    ``A`` is a sequence of rows; each row is either a dense sequence or a
    sparse ``{column: value}`` dict (pass ``ncols`` with sparse rows).
    Elimination uses a fixed pivot rule -- the first remaining row with a
    nonzero entry in the leftmost unresolved column -- so the output is
    deterministic.  Infeasibility is a status, never an exception; only then
    is the witness of ``SolveOutcome`` computed, by a second elimination.
    """
    rows, ncols = _to_sparse_rows(A, ncols)
    b = [_as_fraction(v) for v in b]
    if len(b) != len(rows):
        raise ValueError(f"dimension mismatch: {len(rows)} rows vs {len(b)} rhs entries")
    rhs = list(b)
    pivots = _eliminate(rows, rhs, ncols)

    # Infeasibility: an eliminated row with zero coefficients but nonzero rhs.
    if any(c != 0 and not row for row, c in zip(rows, rhs)):
        return SolveOutcome(status="infeasible", witness=_witness(A, b, ncols))

    particular = [Fraction(0)] * ncols
    for col, row in pivots:
        particular[col] = rhs[row]

    pivot_cols = {col for col, _ in pivots}
    kernel = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for col, row in pivots:
            coeff = rows[row].get(free)
            if coeff:
                vec[col] = -coeff
        kernel.append(vec)

    return SolveOutcome(status="feasible", particular=particular, kernel_basis=kernel)


def exact_rank(A, ncols: int | None = None) -> int:
    """Rank of a rational matrix: the pivot count of the same exact elimination."""
    rows, ncols = _to_sparse_rows(A, ncols)
    return len(_eliminate(rows, [Fraction(0)] * len(rows), ncols))
