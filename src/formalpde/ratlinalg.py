"""Exact linear algebra over QQ and over rational function fields QQ(chi_1,...,chi_s).

Scalars are `fractions.Fraction`; parametric scalars are reduced ratios of
multivariate polynomials with Fraction coefficients.  Every dimension count in
the rest of the package (solution spaces, symbols, cohomology, localized
kernels) reduces to the rank/kernel computations here, so all arithmetic is
exact and every result is deterministic: the reduced row echelon form is
unique, so the pivot order cannot change it.

A matrix is stored as sparse rows {column: nonzero entry} and nothing else;
callers build those rows straight from their own sparse data, and no module
here reads the dense view `ExactMatrix.entries`.  Over QQ, rows are cleared
of denominators and eliminated sparsely and fraction-free over the integers,
each row kept primitive; that forward pass (:func:`pivot_columns`) is all a
rank needs, and the RREF adds a sparse Gauss-Jordan back substitution.  Over
a function field, rows are cleared to polynomials with integer coefficients
and eliminated row by row with fraction-free (Bareiss) steps whose divisions
are exact; a rank is that forward pass, and the RREF adds a fraction-free
back substitution on the pivot rows and one field division per entry.  So
ranks over parameters are certified symbolically; no probabilistic shortcut
is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import Iterable, Sequence, Union

Scalar = Fraction


def _fraction_gcd(values: Iterable[Fraction]) -> Fraction:
    """gcd of a family of rationals: gcd of numerators over lcm of denominators."""
    num = 0
    den = 1
    for v in values:
        num = math.gcd(num, abs(v.numerator))
        den = den * v.denominator // math.gcd(den, v.denominator)
    if num == 0:
        return Fraction(0)
    return Fraction(num, den)


class Poly:
    """Multivariate polynomial in parameters chi_1..chi_s with Fraction coefficients.

    Terms are stored as a dict {exponent tuple: coefficient} with zero
    coefficients stripped; the zero polynomial has an empty dict.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        cleaned = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise ValueError("exponent arity mismatch")
                c = Fraction(c)
                if c:
                    cleaned[tuple(exps)] = c
        self.terms = cleaned

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.const(nvars, 1)

    @classmethod
    def var(cls, nvars: int, j: int) -> "Poly":
        """The parameter chi_{j+1} (0-based j)."""
        e = [0] * nvars
        e[j] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Poly") -> "Poly":
        return self - (-self._coerce(other))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(self.nvars, _psub(self.terms, self._coerce(other).terms))

    def __mul__(self, other) -> "Poly":
        return Poly(self.nvars, _pmul(self.terms, self._coerce(other).terms))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        result = Poly.one(self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(self.nvars, other)

    @property
    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def leading(self) -> tuple[tuple, Fraction]:
        """Leading (exponent, coefficient) under lexicographic order."""
        e = max(self.terms)
        return e, self.terms[e]

    def content(self) -> Fraction:
        return _fraction_gcd(self.terms.values())

    def primitive(self) -> "Poly":
        """Integer-coefficient part with positive leading coefficient."""
        if not self.terms:
            return self
        c = self.content()
        if self.terms[max(self.terms)] < 0:
            c = -c
        return Poly(self.nvars, {e: v / c for e, v in self.terms.items()})

    def div_exact(self, other: "Poly") -> "Poly":
        """Exact division; raises ValueError when `other` does not divide."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        if not self:
            return Poly.zero(self.nvars)
        rem = self
        quot: dict = {}
        le, lc = other.leading()
        while rem:
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, le))
            if any(x < 0 for x in qe):
                raise ValueError("inexact polynomial division")
            qc = rc / lc
            quot[qe] = quot.get(qe, Fraction(0)) + qc
            rem = rem - Poly(self.nvars, {qe: qc}) * other
        return Poly(self.nvars, quot)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v *= x
            total += v
        return total

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for j, k in enumerate(e):
                if k == 1:
                    factors.append(f"χ_{j + 1}")
                elif k > 1:
                    factors.append(f"(χ_{j + 1})^{k}")
            body = "*".join(factors)
            if not body:
                piece = str(c)
            elif c == 1:
                piece = body
            elif c == -1:
                piece = "-" + body
            else:
                piece = f"{c}*{body}"
            parts.append(piece)
        out = parts[0]
        for piece in parts[1:]:
            out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
        return out

    __repr__ = __str__


def _poly_to_rec(p: Poly) -> dict[int, Poly]:
    """Split off the first variable: {degree in chi_1: coefficient Poly in the rest}."""
    coeffs: dict[int, dict] = {}
    for e, c in p.terms.items():
        coeffs.setdefault(e[0], {})[e[1:]] = c
    return {d: Poly(p.nvars - 1, t) for d, t in coeffs.items()}


def _poly_from_rec(nvars: int, coeffs: dict[int, Poly]) -> Poly:
    terms: dict = {}
    for d, q in coeffs.items():
        for e, c in q.terms.items():
            terms[(d,) + e] = c
    return Poly(nvars, terms)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd via a pseudo-remainder sequence, recursing on variables."""
    if a.nvars != b.nvars:
        raise ValueError("arity mismatch")
    if not a:
        return b.primitive() if b else b
    if not b:
        return a.primitive()
    if a.nvars == 0:
        return Poly.one(0)
    ra, rb = _poly_to_rec(a), _poly_to_rec(b)
    if max(ra) == 0 and max(rb) == 0:
        g = poly_gcd(ra[0], rb[0])
        return _poly_from_rec(a.nvars, {0: g})
    conta = _rec_content(ra)
    contb = _rec_content(rb)
    pa = {d: q.div_exact(conta) for d, q in ra.items()}
    pb = {d: q.div_exact(contb) for d, q in rb.items()}
    if max(pa) < max(pb):
        pa, pb = pb, pa
    while True:
        r = _rec_prem(pa, pb, a.nvars - 1)
        if not r:
            break
        rc = _rec_content(r)
        pa, pb = pb, {d: q.div_exact(rc) for d, q in r.items()}
    g = _poly_from_rec(a.nvars, pb)
    cont = poly_gcd(conta, contb)
    return (g * _poly_from_rec(a.nvars, {0: cont})).primitive()


def _rec_content(coeffs: dict[int, Poly]) -> Poly:
    it = iter(coeffs.values())
    g = next(it)
    for q in it:
        g = poly_gcd(g, q)
    return g


def _rec_prem(a: dict[int, Poly], b: dict[int, Poly], sub_nvars: int) -> dict[int, Poly]:
    """Pseudo-remainder of a by b, both nonzero, deg a >= deg b in the main variable."""
    da, db = max(a), max(b)
    lb = b[db]
    rem = dict(a)
    while rem and max(rem) >= db:
        dr = max(rem)
        lr = rem[dr]
        shift = dr - db
        new: dict[int, Poly] = {}
        for d, q in rem.items():
            new[d] = q * lb
        for d, q in b.items():
            t = new.get(d + shift, Poly.zero(sub_nvars)) - q * lr
            if t:
                new[d + shift] = t
            else:
                new.pop(d + shift, None)
        rem = {d: q for d, q in new.items() if q}
    return rem


class ParamScalar:
    """Element of QQ(chi_1..chi_s) stored as a ratio of polynomials.

    The denominator is kept primitive (integer coefficients, gcd one) with a
    positive leading coefficient; numerator and denominator are reduced by
    integer content only.  Full polynomial gcd reduction is available through
    :meth:`reduced` but is not applied automatically.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.one(num.nvars)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = Poly.one(num.nvars)
        else:
            c = den.content()
            if den.terms[max(den.terms)] < 0:
                c = -c
            if c != 1:
                den = Poly(den.nvars, {e: v / c for e, v in den.terms.items()})
                num = Poly(num.nvars, {e: v / c for e, v in num.terms.items()})
        self.num = num
        self.den = den

    @classmethod
    def from_const(cls, nvars: int, value) -> "ParamScalar":
        return cls(Poly.const(nvars, value))

    @classmethod
    def zero(cls, nvars: int) -> "ParamScalar":
        return cls(Poly.zero(nvars))

    @classmethod
    def one(cls, nvars: int) -> "ParamScalar":
        return cls(Poly.one(nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def _coerce(self, other) -> "ParamScalar":
        if isinstance(other, ParamScalar):
            return other
        if isinstance(other, Poly):
            return ParamScalar(other)
        if isinstance(other, (int, Fraction)):
            return ParamScalar.from_const(self.nvars, other)
        raise TypeError(f"cannot coerce {other!r}")

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        r = self.reduced(full=True)
        return hash((r.num, r.den))

    def __add__(self, other) -> "ParamScalar":
        other = self._coerce(other)
        if self.den == other.den:
            return ParamScalar(self.num + other.num, self.den)
        return ParamScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "ParamScalar":
        return ParamScalar(-self.num, self.den)

    def __sub__(self, other) -> "ParamScalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ParamScalar":
        return self._coerce(other) - self

    def __mul__(self, other) -> "ParamScalar":
        other = self._coerce(other)
        return ParamScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ParamScalar":
        other = self._coerce(other)
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return ParamScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "ParamScalar":
        return self._coerce(other) / self

    def reduced(self, full: bool = False) -> "ParamScalar":
        """Content-reduced copy; with full=True also cancel the polynomial gcd."""
        if not full or not self.num:
            return ParamScalar(self.num, self.den)
        g = poly_gcd(self.num, self.den)
        if g.is_constant():
            return ParamScalar(self.num, self.den)
        return ParamScalar(self.num.div_exact(g), self.den.div_exact(g))

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / d

    def __str__(self) -> str:
        r = self.reduced(full=True)
        if r.den == Poly.one(self.nvars):
            return str(r.num)
        return f"({r.num})/({r.den})"

    __repr__ = __str__


Entry = Union[Fraction, ParamScalar]


@dataclass(frozen=True)
class RrefResult:
    matrix: "ExactMatrix"
    pivots: tuple[int, ...]

    def kernel(self) -> "ExactMatrix":
        """Columns form a basis of the right null space, one per free column.

        The basis vector for free column f has entry 1 at f and zeros at every
        other free column, which keeps downstream "parametric jet" choices
        reproducible.  Pivot row i, zero at every other pivot, gives row
        pivots[i] of the basis with its signs flipped.
        """
        m = self.matrix
        pivot_set = set(self.pivots)
        position = {f: b for b, f in enumerate(c for c in range(m.cols) if c not in pivot_set)}
        one = m.one()
        rows = [{position[c]: one} if c in position else {} for c in range(m.cols)]
        for p, row in zip(self.pivots, m.sparse):
            rows[p] = {position[c]: -v for c, v in row.items() if c != p}
        return ExactMatrix.from_rows(rows, len(position), m.params)


class ExactMatrix:
    """Rectangular matrix over QQ (params == 0) or QQ(chi_1..chi_s).

    `sparse` holds the rows as dicts {column: nonzero entry}, a zero row being
    empty; it is the only storage and is never mutated.  The dense tuple
    `entries` is a view built on first read and then kept; no module of the
    package reads it, only tests and the benchmark's tracer do.
    """

    __slots__ = ("sparse", "rows", "cols", "params", "_entries")

    def __init__(self, entries: Sequence[Sequence[Entry]], cols: int | None = None, params: int = 0):
        dense = [tuple(r) for r in entries]
        if dense:
            cols = len(dense[0])
            if any(len(r) != cols for r in dense):
                raise ValueError("ragged matrix")
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self._store([{c: v for c, v in enumerate(r) if v} for r in dense], cols, params)

    @classmethod
    def from_rows(cls, rows: Sequence[dict], cols: int, params: int = 0) -> "ExactMatrix":
        """The matrix with the given sparse rows {column: nonzero entry}."""
        matrix = cls.__new__(cls)
        matrix._store(rows, cols, params)
        return matrix

    def _store(self, rows, cols: int, params: int) -> None:
        self.sparse = tuple(rows)
        self.rows, self.cols, self.params = len(self.sparse), cols, params
        self._entries = None

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            zero = self.zero()
            self._entries = tuple(tuple(row.get(c, zero) for c in range(self.cols)) for row in self.sparse)
        return self._entries

    def zero(self) -> Entry:
        return ParamScalar.zero(self.params) if self.params else Fraction(0)

    def one(self) -> Entry:
        return ParamScalar.one(self.params) if self.params else Fraction(1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.sparse == other.sparse

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for row in self.sparse:
            acc = {}
            for k, a in row.items():
                for j, b in other.sparse[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: v for j, v in acc.items() if v})
        return ExactMatrix.from_rows(out, other.cols, self.params)

    def transpose(self) -> "ExactMatrix":
        columns = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for c, v in row.items():
                columns[c][i] = v
        return ExactMatrix.from_rows(columns, self.rows, self.params)

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols})"


def integer_row(row: dict) -> dict:
    """The sparse rational row {col: value} times the lcm of its denominators."""
    den = math.lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items()}


def _primitive(row: dict) -> dict:
    g = math.gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: dict, b: dict, c: int) -> dict:
    """The primitive integer combination of `row` and `b` that is zero at c."""
    a, f = b[c], row[c]
    g = math.gcd(a, f)
    a, f = a // g, f // g
    out = {k: a * v for k, v in row.items()} if a != 1 else dict(row)
    for k, v in b.items():
        x = out.get(k, 0) - f * v
        if x:
            out[k] = x
        else:
            del out[k]
    return _primitive(out) if a != 1 and out else out


def _echelon_int(rows) -> dict[int, dict]:
    """Fraction-free forward elimination: {leading column: primitive row}.

    Each row is reduced by the stored row of its leading column until that
    column is new.  The leading columns of an echelon basis of a row space do
    not depend on the row order, so they are the pivots of the RREF.
    """
    basis: dict[int, dict] = {}
    for row in rows:
        while row:
            p = min(row)
            if p not in basis:
                basis[p] = _primitive(row)
                break
            row = _eliminate(row, basis[p], p)
    return basis


def pivot_columns(rows) -> tuple[int, ...]:
    """Pivot columns of the RREF of the sparse integer rows {col: int}."""
    return tuple(sorted(_echelon_int(rows)))


def _rref_rational(matrix: ExactMatrix) -> tuple[list, list[int]]:
    """Integer echelon form, back substitution from the last pivot up (rows
    below are already reduced, so each step clears one column), then one
    division per entry.  Zero rows stay, as one shared empty row."""
    basis = _echelon_int(map(integer_row, matrix.sparse))
    pivots = sorted(basis)
    for p in reversed(pivots):
        for c in [c for c in basis[p] if c != p and c in basis]:
            basis[p] = _eliminate(basis[p], basis[c], c)
    rows = [{c: Fraction(v, basis[p][p]) for c, v in sorted(basis[p].items())} for p in pivots]
    rows.extend([{}] * (matrix.rows - len(pivots)))
    return rows, pivots


def _pmul(a: dict, b: dict) -> dict:
    """Product of two polynomials {exponent tuple: nonzero coefficient}."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:  # a monomial: the terms of b do not collide
        ((ea, ca),) = a.items()
        if not any(ea):
            return {e: ca * cb for e, cb in b.items()}
        return {tuple(map(add, ea, e)): ca * cb for e, cb in b.items()}
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _psub(a: dict, b: dict) -> dict:
    """Difference of two polynomials {exponent tuple: nonzero coefficient}."""
    out = dict(a)
    for e, c in b.items():
        x = out.get(e, 0) - c
        if x:
            out[e] = x
        else:
            del out[e]
    return out


def _pdiv(a: dict, b: dict) -> dict:
    """Exact quotient a / b of integer polynomials, by leading terms in lex order."""
    if len(b) == 1:
        ((eb, cb),) = b.items()
        if cb == 1 and not any(eb):
            return a
        out = {}
        for e, c in a.items():
            q, r = divmod(c, cb)
            if any(eb):
                e = tuple(map(sub, e, eb))
            if r or min(e) < 0:
                raise ValueError("inexact polynomial division")
            out[e] = q
        return out
    lead = max(b)
    quot = {}
    rem = dict(a)
    while rem:
        e = max(rem)
        q, r = divmod(rem[e], b[lead])
        qe = tuple(map(sub, e, lead))
        if r or min(qe) < 0:
            raise ValueError("inexact polynomial division")
        quot[qe] = q
        rem = _psub(rem, _pmul({qe: q}, b))
    return quot


def _integer_poly_row(row: dict) -> dict:
    """The sparse QQ(chi) row {col: ParamScalar} times a common denominator,
    as {col: integer polynomial {exponent tuple: int}} of integer content one."""
    keys = {c: frozenset(v.den.terms.items()) for c, v in row.items()}
    # a primitive denominator with positive leading coefficient is 1 if constant
    dens = {keys[c]: v.den.terms for c, v in row.items() if not v.den.is_constant()}
    out = {}
    for c, v in row.items():
        p = v.num.terms
        for key, d in dens.items():
            if key != keys[c]:
                p = _pmul(p, d)
        out[c] = p
    den = math.lcm(*(x.denominator for p in out.values() for x in p.values()))
    ints = {c: {e: x.numerator * (den // x.denominator) for e, x in p.items()} for c, p in out.items()}
    g = math.gcd(*(x for p in ints.values() for x in p.values()))
    return ints if g == 1 else {c: {e: x // g for e, x in p.items()} for c, p in ints.items()}


def _combine(a: dict | None, row: dict, f: dict, b: dict) -> dict:
    """a*row - f*b over the union of the supports of two integer-polynomial
    rows; a None stands for 1."""
    out = {}
    for x in row.keys() | b.keys():
        v, w = row.get(x), b.get(x)
        if v is None:
            t = {}
        else:
            t = v if a is None else _pmul(a, v)
        if w is not None:
            t = _psub(t, _pmul(f, w))
        if t:
            out[x] = t
    return out


def _bareiss_step(row: dict, b: dict, c: int, prev: dict | None) -> dict:
    """(p*row - row[c]*b) / prev with p = b[c] (prev None: no division).  The
    division is exact: every entry before and after is a minor of the
    cleared matrix."""
    p, f = b[c], row.get(c)
    out = {x: _pmul(p, v) for x, v in row.items()} if f is None else _combine(p, row, f, b)
    return out if prev is None else {x: _pdiv(t, prev) for x, t in out.items()}


def _echelon_param(rows) -> list[tuple[int, dict]]:
    """Row-wise fraction-free (Bareiss) forward elimination over integer
    polynomials: [(pivot column, row)] in insertion order.

    Each row is reduced against every basis row in turn, scaled even where it
    is already zero at that row's pivot, so it always holds minors.  A row that
    vanishes is dropped; a surviving one is zero at every earlier pivot and
    joins with its leading column, so as in :func:`_echelon_int` the pivots
    are those of the RREF.
    """
    basis: list[tuple[int, dict]] = []
    for row in rows:
        prev = None
        for c, b in basis:
            row = _bareiss_step(row, b, c, prev)
            if not row:
                break
            prev = b[c]
        if row:
            basis.append((min(row), row))
    return basis


def _rref_param(matrix: ExactMatrix) -> tuple[list[dict], list[int]]:
    """Integer-polynomial echelon form, then fraction-free back substitution
    on the pivot rows only, each entry divided once by the last pivot, the
    determinant d of the pivot minor.  Zero rows stay, as one shared empty row.

    From the last basis row up, G_i = (d*B_i - sum_{j>i} B_i[c_j]*G_j) / p_i,
    exact since G_i, d times RREF row i, holds cofactors of that minor."""
    basis = _echelon_param(map(_integer_poly_row, matrix.sparse))
    if not basis:
        return [{}] * matrix.rows, []
    *rest, (c, last) = basis
    det = last[c]
    reduced = {c: last}
    for c, b in reversed(rest):
        row = {x: _pmul(det, v) for x, v in b.items()}
        for cj, g in reduced.items():
            if cj in b:
                row = _combine(None, row, b[cj], g)
        reduced[c] = {x: _pdiv(t, b[c]) for x, t in row.items()}
    s = matrix.params
    den, one = Poly(s, det), ParamScalar.one(s)
    rows = [
        {x: one if x == c else ParamScalar(Poly(s, t), den) for x, t in sorted(reduced[c].items())}
        for c in sorted(reduced)
    ]
    rows.extend([{}] * (matrix.rows - len(rows)))
    return rows, sorted(reduced)


def rref(matrix: ExactMatrix) -> RrefResult:
    """Reduced row echelon form with deterministic pivoting."""
    if matrix.rows == 0:
        return RrefResult(matrix, ())
    rows, pivots = (_rref_param if matrix.params else _rref_rational)(matrix)
    return RrefResult(ExactMatrix.from_rows(rows, matrix.cols, matrix.params), tuple(pivots))


def rank(matrix: ExactMatrix) -> int:
    if matrix.params:
        return len(_echelon_param(map(_integer_poly_row, matrix.sparse)))
    return len(pivot_columns(map(integer_row, matrix.sparse)))


def kernel_basis(matrix: ExactMatrix) -> ExactMatrix:
    """Right null space basis of `matrix`; see :meth:`RrefResult.kernel`."""
    return rref(matrix).kernel()
