"""Linear constant-coefficient PDE systems and their basic transformations.

A system is a finite list of equations sum a^{tau,mu}_k y^k_mu = 0 with exact
coefficients (rationals, or rational functions in parameters for localized
systems).  Prolongation, projection, linear changes of the independent
variables and the first-order reduction all live here, together with the
solution-space dimension per jet order.

Prolongation, projection and the dimensions read one memoised elimination
per (system, horizon): the RREF of the prolongation R_{q+r}, which holds
every derivative of every equation up to order q + r.  Symbol matrices are
built on integer codes of the monomials and reduced once, to rows that are
multiples of the RREF rows over either field (:func:`_symbol_rref`).
Coordinate changes expand each monomial under the linear map with
:func:`monomial_expander`, as frame tableaux do.

Systems are treated as immutable; every operation returns a new value.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from . import jetspace as js
from .jetspace import JetCoordinate
from .ratlinalg import ExactMatrix, _eliminate, integer_row, reduced_int, reduced_param, rref


class Equation:
    """A single linear equation, stored as {jet coordinate: coefficient}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {JetCoordinate(k, tuple(mu)): c for (k, mu), c in terms.items() if c}

    @property
    def order(self) -> int:
        return max((js.order_of(jc.mu) for jc in self.terms), default=0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Equation):
            return NotImplemented
        return self.terms == other.terms

    def shift(self, nu) -> "Equation":
        """Formal derivative d_nu: each term moves from mu to mu + nu, built directly."""
        out = Equation.__new__(Equation)
        out.terms = {JetCoordinate(jc.k, js.shift(jc.mu, nu)): c for jc, c in self.terms.items()}
        return out

    def top_terms(self) -> dict:
        q = self.order
        return {jc: c for jc, c in self.terms.items() if js.order_of(jc.mu) == q}

    def leading_jet(self) -> JetCoordinate:
        return min(self.terms, key=js.column_key)

    def __repr__(self) -> str:
        parts = []
        for jc in sorted(self.terms, key=js.column_key):
            parts.append(f"{self.terms[jc]}*y{jc.k}_{js.digits(jc.mu)}")
        return " + ".join(parts) + " = 0"


class LinearSystem:
    """A linear system of PDEs for m unknowns in n independent variables.

    `params` is the number of scalar parameters chi_i (zero for plain QQ
    coefficients); over QQ(chi_1..chi_s) the system is a localization in the
    trailing variables, displayed with their original digits, shifted by s.

    `_cache` is the one memo of all analyses of this system: :func:`memoised`
    keeps ``fn(sys, *args)`` under ``(fn.__name__, *args)``.  Entries depend
    only on the equations, so a system must never be mutated; every
    transformation returns a new system.
    """

    __slots__ = ("n", "m", "equations", "params", "_cache")

    def __init__(self, n: int, m: int, equations, params: int = 0):
        eqs = []
        for e in equations:
            if not isinstance(e, Equation):
                e = Equation(e)
            if not e:
                continue
            for jc in e.terms:
                if not 1 <= jc.k <= m:
                    raise ValueError(f"unknown index {jc.k} out of range 1..{m}")
                if len(jc.mu) != n:
                    raise ValueError("multi-index arity mismatch")
            eqs.append(e)
        self.n = n
        self.m = m
        self.equations = tuple(eqs)
        self.params = params
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return max((e.order for e in self.equations), default=0)

    def replace(self, equations) -> "LinearSystem":
        return LinearSystem(self.n, self.m, equations, params=self.params)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearSystem):
            return NotImplemented
        return (self.n, self.m, self.params) == (other.n, other.m, other.params) and list(
            self.equations
        ) == list(other.equations)

    def __repr__(self) -> str:
        return f"LinearSystem(n={self.n}, m={self.m}, order={self.order}, eqs={len(self.equations)})"


def memoised(fn):
    """Keep ``fn(sys, *args)`` in ``sys._cache`` under ``(fn.__name__, *args)``."""

    @functools.wraps(fn)
    def cached(sys: LinearSystem, *args):
        key = (fn.__name__, *args)
        if key not in sys._cache:
            sys._cache[key] = fn(sys, *args)
        return sys._cache[key]

    return cached


def flag_levels(a):
    """Reduced integer bases of L_n, L_{n-1}, ..., L_1, L_k = span(columns
    k..n of the square matrix `a` of ints or Fractions), built lazily.

    Each basis is a list of sparse vectors {coordinate: int}, each zero at the
    pivot (largest) coordinates of the others.  The level of L_k is the one of
    L_{k+1} and column k of `a`, cleared of denominators, reduced by it; a zero
    remainder proves `a` singular and raises.
    """
    n = len(a)
    den = math.lcm(*(x.denominator for row in a for x in row))
    vectors, pivots = [], []
    for j in reversed(range(n)):
        v = {i: a[i][j].numerator * (den // a[i][j].denominator) for i in range(n) if a[i][j]}
        for b, p in zip(vectors, pivots):
            if p in v:
                v = _eliminate(v, b, p)
        if not v:
            raise ValueError("singular coordinate change")
        p = max(v)
        vectors = [_eliminate(b, v, p) if p in b else b for b in vectors]
        vectors.append(v)
        pivots.append(p)
        yield vectors


class SlottedRecord:
    """Field-wise equality, hash and repr ``Name(field=value, ...)`` over
    `_fields`: the base of the records whose constructors check or convert
    their values.  The other records are `NamedTuple`s."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class CoordinateChange(SlottedRecord):
    """Invertible substitution d_i -> sum_j A[i][j] d_j of the independent variables.

    A is checked nonsingular by draining its :func:`flag_levels`, which frame
    tableaux read lazily, L_n first.
    """

    __slots__ = _fields = ("matrix",)

    def __init__(self, matrix: tuple):
        self.matrix = a = tuple(tuple(Fraction(x) for x in row) for row in matrix)
        if any(len(row) != len(a) for row in a):
            raise ValueError("coordinate change must be square")
        for _ in flag_levels(a):
            pass

    @classmethod
    @functools.cache
    def identity(cls, n: int) -> "CoordinateChange":
        return cls(tuple(tuple(Fraction(i == j) for j in range(n)) for i in range(n)))

    @classmethod
    def permutation(cls, images) -> "CoordinateChange":
        """d_i -> d_{images[i-1]}; images is a permutation of 1..n."""
        n = len(images)
        return cls(tuple(tuple(Fraction(images[i] - 1 == j) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.matrix)

    def is_identity(self) -> bool:
        return all(x == (i == j) for i, row in enumerate(self.matrix) for j, x in enumerate(row))


class JetSpaceSlice(NamedTuple):
    """Solution-space data of one jet order: dim R_r and the parametric jets."""

    order: int
    dimension: int
    parametric: tuple


def equation_matrix(equations, columns, params: int = 0) -> ExactMatrix:
    index = {jc: j for j, jc in enumerate(columns)}
    rows = [{index[jc]: c for jc, c in e.terms.items()} for e in equations]
    return ExactMatrix.from_rows(rows, len(columns), params)


def prolonged_equations(sys: LinearSystem, horizon: int) -> list[Equation]:
    """Every formal derivative of every equation whose order stays <= horizon."""
    out = []
    for e in sys.equations:
        room = horizon - e.order
        if room < 0:
            continue
        for nu in js.multi_indices_upto(sys.n, room):
            out.append(e.shift(nu))
    return out


@memoised
def _full_rref(sys: LinearSystem, horizon: int):
    """RREF of all prolonged equations up to `horizon`, with its column list."""
    columns = js.jets_upto(sys.n, sys.m, horizon)
    matrix = equation_matrix(prolonged_equations(sys, horizon), columns, sys.params)
    return rref(matrix), columns


def slice_at(sys: LinearSystem, r: int) -> JetSpaceSlice:
    """Dimension of R_r and its parametric jets (non-pivot columns)."""
    if r < 0:
        return JetSpaceSlice(r, 0, ())
    result, columns = _full_rref(sys, r)
    pivot_set = set(result.pivots)
    parametric = [columns[j] for j in range(len(columns)) if j not in pivot_set]
    parametric.sort(key=js.display_key)
    return JetSpaceSlice(r, len(columns) - len(result.pivots), tuple(parametric))


def prolong(sys: LinearSystem, r: int) -> LinearSystem:
    """The prolongation R_{q+r}: every derivative of every equation up to order q + r.

    Its equations are the RREF rows of `_full_rref(sys, q + r)`, the matrix
    that `slice_at` reads dim R_{q+r} off, so duplicates among the formal
    derivatives are removed by elimination rather than by syntactic comparison.
    It is R_{q+r}, not a normal form of the equations: a caller that moves a
    system to analyse it as given passes `change_coordinates` output directly.
    """
    result, columns = _full_rref(sys, sys.order + r)
    rows = result.matrix.sparse[: len(result.pivots)]
    return sys.replace([Equation({columns[j]: v for j, v in row.items()}) for row in rows])


@memoised
def projected_system(sys: LinearSystem, s: int) -> LinearSystem:
    """Order-q system cutting out the projection to order q of R_{q+s}, which
    holds every derivative of every equation up to order q + s.

    Its matrix is row reduced with the high-order columns first, so
    the rows of :func:`prolong` supported on jets of order <= q are exactly
    the consequences visible at the original order.  For s < 0 every row of
    R_{q+s} has order <= q, so this is R_{q+s} itself: the prolongations of
    the equations of order <= q + s.  Memoised, so the projected system
    keeps its own memo for every later caller.
    """
    return sys.replace([e for e in prolong(sys, s).equations if e.order <= sys.order])


def monomial_expander(forms: list):
    """x^mu -> prod_i f_i^{mu_i} for linear forms f_i = {code: int}, a code
    sum_s e_s B^s naming t^e for B above every exponent; each power f_i^e is
    built once, from f_i^{e-1}, and kept for later calls."""
    powers = [[{0: 1}] for _ in forms]

    def times(a: dict, b: dict) -> dict:
        out: dict = {}
        for u, x in a.items():
            for v, y in b.items():
                out[u + v] = out.get(u + v, 0) + x * y
        return {u: x for u, x in out.items() if x}

    def expand(mu) -> dict:
        poly = {0: 1}
        for i, e in enumerate(mu):
            if e:
                while len(powers[i]) <= e:
                    powers[i].append(times(powers[i][-1], forms[i]))
                poly = times(poly, powers[i][e])
        return poly

    return expand


def change_coordinates(sys: LinearSystem, change: CoordinateChange) -> LinearSystem:
    """Apply d_i -> sum_j A[i][j] d_j to the operator form of every equation:
    d^mu becomes (den*A d)^mu / den^|mu|, den*A the least integral multiple of
    A, expanded by :func:`monomial_expander` on the codes sum_j nu_j B^j, B = q + 1."""
    if sys.params:
        raise ValueError("coordinate changes apply to rational-coefficient systems only")
    if change.n != sys.n:
        raise ValueError("coordinate change size mismatch")
    a, base = change.matrix, sys.order + 1
    den = math.lcm(*(x.denominator for row in a for x in row))
    expand = monomial_expander([{base**j: int(x * den) for j, x in enumerate(row) if x} for row in a])

    def decoded(code: int) -> tuple:
        return tuple(code // base**j % base for j in range(sys.n))

    expansions: dict = {}
    new_eqs = []
    for e in sys.equations:
        terms: dict = {}
        for jc, c in e.terms.items():
            if jc.mu not in expansions:
                scale = den ** js.order_of(jc.mu)
                expansions[jc.mu] = {decoded(u): Fraction(w, scale) for u, w in expand(jc.mu).items()}
            for nu, w in expansions[jc.mu].items():
                terms[jc.k, nu] = terms.get((jc.k, nu), 0) + c * w
        new_eqs.append(Equation(terms))  # drops the terms that cancelled
    return sys.replace(new_eqs)


def companion_unknowns(sys: LinearSystem) -> list[JetCoordinate]:
    """Jets of order < q, in display order; these become the z-unknowns."""
    q = max(sys.order, 1)
    jets = [jc for t in range(q) for jc in js.jets_exact(sys.n, sys.m, t)]
    jets.sort(key=js.display_key)
    return jets


def first_order_companion(sys: LinearSystem) -> LinearSystem:
    """Equivalent first-order system with one unknown per jet of order < q.

    Produces the defining relations z(mu)_i = z(mu+1_i), the compatibility
    relations between the different first-order descriptions of one order-q
    jet, and the original equations rewritten with each top-order jet replaced
    by the derivative of the z-unknown of its class.  Returns their R_1, whose
    dim R_1 is the input's dim R_q; the rows as built fall short on y1[1,1], y2.
    """
    q = sys.order
    unknowns = companion_unknowns(sys)
    z_index = {jc: i + 1 for i, jc in enumerate(unknowns)}
    n, m_new = sys.n, len(unknowns)
    zero_mu = (0,) * n

    def z_jet(origin: JetCoordinate, i: int | None) -> JetCoordinate:
        mu = zero_mu if i is None else tuple(1 if t == i else 0 for t in range(n))
        return JetCoordinate(z_index[origin], mu)

    def rep(jc: JetCoordinate) -> JetCoordinate:
        """Canonical first-order expression of an order-q jet: derive by its class."""
        i = js.class_of(jc.mu) - 1
        lower = tuple(e - 1 if t == i else e for t, e in enumerate(jc.mu))
        return z_jet(JetCoordinate(jc.k, lower), i)

    eqs = []
    for jc in unknowns:
        if js.order_of(jc.mu) <= q - 2:
            for i in range(n):
                higher = JetCoordinate(jc.k, tuple(e + (1 if t == i else 0) for t, e in enumerate(jc.mu)))
                eqs.append(Equation({z_jet(jc, i): Fraction(1), z_jet(higher, None): Fraction(-1)}))
    for jc in js.jets_exact(sys.n, sys.m, q):
        support = [i for i, e in enumerate(jc.mu) if e]
        for i1, i2 in zip(support, support[1:]):
            lo1 = tuple(e - 1 if t == i1 else e for t, e in enumerate(jc.mu))
            lo2 = tuple(e - 1 if t == i2 else e for t, e in enumerate(jc.mu))
            eqs.append(
                Equation(
                    {
                        z_jet(JetCoordinate(jc.k, lo1), i1): Fraction(1),
                        z_jet(JetCoordinate(jc.k, lo2), i2): Fraction(-1),
                    }
                )
            )
    for e in sys.equations:
        terms: dict = {}
        for jc, c in e.terms.items():
            key = rep(jc) if q >= 1 and js.order_of(jc.mu) == q else z_jet(jc, None)
            terms[key] = terms.get(key, Fraction(0)) + c
        eqs.append(Equation(terms))
    companion = LinearSystem(n, m_new, eqs)
    return prolong(companion, 0)


@functools.cache
def _codes(n: int, degree: int, base: int) -> tuple[dict, dict]:
    """{mu: code} and {code: position in solving order} of the multi-indices of
    `degree`, the code of mu being sum_i mu_i B^(n-i), B = `base`: while every
    exponent stays below B, the code of x^nu x^mu is the sum of the codes."""
    codes = {mu: functools.reduce(lambda c, e: c * base + e, mu, 0) for mu in js.multi_indices(n, degree)}
    return codes, {c: j for j, c in enumerate(codes.values())}


def symbol_matrix(sys: LinearSystem, order: int):
    """(matrix, columns) of the homogeneous top parts of all prolongations
    landing exactly at `order`, x^nu times each equation's top part: one code
    sum and one lookup per term (:func:`_codes`, B = order + 1).  Over QQ each
    top part is cleared of denominators once, so the rows are integer rows."""
    if order < 0:
        return ExactMatrix([], cols=0, params=sys.params), []
    n, m, base = sys.n, sys.m, order + 1
    index, rows = _codes(n, order, base)[1], []
    for e in sys.equations:
        if (q := e.order) <= order:
            top = e.top_terms() if sys.params else integer_row(e.top_terms())
            terms = [(_codes(n, q, base)[0][jc.mu], jc.k - 1, c) for jc, c in top.items()]
            for nu in _codes(n, order - q, base)[0].values():
                rows.append({index[nu + u] * m + k: c for u, k, c in terms})
    return ExactMatrix.from_rows(rows, len(index) * m, sys.params), js.jets_exact(n, m, order)


@memoised
def _symbol_rref(sys: LinearSystem, order: int):
    """The symbol matrix at `order` eliminated once, with its column list:
    its reduced rows {pivot: row}, each a multiple of its RREF row, over QQ
    (:func:`reduced_int`) or over QQ(chi) (:func:`reduced_param`)."""
    matrix, columns = symbol_matrix(sys, order)
    return (reduced_param if sys.params else reduced_int)(matrix.sparse), columns


@memoised
def stable_order(sys: LinearSystem) -> int:
    """Smallest t with dim R_t = dim R_{t+1} and vanishing symbol above t.

    Memoised; a raise is not kept.  Raises when that does not happen by order
    2q + n + 2, and at once when the memo holds a seal: a sealed symbol is
    nonzero and involutive, so it never dies.
    """
    from .spencer import sealed_order, symbol_dim  # spencer imports this module
    if sealed_order(sys) is None:
        prev = slice_at(sys, 0).dimension
        for t in range(1, 2 * sys.order + sys.n + 3):
            cur = slice_at(sys, t).dimension
            if cur == prev and symbol_dim(sys, t) == 0:
                return t - 1
            prev = cur
    raise ValueError("not finite type within the window; apply relative localization first")


def stable_dimension(sys: LinearSystem) -> int:
    """Total dimension of the solution space of a finite-type system."""
    return slice_at(sys, stable_order(sys)).dimension
