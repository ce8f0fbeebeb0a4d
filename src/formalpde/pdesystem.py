"""Linear constant-coefficient PDE systems and their basic transformations.

A system is a finite list of equations sum a^{tau,mu}_k y^k_mu = 0 with exact
coefficients (rationals, or rational functions in parameters for localized
systems).  Prolongation, projection, linear changes of the independent
variables and the first-order reduction all live here, together with the
solution-space dimension per jet order.

Systems are treated as immutable; every operation returns a new value.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import jetspace as js
from .jetspace import JetCoordinate
from .ratlinalg import ExactMatrix, ParamScalar, rank, rref


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
        """Formal derivative d_nu: each term moves from mu to mu + nu."""
        return Equation({JetCoordinate(jc.k, js.shift(jc.mu, nu)): c for jc, c in self.terms.items()})

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
    coefficients); `var_offset` shifts displayed variable indices so that a
    localized system in the trailing variables keeps its original digit names.

    `_cache` is the one memo of all analyses of this system, by key:
    ``("rref", horizon)``, ``("word_rref", r)`` and ``("symbol", order)`` hold
    (RREF, columns) of the prolonged, word-prolonged and symbol matrices,
    whose zero rows are empty sparse rows (:func:`_full_rref`, :func:`_word_rref`,
    :func:`_symbol_rref`); ``("symbolspace", order)`` the symbol basis;
    ``("delta_rank", s, order)`` the rank of delta on Lambda^s (x) g_order;
    ``("involution", order, seed)`` the involution test; ``("complete",
    max_steps)`` a weak reference to the completion report, which may name the
    system itself; ``("localize", r)`` the system localized at codimension r
    (not the `LocalizedSystem`, whose `origin` would make a cycle);
    ``("multiplication",)`` the matrices of d_1..d_n on M with their basis.
    Entries depend only on the equations, so a system must never be mutated;
    every transformation returns a new system.
    """

    __slots__ = ("n", "m", "equations", "params", "var_offset", "_cache")

    def __init__(self, n: int, m: int, equations, params: int = 0, var_offset: int = 0):
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
        self.var_offset = var_offset
        self._cache: dict = {}

    @property
    def order(self) -> int:
        return max((e.order for e in self.equations), default=0)

    def zero(self):
        return ParamScalar.zero(self.params) if self.params else Fraction(0)

    def one(self):
        return ParamScalar.one(self.params) if self.params else Fraction(1)

    def replace(self, equations) -> "LinearSystem":
        return LinearSystem(self.n, self.m, equations, params=self.params, var_offset=self.var_offset)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearSystem):
            return NotImplemented
        return (self.n, self.m, self.params) == (other.n, other.m, other.params) and list(
            self.equations
        ) == list(other.equations)

    def __repr__(self) -> str:
        return f"LinearSystem(n={self.n}, m={self.m}, order={self.order}, eqs={len(self.equations)})"


@dataclass(frozen=True)
class CoordinateChange:
    """Invertible substitution d_i -> sum_j A[i][j] d_j of the independent variables."""

    matrix: tuple

    def __post_init__(self):
        a = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", a)
        n = len(a)
        if any(len(row) != n for row in a):
            raise ValueError("coordinate change must be square")
        if rank(ExactMatrix(a)) != n:
            raise ValueError("singular coordinate change")

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


@dataclass(frozen=True)
class JetSpaceSlice:
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


def _word_prolonged_equations(sys: LinearSystem, r: int) -> list[Equation]:
    """Every formal derivative by a d-word of length <= r, per equation."""
    out = []
    for e in sys.equations:
        for nu in js.multi_indices_upto(sys.n, r):
            out.append(e.shift(nu))
    return out


def _full_rref(sys: LinearSystem, horizon: int):
    """RREF of all prolonged equations up to `horizon`, with its column list."""
    key = ("rref", horizon)
    if key not in sys._cache:
        columns = js.jets_upto(sys.n, sys.m, horizon)
        matrix = equation_matrix(prolonged_equations(sys, horizon), columns, sys.params)
        sys._cache[key] = (rref(matrix), columns)
    return sys._cache[key]


def _word_rref(sys: LinearSystem, r: int):
    """RREF of the r-fold word prolongation, with its column list."""
    key = ("word_rref", r)
    if key not in sys._cache:
        columns = js.jets_upto(sys.n, sys.m, sys.order + r)
        matrix = equation_matrix(_word_prolonged_equations(sys, r), columns, sys.params)
        sys._cache[key] = (rref(matrix), columns)
    return sys._cache[key]


def slice_at(sys: LinearSystem, r: int) -> JetSpaceSlice:
    """Dimension of R_r and its parametric jets (non-pivot columns)."""
    if r < 0:
        return JetSpaceSlice(r, 0, ())
    result, columns = _full_rref(sys, r)
    pivot_set = set(result.pivots)
    parametric = [columns[j] for j in range(len(columns)) if j not in pivot_set]
    parametric.sort(key=js.display_key)
    return JetSpaceSlice(r, len(columns) - len(result.pivots), tuple(parametric))


def _equations_from_rref(result, columns) -> list[Equation]:
    rows = result.matrix.sparse[: len(result.pivots)]
    return [Equation({columns[j]: v for j, v in row.items()}) for row in rows]


def prolong(sys: LinearSystem, r: int) -> LinearSystem:
    """The system with every equation differentiated by all d-words of length <= r.

    Duplicates among the formal derivatives are removed by taking the RREF
    rows of the stacked matrix rather than by syntactic comparison.
    """
    result, columns = _word_rref(sys, r)
    return sys.replace(_equations_from_rref(result, columns))


def projected_system(sys: LinearSystem, s: int) -> LinearSystem:
    """Order-q system cutting out the projection of the s-fold prolongation.

    The prolonged matrix is row reduced with the high-order columns first, so
    the rows supported on jets of order <= q are exactly the consequences
    visible at the original order.
    """
    result, columns = _word_rref(sys, s)
    return sys.replace([e for e in _equations_from_rref(result, columns) if e.order <= sys.order])


def _power_expand(mu, a_rows, n: int) -> dict:
    """Expand prod_i (sum_j A[i][j] x_j)^{mu_i} as {multi-index: coefficient}."""
    poly = {(0,) * n: Fraction(1)}
    for i, e in enumerate(mu):
        for _ in range(e):
            new: dict = {}
            for nu, c in poly.items():
                for j, a in enumerate(a_rows[i]):
                    if a:
                        key = tuple(x + (1 if t == j else 0) for t, x in enumerate(nu))
                        new[key] = new.get(key, Fraction(0)) + c * a
            poly = new
    return poly


def change_coordinates(sys: LinearSystem, change: CoordinateChange) -> LinearSystem:
    """Apply d_i -> sum_j A[i][j] d_j to the operator form of every equation."""
    if sys.params:
        raise ValueError("coordinate changes apply to rational-coefficient systems only")
    if change.n != sys.n:
        raise ValueError("coordinate change size mismatch")
    a = change.matrix
    cache: dict = {}
    new_eqs = []
    for e in sys.equations:
        terms: dict = {}
        for jc, c in e.terms.items():
            if jc.mu not in cache:
                cache[jc.mu] = _power_expand(jc.mu, a, sys.n)
            for nu, w in cache[jc.mu].items():
                key = JetCoordinate(jc.k, nu)
                v = terms.get(key, Fraction(0)) + c * w
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        new_eqs.append(Equation(terms))
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
    by the derivative of the z-unknown of its class.
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


def symbol_equations(sys: LinearSystem, order: int) -> list[Equation]:
    """Homogeneous top parts of all prolongations landing exactly at `order`."""
    out = []
    for e in sys.equations:
        gap = order - e.order
        if gap < 0:
            continue
        top = Equation(e.top_terms())
        for nu in js.multi_indices(sys.n, gap):
            out.append(top.shift(nu))
    return out


def symbol_matrix(sys: LinearSystem, order: int):
    """(matrix, columns) of the symbol equations at the given order."""
    if order < 0:
        return ExactMatrix([], cols=0, params=sys.params), []
    columns = js.jets_exact(sys.n, sys.m, order)
    return equation_matrix(symbol_equations(sys, order), columns, sys.params), columns


def _symbol_rref(sys: LinearSystem, order: int):
    """RREF of the symbol matrix at `order`, with its column list."""
    key = ("symbol", order)
    if key not in sys._cache:
        matrix, columns = symbol_matrix(sys, order)
        sys._cache[key] = (rref(matrix), columns)
    return sys._cache[key]


def stable_order(sys: LinearSystem) -> int:
    """Smallest t with dim R_t = dim R_{t+1} and vanishing symbol above t.

    Raises when that does not happen by order 2q + n + 2.
    """
    prev = slice_at(sys, 0).dimension
    for t in range(1, 2 * sys.order + sys.n + 3):
        cur = slice_at(sys, t).dimension
        if cur == prev:
            result, columns = _symbol_rref(sys, t)
            if len(result.pivots) == len(columns):
                return t - 1
        prev = cur
    raise ValueError("not finite type within the window; apply relative localization first")


def stable_dimension(sys: LinearSystem) -> int:
    """Total dimension of the solution space of a finite-type system."""
    return slice_at(sys, stable_order(sys)).dimension
