"""Symbols, the delta-complex, Cartan characters and the involution test.

The symbol g_order is the kernel of the homogeneous top parts of all
prolongations landing at that order.  The delta map sends an s-form with
values in g_order to an (s+1)-form with values in g_{order-1} by
(delta w)^k_mu = dx^i wedge w^k_{mu+1_i}; its cohomology detects the
obstructions to involution that the coordinate-dependent Janet tableau can
miss.  Its ranks are taken over QQ on integer rows, and at exterior degree 0
read off dim g_order by Euler's identity (:func:`_delta_rank`); only over
QQ(chi) is the matrix built, on the exact kernel basis (:func:`delta_matrix`).

The numerical involution test is Cartan's: in some linear frame the count
dim g_{order+1} = sum_i i*alpha_i must hold.  Equality in any frame implies
involutivity (the multiplicative prolongations of the solved equations are
always independent), so the frame search can only fail towards false
negatives, and those are cross-checked against the delta-cohomology.

An involutive g_q' has zero delta-cohomology at every order >= q' (Seiler
2010, *Involution*, ch. 6), so the window scans stop at the first order that
passes Cartan's test in the identity frame or the curve frame A(2), and
record it as the system's seal (:func:`sealed_order`).  A scan's verdict is
exact when the symbol is finite type or sealed, and window-limited otherwise.

Symbols and frame tableaux are read off one memoised elimination per order,
the reduced identity-frame symbol rows {pivot: row} over either field
(integer rows over QQ, which also give the delta bases), by two exact
rules: g_t = 0 once g_{t-1} = 0 (:func:`symbol`), and in a frame A the
pivots of class >= k number rank_k, the rank of those r rows restricted to
L_k = span(columns k..n of A) (:func:`janet_tableau`).  One lazy walk reads
rank_n, ..., rank_1 from L_n (a line) down (:func:`_flag_ranks`).  With
d = dim g_order and C_k = m * #monomials of degree `order` on L_k, rank_k
lies between max(rank_{k+1}, C_k - d) and min(r, C_k), and is eliminated
only where these differ: once a rank is r so is every later one, g = 0
gives C_k, and rank_1 = r.

One frame search serves the seal (the identity, then A(2)) and the
involution certificate (the identity, then the random frames): it keeps the
tableau with beta[::-1] lexicographically largest, the first met among
equals, until one attains the Cartan count, a function of beta
(:func:`_frame_search`).  As rank_k = sum_{i >= k} beta_i, a frame's walk is
compared with the best's ranks from L_n down until a rank differs, or until
the best's is r, past which the frame can only tie; only a winner finishes
its walk and becomes a :class:`CoordinateChange`.  A frame that attains the
count is delta-regular, its ranks the generic maxima on every L_k (Seiler
2010, *Involution*), so it outranks an identity that fails: the seal needs
A(2)'s full tableau only when A(2) wins.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import NamedTuple

from . import jetspace as js
from .jetspace import JetCoordinate
from .pdesystem import CoordinateChange, LinearSystem, _symbol_rref, flag_levels, memoised, monomial_expander
from .ratlinalg import ExactMatrix, divided, pivot_columns, rank

# random unimodular frames tried after the identity frame fails Cartan's test,
# each made of FRAME_STEPS random row additions kept within [-FRAME_BOUND, FRAME_BOUND]
N_FRAMES = 25
FRAME_BOUND = 3
FRAME_STEPS = 12


class SymbolSpace(NamedTuple):
    """g_order, the kernel of the symbol matrix at `order`: its monomials and
    the free columns left by the pivots of one elimination.  It holds no
    basis; :func:`delta_matrix` builds the exact kernel."""

    order: int
    ambient: int
    monomials: tuple
    free_columns: tuple

    @property
    def dim(self) -> int:
        return len(self.free_columns)


class DeltaReport(NamedTuple):
    """Dimension bookkeeping of the delta-complex at one spot Lambda^s (x) g_order."""

    s: int
    order: int
    dim_domain: int
    dim_codomain: int
    rank_out: int
    rank_in: int

    @property
    def dim_cocycles(self) -> int:
        return self.dim_domain - self.rank_out

    @property
    def dim_coboundaries(self) -> int:
        return self.rank_in

    @property
    def dim_cohomology(self) -> int:
        h = self.dim_cocycles - self.dim_coboundaries
        if h < 0:
            raise AssertionError("coboundaries exceed cocycles; delta complex broken")
        return h


class JanetTableau(NamedTuple):
    """Per-class solved-equation counts beta_i and characters alpha_i at one order."""

    order: int
    beta: tuple
    alpha: tuple
    frame: CoordinateChange

    @property
    def multiplicative_sum(self) -> int:
        return sum((i + 1) * a for i, a in enumerate(self.alpha))


class InvolutionCertificate(NamedTuple):
    method: str  # 'cartan' | 'cohomology' | 'trivial'
    frames_tried: int
    dim_next_symbol: int
    multiplicative_sum: int
    window: int
    nonzero_cohomology: tuple  # ((s, order, dim H), ...)
    window_limited: bool = False


class InvolutionResult(NamedTuple):
    involutive: bool
    tableau: JanetTableau
    certificate: InvolutionCertificate


@memoised
def symbol(sys: LinearSystem, order: int) -> SymbolSpace:
    """g_order from the pivots of :func:`_symbol_rref`, or empty with no elimination
    when the memo already holds g_{order-1} = 0: for v in g_order each d_i v
    satisfies the conditions defining g_{order-1}, so d_i v = 0 and v = 0."""
    if order >= 1 and ("symbol", order - 1) in sys._cache and symbol_dim(sys, order - 1) == 0:
        columns = tuple(js.jets_exact(sys.n, sys.m, order))
        return SymbolSpace(order, len(columns), columns, ())
    reduced, columns = _symbol_rref(sys, order)
    free = tuple(columns[j] for j in range(len(columns)) if j not in reduced)
    return SymbolSpace(order, len(columns), tuple(columns), free)


def symbol_dim(sys: LinearSystem, order: int) -> int:
    if order < 0:
        return 0
    return symbol(sys, order).dim


def _lifts(sys: LinearSystem, order: int) -> list:
    """lifts[t][i - 1]: the index in g_order's monomials of x_i times the free column t of g_{order-1}."""
    if not symbol_dim(sys, order - 1):
        return []
    index = {jc: idx for idx, jc in enumerate(symbol(sys, order).monomials)}
    units = [tuple(int(p == i) for p in range(sys.n)) for i in range(sys.n)]
    free = symbol(sys, order - 1).free_columns
    return [[index[JetCoordinate(jc.k, js.shift(jc.mu, u))] for u in units] for jc in free]


def _delta_rows(sys: LinearSystem, s: int, order: int, basis, lifts):
    """Sparse rows of delta at Lambda^s (x) g_order from the rows `basis` (one
    per monomial) of a basis of g_order and its :func:`_lifts`.

    Columns are indexed by (sorted index set I, basis vector b), rows by (J,
    free column t of g_{order-1}), exact coordinates on g_{order-1}.  Row
    (J, t) is the sum over i in J of +-(row lifts[t][i-1] of `basis`) in the
    block of I = J - i, + when i sits at an even position of J.
    """
    n = sys.n
    if not 0 <= s < n:
        raise ValueError("top exterior degree")
    dim = symbol_dim(sys, order)
    dom_index = {I: ci for ci, I in enumerate(itertools.combinations(range(1, n + 1), s))}
    for J in itertools.combinations(range(1, n + 1), s + 1):
        blocks = [(i - 1, dom_index[J[:p] + J[p + 1 :]] * dim, p % 2 == 0) for p, i in enumerate(J)]
        for lift in lifts:
            row = {}
            for i, offset, positive in blocks:
                for b, v in basis[lift[i]].items():
                    row[offset + b] = v if positive else -v
            yield row


def delta_matrix(sys: LinearSystem, s: int, order: int) -> ExactMatrix:
    """Matrix of delta: Lambda^s (x) g_order -> Lambda^{s+1} (x) g_{order-1},
    the :func:`_delta_rows` of the exact kernel basis of g_order, built here
    from the reduced rows of :func:`_symbol_rref`."""
    reduced, columns = _symbol_rref(sys, order)
    basis = divided(reduced, len(columns), sys.params).kernel()
    rows = list(_delta_rows(sys, s, order, basis.sparse, _lifts(sys, order)))
    return ExactMatrix.from_rows(rows, math.comb(sys.n, s) * symbol_dim(sys, order), sys.params)


@memoised
def _delta_basis(sys: LinearSystem, order: int):
    """The kernel basis of g_order over QQ as integer rows, one per monomial,
    each vector times the lcm of its denominators (which scales delta's
    columns, keeping ranks); and its :func:`_lifts`.  The vector of free column
    f is 1 at f and -r[f] / r[p] at the pivot p of each reduced integer row r."""
    reduced, columns = _symbol_rref(sys, order)
    position = {f: b for b, f in enumerate(c for c in range(len(columns)) if c not in reduced)}
    scale = [1] * len(columns)
    for p, row in reduced.items():
        for f, v in row.items():
            scale[f] = math.lcm(scale[f], abs(row[p]) // math.gcd(row[p], v))  # 1 at f = p
    rows = [{position[c]: scale[c]} if c in position else {} for c in range(len(columns))]
    for p, row in reduced.items():
        rows[p] = {position[f]: -v * scale[f] // row[p] for f, v in row.items() if f != p}
    return rows, _lifts(sys, order)


@memoised
def _delta_rank(sys: LinearSystem, s: int, order: int) -> int:
    """Rank of :func:`delta_matrix` at Lambda^s (x) g_order over either field,
    over QQ on the integer rows of :func:`_delta_basis`.  At s = 0 it is dim
    g_order with no matrix (0 at order 0): delta w is the family of d_i w in
    g_{order-1}, and if all vanish, order * w = sum_i x_i d_i w (Euler) is 0."""
    if s == 0:
        return symbol_dim(sys, order) if order >= 1 else 0
    if sys.params:
        return rank(delta_matrix(sys, s, order))
    return len(pivot_columns(_delta_rows(sys, s, order, *_delta_basis(sys, order))))


def cohomology(sys: LinearSystem, s: int, order: int) -> DeltaReport:
    """Dimension of H^s at Lambda^s (x) g_order.

    dim H = dim ker(delta out) - rank(delta in).  The outgoing map is zero at
    the top exterior degree s = n, which is needed to detect failures of
    n-acyclicity on finite-type symbols.
    """
    n = sys.n
    if not 0 <= s <= n:
        raise ValueError("exterior degree out of range")
    dim_dom = math.comb(n, s) * symbol_dim(sys, order)
    dim_cod = math.comb(n, s + 1) * symbol_dim(sys, order - 1) if s < n else 0
    rank_out = _delta_rank(sys, s, order) if s < n and dim_dom else 0
    if s >= 1 and symbol_dim(sys, order + 1):
        rank_in = _delta_rank(sys, s - 1, order + 1)
    else:
        rank_in = 0
    return DeltaReport(s, order, dim_dom, dim_cod, rank_out, rank_in)


def janet_tableau(sys: LinearSystem, order: int, frame: CoordinateChange | None = None) -> JanetTableau:
    """Per-class counts of the pivots (beta) and free columns (alpha) of the
    symbol RREF at `order` in `frame`, from the identity-frame symbol.

    The columns run class-descending, so the pivots of class >= k lie in the
    leading columns, the monomials in x_k..x_n, and number rank_k: the
    columns of class >= k less the free ones in the identity frame, and in a
    frame A, which carries the identity RREF rows p(x) to p(Ax), the rank of
    the r rows p restricted to L_k (:func:`_flag_ranks`).  Hence beta_k =
    rank_k - rank_{k+1}.  An order-0 jet has no class: order 0 takes the
    identity's counts in every frame.
    """
    if frame is not None and not frame.is_identity() and order > 0:
        return _tableau(sys, order, list(_flag_ranks(sys, order, frame.matrix)), frame)
    classes = [js.class_of(jc.mu) for jc in symbol(sys, order).free_columns]
    pivots = [sys.m * js.class_count(sys.n, order, i) - classes.count(i) for i in range(sys.n, 0, -1)]
    return _tableau(sys, order, list(itertools.accumulate(pivots)), frame or CoordinateChange.identity(sys.n))


def _tableau(sys: LinearSystem, order: int, ranks: list, frame: CoordinateChange) -> JanetTableau:
    """The tableau of `frame` from its ranks rank_n, ..., rank_1."""
    beta = [b - a for a, b in itertools.pairwise([0, *ranks])][::-1]
    counts = [sys.m * js.class_count(sys.n, order, i) for i in range(1, sys.n + 1)]
    return JanetTableau(order, tuple(beta), tuple(c - b for c, b in zip(counts, beta)), frame)


def _flag_ranks(sys: LinearSystem, order: int, a):
    """rank_n, rank_{n-1}, ..., rank_1 of the r symbol rows at `order` on the
    :func:`flag_levels` L_k of the square matrix `a`, computed lazily.  rank_k
    lies between max(rank_{k+1}, C_k - d) and min(r, C_k), d = dim g_order,
    and :func:`_flag_rank` runs only where these bounds differ."""
    if sys.params or len(a) != sys.n:
        raise ValueError("a frame needs a rational system in as many variables")
    g, rank_k = symbol(sys, order), 0
    d, r = g.dim, g.ambient - g.dim
    for basis in flag_levels(a):
        size = sys.m * js.monomial_count(len(basis), order)
        rank_k = max(rank_k, size - d)
        if rank_k < min(r, size):
            reduced, columns = _symbol_rref(sys, order)
            rank_k = _flag_rank(reduced.values(), columns, sys.m, order, basis)
        yield rank_k


def _flag_rank(rows, columns, m: int, degree: int, basis: tuple) -> int:
    """Rank of the integer symbol rows restricted to the span of `basis`.

    A point sum_s t_s b_s has coordinates x_i = sum_s b_s[i] t_s, a single term
    at each pivot, so :func:`monomial_expander` expands x^mu on the codes
    sum_s e_s B^s (B = degree + 1) of the monomials t^e, once per monomial.
    The rank is at most min(r, m * #monomials), where it stops.
    """
    forms = [{(degree + 1) ** s: b[i] for s, b in enumerate(basis) if i in b} for i in range(len(columns[0].mu))]
    expand = monomial_expander(forms)
    expansions: dict = {}

    def images():
        for row in rows:
            image: dict = {}
            for c, x in row.items():
                j, k = divmod(c, m)
                if j not in expansions:
                    expansions[j] = expand(columns[c].mu)
                for u, w in expansions[j].items():
                    image[u * m + k] = image.get(u * m + k, 0) + x * w
            yield {u: x for u, x in image.items() if x}

    return len(pivot_columns(images(), min(len(rows), m * js.monomial_count(len(basis), degree))))


def _unimodular_draw(n: int, rng: random.Random) -> tuple:
    """Random integer matrix with entries within [-FRAME_BOUND, FRAME_BOUND],
    of determinant +-1 by construction: each step adds +-1 times one row to
    another, from the identity."""
    a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(FRAME_STEPS):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        sgn = rng.choice((-1, 1))
        new_row = [a[i][t] + sgn * a[j][t] for t in range(n)]
        if all(abs(x) <= FRAME_BOUND for x in new_row):
            a[i] = new_row
    return tuple(map(tuple, a))


@functools.lru_cache(maxsize=4)  # a run uses one seed and few variable counts
def _frames(n: int, seed: int) -> tuple:
    """The N_FRAMES random unimodular integer matrices of the search, drawn
    once per (n, seed); the search builds the frame of a matrix only when it wins."""
    rng = random.Random(seed)
    return tuple(_unimodular_draw(n, rng) for _ in range(N_FRAMES))


@functools.cache
def curve_frame(n: int) -> CoordinateChange:
    """A(2): upper unitriangular, the k-th pair i < j in row order (k = 1, 2, ...)
    has A[i][j] = 2^k."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for k, (i, j) in enumerate(itertools.combinations(range(n), 2), start=1):
        a[i][j] = 2**k
    return CoordinateChange(tuple(map(tuple, a)))


def _frame_search(sys: LinearSystem, order: int, draws) -> tuple:
    """(best, tried): from the identity frame's tableau at `order`, the best
    over the matrices of `draws()`, which is called only if the identity
    misses the Cartan count and read until the best attains it; `tried`
    counts the matrices read."""
    dim_next = symbol_dim(sys, order + 1)
    best, tried = janet_tableau(sys, order), 0
    if best.multiplicative_sum == dim_next:
        return best, tried
    r = sum(best.beta)  # rank_1 in every frame
    targets = [t for t in itertools.accumulate(reversed(best.beta)) if t < r]  # the best's ranks below r
    for draw in draws():
        tried += 1
        walk, ranks = _flag_ranks(sys, order, draw), []
        for target, rank_k in zip(targets, walk):
            ranks.append(rank_k)
            if rank_k != target:
                break
        if ranks > targets[: len(ranks)]:
            ranks += walk
            best, targets = _tableau(sys, order, ranks, CoordinateChange(draw)), [t for t in ranks if t < r]
            if best.multiplicative_sum == dim_next:
                break
    return best, tried


@memoised
def _passes_cartan(sys: LinearSystem, order: int) -> bool:
    """Cartan's test at `order` by the :func:`_frame_search` over A(2); a
    system over QQ(chi) takes the identity only.  True certifies g_order involutive.
    An order-0 jet has no class, so order 0 is never certified."""
    if order < 1:
        return False
    best, _ = _frame_search(sys, order, lambda: () if sys.params else (curve_frame(sys.n).matrix,))
    return best.multiplicative_sum == symbol_dim(sys, order + 1)


def sealed_order(sys: LinearSystem) -> int | None:
    """The smallest order a window scan has found involutive, or None: every
    delta-cohomology of `sys` vanishes from there on, and a nonzero symbol
    there never dies."""
    return sys._cache.get(("seal",))


def acyclicity_scan(sys: LinearSystem, s_max: int, order: int, window: int):
    """H^s dimensions for 1 <= s <= s_max at orders order..order+window.

    Stops early once the symbol vanishes (finite type) or at the seal, the
    first order whose spots are all zero and that passes Cartan's test
    (:func:`_passes_cartan`): every higher spot is zero and is not reported.
    That test runs only where dim g_{o+1} >= dim g_o > 0, which an involutive
    g_o satisfies (dim g_{o+1} = sum i*alpha_i >= sum alpha_i).  Returns
    (reports, exact): the verdict is exact when finite type or sealed.
    """
    reports, seal = [], sealed_order(sys)
    for o in range(order, order + window + 1):
        if (seal is not None and o >= seal) or not (dim := symbol_dim(sys, o)):
            return reports, True
        spots = [cohomology(sys, s, o) for s in range(1, min(s_max, sys.n) + 1)]  # Lambda^s = 0 above n
        reports += spots
        if not any(r.dim_cohomology for r in spots) and symbol_dim(sys, o + 1) >= dim and _passes_cartan(sys, o):
            sys._cache[("seal",)] = o
            return reports, True
    return reports, False


def is_s_acyclic(sys: LinearSystem, s_max: int, order: int, window: int):
    """(verdict, window_limited): exact when finite type or sealed."""
    reports, exact = acyclicity_scan(sys, s_max, order, window)
    if any(rep.dim_cohomology for rep in reports):
        return False, False
    return True, not exact


def stabilization_window(sys: LinearSystem) -> int:
    """How many orders past the start the involution and acyclicity scans look."""
    return 2 * max(sys.order, 1) + sys.n


def is_involutive_symbol(sys: LinearSystem, order: int | None = None, seed: int = 0) -> InvolutionResult:
    """Cartan's numerical test with a delta-regularity frame search.

    Returns involutive=True as soon as some frame attains the Cartan count;
    otherwise the answer is taken from the delta-cohomology over the
    stabilization window (exact when finite type or sealed, see
    :func:`acyclicity_scan`).
    Memoised per (order, seed) in the system's cache.
    """
    return _involution_test(sys, sys.order if order is None else order, seed)


@memoised
def _involution_test(sys: LinearSystem, order: int, seed: int) -> InvolutionResult:
    """Cartan's test by the :func:`_frame_search` over the random frames of
    `seed`, none drawn if the identity passes; failing that, the delta-cohomology."""
    window = stabilization_window(sys)
    if order < 1 or not sys.equations:
        tableau = JanetTableau(order, (0,) * sys.n, (0,) * sys.n, CoordinateChange.identity(sys.n))
        cert = InvolutionCertificate("trivial", 0, symbol_dim(sys, order + 1), 0, window, ())
        return InvolutionResult(not sys.equations, tableau, cert)
    dim_next = symbol_dim(sys, order + 1)
    best, tried = _frame_search(sys, order, functools.partial(_frames, sys.n, seed))
    if best.multiplicative_sum == dim_next:
        cert = InvolutionCertificate("cartan", tried, dim_next, best.multiplicative_sum, window, ())
        return InvolutionResult(True, best, cert)
    # no frame reached the Cartan count: trust the cohomology, flagging the
    # window when the scan saw no obstruction and was not exact
    reports, exact = acyclicity_scan(sys, sys.n, order, window)
    nonzero = tuple((r.s, r.order, r.dim_cohomology) for r in reports if r.dim_cohomology)
    cert = InvolutionCertificate(
        "cohomology", tried, dim_next, best.multiplicative_sum, window, nonzero, not (nonzero or exact)
    )
    return InvolutionResult(not nonzero, best, cert)
