from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalpde.ratlinalg import (
    ExactMatrix,
    ParamScalar,
    Poly,
    _fraction_gcd,
    kernel_basis,
    pivot_columns,
    poly_gcd,
    rank,
    rref,
)

F = Fraction


def qmat(rows, cols=None):
    return ExactMatrix([[F(x) for x in row] for row in rows], cols=cols)


# --- independent oracle: plain fraction-based forward elimination -----------

def oracle_rank(rows):
    """Row-echelon rank by textbook Gaussian elimination, nothing shared."""
    m = [[F(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def oracle_rref(rows, ncols):
    """Dense textbook Gauss-Jordan: (reduced rows incl. zero rows, pivots)."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


# --- independent oracle for QQ(chi): the former dense Bareiss kernel --------
# Column-wise fraction-free elimination of the dense view with row swaps,
# then field normalization with ParamScalar arithmetic.  It shares with the
# sparse row-wise kernel of `rref` only the scalar types and their term-dict
# product and difference, which test_poly_arithmetic_matches_evaluation
# checks against plain evaluation.

def _clear_denominators(row: Sequence[ParamScalar], nparams: int) -> list[Poly]:
    d = Poly.one(nparams)
    for e in row:
        if e and e.den != Poly.one(nparams):
            d = d * e.den
    out = []
    for e in row:
        if not e:
            out.append(Poly.zero(nparams))
        else:
            out.append(e.num * d.div_exact(e.den))
    c = _fraction_gcd(v for p in out for v in p.terms.values())
    if c and c != 1:
        out = [Poly(nparams, {ex: v / c for ex, v in p.terms.items()}) for p in out]
    return out


def _rref_param(matrix: ExactMatrix) -> tuple[list[dict], list[int]]:
    """Fraction-free (Bareiss) forward elimination of the dense view, then
    field normalization."""
    s = matrix.params
    m: list[list[Poly]] = [_clear_denominators(row, s) for row in matrix.entries]
    nrows, ncols = len(m), matrix.cols
    pivots: list[int] = []
    prev = Poly.one(s)
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        for i in range(r + 1, nrows):
            f = m[i][c]
            # Bareiss update: every entry is a minor, so division by the
            # previous pivot is exact.
            m[i] = [(p * a - f * b).div_exact(prev) for a, b in zip(m[i], m[r])]
        prev = p
        pivots.append(c)
        r += 1
    # Normalize the echelon form to RREF in the fraction field.
    field_rows: list[list[ParamScalar]] = []
    for i in range(nrows):
        if i < len(pivots):
            p = m[i][pivots[i]]
            field_rows.append([ParamScalar(e, p) for e in m[i]])
        else:
            field_rows.append([ParamScalar.zero(s) for _ in range(ncols)])
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        for j in range(i):
            f = field_rows[j][c]
            if f:
                field_rows[j] = [a - f * b if b else a for a, b in zip(field_rows[j], field_rows[i])]
    return [{c: v for c, v in enumerate(row) if v} for row in field_rows], pivots


# The sixteen third-order symbol equations of the four-variable flagship
# system, written as coefficient rows over the 20 degree-3 monomials in the
# solving order (monomials descending).  Equations with two entries couple a
# solved monomial to a parametric one.
def _ex7_order3_rows():
    from formalpde import jetspace as js

    monomials = js.multi_indices(4, 3)
    col = {mu: i for i, mu in enumerate(monomials)}

    def row(*terms):
        out = [F(0)] * len(monomials)
        for digs, c in terms:
            mu = js.mu_from_digits([int(x) for x in digs], 4)
            out[col[mu]] = F(c)
        return out

    return [
        row(("444", 1)),
        row(("344", 1)),
        row(("334", 1)),
        row(("333", 1)),
        row(("244", 1)),
        row(("234", 1), ("113", -1)),
        row(("233", 1)),
        row(("224", 1)),
        row(("223", 1)),
        row(("222", 1), ("113", -1)),
        row(("144", 1)),
        row(("134", 1), ("122", -1)),
        row(("133", 1)),
        row(("124", 1), ("111", -1)),
        row(("114", 1)),
        row(("112", 1)),
    ]


def test_rref_proportional_rows():
    result = rref(qmat([[1, 2], [2, 4]]))
    assert result.pivots == (0,)
    assert result.matrix.entries == ((F(1), F(2)), (F(0), F(0)))


def test_rref_identity():
    result = rref(qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert result.pivots == (0, 1, 2)
    assert result.matrix.entries == ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


def test_rref_flagship_order3_symbol_full_row_rank():
    rows = _ex7_order3_rows()
    assert len(rows) == 16 and len(rows[0]) == 20
    assert oracle_rank(rows) == 16  # frozen via the independent elimination
    assert rref(qmat(rows)).pivots.__len__() == 16


def test_rank_zero_matrix():
    assert rank(qmat([[0, 0], [0, 0]])) == 0


def test_rank_parameter_unit():
    chi = ParamScalar(Poly.var(1, 0))
    assert rank(ExactMatrix([[chi]], params=1)) == 1


def test_rank_flagship_order4_symbol(corpus_systems):
    from formalpde.pdesystem import symbol_matrix

    matrix, columns = symbol_matrix(corpus_systems["example7"], 4)
    # 35 degree-4 monomials; the prolonged tops reduce to 34 = 35 - 1 equations
    assert len(columns) == 35
    assert rank(matrix) == 34


def test_kernel_single_row():
    k = kernel_basis(qmat([[1, 1]]))
    assert k.cols == 1
    assert [k.entries[0][0], k.entries[1][0]] == [F(-1), F(1)]


def test_kernel_flagship_order4(corpus_systems):
    from formalpde.pdesystem import symbol_matrix

    matrix, _ = symbol_matrix(corpus_systems["example7"], 4)
    assert kernel_basis(matrix).cols == 1


def test_kernel_third_curve_order3(corpus_systems):
    from formalpde.pdesystem import symbol_matrix

    matrix, _ = symbol_matrix(corpus_systems["example6_third"], 3)
    assert kernel_basis(matrix).cols == 6


def test_rref_idempotent_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = qmat([[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)])
        once = rref(m)
        twice = rref(once.matrix)
        assert once.matrix == twice.matrix
        assert once.pivots == twice.pivots


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_rank_nullity(rows):
    m = qmat(rows)
    assert rank(m) + kernel_basis(m).cols == m.cols


def test_rank_matches_oracle_random():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        data = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        assert rank(qmat(data)) == oracle_rank(data)


def test_param_rref_agrees_with_rational_path():
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        data = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        mq = qmat(data)
        mp = ExactMatrix(
            [[ParamScalar(Poly.const(2, v)) for v in row] for row in data], params=2
        )
        rq, rp = rref(mq), rref(mp)
        assert rq.pivots == rp.pivots
        for i in range(rows):
            for j in range(cols):
                assert rp.matrix.entries[i][j] == rq.matrix.entries[i][j]


def test_param_rank_matches_random_evaluation():
    # symbolic rank equals the rank at a random parameter point away from the
    # vanishing locus of the pivots
    rng = random.Random(5)
    chi = Poly.var(1, 0)
    for _ in range(20):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        data = [
            [
                ParamScalar(Poly.const(1, rng.randrange(-2, 3)) + chi * rng.randrange(-2, 3))
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        m = ExactMatrix(data, params=1)
        symbolic = rank(m)
        for point in (F(5), F(7), F(11)):
            evaluated = [[e.evaluate((point,)) for e in row] for row in data]
            if oracle_rank(evaluated) == symbolic:
                break
        else:
            pytest.fail("no evaluation point matched the symbolic rank")


def test_param_rref_structure_and_row_space():
    # pivot columns carry a single 1, and the reduced rows span exactly the
    # original row space (checked symbolically on parametric entries)
    rng = random.Random(17)
    chi = Poly.var(1, 0)
    for _ in range(15):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        data = [
            [
                ParamScalar(Poly.const(1, rng.randrange(-2, 3)) + chi * rng.randrange(-2, 3))
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        m = ExactMatrix(data, params=1)
        result = rref(m)
        for i, p in enumerate(result.pivots):
            col = [result.matrix.entries[r][p] for r in range(result.matrix.rows)]
            assert col[i] == 1
            assert all(not col[r] for r in range(result.matrix.rows) if r != i)
        reduced_rows = [list(r) for r in result.matrix.entries if any(r)]
        stacked = ExactMatrix([list(r) for r in data] + reduced_rows, cols=cols, params=1)
        assert rank(stacked) == len(result.pivots) == rank(m)


def test_paramscalar_arithmetic():
    chi1 = ParamScalar(Poly.var(2, 0))
    chi2 = ParamScalar(Poly.var(2, 1))
    expr = (chi1 + chi2) * (chi1 - chi2)
    assert expr == chi1 * chi1 - chi2 * chi2
    assert (chi1 / chi2) * chi2 == chi1
    assert not (chi1 - chi1)
    with pytest.raises(ZeroDivisionError):
        chi1 / (chi2 - chi2)


_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    max_size=5,
).map(lambda terms: Poly(2, terms))


@settings(max_examples=150, deadline=None)
@given(_POLYS, _POLYS, st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda t: tuple(map(F, t))))
def test_poly_arithmetic_matches_evaluation(p, q, point):
    # evaluation is plain Fraction arithmetic, independent of the term-dict
    # helpers that Poly arithmetic and the QQ(chi) kernel share
    x, y = p.evaluate(point), q.evaluate(point)
    assert (p * q).evaluate(point) == x * y
    assert (p + q).evaluate(point) == x + y
    assert (p - q).evaluate(point) == x - y
    assert all(c for c in (p * q).terms.values()) and all(c for c in (p - q).terms.values())
    assert p - p == Poly.zero(2) and p * Poly.zero(2) == Poly.zero(2)


def test_paramscalar_full_reduction():
    chi = ParamScalar(Poly.var(1, 0))
    ratio = (chi * chi - 1) / (chi - 1)
    reduced = ratio.reduced(full=True)
    assert reduced.den == Poly.one(1)
    assert reduced == chi + 1


def test_poly_gcd():
    x, y = Poly.var(2, 0), Poly.var(2, 1)
    a = (x - y) * (x + y)
    b = (x - y) * x
    assert poly_gcd(a, b) == (x - y).primitive()
    assert poly_gcd(a, Poly.zero(2)) == a.primitive()


def test_poly_div_exact_raises_on_inexact():
    x = Poly.var(1, 0)
    with pytest.raises(ValueError):
        (x * x + 1).div_exact(x + 1)


_QQ_ENTRIES = st.one_of(
    st.just(F(0)),
    st.integers(-4, 4).map(F),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**20),
)


@st.composite
def _qq_matrices(draw):
    """Small QQ matrices, empty ones included, with repeated, scaled and zero rows."""
    ncols = draw(st.integers(0, 6))
    row = st.lists(_QQ_ENTRIES, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "repeat", "scaled")))
        if kind == "zero" or not rows:
            new = [F(0)] * ncols
        elif kind == "repeat":
            new = list(draw(st.sampled_from(rows)))
        else:
            factor = draw(_QQ_ENTRIES)
            new = [factor * x for x in draw(st.sampled_from(rows))]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(_qq_matrices())
def test_sparse_rref_matches_dense_oracle(data):
    rows, ncols = data
    m = ExactMatrix(rows, cols=ncols)
    expected, pivots = oracle_rref(rows, ncols)
    result = rref(m)
    assert result.pivots == tuple(pivots)
    assert (result.matrix.rows, result.matrix.cols) == (len(rows), ncols)
    assert [list(r) for r in result.matrix.entries] == expected
    assert rank(m) == len(result.pivots)
    # the integer kernel on the rows scaled by their denominators
    cleared = []
    for r in rows:
        den = 1
        for x in r:
            den = den * x.denominator // math.gcd(den, x.denominator)
        cleared.append({c: int(x * den) for c, x in enumerate(r) if x})
    assert pivot_columns(cleared) == result.pivots


def _chi_entry(parts):
    a, b, over = parts
    den = Poly(1, {(0,): 1, (1,): 1}) if over else None
    return ParamScalar(Poly(1, {(0,): a, (1,): b}), den)


# a + b*chi, or that over chi + 1: one QQ(chi) family, zero included
_CHI_ENTRIES = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.booleans()).map(_chi_entry)


@st.composite
def _matrices(draw):
    """(rows, ncols, params): a matrix of `_qq_matrices`, or a small QQ(chi) one."""
    if draw(st.booleans()):
        return (*draw(_qq_matrices()), 0)
    ncols = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(_CHI_ENTRIES, min_size=ncols, max_size=ncols), max_size=4))
    return rows, ncols, 1


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_sparse_rows_are_the_matrix(data):
    rows, ncols, params = data
    m = ExactMatrix(rows, cols=ncols, params=params)
    sparse = [{c: v for c, v in enumerate(r) if v} for r in rows]
    assert list(m.sparse) == sparse
    assert m == ExactMatrix.from_rows(sparse, ncols, params)
    assert (m.rows, m.cols, m.params) == (len(rows), ncols, params)
    # the dense view round-trips, and is built once
    assert [list(r) for r in m.entries] == rows
    assert m.entries is m.entries
    assert ExactMatrix(m.entries, cols=ncols, params=params) == m
    assert [list(r) for r in m.transpose().entries] == [[r[c] for r in rows] for c in range(ncols)]


@st.composite
def _products(draw):
    params = draw(st.integers(0, 1))
    entry = _CHI_ENTRIES if params else _QQ_ENTRIES
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    a = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(r)]
    b = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(k)]
    return ExactMatrix(a, cols=k, params=params), ExactMatrix(b, cols=c, params=params)


@settings(max_examples=200, deadline=None)
@given(_products())
def test_product_matches_dense_oracle(pair):
    a, b = pair
    zero = a.zero()
    expected = [
        [sum((a.entries[i][k] * b.entries[k][j] for k in range(a.cols)), zero) for j in range(b.cols)]
        for i in range(a.rows)
    ]
    product = a @ b
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert [list(r) for r in product.entries] == expected
    assert product.is_zero() == all(not x for r in expected for x in r)


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_kernel_is_annihilated_and_identity_on_free_columns(data):
    rows, ncols, params = data
    m = ExactMatrix(rows, cols=ncols, params=params)
    result = rref(m)
    kernel = kernel_basis(m)
    assert kernel == result.kernel()
    free = [c for c in range(ncols) if c not in result.pivots]
    assert (kernel.rows, kernel.cols) == (ncols, len(free))
    assert (m @ kernel).is_zero()
    identity = [[F(f == g) for g in free] for f in free]
    assert [[kernel.entries[f][b] for b in range(len(free))] for f in free] == identity


def _chi2(a, b, c):
    return Poly(2, {(0, 0): a, (1, 0): b, (0, 1): c})


_CHI2_NUMERATORS = st.builds(
    lambda a, b, j: _chi2(a, b, 0) if j else _chi2(a, 0, b),
    st.sampled_from((-2, -1, 1, 2)),
    st.integers(-2, 2),
    st.booleans(),
)


@st.composite
def _chi2_matrices(draw):
    """Sparse QQ(chi_1, chi_2) matrices up to 6x6 with entries a + b*chi_j and,
    in up to two columns, (a + b*chi_j)/d for d = chi_2 + c (c drawn once per
    matrix) or 1 + chi_1; plus inserted zero, repeated and parametrically
    scaled rows, up to 8 rows.  Two denominators a row at most keep the
    dense oracle fast: it multiplies a row by every denominator in it."""
    ncols = draw(st.integers(0, 6))
    over = draw(st.sets(st.integers(0, 5), max_size=2))
    dens = st.sampled_from((None, _chi2(draw(st.integers(-2, 2)), 0, 1), _chi2(1, 1, 0)))
    zero = st.just(ParamScalar.zero(2))
    entries = [
        st.one_of(zero, st.builds(ParamScalar, _CHI2_NUMERATORS, dens if c in over else st.none()))
        for c in range(ncols)
    ]
    rows = draw(st.lists(st.tuples(*entries).map(list), max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("zero", "repeat", "scaled")))
        if kind == "zero" or not rows:
            new = [ParamScalar.zero(2)] * ncols
        elif kind == "repeat":
            new = list(draw(st.sampled_from(rows)))
        else:
            factor = ParamScalar(draw(_CHI2_NUMERATORS))
            new = [factor * x for x in draw(st.sampled_from(rows))]
        rows.insert(draw(st.integers(0, len(rows))), new)
    return ExactMatrix(rows, cols=ncols, params=2)


@settings(max_examples=200, deadline=None)
@given(_chi2_matrices())
def test_param_rref_matches_dense_bareiss_oracle(m):
    expected, pivots = _rref_param(m) if m.rows else ([], [])
    result = rref(m)
    assert result.pivots == tuple(pivots)
    assert (result.matrix.rows, result.matrix.cols) == (m.rows, m.cols)
    expected = ExactMatrix.from_rows(expected, m.cols, 2)
    # ParamScalar equality is semantic: a/b == c/d when a*d == c*b
    assert [list(r) for r in result.matrix.entries] == [list(r) for r in expected.entries]
    assert rank(m) == len(result.pivots)
