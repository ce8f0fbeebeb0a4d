from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import CORPUS_TEXTS, constant_coefficient_systems, make_system, symbol_oracle_systems
from formalpde import jetspace as js
from formalpde.parser import parse
from formalpde.pdesystem import (
    CoordinateChange,
    Equation,
    LinearSystem,
    change_coordinates,
    companion_unknowns,
    equation_matrix,
    first_order_companion,
    flag_levels,
    projected_system,
    prolong,
    slice_at,
    stable_dimension,
    symbol_matrix,
)
from formalpde.ratlinalg import ExactMatrix, rank
from formalpde.spencer import _unimodular_draw, curve_frame

F = Fraction


def leading_digits(sys):
    return [js.digits(e.leading_jet().mu) for e in sys.equations]


def equation_support(sys):
    return [sorted(js.digits(jc.mu) for jc in e.terms) for e in sys.equations]


def test_prolong_single_ode():
    sys = make_system(1, [("11", 1)])
    out = prolong(sys, 1)
    assert [(1, 1, 1)] in [sorted(js.digits(jc.mu) for jc in e.terms) for e in out.equations]


def test_prolong_reveals_crossed_derivative(corpus_systems):
    # d_3 y_11 - d_1 (y_13 - y_2) leaves y_12 at order three
    out = prolong(corpus_systems["example3"], 1)
    assert [(1, 2)] in equation_support(out)


def test_prolong_flagship_symbol_order3(corpus_systems):
    matrix, _ = symbol_matrix(corpus_systems["example7"], 3)
    assert rank(matrix) == 16


def test_slice_flagship_dimensions(corpus_systems):
    sys = corpus_systems["example7"]
    assert [slice_at(sys, r).dimension for r in range(1, 6)] == [5, 11, 15, 16, 16]


def test_slice_example5_rprime(corpus_systems):
    assert stable_dimension(corpus_systems["example5_rprime"]) == 8


def test_slice_abstract_qprime(corpus_systems):
    sys = corpus_systems["abstract_n2_qprime"]
    sl = slice_at(sys, 3)
    assert stable_dimension(sys) == 6
    assert [js.jet_name(jc, 1) for jc in sl.parametric] == [
        "y",
        "y_1",
        "y_2",
        "y_{11}",
        "y_{22}",
        "y_{111}",
    ]


def test_projection_example3(corpus_systems):
    sys = corpus_systems["example3"]
    p1 = projected_system(sys, 1)
    assert sorted(equation_support(p1)) == sorted([[(1, 1)], [(1, 2)], [(1, 3), (2,)]])
    p2 = projected_system(sys, 2)
    assert sorted(equation_support(p2)) == sorted(
        [[(1, 1)], [(1, 2)], [(2, 2)], [(1, 3), (2,)]]
    )


def test_projection_monomial_stable():
    sys = make_system(1, [("11", 1)])
    assert equation_support(projected_system(sys, 1)) == equation_support(prolong(sys, 0))


def test_projection_twisted_cubic_two_rounds(corpus_systems):
    # d_3(y_333 - y_1) - d_33(y_33 - y_2) - d_2(y_33 - y_2) = y_22 - y_13 lies in
    # R_4, so one round already yields all three order-<=2 equations, and a
    # second round adds nothing
    sys = corpus_systems["example6_twisted"]
    expected = sorted([[(2,), (3, 3)], [(1,), (2, 3)], [(1, 3), (2, 2)]])
    round1 = projected_system(sys, 1)
    low1 = [e for e in round1.equations if e.order <= 2]
    assert sorted(sorted(js.digits(jc.mu) for jc in e.terms) for e in low1) == expected
    round2 = projected_system(round1, 1)
    low2 = [e for e in round2.equations if e.order <= 2]
    assert sorted(sorted(js.digits(jc.mu) for jc in e.terms) for e in low2) == expected


def test_change_coordinates_identity(corpus_systems):
    sys = corpus_systems["example7"]
    assert change_coordinates(sys, CoordinateChange.identity(4)) == sys


def test_change_coordinates_example2(corpus_systems):
    changed = change_coordinates(
        corpus_systems["example2"], CoordinateChange(((1, -1, 0), (0, 1, 0), (0, 0, 1)))
    )
    canonical = prolong(changed, 0)
    assert sorted(equation_support(canonical)) == sorted(
        [[(3, 3)], [(2, 3)], [(1, 2), (2, 2)], [(1, 3)]]
    )


def test_change_coordinates_example8(corpus_systems):
    changed = change_coordinates(
        corpus_systems["example8"], CoordinateChange(((1, 0, -1), (0, 1, 0), (0, 0, 1)))
    )
    canonical = prolong(changed, 0)
    assert sorted(equation_support(canonical)) == sorted([[(1, 3), (3, 3)], [(2, 3)]])


@pytest.mark.parametrize(
    "rows",
    [
        ((1, 1, 0), (1, 1, 0), (0, 0, 1)),
        ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 2), 1)),
        # column 1 = column 2 + 2 * column 3: only the last step of the flag sees it
        ((1, 1, 0), (2, 0, 1), (3, 1, 1)),
    ],
    ids=["repeated-row", "non-integral", "first-column-in-span"],
)
def test_change_coordinates_rejects_singular(rows):
    with pytest.raises(ValueError, match="singular coordinate change"):
        CoordinateChange(rows)


def test_coordinate_change_converts_checks_and_compares_by_its_matrix():
    ints = CoordinateChange(((1, 2), (0, 1)))
    fractions = CoordinateChange(((F(1), F(2)), (F(0), F(1))))
    assert all(type(x) is Fraction for row in ints.matrix for x in row)
    assert ints == fractions and hash(ints) == hash(fractions)
    assert {ints: "frame"}[fractions] == "frame"
    assert ints != CoordinateChange.identity(2) and ints != ints.matrix
    assert repr(ints) == (
        "CoordinateChange(matrix=((Fraction(1, 1), Fraction(2, 1)), (Fraction(0, 1), Fraction(1, 1))))"
    )
    with pytest.raises(ValueError, match="coordinate change must be square"):
        CoordinateChange(((1, 0),))
    with pytest.raises(ValueError, match="singular coordinate change"):
        CoordinateChange(((1, 2), (2, 4)))


def test_coordinate_change_flag_is_a_reduced_basis_of_the_trailing_columns():
    rng = random.Random(0)
    half = [[F(i == j) + F(j == i + 1, 2) for j in range(4)] for i in range(4)]
    frames = [CoordinateChange(_unimodular_draw(4, rng)) for _ in range(10)] + [curve_frame(4), CoordinateChange(half)]
    for frame in frames:
        n = frame.n
        levels = [list(basis) for basis in flag_levels(frame.matrix)]
        assert len(levels) == n
        for k in range(1, n + 1):
            columns = [[row[j] for row in frame.matrix] for j in range(k - 1, n)]
            basis = levels[n - k]
            assert all(isinstance(x, int) for b in basis for x in b.values())
            vectors = [[b.get(i, 0) for i in range(n)] for b in basis]
            assert len(basis) == n - k + 1 == rank(ExactMatrix(columns)) == rank(ExactMatrix(columns + vectors))
            pivots = [max(b) for b in basis]
            assert all(p not in b for p in pivots for b in basis if max(b) != p)


def test_change_coordinates_matches_sympy_expansion():
    # an oracle independent of the expansion that change_coordinates shares
    # with the frame tableaux: each equation as the operator sum_k c d^mu y^k,
    # d_i -> sum_j A[i][j] d_j, multiplied out by sympy
    sympy = pytest.importorskip("sympy")
    rng = random.Random(7)
    for text in CORPUS_TEXTS.values():
        sys = parse(text).system
        d = sympy.symbols(f"d1:{sys.n + 1}")
        half = [[F(i == j) + F(j == i + 1, 2) for j in range(sys.n)] for i in range(sys.n)]
        drawn = [CoordinateChange(_unimodular_draw(sys.n, rng)) for _ in range(3)]
        frames = drawn + [curve_frame(sys.n), CoordinateChange(half)]
        for frame in frames:
            images = [sum(sympy.Rational(str(x)) * dj for x, dj in zip(row, d)) for row in frame.matrix]
            moved = change_coordinates(sys, frame)
            assert len(moved.equations) == len(sys.equations)
            for e, got in zip(sys.equations, moved.equations):
                operators: dict = {}
                for jc, c in e.terms.items():
                    term = sympy.Rational(str(c)) * sympy.Mul(*(images[i] ** p for i, p in enumerate(jc.mu)))
                    operators[jc.k] = operators.get(jc.k, 0) + term
                expected = {
                    (k, nu): F(int(coef.p), int(coef.q))
                    for k, op in operators.items()
                    for nu, coef in sympy.Poly(op, *d).terms()
                    if coef
                }
                assert {(jc.k, jc.mu): c for jc, c in got.terms.items()} == expected


def test_companion_example3_completed(corpus_systems):
    completed = make_system(
        3, [("33", 1)], [("23", 1)], [("22", 1)], [("13", 1), ("2", -1)]
    )
    comp = first_order_companion(completed)
    assert comp.m == 4
    assert len(comp.equations) == 10
    assert comp.order == 1
    assert [js.jet_name(jc, 1) for jc in companion_unknowns(completed)] == [
        "y",
        "y_1",
        "y_2",
        "y_3",
    ]


def test_companion_example8_framed(corpus_systems):
    framed = prolong(
        change_coordinates(
            corpus_systems["example8"], CoordinateChange(((1, 0, -1), (0, 1, 0), (0, 0, 1)))
        ),
        0,
    )
    comp = first_order_companion(framed)
    assert comp.m == 4
    assert len(comp.equations) == 8


def test_companion_first_order_input_unchanged():
    sys = make_system(1, [("1", 1)])
    comp = first_order_companion(sys)
    assert comp.m == 1
    assert len(comp.equations) == 1
    assert equation_support(comp) == [[(1,)]]


def test_companion_preserves_solution_dimensions(corpus_systems):
    completed = make_system(
        3, [("33", 1)], [("23", 1)], [("22", 1)], [("13", 1), ("2", -1)]
    )
    comp = first_order_companion(completed)
    # z-jets of order <= 1 carry the same information as y-jets of order <= 2
    assert slice_at(comp, 1).dimension == slice_at(completed, 2).dimension


def test_companion_of_a_mixed_order_system_keeps_dim_r():
    # z2 = y2 = 0 and z2' = z4 give z4 = y2_1 = 0 only inside R_1 of the
    # companion as built; the companion is that R_1, so dim R_1 is dim R_2
    sys = parse("vars=1; unknowns=2; eq: z1[1,1]=0; eq: z2[]=0").system
    comp = first_order_companion(sys)
    assert slice_at(comp, 1).dimension == slice_at(sys, 2).dimension == 2


def test_projection_dimensions_monotone(corpus_systems):
    for name in ("example3", "example6_twisted", "example7"):
        sys = corpus_systems[name]
        q = sys.order
        projected = projected_system(sys, 1)
        assert slice_at(projected, q).dimension <= slice_at(sys, q).dimension


def test_prolong_additivity(corpus_systems):
    for name in ("example3", "example6_twisted"):
        sys = corpus_systems[name]
        a = prolong(prolong(sys, 1), 1)
        b = prolong(sys, 2)
        top = sys.order + 2
        for r in range(top + 1):
            assert slice_at(a, r).dimension == slice_at(b, r).dimension


def test_change_of_coordinates_preserves_dimensions(corpus_systems):
    rng = random.Random(2024)
    for name in ("example3", "example7", "example5_rprime"):
        sys = corpus_systems[name]
        for _ in range(5):
            frame = CoordinateChange(_unimodular_draw(sys.n, rng))
            moved = change_coordinates(sys, frame)
            for r in range(sys.order + 2):
                assert slice_at(moved, r).dimension == slice_at(sys, r).dimension


def test_homogeneous_strict_order_counts_add_up(corpus_systems):
    sys = corpus_systems["example7"]
    total = 0
    for r in range(6):
        sl = slice_at(sys, r)
        strict = len([jc for jc in sl.parametric if js.order_of(jc.mu) == r])
        total += strict
        assert sl.dimension == total


def test_equation_validation():
    with pytest.raises(ValueError, match="unknown index"):
        LinearSystem(2, 1, [{(2, (1, 0)): F(1)}])
    with pytest.raises(ValueError, match="arity"):
        LinearSystem(2, 1, [{(1, (1, 0, 0)): F(1)}])


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS))
def test_equation_shift_matches_the_constructor(name):
    # shift builds its terms directly; the constructor re-wraps every key
    sys = parse(CORPUS_TEXTS[name]).system
    for e in sys.equations:
        before = dict(e.terms)
        for nu in [(0,) * sys.n, *js.multi_indices(sys.n, 1), *js.multi_indices(sys.n, 2)]:
            shifted = e.shift(nu)
            expected = Equation({(jc.k, js.shift(jc.mu, nu)): c for jc, c in e.terms.items()})
            assert shifted == expected and list(shifted.terms) == list(expected.terms)
            assert all(type(jc) is js.JetCoordinate for jc in shifted.terms)
            assert shifted.terms is not e.terms
            shifted.terms.clear()
            assert e.terms == before


def _check_symbol_matrix_against_shifted_equations(sys, orders):
    """symbol_matrix row for row against its first definition: x^nu times the
    top part of each equation, built as `Equation(top).shift(nu)` and mapped
    through `equation_matrix`; over QQ each row up to a positive scale."""
    for order in orders:
        columns = js.jets_exact(sys.n, sys.m, order)
        shifted = [
            Equation(e.top_terms()).shift(nu)
            for e in sys.equations
            if e.order <= order
            for nu in js.multi_indices(sys.n, order - e.order)
        ]
        old = equation_matrix(shifted, columns, sys.params)
        matrix, new_columns = symbol_matrix(sys, order)
        assert list(new_columns) == columns and (matrix.rows, matrix.cols) == (old.rows, old.cols), order
        for new_row, old_row in zip(matrix.sparse, old.sparse):
            if sys.params:
                assert new_row == old_row, order
                continue
            assert new_row.keys() == old_row.keys() and all(type(v) is int for v in new_row.values()), order
            c = next(iter(old_row))
            scale = new_row[c] / old_row[c]
            assert scale > 0 and all(new_row[j] == scale * v for j, v in old_row.items()), order


@pytest.mark.parametrize("name", list(symbol_oracle_systems()))
def test_symbol_matrix_matches_the_shifted_top_parts(name):
    sys = symbol_oracle_systems()[name]
    _check_symbol_matrix_against_shifted_equations(sys, range(sys.order + 4))
    matrix, columns = symbol_matrix(sys, -1)
    assert (matrix.rows, matrix.cols, columns) == (0, 0, [])


@settings(max_examples=60, deadline=None)
@given(constant_coefficient_systems())
def test_symbol_matrix_matches_the_shifted_top_parts_on_random_systems(sys):
    _check_symbol_matrix_against_shifted_equations(sys, range(5))
