"""Acceptance suite: one test per criterion, every value exact.

Each test prints a single PASS line once its assertions hold, so running
`pytest tests/test_acceptance.py -v -s` gives a per-criterion checklist.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from conftest import CORPUS_TEXTS
from formalpde import jetspace as js
from formalpde.completion import codimension, complete, projection_surjective
from formalpde.hilbert import compare, hilbert_function, principal_class_series
from formalpde.inverse import (
    ModularEquation,
    section_basis,
    socle,
    spencer_apply,
    top_generators,
)
from formalpde.parser import parse
from formalpde.pdesystem import (
    CoordinateChange,
    change_coordinates,
    first_order_companion,
    prolong,
    slice_at,
    stable_dimension,
)
from formalpde.purity import is_pure, localize, localized_dimension, torsion_generators
from formalpde.ratlinalg import ExactMatrix, kernel_basis, rank
from formalpde.spencer import (
    _unimodular_draw,
    cohomology,
    delta_matrix,
    is_involutive_symbol,
    symbol_dim,
)

F = Fraction


def sysname(name):
    return parse(CORPUS_TEXTS[name]).system


def framed(sys, rows):
    return prolong(change_coordinates(sys, CoordinateChange(rows)), 0)


def par_names(sl):
    return [js.jet_name(jc, 1) for jc in sl.parametric]


def test_criterion_1_abstract_examples():
    n1 = sysname("abstract_n1")
    assert stable_dimension(n1) == 2
    assert par_names(slice_at(n1, 1)) == ["y", "y_1"]

    n2 = sysname("abstract_n2_q")
    assert stable_dimension(n2) == 4
    assert par_names(slice_at(n2, 2)) == ["y", "y_1", "y_2", "y_{11}"]

    n2p = sysname("abstract_n2_qprime")
    assert stable_dimension(n2p) == 6
    assert par_names(slice_at(n2p, 3)) == ["y", "y_1", "y_2", "y_{11}", "y_{22}", "y_{111}"]

    n3 = sysname("abstract_n3")
    assert stable_dimension(n3) == 8
    assert par_names(slice_at(n3, 3)) == [
        "y",
        "y_1",
        "y_2",
        "y_3",
        "y_{11}",
        "y_{12}",
        "y_{13}",
        "y_{111}",
    ]
    print("PASS criterion 1: abstract examples (dims 2, 4, 6, 8 with exact jet lists)")


def test_criterion_2_binomial_series():
    for n in range(1, 7):
        series = principal_class_series([2] * n, n, n)
        assert series.coefficients == tuple(comb(n, t) for t in range(n + 1))
        assert series.total() == 2 ** n
    print("PASS criterion 2: quadric series equals (1+x)^n with total 2^n for n = 1..6")


def test_criterion_3_example1():
    sys = sysname("example1")
    assert is_involutive_symbol(sys).involutive
    assert stable_dimension(sys) == 4
    gens = top_generators(sys)
    assert [g.body() for g in gens] == ["a^2", "a^{11}"]
    assert len(socle(sys)) == 2
    print("PASS criterion 3: example 1 involutive, dim 4, generators a^2 and a^{11}, socle 2")


def test_criterion_4_example2():
    sys = framed(sysname("example2"), ((1, -1, 0), (0, 1, 0), (0, 0, 1)))
    inv = is_involutive_symbol(sys)
    assert inv.involutive
    assert codimension(sys) == 2
    torsion = torsion_generators(sys, 2)
    assert [js.jet_name(t.jet, 1) for t in torsion] == ["y_3"]
    assert not is_pure(sys).pure
    print("PASS criterion 4: example 2 involutive after frame change, cd 2, torsion y_3, not pure")


def test_criterion_5_example3():
    sys = sysname("example3")
    report = complete(sys)
    gained = [js.jet_name(e.leading_jet(), 1) for step in report.trace for e in step.gained]
    assert gained == ["y_{12}", "y_{22}"]
    permuted = framed(report.final_system, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    inv = is_involutive_symbol(permuted)
    assert inv.involutive and inv.tableau.frame.is_identity()
    assert inv.tableau.alpha == (2, 0, 0)
    assert codimension(permuted) == 2
    companion = first_order_companion(permuted)
    assert companion.m == 4 and len(companion.equations) == 10
    purity = is_pure(permuted)
    assert purity.pure and purity.torsion == ()
    print("PASS criterion 5: example 3 completes via y_12, y_22; permuted involutive; 2-pure")


def test_criterion_6_example4():
    sys = sysname("example4")
    inv = is_involutive_symbol(sys)
    assert inv.involutive and inv.tableau.frame.is_identity()
    assert codimension(sys) == 2
    loc = localize(sys, 2)
    dim = localized_dimension(loc)
    assert dim == 3
    purity = is_pure(sys)
    assert purity.alpha_crosscheck == 3 == dim
    print("PASS criterion 6: example 4 involutive as given, cd 2, localized dim 3 = alpha")


def test_criterion_7_example5():
    r = sysname("example5_r")
    rp = sysname("example5_rprime")
    rs = sysname("example5_rsecond")
    assert (stable_dimension(r), stable_dimension(rp), stable_dimension(rs)) == (5, 8, 12)
    series_rp = principal_class_series([2, 2, 2], 3, 4)
    series_rs = principal_class_series([2, 3, 2], 3, 5)
    assert compare(hilbert_function(rp, 4), series_rp).agrees
    assert compare(hilbert_function(rs, 5), series_rs).agrees
    gens_rp = top_generators(rp)
    gens_rs = top_generators(rs)
    assert [g.body() for g in gens_rp] == ["a^{111} + a^{122} + a^{133}"]
    assert [g.body() for g in gens_rs] == ["a^{1113} + a^{1223} + a^{1333}"]
    d1 = spencer_apply(1, gens_rp[0].section)
    assert ModularEquation(d1, 1).body() == "a^{11} + a^{22} + a^{33}"
    print("PASS criterion 7: example 5 dims (5, 8, 12), both series, E', E'' and d_1 E' exact")


def test_criterion_8_example6():
    twisted = complete(sysname("example6_twisted")).final_system
    assert len(twisted.equations) == 3 and twisted.order == 2
    inv = is_involutive_symbol(twisted)
    assert inv.involutive and inv.tableau.alpha == (3, 0, 0)
    assert all(symbol_dim(twisted, q) == 3 for q in range(1, 6))

    third = sysname("example6_third")
    sl5 = slice_at(third, 5)
    assert sl5.dimension == 27
    counted = hilbert_function(third, 5)
    assert counted.coefficients == (1, 3, 5, 6, 6, 6)
    assert compare(counted, principal_class_series([3, 2], 3, 5)).agrees
    dims = (symbol_dim(third, 6), 3 * symbol_dim(third, 5), 3 * symbol_dim(third, 4), symbol_dim(third, 3))
    assert dims == (6, 18, 18, 6)
    assert cohomology(third, 1, 5).dim_cohomology == 0
    assert cohomology(third, 2, 4).dim_cohomology == 0
    assert cohomology(third, 3, 3).dim_cohomology == 0
    assert rank(delta_matrix(third, 0, 6)) == 6
    h2 = cohomology(third, 2, 3)
    assert h2.dim_cocycles >= 13 and h2.dim_coboundaries == 12 and h2.dim_cohomology >= 1
    print("PASS criterion 8: example 6 twisted/third curve counts, delta sequence and H^2 obstruction")


def test_criterion_9_example7_flagship():
    sys = sysname("example7")
    assert [slice_at(sys, r).dimension for r in (1, 2, 3, 4, 5)] == [5, 11, 15, 16, 16]
    assert (symbol_dim(sys, 3), symbol_dim(sys, 4), symbol_dim(sys, 5)) == (4, 1, 0)
    assert cohomology(sys, 2, 4).dim_cohomology == 0
    assert cohomology(sys, 3, 4).dim_cohomology == 0
    assert cohomology(sys, 4, 4).dim_cohomology == 1
    h2g3 = cohomology(sys, 2, 3)
    assert h2g3.dim_cohomology == 0
    assert (4 * symbol_dim(sys, 4), 6 * symbol_dim(sys, 3), 4 * symbol_dim(sys, 2), 4) == (4, 24, 24, 4)
    assert rank(delta_matrix(sys, 1, 4)) == 4  # left map injective
    assert h2g3.dim_coboundaries == 4
    assert cohomology(sys, 3, 2).dim_cohomology == 0  # sequence exact at Lambda^3 (x) g_2
    assert cohomology(sys, 4, 1).dim_cohomology == 0
    assert not is_involutive_symbol(sys, 4).involutive

    primed = sysname("example7_primed")
    report = complete(primed)
    assert report.verdict == "formally_integrable"
    assert sum(len(step.gained) for step in report.trace) == 0
    assert report.acyclic_order == 3
    assert projection_surjective(primed, 2) and projection_surjective(primed, 3)

    from formalpde.corpus import eval_example7

    result = eval_example7()
    assert result.passed
    assert any("16" in note and "8" in note for note in result.notes)
    assert stable_dimension(sys) == 16
    print("PASS criterion 9: flagship dims, acyclicity pattern, primed certification, 8-vs-16 flag")


def test_criterion_10_example8():
    sys = framed(sysname("example8"), ((1, 0, -1), (0, 1, 0), (0, 0, 1)))
    inv = is_involutive_symbol(sys)
    assert inv.involutive and inv.tableau.alpha == (3, 1, 0)
    assert codimension(sys) == 1
    assert localized_dimension(localize(sys, 1)) == 1
    torsion = torsion_generators(sys, 1)
    assert [str(t) for t in torsion] == ["z4"]
    assert [js.jet_name(t.jet, 1) for t in torsion] == ["y_3"]
    assert not is_pure(sys).pure
    print("PASS criterion 10: example 8 involutive with cd 1, localized dim 1, torsion z4, not pure")


def test_criterion_11_property_suites():
    completed = {
        "example1": sysname("example1"),
        "example2": framed(sysname("example2"), ((1, -1, 0), (0, 1, 0), (0, 0, 1))),
        "example3": framed(
            complete(sysname("example3")).final_system, ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        ),
        "example4": sysname("example4"),
        "example5_rprime": sysname("example5_rprime"),
        "example6_twisted": complete(sysname("example6_twisted")).final_system,
        "example6_third": sysname("example6_third"),
        "example7": sysname("example7"),
        "example8": framed(sysname("example8"), ((1, 0, -1), (0, 1, 0), (0, 0, 1))),
    }

    # delta^2 = 0 on all composable pairs
    for name, sys in completed.items():
        q = max(sys.order, 1)
        for order in (q, q + 1):
            for s in range(0, sys.n - 1):
                out = delta_matrix(sys, s + 1, order)
                inn = delta_matrix(sys, s, order + 1)
                if out.cols and inn.rows:
                    assert (out @ inn).is_zero(), (name, s, order)

    # rank + nullity on 500 random small matrices
    rng = random.Random(12345)
    for _ in range(500):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = ExactMatrix([[F(rng.randrange(-5, 6)) for _ in range(cols)] for _ in range(rows)])
        assert rank(m) + kernel_basis(m).cols == cols

    # Cartan test and cohomology verdicts agree over the window
    for name, sys in completed.items():
        q = max(sys.order, 1)
        res = is_involutive_symbol(sys, q)
        window = 2 * q + sys.n
        reports = []
        for r in range(window + 1):
            if symbol_dim(sys, q + r) == 0:
                break
            reports.extend(cohomology(sys, s, q + r) for s in range(1, sys.n + 1))
        assert res.involutive == all(rep.dim_cohomology == 0 for rep in reports), name

    # Spencer operator commutes on all corpus sections
    for name, sys in completed.items():
        for f in section_basis(sys, max(sys.order, 1) + 1):
            for i in range(1, sys.n + 1):
                for j in range(i + 1, sys.n + 1):
                    assert spencer_apply(i, spencer_apply(j, f)) == spencer_apply(
                        j, spencer_apply(i, f)
                    ), name

    # slice dimensions invariant under 20 random frames on every corpus system
    rng = random.Random(777)
    for name, sys in completed.items():
        base_dims = [slice_at(sys, r).dimension for r in range(sys.order + 2)]
        for _ in range(20):
            frame = CoordinateChange(_unimodular_draw(sys.n, rng))
            moved = change_coordinates(sys, frame)
            assert [slice_at(moved, r).dimension for r in range(sys.order + 2)] == base_dims, name

    # codimension invariant under 20 random frames on the completed systems
    rng = random.Random(778)
    for name in ("example2", "example3", "example4", "example7", "example8"):
        sys = completed[name]
        base_cd = codimension(sys)
        for _ in range(20):
            frame = CoordinateChange(_unimodular_draw(sys.n, rng))
            moved = prolong(change_coordinates(sys, frame), 0)
            assert codimension(moved) == base_cd, name
            # the moved system as given, the presentation `is_pure` localizes
            assert codimension(change_coordinates(sys, frame)) == base_cd, name
    print("PASS criterion 11: property suites (delta^2, rank+nullity, Cartan agreement, commutation, frame invariance)")
