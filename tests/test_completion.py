from __future__ import annotations

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings

from conftest import BENCH_TEXTS, CORPUS_TEXTS, constant_coefficient_systems, killing_text, make_system
from formalpde import completion
from formalpde import jetspace as js
from formalpde.completion import (
    IntegrabilityReport,
    characteristic_matrix,
    codimension,
    complete,
    involutive_order,
    is_completed,
    projection_surjective,
    reduce_order,
)
from formalpde.parser import parse
from formalpde.pdesystem import CoordinateChange, change_coordinates, projected_system, prolong, slice_at
from formalpde.ratlinalg import Poly
from formalpde.spencer import _unimodular_draw, is_involutive_symbol, stabilization_window


def test_complete_example3(corpus_systems):
    report = complete(corpus_systems["example3"])
    assert report.verdict == "completed"
    assert report.steps == 2
    gained = [js.jet_name(e.leading_jet(), 1) for step in report.trace for e in step.gained]
    assert gained == ["y_{12}", "y_{22}"]
    for step in report.trace:
        assert step.dims_after < step.dims_before


def test_complete_reports_inconclusive_when_no_order_certifies(corpus_systems, monkeypatch):
    monkeypatch.setattr("formalpde.completion.is_s_acyclic", lambda *a: (False, False))
    report = complete(corpus_systems["example3"])
    assert report.verdict == "window_inconclusive"
    assert not report.integrable
    assert report.steps == 2


def test_complete_flagship_formally_integrable(corpus_systems):
    report = complete(corpus_systems["example7"])
    assert report.verdict == "formally_integrable"
    assert report.steps == 0


def test_complete_flagship_primed_certificate(corpus_systems):
    report = complete(corpus_systems["example7_primed"])
    assert report.verdict == "formally_integrable"
    assert sum(len(step.gained) for step in report.trace) == 0
    assert report.acyclic_order == 3
    assert dict(report.projection_flags) == {2: True, 3: True}


def test_complete_twisted_cubic_reduces_order(corpus_systems):
    report = complete(corpus_systems["example6_twisted"])
    final = report.final_system
    assert final.order == 2
    assert len(final.equations) == 3
    support = sorted(sorted(js.digits(jc.mu) for jc in e.terms) for e in final.equations)
    assert support == sorted([[(2,), (3, 3)], [(1,), (2, 3)], [(1, 3), (2, 2)]])


def test_complete_twisted_cubic_names_what_each_step_gains(corpus_systems):
    # R_4 of the input holds every equation the completion adds, so one step gains them all
    report = complete(corpus_systems["example6_twisted"])
    assert report.steps == 1
    assert all(step.gained for step in report.trace)


def test_projection_surjective_example3(corpus_systems):
    assert not projection_surjective(corpus_systems["example3"], 2)


def test_projection_surjective_flagship_primed(corpus_systems):
    sys = corpus_systems["example7_primed"]
    assert projection_surjective(sys, 2)
    assert projection_surjective(sys, 3)


def test_projection_surjective_monomial():
    sys = make_system(2, [("12", 1)])
    for order in (1, 2, 3):
        assert projection_surjective(sys, order)


def test_codimension_example3(corpus_systems):
    final = complete(corpus_systems["example3"]).final_system
    assert codimension(final) == 2


def test_codimension_example8_framed(corpus_systems):
    framed = prolong(
        change_coordinates(
            corpus_systems["example8"], CoordinateChange(((1, 0, -1), (0, 1, 0), (0, 0, 1)))
        ),
        0,
    )
    assert codimension(framed) == 1


def test_codimension_flagship_finite_type(corpus_systems):
    assert codimension(corpus_systems["example7"]) == 4


def test_codimension_rejects_uncompleted(corpus_systems):
    with pytest.raises(ValueError, match="completed"):
        codimension(corpus_systems["example3"])


def test_characteristic_matrix_flagship(corpus_systems):
    cm = characteristic_matrix(corpus_systems["example7"])
    minors = sorted(str(p) for p in cm.minors)
    assert minors == ["(χ_1)^2 - χ_2*χ_4", "(χ_2)^2 - χ_3*χ_4", "(χ_3)^2", "(χ_4)^2"]


def test_characteristic_matrix_twisted_cubic(corpus_systems):
    final = complete(corpus_systems["example6_twisted"]).final_system
    cm = characteristic_matrix(final)
    got = {str(p) for p in cm.minors}
    # derived by substituting chi into the top symbols of the involutive form
    expected = {
        str(p.primitive())
        for p in (
            Poly.var(3, 2) * Poly.var(3, 2),
            Poly.var(3, 1) * Poly.var(3, 2),
            Poly.var(3, 1) * Poly.var(3, 1) - Poly.var(3, 0) * Poly.var(3, 2),
        )
    }
    assert got == expected


def test_two_unknown_first_order_system():
    # harmonic-conjugate pair: involutive, elliptic determinant, codimension 1
    from formalpde.parser import parse
    from formalpde.spencer import is_involutive_symbol

    cr = parse("vars=2; unknowns=2; eq: z1[1]-z2[2]; eq: z1[2]+z2[1]").system
    inv = is_involutive_symbol(cr)
    assert inv.involutive
    assert inv.tableau.alpha == (2, 0)
    cm = characteristic_matrix(cr)
    assert (cm.rows, cm.cols) == (2, 2)
    assert [str(p) for p in cm.minors] == ["(χ_1)^2 + (χ_2)^2"]
    assert codimension(cr) == 1
    assert [slice_at(cr, r).dimension for r in range(4)] == [2, 4, 6, 8]


@pytest.mark.parametrize(
    "n, conformal, count",
    [(2, False, 3), (3, False, 17), (4, False, 141), (5, False, 1548),
     (2, True, 1), (3, True, 10), (4, True, 123), (5, True, 1822)],
)
def test_characteristic_ideal_of_the_killing_family(n, conformal, count):
    cm = characteristic_matrix(parse(killing_text(n, conformal)).system)
    assert len(cm.minors) == count
    assert all(p == p.primitive() for p in cm.minors)


def test_characteristic_minors_match_sympy_determinants():
    sympy = pytest.importorskip("sympy")

    def determinant(cm, combo):
        """The minor on rows `combo` by sympy's cofactor expansion, made primitive."""
        chi = sympy.symbols(f"chi1:{cm.cols + 1}")
        rows = [[sympy.Poly.from_dict(p.terms, *chi).as_expr() for p in cm.matrix[r]] for r in combo]
        det = sympy.Poly(sympy.Matrix(rows).det(method="laplace"), *chi)
        return Poly(cm.cols, {e: Fraction(int(c.p), int(c.q)) for e, c in det.terms() if c}).primitive()

    for text in (killing_text(4), killing_text(4, conformal=True)):
        cm = characteristic_matrix(parse(text).system)
        dets = [determinant(cm, combo) for combo in itertools.combinations(range(cm.rows), cm.cols)]
        assert tuple(p for p in dets if p) == cm.minors
    cm = characteristic_matrix(parse(killing_text(5, conformal=True)).system)
    sample = random.Random(0).sample(list(itertools.combinations(range(cm.rows), cm.cols)), 40)
    generators = set(cm.minors)
    dets = [determinant(cm, combo) for combo in sample]
    assert sum(1 for p in dets if p) > 30
    assert all(p in generators for p in dets if p)


def test_characteristic_matrix_empty_system():
    from formalpde.pdesystem import LinearSystem

    cm = characteristic_matrix(LinearSystem(3, 1, []))
    assert cm.minors == ()


def test_complete_idempotent(corpus_systems):
    for name in ("example3", "example6_twisted", "example7"):
        final = complete(corpus_systems[name]).final_system
        again = complete(final)
        assert again.steps == 0
        assert is_completed(final)


def test_completion_preserves_solution_spaces(corpus_systems):
    for name in ("example3", "example6_twisted"):
        sys = corpus_systems[name]
        final = complete(sys).final_system
        horizon = sys.order + 3
        for r in range(horizon + 1):
            # completion adds only consequences, so the deep prolongations agree
            before = slice_at(prolong(sys, horizon - sys.order), r).dimension
            after = slice_at(prolong(final, max(horizon - final.order, 0)), r).dimension
            assert before == after, (name, r)


@settings(max_examples=60, deadline=None)
@given(constant_coefficient_systems())
# four steps, and the prolongations first agree at horizon q + 4 = 6
@example(parse("vars=3; unknowns=2; eq: z1[3,3]=0; eq: z2[2,3]+z1[2]=0; eq: z2[2,3]+z2[]=0").system)
def test_completion_certifies_itself_and_keeps_the_solutions(sys):
    report = complete(sys)
    assume(report.integrable)
    final, q = report.final_system, sys.order
    again = complete(final)
    assert (again.verdict, again.steps) == ("formally_integrable", 0)
    assert is_completed(final)

    def agree(horizon):
        return all(
            slice_at(prolong(sys, horizon - q), r).dimension
            == slice_at(prolong(final, horizon - final.order), r).dimension
            for r in range(horizon + 1)
        )

    # completion adds only consequences, so some prolongation of the input
    # agrees with the final system at every order, and every deeper one does
    # too; each step and each order reduction differentiates by at most q + 1
    horizon = q
    while not agree(horizon):
        horizon += 1
        assert horizon <= q + (report.steps + q) * (q + 1)
    assert agree(horizon + 1)


@settings(max_examples=200, deadline=None)
@given(constant_coefficient_systems())
@example(parse("vars=3; unknowns=2; eq: z1[3,3]=0; eq: z2[2,3]+z1[2]=0; eq: z2[2,3]+z2[]=0").system)
def test_each_completion_step_shrinks_the_dimension_sum(sys):
    # the bound that ends the completion loop without a cap
    report = complete(sys)
    for step in report.trace:
        assert all(a <= b for a, b in zip(step.dims_after, step.dims_before, strict=True))
        assert sum(step.dims_after) < sum(step.dims_before)
    assert report.steps <= sum(completion._dims_upto(sys, sys.order))


def test_codimension_invariant_under_frames(corpus_systems):
    rng = random.Random(99)
    for name in ("example3", "example4"):
        final = complete(corpus_systems[name]).final_system
        base = codimension(final)
        for _ in range(5):
            frame = CoordinateChange(_unimodular_draw(final.n, rng))
            moved = prolong(change_coordinates(final, frame), 0)
            assert codimension(moved) == base
            # the moved system as given, the presentation `is_pure` localizes
            assert codimension(change_coordinates(final, frame)) == base


@pytest.mark.parametrize("name", ["example3", "example7"])
def test_complete_is_memoised(name, monkeypatch):
    # example7 is already complete, so its report names the system itself.
    # Every projection, test and certificate is memoised on the system it
    # starts from, so a repeated completion eliminates nothing
    from formalpde import pdesystem, ratlinalg

    sys = parse(CORPUS_TEXTS[name]).system
    report = complete(sys)
    calls = []
    for module in (pdesystem, ratlinalg):
        for fn in ("rref", "reduced_int", "reduced_param"):
            _count_calls(monkeypatch, module, fn, calls)
    assert complete(sys) == report and calls == []
    assert (report.final_system is sys) == (name == "example7")


def test_complete_memo_is_weak_and_the_report_compares_by_its_fields():
    # example7's report names the system itself, and no memo keeps the
    # report: releasing both must leave nothing for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        sys = parse(CORPUS_TEXTS["example7"]).system
        report = complete(sys)
        assert complete(sys) == report and report.final_system is sys
        fields = (report.verdict, report.steps, report.trace, sys, 3, ((2, True), (3, True)), False)
        assert report == IntegrabilityReport(*fields) and report != IntegrabilityReport(*fields[:-1], True)
        assert repr(report) == (
            "IntegrabilityReport(verdict='formally_integrable', steps=0, trace=(), "
            "final_system=LinearSystem(n=4, m=1, order=2, eqs=4), acyclic_order=3, "
            "projection_flags=((2, True), (3, True)), window_limited=False)"
        )
        assert ("complete",) not in sys._cache
        del report, fields, sys
        assert gc.collect() == 0
    finally:
        gc.enable()


def _count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(name) or fn(*args))


@pytest.mark.parametrize("name", [n for n in CORPUS_TEXTS if n != "example6_twisted"])
def test_is_completed_after_complete_runs_no_elimination(monkeypatch, name):
    # the completion's last projection is memoised on its final system.
    # example6_twisted is left out: reduce_order lowers its order, and its
    # reduced system, though memoised on the completed one, has not yet
    # eliminated its own one-step projection projected_system(final, 1)
    from formalpde import ratlinalg

    report = complete(parse(CORPUS_TEXTS[name]).system)
    eliminations = []
    echelon = ratlinalg._echelon_int
    monkeypatch.setattr(ratlinalg, "_echelon_int", lambda rows: eliminations.append(rows) or echelon(rows))
    assert is_completed(report.final_system)
    assert eliminations == []


def _lower_rows_projected(sys):
    """The lower presentation built from a fresh system of the rows of order < q,
    projected at step 0: the oracle of `reduce_order`'s memoised projection."""
    return projected_system(sys.replace([e for e in sys.equations if e.order < sys.order]), 0)


def test_reduce_order_reads_the_lower_presentation_off_the_completed_system():
    sys = parse(CORPUS_TEXTS["example6_twisted"]).system
    completed = projected_system(sys, 1)
    assert is_completed(completed) and completed.order == 3
    lower = projected_system(completed, 2 - 3)
    assert lower.equations == _lower_rows_projected(completed).equations
    assert reduce_order(completed) is reduce_order(completed) is lower
    assert complete(sys).final_system is lower


@settings(max_examples=80, deadline=None)
@given(constant_coefficient_systems())
def test_reduce_order_projection_matches_the_lower_rows(sys):
    lower_orders = [e.order for e in sys.equations if e.order < sys.order]
    assume(lower_orders)
    lower = projected_system(sys, max(lower_orders) - sys.order)
    assert lower.equations == _lower_rows_projected(sys).equations
    assert reduce_order(sys) is reduce_order(sys)


def _involutive_order_by_each_order(sys, seed):
    """The order-by-order search that `involutive_order` shortens, kept as its oracle."""
    q = max(sys.order, 1)
    for order in range(q, q + stabilization_window(sys) + 1):
        res = is_involutive_symbol(sys, order, seed=seed)
        if res.involutive:
            return order, res
    raise ValueError("no involutive order found within the window")


TEXTS = {**CORPUS_TEXTS, **BENCH_TEXTS}


def _record_tested_orders(monkeypatch) -> list:
    """Orders at which `involutive_order` runs the involution test, in call order."""
    tested = []

    def spy(sys, order, seed):
        tested.append(order)
        return is_involutive_symbol(sys, order, seed)

    monkeypatch.setattr(completion, "is_involutive_symbol", spy)
    return tested


@pytest.mark.parametrize("name", list(TEXTS))
def test_involutive_order_matches_order_by_order_search(monkeypatch, name):
    # the oracle runs on a second parse, so the two searches share no memo
    final = complete(parse(TEXTS[name]).system).final_system
    oracle_final = complete(parse(TEXTS[name]).system).final_system
    tested = _record_tested_orders(monkeypatch)
    for seed in range(3):
        tested.clear()
        order, res = involutive_order(final, seed=seed)
        assert (order, res) == _involutive_order_by_each_order(oracle_final, seed), (name, seed)
        # every order the jump skips must fail the involution test
        for o in set(range(max(final.order, 1), order)) - set(tested):
            assert not is_involutive_symbol(oracle_final, o, seed=seed).involutive, (name, seed, o)


def test_involutive_order_skips_the_flagship_orders_its_certificate_rules_out(monkeypatch):
    # the order-2 certificate names a nonzero spot at order 4, so 3 and 4 are never tested
    final = complete(parse(BENCH_TEXTS["flagship"]).system).final_system
    tested = _record_tested_orders(monkeypatch)
    order, _ = involutive_order(final)
    assert (order, tested) == (5, [2, 5])
