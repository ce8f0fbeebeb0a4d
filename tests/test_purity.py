from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import BENCH_TEXTS, CORPUS_TEXTS, constant_coefficient_systems
from formalpde import corpus
from formalpde import jetspace as js
from formalpde.completion import codimension, complete, involutive_order, is_completed
from formalpde.parser import parse
from formalpde.pdesystem import (
    CoordinateChange,
    change_coordinates,
    first_order_companion,
    prolong,
    slice_at,
)
from formalpde.purity import (
    is_pure,
    localize,
    localized_dimension,
    localized_generators,
    localized_parametric_jets,
    torsion_generators,
)
from formalpde.ratlinalg import ParamScalar, Poly, field_one
from formalpde.spencer import _unimodular_draw, curve_frame, symbol_dim


def framed(sys, rows):
    return prolong(change_coordinates(sys, CoordinateChange(rows)), 0)


def local_names(loc, jets):
    return [js.jet_name(jc, loc.system.m, loc.params) for jc in jets]


def test_localize_example4(corpus_systems):
    loc = localize(corpus_systems["example4"], 2)
    chi1 = ParamScalar(Poly.var(1, 0))
    rendered = []
    for e in loc.system.equations:
        rendered.append(
            {
                js.jet_name(jc, 1, loc.params): c
                for jc, c in e.terms.items()
            }
        )
    assert {"y_{33}": field_one(loc.system.params)} in rendered
    assert any(
        set(r) == {"y_{23}", "y_3"} and r["y_{23}"] == 1 and r["y_3"] == -chi1 for r in rendered
    )
    assert any(
        set(r) == {"y_{22}", "y_2"} and r["y_{22}"] == 1 and r["y_2"] == -chi1 for r in rendered
    )


def test_localize_example2_reveals_killed_class(corpus_systems):
    loc = localize(framed(corpus_systems["example2"], ((1, -1, 0), (0, 1, 0), (0, 0, 1))), 2)
    chi1 = ParamScalar(Poly.var(1, 0))
    single = [e for e in loc.system.equations if len(e.terms) == 1]
    assert any(
        js.jet_name(next(iter(e.terms)), 1, loc.params) == "y_3" and next(iter(e.terms.values())) == chi1
        for e in single
    )


def test_localize_at_n_is_identity(corpus_systems):
    sys = corpus_systems["example7"]
    loc = localize(sys, 4)
    assert loc.params == 0
    assert len(loc.system.equations) == len(sys.equations)
    assert localized_dimension(loc) == 16


def test_localize_requires_completed(corpus_systems):
    with pytest.raises(ValueError, match="completed"):
        localize(corpus_systems["example3"], 2)


def test_localized_dimension_example4(corpus_systems):
    loc = localize(corpus_systems["example4"], 2)
    assert localized_dimension(loc) == 3
    assert local_names(loc, localized_parametric_jets(loc)) == ["y", "y_2", "y_3"]


def test_localized_dimension_third_curve(corpus_systems):
    final = complete(corpus_systems["example6_third"]).final_system
    loc = localize(final, 2)
    assert localized_dimension(loc) == 6
    assert local_names(loc, localized_parametric_jets(loc)) == [
        "y",
        "y_2",
        "y_3",
        "y_{23}",
        "y_{33}",
        "y_{233}",
    ]


def test_localized_dimension_example8(corpus_systems):
    loc = localize(framed(corpus_systems["example8"], ((1, 0, -1), (0, 1, 0), (0, 0, 1))), 1)
    assert localized_dimension(loc) == 1


def test_localized_dimension_rejects_wrong_codimension(corpus_systems):
    # codimension is 1; keeping two variables leaves an infinite system
    with pytest.raises(ValueError, match="wrong codimension"):
        localized_dimension(localize(corpus_systems["example8"], 2))


def test_localized_parametric_jets_rejects_wrong_codimension(corpus_systems):
    final = complete(corpus_systems["example8"]).final_system
    with pytest.raises(ValueError, match="wrong codimension"):
        localized_parametric_jets(localize(final, 2))


def test_torsion_example2(corpus_systems):
    sys = framed(corpus_systems["example2"], ((1, -1, 0), (0, 1, 0), (0, 0, 1)))
    torsion = torsion_generators(sys, 2)
    assert [str(t) for t in torsion] == ["z4"]
    assert [js.jet_name(t.jet, 1) for t in torsion] == ["y_3"]


def test_torsion_example8(corpus_systems):
    sys = framed(corpus_systems["example8"], ((1, 0, -1), (0, 1, 0), (0, 0, 1)))
    torsion = torsion_generators(sys, 1)
    assert [str(t) for t in torsion] == ["z4"]
    assert [js.jet_name(t.jet, 1) for t in torsion] == ["y_3"]


def test_torsion_example3_empty(corpus_systems):
    permuted = framed(
        complete(corpus_systems["example3"]).final_system,
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    )
    assert torsion_generators(permuted, 2) == []


def test_torsion_at_full_codimension_empty(corpus_systems):
    assert torsion_generators(corpus_systems["example7"], 4) == []
    permuted = framed(
        complete(corpus_systems["example3"]).final_system,
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    )
    assert torsion_generators(permuted, 3) == []


def test_torsion_on_first_order_companion(corpus_systems):
    # the companion unknown z4 carries the torsion of the underlying module
    from formalpde.pdesystem import first_order_companion

    sys = framed(corpus_systems["example8"], ((1, 0, -1), (0, 1, 0), (0, 0, 1)))
    companion = first_order_companion(sys)
    torsion = torsion_generators(companion, 1)
    assert [str(t) for t in torsion] == ["z4"]
    assert torsion[0].jet.k == 4


def test_is_pure_example3(corpus_systems):
    report = is_pure(corpus_systems["example3"])
    assert report.pure
    assert report.codimension == 2
    assert report.torsion == ()


def test_is_pure_flagship(corpus_systems):
    report = is_pure(corpus_systems["example7"])
    assert report.pure
    assert report.codimension == 4
    assert report.localized_dimension == 16


def test_is_pure_example8(corpus_systems):
    report = is_pure(corpus_systems["example8"])
    assert not report.pure
    assert report.codimension == 1
    assert report.localized_dimension == 1


def test_is_pure_example2_not_pure_in_any_frame(corpus_systems):
    # the torsion element is a jet in the classical frame and a combination in
    # a random involutive frame; both must be caught
    raw = is_pure(corpus_systems["example2"])
    framed_report = is_pure(framed(corpus_systems["example2"], ((1, -1, 0), (0, 1, 0), (0, 0, 1))))
    assert not raw.pure
    assert not framed_report.pure


def test_is_pure_twisted_cubic(corpus_systems):
    report = is_pure(corpus_systems["example6_twisted"])
    assert report.pure
    assert report.codimension == 2
    assert report.localized_dimension == report.alpha_crosscheck == 3


def test_localized_dimension_matches_smallest_character(corpus_systems):
    cases = ("example4", "example8", "example6_third", "example2")
    for name in cases:
        sys = corpus_systems[name]
        report = is_pure(sys)
        if report.alpha_crosscheck is not None:
            assert report.localized_dimension == report.alpha_crosscheck, name


def test_low_class_equations_are_consequences_after_localization(corpus_systems):
    # removing the localized images of equations of class <= n-r-1 keeps the
    # localized solution space unchanged (r = 1 here, so class 1 is killed)
    from formalpde.pdesystem import first_order_companion, stable_dimension

    sys = framed(corpus_systems["example8"], ((1, 0, -1), (0, 1, 0), (0, 0, 1)))
    companion = first_order_companion(sys)
    loc = localize(companion, 1)
    full_dim = localized_dimension(loc)
    kept = []
    for original, localized in zip(companion.equations, loc.system.equations):
        if js.class_of(original.leading_jet().mu) > companion.n - 1 - 1:
            kept.append(localized)
    reduced = loc.system.replace(kept)
    assert len(kept) < len(companion.equations)
    assert stable_dimension(reduced) == full_dim


def test_localized_generator_third_curve(corpus_systems):
    final = complete(corpus_systems["example6_third"]).final_system
    loc = localize(final, 2)
    gens = localized_generators(loc)
    assert len(gens) == 1
    body = gens[0].body()
    # the classical answer continues chi_1^2 * a^{22222} + ...; only the two
    # displayed leading terms are pinned
    assert body.startswith("a^{233} + (χ_1)*a^{2223}")


@pytest.mark.parametrize(
    "name, frame, r",
    [
        ("example8", ((1, 0, -1), (0, 1, 0), (0, 0, 1)), 1),
        ("example4", None, 2),
        ("example6_third", None, 2),
    ],
)
def test_torsion_after_localized_dimension_repeats_no_elimination(monkeypatch, name, frame, r):
    # the localized system is memoised on the completed system, so the
    # torsion search reuses every QQ(chi) elimination the dimension made
    from formalpde import completion, hilbert, inverse, pdesystem, purity, ratlinalg, spencer

    sys = parse(CORPUS_TEXTS[name]).system  # fresh, with an empty memo
    sys = framed(sys, frame) if frame else complete(sys).final_system
    eliminated = []
    reduced_param, rank = ratlinalg.reduced_param, ratlinalg.rank

    def key(kind, rows):
        return kind, tuple(tuple(sorted((c, str(v)) for c, v in row.items())) for row in rows)

    def recorded_reduced(kind):
        def reduced(rows):
            rows = tuple(rows)
            eliminated.append(key(kind, rows))
            return reduced_param(rows)

        return reduced

    def recorded_rank(matrix):
        if matrix.params:
            eliminated.append(key("matrix", matrix.sparse))
        return rank(matrix)

    # `rref` reduces in ratlinalg and `_symbol_rref` in pdesystem; a symbol
    # matrix may hold the rows of a prolonged one with more columns
    monkeypatch.setattr(ratlinalg, "reduced_param", recorded_reduced("matrix"))
    monkeypatch.setattr(pdesystem, "reduced_param", recorded_reduced("symbol"))
    for module in (completion, hilbert, inverse, pdesystem, purity, ratlinalg, spencer):
        if getattr(module, "rank", None) is rank:
            monkeypatch.setattr(module, "rank", recorded_rank)
    localized_dimension(localize(sys, r))
    assert eliminated, "the localized dimension eliminates over QQ(chi)"
    torsion_generators(sys, r)
    assert len(set(eliminated)) == len(eliminated)


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS))
def test_localized_rref_entries_print_reduce_and_evaluate(monkeypatch, name):
    # every entry in and out of each QQ(chi) rref that a localization of the
    # completed system reaches prints, and its gcd-reduced form is the same
    # rational function; a localized dimension reports a failed division in
    # an entry as a wrong codimension, so the entries are checked here
    from formalpde import inverse, pdesystem, purity, ratlinalg

    entries, rref = [], ratlinalg.rref

    def recorded(matrix):
        result = rref(matrix)
        if matrix.params:
            entries.extend(v for m in (matrix, result.matrix) for row in m.sparse for v in row.values())
        return result

    for module in (inverse, pdesystem, purity, ratlinalg):
        if getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", recorded)
    final = complete(parse(CORPUS_TEXTS[name]).system).final_system
    for r in range(1, final.n):
        try:
            localized_dimension(localize(final, r))
        except ValueError as err:
            assert "not finite type" in str(err), (r, err)
    rng = random.Random(0)
    for v in entries:
        assert str(v)
        reduced = v.reduced()
        for _ in range(3):
            point = [Fraction(rng.randint(-5, 5)) for _ in range(v.nvars)]
            if v.den.evaluate(point):
                assert reduced.evaluate(point) == v.evaluate(point), (v, point)


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS) + ["flagship"])
def test_frame_seed_changes_no_corpus_value(name):
    # the corpus and `inverse` take no seed: every value they read off a
    # frame search agrees across seeds, and so do the Cartan characters
    text = BENCH_TEXTS["flagship"] if name == "flagship" else CORPUS_TEXTS[name]
    sys = parse(text).system
    final = complete(sys).final_system
    values = set()
    for seed in range(8):
        order, res = involutive_order(final, seed=seed)
        purity = is_pure(sys, seed=seed)
        alpha = res.tableau.alpha if res.certificate.method == "cartan" else None
        values.add((codimension(final, seed=seed), order, purity.pure, purity.localized_dimension, alpha))
    assert len(values) == 1, (name, values)


def test_is_pure_localizes_the_prolonged_moved_system(monkeypatch):
    # z1 solves a codimension-2 system, so a localization at codimension 1
    # keeps z2 alone: localized dimension 1, the smallest character.  Moved
    # into seed 1's winning frame, the three equations as given localize to
    # dimension 2; R_q, which adds the derivatives of the two order-1
    # equations, localizes to 1
    from formalpde import purity

    sys = parse("vars=3; unknowns=2; eq: z1[3,3]=0; eq: z1[2]=0; eq: z2[2]=0").system
    localized = []
    localize_ = purity.localize
    monkeypatch.setattr(purity, "localize", lambda s, r: localized.append(s) or localize_(s, r))
    report = is_pure(sys, seed=1)
    assert "characters required a frame change; localization done in that frame" in report.notes
    assert (report.codimension, report.localized_dimension, report.alpha_crosscheck) == (1, 1, 1)
    assert [len(s.equations) for s in localized] == [9, 9]


@pytest.mark.parametrize("name", ["example2", "example3", "example8"])
def test_corpus_framed_keeps_the_equations(name):
    # each text has equations of one order, so its moved rows span its R_q
    framed_sys = corpus.framed(name)
    assert len(framed_sys.equations) == len(corpus.system(name).equations)
    assert framed_sys.equations == change_coordinates(corpus.system(name), corpus.FRAMES[name]).equations


def _moved_invariants(sys, q):
    """What the analyses read off a moved system: symbol and slice dimensions,
    the completion test and the codimension.  The localized dimension is left
    out: it depends on the presentation, which is why `is_pure` localizes R_q
    (see `test_is_pure_localizes_the_prolonged_moved_system`)."""
    return (
        [symbol_dim(sys, t) for t in range(q, q + 3)],
        [slice_at(sys, t).dimension for t in range(q + 2)],
        is_completed(sys),
        codimension(sys),
    )


def _companion_invariants(sys):
    return [symbol_dim(sys, 1), symbol_dim(sys, 2), slice_at(sys, 1).dimension]


def _assert_presentation_independent(final, frame):
    # a moved final system reads the same as its R_q; the companion reads the
    # same as its own R_1, and its dim R_1 is the final system's dim R_q
    moved = change_coordinates(final, frame)
    assert _moved_invariants(moved, final.order) == _moved_invariants(prolong(moved, 0), final.order)
    companion = first_order_companion(final)
    assert _companion_invariants(companion) == _companion_invariants(prolong(companion, 0))
    assert slice_at(companion, 1).dimension == slice_at(final, max(final.order, 1)).dimension


def test_corpus_finals_read_the_same_as_given_and_as_prolonged():
    rng = random.Random(5)
    for text in CORPUS_TEXTS.values():
        final = complete(parse(text).system).final_system
        for frame in (curve_frame(final.n), CoordinateChange(_unimodular_draw(final.n, rng))):
            _assert_presentation_independent(final, frame)


@settings(max_examples=60, deadline=None)
@given(constant_coefficient_systems(), st.integers(0, 999))
# y2 = 0 is of order 0: the companion as built misses z4 = y2_1 = 0 in dim R_1
@example(parse("vars=1; unknowns=2; eq: z1[1,1]=0; eq: z2[]=0").system, 0)
def test_completed_systems_read_the_same_as_given_and_as_prolonged(sys, seed):
    report = complete(sys)
    assume(report.integrable)
    final = report.final_system
    for frame in (curve_frame(final.n), CoordinateChange(_unimodular_draw(final.n, random.Random(seed)))):
        _assert_presentation_independent(final, frame)
