from __future__ import annotations

import pytest

from conftest import CORPUS_TEXTS
from formalpde import jetspace as js
from formalpde.completion import complete
from formalpde.parser import parse
from formalpde.pdesystem import CoordinateChange, change_coordinates, prolong
from formalpde.purity import (
    is_pure,
    localize,
    localized_dimension,
    localized_generators,
    localized_parametric_jets,
    torsion_generators,
)
from formalpde.ratlinalg import ParamScalar, Poly


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
    assert {"y_{33}": loc.system.one()} in rendered
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
    rref_param, rank = ratlinalg._rref_param, ratlinalg.rank

    def key(matrix):
        return matrix.cols, tuple(tuple(sorted((c, str(v)) for c, v in row.items())) for row in matrix.sparse)

    def recorded_rref(matrix):
        eliminated.append(key(matrix))
        return rref_param(matrix)

    def recorded_rank(matrix):
        if matrix.params:
            eliminated.append(key(matrix))
        return rank(matrix)

    monkeypatch.setattr(ratlinalg, "_rref_param", recorded_rref)
    for module in (completion, hilbert, inverse, pdesystem, purity, ratlinalg, spencer):
        if getattr(module, "rank", None) is rank:
            monkeypatch.setattr(module, "rank", recorded_rank)
    localized_dimension(localize(sys, r))
    assert eliminated, "the localized dimension eliminates over QQ(chi)"
    torsion_generators(sys, r)
    assert len(set(eliminated)) == len(eliminated)
