from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import BENCH_TEXTS, CORPUS_TEXTS, make_system
from formalpde import jetspace as js
from formalpde.completion import complete
from formalpde.inverse import (
    ModularEquation,
    Section,
    _nakayama,
    derivative_closure_dimension,
    generating_sections,
    multiplication_matrices,
    residue_map,
    section_basis,
    socle,
    spencer_apply,
    top_generators,
)
from formalpde.jetspace import JetCoordinate
from formalpde.parser import parse
from formalpde.pdesystem import prolonged_equations, slice_at, stable_order
from formalpde.ratlinalg import ExactMatrix, field_one, kernel_basis, rank, rref

F = Fraction


def names(jets):
    return [js.jet_name(jc, 1) for jc in jets]


def section_satisfies(sys, f: Section) -> bool:
    for e in prolonged_equations(sys, f.order):
        total = None
        for jc, c in e.terms.items():
            term = c * f.coefficient(jc)
            total = term if total is None else total + term
        if total:
            return False
    return True


def test_section_basis_example1(corpus_systems):
    secs = section_basis(corpus_systems["example1"], 3)
    assert len(secs) == 4
    distinguished = []
    for f in secs:
        ones = [jc for jc, c in f.coefficients.items() if c == 1]
        distinguished.append(sorted(ones, key=js.display_key)[0])
    assert names(distinguished) == ["y", "y_1", "y_2", "y_{11}"]


def test_section_basis_example5_r(corpus_systems):
    assert len(section_basis(corpus_systems["example5_r"], 2)) == 5


def test_section_basis_first_derivatives_zero():
    sys = make_system(3, [("1", 1)], [("2", 1)], [("3", 1)])
    assert len(section_basis(sys, 2)) == 1


def test_spencer_apply_example5():
    sys = make_system(3, [("33", 1), ("11", -1)], [("23", 1)], [("22", 1), ("11", -1)])
    gens = top_generators(sys)
    assert len(gens) == 1
    image = spencer_apply(1, gens[0].section)
    assert ModularEquation(image, 1).body() == "a^{11} + a^{22} + a^{33}"
    assert section_satisfies(sys, image)


def test_spencer_apply_commutes(corpus_systems):
    for name in ("example1", "example5_r", "example5_rprime"):
        sys = corpus_systems[name]
        for f in section_basis(sys, sys.order + 1):
            for i in range(1, sys.n + 1):
                for j in range(i + 1, sys.n + 1):
                    assert spencer_apply(i, spencer_apply(j, f)) == spencer_apply(
                        j, spencer_apply(i, f)
                    )


def test_section_drops_zero_coefficients_and_is_unhashable():
    y, y1 = JetCoordinate(1, (0, 0)), JetCoordinate(1, (1, 0))
    f = Section(1, {y: F(0), y1: F(2)})
    assert f.coefficients == {y1: F(2)} and f and not Section(1, {y: F(0)})
    assert f == Section(1, {y1: 2}) and f != Section(0, {y1: 2})
    assert repr(f) == "Section(order=1, coefficients={JetCoordinate(k=1, mu=(1, 0)): Fraction(2, 1)})"
    with pytest.raises(TypeError):
        hash(f)


def test_spencer_apply_kills_constants():
    sys = make_system(2, [("11", 1)], [("12", 1)], [("22", 1)])
    constant = Section(1, {JetCoordinate(1, (0, 0)): F(1)})
    for i in (1, 2):
        assert not spencer_apply(i, constant)


def test_spencer_apply_maps_sections_to_sections(corpus_systems):
    for name in ("example1", "example5_rprime", "example7"):
        sys = corpus_systems[name]
        for f in section_basis(sys, sys.order + 1):
            for i in range(1, sys.n + 1):
                assert section_satisfies(sys, spencer_apply(i, f)), name


def test_top_generators_example1(corpus_systems):
    gens = top_generators(corpus_systems["example1"])
    assert [g.body() for g in gens] == ["a^2", "a^{11}"]
    assert [str(g) for g in gens] == ["E ≡ a^2 = 0", "E ≡ a^{11} = 0"]


def test_top_generators_example5_variants(corpus_systems):
    assert [g.body() for g in top_generators(corpus_systems["example5_rprime"])] == [
        "a^{111} + a^{122} + a^{133}"
    ]
    assert [g.body() for g in top_generators(corpus_systems["example5_rsecond"])] == [
        "a^{1113} + a^{1223} + a^{1333}"
    ]


def test_top_generators_requires_finite_type(corpus_systems):
    with pytest.raises(ValueError, match="relative localization"):
        top_generators(corpus_systems["example4"])


def test_socle_example1(corpus_systems):
    soc = socle(corpus_systems["example1"])
    assert len(soc) == 2
    got = sorted(names(v.keys())[0] for v in soc)
    assert got == ["y_2", "y_{11}"]
    for v in soc:
        assert all(c == 1 for c in v.values())


def test_socle_example5_brute_force(corpus_systems):
    # independent oracle: the five-dimensional module with basis
    # (y, y1, y2, y3, y11) and relations y12 = y13 = y23 = 0,
    # y22 = y33 = y11, all order-3 classes zero
    basis = ["y", "y1", "y2", "y3", "y11"]
    idx = {b: i for i, b in enumerate(basis)}
    mult = {
        1: {"y": "y1", "y1": "y11", "y2": None, "y3": None, "y11": None},
        2: {"y": "y2", "y1": None, "y2": "y11", "y3": None, "y11": None},
        3: {"y": "y3", "y1": None, "y2": None, "y3": "y11", "y11": None},
    }
    rows = []
    for i in (1, 2, 3):
        for target in basis:
            row = [F(0)] * 5
            for src in basis:
                if mult[i][src] == target:
                    row[idx[src]] = F(1)
            rows.append(row)
    from formalpde.ratlinalg import ExactMatrix, kernel_basis

    oracle_kernel = kernel_basis(ExactMatrix(rows, cols=5))
    assert oracle_kernel.cols == 1
    soc = socle(corpus_systems["example5_r"])
    assert len(soc) == 1
    assert names(soc[0].keys()) == ["y_{11}"]


def test_socle_of_maximal_ideal_system():
    sys = make_system(3, [("1", 1)], [("2", 1)], [("3", 1)])
    soc = socle(sys)
    assert len(soc) == 1
    assert names(soc[0].keys()) == ["y"]


def test_top_equals_socle_dimension(corpus_systems):
    for name in ("example1", "example5_r", "example5_rprime", "example5_rsecond", "example7"):
        sys = corpus_systems[name]
        assert len(top_generators(sys)) == len(socle(sys)), name


def test_generators_generate(corpus_systems):
    for name in ("example1", "example5_r", "example5_rprime", "example7"):
        sys = corpus_systems[name]
        gens = top_generators(sys)
        seeds = []
        for g in gens:
            ones = [jc for jc, c in g.section.coefficients.items() if c == 1]
            seeds.append(sorted(ones, key=js.display_key)[0])
        q = sys.order
        total = None
        from formalpde.pdesystem import stable_dimension

        total = stable_dimension(sys)
        assert derivative_closure_dimension(sys, seeds) == total, name


def test_generator_count_matches_quotient_dimension(corpus_systems):
    # dim R - dim mR is basis independent, so the generator count is stable
    sys = corpus_systems["example1"]
    assert len(top_generators(sys)) == len(top_generators(sys)) == 2


def test_generating_sections_equal_top_generators_for_origin_support(corpus_systems):
    for name in ("example1", "example5_rprime"):
        sys = corpus_systems[name]
        assert [g.body() for g in generating_sections(sys)] == [
            g.body() for g in top_generators(sys)
        ]


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS))
def test_section_basis_is_transposed_residue_map(name):
    # Macaulay's duality: section t is column t of the residue map, and each
    # is a solution that is 1 on its own parametric jet and 0 on the others
    sys = parse(CORPUS_TEXTS[name]).system
    for order in range(sys.order + 4):
        residues, parametric = residue_map(sys, order)
        sections = section_basis(sys, order)
        assert len(sections) == len(parametric) == slice_at(sys, order).dimension
        for t, f in enumerate(sections):
            assert f.coefficients == {jc: vec[t] for jc, vec in residues.items() if t in vec}
            assert [f.coefficient(jc) for jc in parametric] == [int(u == t) for u in range(len(parametric))]
            assert section_satisfies(sys, f)


def _nakayama_by_spencer_operator(sys):
    """Oracle: m*R spanned by d_i of every basis section through order o + 1,
    its RREF pivots in parametric-jet coordinates, each parametric jet lifted
    to the first basis section that is 1 there."""
    o = stable_order(sys)
    parametric = list(slice_at(sys, o).parametric)
    basis = section_basis(sys, o + 1)
    index = {jc: t for t, jc in enumerate(parametric)}
    rows = []
    for f in basis:
        for i in range(1, sys.n + 1):
            g = spencer_apply(i, f)
            rows.append({index[jc]: c for jc, c in g.coefficients.items() if jc in index})
    pivots = set(rref(ExactMatrix.from_rows(rows, len(parametric), sys.params)).pivots)
    by_jet = {}  # each section under the first parametric jet where it is 1; the first one kept
    for f in basis:
        for jc in parametric:
            if f.coefficient(jc) == 1:
                by_jet.setdefault(jc, f)
                break
    return parametric, by_jet, [jc for j, jc in enumerate(parametric) if j not in pivots]


def _socle_by_kernel_basis(sys):
    """Oracle: the kernel of the stacked multiplication matrices, eliminated afresh."""
    mats, basis_jets = multiplication_matrices(sys)
    stacked = [row for m in mats for row in m.sparse]
    kern = kernel_basis(ExactMatrix.from_rows(stacked, len(basis_jets), sys.params))
    return [{basis_jets[i]: v for i, v in vec.items()} for vec in kern.transpose().sparse]


def _inverse_systems(text):
    """The completed system when it is finite type, then every QQ(chi)
    system that `is_pure` localizes to."""
    from formalpde import purity

    final = complete(parse(text).system).final_system
    systems = []
    try:
        stable_order(final)
        systems.append(final)
    except ValueError:
        pass
    localize = purity.localize

    def recorded(sys, r):
        loc = localize(sys, r)
        if loc.params and all(loc.system is not s for s in systems):
            systems.append(loc.system)
        return loc

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(purity, "localize", recorded)
        purity.is_pure(parse(text).system)
    return systems


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS) + ["flagship"])
def test_nakayama_matches_spencer_operator_construction(name):
    # m*R is the row space of the stacked multiplication matrices, and the
    # lift of parametric jet t is section t through order o + 1
    text = BENCH_TEXTS["flagship"] if name == "flagship" else CORPUS_TEXTS[name]
    systems = _inverse_systems(text)
    for sys in systems:
        parametric, by_jet, top = _nakayama_by_spencer_operator(sys)
        got_parametric, lifts, got_top = _nakayama(sys)
        assert list(got_parametric) == parametric, name
        assert got_top == top, name
        assert lifts == by_jet, name
        assert [g.body() for g in top_generators(sys)] == [
            ModularEquation(by_jet[jc], sys.m, sys.params).body() for jc in top
        ], name
        assert socle(sys) == _socle_by_kernel_basis(sys), name


def test_nakayama_cases_cover_finite_and_localized_systems():
    # the parametrized oracle test above reaches both kinds of system
    finite = _inverse_systems(CORPUS_TEXTS["example1"])
    localized = _inverse_systems(CORPUS_TEXTS["example6_third"])
    assert [s.params for s in finite] == [0]
    assert localized and all(s.params for s in localized)


@pytest.mark.parametrize("name", ["example1", "example5_r", "example7"])
def test_socle_after_top_generators_runs_no_elimination(name, monkeypatch):
    # top and socle share one elimination of the stacked multiplication matrices
    from formalpde import ratlinalg

    sys = parse(CORPUS_TEXTS[name]).system
    top_generators(sys)
    eliminated = []
    for fn in ("_echelon_int", "_echelon_param"):
        original = getattr(ratlinalg, fn)

        def recorded(rows, original=original, fn=fn):
            eliminated.append(fn)
            return original(rows)

        monkeypatch.setattr(ratlinalg, fn, recorded)
    assert socle(sys)
    assert eliminated == []


def _closure_by_rank(sys, seed_jets):
    """Oracle: the closure grown a round at a time, every image of every round
    appended and the whole pile ranked again, until a round adds no rank."""
    mats, basis_jets = multiplication_matrices(sys)
    width = len(basis_jets)
    index = {jc: t for t, jc in enumerate(basis_jets)}
    vectors = [{index[jc]: field_one(sys.params)} for jc in seed_jets]
    current = rank(ExactMatrix.from_rows(vectors, width, sys.params))
    frontier = list(vectors)
    while frontier:
        new = []
        for v in frontier:
            for m in mats:  # the transpose of m applied to v: row c of m scaled by v[c]
                img = {}
                for c, x in v.items():
                    for r, y in m.sparse[c].items():
                        img[r] = img[r] + y * x if r in img else y * x
                img = {r: y for r, y in img.items() if y}
                if img:
                    new.append(img)
        if not new:
            break
        grown = rank(ExactMatrix.from_rows(vectors + new, width, sys.params))
        if grown == current:
            break
        vectors += new
        frontier = new
        current = grown
    return current


def _generating_jets_by_rank(sys):
    """Oracle: the Nakayama top jets, then each parametric jet from the highest
    down whose addition grows the closure, each closure taken afresh."""
    parametric, _, top = _nakayama(sys)
    chosen, current = list(top), _closure_by_rank(sys, top)
    for jc in reversed(parametric):
        if current == len(parametric):
            break
        if jc in chosen:
            continue
        grown = _closure_by_rank(sys, chosen + [jc])
        if grown > current:
            chosen, current = chosen + [jc], grown
    return sorted(chosen, key=js.display_key)


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS) + ["flagship"])
def test_closure_on_one_echelon_basis_matches_rank_every_round(name):
    # closure(C + {jc}) is larger than closure(C) exactly when jc is outside
    # closure(C), so growing one basis chooses the jets the oracle loop chooses
    text = BENCH_TEXTS["flagship"] if name == "flagship" else CORPUS_TEXTS[name]
    for sys in _inverse_systems(text):
        parametric, lifts, top = _nakayama(sys)
        for seeds in [[jc] for jc in parametric] + [top, list(parametric)]:
            assert derivative_closure_dimension(sys, seeds) == _closure_by_rank(sys, seeds), name
        assert [g.body() for g in generating_sections(sys)] == [
            ModularEquation(lifts[jc], sys.m, sys.params).body() for jc in _generating_jets_by_rank(sys)
        ], name


@pytest.mark.parametrize("name", ["example1", "example7", "example6_third"])
def test_one_module_structure_per_system(name, monkeypatch):
    # one residue map, one Nakayama reading and one stable order per system,
    # and top generators read what generating_sections left in the memo
    from formalpde import inverse, pdesystem, ratlinalg

    for sys in _inverse_systems(CORPUS_TEXTS[name]):
        o = stable_order(sys)
        assert _nakayama(sys) is _nakayama(sys)
        assert residue_map(sys, o + 1) is residue_map(sys, o + 1)
        sliced = []
        original_slice_at = pdesystem.slice_at
        monkeypatch.setattr(pdesystem, "slice_at", lambda *args: sliced.append(args) or original_slice_at(*args))
        assert stable_order(sys) == o and sliced == []
        monkeypatch.undo()
        generating_sections(sys)
        eliminated = []
        for module in (ratlinalg, inverse):
            for fn in ("_echelon_int", "_echelon_param"):
                original = getattr(ratlinalg, fn)

                def recorded(*args, original=original, fn=fn, **kwargs):
                    eliminated.append(fn)
                    return original(*args, **kwargs)

                monkeypatch.setattr(module, fn, recorded)
        top_generators(sys)  # empty on a localized system, where R / m*R = 0
        assert eliminated == []
        monkeypatch.undo()


def test_generating_sections_skip_a_jet_inside_the_closure():
    # d acts invertibly, so R / m*R = 0: the dual of z2_1 spans the Jordan
    # block of z2'' - 2 z2' + z2 = 0, so z2 is skipped and z1 is taken
    sys = parse("vars=1; unknowns=2; eq: z2[1,1]-2*z2[1]+z2[]=0; eq: z1[1]-z1[]=0").system
    parametric, lifts, top = _nakayama(sys)
    jets = _generating_jets_by_rank(sys)
    assert top == [] and len(parametric) == 3 and [js.jet_name(jc, 2) for jc in jets] == ["z1", "z2_1"]
    assert [g.body() for g in generating_sections(sys)] == [ModularEquation(lifts[jc], 2).body() for jc in jets]
