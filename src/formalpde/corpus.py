"""Built-in corpus: classical examples with their published invariants.

The systems come from Macaulay's *The Algebraic Theory of Modular Systems*
(1916) and the classical involution literature (Janet, Spencer); the expected
values are the ones printed in those sources plus a few independently derived
bookkeeping numbers.  Every expectation carries a provenance tag:

* ``literature`` - stated in the classical sources,
* ``derived``    - fixed here by an independent computation,
* ``trivial``    - bookkeeping identity.

`run_corpus` executes every entry and diffs each value, so a nonzero exit of
the `examples` subcommand always points at a concrete number.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import jetspace as js
from .completion import (
    characteristic_matrix,
    codimension,
    complete,
    projection_surjective,
)
from .hilbert import compare, hilbert_function, principal_class_series
from .inverse import (
    ModularEquation,
    generating_sections,
    socle,
    spencer_apply,
    top_generators,
)
from .parser import parse
from .pdesystem import (
    CoordinateChange,
    change_coordinates,
    first_order_companion,
    slice_at,
    stable_dimension,
)
from .purity import is_pure, localize, localized_dimension, localized_parametric_jets, torsion_generators
from .spencer import cohomology, is_involutive_symbol, symbol, symbol_dim


class Check(NamedTuple):
    key: str
    provenance: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


class CorpusResult(NamedTuple):
    name: str
    source: str
    checks: tuple
    notes: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


SOURCES = {
    "abstract_n1": "one-variable double point (chi^2)",
    "abstract_n2_q": "Macaulay 1916, p.78: (chi_2^2, chi_1 chi_2 - chi_1^2)",
    "abstract_n2_qprime": "Macaulay 1916, p.78: (chi_2^3, chi_1 chi_2 - chi_1^2)",
    "abstract_n3": "Macaulay 1916, p.78: (chi_3^2, chi_2 chi_3 - chi_1^2, chi_2^2)",
    "example1": "Eisenbud, Commutative Algebra, p.526: (chi_1^3, chi_2^2, chi_1 chi_2)",
    "example2": "mixed ideal (chi_3^2, chi_2 chi_3, chi_1 chi_3, chi_1 chi_2)",
    "example3": "Macaulay 1916, par.38: (chi_1^2, chi_1 chi_3 - chi_2)",
    "example4": "unmixed ideal (chi_3^2, chi_2 chi_3 - chi_1 chi_3, chi_2^2 - chi_1 chi_2)",
    "example5": "Macaulay 1916, par.71: m^2 and the nested primary ideals q, q', q''",
    "example6_twisted": "twisted cubic (chi_3^3 - chi_1, chi_3^2 - chi_2)",
    "example6_third": "monomial curve u^6,u^5,u^4: (chi_3^3 - chi_1^2, chi_2^2 - chi_1 chi_3)",
    "example7": "four-variable flagship (chi_4^2, chi_3 chi_4 - chi_2^2, chi_3^2, chi_2 chi_4 - chi_1^2)",
    "example7_primed": "flagship with first-order terms added",
    "example8": "mixed ideal (chi_1 chi_3, chi_2 chi_3)",
}

TEXTS = {
    "abstract_n1": "vars=1; eq: y[1,1]=0",
    "abstract_n2_q": "vars=2; eq: y[2,2]=0; eq: y[1,2]-y[1,1]=0",
    "abstract_n2_qprime": "vars=2; eq: y[2,2,2]=0; eq: y[1,2]-y[1,1]=0",
    "abstract_n3": "vars=3; eq: y[3,3]=0; eq: y[2,3]-y[1,1]=0; eq: y[2,2]=0",
    "example1": (
        "vars=2; eq: y[2,2,2]=0; eq: y[1,2,2]=0; eq: y[1,1,2]=0; "
        "eq: y[1,1,1]=0; eq: y[2,2]=0; eq: y[1,2]=0"
    ),
    "example2": "vars=3; eq: y[3,3]=0; eq: y[2,3]=0; eq: y[1,3]=0; eq: y[1,2]=0",
    "example3": "vars=3; eq: y[1,1]=0; eq: y[1,3]-y[2]=0",
    "example4": "vars=3; eq: y[3,3]=0; eq: y[2,3]-y[1,3]=0; eq: y[2,2]-y[1,2]=0",
    "example5_r": (
        "vars=3; eq: y[3,3]-y[1,1]=0; eq: y[2,3]=0; eq: y[2,2]-y[1,1]=0; "
        "eq: y[1,3]=0; eq: y[1,2]=0"
    ),
    "example5_rprime": "vars=3; eq: y[3,3]-y[1,1]=0; eq: y[2,3]=0; eq: y[2,2]-y[1,1]=0",
    "example5_rsecond": "vars=3; eq: y[3,3]-y[1,1]=0; eq: y[2,3,3]=0; eq: y[2,2]-y[1,1]=0",
    "example6_twisted": "vars=3; eq: y[3,3,3]-y[1]=0; eq: y[3,3]-y[2]=0",
    "example6_third": "vars=3; eq: y[3,3,3]-y[1,1]=0; eq: y[2,2]-y[1,3]=0",
    "example7": "vars=4; eq: y[4,4]=0; eq: y[3,4]-y[2,2]=0; eq: y[3,3]=0; eq: y[2,4]-y[1,1]=0",
    "example7_primed": (
        "vars=4; eq: y[4,4]=0; eq: y[3,4]-y[2,2]-y[1]=0; eq: y[3,3]=0; "
        "eq: y[2,4]-y[1,1]-y[3]=0"
    ),
    "example8": "vars=3; eq: y[1,3]=0; eq: y[2,3]=0",
}

FRAMES = {
    # the classical delta-regular frames used before localizing
    "example2": CoordinateChange(((1, -1, 0), (0, 1, 0), (0, 0, 1))),
    "example3": CoordinateChange.permutation((3, 2, 1)),
    "example8": CoordinateChange(((1, 0, -1), (0, 1, 0), (0, 0, 1))),
}


def system(name: str):
    return parse(TEXTS[name]).system


def framed(name: str):
    """The corpus system moved, as given, to its classical delta-regular frame."""
    sys = system(name)
    frame = FRAMES.get(name)
    if frame is None:
        return sys
    return change_coordinates(sys, frame)


def _par_names(jets, m: int = 1, var_offset: int = 0):
    return tuple(js.jet_name(jc, m, var_offset) for jc in jets)


ABSTRACT = {
    # name: (dim R, order of the listed slice, its parametric jets)
    "abstract_n1": (2, 1, ("y", "y_1")),
    "abstract_n2_q": (4, 2, ("y", "y_1", "y_2", "y_{11}")),
    "abstract_n2_qprime": (6, 3, ("y", "y_1", "y_2", "y_{11}", "y_{22}", "y_{111}")),
    "abstract_n3": (8, 3, ("y", "y_1", "y_2", "y_3", "y_{11}", "y_{12}", "y_{13}", "y_{111}")),
}


def eval_abstract(name: str) -> CorpusResult:
    dim, order, par = ABSTRACT[name]
    sys = system(name)
    sl = slice_at(sys, order)
    checks = (
        Check("stable_dimension", "literature", dim, stable_dimension(sys)),
        Check(f"parametric_jets_order_{order}", "literature", par, _par_names(sl.parametric)),
    )
    return CorpusResult(name, SOURCES[name], checks, ())


def eval_example1() -> CorpusResult:
    sys = system("example1")
    inv = is_involutive_symbol(sys)
    gens = top_generators(sys)
    soc = socle(sys)
    checks = (
        Check("involutive", "literature", True, inv.involutive),
        Check("dim_R", "literature", 4, stable_dimension(sys)),
        Check("generator_count", "literature", 2, len(gens)),
        Check("generators", "literature", ("a^2", "a^{11}"), tuple(g.body() for g in gens)),
        Check("socle_dim", "literature", 2, len(soc)),
        Check(
            "socle_classes",
            "literature",
            (("y_2",), ("y_{11}",)),
            tuple(tuple(js.jet_name(jc, 1) for jc in sorted(v, key=js.display_key)) for v in soc),
        ),
    )
    return CorpusResult("example1", SOURCES["example1"], checks, ())


def eval_example2() -> CorpusResult:
    sys = framed("example2")
    inv = is_involutive_symbol(sys)
    cd = codimension(sys)
    torsion = torsion_generators(sys, 2)
    purity = is_pure(sys)
    checks = (
        Check("involutive_after_frame", "literature", True, inv.involutive),
        Check("codimension", "literature", 2, cd),
        Check("torsion_labels", "literature", ("z4",), tuple(str(t) for t in torsion)),
        Check(
            "torsion_jets",
            "literature",
            ("y_3",),
            tuple(js.jet_name(t.jet, 1) for t in torsion if t.jet),
        ),
        Check("pure", "literature", False, purity.pure),
    )
    return CorpusResult("example2", SOURCES["example2"], checks, ())


def eval_example3() -> CorpusResult:
    sys = system("example3")
    report = complete(sys)
    gained = tuple(
        js.jet_name(e.leading_jet(), 1) for step in report.trace for e in step.gained
    )
    permuted = framed("example3")
    completed_permuted = complete(permuted).final_system
    inv = is_involutive_symbol(completed_permuted)
    comp = first_order_companion(completed_permuted)
    purity = is_pure(permuted)
    checks = (
        Check("completion_steps", "literature", 2, report.steps),
        Check("completion_gains", "literature", ("y_{12}", "y_{22}"), gained),
        Check("involutive_after_permutation", "literature", True, inv.involutive),
        Check("characters", "literature", (2, 0, 0), inv.tableau.alpha),
        Check("codimension", "literature", 2, codimension(report.final_system)),
        Check("companion_unknowns", "literature", 4, comp.m),
        Check("companion_equations", "literature", 10, len(comp.equations)),
        Check("torsion", "literature", (), tuple(str(t) for t in purity.torsion)),
        Check("pure", "literature", True, purity.pure),
    )
    return CorpusResult("example3", SOURCES["example3"], checks, ())


def eval_example4() -> CorpusResult:
    sys = system("example4")
    inv = is_involutive_symbol(sys)
    loc = localize(sys, 2)
    dim = localized_dimension(loc)
    jets = _par_names(localized_parametric_jets(loc), 1, loc.params)
    purity = is_pure(sys)
    checks = (
        Check("involutive_as_given", "literature", True, inv.involutive),
        Check("identity_frame", "trivial", True, inv.tableau.frame.is_identity()),
        Check("codimension", "literature", 2, codimension(sys)),
        Check("localized_dimension", "literature", 3, dim),
        Check("localized_parametric", "literature", ("y", "y_2", "y_3"), jets),
        Check("alpha_crosscheck", "literature", 3, purity.alpha_crosscheck),
        Check("pure", "literature", True, purity.pure),
    )
    return CorpusResult("example4", SOURCES["example4"], checks, ())


def eval_example5() -> CorpusResult:
    sys_r = system("example5_r")
    sys_rp = system("example5_rprime")
    sys_rs = system("example5_rsecond")
    gens_r = top_generators(sys_r)
    gens_rp = top_generators(sys_rp)
    gens_rs = top_generators(sys_rs)
    d1 = spencer_apply(1, gens_rp[0].section)
    series_rp = principal_class_series((2, 2, 2), 3, 4)
    series_rs = principal_class_series((2, 3, 2), 3, 5)
    checks = (
        Check("dim_R", "literature", 5, stable_dimension(sys_r)),
        Check("dim_Rprime", "literature", 8, stable_dimension(sys_rp)),
        Check("dim_Rsecond", "literature", 12, stable_dimension(sys_rs)),
        Check("series_rprime", "literature", (1, 3, 3, 1, 0), series_rp.coefficients),
        Check("series_rsecond", "literature", (1, 3, 4, 3, 1, 0), series_rs.coefficients),
        Check(
            "hilbert_rprime_matches",
            "literature",
            True,
            compare(hilbert_function(sys_rp, 4), series_rp).agrees,
        ),
        Check(
            "hilbert_rsecond_matches",
            "literature",
            True,
            compare(hilbert_function(sys_rs, 5), series_rs).agrees,
        ),
        Check("generator_R", "literature", ("a^{11} + a^{22} + a^{33}",), tuple(g.body() for g in gens_r)),
        Check(
            "generator_Rprime",
            "literature",
            ("a^{111} + a^{122} + a^{133}",),
            tuple(g.body() for g in gens_rp),
        ),
        Check(
            "generator_Rsecond",
            "literature",
            ("a^{1113} + a^{1223} + a^{1333}",),
            tuple(g.body() for g in gens_rs),
        ),
        Check("spencer_d1_Eprime", "literature", "a^{11} + a^{22} + a^{33}", ModularEquation(d1, 1).body()),
        Check("socle_dim_R", "derived", 1, len(socle(sys_r))),
    )
    return CorpusResult("example5", SOURCES["example5"], checks, ())


def eval_example6_twisted() -> CorpusResult:
    sys = system("example6_twisted")
    report = complete(sys)
    final = report.final_system
    inv = is_involutive_symbol(final)
    series = principal_class_series((3, 2), 3, 6)
    counted = hilbert_function(final, 6)
    checks = (
        Check("final_equation_count", "literature", 3, len(final.equations)),
        Check("final_order", "literature", 2, final.order),
        Check("involutive", "literature", True, inv.involutive),
        Check("characters", "literature", (3, 0, 0), inv.tableau.alpha),
        Check("symbol_dims", "literature", (3, 3, 3, 3, 3), tuple(symbol_dim(final, o) for o in range(1, 6))),
        Check("non_h_basis_mismatch_degree", "derived", 2, compare(counted, series).first_mismatch),
    )
    return CorpusResult("example6_twisted", SOURCES["example6_twisted"], checks, ())


PAR5_THIRD_CURVE = (
    "y",
    "y_1",
    "y_2",
    "y_3",
    "y_{11}",
    "y_{12}",
    "y_{13}",
    "y_{23}",
    "y_{33}",
    "y_{111}",
    "y_{112}",
    "y_{113}",
    "y_{123}",
    "y_{133}",
    "y_{233}",
    "y_{1111}",
    "y_{1112}",
    "y_{1113}",
    "y_{1123}",
    "y_{1133}",
    "y_{1233}",
    "y_{11111}",
    "y_{11112}",
    "y_{11113}",
    "y_{11123}",
    "y_{11133}",
    "y_{11233}",
)


def eval_example6_third() -> CorpusResult:
    sys = system("example6_third")
    report = complete(sys)
    final = report.final_system
    sl5 = slice_at(final, 5)
    series = principal_class_series((3, 2), 3, 5)
    counted = hilbert_function(final, 5)
    h2g3 = cohomology(final, 2, 3)
    inv4 = is_involutive_symbol(final, 4)
    loc = localize(final, 2)
    gens = generating_sections(loc.system)
    purity = is_pure(sys)
    seq_checks = (
        Check("delta_seq_dims", "literature", (6, 18, 18, 6),
              (symbol_dim(final, 6), 3 * symbol_dim(final, 5), 3 * symbol_dim(final, 4), symbol_dim(final, 3))),
        Check("delta_seq_H1_g5", "literature", 0, cohomology(final, 1, 5).dim_cohomology),
        Check("delta_seq_H2_g4", "literature", 0, cohomology(final, 2, 4).dim_cohomology),
        Check("delta_seq_H3_g3", "literature", 0, cohomology(final, 3, 3).dim_cohomology),
    )
    checks = (
        Check("formally_integrable", "literature", True, report.verdict == "formally_integrable"),
        Check("par5_count", "literature", 27, sl5.dimension),
        Check("par5_list", "literature", PAR5_THIRD_CURVE, _par_names(sl5.parametric)),
        Check("hilbert_function", "literature", (1, 3, 5, 6, 6, 6), counted.coefficients),
        Check("hilbert_matches_series", "literature", True, compare(counted, series).agrees),
        Check("symbol_not_involutive_at_3", "literature", False, is_involutive_symbol(final, 3).involutive),
        Check("involutive_at_4", "literature", True, inv4.involutive),
        Check("characters_order4", "literature", (6, 0, 0), inv4.tableau.alpha),
        Check("H2_g3_nonzero", "literature", True, h2g3.dim_cohomology > 0),
        Check("H2_g3_cocycles_at_least_13", "literature", True, h2g3.dim_cocycles >= 13),
        Check("H2_g3_coboundaries", "literature", 12, h2g3.dim_coboundaries),
        Check("codimension", "literature", 2, codimension(final)),
        Check("localized_dimension", "literature", 6, localized_dimension(loc)),
        Check(
            "localized_parametric",
            "literature",
            ("y", "y_2", "y_3", "y_{23}", "y_{33}", "y_{233}"),
            _par_names(localized_parametric_jets(loc), 1, loc.params),
        ),
        Check("localized_generator_count", "literature", 1, len(gens)),
        Check(
            "localized_generator_leading_terms",
            "literature",
            True,
            gens[0].body().startswith("a^{233} + (χ_1)*a^{2223}") if gens else False,
        ),
        Check("pure", "literature", True, purity.pure),
    ) + seq_checks
    return CorpusResult("example6_third", SOURCES["example6_third"], checks, ())


def eval_example7() -> CorpusResult:
    sys = system("example7")
    report = complete(sys)
    inv = is_involutive_symbol(sys, 4)
    cm = characteristic_matrix(sys)
    purity = is_pure(sys)
    minors = tuple(sorted(str(p) for p in cm.minors))

    def strict_parametric(r):
        return tuple(
            js.jet_name(jc, 1)
            for jc in slice_at(sys, r).parametric
            if js.order_of(jc.mu) == r
        )

    checks = (
        Check("dims_R1_R4", "literature", (5, 11, 15, 16),
              tuple(slice_at(sys, r).dimension for r in range(1, 5))),
        Check("order3_symbol_rank", "literature", 16, symbol(sys, 3).ambient - symbol_dim(sys, 3)),
        Check("order4_symbol_rank", "literature", 34, symbol(sys, 4).ambient - symbol_dim(sys, 4)),
        Check("symbol_dim_g2", "literature", 6, symbol_dim(sys, 2)),
        Check(
            "parametric_strict_order_2",
            "literature",
            ("y_{11}", "y_{12}", "y_{13}", "y_{14}", "y_{22}", "y_{23}"),
            strict_parametric(2),
        ),
        Check(
            "parametric_strict_order_3",
            "literature",
            ("y_{111}", "y_{113}", "y_{122}", "y_{123}"),
            strict_parametric(3),
        ),
        Check("parametric_strict_order_4", "literature", ("y_{1113}",), strict_parametric(4)),
        Check("dims_stabilize", "literature", 16, slice_at(sys, 5).dimension),
        Check("symbol_dims_g3_g4_g5", "literature", (4, 1, 0),
              (symbol_dim(sys, 3), symbol_dim(sys, 4), symbol_dim(sys, 5))),
        Check("H2_g4", "literature", 0, cohomology(sys, 2, 4).dim_cohomology),
        Check("H3_g4", "literature", 0, cohomology(sys, 3, 4).dim_cohomology),
        Check("H4_g4", "literature", 1, cohomology(sys, 4, 4).dim_cohomology),
        Check("H2_g3", "literature", 0, cohomology(sys, 2, 3).dim_cohomology),
        Check("seq_4_24_24_4", "literature", (4, 24, 24, 4),
              (4 * symbol_dim(sys, 4), 6 * symbol_dim(sys, 3), 4 * symbol_dim(sys, 2), 1 * 4)),
        Check("seq_left_injective", "literature", 4, cohomology(sys, 2, 3).dim_coboundaries),
        Check("not_involutive_at_4", "literature", False, inv.involutive),
        Check("formally_integrable_zero_steps", "literature", (True, 0),
              (report.verdict == "formally_integrable", report.steps)),
        Check(
            "characteristic_minors",
            "literature",
            ("(χ_1)^2 - χ_2*χ_4", "(χ_2)^2 - χ_3*χ_4", "(χ_3)^2", "(χ_4)^2"),
            minors,
        ),
        Check("codimension", "literature", 4, codimension(sys)),
        Check("pure", "literature", True, purity.pure),
        Check("dim_R_asserted", "derived", 16, stable_dimension(sys)),
    )
    notes = (
        "classical source prints dim_k(R) = 8 for this system; the jet count "
        "1+4+6+4+1 = 16 is asserted instead and the discrepancy flagged here",
    )
    return CorpusResult("example7", SOURCES["example7"], checks, notes)


def eval_example7_primed() -> CorpusResult:
    sys = system("example7_primed")
    report = complete(sys)
    gained = sum(len(step.gained) for step in report.trace)
    checks = (
        Check("formally_integrable", "literature", True, report.verdict == "formally_integrable"),
        Check("gained_equations", "literature", 0, gained),
        Check("certified_via_g3", "literature", 3, report.acyclic_order),
        Check("projections_surjective", "literature", (True, True),
              (projection_surjective(sys, 2), projection_surjective(sys, 3))),
        Check("dims_R1_R4", "literature", (5, 11, 15, 16),
              tuple(slice_at(sys, r).dimension for r in range(1, 5))),
        Check("symbols_match_homogeneous", "literature", (6, 4, 1, 0),
              tuple(symbol_dim(sys, o) for o in range(2, 6))),
    )
    return CorpusResult("example7_primed", SOURCES["example7_primed"], checks, ())


def eval_example8() -> CorpusResult:
    sys = framed("example8")
    inv = is_involutive_symbol(sys)
    comp = first_order_companion(sys)
    inv1 = is_involutive_symbol(comp)
    loc = localize(sys, 1)
    torsion = torsion_generators(sys, 1)
    purity = is_pure(sys)
    checks = (
        Check("involutive_after_frame", "literature", True, inv.involutive),
        Check("characters_order2", "literature", (3, 1, 0), inv.tableau.alpha),
        Check("codimension", "literature", 1, codimension(sys)),
        Check("companion_unknowns", "literature", 4, comp.m),
        Check("companion_equations", "literature", 8, len(comp.equations)),
        Check("companion_characters", "literature", (3, 1, 0), inv1.tableau.alpha),
        Check("localized_dimension", "literature", 1, localized_dimension(loc)),
        Check("torsion_labels", "literature", ("z4",), tuple(str(t) for t in torsion)),
        Check(
            "torsion_jets",
            "literature",
            ("y_3",),
            tuple(js.jet_name(t.jet, 1) for t in torsion if t.jet),
        ),
        Check("pure", "literature", False, purity.pure),
    )
    return CorpusResult("example8", SOURCES["example8"], checks, ())


ENTRIES = {
    **{name: functools.partial(eval_abstract, name) for name in ABSTRACT},
    "example1": eval_example1,
    "example2": eval_example2,
    "example3": eval_example3,
    "example4": eval_example4,
    "example5": eval_example5,
    "example6_twisted": eval_example6_twisted,
    "example6_third": eval_example6_third,
    "example7": eval_example7,
    "example7_primed": eval_example7_primed,
    "example8": eval_example8,
}


def run_corpus(names=None) -> list[CorpusResult]:
    if names is None:
        names = list(ENTRIES)
    results = []
    for name in names:
        if name not in ENTRIES:
            raise KeyError(f"unknown corpus entry {name!r}")
        results.append(ENTRIES[name]())
    return results
