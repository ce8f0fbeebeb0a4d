from __future__ import annotations

import pytest
from hypothesis import assume, given, settings

from conftest import BENCH_TEXTS, CORPUS_TEXTS, constant_coefficient_systems
from formalpde import jetspace as js
from formalpde.completion import complete
from formalpde.hilbert import PowerSeries, compare, hilbert_function, principal_class_series
from formalpde.jetspace import monomial_count
from formalpde.parser import parse
from formalpde.pdesystem import LinearSystem, slice_at


def test_series_all_quadrics_is_binomial():
    from math import comb

    for n in range(1, 7):
        series = principal_class_series([2] * n, n, n + 2)
        assert series.coefficients[: n + 1] == tuple(comb(n, t) for t in range(n + 1))
        assert series.coefficients[n + 1 :] == (0, 0)
        assert series.total() == 2 ** n


def test_power_series_checks_its_length_and_compares_by_its_fields():
    series = principal_class_series([2], 1, 3)
    assert series == PowerSeries((1, 1, 0, 0), 3) and hash(series) == hash(PowerSeries((1, 1, 0, 0), 3))
    assert series != PowerSeries((1, 1, 0, 0, 0), 4) and series != (1, 1, 0, 0)
    assert repr(series) == "PowerSeries(coefficients=(1, 1, 0, 0), truncation=3)"
    with pytest.raises(ValueError, match="coefficient list does not match truncation"):
        PowerSeries((1, 1), 3)


def test_series_degrees_3_2():
    series = principal_class_series([3, 2], 3, 6)
    assert series.coefficients == (1, 3, 5, 6, 6, 6, 6)


def test_series_degrees_2_3_2():
    series = principal_class_series([2, 3, 2], 3, 4)
    assert series.coefficients == (1, 3, 4, 3, 1)
    assert series.total() == 12


def test_series_rejects_rank_overflow():
    with pytest.raises(ValueError, match="rank exceeds variable count"):
        principal_class_series([2, 2], 1, 3)


def test_hilbert_function_flagship(corpus_systems):
    counted = hilbert_function(corpus_systems["example7"], 6)
    assert counted.coefficients == (1, 4, 6, 4, 1, 0, 0)


def test_hilbert_function_third_curve(corpus_systems):
    counted = hilbert_function(corpus_systems["example6_third"], 5)
    assert counted.coefficients == (1, 3, 5, 6, 6, 6)
    assert counted.total() == 27


def test_hilbert_function_free_system():
    counted = hilbert_function(LinearSystem(3, 1, []), 5)
    assert counted.coefficients == tuple(monomial_count(3, t) for t in range(6))


def test_compare_third_curve_agrees(corpus_systems):
    counted = hilbert_function(corpus_systems["example6_third"], 8)
    series = principal_class_series([3, 2], 3, 8)
    assert compare(counted, series).agrees


def test_compare_twisted_cubic_mismatch(corpus_systems):
    # not an H-basis: the counted function drops below the degree series as
    # soon as the lower-order parts intervene (independent jet-count path)
    final = complete(corpus_systems["example6_twisted"]).final_system
    counted = hilbert_function(final, 6)
    series = principal_class_series([3, 2], 3, 6)
    result = compare(counted, series)
    assert not result.agrees
    assert result.first_mismatch == 2
    assert counted.coefficients[:3] == (1, 3, 3)


def test_compare_example3_mismatch(corpus_systems):
    final = complete(corpus_systems["example3"]).final_system
    counted = hilbert_function(final, 5)
    series = principal_class_series([2, 2], 3, 5)
    result = compare(counted, series)
    assert result.first_mismatch == 2
    assert counted.coefficients == (1, 3, 2, 2, 2, 2)


def test_compare_identical():
    a = principal_class_series([2], 2, 4)
    assert compare(a, a).agrees


def test_compare_rejects_truncation_mismatch():
    with pytest.raises(ValueError, match="truncations"):
        compare(principal_class_series([2], 2, 4), principal_class_series([2], 2, 5))


def test_series_without_generators_is_free():
    series = principal_class_series([], 3, 7)
    assert series.coefficients == tuple(monomial_count(3, t) for t in range(8))


def test_regular_sequence_corpus_counts_match_series(corpus_systems):
    cases = {
        "example5_rprime": (2, 2, 2),
        "example5_rsecond": (2, 3, 2),
        "example7": (2, 2, 2, 2),
        "abstract_n2_q": (2, 2),
        "abstract_n2_qprime": (3, 2),
        "abstract_n3": (2, 2, 2),
    }
    for name, degrees in cases.items():
        sys = corpus_systems[name]
        trunc = sum(degrees)
        counted = hilbert_function(sys, trunc)
        series = principal_class_series(degrees, sys.n, trunc)
        assert compare(counted, series).agrees, name


def test_binomial_total_up_to_n8():
    for n in range(1, 9):
        assert principal_class_series([2] * n, n, n).total() == 2 ** n


def _slice_differences(sys, truncation):
    """dim R_t - dim R_{t-1} from prolonged eliminations alone, on a fresh memo."""
    fresh = sys.replace(sys.equations)
    dims = [slice_at(fresh, t).dimension for t in range(truncation + 1)]
    return tuple(b - a for a, b in zip([0] + dims, dims))


TEXTS = {**CORPUS_TEXTS, **BENCH_TEXTS}


@pytest.mark.parametrize("name", list(TEXTS))
def test_hilbert_function_matches_slice_differences(name):
    raw = parse(TEXTS[name]).system
    report = complete(raw)
    final = report.final_system
    for sys in (raw,) if final is raw else (raw, final):
        trunc = 2 * sys.order + sys.n + 3
        assert hilbert_function(sys, trunc).coefficients == _slice_differences(sys, trunc), name


def _full_rref_keys(sys):
    return {key for key in sys._cache if key[0] == "_full_rref"}


def test_hilbert_function_of_certified_system_adds_no_prolonged_elimination():
    report = complete(parse(BENCH_TEXTS["five-var"]).system)
    final = report.final_system
    assert report.verdict == "formally_integrable" and not report.window_limited
    before = _full_rref_keys(final)
    assert hilbert_function(final, 8).coefficients == (1, 5, 10, 10, 5, 1, 0, 0, 0)
    assert _full_rref_keys(final) == before


def test_hilbert_function_of_window_limited_system_counts_slices(monkeypatch):
    # example2 is sealed at order 2; with no order passing Cartan's test its
    # 2-acyclicity scan runs to the end of the window
    from formalpde import spencer

    monkeypatch.setattr(spencer, "_passes_cartan", lambda sys, order: False)
    report = complete(parse(CORPUS_TEXTS["example2"]).system)
    final = report.final_system
    assert report.window_limited
    hilbert_function(final, 8)
    assert {("_full_rref", t) for t in range(9)} <= _full_rref_keys(final)


def _groebner_hilbert_function(sys, truncation):
    """Oracle for m = 1: the number of degree-t standard monomials of a grevlex
    Groebner basis of the chi-polynomials, by sympy.  Grevlex refines the
    degree, so the standard monomials of degree <= t span polynomials of degree
    <= t modulo the ideal, whose dimension is dim R_t."""
    sympy = pytest.importorskip("sympy")
    chi = sympy.symbols(f"chi1:{sys.n + 1}")
    polys = [sympy.Poly.from_dict({jc.mu: c for jc, c in e.terms.items()}, *chi) for e in sys.equations]
    basis = sympy.groebner(polys, *chi, order="grevlex").polys if polys else []
    leads = [g.monoms(order="grevlex")[0] for g in basis]

    def standard(mu) -> bool:
        return not any(all(a >= b for a, b in zip(mu, lead)) for lead in leads)

    return tuple(sum(map(standard, js.multi_indices(sys.n, t))) for t in range(truncation + 1))


@pytest.mark.parametrize("name", [name for name in TEXTS if parse(TEXTS[name]).system.m == 1])
def test_hilbert_function_matches_groebner_standard_monomials(name):
    raw = parse(TEXTS[name]).system
    trunc = 2 * raw.order + raw.n + 3
    assert hilbert_function(complete(raw).final_system, trunc).coefficients == _groebner_hilbert_function(raw, trunc)


@settings(max_examples=100, deadline=None)
@given(constant_coefficient_systems().filter(lambda s: s.m == 1))
def test_hilbert_function_of_random_systems_matches_groebner_standard_monomials(raw):
    report = complete(raw)
    assume(report.integrable)  # an inconclusive completion certifies no count
    assert hilbert_function(report.final_system, 6).coefficients == _groebner_hilbert_function(raw, 6)
