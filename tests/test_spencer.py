from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BENCH_TEXTS,
    CORPUS_TEXTS,
    constant_coefficient_systems,
    killing_text,
    make_system,
    symbol_oracle_systems,
)
from formalpde import jetspace as js
from formalpde.parser import parse
from formalpde.pdesystem import (
    CoordinateChange,
    Equation,
    _symbol_rref,
    change_coordinates,
    flag_levels,
    symbol_matrix,
)
from formalpde.ratlinalg import ParamScalar, Poly, kernel_basis, rank, rref
from formalpde.spencer import (
    N_FRAMES,
    InvolutionCertificate,
    InvolutionResult,
    JanetTableau,
    _delta_basis,
    _delta_rank,
    _flag_rank,
    _flag_ranks,
    _frames,
    _passes_cartan,
    _unimodular_draw,
    acyclicity_scan,
    cohomology,
    curve_frame,
    delta_matrix,
    is_involutive_symbol,
    janet_tableau,
    stabilization_window,
    symbol,
    symbol_dim,
)


def lambda_dim(n, s):
    from math import comb

    return comb(n, s)


COMPLETED_CORPUS = {
    # canonical completed/framed forms used by the property suites
    "example1": (2, [[("222", 1)], [("122", 1)], [("112", 1)], [("111", 1)], [("22", 1)], [("12", 1)]]),
    "example2_framed": (3, [[("33", 1)], [("23", 1)], [("22", 1), ("12", -1)], [("13", 1)]]),
    "example3_permuted": (3, [[("33", 1)], [("23", 1)], [("22", 1)], [("13", 1), ("2", -1)]]),
    "example4": (3, [[("33", 1)], [("23", 1), ("13", -1)], [("22", 1), ("12", -1)]]),
    "example5_rprime": (3, [[("33", 1), ("11", -1)], [("23", 1)], [("22", 1), ("11", -1)]]),
    "example6_twisted_completed": (3, [[("33", 1), ("2", -1)], [("23", 1), ("1", -1)], [("22", 1), ("13", -1)]]),
    "example6_third": (3, [[("333", 1), ("11", -1)], [("22", 1), ("13", -1)]]),
    "example7": (4, [[("44", 1)], [("34", 1), ("22", -1)], [("33", 1)], [("24", 1), ("11", -1)]]),
    "example8_framed": (3, [[("33", 1), ("13", -1)], [("23", 1)]]),
}


def completed_systems():
    return {name: make_system(n, *eqs) for name, (n, eqs) in COMPLETED_CORPUS.items()}


def test_symbol_dimensions_flagship(corpus_systems):
    sys = corpus_systems["example7"]
    assert [symbol_dim(sys, o) for o in (2, 3, 4, 5)] == [6, 4, 1, 0]


def test_symbol_dimensions_third_curve(corpus_systems):
    sys = corpus_systems["example6_third"]
    assert [symbol_dim(sys, o) for o in range(0, 6)] == [1, 3, 5, 6, 6, 6]


def test_symbol_free_jet_space():
    from formalpde.jetspace import monomial_count
    from formalpde.pdesystem import LinearSystem

    empty = LinearSystem(3, 2, [])
    for r in range(4):
        assert symbol_dim(empty, r) == 2 * monomial_count(3, r)


def test_delta_squared_zero_on_corpus(corpus_systems):
    for name, sys in completed_systems().items():
        n = sys.n
        q = sys.order
        for order in range(q, q + 2):
            for s in range(0, n - 1):
                out = delta_matrix(sys, s + 1, order)
                inn = delta_matrix(sys, s, order + 1)
                if out.cols and inn.rows:
                    assert (out @ inn).is_zero(), (name, s, order)


def test_delta_flagship_central_isomorphism(corpus_systems):
    sys = corpus_systems["example7"]
    m = delta_matrix(sys, 3, 4)
    assert (m.rows, m.cols) == (4, 4)
    assert rank(m) == 4


def test_delta_flagship_left_injective(corpus_systems):
    sys = corpus_systems["example7"]
    m = delta_matrix(sys, 2, 4)
    assert (m.rows, m.cols) == (16, 6)
    assert rank(m) == 6


def test_cohomology_flagship_acyclicity(corpus_systems):
    sys = corpus_systems["example7"]
    assert cohomology(sys, 2, 4).dim_cohomology == 0
    assert cohomology(sys, 3, 4).dim_cohomology == 0
    assert cohomology(sys, 4, 4).dim_cohomology == 1


def test_cohomology_flagship_h2_g3(corpus_systems):
    sys = corpus_systems["example7"]
    rep = cohomology(sys, 2, 3)
    assert rep.dim_domain == 24
    assert rep.dim_cohomology == 0
    assert rep.dim_coboundaries == 4


def test_cohomology_third_curve_h2_g3(corpus_systems):
    rep = cohomology(corpus_systems["example6_third"], 2, 3)
    assert rep.dim_cocycles >= 13
    assert rep.dim_coboundaries == 12
    assert rep.dim_cohomology >= 1


def test_janet_tableau_twisted_cubic():
    sys = completed_systems()["example6_twisted_completed"]
    tab = janet_tableau(sys, 2)
    assert tab.alpha == (3, 0, 0)


def test_janet_tableau_example3_permuted():
    tab = janet_tableau(completed_systems()["example3_permuted"], 2)
    assert tab.alpha == (2, 0, 0)


def test_janet_tableau_third_curve_order4(corpus_systems):
    tab = janet_tableau(corpus_systems["example6_third"], 4)
    assert tab.alpha == (6, 0, 0)


def test_involution_flagship_not_involutive(corpus_systems):
    res = is_involutive_symbol(corpus_systems["example7"], 4)
    assert not res.involutive
    assert res.certificate.multiplicative_sum == 1
    assert res.certificate.dim_next_symbol == 0
    assert (4, 4, 1) in res.certificate.nonzero_cohomology


def test_involution_twisted_cubic():
    res = is_involutive_symbol(completed_systems()["example6_twisted_completed"], 2)
    assert res.involutive
    assert symbol_dim(completed_systems()["example6_twisted_completed"], 3) == 3


def test_involution_example1():
    res = is_involutive_symbol(completed_systems()["example1"], 3)
    assert res.involutive


def test_involution_requires_frame_search():
    # completed but unpermuted coordinates: identity frame is not delta-regular
    sys = make_system(3, [("11", 1)], [("12", 1)], [("22", 1)], [("13", 1), ("2", -1)])
    res = is_involutive_symbol(sys, 2)
    assert res.involutive
    assert res.certificate.frames_tried > 0
    assert res.tableau.alpha == (2, 0, 0)


def test_involution_deterministic_across_runs():
    sys = make_system(3, [("11", 1)], [("12", 1)], [("22", 1)], [("13", 1), ("2", -1)])
    a = is_involutive_symbol(sys, 2, seed=0)
    b = is_involutive_symbol(sys, 2, seed=0)
    assert a.tableau.frame == b.tableau.frame
    c = is_involutive_symbol(sys, 2, seed=1)
    assert c.involutive


def test_euler_characteristic_matches_cohomology(corpus_systems):
    for name in ("example7", "example6_third", "example5_rprime"):
        sys = corpus_systems[name]
        n, q = sys.n, max(sys.order, 1)
        order = q
        lhs = sum(
            (-1) ** s * lambda_dim(n, s) * symbol_dim(sys, order + n - s) for s in range(n + 1)
        )
        rhs = 0
        for s in range(n + 1):
            rep = cohomology(sys, s, order + n - s)
            rhs += (-1) ** s * rep.dim_cohomology
        assert lhs == rhs, name


def test_characters_weakly_decreasing_in_regular_frames():
    # in the winning (delta-regular) frame the characters must come out sorted
    for name, sys in completed_systems().items():
        res = is_involutive_symbol(sys, sys.order)
        if res.involutive:
            alpha = res.tableau.alpha
            assert all(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)), name


def test_cartan_and_cohomology_agree_on_corpus():
    for name, sys in completed_systems().items():
        q = sys.order
        res = is_involutive_symbol(sys, q)
        reports = []
        finite = False
        window = 2 * q + sys.n
        for r in range(window + 1):
            if symbol_dim(sys, q + r) == 0:
                finite = True
                break
            reports.extend(cohomology(sys, s, q + r) for s in range(1, sys.n + 1))
        all_zero = all(rep.dim_cohomology == 0 for rep in reports)
        assert res.involutive == all_zero, name


def test_finite_type_verdict_is_exact(corpus_systems):
    res = is_involutive_symbol(corpus_systems["example7"], 4)
    assert not res.certificate.window_limited


def test_delta_matrix_rejects_top_degree(corpus_systems):
    with pytest.raises(ValueError, match="top exterior degree"):
        delta_matrix(corpus_systems["example7"], 4, 4)


def test_symbol_space_vectors_satisfy_equations(corpus_systems):
    sys = corpus_systems["example7"]
    space = symbol(sys, 3)
    from formalpde.pdesystem import symbol_matrix

    matrix, _ = symbol_matrix(sys, 3)
    basis = kernel_basis(matrix)
    assert basis.cols == space.dim
    assert (matrix @ basis).is_zero()


def test_involution_memo_is_keyed_on_seed():
    # example3 as given: the frame search needs six random frames at seed 0
    # and one at seed 1, so a memo that ignored the seed would mix them up
    text = CORPUS_TEXTS["example3"]
    shared = parse(text).system
    results = {seed: is_involutive_symbol(shared, seed=seed) for seed in (0, 1)}
    assert results[0].certificate.frames_tried != results[1].certificate.frames_tried
    for seed, res in results.items():
        assert is_involutive_symbol(shared, seed=seed) is res
        assert res == is_involutive_symbol(parse(text).system, seed=seed)


def reference_delta(sys, s, order):
    """Dense delta matrix straight from (delta w)^k_mu = sum_i dx^i wedge w^k_{mu+1_i}."""
    from itertools import combinations

    from formalpde.jetspace import JetCoordinate

    n = sys.n
    g_hi, g_lo = symbol(sys, order), symbol(sys, order - 1) if order >= 1 else None
    basis = kernel_basis(symbol_matrix(sys, order)[0])
    lo_free = g_lo.free_columns if g_lo else ()
    hi_row = {jc: idx for idx, jc in enumerate(g_hi.monomials)}
    dom, cod = list(combinations(range(1, n + 1), s)), list(combinations(range(1, n + 1), s + 1))
    entries = [[Fraction(0)] * (len(dom) * g_hi.dim) for _ in range(len(cod) * len(lo_free))]
    for di, I in enumerate(dom):
        for b in range(g_hi.dim):
            for i in set(range(1, n + 1)) - set(I):
                J = tuple(sorted(I + (i,)))
                sign = (-1) ** J.index(i)
                for t, jc in enumerate(lo_free):
                    up = tuple(e + (p == i - 1) for p, e in enumerate(jc.mu))
                    src = hi_row.get(JetCoordinate(jc.k, up))
                    if src is not None:
                        row, col = cod.index(J) * len(lo_free) + t, di * g_hi.dim + b
                        entries[row][col] += sign * basis.entries[src][b]
    return entries


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS))
def test_memoised_delta_rank_matches_dense_matrix(name):
    # the memoised rank eliminates the sparse columns of delta; the dense
    # matrix is checked entry by entry against the definition and ranked by rows
    sys = parse(CORPUS_TEXTS[name]).system
    q = max(sys.order, 1)
    for order in range(q, q + stabilization_window(sys) + 1):
        if not symbol_dim(sys, order):
            continue
        for s in range(sys.n):
            dense = delta_matrix(sys, s, order)
            assert [list(r) for r in dense.entries] == reference_delta(sys, s, order), (s, order)
            assert cohomology(sys, s, order).rank_out == rank(dense), (s, order)
            assert sys._cache[("_delta_rank", s, order)] == rank(dense)


def _check_delta_ranks(sys):
    # the memoised rank (integer basis, and no matrix at s = 0) against the
    # rank of the exact Fraction matrix, at every spot of the window where g != 0
    for order in range(sys.order + stabilization_window(sys) + 1):
        if not symbol_dim(sys, order):
            continue
        for s in range(sys.n):
            expected = rank(delta_matrix(sys, s, order))
            assert _delta_rank(sys, s, order) == expected, (s, order)
            if s == 0:
                assert expected == (symbol_dim(sys, order) if order else 0), order


@settings(max_examples=40, deadline=None)
@given(constant_coefficient_systems())
def test_delta_rank_matches_the_exact_matrix_on_random_systems(sys):
    _check_delta_ranks(sys)


DELTA_TEXTS = {
    **BENCH_TEXTS,
    **{f"{'conformal_' * c}killing_{n}": killing_text(n, c) for n in (2, 3, 4) for c in (False, True)},
    # a basis vector of g_2 with entries -1/2 and -1/3: its integer form needs the lcm 6
    "mixed_denominators": "vars=3; eq: 2*y[3,3]-y[1,1]=0; eq: 3*y[2,3]-y[1,1]=0",
}


@pytest.mark.parametrize("name", list(DELTA_TEXTS))
def test_delta_rank_matches_the_exact_matrix(name):
    _check_delta_ranks(parse(DELTA_TEXTS[name]).system)


def test_two_unknown_involution_ranks_delta_without_a_matrix(monkeypatch):
    # the frame search fails and the delta-cohomology scan decides, on integer
    # rows; the s = 0 ranks are the symbol dimensions, with no elimination
    from formalpde import ratlinalg, spencer

    sys = parse(BENCH_TEXTS["two-unknown"]).system
    calls = []
    _count_calls(monkeypatch, spencer, "delta_matrix", calls)
    assert is_involutive_symbol(sys).certificate.method == "cohomology"
    assert calls == []
    fresh = parse(BENCH_TEXTS["two-unknown"]).system
    orders = range(fresh.order + stabilization_window(fresh) + 1)
    dims = [symbol_dim(fresh, o) for o in orders]
    _count_calls(monkeypatch, spencer, "pivot_columns", calls)
    _count_calls(monkeypatch, ratlinalg, "pivot_columns", calls)
    assert [_delta_rank(fresh, 0, o) for o in orders] == [d if o else 0 for o, d in zip(orders, dims)]
    assert calls == []


def _count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((name, args))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_cohomology_again_runs_no_elimination(monkeypatch):
    from formalpde import pdesystem, ratlinalg, spencer

    sys = parse(CORPUS_TEXTS["example6_third"]).system
    spots = [(s, o) for o in range(3, 8) for s in range(sys.n + 1)]
    first = [cohomology(sys, s, o) for s, o in spots]
    calls = []
    for module, name in (
        (spencer, "_delta_rows"),
        (ratlinalg, "pivot_columns"),
        (spencer, "pivot_columns"),
        (spencer, "rank"),
        (pdesystem, "rref"),
    ):
        _count_calls(monkeypatch, module, name, calls)
    assert [cohomology(sys, s, o) for s, o in spots] == first
    assert calls == []


@pytest.mark.parametrize("name", ["example7", "example6_third", "abstract_n3"])
def test_report_after_involution_test_builds_no_delta_map(name, monkeypatch):
    # the report's acyclicity table reads only ranks the completion and the
    # cohomology scan of the involution test have already memoised
    from formalpde import spencer
    from formalpde.cli import build_report
    from formalpde.completion import complete

    text = CORPUS_TEXTS[name]
    sys = parse(text).system
    calls = []
    _count_calls(monkeypatch, spencer, "_delta_rows", calls)
    completion = complete(sys)  # held, so the completed system and its memo persist
    final = completion.final_system
    assert is_involutive_symbol(final).certificate.method == "cohomology"
    assert calls, "the counter sees the delta maps of the first analysis"
    calls.clear()
    build_report(text, sys)
    assert not [args for _, args in calls if args[0] is final]


TEXTS = {**CORPUS_TEXTS, **BENCH_TEXTS}


def _power_expanded(sys, frame):
    """d_i -> sum_j A[i][j] d_j, each term expanded as prod_i (sum_j A[i][j] x_j)^{mu_i}."""
    equations = []
    for e in sys.equations:
        terms = {}
        for jc, c in e.terms.items():
            poly = {(0,) * sys.n: c}
            for i, power in enumerate(jc.mu):
                for _ in range(power):
                    step = {}
                    for nu, w in poly.items():
                        for j, a in enumerate(frame.matrix[i]):
                            key = tuple(x + (t == j) for t, x in enumerate(nu))
                            step[key] = step.get(key, 0) + w * a
                    poly = step
            for nu, w in poly.items():
                terms[(jc.k, nu)] = terms.get((jc.k, nu), 0) + w
        equations.append(Equation(terms))
    return sys.replace(equations)


def _pivot_classes(moved, order):
    """beta of the symbol RREF of the system in its new coordinates."""
    reduced, columns = _symbol_rref(moved, order)
    beta = [0] * moved.n
    for p in reduced:  # the pivots of the reduced integer rows
        beta[js.class_of(columns[p].mu) - 1] += 1
    return tuple(beta)


def _test_frames(n, seeds=(0, 1)):
    """The search frames of the seeds, the reversal permutation, a non-integral
    frame and the curve frame A(2)."""
    half = [[Fraction(i == j) + Fraction(j == i + 1, 2) for j in range(n)] for i in range(n)]
    half[-1][0] += Fraction(2, 3)
    reverse = CoordinateChange.permutation(list(range(n, 0, -1)))
    drawn = [CoordinateChange(a) for seed in seeds for a in _frames(n, seed)]
    return drawn + [reverse, CoordinateChange(half), curve_frame(n)]


def _check_frame_tableaux(sys, frames):
    for frame in frames:
        moved = change_coordinates(sys.replace(sys.equations), frame)
        assert moved == _power_expanded(sys, frame)
        for order in range(1, sys.order + 4):
            assert janet_tableau(sys, order, frame).beta == _pivot_classes(moved, order), (order, frame)


@pytest.mark.parametrize("name", list(TEXTS))
def test_frame_tableau_matches_changed_coordinates(name):
    sys = parse(TEXTS[name]).system
    _check_frame_tableaux(sys, _test_frames(sys.n))


@settings(max_examples=60, deadline=None)
@given(constant_coefficient_systems())
def test_frame_tableau_matches_changed_coordinates_on_random_systems(sys):
    _check_frame_tableaux(sys, _test_frames(sys.n, seeds=(0,))[-6:])


@pytest.mark.parametrize(
    "order, eliminated, called", [pytest.param(2, 4, 3, id="2-4"), pytest.param(4, 1, 3, id="4-1")]
)
def test_frame_tableau_eliminates_the_smaller_side(order, eliminated, called, monkeypatch):
    # flagship: r = 4 equations and d = 6 at order 2, r = 34 and d = 1 at
    # order 4.  rank_k, the rank of the r rows on L_k, is capped at
    # min(r, C_k), C_k = #columns of class >= k, and is at least
    # max(rank_{k+1}, C_k - d), so the flag eliminations leave at most
    # min(r, d) pivots per rank undecided.  The walk runs from L_n down and
    # eliminates exactly the levels whose bounds differ: at order 4 (d = 1)
    # each of L_4, L_3 and L_2 leaves one pivot open, and rank_1 = r is decided
    from math import comb

    from formalpde import spencer

    calls = []
    forward = spencer.pivot_columns

    def spy(rows, cap=None):
        pulled = []

        def read():
            for row in rows:
                pulled.append(row)
                yield row

        pivots = forward(read(), cap)
        calls.append((cap, pivots, pulled))
        return pivots

    sys = parse(BENCH_TEXTS["flagship"]).system
    g = symbol(sys, order)
    r, d = g.ambient - g.dim, g.dim
    assert min(r, d) == eliminated
    monkeypatch.setattr(spencer, "pivot_columns", spy)
    frame = CoordinateChange(_frames(sys.n, 0)[0])
    beta = janet_tableau(sys, order, frame).beta
    assert beta == _pivot_classes(change_coordinates(sys, frame), order)
    # rank_k and C_k from L_n down to L_1, and the levels the bounds leave open
    sizes = [sys.m * comb(order + sys.n - k, order) for k in range(sys.n, 0, -1)]
    ranks = [sum(beta[k - 1 :]) for k in range(sys.n, 0, -1)]
    low = [max(above, size - d) for above, size in zip([0, *ranks], sizes)]
    high = [min(r, size) for size in sizes]
    open_levels = [i for i in range(sys.n) if low[i] < high[i]]
    assert len(open_levels) == called
    assert [cap for cap, _, _ in calls] == [high[i] for i in open_levels]
    assert [len(pivots) for _, pivots, _ in calls] == [ranks[i] for i in open_levels]
    # each skipped rank is its bound
    assert all(ranks[i] == low[i] == high[i] for i in range(sys.n) if i not in open_levels)
    for i, (cap, pivots, pulled) in zip(open_levels, calls):
        assert len(set().union(*pulled)) <= sizes[i]
        assert cap - len(pivots) <= eliminated and sizes[i] - d <= len(pivots)
        if len(pivots) == cap:
            assert len(forward(pulled[:-1])) < cap  # no row is read past the cap


def _check_flag_ranks(sys, frames, orders):
    """The lazy walk against :func:`_flag_rank` on every level of each frame,
    L_n first, with no level left to the bounds; and the walk eliminates on
    exactly the levels where max(rank_{k+1}, C_k - d) < min(r, C_k)."""
    from unittest import mock

    from formalpde import spencer

    for order in orders:
        reduced, columns = _symbol_rref(sys, order)
        g = symbol(sys, order)
        for frame in frames:
            levels = [tuple(basis) for basis in flag_levels(frame.matrix)]
            expected = [_flag_rank(reduced.values(), columns, sys.m, order, basis) for basis in levels]
            with mock.patch.object(spencer, "_flag_rank", wraps=_flag_rank) as spy:
                assert list(_flag_ranks(sys, order, frame.matrix)) == expected, (order, frame)
            sizes = [sys.m * js.monomial_count(len(basis), order) for basis in levels]
            bounds = zip([0, *expected], sizes)
            assert spy.call_count == sum(max(above, c - g.dim) < min(g.ambient - g.dim, c) for above, c in bounds)


def _reference_passes_cartan(sys, order):
    """The seal's rule before the shared search, kept as the reference: the
    identity or the full A(2) tableau (over QQ only) attains dim g_{order+1},
    the A(2) tableau read off a fresh elimination in A(2)'s coordinates."""
    dim_next = symbol_dim(sys, order + 1)
    if janet_tableau(sys, order).multiplicative_sum == dim_next:
        return True
    if sys.params:
        return False
    beta = _pivot_classes(change_coordinates(sys, curve_frame(sys.n)), order)
    counts = [sys.m * js.class_count(sys.n, order, i) for i in range(1, sys.n + 1)]
    return sum(i * (c - b) for i, (c, b) in enumerate(zip(counts, beta), start=1)) == dim_next


def _check_seal_rule(sys, orders):
    fresh = sys.replace(sys.equations)  # no memo shared with the reference
    for order in orders:
        assert _passes_cartan(fresh, order) == _reference_passes_cartan(sys, order), order


@pytest.mark.parametrize("name", list(symbol_oracle_systems()))
def test_flag_ranks_and_seal_match_unskipped_ranks_and_the_full_a2_tableau(name):
    sys = symbol_oracle_systems()[name]
    orders = range(1, sys.order + 4)
    if not sys.params:
        _check_flag_ranks(sys, _test_frames(sys.n), orders)
    _check_seal_rule(sys, orders)


@settings(max_examples=60, deadline=None)
@given(constant_coefficient_systems())
def test_flag_ranks_and_seal_match_unskipped_ranks_and_the_full_a2_tableau_on_random_systems(sys):
    orders = range(1, sys.order + 4)
    _check_flag_ranks(sys, _test_frames(sys.n, seeds=(0,))[-6:], orders)
    _check_seal_rule(sys, orders)


def test_frame_tableau_at_order_zero_takes_the_identity_counts():
    # an order-0 jet has no class: with g_0 = 0 every frame has the identity's
    # all-zero tableau, and the walk's constant columns are not counted
    sys = symbol_oracle_systems()["order0"]
    assert symbol_dim(sys, 0) == 0
    for frame in _test_frames(sys.n, seeds=(0,))[-4:]:
        tableau = janet_tableau(sys, 0, frame)
        assert (tableau.beta, tableau.alpha, tableau.frame) == ((0, 0), (0, 0), frame)


def test_frame_tableau_rejects_parametric_systems_and_wrong_sizes():
    from formalpde.completion import complete
    from formalpde.purity import localize

    localized = localize(complete(parse(CORPUS_TEXTS["example4"]).system).final_system, 2).system
    assert localized.params
    with pytest.raises(ValueError):
        janet_tableau(localized, 2, CoordinateChange.permutation([2, 1]))
    flagship = parse(BENCH_TEXTS["flagship"]).system
    with pytest.raises(ValueError):
        janet_tableau(flagship, 2, CoordinateChange.permutation([2, 3, 1]))


def _fresh_symbol_dim(sys, order):
    matrix, columns = symbol_matrix(sys, order)
    return len(columns) - rank(matrix)


def _check_symbol_dims(sys):
    for order in range(2 * sys.order + sys.n + 4):
        assert symbol_dim(sys, order) == _fresh_symbol_dim(sys, order), order


@pytest.mark.parametrize("name", [*TEXTS, "order_zero", "localized"])
def test_symbol_dim_matches_fresh_elimination(name):
    from formalpde.completion import complete
    from formalpde.purity import localize

    if name == "localized":
        sys = localize(complete(parse(CORPUS_TEXTS["example4"]).system).final_system, 2).system
        assert sys.params
    else:
        sys = parse(TEXTS.get(name, "vars=1; eq: y[]=0")).system
    _check_symbol_dims(sys)


@settings(max_examples=60, deadline=None)
@given(constant_coefficient_systems())
def test_symbol_dim_matches_fresh_elimination_on_random_systems(sys):
    _check_symbol_dims(sys)


def test_symbol_eliminates_no_lower_symbol(corpus_systems):
    # the vanishing rule reads g_{order-1} from the memo only: g_6 of the
    # flagship is 0, found by its own elimination, and g_0 to g_5 stay unasked
    sys = corpus_systems["example7"]
    assert symbol_dim(sys, 6) == 0
    assert [key for key in sys._cache if key[0] == "symbol"] == [("symbol", 6)]


def _check_symbol_engine(sys, orders):
    """Each symbol read off the one elimination against a fresh RREF of its
    matrix: the free columns are the RREF's non-pivots; each reduced row
    divided by its pivot entry is the RREF row (over QQ(chi) every pivot entry
    is the same d); over QQ the rows are integer rows, and the delta basis is
    the kernel basis with each vector times the lcm of its denominators."""
    for order in orders:
        expected = rref(symbol_matrix(sys, order)[0])
        columns = symbol(sys, order).monomials
        free = tuple(jc for j, jc in enumerate(columns) if j not in expected.pivots)
        assert symbol(sys, order).free_columns == free, order
        reduced, _ = _symbol_rref(sys, order)
        assert tuple(reduced) == expected.pivots, order
        for (p, row), rref_row in zip(reduced.items(), expected.matrix.sparse):
            if sys.params:
                d = Poly(sys.params, row[p])
                assert {c: ParamScalar(Poly(sys.params, t), d) for c, t in row.items()} == rref_row, order
            else:
                assert all(type(v) is int for v in row.values())
                assert {c: Fraction(v, row[p]) for c, v in row.items()} == rref_row, order
        if sys.params:
            assert len({frozenset(row[p].items()) for p, row in reduced.items()}) <= 1, order
            continue
        kernel = expected.kernel()
        scale = [1] * kernel.cols
        for row in kernel.sparse:
            for b, v in row.items():
                scale[b] = math.lcm(scale[b], v.denominator)
        scaled = [{b: v.numerator * (scale[b] // v.denominator) for b, v in row.items()} for row in kernel.sparse]
        assert _delta_basis(sys, order)[0] == scaled, order


@pytest.mark.parametrize("name", list(symbol_oracle_systems()))
def test_symbol_engine_matches_a_fresh_rref(name):
    sys = symbol_oracle_systems()[name]
    _check_symbol_engine(sys, range(sys.order + 4))


@settings(max_examples=60, deadline=None)
@given(constant_coefficient_systems())
def test_symbol_engine_matches_a_fresh_rref_on_random_systems(sys):
    _check_symbol_engine(sys, range(5))


def _exhaustive_involution_test(sys, order, seed):
    """The frame search before pruning, kept as the reference: a full Janet
    tableau in the identity and in every random frame, the best so far being
    the first with beta[::-1] lexicographically largest."""
    window = stabilization_window(sys)
    if order < 1 or not sys.equations:
        tableau = JanetTableau(order, (0,) * sys.n, (0,) * sys.n, CoordinateChange.identity(sys.n))
        cert = InvolutionCertificate("trivial", 0, symbol_dim(sys, order + 1), 0, window, ())
        return InvolutionResult(not sys.equations, tableau, cert)
    dim_next = symbol_dim(sys, order + 1)
    best = None
    for tried in range(N_FRAMES + 1):
        frame = CoordinateChange(_frames(sys.n, seed)[tried - 1]) if tried else CoordinateChange.identity(sys.n)
        cand = janet_tableau(sys, order, frame)
        if best is None or cand.beta[::-1] > best.beta[::-1]:
            best = cand
        if best.multiplicative_sum == dim_next:
            cert = InvolutionCertificate("cartan", tried, dim_next, best.multiplicative_sum, window, ())
            return InvolutionResult(True, best, cert)
    reports, exact = acyclicity_scan(sys, sys.n, order, window)
    nonzero = tuple((r.s, r.order, r.dim_cohomology) for r in reports if r.dim_cohomology)
    limited = not nonzero and not exact
    cert = InvolutionCertificate("cohomology", tried, dim_next, best.multiplicative_sum, window, nonzero, limited)
    return InvolutionResult(not nonzero, best, cert)


def _visited_results(sys, seed, test):
    """`test(sys, order, seed)` at every order that involutive_order visits on
    `sys`, in turn, then the message of the ValueError it ends with, if any."""
    from unittest import mock

    from formalpde import completion

    results = []

    def spy(visited, order, seed):
        results.append(test(visited, order, seed))
        return results[-1]

    with mock.patch.object(completion, "is_involutive_symbol", spy):
        try:
            completion.involutive_order(sys, seed)
        except ValueError as exc:
            results.append(str(exc))
    return results


def _check_pruned_search(sys, seeds):
    """The pruned search against the exhaustive one, each on a fresh copy of `sys`."""
    results = []
    for seed in seeds:
        pruned = _visited_results(sys.replace(sys.equations), seed, is_involutive_symbol)
        assert pruned == _visited_results(sys.replace(sys.equations), seed, _exhaustive_involution_test), seed
        results += [r for r in pruned if isinstance(r, InvolutionResult)]
    return results


def test_pruned_frame_search_matches_the_exhaustive_search():
    # beta, alpha, the frame matrix, frames_tried, the method and the nonzero
    # cohomology of every result, at every order involutive_order visits
    results = []
    for name, sys in symbol_oracle_systems().items():
        results += _check_pruned_search(sys, range(8))
    identity = {CoordinateChange.identity(n) for n in range(1, 5)}
    assert any(r.certificate.method == "cartan" and r.tableau.frame not in identity for r in results)
    assert any(r.certificate.method == "cohomology" and r.tableau.frame not in identity for r in results)
    assert any(r.certificate.frames_tried == N_FRAMES for r in results)


@settings(max_examples=40, deadline=None)
@given(constant_coefficient_systems(), st.integers(0, 7))
def test_pruned_frame_search_matches_the_exhaustive_search_on_random_systems(sys, seed):
    _check_pruned_search(sys, [seed])


def test_random_frames_are_drawn_only_when_the_identity_fails(monkeypatch):
    # example4 as given passes Cartan's test at the identity and draws no
    # frame; two-unknown fails it in every frame and reads all N_FRAMES
    from formalpde import spencer

    drawn, frames = [], spencer._frames
    monkeypatch.setattr(spencer, "_frames", lambda n, seed: drawn.append((n, seed)) or frames(n, seed))
    res = is_involutive_symbol(parse(CORPUS_TEXTS["example4"]).system)
    assert (res.certificate.method, res.certificate.frames_tried, drawn) == ("cartan", 0, [])
    res = is_involutive_symbol(parse(BENCH_TEXTS["two-unknown"]).system)
    assert (res.certificate.frames_tried, drawn) == (N_FRAMES, [(4, 0)])


def test_frame_search_builds_and_ranks_only_frames_that_can_win(monkeypatch, tmp_path, capsys):
    # involution on two-unknown at seed 0 tries all 25 random frames: a frame
    # becomes a CoordinateChange only when it beats the best tableau so far,
    # and its ranks are read from L_n down only until the comparison is
    # decided, never on L_2 once it lost or tied for good at a higher level,
    # and never on a level whose bounds decide its rank; a winner then
    # finishes its walk
    from formalpde import pdesystem, spencer
    from formalpde.cli import main

    text = BENCH_TEXTS["two-unknown"]
    sys = parse(text).system
    n, order, draws = sys.n, sys.order, _frames(sys.n, 0)
    g = symbol(sys, order)
    r, d = g.ambient - g.dim, g.dim
    sizes = {k: sys.m * js.monomial_count(n - k + 1, order) for k in range(1, n + 1)}
    best, winners, ties, expected = janet_tableau(sys, order), [], [], {}
    for draw in draws:
        cand = janet_tableau(sys, order, CoordinateChange(draw))
        if cand.beta[-1] == best.beta[-1] and cand.beta[::-1] <= best.beta[::-1]:
            ties.append(draw)  # discarded, and equal to the best on L_n
        levels = []
        for k in range(n, 1, -1):
            target, rank_k = sum(best.beta[k - 1 :]), sum(cand.beta[k - 1 :])
            if target == r:
                break
            levels.append(k)
            if rank_k != target:
                break
        won = cand.beta[::-1] > best.beta[::-1]
        if won:
            levels += range(levels[-1] - 1, 0, -1)
            best = cand
            winners.append(draw)
        assert won or 2 not in levels
        ranks = {k: sum(cand.beta[k - 1 :]) for k in range(1, n + 2)}
        expected[draw] = [k for k in levels if max(ranks[k + 1], sizes[k] - d) < min(r, sizes[k])]
    assert 0 < len(winners) < len(draws) and is_involutive_symbol(sys).certificate.frames_tried == len(draws)
    assert ties and any(expected[d] for d in draws)

    built, levels, current = [], {}, [None]
    post_init, flag_ranks, flag_rank = CoordinateChange.__post_init__, spencer._flag_ranks, spencer._flag_rank

    def spy_post_init(self):
        post_init(self)
        built.append(self.matrix)

    def spy_flag_ranks(sys, order, a):
        levels[a] = []
        walk = flag_ranks(sys, order, a)
        while True:
            current[0] = a
            rank_k = next(walk, None)
            current[0] = None
            if rank_k is None:
                return
            yield rank_k

    def spy_flag_rank(rows, columns, m, degree, basis):
        if current[0] is not None:
            levels[current[0]].append(n + 1 - len(basis))
        return flag_rank(rows, columns, m, degree, basis)

    monkeypatch.setattr(pdesystem.CoordinateChange, "__post_init__", spy_post_init)
    monkeypatch.setattr(spencer, "_flag_ranks", spy_flag_ranks)
    monkeypatch.setattr(spencer, "_flag_rank", spy_flag_rank)
    path = tmp_path / "two-unknown.pde"
    path.write_text(text, encoding="utf-8")
    assert main(["--seed", "0", "--report", "json", "involution", str(path)]) == 0
    assert '"frames_tried": 25' in capsys.readouterr().out
    assert [a for a in built if a in draws] == winners
    assert {a: ks for a, ks in levels.items() if a in draws} == expected


@settings(max_examples=25, deadline=None)
@given(constant_coefficient_systems(), st.integers(0, 7))
def test_flag_rank_matches_sympy_on_random_systems(sys, seed):
    # rank of the symbol rows with x = sum_s t_s b_s substituted, over each
    # level of the flag of a random frame and of A(2), as a sympy matrix of
    # the coefficients of t^e in each unknown
    sympy = pytest.importorskip("sympy")
    draw = _unimodular_draw(sys.n, random.Random(seed))
    for order in range(1, 4):
        reduced, columns = _symbol_rref(sys, order)
        for matrix in (draw, curve_frame(sys.n).matrix):
            for basis in flag_levels(matrix):
                t = sympy.symbols(f"t0:{len(basis)}")
                x = [sum(b.get(i, 0) * ts for b, ts in zip(basis, t)) for i in range(sys.n)]
                entries = []
                for row in reduced.values():
                    parts = [0] * sys.m
                    for c, v in row.items():
                        jc = columns[c]
                        parts[jc.k - 1] += v * sympy.Mul(*(x[i] ** e for i, e in enumerate(jc.mu)))
                    polys = [sympy.Poly(sympy.expand(p), *t) for p in parts]
                    entries.append({(k, e): w for k, p in enumerate(polys) for e, w in p.terms() if w})
                keys = sorted(set().union(*entries))
                expected = sympy.Matrix([[e.get(key, 0) for key in keys] for e in entries]).rank() if keys else 0
                got = _flag_rank(reduced.values(), columns, sys.m, order, tuple(basis))
                assert got == expected, (order, matrix, basis)
