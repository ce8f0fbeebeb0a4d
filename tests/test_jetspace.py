from __future__ import annotations

import gc
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formalpde import jetspace as js


def enumeration_oracle(n, q):
    """All exponent tuples of total degree q, by brute-force product scan."""
    out = []
    for tup in itertools.product(range(q + 1), repeat=n):
        if sum(tup) == q:
            out.append(tup)
    return out


def test_class_of_examples():
    assert js.class_of((0, 0, 2)) == 3
    assert js.class_of((0, 1, 1)) == 2
    assert js.class_of((1, 0, 0, 3)) == 1


def test_class_of_order_zero_rejected():
    with pytest.raises(ValueError, match="class undefined"):
        js.class_of((0, 0, 0))


def test_monomial_count():
    assert js.monomial_count(3, 2) == 6
    assert js.monomial_count(4, 3) == 20
    assert js.monomial_count(4, 4) == 35


def test_class_count_small():
    assert js.class_count(3, 2, 3) == 1
    assert js.class_count(3, 2, 1) == 3


def test_class_count_partition_n4_q5():
    oracle = enumeration_oracle(4, 5)
    assert len(oracle) == 56
    by_class = [0] * 4
    for mu in oracle:
        by_class[js.class_of(mu) - 1] += 1
    for i in range(1, 5):
        assert js.class_count(4, 5, i) == by_class[i - 1]
    assert sum(by_class) == js.monomial_count(4, 5)


def test_enumerate_basics():
    assert js.multi_indices(2, 1) == [(0, 1), (1, 0)]
    assert js.multi_indices(3, 0) == [(0, 0, 0)]
    got = js.multi_indices(4, 2)
    assert len(got) == 10
    assert got[0] == (0, 0, 0, 2)
    assert sorted(got) == sorted(enumeration_oracle(4, 2))


def test_class_partition_full_range():
    for n in range(1, 7):
        for q in range(1, 11):
            assert sum(js.class_count(n, q, i) for i in range(1, n + 1)) == js.monomial_count(n, q)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6), st.integers(1, 10))
def test_pascal_recurrence(n, q):
    if n > 1:
        assert js.monomial_count(n, q) == js.monomial_count(n - 1, q) + js.monomial_count(n, q - 1)


def test_enumerate_no_duplicates():
    for n in range(1, 5):
        for q in range(0, 6):
            got = js.multi_indices(n, q)
            assert len(got) == len(set(got)) == js.monomial_count(n, q)


def test_enumeration_is_class_descending():
    for n in (2, 3, 4):
        for q in (1, 2, 3):
            classes = [js.class_of(mu) for mu in js.multi_indices(n, q)]
            assert classes == sorted(classes, reverse=True)


def test_display_order_mirrors_solving_order_within_blocks():
    jets = js.jets_upto(3, 1, 2)
    display = sorted(jets, key=js.display_key)
    assert [js.digits(jc.mu) for jc in display] == [
        (),
        (1,),
        (2,),
        (3,),
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 2),
        (2, 3),
        (3, 3),
    ]


def test_digits_round_trip():
    for n in (2, 3, 4):
        for q in range(0, 4):
            for mu in js.multi_indices(n, q):
                assert js.mu_from_digits(js.digits(mu), n) == mu


def test_jet_name():
    assert js.jet_name(js.JetCoordinate(1, (0, 1, 0)), 1) == "y_2"
    assert js.jet_name(js.JetCoordinate(1, (2, 0, 0)), 1) == "y_{11}"
    assert js.jet_name(js.JetCoordinate(1, (0, 0, 0)), 1) == "y"
    assert js.jet_name(js.JetCoordinate(2, (0, 0, 1)), 4) == "z2_3"


def test_multi_indices_leaves_no_cyclic_garbage():
    # every object it makes is freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        for n in range(6):
            for q in range(6):
                js.multi_indices(n, q)
        assert gc.collect() == 0
    finally:
        gc.enable()
