"""Hilbert series of principal-class ideals and counted Hilbert functions.

The closed form for an ideal of rank r generated by r polynomials of degrees
l_1..l_r is the truncation of (1-x^{l_1})...(1-x^{l_r})*(1-x)^{-n}.  The
counted Hilbert function of a completed system (parametric jets per strict
order) is treated as ground truth; the series is the claim under test.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .completion import _certificate
from .jetspace import monomial_count
from .pdesystem import LinearSystem, SlottedRecord, slice_at
from .spencer import stabilization_window, symbol_dim


class PowerSeries(SlottedRecord):
    """Integer coefficients of a series truncated at degree `truncation`."""

    __slots__ = _fields = ("coefficients", "truncation")

    def __init__(self, coefficients: tuple, truncation: int):
        if len(coefficients) != truncation + 1:
            raise ValueError("coefficient list does not match truncation")
        self.coefficients, self.truncation = coefficients, truncation

    def __getitem__(self, t: int) -> int:
        return self.coefficients[t]

    def total(self) -> int:
        return sum(self.coefficients)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


class SeriesComparison(NamedTuple):
    per_degree: tuple  # booleans, degree by degree
    first_mismatch: int | None

    @property
    def agrees(self) -> bool:
        return self.first_mismatch is None


def principal_class_series(degrees, n: int, truncation: int) -> PowerSeries:
    """Truncated product prod(1 - x^l_i) * (1-x)^{-n} by integer convolution."""
    degrees = list(degrees)
    if len(degrees) > n:
        raise ValueError("rank exceeds variable count")
    if any(l < 1 for l in degrees):
        raise ValueError("generator degrees must be >= 1")
    coeffs = [monomial_count(n, t) for t in range(truncation + 1)]
    for l in degrees:
        coeffs = [c - (coeffs[t - l] if t >= l else 0) for t, c in enumerate(coeffs)]
    return PowerSeries(tuple(coeffs), truncation)


def hilbert_function(sys: LinearSystem, truncation: int) -> PowerSeries:
    """Counted parametric jets per strict order: dim R_t - dim R_{t-1}.

    When the integrability criterion certifies `sys` itself, with no window
    cut-off, as formally integrable of order q, each projection
    R_t -> R_{t-1}, t > q, is onto with kernel g_t (Seiler 2010, *Involution*,
    ch. 2): the count is then dim g_t, from the memoised symbol ranks, not a
    prolonged elimination, and it stops at the first vanished symbol, as
    g_t = 0 forces g_{t+1} = 0: the higher counts are 0 with no symbol built.
    The certificate is :func:`_certificate` of `sys` in its own window,
    memoised on `sys`; no completion runs here."""
    acyclic_order, _, window_limited = _certificate(sys, stabilization_window(sys))
    top = sys.order if acyclic_order is not None and not window_limited else truncation
    coeffs = []
    prev = 0
    for t in range(min(top, truncation) + 1):
        cur = slice_at(sys, t).dimension
        coeffs.append(cur - prev)
        prev = cur
    coeffs += itertools.takewhile(bool, (symbol_dim(sys, t) for t in range(top + 1, truncation + 1)))
    coeffs += [0] * (truncation + 1 - len(coeffs))
    return PowerSeries(tuple(coeffs), truncation)


def compare(a: PowerSeries, b: PowerSeries) -> SeriesComparison:
    if a.truncation != b.truncation:
        raise ValueError("series truncations differ")
    per_degree = tuple(x == y for x, y in zip(a.coefficients, b.coefficients))
    first = next((t for t, ok in enumerate(per_degree) if not ok), None)
    return SeriesComparison(per_degree, first)
