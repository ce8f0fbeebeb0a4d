"""Multi-index combinatorics for jet coordinates.

A jet coordinate y^k_mu is a pair (unknown index k, multi-index mu).  Its
class is the smallest variable index with a nonzero derivative count; the
class drives the Janet tableau and the character counts.

Two total orders matter:

* the solving (column) order used for every elimination: higher total order
  first, and within one order the multi-indices ascending lexicographically,
  which lists the jets class-descending (y_33 before y_23 before ... y_11) so
  that pivots land on the highest class first;
* the display order used for parametric-jet listings, which is the mirror
  image inside each order block (y, y_1, y_2, y_3, y_11, ...).
"""

from __future__ import annotations

import functools
import math
from operator import add
from typing import NamedTuple

MultiIndex = tuple


class JetCoordinate(NamedTuple):
    k: int
    mu: MultiIndex


def order_of(mu: MultiIndex) -> int:
    return sum(mu)


def class_of(mu: MultiIndex) -> int:
    """Smallest i (1-based) with mu_i nonzero."""
    for i, e in enumerate(mu):
        if e:
            return i + 1
    raise ValueError("class undefined for order-0 jet")


def digits(mu: MultiIndex) -> tuple[int, ...]:
    """Variable indices with multiplicity, ascending: (1,0,2) -> (1,3,3)."""
    out = []
    for i, e in enumerate(mu):
        out.extend([i + 1] * e)
    return tuple(out)


def mu_from_digits(ds, n: int) -> MultiIndex:
    mu = [0] * n
    for d in ds:
        if not 1 <= d <= n:
            raise ValueError(f"variable index {d} out of range 1..{n}")
        mu[d - 1] += 1
    return tuple(mu)


def shift(mu: MultiIndex, nu: MultiIndex) -> MultiIndex:
    return tuple(map(add, mu, nu))


def monomial_count(n: int, q: int) -> int:
    """Number of multi-indices of length exactly q in n variables."""
    if q < 0:
        return 0
    if n == 0:
        return 1 if q == 0 else 0
    return math.comb(q + n - 1, n - 1)


def jet_count_upto(n: int, q: int) -> int:
    if q < 0:
        return 0
    return math.comb(q + n, n)


def class_count(n: int, q: int, i: int) -> int:
    """Number of multi-indices of length q and class i."""
    if not 1 <= i <= n:
        raise ValueError("class out of range")
    if q < 1:
        return 0
    return math.comb(q - 1 + n - i, n - i)


def multi_indices(n: int, q: int) -> list[MultiIndex]:
    """All multi-indices of length exactly q, in solving order (class-descending)."""
    if n == 0:
        return [()] if q == 0 else []
    # (prefix, order left) pairs, one variable more per pass, lexicographic
    level = [((), q)]
    for _ in range(n - 1):
        level = [(prefix + (e,), left - e) for prefix, left in level for e in range(left + 1)]
    return [prefix + (left,) for prefix, left in level]


def multi_indices_upto(n: int, q: int) -> list[MultiIndex]:
    out = []
    for t in range(q + 1):
        out.extend(multi_indices(n, t))
    return out


def column_key(jc: JetCoordinate):
    """Sort key for elimination columns: high order first, then class-descending."""
    return (-order_of(jc.mu), jc.mu, jc.k)


def display_key(jc: JetCoordinate):
    """Sort key for human-facing jet lists: low order first, class-ascending."""
    return (order_of(jc.mu), tuple(-e for e in jc.mu), jc.k)


def jets_exact(n: int, m: int, q: int) -> list[JetCoordinate]:
    """Jet coordinates of exact order q in solving order, a new list of the
    coordinates built once per (n, m, q)."""
    return list(_jets_exact(n, m, q))


@functools.cache
def _jets_exact(n: int, m: int, q: int) -> tuple[JetCoordinate, ...]:
    return tuple(JetCoordinate(k, mu) for mu in multi_indices(n, q) for k in range(1, m + 1))


def jets_upto(n: int, m: int, q: int) -> list[JetCoordinate]:
    """Jet coordinates of order <= q as elimination columns (highest order first)."""
    out: list[JetCoordinate] = []
    for t in range(q, -1, -1):
        out.extend(_jets_exact(n, m, t))
    return out


def digit_body(mu: MultiIndex, var_offset: int = 0) -> str:
    """Shifted variable indices of mu as one subscript: "" for order 0, "3",
    else braced, comma-separated once an index exceeds 9: "{23}", "{3,10}"."""
    ds = [d + var_offset for d in digits(mu)]
    sep = "" if all(d <= 9 for d in ds) else ","
    body = sep.join(str(d) for d in ds)
    return body if len(body) <= 1 else "{" + body + "}"


def jet_name(jc: JetCoordinate, m: int, var_offset: int = 0) -> str:
    """Render y_23 / z2_13 style names."""
    base = "y" if m == 1 else f"z{jc.k}"
    body = digit_body(jc.mu, var_offset)
    return f"{base}_{body}" if body else base
