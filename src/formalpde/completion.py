"""Formal-integrability test and completion loop, codimension, characteristic matrix.

Completion repeats one-step projections until no equation of order <= q is
gained, mirroring the classical R^(1), R^(2), ... progression, then certifies
the result with the integrability criterion: some prolonged symbol g_rho is
2-acyclic while every projection between the base order and rho is surjective.
Each step projects the prolongation R_{q+1}, which holds every derivative of
every equation up to order q + 1, and the loop stops when `is_completed` sees
no gain, so the loop, `is_completed` and `projection_surjective` read the one
memoised elimination behind `slice_at`.  `reduce_order` reads the lower
presentation off the same memo, as a projection of negative step.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import jetspace as js
from .pdesystem import LinearSystem, _full_rref, memoised, projected_system, slice_at
from .ratlinalg import Poly, field_zero
from .spencer import is_involutive_symbol, is_s_acyclic, stabilization_window


class CompletionStep(NamedTuple):
    step: int
    gained: tuple  # Equation objects new at this step
    dims_before: tuple
    dims_after: tuple


class IntegrabilityReport(NamedTuple):
    """'formally_integrable' if the input takes no step, 'completed' after `steps`
    projections, 'window_inconclusive' if no rho in the window of the input
    has g_rho 2-acyclic and every R_{r+1} -> R_r, q <= r <= rho, onto."""

    verdict: str  # 'formally_integrable' | 'completed' | 'window_inconclusive'
    steps: int
    trace: tuple
    final_system: LinearSystem
    acyclic_order: int | None
    projection_flags: tuple  # ((order, surjective), ...)
    window_limited: bool

    @property
    def integrable(self) -> bool:
        return self.verdict in ("formally_integrable", "completed")


def _dims_upto(sys: LinearSystem, q: int) -> tuple:
    return tuple(slice_at(sys, t).dimension for t in range(q + 1))


def _gained_equations(old: LinearSystem, new: LinearSystem) -> tuple:
    """Rows of `new` that are not consequences of `old` at the same order."""
    base, columns = _full_rref(old, max(old.order, new.order))
    pivot_rows = dict(zip(base.pivots, base.matrix.sparse))
    index = {jc: j for j, jc in enumerate(columns)}
    zero, gained = field_zero(old.params), []
    for e in new.equations:
        vec = {index[jc]: c for jc, c in e.terms.items()}
        # a pivot row is zero at every other pivot, so one pass reduces vec
        for p in [c for c in vec if c in pivot_rows]:
            f = vec[p]
            for c, v in pivot_rows[p].items():
                vec[c] = vec.get(c, zero) - f * v
        if any(vec.values()):
            gained.append(e)
    return tuple(gained)


def reduce_order(sys: LinearSystem) -> LinearSystem:
    """Drop to a lower-order presentation when the low-order rows generate everything.

    With h the highest equation order below q, the candidate is R_h, the
    prolongations of the equations of order <= h: `projected_system(sys, h - q)`,
    memoised on `sys`.  It is taken when its dim R_q equals that of `sys`.
    """
    current = sys
    while current.order > 1:
        q = current.order
        h = max((e.order for e in current.equations if e.order < q), default=None)
        if h is None:
            break
        lower = projected_system(current, h - q)
        if slice_at(lower, q).dimension != slice_at(current, q).dimension:
            break
        current = lower
    return current


def projection_surjective(sys: LinearSystem, order: int) -> bool:
    """True iff projecting R_{order+1} down one order loses no solutions; the
    columns run highest order first, so the low pivots span the projection."""
    result, columns = _full_rref(sys, max(order + 1, sys.order))
    low_rank = sum(1 for p in result.pivots if js.order_of(columns[p].mu) <= order)
    dim_proj = js.jet_count_upto(sys.n, order) * sys.m - low_rank
    return dim_proj == slice_at(sys, order).dimension


def complete(sys: LinearSystem) -> IntegrabilityReport:
    """Project one step at a time until :func:`is_completed` sees nothing new, then certify.

    A step that gains shrinks some R_t, t <= q, and grows none, so there are
    at most sum_{t<=q} dim R_t of the input steps and the loop needs no cap.
    Every projection and test is memoised on the system it starts from, and
    so is the :func:`_certificate` of the final system, which is read in the
    window of the input: `reduce_order` may lower the order.
    """
    current = sys
    trace = []
    while not is_completed(current):
        q, nxt = current.order, projected_system(current, 1)
        gained = _gained_equations(current, nxt)
        trace.append(CompletionStep(len(trace) + 1, gained, _dims_upto(current, q), _dims_upto(nxt, q)))
        current = nxt
    current = reduce_order(current)
    acyclic_order, flags, window_limited = _certificate(current, stabilization_window(sys))
    if acyclic_order is None:
        verdict = "window_inconclusive"
    else:
        verdict = "completed" if trace else "formally_integrable"
    return IntegrabilityReport(verdict, len(trace), tuple(trace), current, acyclic_order, flags, window_limited)


@memoised
def _certificate(sys: LinearSystem, window: int) -> tuple:
    """(acyclic_order, projection_flags, window_limited) of the integrability
    criterion: walk rho upward from q to the first 2-acyclic g_rho, stopping
    at a projection R_{rho+1} -> R_rho that is not onto or at the window's end
    (acyclic_order None)."""
    if not sys.equations:
        return 0, ((0, True),), False
    flags = []
    for rho in range(sys.order, sys.order + window + 1):
        flags.append((rho, projection_surjective(sys, rho)))
        if not flags[-1][1]:
            break
        ok, limited = is_s_acyclic(sys, 2, rho, window)
        if ok:
            return rho, tuple(flags), limited
    return None, tuple(flags), False


@memoised
def is_completed(sys: LinearSystem) -> bool:
    """True when one more projection step gains nothing at orders <= q."""
    q = sys.order
    return _dims_upto(projected_system(sys, 1), q) == _dims_upto(sys, q)


def involutive_order(sys: LinearSystem, seed: int = 0):
    """First order in the stabilization window from max(q, 1) at which the
    symbol passes the involution test.  An involutive g_q' has zero
    delta-cohomology at every order >= q' (Seiler 2010, *Involution*, ch. 6),
    so a failed test's nonzero spots (s, o', dim) rule out each order <= o'."""
    q = max(sys.order, 1)
    order = q
    while order <= q + stabilization_window(sys):
        res = is_involutive_symbol(sys, order, seed=seed)
        if res.involutive:
            return order, res
        order = 1 + max([order] + [o for _, o, _ in res.certificate.nonzero_cohomology])
    raise ValueError("no involutive order found within the window")


def codimension(sys: LinearSystem, seed: int = 0) -> int:
    """n minus the largest class with a nonzero character, on the involutive form.

    Requires a completed system; the characters are taken at the first
    involutive order (the system's own order in every corpus case except the
    finite-type flagship, whose symbol only becomes involutive once it dies).
    """
    if not sys.equations:
        return 0
    if not is_completed(sys):
        raise ValueError("codimension requires a completed system")
    _, res = involutive_order(sys, seed=seed)
    alpha = res.tableau.alpha
    last_nonzero = 0
    for i, a in enumerate(alpha, start=1):
        if a:
            last_nonzero = i
    if last_nonzero == 0:
        return sys.n
    return sys.n - last_nonzero


class CharacteristicMatrix(NamedTuple):
    """Top-order coefficient matrix over QQ[chi] and its m x m minor generators."""

    matrix: tuple  # rows: equations, cols: unknowns, entries Poly in n variables
    minors: tuple  # primitive nonzero generators of the (un-radicalized) characteristic ideal

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


def characteristic_matrix(sys: LinearSystem) -> CharacteristicMatrix:
    """Substitute y^k_mu -> chi^mu in the top-order parts of the equations.

    Emits the nonzero m x m minors, each made primitive, in the order of their
    row combinations; the radical is not computed.  Each k x k minor on the
    first k columns is expanded along column k from the (k-1) x (k-1) minors
    of the same rows, so every sub-minor is computed once.
    """
    n, m, q = sys.n, sys.m, sys.order
    rows = []
    for e in sys.equations:
        if e.order == q:
            terms = [{} for _ in range(m)]
            for jc, c in e.top_terms().items():
                terms[jc.k - 1][jc.mu] = c
            rows.append(tuple(Poly(n, t) for t in terms))
    minors = {(i,): row[0] for i, row in enumerate(rows)}
    for c in range(1, m):
        smaller, minors = minors, {}
        for combo in itertools.combinations(range(len(rows)), c + 1):
            det = Poly.zero(n)
            for i, r in enumerate(combo):
                entry, sub = rows[r][c], smaller[combo[:i] + combo[i + 1 :]]
                if entry and sub:
                    det = det + entry * sub if (i + c) % 2 == 0 else det - entry * sub
            minors[combo] = det
    return CharacteristicMatrix(tuple(rows), tuple(p.primitive() for p in minors.values() if p))
