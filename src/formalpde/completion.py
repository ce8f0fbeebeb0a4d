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
import weakref
from typing import NamedTuple

from . import jetspace as js
from .pdesystem import LinearSystem, SlottedRecord, _full_rref, memoised, projected_system, slice_at
from .ratlinalg import Poly, field_zero
from .spencer import is_involutive_symbol, is_s_acyclic, stabilization_window


class CompletionStep(NamedTuple):
    step: int
    gained: tuple  # Equation objects new at this step
    dims_before: tuple
    dims_after: tuple


class IntegrabilityReport(SlottedRecord):
    """'formally_integrable' if the input takes no step, 'completed' after `steps`
    projections, 'window_inconclusive' if no rho in the window of the final
    system has g_rho 2-acyclic and every R_{r+1} -> R_r, q <= r <= rho, onto.
    Slotted with a weak reference, by which :func:`complete` memoises it."""

    verdict: str  # 'formally_integrable' | 'completed' | 'window_inconclusive'
    steps: int
    trace: tuple
    final_system: LinearSystem
    acyclic_order: int | None
    projection_flags: tuple  # ((order, surjective), ...)
    window_limited: bool
    _fields = ("verdict", "steps", "trace", "final_system", "acyclic_order", "projection_flags", "window_limited")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, verdict, steps, trace, final_system, acyclic_order, projection_flags, window_limited):
        self.verdict, self.steps, self.trace, self.final_system = verdict, steps, trace, final_system
        self.acyclic_order, self.projection_flags = acyclic_order, projection_flags
        self.window_limited = window_limited

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
    The certification walks rho upward from the final order looking for a
    2-acyclic symbol with surjective projections below; when a projection
    fails or the window runs out the verdict is 'window_inconclusive'.
    Memoised in the system's cache by weak reference, not by `memoised`: the
    report of a system that needs no change names the system itself, and a
    strong entry would form a cycle that only the cyclic collector frees.
    A report is computed again only when no caller holds it any more.
    """
    report = sys._cache[("complete",)]() if ("complete",) in sys._cache else None
    if report is None:
        report = _completion(sys)
        sys._cache[("complete",)] = weakref.ref(report)
    return report


def _completion(sys: LinearSystem) -> IntegrabilityReport:
    if not sys.equations:
        return IntegrabilityReport("formally_integrable", 0, (), sys, 0, ((0, True),), False)
    current = sys
    trace = []
    window = stabilization_window(sys)
    while not is_completed(current):
        q, nxt = current.order, projected_system(current, 1)
        gained = _gained_equations(current, nxt)
        trace.append(CompletionStep(len(trace) + 1, gained, _dims_upto(current, q), _dims_upto(nxt, q)))
        current = nxt
    current = reduce_order(current)
    q = current.order
    flags = []
    acyclic_order = None
    window_limited = False
    for rho in range(q, q + window + 1):
        flags.append((rho, projection_surjective(current, rho)))
        if not flags[-1][1]:
            break
        ok, limited = is_s_acyclic(current, 2, rho, window)
        if ok:
            acyclic_order = rho
            window_limited = limited
            break
    if acyclic_order is None:
        verdict = "window_inconclusive"
    else:
        verdict = "completed" if trace else "formally_integrable"
    return IntegrabilityReport(
        verdict, len(trace), tuple(trace), current, acyclic_order, tuple(flags), window_limited
    )


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
