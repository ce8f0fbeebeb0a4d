"""Relative localization, localized dimension, torsion detection and purity.

Localizing at codimension r turns d_1..d_{n-r} into invertible scalar
parameters chi_1..chi_{n-r}: each equation becomes a linear relation over
QQ(chi) among the jets in the trailing r variables, and a codimension-r
module becomes finite dimensional over that field.  A jet coordinate whose
residue is nonzero in the module but dies in the localization is torsion
(it is killed by a nonzero polynomial in the parameters); the module is
r-pure exactly when no such jet exists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import jetspace as js
from .jetspace import JetCoordinate
from .completion import codimension, complete, involutive_order, is_completed
from .inverse import ModularEquation, generating_sections, residue_map
from .pdesystem import (
    Equation,
    LinearSystem,
    change_coordinates,
    companion_unknowns,
    memoised,
    prolong,
    slice_at,
    stable_order,
)
from .ratlinalg import ExactMatrix, ParamScalar, Poly, integer_poly_row, kernel_basis


class LocalizedSystem(NamedTuple):
    """A system rewritten over QQ(chi_1..chi_s) in the trailing r variables."""

    params: int  # s = n - r
    r: int
    system: LinearSystem

    def original_to_local(self, jc: JetCoordinate):
        """Image of an original jet: (chi-monomial coefficient, localized jet)."""
        s = self.params
        prefix = jc.mu[:s]
        local = jc.mu[s:]
        coeff = ParamScalar(Poly(s, {prefix: Fraction(1)}))
        return coeff, JetCoordinate(jc.k, local)


class TorsionElement(NamedTuple):
    """A combination of low-order jets alive in M that dies in the localization.

    In delta-regular coordinates the combination is a single jet coordinate
    and `jet` / `companion_label` name it (z-index of the matching
    first-order unknown); for combinations `jet` is None.
    """

    coefficients: tuple  # ((JetCoordinate, Fraction), ...)
    jet: JetCoordinate | None
    companion_label: str

    def __str__(self) -> str:
        return self.companion_label


class PurityReport(NamedTuple):
    codimension: int
    localized_dimension: int | None
    torsion: tuple
    pure: bool
    alpha_crosscheck: int | None  # smallest nonzero character of the involutive form
    notes: tuple

    def __str__(self) -> str:
        verdict = "pure" if self.pure else "not pure"
        return f"cd={self.codimension}, dim_k'={self.localized_dimension}, {verdict}"


def localize(sys: LinearSystem, r: int) -> LocalizedSystem:
    """Substitute d_j -> chi_j for j <= n-r in every equation.

    Requires a completed system: the class-killing behaviour of the
    localization relies on the compatibility equations already being present.
    At r = n the QQ system itself is returned, unmemoised: in the memo of
    `sys` it would form a cycle.
    """
    if not 0 <= r <= sys.n:
        raise ValueError("localization codimension out of range")
    if sys.params:
        raise ValueError("system is already localized")
    if not is_completed(sys):
        raise ValueError("system must be completed before localization")
    s = sys.n - r
    return LocalizedSystem(s, r, _substituted(sys, s) if s else sys)


@memoised
def _substituted(sys: LinearSystem, s: int) -> LinearSystem:
    """`sys` over QQ(chi_1..chi_s) in its trailing n - s variables."""
    eqs = []
    for e in sys.equations:
        terms: dict = {}
        for jc, c in e.terms.items():
            prefix = jc.mu[:s]
            local = JetCoordinate(jc.k, jc.mu[s:])
            add = ParamScalar(Poly(s, {prefix: Fraction(c)}))
            terms[local] = terms.get(local, ParamScalar.zero(s)) + add
        eqs.append(Equation(terms))
    return LinearSystem(sys.n - s, sys.m, eqs, params=s)


def _localized_order(loc: LocalizedSystem) -> int:
    try:
        return stable_order(loc.system)
    except ValueError:
        raise ValueError("wrong codimension for localization: localized system is not finite type")


def localized_dimension(loc: LocalizedSystem) -> int:
    """Dimension over QQ(chi) of the localized inverse system."""
    return slice_at(loc.system, _localized_order(loc)).dimension


def localized_parametric_jets(loc: LocalizedSystem):
    """Parametric jets of the localized system at its stabilization order."""
    return slice_at(loc.system, _localized_order(loc)).parametric


def torsion_generators(sys: LinearSystem, r: int) -> list[TorsionElement]:
    """Elements of M at orders < q whose residues die in the localization.

    The candidates span M_{q-1}: its basis is the parametric jets of order
    < q, which are exactly the unknowns of the first-order companion, whence
    the z-labels in the report.  Each basis jet maps to chi^prefix times the
    residue of its truncated jet in the localized module; the kernel of that
    map over QQ (computed monomial by monomial in the parameters) is the
    torsion found at this level.  Localizing at r = n is the identity, so the
    list is empty there by construction.
    """
    loc = localize(sys, r)
    if r == sys.n:
        return []
    q = max(sys.order, 1)
    all_low = companion_unknowns(sys)
    z_index = {jc: i + 1 for i, jc in enumerate(all_low)}
    candidates = [jc for jc in slice_at(sys, q - 1).parametric]
    if not candidates:
        return []
    o_loc = _localized_order(loc)
    horizon = max(o_loc + 1, loc.system.order, q)
    residues, loc_parametric = residue_map(loc.system, horizon)
    vectors = []
    for jc in candidates:
        coeff, local_jet = loc.original_to_local(jc)
        vectors.append({t: coeff * x for t, x in residues[local_jet].items()})
    # Kernel over QQ: clear every QQ(chi) coordinate to integer polynomials
    # (a nonzero common factor leaves the kernel unchanged) and expand it
    # into one row per chi-monomial.
    rows: list[dict] = []
    for target in range(len(loc_parametric)):
        cleared = integer_poly_row({i: v[target] for i, v in enumerate(vectors) if target in v})
        for exp in sorted({exp for p in cleared.values() for exp in p}):
            rows.append({i: p[exp] for i, p in cleared.items() if exp in p})
    kern = kernel_basis(ExactMatrix.from_rows(rows, len(candidates)))
    out = []
    for vec in kern.transpose().sparse:
        combo = [(candidates[i], v) for i, v in vec.items()]
        if len(combo) == 1 and combo[0][1] == 1:
            jc = combo[0][0]
            label = f"z{z_index[jc]}"
            out.append(TorsionElement(tuple(combo), jc, label))
        else:
            label = " + ".join(f"{c}*{js.jet_name(jc, sys.m)}" for jc, c in combo)
            out.append(TorsionElement(tuple(combo), None, label))
    return out


def localized_generators(loc: LocalizedSystem) -> list[ModularEquation]:
    """Generating modular equations of the localized inverse system over QQ(chi)."""
    return generating_sections(loc.system)


def is_pure(sys: LinearSystem, seed: int = 0) -> PurityReport:
    """Complete, find the codimension, localize there and look for torsion.

    A frame other than the identity moves the final system, and its R_q is
    localized: orders there count the trailing variables only, so the
    localization needs the derivatives of the lower-order equations."""
    notes = []
    report = complete(sys)
    if not report.integrable:
        raise ValueError("completion inconclusive; purity undecided")
    final = report.final_system
    r = codimension(final, seed=seed)
    _, inv = involutive_order(final, seed=seed)
    alpha = inv.tableau.alpha
    smallest = None
    for a in reversed(alpha):
        if a:
            smallest = a
            break
    frame = inv.tableau.frame
    if not frame.is_identity():
        final = prolong(change_coordinates(final, frame), 0)
        notes.append("characters required a frame change; localization done in that frame")
    loc = localize(final, r)
    dim = localized_dimension(loc)
    torsion = tuple(torsion_generators(final, r))
    if smallest is not None and dim != smallest:
        notes.append(f"localized dimension {dim} differs from smallest character {smallest}")
    return PurityReport(r, dim, torsion, not torsion, smallest, tuple(notes))
