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

from dataclasses import dataclass
from fractions import Fraction

from . import jetspace as js
from .jetspace import JetCoordinate
from .completion import codimension, involutive_order, is_completed
from .inverse import ModularEquation, residue_map
from .pdesystem import (
    Equation,
    LinearSystem,
    companion_unknowns,
    slice_at,
    stable_dimension,
    stable_order,
)
from .ratlinalg import ParamScalar, Poly


@dataclass(frozen=True)
class LocalizedSystem:
    """A system rewritten over QQ(chi_1..chi_s) in the trailing r variables."""

    params: int  # s = n - r
    r: int
    system: LinearSystem
    origin: LinearSystem

    def original_to_local(self, jc: JetCoordinate):
        """Image of an original jet: (chi-monomial coefficient, localized jet)."""
        s = self.params
        prefix = jc.mu[:s]
        local = jc.mu[s:]
        coeff = ParamScalar(Poly(s, {prefix: Fraction(1)}))
        return coeff, JetCoordinate(jc.k, local)


@dataclass(frozen=True)
class TorsionElement:
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


@dataclass(frozen=True)
class PurityReport:
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
    The localized system is memoised as ``("localize", r)`` in the cache of
    `sys`, so its own memo serves every later localization at r.
    """
    if not 0 <= r <= sys.n:
        raise ValueError("localization codimension out of range")
    if sys.params:
        raise ValueError("system is already localized")
    s = sys.n - r
    key = ("localize", r)
    if key not in sys._cache:
        if not is_completed(sys):
            raise ValueError("system must be completed before localization")
        if s == 0:  # the identity: no parameters, so keep the QQ system and its memo
            return LocalizedSystem(0, r, sys, sys)
        eqs = []
        for e in sys.equations:
            terms: dict = {}
            for jc, c in e.terms.items():
                prefix = jc.mu[:s]
                local = JetCoordinate(jc.k, jc.mu[s:])
                add = ParamScalar(Poly(s, {prefix: Fraction(c)}))
                terms[local] = terms.get(local, ParamScalar.zero(s)) + add
            eqs.append(Equation(terms))
        sys._cache[key] = LinearSystem(r, sys.m, eqs, params=s, var_offset=s)
    return LocalizedSystem(s, r, sys._cache[key], sys)


def localized_dimension(loc: LocalizedSystem) -> int:
    """Dimension over QQ(chi) of the localized inverse system."""
    try:
        return stable_dimension(loc.system)
    except ValueError:
        raise ValueError("wrong codimension for localization: localized system is not finite type")


def localized_parametric_jets(loc: LocalizedSystem):
    """Parametric jets of the localized system at its stabilization order."""
    o = stable_order(loc.system)
    return slice_at(loc.system, o).parametric


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
    try:
        o_loc = stable_order(loc.system)
    except ValueError:
        raise ValueError("wrong codimension for localization: localized system is not finite type")
    horizon = max(o_loc + 1, loc.system.order, q)
    residues, loc_parametric = residue_map(loc.system, horizon)
    vectors = []
    for jc in candidates:
        coeff, local_jet = loc.original_to_local(jc)
        vectors.append({t: coeff * x for t, x in residues[local_jet].items()})
    # Kernel over QQ: expand every QQ(chi) coordinate into one row per
    # chi-monomial after clearing the denominators along that coordinate.
    rows: list[dict] = []
    s = loc.params
    for target in range(len(loc_parametric)):
        den = Poly.one(s)
        for v in vectors:
            e = v.get(target)
            if e and e.den != Poly.one(s):
                den = den * e.den
        cleared = []
        for v in vectors:
            e = v.get(target)
            cleared.append(e.num * den.div_exact(e.den) if e else Poly.zero(s))
        monomials = sorted({exp for p in cleared for exp in p.terms})
        for exp in monomials:
            rows.append({i: p.terms[exp] for i, p in enumerate(cleared) if exp in p.terms})
    from .ratlinalg import ExactMatrix, kernel_basis

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
    from .inverse import generating_sections

    return generating_sections(loc.system)


def is_pure(sys: LinearSystem, seed: int = 0) -> PurityReport:
    """Complete, find the codimension, localize there and look for torsion."""
    from .completion import complete

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
        from .pdesystem import change_coordinates
        from .pdesystem import prolong

        final = prolong(change_coordinates(final, frame), 0)
        notes.append("characters required a frame change; localization done in that frame")
    loc = localize(final, r)
    dim = localized_dimension(loc)
    torsion = tuple(torsion_generators(final, r))
    if smallest is not None and dim != smallest:
        notes.append(f"localized dimension {dim} differs from smallest character {smallest}")
    return PurityReport(r, dim, torsion, not torsion, smallest, tuple(notes))
