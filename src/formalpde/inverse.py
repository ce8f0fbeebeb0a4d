"""Macaulay inverse systems: sections, the Spencer operator, top and socle.

A section of order r assigns a value f^k_mu to every jet with |mu| <= r so
that all equations through that order hold.  With constant coefficients the
Spencer operator acts by a plain shift, (d_i f)^k_mu = f^k_{mu+1_i}; the sign
convention is Macaulay's (no minus), which is flagged in rendered reports.

Sections through order r span the kernel of the prolonged equation matrix:
section t is column t of the residue map of jets onto the parametric jets.

For a finite-dimensional section space R the generators are found through the
Nakayama quotient R / (d_1 R + ... + d_n R): lifting a basis of the quotient
gives sections generating R as a differential module.  Residue classes killed
by every d_i form the socle of the module M itself; top(R) and soc(M) are
dual, which the tests check dimension by dimension.
"""

from __future__ import annotations

from typing import NamedTuple

from . import jetspace as js
from .jetspace import JetCoordinate
from .pdesystem import LinearSystem, SlottedRecord, _full_rref, memoised, stable_order
from .ratlinalg import ExactMatrix, ParamScalar, field_one, integer_poly_row, integer_row, rref
from .ratlinalg import _echelon_int, _echelon_param  # the closure extends one echelon basis

SPENCER_SIGN_NOTE = "Spencer operator taken with Macaulay's sign: (d_i f)_mu = f_{mu+1_i}"


class Section(SlottedRecord):
    """Element of the order-`order` inverse system, as a dual-jet coefficient map;
    unhashable, as its coefficients are a dict."""

    __slots__ = _fields = ("order", "coefficients")

    def __init__(self, order: int, coefficients: dict):
        self.order, self.coefficients = order, {jc: c for jc, c in coefficients.items() if c}

    def coefficient(self, jc: JetCoordinate):
        return self.coefficients.get(jc, 0)

    def __bool__(self) -> bool:
        return bool(self.coefficients)


def render_coefficient(c, lead: bool) -> str:
    """Format one coefficient for a modular equation term."""
    if c == 1:
        return "" if lead else "+ "
    if c == -1:
        return "-" if lead else "- "
    if isinstance(c, ParamScalar):
        return f"({c})*" if lead else f"+ ({c})*"
    if c > 0:
        return f"{c}*" if lead else f"+ {c}*"
    return f"{c}*" if lead else f"- {-c}*"


def dual_jet_name(jc: JetCoordinate, m: int, var_offset: int = 0) -> str:
    """Macaulay's formal coefficient a^mu (a^mu_k with several unknowns)."""
    sup = js.digit_body(jc.mu, var_offset) or "0"
    return f"a^{sup}" if m == 1 else f"a^{sup}_{jc.k}"


class ModularEquation(NamedTuple):
    """A section written as E = sum f^k_mu a^mu_k = 0 with formal coefficients."""

    section: Section
    m: int
    var_offset: int = 0

    def body(self) -> str:
        jets = sorted(self.section.coefficients, key=js.display_key)
        parts = []
        for i, jc in enumerate(jets):
            c = self.section.coefficients[jc]
            parts.append(render_coefficient(c, i == 0) + dual_jet_name(jc, self.m, self.var_offset))
        return " ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return f"E ≡ {self.body()} = 0"


def section_basis(sys: LinearSystem, order: int) -> list[Section]:
    """Kernel basis of the full equation matrix through `order`, as sections.

    Section t is column t of :func:`residue_map`: it carries coefficient 1 on
    the t-th parametric jet in display order, 0 on the other parametric jets,
    and minus the pivot row's entry on each principal jet.
    """
    residues, parametric = residue_map(sys, order)
    columns = [{} for _ in parametric]
    for jc, vec in residues.items():
        for t, v in vec.items():
            columns[t][jc] = v
    return [Section(order, c) for c in columns]


def spencer_apply(i: int, f: Section) -> Section:
    """Spencer operator d_i with Macaulay's sign: (d_i f)^k_mu = f^k_{mu+1_i}."""
    result: dict = {}
    for jc, c in f.coefficients.items():
        mu = jc.mu
        if mu[i - 1] >= 1:
            lower = tuple(e - (1 if t == i - 1 else 0) for t, e in enumerate(mu))
            if js.order_of(lower) <= f.order - 1:
                result[JetCoordinate(jc.k, lower)] = c
    return Section(f.order - 1, result)


def _stabilized_order(sys: LinearSystem) -> int:
    try:
        return stable_order(sys)
    except ValueError:
        raise ValueError("inverse system is infinite dimensional; apply relative localization first")


@memoised
def _nakayama(sys: LinearSystem):
    """(parametric jets, basis section lifting each jet, top jets) of a
    finite-dimensional R, memoised, so read-only: the top jets are the
    non-pivot coordinates of m*R = sum_i d_i(R) in parametric-jet coordinates,
    the free columns of :func:`_multiplication_rref`.  The stable order o has
    g_{o+1} = 0, so the parametric jets at horizon o + 1 are those at o, and
    the section lifting jet t is section t through order o + 1."""
    pivots = set(_multiplication_rref(sys).pivots)
    parametric = multiplication_matrices(sys)[1]
    lifts = dict(zip(parametric, section_basis(sys, _stabilized_order(sys) + 1)))
    return parametric, lifts, [jc for j, jc in enumerate(parametric) if j not in pivots]


def top_generators(sys: LinearSystem) -> list[ModularEquation]:
    """Nakayama generators of a finite-dimensional inverse system.

    Lifts the top jets of R / m*R back to basis sections; ties between equally
    sparse lifts are broken by the jet ordering, which reproduces the
    classical single-dual-jet generator shapes.
    """
    _, lifts, top = _nakayama(sys)
    return [ModularEquation(lifts[jc], sys.m, sys.params) for jc in top]


@memoised
def residue_map(sys: LinearSystem, order: int):
    """Residue of every jet through `order` as a sparse vector {t: value} over
    the parametric jets, numbered by t in display order; memoised, so read-only."""
    result, columns = _full_rref(sys, order)
    free = sorted(set(range(len(columns))).difference(result.pivots), key=lambda j: js.display_key(columns[j]))
    place = {j: t for t, j in enumerate(free)}
    residues = {columns[j]: {t: field_one(sys.params)} for j, t in place.items()}
    for p, row in zip(result.pivots, result.matrix.sparse):
        residues[columns[p]] = {place[j]: -v for j, v in row.items() if j != p}
    return residues, [columns[j] for j in free]


@memoised
def multiplication_matrices(sys: LinearSystem):
    """Matrices of d_1..d_n acting on M over its parametric-jet basis.

    Returns (matrices, basis jets); column j of matrix i is the residue of
    d_i applied to basis jet j.  The stable order o has g_{o+1} = 0, so every
    parametric jet at horizon o + 1 has order <= o.
    """
    residues, basis_jets = residue_map(sys, _stabilized_order(sys) + 1)
    mats = []
    for i in range(1, sys.n + 1):
        cols = []
        for jc in basis_jets:
            up = tuple(e + (1 if t == i - 1 else 0) for t, e in enumerate(jc.mu))
            cols.append(residues[JetCoordinate(jc.k, up)])
        mats.append(ExactMatrix.from_rows(cols, len(basis_jets), sys.params).transpose())
    return tuple(mats), tuple(basis_jets)


@memoised
def _multiplication_rref(sys: LinearSystem):
    """RREF of d_1..d_n stacked: row (i, t) of the stack is the t-th coordinate
    of d_i on M, which is also the Spencer derivative d_i of section t read at
    the parametric jets.  Its kernel is the socle of M, and its row space is
    m*R, so top and socle come from this one elimination."""
    mats, basis_jets = multiplication_matrices(sys)
    stacked = [row for m in mats for row in m.sparse]
    return rref(ExactMatrix.from_rows(stacked, len(basis_jets), sys.params))


def socle(sys: LinearSystem):
    """Basis of {x in M : d_i x = 0 for all i} over the parametric-jet basis.

    Returns a list of residue-class vectors, each a dict {jet: coefficient}.
    """
    basis_jets = multiplication_matrices(sys)[1]
    kern = _multiplication_rref(sys).kernel()
    return [{basis_jets[i]: v for i, v in vec.items()} for vec in kern.transpose().sparse]


def _grow(sys: LinearSystem, basis, seed_jets) -> bool:
    """Extend `basis`, an echelon basis of a d-stable subspace of R (a dict
    over QQ, a list over QQ(chi)), to the closure of its span and the dual
    basis sections of the parametric jets `seed_jets`; true when it grew.  A
    vector's images under d_1..d_n are taken only when the vector joins the
    basis: the images of a vector in the span are in the closure already.
    """
    mats, basis_jets = multiplication_matrices(sys)
    extend, clear = (_echelon_param, integer_poly_row) if sys.params else (_echelon_int, integer_row)
    one, size = field_one(sys.params), len(basis)
    frontier = [{basis_jets.index(jc): one} for jc in seed_jets]
    for v in frontier:  # images join the end of the list being read
        before = len(basis)
        if len(extend([clear(v)], basis=basis)) > before:
            row = ExactMatrix.from_rows([v], len(basis_jets), sys.params)  # d_i v is the row v times m_i
            frontier += [img for m in mats if (img := (row @ m).sparse[0])]
    return len(basis) > size


def derivative_closure_dimension(sys: LinearSystem, seed_jets) -> int:
    """Dimension of the smallest d-stable subspace of R containing the seeds.

    Seeds are parametric jets naming their dual basis sections.  The Spencer
    action on R in these coordinates is the transpose of multiplication on M,
    so the closure is plain invariant-subspace growth (:func:`_grow`).
    """
    basis = [] if sys.params else {}
    _grow(sys, basis, seed_jets)
    return len(basis)


def generating_sections(sys: LinearSystem) -> list[ModularEquation]:
    """Sections generating R as a differential module.

    Nakayama lifts (see :func:`top_generators`) are used first; when the
    derivations act invertibly the quotient R / m R vanishes although R does
    not, and the duals of the highest parametric jets are added until the
    derivative closure fills R: on one echelon basis, a jet is added exactly
    when its dual section is outside the closure so far.  The classical
    localized one-generator examples come out of the fallback.
    """
    parametric, lifts, top = _nakayama(sys)
    basis = [] if sys.params else {}
    _grow(sys, basis, top)
    chosen = list(top)
    for jc in reversed(parametric):
        if len(basis) == len(parametric):
            break
        if _grow(sys, basis, [jc]):
            chosen.append(jc)
    return [ModularEquation(lifts[jc], sys.m, sys.params) for jc in sorted(chosen, key=js.display_key)]
