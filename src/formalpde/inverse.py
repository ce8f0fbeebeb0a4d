"""Macaulay inverse systems: sections, the Spencer operator, top and socle.

A section of order r assigns a value f^k_mu to every jet with |mu| <= r so
that all equations through that order hold.  With constant coefficients the
Spencer operator acts by a plain shift, (d_i f)^k_mu = f^k_{mu+1_i}; the sign
convention is Macaulay's (no minus), which is flagged in rendered reports.

For a finite-dimensional section space R the generators are found through the
Nakayama quotient R / (d_1 R + ... + d_n R): lifting a basis of the quotient
gives sections generating R as a differential module.  Residue classes killed
by every d_i form the socle of the module M itself; top(R) and soc(M) are
dual, which the tests check dimension by dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import jetspace as js
from .jetspace import JetCoordinate
from .pdesystem import LinearSystem, _full_rref, slice_at, stable_order
from .ratlinalg import ExactMatrix, ParamScalar, kernel_basis, rank, rref

SPENCER_SIGN_NOTE = "Spencer operator taken with Macaulay's sign: (d_i f)_mu = f_{mu+1_i}"


@dataclass(frozen=True)
class Section:
    """Element of the order-`order` inverse system, as a dual-jet coefficient map."""

    order: int
    coefficients: dict

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", {jc: c for jc, c in self.coefficients.items() if c}
        )

    def coefficient(self, jc: JetCoordinate):
        return self.coefficients.get(jc, 0)

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        if self.order != other.order or set(self.coefficients) != set(other.coefficients):
            return False
        return all(c == other.coefficients[jc] for jc, c in self.coefficients.items())


def render_coefficient(c, lead: bool) -> str:
    """Format one coefficient for a modular equation term."""
    if isinstance(c, ParamScalar):
        c = c.reduced(full=True)
        if c == 1:
            return "" if lead else "+ "
        if c == -1:
            return "-" if lead else "- "
        return (f"({c})*" if lead else f"+ ({c})*")
    if c == 1:
        return "" if lead else "+ "
    if c == -1:
        return "-" if lead else "- "
    if c > 0:
        return f"{c}*" if lead else f"+ {c}*"
    return f"{c}*" if lead else f"- {-c}*"


def dual_jet_name(jc: JetCoordinate, m: int, var_offset: int = 0) -> str:
    """Macaulay's formal coefficient a^mu (a^mu_k with several unknowns)."""
    ds = tuple(d + var_offset for d in js.digits(jc.mu))
    if not ds:
        body = "0"
    elif all(d <= 9 for d in ds):
        body = "".join(str(d) for d in ds)
    else:
        body = ",".join(str(d) for d in ds)
    sup = body if len(body) == 1 else "{" + body + "}"
    return f"a^{sup}" if m == 1 else f"a^{sup}_{jc.k}"


@dataclass(frozen=True)
class ModularEquation:
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


def _full_kernel(sys: LinearSystem, order: int):
    """(kernel basis, columns, free columns) of the equation matrix through `order`."""
    result, columns = _full_rref(sys, order)
    pivot_set = set(result.pivots)
    free = [columns[j] for j in range(len(columns)) if j not in pivot_set]
    return result.kernel(), columns, free


def section_basis(sys: LinearSystem, order: int) -> list[Section]:
    """Kernel basis of the full equation matrix through `order`, as sections.

    Each basis section carries coefficient 1 on its own parametric jet and 0
    on the other parametric jets; the list is sorted by that jet.
    """
    basis, columns, free = _full_kernel(sys, order)
    sections = []
    for b, vec in enumerate(basis.transpose().sparse):
        sections.append((free[b], Section(order, {columns[i]: v for i, v in vec.items()})))
    sections.sort(key=lambda pair: js.display_key(pair[0]))
    return [sec for _, sec in sections]


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


def _lifts(sections, parametric) -> dict:
    """Each section filed under the first parametric jet where its coefficient
    is 1; the first section filed under a jet is kept."""
    by_jet = {}
    for f in sections:
        for jc in parametric:
            if f.coefficient(jc) == 1:
                by_jet.setdefault(jc, f)
                break
    return by_jet


def _stabilized_order(sys: LinearSystem) -> int:
    try:
        return stable_order(sys)
    except ValueError:
        raise ValueError("inverse system is infinite dimensional; apply relative localization first")


def top_generators(sys: LinearSystem) -> list[ModularEquation]:
    """Nakayama generators of a finite-dimensional inverse system.

    Computes m*R = sum_i d_i(R) in parametric-jet coordinates and lifts the
    non-pivot coordinates back to basis sections; ties between equally sparse
    lifts are broken by the jet ordering, which reproduces the classical
    single-dual-jet generator shapes.
    """
    o = _stabilized_order(sys)
    parametric = list(slice_at(sys, o).parametric)
    basis = section_basis(sys, o + 1)
    index = {jc: t for t, jc in enumerate(parametric)}
    rows = []
    for f in basis:
        for i in range(1, sys.n + 1):
            g = spencer_apply(i, f)
            rows.append({index[jc]: c for jc, c in g.coefficients.items() if jc in index})
    pivots = set(rref(ExactMatrix.from_rows(rows, len(parametric), sys.params)).pivots)
    by_jet = _lifts(basis, parametric)
    gens = []
    for j, jc in enumerate(parametric):
        if j not in pivots:
            gens.append(ModularEquation(by_jet[jc], sys.m, sys.var_offset))
    return gens


def residue_map(sys: LinearSystem, order: int):
    """Residue of every jet through `order` as a sparse vector {t: value} over
    the parametric jets, numbered by t in display order."""
    result, columns = _full_rref(sys, order)
    free = sorted(set(range(len(columns))).difference(result.pivots), key=lambda j: js.display_key(columns[j]))
    place = {j: t for t, j in enumerate(free)}
    residues = {columns[j]: {t: sys.one()} for j, t in place.items()}
    for p, row in zip(result.pivots, result.matrix.sparse):
        residues[columns[p]] = {place[j]: -v for j, v in row.items() if j != p}
    return residues, [columns[j] for j in free]


def multiplication_matrices(sys: LinearSystem):
    """Matrices of d_1..d_n acting on M over its parametric-jet basis.

    Returns (matrices, basis jets); column j of matrix i is the residue of
    d_i applied to basis jet j.  Memoised as ``("multiplication",)``.
    """
    key = ("multiplication",)
    if key not in sys._cache:
        o = _stabilized_order(sys)
        residues, parametric = residue_map(sys, o + 1)
        basis_jets = [jc for jc in parametric if js.order_of(jc.mu) <= o]  # a prefix
        width = len(basis_jets)
        mats = []
        for i in range(1, sys.n + 1):
            cols = []
            for jc in basis_jets:
                up = tuple(e + (1 if t == i - 1 else 0) for t, e in enumerate(jc.mu))
                cols.append({t: v for t, v in residues[JetCoordinate(jc.k, up)].items() if t < width})
            mats.append(ExactMatrix.from_rows(cols, width, sys.params).transpose())
        sys._cache[key] = (tuple(mats), tuple(basis_jets))
    return sys._cache[key]


def socle(sys: LinearSystem):
    """Basis of {x in M : d_i x = 0 for all i} over the parametric-jet basis.

    Returns a list of residue-class vectors, each a dict {jet: coefficient}.
    """
    mats, basis_jets = multiplication_matrices(sys)
    stacked = [row for m in mats for row in m.sparse]
    kern = kernel_basis(ExactMatrix.from_rows(stacked, len(basis_jets), sys.params))
    return [{basis_jets[i]: v for i, v in vec.items()} for vec in kern.transpose().sparse]


def _span_rank(vectors, width: int, params: int) -> int:
    return rank(ExactMatrix.from_rows(vectors, width, params))


def derivative_closure_dimension(sys: LinearSystem, seed_jets) -> int:
    """Dimension of the smallest d-stable subspace of R containing the seeds.

    Seeds are parametric jets naming their dual basis sections.  The Spencer
    action on R in these coordinates is the transpose of multiplication on M,
    so the closure is plain invariant-subspace growth.
    """
    mats, basis_jets = multiplication_matrices(sys)
    width = len(basis_jets)
    index = {jc: t for t, jc in enumerate(basis_jets)}
    vectors = [{index[jc]: sys.one()} for jc in seed_jets]
    current = _span_rank(vectors, width, sys.params)
    frontier = list(vectors)
    while frontier:
        new = []
        for v in frontier:
            for m in mats:  # the transpose of m applied to v: row c of m scaled by v[c]
                img = {}
                for c, x in v.items():
                    for r, y in m.sparse[c].items():
                        img[r] = img[r] + y * x if r in img else y * x
                img = {r: y for r, y in img.items() if y}
                if img:
                    new.append(img)
        if not new:
            break
        grown = _span_rank(vectors + new, width, sys.params)
        if grown == current:
            break
        vectors += new
        frontier = new
        current = grown
    return current


def generating_sections(sys: LinearSystem) -> list[ModularEquation]:
    """Sections generating R as a differential module.

    Nakayama lifts (see :func:`top_generators`) are used first; when the
    derivations act invertibly the quotient R / m R vanishes although R does
    not, and the duals of the highest parametric jets are added until the
    derivative closure fills R.  The classical localized one-generator
    examples come out of the fallback.
    """
    o = _stabilized_order(sys)
    parametric = list(slice_at(sys, o).parametric)
    gens = top_generators(sys)
    chosen = []
    for g in gens:
        for jc in parametric:
            if g.section.coefficient(jc) == 1:
                chosen.append(jc)
                break
    total = len(parametric)
    current = derivative_closure_dimension(sys, chosen)
    if current == total:
        return gens
    for jc in reversed(parametric):
        if jc in chosen:
            continue
        grown = derivative_closure_dimension(sys, chosen + [jc])
        if grown > current:
            chosen, current = chosen + [jc], grown
            if current == total:
                break
    by_jet = _lifts(section_basis(sys, o + 1), parametric)
    chosen.sort(key=js.display_key)
    return [ModularEquation(by_jet[jc], sys.m, sys.var_offset) for jc in chosen]
