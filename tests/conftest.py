from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from formalpde import jetspace as js
from formalpde.parser import parse
from formalpde.pdesystem import LinearSystem


def make_system(n: int, *equations, m: int = 1) -> LinearSystem:
    """Build a system from ("digits", coeff) term lists; "" is the order-0 jet."""
    built = []
    for terms in equations:
        d: dict = {}
        for item in terms:
            if len(item) == 2:
                digs, c = item
                k = 1
            else:
                k, digs, c = item
            ds = [int(x) for x in str(digs)] if str(digs) else []
            mu = js.mu_from_digits(ds, n)
            key = (k, mu)
            d[key] = d.get(key, Fraction(0)) + Fraction(c)
        built.append(d)
    return LinearSystem(n, m, built)


CORPUS_TEXTS = {
    "example1": (
        "vars=2; eq: y[2,2,2]=0; eq: y[1,2,2]=0; eq: y[1,1,2]=0; "
        "eq: y[1,1,1]=0; eq: y[2,2]=0; eq: y[1,2]=0"
    ),
    "example2": "vars=3; eq: y[3,3]=0; eq: y[2,3]=0; eq: y[1,3]=0; eq: y[1,2]=0",
    "example3": "vars=3; eq: y[1,1]=0; eq: y[1,3]-y[2]=0",
    "example4": "vars=3; eq: y[3,3]=0; eq: y[2,3]-y[1,3]=0; eq: y[2,2]-y[1,2]=0",
    "example5_r": (
        "vars=3; eq: y[3,3]-y[1,1]=0; eq: y[2,3]=0; eq: y[2,2]-y[1,1]=0; "
        "eq: y[1,3]=0; eq: y[1,2]=0"
    ),
    "example5_rprime": "vars=3; eq: y[3,3]-y[1,1]=0; eq: y[2,3]=0; eq: y[2,2]-y[1,1]=0",
    "example5_rsecond": "vars=3; eq: y[3,3]-y[1,1]=0; eq: y[2,3,3]=0; eq: y[2,2]-y[1,1]=0",
    "example6_twisted": "vars=3; eq: y[3,3,3]-y[1]=0; eq: y[3,3]-y[2]=0",
    "example6_third": "vars=3; eq: y[3,3,3]-y[1,1]=0; eq: y[2,2]-y[1,3]=0",
    "example7": "vars=4; eq: y[4,4]=0; eq: y[3,4]-y[2,2]=0; eq: y[3,3]=0; eq: y[2,4]-y[1,1]=0",
    "example7_primed": (
        "vars=4; eq: y[4,4]=0; eq: y[3,4]-y[2,2]-y[1]=0; eq: y[3,3]=0; "
        "eq: y[2,4]-y[1,1]-y[3]=0"
    ),
    "example8": "vars=3; eq: y[1,3]=0; eq: y[2,3]=0",
    "abstract_n1": "vars=1; eq: y[1,1]=0",
    "abstract_n2_q": "vars=2; eq: y[2,2]=0; eq: y[1,2]-y[1,1]=0",
    "abstract_n2_qprime": "vars=2; eq: y[2,2,2]=0; eq: y[1,2]-y[1,1]=0",
    "abstract_n3": "vars=3; eq: y[3,3]=0; eq: y[2,3]-y[1,1]=0; eq: y[2,2]=0",
}

# the six-variable system that reaches the most high-order frame tableaux; at
# seed 0 its involution test wins a frame other than the identity
SIX_VAR_TEXT = "vars=6; eq: y[6,6,6]=0; eq: y[5,6]-y[4,4]=0; eq: y[3,5]-y[1,2]=0\n"

# the benchmark's input texts, by file stem: five-var, flagship, two-unknown
BENCH_TEXTS = {
    path.stem: path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).resolve().parents[1] / "bench" / "inputs").glob("*.pde"))
}


def killing_text(n: int, conformal: bool = False) -> str:
    """The flat Killing equations z_i[j] + z_j[i] = 0 (i < j), z_i[i] = 0 in n
    variables; conformal Killing replaces the last rows by z_i[i] minus the
    mean divergence, for i < n."""
    rows = [f"z{i}[{j}] + z{j}[{i}]" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if conformal:
        mean = "".join(f" - 1/{n}*z{k}[{k}]" for k in range(1, n + 1))
        rows += [f"z{i}[{i}]{mean}" for i in range(1, n)]
    else:
        rows += [f"z{i}[{i}]" for i in range(1, n + 1)]
    return f"vars={n}; unknowns={n};\n" + "".join(f"eq: {row} = 0;\n" for row in rows)


def symbol_oracle_systems() -> dict:
    """Fresh systems for the symbol oracles: the corpus and bench texts, flat
    Killing and conformal Killing (fractional coefficients) for n = 2-4, a
    localized system over QQ(chi), and edge cases: one variable, an order-0
    equation, two unknowns with fractional coefficients, pure powers, whose
    exponent reaches the order, the largest digit of the monomial codes, and a
    reduced row whose pivot entry 2 shares a factor with another of its entries."""
    from formalpde.completion import complete
    from formalpde.purity import localize

    texts = {**CORPUS_TEXTS, **BENCH_TEXTS}
    for n in range(2, 5):
        texts[f"killing{n}"] = killing_text(n)
        texts[f"conformal-killing{n}"] = killing_text(n, conformal=True)
    systems = {name: parse(text).system for name, text in texts.items()}
    systems["localized"] = localize(complete(systems["example4"]).final_system, 2).system
    systems["n1"] = make_system(1, [("111", 1), ("1", -2)])
    systems["order0"] = make_system(2, [("", 3)], [("12", 1), ("2", -1)])
    systems["m2"] = make_system(
        2, [(1, "11", Fraction(1, 2)), (2, "22", -3)], [(2, "12", Fraction(2, 3)), (1, "2", 1)], m=2
    )
    systems["pure_powers"] = make_system(3, [("333", 1)], [("11", 4), ("2", 1)], [("222", Fraction(5, 7))])
    systems["pivot_gcd"] = make_system(2, [("22", 2), ("12", 2), ("11", 1)])
    return systems


def localized_systems(text: str) -> list:
    """Every QQ(chi) system that `is_pure` localizes to on `text`, each once."""
    from formalpde import purity

    systems, localize = [], purity.localize

    def recorded(sys, r):
        loc = localize(sys, r)
        if loc.params and all(loc.system is not s for s in systems):
            systems.append(loc.system)
        return loc

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(purity, "localize", recorded)
        purity.is_pure(parse(text).system)
    return systems


@pytest.fixture
def corpus_systems():
    # freshly parsed for every test, so no test sees the memo another left
    return {name: parse(text).system for name, text in CORPUS_TEXTS.items()}


def digits_of(jc) -> tuple:
    return js.digits(jc.mu)


@st.composite
def constant_coefficient_systems(draw) -> LinearSystem:
    """Random systems with n <= 3, m <= 2, order <= 2 and coefficients in -2..2."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    jets = js.jets_upto(n, m, 2)
    equation = st.dictionaries(st.sampled_from(jets), st.integers(-2, 2), min_size=1, max_size=4)
    equations = draw(st.lists(equation, min_size=1, max_size=4))
    return LinearSystem(n, m, [{jc: Fraction(c) for jc, c in e.items()} for e in equations])
