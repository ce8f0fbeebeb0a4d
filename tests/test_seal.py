"""The Cartan seal: window scans stop at the first order that passes Cartan's
test in the identity frame or A(2), and nothing a report says changes but
the window_limited flags, which the seal makes false."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import BENCH_TEXTS, CORPUS_TEXTS, constant_coefficient_systems, killing_text
from formalpde import spencer
from formalpde.cli import _involution_dict, build_report, main
from formalpde.completion import complete
from formalpde.parser import parse
from formalpde.pdesystem import LinearSystem, stable_order
from formalpde.purity import localize

TEXTS = {**CORPUS_TEXTS, **BENCH_TEXTS}
for _n in range(2, 5):
    TEXTS[f"killing{_n}"] = killing_text(_n)
    TEXTS[f"conformal-killing{_n}"] = killing_text(_n, conformal=True)


def _without_window_flags(value):
    if isinstance(value, dict):
        return {k: _without_window_flags(v) for k, v in value.items() if k != "window_limited"}
    return value


def _flags(value):
    if isinstance(value, dict):
        return [f for k, v in value.items() for f in ([v] if k == "window_limited" else _flags(v))]
    return []


def _analysis(sys: LinearSystem) -> dict:
    """The full report and the raw system's involution test on a fresh memo."""
    fresh = sys.replace(sys.equations)
    return {"report": build_report("", fresh), "involution": _involution_dict(spencer.is_involutive_symbol(fresh))}


def _unsealed(sys: LinearSystem) -> dict:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spencer, "_passes_cartan", lambda sys, order: False)
        return _analysis(sys)


@pytest.mark.parametrize("name", list(TEXTS))
def test_seal_changes_only_the_window_flags(name):
    sys = parse(TEXTS[name]).system
    sealed, unsealed = _analysis(sys), _unsealed(sys)
    assert _without_window_flags(sealed) == _without_window_flags(unsealed)
    assert _flags(sealed) and not any(_flags(sealed)), "every verdict is exact"


@settings(max_examples=60, deadline=None)
@given(constant_coefficient_systems())
def test_seal_changes_only_the_window_flags_on_random_systems(sys):
    sealed, unsealed = _analysis(sys), _unsealed(sys)
    assert _without_window_flags(sealed) == _without_window_flags(unsealed)


def test_sealed_scan_stops_at_the_seal():
    # two-unknown: the scan from order 2 finds H^2 at order 4 and seals at 5
    sys = parse(BENCH_TEXTS["two-unknown"]).system
    reports, exact = spencer.acyclicity_scan(sys, sys.n, 2, spencer.stabilization_window(sys))
    assert exact and spencer.sealed_order(sys) == 5
    assert max(r.order for r in reports) == 5
    assert spencer.acyclicity_scan(sys, sys.n, 6, 3) == ([], True)


def test_two_acyclicity_scan_in_one_variable_ranks_no_two_form(tmp_path, capsys):
    # Lambda^2 = 0 when n = 1, so H^2 is zero without a rank; this system's
    # completion used to ask for it and exit 4
    f = tmp_path / "one-variable.pde"
    f.write_text("vars=1; unknowns=2; eq: z1[1,1]=0;", encoding="utf-8")
    assert main(["--report", "json", "analyze", str(f)]) == 0
    assert '"verdict": "formally_integrable"' in capsys.readouterr().out


def test_seal_skips_order_zero():
    # g_0 = 1 < g_1 = 2 with zero cohomology at order 0, where a jet has no
    # class and Cartan's test is undefined; the scan seals at order 1
    sys = parse("vars=2; unknowns=2; eq: z1[]=0;").system
    assert not spencer._passes_cartan(sys, 0)
    assert spencer.acyclicity_scan(sys, 2, 0, 4)[1] and spencer.sealed_order(sys) == 1


def test_curve_frame_is_upper_unitriangular_with_powers_of_two():
    assert [list(map(int, row)) for row in spencer.curve_frame(3).matrix] == [[1, 2, 4], [0, 1, 8], [0, 0, 1]]


def test_stable_order_of_a_sealed_infinite_system_walks_no_slice(monkeypatch):
    from formalpde import pdesystem

    final = complete(parse(CORPUS_TEXTS["example2"]).system).final_system
    assert spencer.sealed_order(final) == 2 and spencer.symbol_dim(final, 2)
    monkeypatch.setattr(pdesystem, "slice_at", lambda sys, order: pytest.fail("slice_at called"))
    with pytest.raises(ValueError, match="not finite type within the window"):
        stable_order(final)


def _spy_tableaux(monkeypatch) -> list:
    calls = []
    tableau = spencer.janet_tableau

    def spy(sys, order, frame=None):
        calls.append((sys, order, frame))
        return tableau(sys, order, frame)

    monkeypatch.setattr(spencer, "janet_tableau", spy)
    return calls


def test_hilbert_of_five_var_builds_no_tableau(tmp_path, capsys, monkeypatch):
    # its symbol shrinks to 0, so no order meets dim g_{o+1} >= dim g_o > 0
    calls = _spy_tableaux(monkeypatch)
    f = tmp_path / "five-var.pde"
    f.write_text(BENCH_TEXTS["five-var"], encoding="utf-8")
    assert main(["--report", "json", "hilbert", "--file", str(f), "--trunc", "8"]) == 0
    capsys.readouterr()
    assert calls == []


def test_seal_passes_no_frame_but_the_identity_to_a_parametric_system(monkeypatch):
    calls = _spy_tableaux(monkeypatch)
    localized = []
    for text in TEXTS.values():
        final = complete(parse(text).system).final_system
        localized += [localize(final, r).system for r in range(2, final.n)]  # r variables left
    for sys in localized:
        complete(sys)
    # example6_third localized at r = 2 fails the identity's count at order 1
    sys = localize(complete(parse(CORPUS_TEXTS["example6_third"]).system).final_system, 2).system
    assert sys.params and sys.n == 2
    assert not spencer._passes_cartan(sys, 1)
    parametric = [(order, frame) for sys, order, frame in calls if sys.params]
    assert (1, None) in parametric
    assert all(frame is None for _, frame in parametric)
