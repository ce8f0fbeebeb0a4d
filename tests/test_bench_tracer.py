"""The traced benchmark rebinds named library functions; renaming or deleting
one must fail here, not only in `bench/run.py --trace 1`."""

from __future__ import annotations

from pathlib import Path

import formalpde.ratlinalg
import formalpde.spencer

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    originals = (formalpde.ratlinalg.rref, formalpde.spencer.rank, formalpde.spencer.janet_tableau)
    tracer = Tracer()
    try:
        tracer.install()
        assert formalpde.ratlinalg.rref is not originals[0]
    finally:
        tracer.uninstall()
    assert (formalpde.ratlinalg.rref, formalpde.spencer.rank, formalpde.spencer.janet_tableau) == originals
