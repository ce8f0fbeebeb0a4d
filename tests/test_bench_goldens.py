"""Every benchmark workload must reproduce its golden report bytes; checked
here so that `pytest` guards the byte-identical rule, not only the benchmark.

A workload's report digest depends on the frame seed only where the goldens
differ between seeds, so each distinct golden is checked once.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import formalpde.cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

CASES = [("corpus", 0), ("flagship", 0), ("five-var-hilbert", 0)] + [("two-unknown", s) for s in range(8)]


@pytest.mark.parametrize("workload,frame_seed", CASES)
def test_bench_pass_matches_golden(workload, frame_seed, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from run import check_pass, load_goldens, run_pass

    goldens = load_goldens()
    distinct = set(goldens["workloads"][workload]["sha256"].values())
    assert len(distinct) == (8 if workload == "two-unknown" else 1)
    result = run_pass(formalpde.cli, workload, frame_seed)
    assert check_pass(workload, frame_seed, result, goldens) == []
