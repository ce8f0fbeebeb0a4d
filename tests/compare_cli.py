"""Digest every CLI report, for a byte-identity check between two checkouts.

For each seed given on the command line it runs, in this process and in
json and text: `analyze`, `involution`, `inverse`, `purity` and
`hilbert --file --trunc 7` on the 16 corpus texts, the 3 bench inputs, the
six-variable system that reaches the most high-order frame tableaux, the
two-unknown system whose completion needs every derivative of the full
prolongation (z1 = 0 forces z1_13 = 0 and so z2 = 0), and the flat Killing
and conformal Killing systems for n = 2-5 (m = n unknowns, so their
characteristic minors are n x n), plus `examples run all`, and
`involution --order o` on each system for o = q..q+2 (q its order), whose
frame searches run above the input order.  Each run prints one line,

    <seed> <report mode> <command> <system> <sha256 of stdout, stderr, exit code>

so two checkouts compare with `diff`.  The `formalpde` that is imported is the
first on `PYTHONPATH`; the inputs are this checkout's.  A checkout that still
expands every minor from scratch spends about 10 s per seed and report mode
in `analyze` on the two n = 5 Killing systems.  Against a parent checkout in
../parent:

    PYTHONPATH=src python3 tests/compare_cli.py 0 1 2 > change.txt
    PYTHONPATH=../parent/src python3 tests/compare_cli.py 0 1 2 > parent.txt
    diff parent.txt change.txt && echo identical

Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))

from conftest import BENCH_TEXTS, CORPUS_TEXTS, SIX_VAR_TEXT, killing_text  # noqa: E402
from make_report_pins import COMMANDS, run_cli  # noqa: E402

from formalpde.parser import parse  # noqa: E402

HIDDEN_ZERO_TEXT = "vars=3; unknowns=2; eq: z2[1,1]=0; eq: z1[1,3]-z2[]=0; eq: z1[]=0\n"


def digests(seeds: list[int]):
    """(seed, mode, command, system, digest) of every run, in a fixed order."""
    texts = {**CORPUS_TEXTS, **BENCH_TEXTS, "six-var": SIX_VAR_TEXT, "hidden-zero": HIDDEN_ZERO_TEXT}
    for n in range(2, 6):
        texts[f"killing{n}"] = killing_text(n)
        texts[f"conformal-killing{n}"] = killing_text(n, conformal=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths, orders = {}, {}
        for name, text in texts.items():
            paths[name] = Path(tmp) / f"{name}.pde"
            paths[name].write_text(text, encoding="utf-8")
            orders[name] = parse(text).system.order
        for seed in seeds:
            for mode in ("json", "text"):
                flags = ["--seed", str(seed), "--report", mode]
                for command, template in COMMANDS.items():
                    for name, path in paths.items():
                        yield seed, mode, command, name, run_cli(flags + [a.format(file=path) for a in template])
                yield seed, mode, "examples", "all", run_cli(flags + ["examples", "run", "all"])
                for name, path in paths.items():
                    for order in range(orders[name], orders[name] + 3):
                        argv = flags + ["involution", "--order", str(order), str(path)]
                        yield seed, mode, f"involution-order{order}", name, run_cli(argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, help="frame seeds to run")
    args = parser.parse_args(argv)
    for row in digests(args.seeds):
        print(*row, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
