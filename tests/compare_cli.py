"""Digest every CLI report, for a byte-identity check between two checkouts.

For each seed given on the command line it runs, in this process and in
json and text: `analyze`, `involution`, `inverse`, `purity` and
`hilbert --file --trunc 7` on the 16 corpus texts, the 3 bench inputs, the
six-variable system that reaches the most high-order frame tableaux, the
two-unknown system whose completion needs every derivative of the full
prolongation (z1 = 0 forces z1_13 = 0 and so z2 = 0), and the flat Killing
and conformal Killing systems for n = 2-5 (m = n unknowns, so their
characteristic minors are n x n), and two systems whose completion no
order certifies (`analyze` exits 1 on them, the other commands print one
line), plus `examples run all`, and `involution --order o` on each system
for o = q..q+2 (q its order), whose frame searches run above the input
order.  It also runs the `hilbert --degrees` series paths, with and without
`--file`, and argument lists that exit 3 (a parse error, an unknown corpus
entry, `hilbert` without `--file` or `--degrees`, a zero degree and a
negative truncation).  Each run prints one line,

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
# completion reaches a fixed point, but a projection above q fails in the window
INCONCLUSIVE_TEXTS = {
    "inconclusive1": "vars=2; eq: y[1,2,2]=0; eq: y[2,2]-2*y[1,1,1]=0\n",
    "inconclusive2": "vars=3; unknowns=2; eq: z1[3,3]=0; eq: z1[1,2]-2*z2[1]=0\n",
}
BAD_TEXT = "vars=2; eq: y[1,=0\n"
# (command, system, argv) of the runs outside COMMANDS; {name} is the path of that text
EXTRA_RUNS = [
    ("hilbert-series", "vars3", ["hilbert", "--vars", "3", "--degrees", "3,2", "--trunc", "6"]),
    ("hilbert-degrees", "example3", ["hilbert", "--file", "{example3}", "--degrees", "2,3", "--trunc", "7"]),
    ("hilbert-degrees", "inconclusive1", ["hilbert", "--file", "{inconclusive1}", "--degrees", "3,3"]),
    ("exit3", "parse-error", ["analyze", "{bad}"]),
    ("exit3", "examples-nosuch", ["examples", "run", "nosuch"]),
    ("exit3", "hilbert-no-source", ["hilbert", "--vars", "3"]),
    ("exit3", "degrees-zero", ["hilbert", "--vars", "3", "--degrees", "0", "--trunc", "6"]),
    ("exit3", "trunc-negative", ["hilbert", "--vars", "3", "--degrees", "3,2", "--trunc", "-1"]),
]


def digests(seeds: list[int]):
    """(seed, mode, command, system, digest) of every run, in a fixed order."""
    texts = {**CORPUS_TEXTS, **BENCH_TEXTS, "six-var": SIX_VAR_TEXT, "hidden-zero": HIDDEN_ZERO_TEXT}
    texts.update(INCONCLUSIVE_TEXTS)
    for n in range(2, 6):
        texts[f"killing{n}"] = killing_text(n)
        texts[f"conformal-killing{n}"] = killing_text(n, conformal=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths, orders = {}, {}
        for name, text in texts.items():
            paths[name] = Path(tmp) / f"{name}.pde"
            paths[name].write_text(text, encoding="utf-8")
            orders[name] = parse(text).system.order
        files = {**paths, "bad": Path(tmp) / "bad.pde"}
        files["bad"].write_text(BAD_TEXT, encoding="utf-8")
        for seed in seeds:
            for mode in ("json", "text"):
                flags = ["--seed", str(seed), "--report", mode]
                for command, template in COMMANDS.items():
                    for name, path in paths.items():
                        yield seed, mode, command, name, run_cli(flags + [a.format(file=path) for a in template])
                yield seed, mode, "examples", "all", run_cli(flags + ["examples", "run", "all"])
                for command, name, template in EXTRA_RUNS:
                    yield seed, mode, command, name, run_cli(flags + [a.format(**files) for a in template])
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
