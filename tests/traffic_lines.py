"""List the lines of the package that no CLI run reaches.

Runs `compare_cli.digests(seeds)`, every CLI report that compare_cli.py
digests, in this process under a `sys.settrace` line tracer, and prints, for
each module of `src/formalpde`, the executable lines that no run reached:

    formalpde/spencer.py: 20 of 265 executable lines not reached
      201: reduced, columns = _symbol_rref(sys, order)
      ...

The executable lines of a module are those of the line tables (`co_lines`)
of its compiled code objects, nested functions and classes included.  The
tracer is installed before the package is imported, so lines that run only
at import (definitions, decorators, constants) count as reached.  A line
listed here runs in none of these reports, so none of their bytes depends on
it: the check a deletion that keeps every report byte needs.

Only the standard library is used.  The tracer makes a run about five times
slower: one seed took 3 min 48 s on a 2-vCPU VM (Python 3.11), against about
47 s untraced.

    PYTHONPATH=src python3 tests/traffic_lines.py 0

Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = (TESTS.parent / "src" / "formalpde").resolve()


def executable_lines(path: Path, source: str) -> set[int]:
    """Line numbers of every instruction of the module's code objects."""
    lines, stack = set(), [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def reached_lines(seeds: list[int]) -> dict[Path, set[int]]:
    """{module file: lines run} over `compare_cli.digests(seeds)`; the package
    is imported, by compare_cli, only once the tracer is installed."""
    reached: dict[Path, set[int]] = {}
    local_tracers: dict = {}  # co_filename -> line tracer of that file, or None

    def line_tracer(hits: set):
        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if path not in local_tracers:
            resolved = Path(path).resolve()
            local_tracers[path] = None
            if resolved.parent == PACKAGE:
                local_tracers[path] = line_tracer(reached.setdefault(resolved, set()))
        local = local_tracers[path]
        if local is not None:
            local(frame, "line", arg)  # the first line of the code object
        return local

    if any(name == "formalpde" or name.startswith("formalpde.") for name in sys.modules):
        raise RuntimeError("formalpde was imported before the tracer")
    sys.path.insert(0, str(TESTS))
    sys.settrace(trace)
    try:
        from compare_cli import digests

        for _ in digests(seeds):
            pass
    finally:
        sys.settrace(None)
    return reached


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="+", type=int, help="frame seeds to run")
    args = parser.parse_args(argv)
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    reached = reached_lines(args.seeds)
    for path, source in sources.items():
        if path.read_text(encoding="utf-8") != source:
            raise RuntimeError(f"{path.name} changed during the run; its line numbers no longer match")
        lines = executable_lines(path, source)
        missed = sorted(lines - reached.get(path, set()))
        text = source.splitlines()
        print(f"formalpde/{path.name}: {len(missed)} of {len(lines)} executable lines not reached")
        for line in missed:
            print(f"  {line}: {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
