"""Pin the bytes of every CLI report: sha256 of stdout, stderr and exit code.

The pins cover `analyze`, `involution`, `inverse`, `purity` and
`hilbert --file --trunc 7` on the 16 corpus texts in json and text at seed 0,
and in json at seeds 1-2 on the seed-sensitive systems: example2, example3,
example8 and the two-unknown bench input.  The six-variable system is pinned
in json and text at seed 0, where `purity` localizes it in a frame other than
the identity.
`tests/test_report_pins.py` checks every pin.

Regenerate the pins only for a deliberate report change:

    PYTHONPATH=src python3 tests/make_report_pins.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PINS = TESTS / "report_pins.json"
TWO_UNKNOWN = TESTS.parent / "bench" / "inputs" / "two-unknown.pde"

COMMANDS = {
    "analyze": ["analyze", "{file}"],
    "involution": ["involution", "{file}"],
    "inverse": ["inverse", "{file}"],
    "purity": ["purity", "{file}"],
    "hilbert": ["hilbert", "--file", "{file}", "--trunc", "7"],
}
SEED_SENSITIVE = ("example2", "example3", "example8", "two-unknown")


def texts() -> dict:
    sys.path.insert(0, str(TESTS))
    from conftest import CORPUS_TEXTS, SIX_VAR_TEXT

    return {**CORPUS_TEXTS, "two-unknown": TWO_UNKNOWN.read_text(encoding="utf-8"), "six-var": SIX_VAR_TEXT}


def runs(name: str) -> list[tuple[int, str]]:
    """The (seed, report mode) pairs pinned for one text."""
    pairs = [] if name == "two-unknown" else [(0, "json"), (0, "text")]
    if name in SEED_SENSITIVE:
        pairs += [(1, "json"), (2, "json")]
    return pairs


def run_cli(argv: list[str]) -> str:
    """sha256 of stdout, stderr and exit code of one in-process CLI run."""
    from formalpde.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    payload = json.dumps([out.getvalue(), err.getvalue(), code])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def pins_for(name: str, path: Path) -> dict:
    """{"command/seed/mode": digest} for every pinned run of one text at `path`."""
    pins = {}
    for seed, mode in runs(name):
        for command, template in COMMANDS.items():
            args = [a.format(file=path) for a in template]
            pins[f"{command}/{seed}/{mode}"] = run_cli(["--seed", str(seed), "--report", mode] + args)
    return pins


def main() -> None:
    import tempfile

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in texts().items():
            path = Path(tmp) / f"{name}.pde"
            path.write_text(text, encoding="utf-8")
            out[name] = pins_for(name, path)
    PINS.write_text(json.dumps(out, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, out.values()))} pins for {len(out)} texts to {PINS}")


if __name__ == "__main__":
    main()
