"""Write bench/goldens.json from the current program.

    python3 bench/make_goldens.py

For every workload and frame seed 0..FRAME_SEEDS-1 it runs one pass and
stores the sha256 of the `--report json` bytes, plus the report values that
must not depend on the seed.  It refuses to write when a pass exits non-zero
or when those values differ between seeds.  Regenerate only for a change that
is meant to alter report bytes, and say so where the change is described.
"""

from __future__ import annotations

import json
import sys

from run import FRAME_SEEDS, GOLDENS, WORKLOADS, import_formalpde, report_values, run_pass


def main() -> int:
    cli = import_formalpde()
    goldens = {"frame_seeds": FRAME_SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        digests, values = {}, None
        for frame_seed in range(FRAME_SEEDS):
            result = run_pass(cli, workload, frame_seed)
            if result["code"] != 0:
                print(f"{workload} seed {frame_seed}: exit code {result['code']}", file=sys.stderr)
                return 1
            seen = report_values(workload, json.loads(result["text"]))
            if values is not None and seen != values:
                print(f"{workload} seed {frame_seed}: seed-independent values differ", file=sys.stderr)
                return 1
            values = seen
            digests[str(frame_seed)] = result["sha256"]
            print(f"{workload} seed {frame_seed}: {result['wall']:.2f} s {result['sha256'][:12]}", file=sys.stderr)
        goldens["workloads"][workload] = {"sha256": digests, "values": values}
    GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
