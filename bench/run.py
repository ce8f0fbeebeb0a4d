"""formalpde benchmark: four CLI workloads, end-to-end timings, per-layer traces.

Run from the root of a checkout:

    python3 bench/run.py --workload flagship --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --all              # every workload, both modes, short

A pass calls `formalpde.cli.main` in this process with the workload's
arguments and `--report json`, from the first call into formalpde until the
report is serialised; each pass re-reads and re-parses its input, so no
`LinearSystem._cache` survives from one pass to the next.  Every pass is
checked: exit code 0, the sha256 of the report bytes against the golden of its
frame seed, and the seed-independent values against their goldens.

With `--trace 0` the run times untraced passes for `--seconds` under the
core-speed probe of `probe.py`, cycling through the frame seeds from the
workload seed on, and reports the end-to-end metrics in
seconds at the probe's reference speed.  With `--trace 1` it times one
untraced pass, then traced passes (at least two) for the rest of `--seconds`,
checks that every count repeats exactly from pass to pass, and reports the
per-layer metrics.  The last line of standard output is the result object;
the line before it holds the run's context (commit, Python, nproc, seed,
source line count, samples).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import Probe, REFERENCE_PROBE_S
from tracer import LAYERS, SpanStats, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
INPUTS = BENCH / "inputs"
GOLDENS = BENCH / "goldens.json"

# Goldens hold the report digest of frame seeds 0..FRAME_SEEDS-1.  Pass k of
# an untraced run uses frame seed (seed + k) modulo this count, since the
# frame seed changes the work; every pass of a traced run uses seed modulo
# this count, since its counts must repeat.
FRAME_SEEDS = 8
SETUP_REPEATS = 15
# seconds between probes: a pass lasts seconds, set-up about 0.1 s
PASS_PROBE_INTERVAL = 0.04
SETUP_PROBE_INTERVAL = 0.005

WORKLOADS = {
    # only workload through every layer, incl. the QQ(chi) path, inverse, purity
    "corpus": ("examples", "run", "all"),
    # frame search, duplicate analyses, Hilbert counting on tiny matrices
    "flagship": ("analyze", str(INPUTS / "flagship.pde")),
    # delta-cohomology scan on large delta matrices; little frame search
    "two-unknown": ("involution", str(INPUTS / "two-unknown.pde")),
    # large sparse 0/+-1 eliminations, no frame search, seed-independent
    "five-var-hilbert": ("hilbert", "--file", str(INPUTS / "five-var.pde"), "--trunc", "8"),
}

# Report values that must not depend on the frame seed, per workload.
VALUE_PATHS = {
    "flagship": (
        "hilbert.function",
        "codimension",
        "inverse.finite_dimension",
        "purity.pure",
        "involution.involutive",
        "involution.certificate.nonzero_cohomology",
    ),
    "two-unknown": (
        "involution.involutive",
        "involution.certificate.nonzero_cohomology",
        "involution.certificate.window_limited",
    ),
    "five-var-hilbert": ("function",),
}

END_TO_END = {"wall_adj_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "ratlinalg.rref.q.calls": "count",
    "ratlinalg.rref.q.self_s": "s",
    "ratlinalg.rref.q.cells": "count",
    "ratlinalg.rref.param.calls": "count",
    "ratlinalg.rref.param.self_s": "s",
    "ratlinalg.rref.repeat_ratio": "ratio",
    "ratlinalg.rank.calls": "count",
    "ratlinalg.kernel_basis.calls": "count",
    "pdesystem.slice_at.calls": "count",
    "pdesystem.slice_at.total_s": "s",
    "pdesystem.equation_matrix.self_s": "s",
    "pdesystem.symbol_matrix.self_s": "s",
    "pdesystem.change_coordinates.calls": "count",
    "pdesystem.change_coordinates.self_s": "s",
    "pdesystem.prolonged_equations.self_s": "s",
    "spencer.janet_tableau.calls": "count",
    "spencer.janet_tableau.total_s": "s",
    "spencer.frames_tried": "count",
    "spencer.delta_matrix.calls": "count",
    "spencer.delta_matrix.self_s": "s",
    "spencer.delta_matrix.cells": "count",
    "spencer.cohomology.calls": "count",
    "spencer.cohomology.total_s": "s",
    "spencer.symbol.calls": "count",
    "spencer.symbol.hit_ratio": "ratio",
    "completion.complete.calls": "count",
    "completion.complete.total_s": "s",
    "completion.involutive_order.calls": "count",
    "completion.involutive_order.total_s": "s",
    "completion.codimension.calls": "count",
    "hilbert.hilbert_function.total_s": "s",
    "inverse.generating_sections.total_s": "s",
    "inverse.derivative_closure_dimension.self_s": "s",
    "inverse.residue_map.total_s": "s",
    "purity.is_pure.total_s": "s",
    "purity.localize.calls": "count",
    "purity.torsion_generators.total_s": "s",
    "parser.parse.self_s": "s",
    "trace.covered_ratio": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, missing goldens)."""


def import_formalpde():
    if not (SRC / "formalpde" / "__init__.py").is_file():
        raise BenchError(f"no formalpde sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import formalpde.cli

    return formalpde.cli


def load_goldens() -> dict:
    try:
        return json.loads(GOLDENS.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise BenchError(f"missing goldens: {exc}") from exc


def cli_args(workload: str, frame_seed: int) -> list[str]:
    return ["--seed", str(frame_seed), "--report", "json", *WORKLOADS[workload]]


def report_values(workload: str, report) -> dict:
    """Seed-independent values of one report."""
    if workload == "corpus":
        return {entry["name"]: [c["key"] for c in entry["checks"] if c["ok"]] for entry in report}
    values = {}
    for path in VALUE_PATHS[workload]:
        node = report
        for key in path.split("."):
            node = node[key]
        values[path] = node
    return values


def run_pass(cli, workload: str, frame_seed: int, probe: Probe | None = None) -> dict:
    gc.collect()
    out = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), probe or contextlib.nullcontext():
        code = cli.main(cli_args(workload, frame_seed))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    text = out.getvalue()
    result = {"wall": wall, "cpu": cpu, "code": code, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(), "text": text}
    if probe:
        result["units"], result["durations"] = probe.units(), probe.durations()
    return result


def check_pass(workload: str, frame_seed: int, result: dict, goldens: dict) -> list[str]:
    """Reasons the pass failed; empty when every output matches its golden."""
    golden = goldens["workloads"][workload]
    problems = []
    if result["code"] != 0:
        problems.append(f"exit code {result['code']}")
    if result["sha256"] != golden["sha256"][str(frame_seed)]:
        problems.append("report digest differs from the golden")
    try:
        values = report_values(workload, json.loads(result["text"]))
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    else:
        if values != golden["values"]:
            problems.append("seed-independent values differ from the golden")
    return problems


def measured_pass(cli, workload: str, frame_seed: int, goldens: dict, failures: list, probe: Probe | None) -> dict | None:
    """One checked pass; appends its problems to `failures`, None if it raised."""
    try:
        result = run_pass(cli, workload, frame_seed, probe)
    except Exception as exc:  # any exception is a failed analysis, not a crash of the run
        failures.append(f"exception {exc!r}")
        return None
    problems = check_pass(workload, frame_seed, result, goldens)
    failures.extend(problems)
    result["ok"] = not problems
    return result


SETUP_CODE = """\
import sys
sys.path.insert(0, {bench!r})
from probe import Probe
with Probe({interval}) as probe:
    {body}
import json
print(json.dumps({{"units": probe.units(), "program_s": probe.program_s()}}))
"""


def setup_probe_units(workload: str) -> list[dict]:
    """Fresh interpreters that import formalpde and parse the inputs under the
    probe: the probe units and wall time of each."""
    if workload == "corpus":
        body = "import formalpde.cli; from formalpde import corpus, parse; [parse(t) for t in corpus.TEXTS.values()]"
    else:
        path = next(a for a in WORKLOADS[workload] if a.endswith(".pde"))
        body = f"import formalpde.cli; from formalpde import parse; parse(open({path!r}, encoding='utf-8').read())"
    code = SETUP_CODE.format(bench=str(BENCH), interval=SETUP_PROBE_INTERVAL, body=body)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from bytecode caches, as installed packages have them
    results = []
    for repeat in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        if repeat:  # the first start may write bytecode caches
            results.append(json.loads(proc.stdout.splitlines()[-1]))
    return results


SPANS = {f"{layer}.{name}" for layer, names in LAYERS.items() for name in names}
SPANS |= {"ratlinalg.rref.q", "ratlinalg.rref.param"}


def layer_metrics(tracer: Tracer, pass_wall: float, untraced_wall: float) -> dict:
    spans, counts = tracer.spans, tracer.counts
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name == "ratlinalg.rref.repeat_ratio":
            value = counts["ratlinalg.rref.repeats"] / max(counts["ratlinalg.rref.calls"], 1)
        elif name == "spencer.symbol.hit_ratio":
            value = counts["spencer.symbol.hits"] / max(spans.get("spencer.symbol", SpanStats()).calls, 1)
        elif name == "trace.covered_ratio":
            value = tracer.top_s / (pass_wall - tracer.paused_s)
        elif name == "trace.overhead_s":
            value = pass_wall - untraced_wall
        elif name == "spencer.frames_tried" or field == "cells":
            value = counts[name]
        elif span in SPANS and field in ("calls", "self_s", "total_s"):
            value = getattr(spans.get(span, SpanStats()), field)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        out[name] = value
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    cli = import_formalpde()
    goldens = load_goldens()
    frame_seed = seed % FRAME_SEEDS
    context = {
        "workload": workload,
        "seed": seed,
        "frame_seed": frame_seed,
        "trace": trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.glob("formalpde/*.py")),
    }
    failures: list[str] = []
    passes: list[dict | None] = []

    def timed_pass(probe: Probe | None = None) -> dict | None:
        pass_seed = frame_seed if trace else (seed + len(passes)) % FRAME_SEEDS
        passes.append(measured_pass(cli, workload, pass_seed, goldens, failures, probe))
        return passes[-1]

    if trace:
        metrics, units = traced_run(timed_pass, seconds, failures), PER_LAYER
    else:
        metrics, units = untraced_run(timed_pass, workload, seconds, context), END_TO_END
    context["pass_wall_s"] = [p["wall"] for p in passes if p]
    context["failures"] = failures
    result = {
        "correct": not failures,
        "attempted": len(passes),
        # a count that differs between traced passes fails the run, not a pass
        "failed": max(sum(1 for p in passes if not (p and p["ok"])), 1 if failures else 0),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }
    return context, result


def untraced_run(timed_pass, workload: str, seconds: float, context: dict) -> dict:
    """End-to-end metrics in seconds at the reference probe speed: the mean
    over the probed passes started within `seconds` (at least one), and the
    median over the set-up interpreters.  Raw times go to `context`."""
    setups = setup_probe_units(workload)
    passes = []
    start = time.perf_counter()
    while (result := timed_pass(Probe(PASS_PROBE_INTERVAL))) is not None:
        passes.append(result)
        if time.perf_counter() - start >= seconds:
            break
    if not passes:
        return {}
    durations = sorted(d for p in passes for d in p["durations"])
    context.update(
        probes=len(durations),
        probe_p2_s=durations[len(durations) // 50],
        probe_median_s=statistics.median(durations),
        wall_s=statistics.median(p["wall"] for p in passes),
        cpu_s=statistics.median(p["cpu"] for p in passes),
        setup_raw_s=statistics.median(s["program_s"] for s in setups),
    )
    return {
        "wall_adj_s": statistics.mean(p["units"] for p in passes) * REFERENCE_PROBE_S,
        "setup_s": statistics.median(s["units"] for s in setups) * REFERENCE_PROBE_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(timed_pass, seconds: float, failures: list) -> dict:
    """Per-layer metrics: one untraced pass, then at least two traced passes."""
    start = time.perf_counter()
    untraced = timed_pass()
    if untraced is None:
        return {}
    tracer = Tracer()
    tracer.install()
    samples = []
    try:
        while True:
            tracer.reset()
            result = timed_pass()
            if result is None:
                break
            samples.append(layer_metrics(tracer, result["wall"], untraced["wall"]))
            if len(samples) >= 2 and time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()
    if not samples:
        return {}
    metrics = {}
    for name, unit in PER_LAYER.items():
        values = [s[name] for s in samples]
        if unit != "count":
            metrics[name] = statistics.median(values)
        elif len(set(values)) > 1:
            failures.append(f"{name} differs between traced passes: {values}")
        else:
            metrics[name] = values[0]
    return metrics


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0, help="measuring time of one run (default: one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload in both modes, checked against BENCHMARK.json")
    args = parser.parse_args(argv)
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        if not args.workload:
            parser.error("--workload is required without --all")
        context, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print_table(context, result)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


def print_table(context: dict, result: dict) -> None:
    print(f"{context['workload']} seed={context['seed']} trace={int(context['trace'])} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    for failure in context["failures"]:
        print(f"  FAILED: {failure}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)


def run_all(seed: int, seconds: float) -> int:
    """Run every workload in both modes as the benchmark command does, each in
    its own process; each result must be correct and its metric names and
    units must match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True
            )
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            emitted = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
            if emitted != expected[trace]:
                mismatch = sorted(set(emitted.items()) ^ set(expected[trace].items()))
                print(f"  {workload} trace={trace}: metrics differ from BENCHMARK.json: {mismatch}", file=sys.stderr)
                ok = False
            if not result.get("correct"):
                print(f"  {workload} trace={trace}: FAILED (exit code {proc.returncode})", file=sys.stderr)
                ok = False
    print("all workloads checked" if ok else "FAILED", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
