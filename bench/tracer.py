"""Outside-in layer tracer for formalpde.

The tracer times calls into the public functions of each library module
without touching the package source.  `from .ratlinalg import rref` copies
the binding into the importing module, so each function is rebound in every
`formalpde` module whose namespace holds it; the defining module is rebound
too, so calls inside it (``rank`` -> ``rref``) are seen as well.

Spans nest on a stack.  A span's self time is its duration minus the time of
its child spans; ``total_s`` counts only the outermost span of a name, so a
recursive call is not counted twice.  The tracer's own bookkeeping (matrix
digests, shape and cell counts) runs on a paused clock, so no span, open or
not, is charged for it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

# Functions rebound per module.  Besides the functions that per-layer
# metrics name, the list holds every entry point `cli` and `corpus` call, so
# that the top-level spans cover the traced pass.
LAYERS = {
    "parser": ("parse", "digest"),
    "ratlinalg": ("rref", "rank", "kernel_basis"),
    "pdesystem": (
        "slice_at",
        "equation_matrix",
        "symbol_matrix",
        "change_coordinates",
        "prolonged_equations",
        "prolong",
        "projected_system",
        "first_order_companion",
        "stable_dimension",
        "stable_order",
    ),
    "spencer": (
        "symbol",
        "symbol_dim",
        "delta_matrix",
        "cohomology",
        "janet_tableau",
        "is_involutive_symbol",
        "is_s_acyclic",
    ),
    "completion": (
        "complete",
        "involutive_order",
        "codimension",
        "characteristic_matrix",
        "projection_surjective",
    ),
    "hilbert": ("hilbert_function", "principal_class_series", "compare"),
    "inverse": (
        "generating_sections",
        "derivative_closure_dimension",
        "residue_map",
        "section_basis",
        "spencer_apply",
        "top_generators",
        "socle",
        "multiplication_matrices",
    ),
    "purity": (
        "is_pure",
        "localize",
        "localized_dimension",
        "localized_parametric_jets",
        "localized_generators",
        "torsion_generators",
    ),
}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span and counter store of one traced pass; `reset` starts the next."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.top_s = 0.0
        self._stack: list[list[float]] = []
        self._open: Counter = Counter()
        self.paused_s = 0.0  # bookkeeping time, kept off every span's clock
        self._seen: set[bytes] = set()

    def clock(self) -> float:
        return time.perf_counter() - self.paused_s

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every function in LAYERS; raise if one is missing or unbound."""
        modules = {name: importlib.import_module(f"formalpde.{name}") for name in LAYERS}
        importlib.import_module("formalpde.cli")
        importlib.import_module("formalpde.corpus")
        namespaces = [m for key, m in sys.modules.items() if key == "formalpde" or key.startswith("formalpde.")]
        for layer, names in LAYERS.items():
            for name in names:
                original = getattr(modules[layer], name, None)
                if not callable(original):
                    raise LookupError(f"formalpde.{layer}.{name} does not exist")
                wrapper = self._wrap(f"{layer}.{name}", original)
                rebound = 0
                for module in namespaces:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
                            rebound += 1
                if not rebound:
                    raise LookupError(f"formalpde.{layer}.{name} is bound in no module")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = name.replace(".", "_")
        enter = getattr(self, "_enter_" + hook, None)
        leave = getattr(self, "_leave_" + hook, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = name, None
            if enter is not None:
                paused_at = time.perf_counter()
                span, token = enter(*args, **kwargs)
                self.paused_s += time.perf_counter() - paused_at
            self._stack.append([0.0])
            self._open[span] += 1
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                children = self._stack.pop()[0]
                self._open[span] -= 1
                stats = self.spans.setdefault(span, SpanStats())
                stats.calls += 1
                stats.self_s += duration - children
                if not self._open[span]:
                    stats.total_s += duration
                if self._stack:
                    self._stack[-1][0] += duration
                else:
                    self.top_s += duration
            if leave is not None:
                paused_at = time.perf_counter()
                leave(token, result)
                self.paused_s += time.perf_counter() - paused_at
            return result

        return traced

    # -- bookkeeping hooks (run on the paused clock) -------------------------

    def _enter_ratlinalg_rref(self, matrix, *args, **kwargs):
        kind = "param" if matrix.params else "q"
        hasher = hashlib.blake2b(repr((matrix.rows, matrix.cols, matrix.params)).encode(), digest_size=16)
        for row in matrix.entries:
            hasher.update(repr(row).encode())
        digest = hasher.digest()
        if digest in self._seen:
            self.counts["ratlinalg.rref.repeats"] += 1
        self._seen.add(digest)
        self.counts["ratlinalg.rref.calls"] += 1
        self.counts[f"ratlinalg.rref.{kind}.cells"] += matrix.rows * matrix.cols
        return f"ratlinalg.rref.{kind}", None

    def _enter_spencer_symbol(self, *args, **kwargs):
        return "spencer.symbol", self.counts["ratlinalg.rref.calls"]

    def _leave_spencer_symbol(self, rref_calls_before: int, result) -> None:
        if self.counts["ratlinalg.rref.calls"] == rref_calls_before:
            self.counts["spencer.symbol.hits"] += 1

    def _leave_spencer_delta_matrix(self, token, matrix) -> None:
        self.counts["spencer.delta_matrix.cells"] += matrix.rows * matrix.cols

    def _leave_spencer_is_involutive_symbol(self, token, result) -> None:
        self.counts["spencer.frames_tried"] += result.certificate.frames_tried
