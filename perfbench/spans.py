"""In-memory span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps singsde's layer functions from outside the package.  Each
function is replaced at every ``singsde.*`` module attribute that binds it,
because callers resolve the name through their own module (``harness`` calls
``singsde.harness.refine_fbm``, ``build_family`` calls
``singsde.ladder.solve_regularized``).  A target that no longer exists is
skipped, and the metrics that need it are left out of the result.

A span is ``(name, start, end, parent, count)``: ``parent`` is the index of
the enclosing span or -1, and ``count`` is the work the call did (steps,
iterations, cells), read from its arguments or result.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Any, Callable

_Count = Callable[[tuple, dict, Any], int]


def _path_steps(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result.values) - 1


def _picard_iterations(args: tuple, kwargs: dict, result: Any) -> int:
    return int(result.iterations)


def _csv_cells(args: tuple, kwargs: dict, result: Any) -> int:
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    return sum(len(data) for _, data in columns)


# (defining module, function) -> (span name, work counter or None)
TARGETS: dict[tuple[str, str], tuple[str, _Count | None]] = {
    ("singsde.fbm", "generate_fbm"): ("fbm.generate", _path_steps),
    ("singsde.fbm", "refine_fbm"): ("fbm.refine", None),
    ("singsde.fbm", "estimate_holder"): ("fbm.holder", None),
    ("singsde.sde", "solve_regularized"): ("sde.solve", _path_steps),
    ("singsde.ladder", "build_family"): ("ladder.build_family", None),
    ("singsde.ladder", "verify_upper_bound"): ("ladder.verify", None),
    ("singsde.ladder", "verify_measure_decay"): ("ladder.verify", None),
    ("singsde.ladder", "verify_nested_zero_sets"): ("ladder.verify", None),
    ("singsde.ladder", "verify_limit_nonnegativity"): ("ladder.verify", None),
    ("singsde.ladder", "nonpositive_measure"): ("ladder.verify", None),
    ("singsde.ladder", "compute_compensator"): ("ladder.verify", None),
    ("singsde.ladder", "compensator_budget"): ("ladder.verify", None),
    ("singsde.ladder", "verify_eps_continuity"): ("ladder.eps_continuity", None),
    ("singsde.picard", "select_delta"): ("picard.select_delta", None),
    ("singsde.picard", "picard_solve"): ("picard.solve", _picard_iterations),
    ("singsde.picard", "fixed_point_residual"): ("picard.residual", None),
    ("singsde.excursions", "residual_window_threshold"): ("excursions.threshold", None),
    ("singsde.excursions", "decompose_excursions"): ("excursions.decompose", None),
    ("singsde.excursions", "verify_endpoint_limits"): ("excursions.endpoints", None),
    ("singsde.excursions", "verify_initial_identity"): ("excursions.initial_identity", None),
    ("singsde.excursions", "restart_residual"): ("excursions.restart_residual", None),
    ("singsde.io", "write_family_csv"): ("io.write_family_csv", None),
    ("singsde.io", "write_csv"): ("io.write_csv", _csv_cells),
}


class Tracer:
    """Records spans of wrapped calls; ``installed`` names the spans it can record."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.bytes_written = 0
        self.installed: set[str] = set()
        self._stack: list[int] = []

    def install(self) -> None:
        import singsde

        for info in pkgutil.iter_modules(singsde.__path__):
            importlib.import_module(f"singsde.{info.name}")
        modules = [m for n, m in sys.modules.items() if n == "singsde" or n.startswith("singsde.")]
        for (module_name, attr), (span, count) in TARGETS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if not callable(original):
                continue
            wrapper = self._wrap(span, original, count)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
            self.installed.add(span)

    def _wrap(self, name: str, fn: Callable, count: _Count | None) -> Callable:
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, 0)
            if count is not None:
                spans[index] = (name, start, end, parent, count(args, kwargs, result))
            target = args[0] if args else kwargs.get("target")
            if name == "io.write_csv" and isinstance(target, (str, os.PathLike)):
                self.bytes_written += os.path.getsize(target)
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""

    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(
    spans: list, installed: set[str], wall_s: float, bytes_written: int
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced campaign: name -> (value, unit).

    Self time is a span's duration minus the time its child spans cover.
    ``harness.self_s`` is the campaign's wall time that no top-level span covers.
    """

    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        children[parent].append((start, end))
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    for index, (name, start, end, _, count) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - _covered(children.get(index, []))
        work[name] += count
    top_level = _covered(children.get(-1, []))

    def layer_self(prefix: str) -> float:
        return sum(value for name, value in self_s.items() if name.startswith(prefix))

    def ns_per_unit(name: str) -> float:
        return 1e9 * self_s[name] / work[name] if work[name] else 0.0

    table: list[tuple[str, float, str, str]] = [
        ("fbm.generate.calls", calls["fbm.generate"], "count", "fbm.generate"),
        ("fbm.generate.self_s", self_s["fbm.generate"], "s", "fbm.generate"),
        ("fbm.generate.ns_per_step", ns_per_unit("fbm.generate"), "ns", "fbm.generate"),
        ("fbm.refine.calls", calls["fbm.refine"], "count", "fbm.refine"),
        ("fbm.refine.self_s", self_s["fbm.refine"], "s", "fbm.refine"),
        ("fbm.holder.self_s", self_s["fbm.holder"], "s", "fbm.holder"),
        ("sde.solve.calls", calls["sde.solve"], "count", "sde.solve"),
        ("sde.solve.steps", work["sde.solve"], "count", "sde.solve"),
        ("sde.solve.self_s", self_s["sde.solve"], "s", "sde.solve"),
        ("sde.solve.ns_per_step", ns_per_unit("sde.solve"), "ns", "sde.solve"),
        ("ladder.build_family.self_s", self_s["ladder.build_family"], "s", "ladder.build_family"),
        ("ladder.verify.self_s", self_s["ladder.verify"], "s", "ladder.verify"),
        ("ladder.eps_continuity.self_s", self_s["ladder.eps_continuity"], "s", "ladder.eps_continuity"),
        ("picard.select_delta.calls", calls["picard.select_delta"], "count", "picard.select_delta"),
        ("picard.iterations", work["picard.solve"], "count", "picard.solve"),
        ("picard.self_s", layer_self("picard."), "s", "picard.solve"),
        ("excursions.windows", calls["excursions.restart_residual"], "count", "excursions.restart_residual"),
        ("excursions.self_s", layer_self("excursions."), "s", "excursions.decompose"),
        ("io.write_csv.calls", calls["io.write_csv"], "count", "io.write_csv"),
        ("io.write_csv.self_s", self_s["io.write_csv"], "s", "io.write_csv"),
        ("io.bytes_written", bytes_written, "B", "io.write_csv"),
        ("io.ns_per_cell", ns_per_unit("io.write_csv"), "ns", "io.write_csv"),
    ]
    metrics = {name: (float(value), unit) for name, value, unit, span in table if span in installed}
    metrics["harness.self_s"] = (wall_s - top_level, "s")
    metrics["harness.span_coverage_frac"] = (top_level / wall_s, "1")
    return metrics
