"""Layer probes, each run in a fresh process.

``python3 probes.py refine K``: the first (cold) ``refine_fbm`` call on a
2^K-step path, with its time and ``tracemalloc`` peak.
``python3 probes.py kernels``: ``generate_fbm`` and ``solve_regularized``
ns/step on a 2^14-step grid, medians of warm calls.

Prints one JSON object, ``{name: [value, unit]}``; a probe whose library
function no longer exists prints ``{}``.
"""

import json
import statistics
import sys
import time
import tracemalloc

import singsde as s

_HURST = 0.25
_KERNEL_POWER = 14
_GENERATE_CALLS = 15
_SOLVE_CALLS = 5


def refine(power: int) -> dict:
    if not hasattr(s, "refine_fbm"):
        return {}
    grid = s.TimeGrid(horizon=1.0, step_count=2**power)
    path = s.generate_fbm(grid, s.HurstParam(_HURST), s.SeedRecord(12345, 0))
    tracemalloc.start()
    started = time.perf_counter()
    s.refine_fbm(path)
    first_s = time.perf_counter() - started
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        f"fbm.refine.n{power}.first_s": [first_s, "s"],
        f"fbm.refine.n{power}.alloc_mb": [peak / 2**20, "MB"],
    }


def kernels() -> dict:
    steps = 2**_KERNEL_POWER
    grid = s.TimeGrid(horizon=1.0, step_count=steps)
    hurst = s.HurstParam(_HURST)
    noise = s.generate_fbm(grid, hurst, s.SeedRecord(12345, 0))
    times = []
    for index in range(1, _GENERATE_CALLS + 1):
        started = time.perf_counter()
        s.generate_fbm(grid, hurst, s.SeedRecord(12345, index))
        times.append(time.perf_counter() - started)
    metrics = {f"fbm.generate.n{_KERNEL_POWER}.ns_per_step": [1e9 * statistics.median(times) / steps, "ns"]}
    if hasattr(s, "solve_regularized"):
        spec = s.SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=1.0, hurst=hurst)
        times = []
        for level in range(_SOLVE_CALLS):
            started = time.perf_counter()
            s.solve_regularized(spec, 0.1 * 0.5**level, noise)
            times.append(time.perf_counter() - started)
        metrics[f"sde.solve.n{_KERNEL_POWER}.ns_per_step"] = [1e9 * statistics.median(times) / steps, "ns"]
    return metrics


if __name__ == "__main__":
    probe = refine(int(sys.argv[2])) if sys.argv[1] == "refine" else kernels()
    print(json.dumps(probe))
