"""Campaign benchmark for singsde.

Run from the repository root:

    python3 perfbench/run.py --workload ladder-14 [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all     # end-to-end table of every workload
    python3 perfbench/run.py --smoke            # tiny path counts: names, units, digests

Each repetition is a ``singsde verify``-shaped campaign (a JSON config into
``run_campaign``, then ``report.json`` read back) in a fresh process, with
OpenBLAS and OpenMP pinned to one thread.  Repetitions run until
``--seconds`` is spent (at least one).  ``--trace 0`` reports the end-to-end
metrics: medians over repetitions, times in reference seconds (README.md
explains them).  ``--trace 1`` alternates untraced and traced repetitions,
adds the layer probes and reports the per-layer metrics.
Campaign outputs go to a fresh directory under ``.perfbench_tmp/`` that is
removed after each repetition.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from campaign import attempted_ops
from spans import layer_metrics

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
CHILD_TIMEOUT_S = 120
PINNED_THREADS = "1"
SMOKE_PATHS = 2
REFINE_PROBE_POWERS = (8, 9, 10, 11)
# Median seconds of campaign.calibrate() on the host the bounds were set on
# (2 cores, Python 3.11.7, numpy 2.4.6).  Times are reported in reference
# seconds: measured seconds * REFERENCE_CAL_S / the calibration time measured
# in the same process, which cancels the host's changes of speed.
REFERENCE_CAL_S = 0.095

CHECK_IDS = (
    "ordering",
    "nested-zero-sets",
    "upper-bound",
    "measure-decay",
    "measure-decay-mean",
    "limit-nonneg",
    "compensator",
    "eps-continuity",
    "contraction",
    "excursion-endpoints",
    "initial-identity",
    "restart-refinement",
)

_SHARED_SPEC = {"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 1.0, "hurst": 0.25}
_SHARED_LADDER = {"eps0": 0.1, "ratio": 0.5, "depth": 10}

# Each workload isolates one layer; README.md records the layer split at the
# frozen seed.  ``expected`` holds the fail counts the frozen seed gives at
# the seed commit: a difference is reported, not counted as a failure, since
# changes to the scheme move results on purpose.
WORKLOADS: dict[str, dict] = {
    "ladder-14": {
        "config": {
            "spec": _SHARED_SPEC,
            "grid": {"horizon": 1.0, "steps": 2**14},
            "ladder": _SHARED_LADDER,
            "checks": [
                "ordering",
                "nested-zero-sets",
                "upper-bound",
                "measure-decay",
                "measure-decay-mean",
                "limit-nonneg",
            ],
        },
        "seed": 12345,
        "paths": 100,
        "expected": {"ordering": 17, "nested-zero-sets": 6},
    },
    "all-checks-11": {
        "config": {
            "spec": {"x0": 0.5, "a": 1.5, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
            "grid": {"horizon": 1.0, "steps": 2**11},
            "ladder": {"eps0": 0.1, "ratio": 0.4, "depth": 8},
            "checks": list(CHECK_IDS),
        },
        "seed": 99,
        "paths": 64,
        "expected": {
            "ordering": 9,
            "nested-zero-sets": 1,
            "upper-bound": 1,
            "compensator": 64,
            "eps-continuity": 5,
        },
    },
    "export-14": {
        "config": {
            "spec": _SHARED_SPEC,
            "grid": {"horizon": 1.0, "steps": 2**14},
            "ladder": _SHARED_LADDER,
            "checks": ["upper-bound"],
            "save_families": True,
        },
        "seed": 12345,
        "paths": 10,
        "expected": {},
    },
}


def _child_env(tmp: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC,
        OPENBLAS_NUM_THREADS=PINNED_THREADS,
        OMP_NUM_THREADS=PINNED_THREADS,
        MKL_NUM_THREADS=PINNED_THREADS,
        TMPDIR=tmp,
    )
    return env


def _run_child(argv: list[str], tmp: str) -> subprocess.CompletedProcess | None:
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=tmp,
            env=_child_env(tmp),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"timed out: {' '.join(argv)}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"exit {proc.returncode}: {' '.join(argv)}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return proc


def run_rep(workload: str, seed: int, paths: int, traced: bool = False) -> dict | None:
    """One fresh workload process; its result, or None when it crashed."""

    tmp = tempfile.mkdtemp(dir=SCRATCH)
    try:
        config = dict(WORKLOADS[workload]["config"])
        config["seeds"] = {"master_seed": seed, "path_count": paths}
        config["output_dir"] = os.path.join(tmp, "out")
        config_path = os.path.join(tmp, "config.json")
        result_path = os.path.join(tmp, "result.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(config, handle)
        argv = [os.path.join(HERE, "campaign.py"), config_path, result_path]
        if _run_child(argv + (["--trace"] if traced else []), tmp) is None:
            return None
        with open(result_path, encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not os.path.abspath(result["singsde_file"]).startswith(SRC + os.sep):
        sys.exit(f"singsde was imported from {result['singsde_file']}, not from {SRC}")
    return result


def run_probes() -> dict[str, tuple[float, str]]:
    """Cold refinement at each probe size and kernel ns/step, each in a fresh process."""

    probes = [["refine", str(power)] for power in REFINE_PROBE_POWERS] + [["kernels"]]
    metrics: dict[str, tuple[float, str]] = {}
    for probe in probes:
        tmp = tempfile.mkdtemp(dir=SCRATCH)
        try:
            proc = _run_child([os.path.join(HERE, "probes.py"), *probe], tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if proc is not None:
            metrics.update(
                (name, tuple(value)) for name, value in json.loads(proc.stdout.splitlines()[-1]).items()
            )
    return metrics


class Tally:
    """Operation accounting and correctness across the repetitions of one run."""

    def __init__(self, workload: str, paths: int) -> None:
        checks = WORKLOADS[workload]["config"]["checks"]
        self.per_rep_ops = attempted_ops(checks, paths)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def add(self, result: dict | None) -> bool:
        """Account one repetition; False when it crashed."""

        if result is None:
            self.attempted += self.per_rep_ops
            self.failed += self.per_rep_ops
            self.problems.append("a workload process crashed")
            return False
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"]
        self.digests.add(result["digest"])
        return True

    @property
    def correct(self) -> bool:
        # One digest per run: repetitions of the same inputs, traced or not,
        # must give the same canonical report.
        return not self.problems and len(self.digests) == 1


def _time_left(started: float, rounds: int, seconds: float) -> bool:
    elapsed = time.perf_counter() - started
    return rounds == 0 or elapsed + elapsed / rounds <= seconds


def _ref_s(result: dict, key: str, cal_key: str = "cal_run_s") -> float:
    return result[key] * REFERENCE_CAL_S / result[cal_key]


def measure(workload: str, seed: int, paths: int, seconds: float) -> tuple[Tally, dict, list[dict]]:
    """Untraced repetitions; each sets up once, so set-up is measured as often."""

    tally = Tally(workload, paths)
    reps: list[dict] = []
    started = time.perf_counter()
    while _time_left(started, len(reps), seconds):
        rep = run_rep(workload, seed, paths)
        if not tally.add(rep):
            break
        reps.append(rep)
    if not reps:
        return tally, {}, reps
    metrics = {
        "wall_s": (statistics.median(_ref_s(r, "wall_s") for r in reps), "s"),
        "cpu_s": (statistics.median(_ref_s(r, "cpu_s") for r in reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "setup_s": (statistics.median(_ref_s(r, "setup_s", "cal_setup_s") for r in reps), "s"),
    }
    return tally, metrics, reps


def measure_traced(workload: str, seed: int, paths: int, seconds: float) -> tuple[Tally, dict, list[dict]]:
    """Layer probes, then pairs of untraced and traced repetitions."""

    tally = Tally(workload, paths)
    started = time.perf_counter()
    metrics = run_probes()
    seconds -= time.perf_counter() - started
    plain: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    while _time_left(started, len(plain), seconds):
        rep = run_rep(workload, seed, paths)
        if not tally.add(rep):
            break
        plain.append(rep)
        rep = run_rep(workload, seed, paths, traced=True)
        if not tally.add(rep):
            break
        traced.append(rep)
    if not traced:
        return tally, {}, plain

    per_rep = [
        layer_metrics(r["spans"], set(r["installed"]), r["wall_s"], r["bytes_written"]) for r in traced
    ]
    for name, (_, unit) in per_rep[0].items():
        metrics[name] = (statistics.median(m[name][0] for m in per_rep), unit)
    for check in CHECK_IDS:
        metrics[f"harness.check.{check}.runtime_s"] = (
            statistics.median(r["runtime_s"].get(check, 0.0) for r in plain),
            "s",
        )
        metrics[f"harness.verdict.{check}.fail_count"] = (plain[0]["verdicts"].get(check, 0), "count")
    metrics["harness.uncharged_frac"] = (
        statistics.median(1.0 - sum(r["runtime_s"].values()) / r["wall_s"] for r in plain),
        "1",
    )
    metrics["trace_overhead_frac"] = (
        statistics.median(_ref_s(r, "wall_s") for r in traced)
        / statistics.median(_ref_s(r, "wall_s") for r in plain)
        - 1.0,
        "1",
    )
    return tally, metrics, plain


def fingerprint() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": PINNED_THREADS,
    }


def describe(workload: str, seed: int, paths: int, tally: Tally, reps: list[dict]) -> None:
    """Human-readable lines: digest, verdict counts, per-repetition times."""

    spec = WORKLOADS[workload]
    print(f"workload {workload}: seed {seed}, {paths} paths, {len(reps)} untraced repetitions")
    if not reps:
        return
    print(f"  report digest {' '.join(sorted(tally.digests))}")
    verdicts = reps[0]["verdicts"]
    print("  fail counts " + " ".join(f"{name}={count}" for name, count in verdicts.items()))
    if seed == spec["seed"] and paths == spec["paths"]:
        expected = {name: spec["expected"].get(name, 0) for name in verdicts}
        print(f"  frozen-seed fail counts {'match' if verdicts == expected else 'DIFFER from'} the seed commit")
    print("  measured wall_s per repetition " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    print("  host speed per repetition " + " ".join(f"{REFERENCE_CAL_S / r['cal_run_s']:.3f}" for r in reps))
    print(f"  failed operations {tally.failed} of {tally.attempted}")
    for problem in sorted(set(tally.problems)):
        print(f"  problem: {problem}")


def result_line(tallies: list[Tally], metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": all(tally.correct for tally in tallies),
            "attempted": sum(tally.attempted for tally in tallies),
            "failed": sum(tally.failed for tally in tallies),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def smoke() -> int:
    """Tiny-path runs: every declared metric is emitted with its unit, digests agree."""

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    ok = True
    for workload in WORKLOADS:
        seed = WORKLOADS[workload]["seed"]
        for key, run in (("end_to_end", measure), ("per_layer", measure_traced)):
            tally, metrics, reps = run(workload, seed, SMOKE_PATHS, 0.0)
            want = {entry["name"]: entry["unit"] for entry in declared[key]}
            got = {name: unit for name, (_, unit) in metrics.items()}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(name for name in set(want) & set(got) if want[name] != got[name])
            passed = tally.correct and not (missing or extra or wrong)
            ok &= passed
            print(
                f"{workload} {key}: {'PASS' if passed else 'FAIL'} "
                f"(digests {sorted(tally.digests)}, problems {tally.problems}, "
                f"missing {missing}, extra {extra}, wrong unit {wrong})"
            )
    print("smoke", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=None, help="campaign master seed (default: frozen)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "singsde", "__init__.py")):
        print(f"no singsde sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        print("environment " + json.dumps(fingerprint()))
        if args.smoke:
            return smoke()
        if args.workload != "all":
            seed = WORKLOADS[args.workload]["seed"] if args.seed is None else args.seed
            paths = WORKLOADS[args.workload]["paths"]
            run = measure_traced if args.trace else measure
            tally, metrics, reps = run(args.workload, seed, paths, args.seconds)
            if not reps:
                print("no repetition completed", file=sys.stderr)
                return 1
            describe(args.workload, seed, paths, tally, reps)
            print(result_line([tally], metrics))
            return 0

        combined: dict[str, tuple[float, str]] = {}
        rows = []
        for workload, spec in WORKLOADS.items():
            seed = spec["seed"] if args.seed is None else args.seed
            tally, metrics, reps = measure(workload, seed, spec["paths"], args.seconds)
            describe(workload, seed, spec["paths"], tally, reps)
            combined.update({f"{workload}.{name}": value for name, value in metrics.items()})
            rows.append((workload, metrics, tally))
        print()
        print(f"{'workload':<14} {'wall_s':>9} {'cpu_s':>9} {'peak_rss_mb':>12} {'setup_s':>9} {'fail_ratio':>11} correct")
        for workload, metrics, tally in rows:
            values = [metrics.get(name, (float("nan"), ""))[0] for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")]
            print(
                f"{workload:<14} {values[0]:>9.3f} {values[1]:>9.3f} {values[2]:>12.1f} {values[3]:>9.3f} "
                f"{tally.failed / max(tally.attempted, 1):>11.4f} {tally.correct}"
            )
        print(result_line([tally for _, _, tally in rows], combined))
        return 0
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
