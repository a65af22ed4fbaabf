"""One workload process: set up, run one campaign, read its report back.

Usage: ``python3 campaign.py CONFIG RESULT [--trace]``

The process is fresh, so lazy caches are paid as every ``singsde verify``
invocation pays them.  ``setup_s`` covers ``import singsde`` and loading the
config; ``wall_s`` and ``cpu_s`` cover ``run_campaign`` from its call until
the report is written.  A calibration block runs right after set-up and
again after the campaign, outside both windows, so that the caller can
convert the times to reference seconds.  Afterwards the report and the other
outputs are read back and checked, and a JSON result is written to RESULT.
"""

import time

_STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# An exception caught by the runner's isolation path is recorded as
# "<ExceptionType>: <message>"; a check's own FAIL notes never start that way.
_EXCEPTION_NOTE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*: ")
_PATH_PREFIX = re.compile(r"path \d+: ")
_ISOLATION_NOTES = ("family construction failed", "window certification did not stabilize")
_MEAN_CHECK = "measure-decay-mean"


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def calibrate() -> float:
    """Seconds for a fixed block of interpreter, LAPACK and float-formatting work.

    The block mixes the three kinds of work the workloads spend their time
    on: a scalar Python loop (the solver), a dense Cholesky factorization
    (the refinement tables) and float reprs (the CSV export).  It uses no
    singsde code, so a change to the package cannot move it.
    """

    import numpy as np

    rng = np.random.default_rng(0)
    factor = rng.standard_normal((400, 400))
    matrix = factor @ factor.T + 400.0 * np.eye(400)
    floats = rng.standard_normal(20000).tolist()
    np.linalg.cholesky(matrix)
    started = time.perf_counter()
    x = 0.0
    for i in range(300000):
        x = x + i * 0.5 - x * 1e-9
    for _ in range(10):
        np.linalg.cholesky(matrix)
    for _ in range(2):
        ",".join(repr(value) for value in floats)
    return time.perf_counter() - started


def canonical_digest(report: dict) -> str:
    """sha256 of the report without ``generated_at`` and ``runtime_s``.

    The view is the one ``tests/_support.canonical_report`` defines, rendered
    as sorted compact JSON.
    """

    canonical = {key: value for key, value in report.items() if key != "generated_at"}
    canonical["checks"] = {
        name: {key: value for key, value in record.items() if key != "runtime_s"}
        for name, record in report["checks"].items()
    }
    rendered = json.dumps(canonical, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def attempted_ops(checks: list[str], path_count: int) -> int:
    """One per enabled check and path (one for the campaign-wide mean check), one per family build."""

    per_path = [check for check in checks if check != _MEAN_CHECK]
    return path_count * (len(per_path) + 1) + (1 if _MEAN_CHECK in checks else 0)


def check_report(report: dict, checks: list[str], path_count: int) -> tuple[list[str], int]:
    """Structure problems and failed operations.

    An operation fails when the runner's isolation path records it; a check's
    FAIL verdict is a result, not a failure.
    """

    problems: list[str] = []
    if report.get("path_count") != path_count:
        problems.append(f"path_count {report.get('path_count')!r} != {path_count}")
    records = report.get("checks", {})
    if sorted(records) != sorted(checks):
        problems.append(f"checks {sorted(records)} != enabled {sorted(checks)}")
    failed = 0
    broken_builds: set[str] = set()
    for check, record in records.items():
        expected = 1 if check == _MEAN_CHECK else path_count
        if record["pass_count"] + record["fail_count"] != expected:
            problems.append(f"{check}: pass + fail != {expected}")
        if len(record["failures"]) != record["fail_count"]:
            problems.append(f"{check}: {len(record['failures'])} notes for {record['fail_count']} fails")
        for entry in record["failures"]:
            prefix = _PATH_PREFIX.match(entry)
            note = entry[prefix.end():] if prefix else entry
            if note.startswith(_ISOLATION_NOTES[0]):
                broken_builds.add(prefix.group(0) if prefix else entry)
            if note.startswith(_ISOLATION_NOTES) or _EXCEPTION_NOTE.match(note):
                failed += 1
    return problems, failed + len(broken_builds)


def check_families(directory: str, path_count: int, columns: int, rows: int) -> list[str]:
    """Each path's family CSV exists with the expected header and row count."""

    problems: list[str] = []
    for index in range(path_count):
        target = os.path.join(directory, "families", f"path_{index:05d}.csv")
        if not os.path.isfile(target):
            problems.append(f"missing {os.path.basename(target)}")
            continue
        with open(target, "rb") as handle:
            data = handle.read()
        lines = data.split(b"\n")
        body = [line for line in lines if line and not line.startswith(b"#")]
        if not body or len(body[0].split(b",")) != columns or len(body) - 1 != rows:
            problems.append(f"{os.path.basename(target)}: bad shape")
    return problems


def main(argv: list[str]) -> int:
    config_path, result_path = argv[0], argv[1]
    traced = argv[2:] == ["--trace"]

    import singsde
    from singsde.harness import load_config, run_campaign

    config = load_config(config_path)
    setup_s = time.perf_counter() - _STARTED
    cal_setup = calibrate()
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cpu_before = _cpu_s()
    started = time.perf_counter()
    run_campaign(config)
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_s() - cpu_before
    cal_run = (cal_setup + calibrate()) / 2.0

    with open(os.path.join(config.output_dir, "report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    problems, failed = check_report(report, list(config.checks), config.path_count)
    for name in ("checks.csv", "config_echo.json"):
        if not os.path.isfile(os.path.join(config.output_dir, name)):
            problems.append(f"missing {name}")
    if config.save_families:
        problems += check_families(
            config.output_dir,
            config.path_count,
            columns=3 + config.ladder.depth + 1,
            rows=config.grid.step_count + 1,
        )
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_s": setup_s,
        "cal_setup_s": cal_setup,
        "cal_run_s": cal_run,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": (own + children) / 1024.0,
        "digest": canonical_digest(report),
        "verdicts": {name: record["fail_count"] for name, record in report["checks"].items()},
        "runtime_s": {name: record["runtime_s"] for name, record in report["checks"].items()},
        "attempted": attempted_ops(list(config.checks), config.path_count),
        "failed": failed,
        "problems": problems,
        "singsde_file": singsde.__file__,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["installed"] = sorted(tracer.installed)
        result["bytes_written"] = tracer.bytes_written
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
