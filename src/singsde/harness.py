"""Reproducible verification campaigns over the whole laboratory.

A campaign is described by a strict JSON config (unknown keys are rejected so
a config is a complete, machine-checkable record of an experiment).  For each
path index the runner derives the path's noise from (master_seed, path_index),
builds the regularization ladder, and runs every enabled check; failures are
aggregated by count, never raised, so one bad path cannot hide the others.
A record is final where it is computed: ``contraction`` reads only the seeds
and runs before the family build, so a path whose family cannot be built fails
the checks that read a family and keeps its contraction record.  A check's
``runtime_s`` counts its own work; the family build is charged to no check.
The outcome is a :class:`VerificationReport` written as JSON plus delimited
artifacts, all stamped with the config's hash.  Report content is a pure
function of the config content: rerunning the same config reproduces the
report byte for byte except for the timestamp and runtime fields.

The one configurable tolerance is ``tol_mono``, the rounding slack of the
shared-noise ordering; setting it to 0 is the documented negative control.
Every other pass rule compares against a fixed constant kept beside the check
that reads it (``ladder.DEFAULT_TOL_BOUND`` and ``DEFAULT_TOL_NONNEG``, the
``excursions`` defaults, and the private constants below), and each record
reports the tolerance it used.

The campaign fails (``overall_pass`` false, nonzero CLI status) iff some
check's failure count exceeds its allowance: a fixed fraction of the path
count (``_ALLOWANCES``), 5% for the correction-process check and none for
every other check.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from .excursions import (
    DEFAULT_MARGIN_STEPS,
    ExcursionSet,
    decompose_excursions,
    residual_window_threshold,
    restart_residual,
    verify_endpoint_limits,
    verify_initial_identity,
)
from .fbm import (
    FbmPath,
    HurstParam,
    SeedRecord,
    TimeGrid,
    _block_rows,
    _circulant_weights,
    _generate_block,
    estimate_holder,
    refine_fbm,
    zero_path,
)
from .io import FORMAT_VERSION, write_csv, write_family_csv
from .ladder import (
    DEFAULT_TOL_BOUND,
    DEFAULT_TOL_MONO,
    DEFAULT_TOL_NONNEG,
    EpsilonFamily,
    EpsilonLadder,
    build_families,
    compensator_budget,
    compute_compensator,
    nonpositive_measure,
    verify_limit_nonnegativity,
    verify_measure_decay,
    verify_nested_zero_sets,
    verify_upper_bound,
)
from .picard import (
    DeltaCertificate,
    InfeasibleProblemError,
    LocalProblem,
    PicardResult,
    _solve_block,
    select_delta,
)
from .sde import SdeSpec, SolverError, solve_regularized

__all__ = [
    "CHECK_ORDER",
    "CHECK_STATEMENTS",
    "DEFAULT_TOLERANCES",
    "OUTPUT_DIR_ENV",
    "CheckRecord",
    "ExperimentConfig",
    "VerificationReport",
    "config_digest",
    "config_from_dict",
    "load_config",
    "render_report_table",
    "run_campaign",
]

OUTPUT_DIR_ENV = "SINGSDE_OUTPUT_DIR"
_DEFAULT_OUTPUT_DIR = "singsde-out"

REPORT_FORMAT_VERSION = 1

# One-sentence statement of the property each check verifies, in canonical
# execution order (also the order records appear in reports).
CHECK_STATEMENTS: dict[str, str] = {
    "ordering": (
        "Under shared noise, solutions increase at every node as the "
        "regularization level decreases, up to tol_mono."
    ),
    "nested-zero-sets": (
        "Nonpositive-node sets are exactly nested: each deeper level's set "
        "is contained in the shallower level's."
    ),
    "upper-bound": (
        "Every ladder level stays below x0 + a*T^{2H}/(H*x0) + "
        "2*sigma*sup|B| plus tol_bound."
    ),
    "measure-decay": (
        "The time measure of the nonpositive set never increases from one "
        "ladder level to the next."
    ),
    "measure-decay-mean": (
        "Averaged over the campaign, the deepest level's nonpositive "
        "measure falls strictly below level 0's whenever the latter is "
        "positive."
    ),
    "limit-nonneg": (
        "The limit estimate never drops below -(cauchy_gap + tol_nonneg)."
    ),
    "compensator": (
        "The correction process closing the integral identity stays above "
        "minus its error budget (and pins to 0 within the budget under zero "
        "noise)."
    ),
    "eps-continuity": (
        "Sup-gaps from symmetric regularization shifts shrink monotonically "
        "on both sides and fall to a quarter of the initial gap as the "
        "shift halves twice."
    ),
    "contraction": (
        "On a certified initial window the integral map contracts no slower "
        "than its certified modulus plus slack, converges within its "
        "predicted budget, and its fixed point matches the ladder limit "
        "within cauchy_gap + consistency_extra."
    ),
    "excursion-endpoints": (
        "Boundary values of the limit estimate's excursions sit within the "
        "nonnegativity budget of zero."
    ),
    "initial-identity": (
        "On the initial positive window the limit estimate satisfies the "
        "integral identity with its initial-value term, within the "
        "quadrature budget."
    ),
    "restart-refinement": (
        "On each zero-anchored excursion window with enough interior nodes, "
        "the restarted identity residual does not grow under nested twofold "
        "grid refinement."
    ),
}
CHECK_ORDER = tuple(CHECK_STATEMENTS)

# The campaign's one tolerance.  tol_mono accepts 0 deliberately: a zero
# tolerance is the documented negative control for rounding-scale effects.
DEFAULT_TOLERANCES: dict[str, float] = {"tol_mono": DEFAULT_TOL_MONO}

# Fraction of paths allowed to fail per check; unlisted checks allow none.
# The map enters the config hash, so a change to it changes every digest.
_ALLOWANCES: dict[str, float] = {"compensator": 0.05}

_CONTRACTION_MAX_RECERTIFICATIONS = 24
_CONTRACTION_INITIAL_WINDOW = 0.5
_HOLDER_EXPONENT_FRACTION = 0.5  # certificate exponent beta = H/2
_WINDOW_LADDER_EXTRA_LEVELS = 4
_WINDOW_LADDER_MAX_DEPTH = 64
_CONTRACTION_WINDOW_STEPS = 256
_CONTRACTION_BLOCK_PATHS = 64  # paths whose contraction checks run as one block
_CONTRACTION_SLACK = 0.05  # allowed excess of a measured ratio over the modulus
_PICARD_TOLERANCE = 1e-10
_CONSISTENCY_EXTRA = 1e-3  # fixed point vs window ladder limit, beyond the Cauchy gap
# eps-continuity solves at eps* and eps* +/- eps* 2^-k for k = 1..3.
_EPS_STAR = 0.05
_EPS_CONTINUITY = (_EPS_STAR, tuple(_EPS_STAR * 0.5**k for k in range(1, 4)))
_MIN_WINDOW_NODES = 20  # restart-refinement: shortest excursion it evaluates, >= 2 * margin + 2


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _section(
    name: str, data: Any, allowed: tuple[str, ...], required: tuple[str, ...] | None = None
) -> Mapping[str, Any]:
    """``data`` as a mapping with the ``required`` keys (default: all) and no others."""

    if not isinstance(data, Mapping):
        raise ValueError(f"{name} must be a mapping, got {type(data).__name__}")
    missing = sorted(set(allowed if required is None else required) - set(data))
    if missing:
        raise ValueError(f"missing {name} keys: {', '.join(missing)}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {name} keys: {', '.join(unknown)}")
    return data


def _as_float(section: str, key: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{section}.{key} must be a number, got {value!r}")
    return float(value)


def _as_int(section: str, key: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{section}.{key} must be an integer, got {value!r}")
    return value


def _validated_tolerances(raw: Mapping[str, Any] | None) -> dict[str, float]:
    merged = dict(DEFAULT_TOLERANCES)
    if raw is None:
        return merged
    for key, value in _section("tolerances", raw, tuple(DEFAULT_TOLERANCES), ()).items():
        parsed = _as_float("tolerances", key, value)
        if not math.isfinite(parsed):
            raise ValueError(f"tolerances.{key} must be finite, got {parsed}")
        if parsed < 0.0:
            raise ValueError(f"tolerances.{key} must be nonnegative, got {parsed}")
        merged[key] = parsed
    return merged


@dataclass
class ExperimentConfig:
    """Complete, validated description of one verification campaign.

    ``tolerances`` is the fully materialized map ``{"tol_mono": ...}``;
    ``checks`` is the enabled subset in canonical order.  ``zero_noise``
    switches every driver to the deterministic zero path, turning the
    campaign into a composition of closed-form oracles.  Construction is the
    one validation pass; a partial (or None) tolerance map is merged over the
    defaults.
    """

    spec: SdeSpec
    grid: TimeGrid
    ladder: EpsilonLadder
    master_seed: int
    path_count: int
    tolerances: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    output_dir: str = _DEFAULT_OUTPUT_DIR
    checks: tuple[str, ...] = CHECK_ORDER
    zero_noise: bool = False
    save_families: bool = False

    def __post_init__(self) -> None:
        for name, kind in (("spec", SdeSpec), ("grid", TimeGrid), ("ladder", EpsilonLadder)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        # domain check on the seed; a numpy integer becomes an int
        self.master_seed = SeedRecord(self.master_seed, 0).master_seed
        count = self.path_count
        if isinstance(count, bool) or not (isinstance(count, int) and count >= 1):
            raise ValueError(f"path_count must be a positive integer, got {count!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        for flag in ("zero_noise", "save_families"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be a boolean, got {getattr(self, flag)!r}")
        if not isinstance(self.checks, (list, tuple)) or not all(
            isinstance(item, str) for item in self.checks
        ):
            raise ValueError("checks must be a list of check ids")
        unknown = sorted(set(self.checks) - set(CHECK_ORDER))
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}")
        if len(set(self.checks)) != len(self.checks):
            raise ValueError("checks must not repeat")
        if not self.checks:
            raise ValueError("at least one check must be enabled")
        self.checks = tuple(check for check in CHECK_ORDER if check in self.checks)
        self.tolerances = _validated_tolerances(self.tolerances)

    def allowed_failures(self, check: str) -> int:
        return math.floor(_ALLOWANCES.get(check, 0.0) * self.path_count)


_TOP_LEVEL_REQUIRED = ("spec", "grid", "ladder", "seeds")
_TOP_LEVEL_OPTIONAL = (
    "tolerances",
    "output_dir",
    "checks",
    "zero_noise",
    "save_families",
)


def config_from_dict(data: Mapping[str, Any]) -> ExperimentConfig:
    """Build a validated config from parsed JSON; unknown keys are errors."""

    _section("config", data, _TOP_LEVEL_REQUIRED + _TOP_LEVEL_OPTIONAL, _TOP_LEVEL_REQUIRED)

    spec_data = _section("spec", data["spec"], ("x0", "a", "b", "sigma", "hurst"))
    spec = SdeSpec(
        x0=_as_float("spec", "x0", spec_data["x0"]),
        a=_as_float("spec", "a", spec_data["a"]),
        b=_as_float("spec", "b", spec_data["b"]),
        sigma=_as_float("spec", "sigma", spec_data["sigma"]),
        hurst=HurstParam(_as_float("spec", "hurst", spec_data["hurst"])),
    )

    grid_data = _section("grid", data["grid"], ("horizon", "steps"))
    grid = TimeGrid(
        horizon=_as_float("grid", "horizon", grid_data["horizon"]),
        step_count=_as_int("grid", "steps", grid_data["steps"]),
    )

    ladder_data = _section("ladder", data["ladder"], ("eps0", "ratio", "depth"))
    ladder = EpsilonLadder(
        eps0=_as_float("ladder", "eps0", ladder_data["eps0"]),
        ratio=_as_float("ladder", "ratio", ladder_data["ratio"]),
        depth=_as_int("ladder", "depth", ladder_data["depth"]),
    )

    seeds_data = _section("seeds", data["seeds"], ("master_seed", "path_count"))

    checks = data.get("checks")
    output_dir = data.get("output_dir")
    if output_dir is None:
        output_dir = os.environ.get(OUTPUT_DIR_ENV, _DEFAULT_OUTPUT_DIR)

    return ExperimentConfig(
        spec=spec,
        grid=grid,
        ladder=ladder,
        master_seed=_as_int("seeds", "master_seed", seeds_data["master_seed"]),
        path_count=seeds_data["path_count"],
        tolerances=data.get("tolerances"),
        output_dir=output_dir,
        checks=CHECK_ORDER if checks is None else checks,
        zero_noise=data.get("zero_noise", False),
        save_families=data.get("save_families", False),
    )


def load_config(path: str | os.PathLike[str]) -> ExperimentConfig:
    """Read and validate a JSON config file; a ``ValueError`` names the file."""

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ValueError("config file must contain a JSON object")
        return config_from_dict(data)
    except ValueError as exc:
        raise ValueError(f"invalid config {os.fspath(path)}: {exc}") from exc


def _semantic_config_dict(config: ExperimentConfig) -> dict[str, Any]:
    """The content that determines results (location and export flags excluded)."""

    return {
        "spec": {
            "x0": config.spec.x0,
            "a": config.spec.a,
            "b": config.spec.b,
            "sigma": config.spec.sigma,
            "hurst": config.spec.hurst.value,
        },
        "grid": {"horizon": config.grid.horizon, "steps": config.grid.step_count},
        "ladder": {
            "eps0": config.ladder.eps0,
            "ratio": config.ladder.ratio,
            "depth": config.ladder.depth,
        },
        "seeds": {"master_seed": config.master_seed, "path_count": config.path_count},
        "tolerances": dict(sorted(config.tolerances.items())),
        "allowances": dict(sorted(_ALLOWANCES.items())),
        "checks": list(config.checks),
        "zero_noise": config.zero_noise,
    }


def config_digest(config: ExperimentConfig) -> str:
    """sha256 over the canonical JSON rendering of the semantic config content."""

    canonical = json.dumps(
        _semantic_config_dict(config), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# report structures
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    """Aggregated outcome of one check across the campaign.

    ``worst_violation`` is the largest measured excess (negative values mean
    margin); None when no numeric measurement was produced (for instance only
    vacuous windows).  Pass/fail is decided per path by the check itself and
    aggregated by count — the campaign verdict compares ``fail_count``
    against ``allowed_failures``.
    """

    check: str
    statement: str
    pass_count: int
    fail_count: int
    allowed_failures: int
    worst_violation: float | None
    tolerance: float
    runtime_s: float
    failures: tuple[str, ...]

    @property
    def within_allowance(self) -> bool:
        return self.fail_count <= self.allowed_failures

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "statement": self.statement,
            "pass_count": self.pass_count,
            "fail_count": self.fail_count,
            "allowed_failures": self.allowed_failures,
            "worst_violation": self.worst_violation,
            "tolerance": self.tolerance,
            "runtime_s": self.runtime_s,
            "failures": list(self.failures),
        }


@dataclass
class VerificationReport:
    """Campaign outcome: per-check records plus the package version.

    The package version is the only environment detail recorded; the Python
    and numpy versions and the host are not.
    """

    version: str
    config_hash: str
    master_seed: int
    path_count: int
    generated_at: str
    checks: dict[str, CheckRecord]
    overall_pass: bool

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "format_version": REPORT_FORMAT_VERSION,
            "package_version": self.version,
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "path_count": self.path_count,
            "generated_at": self.generated_at,
            "overall_pass": self.overall_pass,
            "checks": {check: record.to_json_dict() for check, record in self.checks.items()},
        }


def _package_version() -> str:
    from . import __version__

    return __version__


# ---------------------------------------------------------------------------
# per-path checks
# ---------------------------------------------------------------------------


@dataclass
class _PathContext:
    """Everything one path's checks share; the excursions are lazy."""

    index: int
    family: EpsilonFamily
    excursions: ExcursionSet | None = None
    restart_sup: dict[int, float] = field(default_factory=dict)

    def ensure_excursions(self) -> ExcursionSet:
        if self.excursions is None:
            self.excursions = decompose_excursions(
                self.family.limit_row, self.family.grid, residual_window_threshold(self.family)
            )
        return self.excursions


_CheckResult = tuple[bool, "float | None", "str | None"]


def _exception_note(exc: Exception) -> str:
    """The note a path's failure records for an exception: ``<Type>: <message>``."""

    return f"{type(exc).__name__}: {exc}"


def _check_ordering(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    family = ctx.family
    passed = family.mono_violation_count == 0
    note = None if passed else f"{family.mono_violation_count} nodes beyond tol_mono"
    return passed, family.mono_worst_deficit, note


def _check_nested_zero_sets(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    nested, break_level = verify_nested_zero_sets(ctx.family)
    note = None if nested else f"containment breaks entering level {break_level}"
    return nested, 0.0 if nested else 1.0, note


def _check_upper_bound(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    cert = verify_upper_bound(ctx.family)
    note = None if cert.passes else f"exceeds bound {cert.bound:.6g} by {cert.max_violation:.3e}"
    return cert.passes, cert.max_violation, note


def _check_measure_decay(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    result = verify_measure_decay(ctx.family)
    increases = [b - a for a, b in zip(result.per_level[:-1], result.per_level[1:])]
    violation = max(increases) if increases else 0.0
    note = None if result.passes else (
        f"measure increases by {violation:.3e} between adjacent levels"
    )
    return result.passes, violation, note


def _check_limit_nonneg(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    family = ctx.family
    result = verify_limit_nonnegativity(family)
    violation = -result.worst_value - family.cauchy_gap
    note = None if result.passes else (
        f"limit estimate reaches {result.worst_value:.6g} at node {result.worst_index}"
    )
    return result.passes, violation, note


def _check_compensator(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    family = ctx.family
    estimate = compute_compensator(family)
    budget = compensator_budget(family, estimate)
    if config.zero_noise:
        measured = float(np.abs(estimate.values).max())
        label = "max |correction|"
    else:
        measured = float(-estimate.values.min())
        label = "negative part of correction"
    violation = measured - budget
    passed = violation <= 0.0
    note = None if passed else f"{label} {measured:.3e} exceeds budget {budget:.3e}"
    return passed, violation, note


def _check_eps_continuity(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    # The levels were solved in the step loop of the family's chunk (see _path_families).
    result = ctx.family.eps_continuity
    if isinstance(result, SolverError):
        raise result
    plus = [row[1] for row in result.rows]
    minus = [row[2] for row in result.rows]
    breaches = [b - a for a, b in zip(plus[:-1], plus[1:])]
    breaches += [b - a for a, b in zip(minus[:-1], minus[1:])]
    violation = max(max(breaches), result.last_gap - result.first_gap / 4.0)
    note = None
    if not result.both_nonincreasing:
        note = "a one-sided gap sequence increased"
    elif not result.passes:
        note = (
            f"final gap {result.last_gap:.3e} exceeds a quarter of the "
            f"first gap {result.first_gap:.3e}"
        )
    return result.passes, violation, note


def _window_ladder(ladder: EpsilonLadder, window_dt: float) -> EpsilonLadder:
    """Deepen the ladder until its deepest level is far below the window step.

    The window ladder is never shallower than the campaign's.  Needing more
    levels than the cap, which bounds memory, raises ``ValueError``, also
    when the campaign's ladder alone is deeper than the cap.
    """

    crossing = math.log(window_dt / ladder.eps0) / math.log(ladder.ratio)
    depth = max(ladder.depth, math.ceil(crossing) + _WINDOW_LADDER_EXTRA_LEVELS)
    if depth > _WINDOW_LADDER_MAX_DEPTH:
        raise ValueError(
            f"the window ladder needs depth {depth} to reach below the window step "
            f"{window_dt:.3g}, above the cap {_WINDOW_LADDER_MAX_DEPTH}"
        )
    return EpsilonLadder(ladder.eps0, ladder.ratio, depth)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drivers(
    config: ExperimentConfig, grids: list[TimeGrid], indices: list[int], substream: int
) -> Iterator[FbmPath | Exception]:
    """Each path's driver on its grid, in order: the zero path, or a draw on ``substream``.

    The grids share one step count.  Draws go in blocks of ``_block_rows``
    paths; a block whose draw raises yields that exception for each of its
    paths.  With at least two CPUs and two blocks, one helper thread draws
    the odd blocks while the calling thread draws the even ones, so block
    2k + 1 is drawn beside block 2k.  The helper starts a block only once the
    block two before it has been handed out, so no draw runs more than one
    block ahead of the consumer.  Every path has its own counter-based
    stream and a row of a block does not depend on its neighbours, so the
    paths are bit-identical to a draw on one thread, and they are handed out
    in index order.  Closing the generator stops the helper and joins it.
    """

    seeds = [SeedRecord(config.master_seed, index) for index in indices]
    hurst = config.spec.hurst
    if config.zero_noise:
        yield from (zero_path(grid, hurst, seed) for grid, seed in zip(grids, seeds))
        return
    size = _block_rows(grids[0].step_count) if grids else 1
    blocks = [slice(start, start + size) for start in range(0, len(seeds), size)]

    def draw(block: slice) -> list[FbmPath] | list[Exception]:
        try:
            return _generate_block(grids[block], hurst, seeds[block], substream)
        except Exception as exc:  # noqa: BLE001 - each path of the block records it
            return [exc] * len(seeds[block])

    if len(blocks) < 2 or _available_cpus() < 2:
        for block in blocks:
            yield from draw(block)
        return
    try:  # cached here, so the two threads never compute the weights twice
        _circulant_weights(grids[0].step_count, hurst.value)
    except Exception:  # noqa: BLE001 - each block's draw raises it again and records it
        pass
    turn = threading.Semaphore(1)  # the helper may start its next block
    ready = threading.Semaphore(0)  # a helper block waits in ``drawn``
    stop = threading.Event()
    drawn: deque[list[FbmPath] | list[Exception]] = deque()

    def helper() -> None:
        for block in blocks[1::2]:
            turn.acquire()
            if stop.is_set():
                return
            drawn.append(draw(block))
            ready.release()

    # a daemon, so a generator that is never closed cannot hold up interpreter exit
    thread = threading.Thread(target=helper, name="singsde-draw", daemon=True)
    thread.start()
    try:
        for position, block in enumerate(blocks):
            if position % 2 == 0:
                yield from draw(block)
            else:
                ready.acquire()
                yield from drawn.popleft()
                turn.release()
    finally:
        stop.set()
        turn.release()
        thread.join()


def _certified_windows(
    config: ExperimentConfig, indices: range, records: dict[int, _CheckResult]
) -> dict[int, tuple[LocalProblem, DeltaCertificate]]:
    """Each path's certified (problem, certificate); a path's failure goes into ``records``.

    Each round draws, scans (driver ``spec.sigma * noise``) and selects the
    horizons of every path still certifying as one block; a path whose
    horizon does not cover its trial window retries on that horizon.  A
    window still shrinking after ``_CONTRACTION_MAX_RECERTIFICATIONS``
    rounds is its path's failure.  A failure of a round's shared scan or
    selection propagates.
    """

    spec = config.spec
    beta = _HOLDER_EXPONENT_FRACTION * spec.hurst.value
    certified: dict[int, tuple[LocalProblem, DeltaCertificate]] = {}
    windows = dict.fromkeys(indices, _CONTRACTION_INITIAL_WINDOW)
    for _ in range(_CONTRACTION_MAX_RECERTIFICATIONS):
        grids = [TimeGrid(window, _CONTRACTION_WINDOW_STEPS) for window in windows.values()]
        drivers: dict[int, FbmPath] = {}
        for index, driver in zip(windows, _drivers(config, grids, list(windows), 2), strict=True):
            if isinstance(driver, Exception):
                records[index] = (False, None, _exception_note(driver))
            else:
                drivers[index] = driver
        if not drivers:  # every draw failed; a scan of no rows would raise
            return certified
        holders = estimate_holder(
            np.array([spec.sigma * driver.values for driver in drivers.values()]),
            [driver.grid for driver in drivers.values()],
            beta,
        )
        problems: dict[int, LocalProblem] = {}
        for (index, driver), holder in zip(drivers.items(), holders):
            try:
                problems[index] = LocalProblem(spec, driver, holder)
            except Exception as exc:  # noqa: BLE001 - the failure is this path's own
                records[index] = (False, None, _exception_note(exc))
        shrunk: dict[int, float] = {}
        certificates = select_delta(list(problems.values()))
        for (index, problem), certificate in zip(problems.items(), certificates):
            if isinstance(certificate, InfeasibleProblemError):
                records[index] = (False, None, _exception_note(certificate))
            elif certificate.delta >= windows[index] * (1.0 - 1e-12):
                certified[index] = problem, certificate
            else:
                shrunk[index] = certificate.delta
        windows = shrunk
    for index in windows:
        records[index] = (False, None, "window certification did not stabilize")
    return certified


def _contraction_block(config: ExperimentConfig, indices: range) -> list[_CheckResult]:
    """The contraction record of each path in ``indices``; an exception is its note.

    The window driver is a fresh draw on substream 2, not the campaign path
    restricted to the window, so the check certifies the equation locally,
    not the path's own solution.  Each round of :func:`_certified_windows`
    draws the block's window drivers as one block; Picard then iterates
    every certified window together (``picard._solve_block``), each path
    keeping the log it would get alone.  Each path's window ladder depends
    on its certified window's step, and the window families of the whole
    block are one :func:`build_families` call, with one ladder per path.
    Every path keeps the record it would get on its own.
    """

    spec = config.spec
    records: dict[int, _CheckResult] = {}
    problems = _certified_windows(config, indices, records)
    results = _solve_block(
        [problem for problem, _ in problems.values()],
        [certificate for _, certificate in problems.values()],
        _PICARD_TOLERANCE,
    )
    solved: dict[int, tuple[EpsilonLadder, PicardResult]] = {}
    for (index, (problem, _)), result in zip(problems.items(), results):
        if isinstance(result, Exception):
            records[index] = (False, None, _exception_note(result))
            continue
        try:
            # The ladder limit is only trustworthy where the regularization
            # level sits well below the step size (the per-step kernel
            # converges in eps at scale dt); the certified window's fine
            # spacing therefore needs a deeper ladder than the main grid's
            # before the Cauchy-gap budget is meaningful, and a window that
            # needs more levels than the cap fails without a window family.
            solved[index] = _window_ladder(config.ladder, problem.grid.dt), result
        except Exception as exc:  # noqa: BLE001 - isolation policy
            records[index] = (False, None, _exception_note(exc))

    try:
        families = build_families(
            spec,
            [problems[index][0].noise for index in solved],
            [ladder for ladder, _ in solved.values()],
            tol_mono=config.tolerances["tol_mono"],
            keep="limit",
        )
        for (index, (_, result)), family in zip(solved.items(), families):
            if isinstance(family, SolverError):
                records[index] = (False, None, _exception_note(family))
                continue
            try:
                records[index] = _contraction_verdict(*problems[index], result, family)
            except Exception as exc:  # noqa: BLE001 - isolation policy
                records[index] = (False, None, _exception_note(exc))
    except Exception as exc:  # noqa: BLE001 - the block's shared window solve failed
        for index in solved:
            records.setdefault(index, (False, None, _exception_note(exc)))
    return [records[index] for index in indices]


def _contraction_verdict(
    problem: LocalProblem,
    certificate: DeltaCertificate,
    result: PicardResult,
    window_family: EpsilonFamily,
) -> _CheckResult:
    """Measured ratios against the modulus, the fixed point against the window ladder limit."""

    candidates: list[float] = []
    notes: list[str] = []

    ratios = [row[2] for row in result.log if math.isfinite(row[2])]
    if ratios:
        ratio_excess = max(ratios) - (certificate.modulus + _CONTRACTION_SLACK)
        candidates.append(ratio_excess)
        if ratio_excess > 0.0:
            notes.append(
                f"measured ratio {max(ratios):.4f} exceeds modulus {certificate.modulus:.4f} + slack"
            )

    consistency_gap = float(np.abs(result.values - window_family.limit_estimate).max())
    consistency_excess = consistency_gap - (window_family.cauchy_gap + _CONSISTENCY_EXTRA)
    candidates.append(consistency_excess)
    if consistency_excess > 0.0:
        notes.append(
            f"fixed point differs from ladder limit by {consistency_gap:.3e} "
            f"(allowed {window_family.cauchy_gap + _CONSISTENCY_EXTRA:.3e})"
        )

    residual_excess = result.residual - 2.0 * _PICARD_TOLERANCE
    candidates.append(residual_excess)
    if residual_excess > 0.0:
        notes.append("fixed-point residual exceeds twice the iteration tolerance")

    violation = max(candidates)
    passed = violation <= 0.0
    return passed, violation, ("; ".join(notes) if notes else None)


def _contraction_records(config: ExperimentConfig) -> list[_CheckResult]:
    """Every path's contraction record, run in blocks of consecutive paths.

    ``_CONTRACTION_BLOCK_PATHS`` bounds the memory of a block's window
    solves.  A failure of a block's shared work is the failure of each of
    its paths.
    """

    records: list[_CheckResult] = []
    for start in range(0, config.path_count, _CONTRACTION_BLOCK_PATHS):
        indices = range(start, min(start + _CONTRACTION_BLOCK_PATHS, config.path_count))
        try:
            records += _contraction_block(config, indices)
        except Exception as exc:  # noqa: BLE001 - isolation policy
            records += [(False, None, _exception_note(exc))] * len(indices)
    return records


def _check_excursion_endpoints(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    excursions = ctx.ensure_excursions()
    checks = verify_endpoint_limits(ctx.family.limit_estimate, excursions, tol=excursions.threshold)
    failing = [check.interval_index for check in checks if not check.passes]
    note = None if not failing else f"boundary check fails on intervals {failing}"
    return not failing, float(len(failing)), note


def _check_initial_identity(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    result = verify_initial_identity(ctx.family)
    violation = result.sup_residual - result.budget
    note = None if result.passes else (
        f"residual {result.sup_residual:.3e} exceeds budget {result.budget:.3e} "
        f"on nodes 0..{result.window_end_index}"
    )
    return result.passes, violation, note


def _check_restart_refinement(config: ExperimentConfig, ctx: _PathContext) -> _CheckResult:
    excursions = ctx.ensure_excursions()
    margin = DEFAULT_MARGIN_STEPS
    # The restart identity anchors at a left endpoint where the limit process
    # vanishes; the closed-left component containing t=0 starts at X_0 > 0
    # instead and is covered by the initial-identity check.
    qualifying = [
        index
        for index, (start, end) in enumerate(excursions.intervals)
        if (end - start + 1) >= _MIN_WINDOW_NODES
        and not (index == 0 and excursions.first_interval_closed_left)
    ]
    if not qualifying:
        return True, None, None

    family = ctx.family
    fine_noise = refine_fbm(family.noise)
    deepest_eps = float(family.ladder.levels()[-1])
    fine_solution = solve_regularized(family.spec, deepest_eps, fine_noise)
    worst: float | None = None
    notes: list[str] = []
    for index in qualifying:
        start, end = excursions.intervals[index]
        coarse = restart_residual(
            family.limit_estimate, family.noise, family.spec, start, end, margin
        )
        ctx.restart_sup[index] = coarse.sup_residual
        # The same interval on the refined grid, where node k becomes node 2k.
        fine = restart_residual(
            fine_solution.values, fine_noise, family.spec, 2 * start, 2 * end, 2 * margin
        )
        growth = fine.sup_residual - coarse.sup_residual
        if worst is None or growth > worst:
            worst = growth
        if growth > 0.0:
            notes.append(
                f"interval {index}: residual grows {coarse.sup_residual:.3e} -> "
                f"{fine.sup_residual:.3e} under refinement"
            )
    return not notes, worst, ("; ".join(notes) if notes else None)


# Check that reads a path's family -> (runner, whether it reads the limit row
# whole).  Campaigns keep the limit row only when an enabled check reads it.
_FAMILY_CHECKS: dict[str, tuple[Callable[[ExperimentConfig, _PathContext], _CheckResult], bool]] = {
    "ordering": (_check_ordering, False),
    "nested-zero-sets": (_check_nested_zero_sets, False),
    "upper-bound": (_check_upper_bound, False),
    "measure-decay": (_check_measure_decay, False),
    "limit-nonneg": (_check_limit_nonneg, False),
    "compensator": (_check_compensator, True),
    "eps-continuity": (_check_eps_continuity, False),
    "excursion-endpoints": (_check_excursion_endpoints, True),
    "initial-identity": (_check_initial_identity, True),
    "restart-refinement": (_check_restart_refinement, True),
}

# The tolerance each check's record reports: the constant it compares
# against, None standing for the campaign's tol_mono.  Unlisted checks,
# which have none, report 0.
_REPORTED_TOLERANCES: dict[str, float | None] = {
    "ordering": None,
    "upper-bound": DEFAULT_TOL_BOUND,
    "limit-nonneg": DEFAULT_TOL_NONNEG,
    "eps-continuity": _EPS_STAR,
    "contraction": _CONTRACTION_SLACK,
}

# One path's outcome of one check: (path index or None for a campaign-wide
# verdict, passed, violation, note).
_Outcome = tuple["int | None", bool, "float | None", "str | None"]


def _check_record(
    config: ExperimentConfig, check: str, outcomes: list[_Outcome], runtime: float
) -> CheckRecord:
    """Aggregate one check's outcomes: counts, the largest finite violation, failure notes."""

    tolerance = _REPORTED_TOLERANCES.get(check, 0.0)
    violations = [v for _, _, v, _ in outcomes if v is not None and math.isfinite(v)]
    failures = tuple(
        ("" if path is None else f"path {path}: ") + ("check failed" if note is None else note)
        for path, passed, _, note in outcomes
        if not passed
    )
    return CheckRecord(
        check=check,
        statement=CHECK_STATEMENTS[check],
        pass_count=len(outcomes) - len(failures),
        fail_count=len(failures),
        allowed_failures=config.allowed_failures(check),
        worst_violation=max(violations, default=None),
        tolerance=config.tolerances["tol_mono"] if tolerance is None else tolerance,
        runtime_s=round(runtime, 6),
        failures=failures,
    )


# ---------------------------------------------------------------------------
# campaign runner
# ---------------------------------------------------------------------------


def run_campaign(config: ExperimentConfig) -> VerificationReport:
    """Run every enabled check over every path and persist report + artifacts.

    Per-path work is sequential and isolated: a check that raises records a
    failure for that path and the campaign continues; a path whose family
    cannot be built fails every enabled check that reads a family.  Artifacts
    written to ``config.output_dir``: ``report.json``, ``checks.csv``, a canonical
    ``config_echo.json``, ``excursions.csv`` when excursion checks ran, and
    per-path family CSVs under ``families/`` when ``save_families`` is set.
    """

    digest = config_digest(config)
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    families_dir = os.path.join(out_dir, "families")
    if config.save_families:
        os.makedirs(families_dir, exist_ok=True)

    family_checks = [check for check in config.checks if check in _FAMILY_CHECKS]
    outcomes: dict[str, list[_Outcome]] = {check: [] for check in config.checks}
    runtimes = dict.fromkeys(config.checks, 0.0)
    gather_measures = "measure-decay-mean" in config.checks
    first_level_measures: list[float] = []
    last_level_measures: list[float] = []
    excursion_rows: list[tuple[object, ...]] = []
    if "contraction" in config.checks:
        # The check reads only the seeds, so it runs before the family build,
        # and its window solves never hold memory next to a family chunk.
        started = time.perf_counter()
        outcomes["contraction"] = [
            (index, *record) for index, record in enumerate(_contraction_records(config))
        ]
        runtimes["contraction"] = time.perf_counter() - started

    # A campaign that reads no family, such as a contraction-only one, builds none.
    needs_families = bool(family_checks) or gather_measures or config.save_families
    for index, outcome in _path_families(config) if needs_families else ():
        if not isinstance(outcome, EpsilonFamily):
            note = f"family construction failed: {_exception_note(outcome)}"
            for check in family_checks:
                outcomes[check].append((index, False, None, note))
            continue

        family = outcome
        ctx = _PathContext(index=index, family=family)
        if gather_measures:
            measures = nonpositive_measure(family)
            first_level_measures.append(float(measures[0]))
            last_level_measures.append(float(measures[-1]))

        for check in family_checks:
            runner, _ = _FAMILY_CHECKS[check]
            started = time.perf_counter()
            try:
                passed, violation, note = runner(config, ctx)
            except Exception as exc:  # noqa: BLE001 - isolation policy
                passed, violation, note = False, None, _exception_note(exc)
            runtimes[check] += time.perf_counter() - started
            outcomes[check].append((index, passed, violation, note))

        if ctx.excursions is not None:
            excursion_rows.extend(_excursion_rows(ctx))
        if config.save_families:
            target = os.path.join(families_dir, f"path_{index:05d}.csv")
            write_family_csv(family, target, extra_meta={"config_hash": digest})

    if gather_measures:
        started = time.perf_counter()
        verdict = _mean_measure_verdict(first_level_measures, last_level_measures)
        runtimes["measure-decay-mean"] += time.perf_counter() - started
        outcomes["measure-decay-mean"].append((None, *verdict))

    records = {
        check: _check_record(config, check, outcomes[check], runtimes[check])
        for check in config.checks
    }
    overall_pass = all(record.within_allowance for record in records.values())
    report = VerificationReport(
        version=_package_version(),
        config_hash=digest,
        master_seed=config.master_seed,
        path_count=config.path_count,
        generated_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        checks=records,
        overall_pass=overall_pass,
    )

    _write_report_json(report, os.path.join(out_dir, "report.json"))
    _write_checks_csv(report, os.path.join(out_dir, "checks.csv"))
    _write_config_echo(config, digest, os.path.join(out_dir, "config_echo.json"))
    if excursion_rows:
        _write_excursion_table(excursion_rows, report, os.path.join(out_dir, "excursions.csv"))
    return report


def _path_families(config: ExperimentConfig) -> Iterator[tuple[int, EpsilonFamily | Exception]]:
    """Per path in index order: (index, family or failure).

    Noise is drawn in blocks (:func:`_drivers`), at most one block ahead of
    :func:`build_families`, which takes it chunk by chunk; a path whose draw
    fails is held back until the families of the paths before it have been
    handed out, so outcomes stay in index order.
    The families keep every level with ``save_families``, else only the rows
    checks read.
    """

    pending: deque[tuple[int, Exception | None]] = deque()
    reads_limit = any(
        _FAMILY_CHECKS[check][1] for check in config.checks if check in _FAMILY_CHECKS
    )

    def noises() -> Iterator[FbmPath]:
        indices = list(range(config.path_count))
        drivers = _drivers(config, [config.grid] * config.path_count, indices, 0)
        for index, noise in zip(indices, drivers):
            if isinstance(noise, Exception):
                pending.append((index, noise))
                continue
            pending.append((index, None))
            yield noise

    families = build_families(
        config.spec,
        noises(),
        config.ladder,
        tol_mono=config.tolerances["tol_mono"],
        eps_continuity=_EPS_CONTINUITY if "eps-continuity" in config.checks else None,
        keep="levels" if config.save_families else ("limit" if reads_limit else "none"),
    )
    for family in families:
        while pending[0][1] is not None:
            yield pending.popleft()
        index, _ = pending.popleft()
        yield index, family
    yield from pending


def _mean_measure_verdict(
    first_levels: list[float], last_levels: list[float]
) -> tuple[bool, float | None, str | None]:
    if not first_levels:
        return False, None, "no paths produced measures"
    mean_first = float(np.mean(first_levels))
    mean_last = float(np.mean(last_levels))
    if mean_first <= 0.0:
        return True, 0.0, "level-0 mean measure is zero; comparison vacuous"
    violation = mean_last - mean_first
    passed = violation < 0.0
    note = None if passed else (
        f"deepest-level mean {mean_last:.6g} does not fall below level-0 mean {mean_first:.6g}"
    )
    return passed, violation, note


# Column order of excursions.csv; an endpoint beyond the grid or an interval
# without a restart residual is written as nan.
_EXCURSION_COLUMNS = (
    "path_index",
    "interval_index",
    "alpha_t",
    "beta_t",
    "length",
    "endpoint_value_left",
    "endpoint_value_right",
    "sup_residual",
    "threshold",
)


def _excursion_rows(ctx: _PathContext) -> list[tuple[object, ...]]:
    assert ctx.excursions is not None
    values = ctx.family.limit_estimate
    dt = ctx.family.grid.dt
    last = values.size - 1
    return [
        (
            ctx.index,
            index,
            start * dt,
            end * dt,
            (end - start) * dt,
            float(values[start - 1]) if start > 0 else math.nan,
            float(values[end + 1]) if end < last else math.nan,
            ctx.restart_sup.get(index, math.nan),
            ctx.excursions.threshold,
        )
        for index, (start, end) in enumerate(ctx.excursions.intervals)
    ]


def _write_report_json(report: VerificationReport, path: str) -> None:
    rendered = json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(rendered + "\n")


def _write_checks_csv(report: VerificationReport, path: str) -> None:
    records = list(report.checks.values())
    write_csv(
        path,
        [
            ("check", [record.check for record in records]),
            ("pass_count", [record.pass_count for record in records]),
            ("fail_count", [record.fail_count for record in records]),
            ("allowed_failures", [record.allowed_failures for record in records]),
            (
                "worst_violation",
                [
                    math.nan if record.worst_violation is None else record.worst_violation
                    for record in records
                ],
            ),
            ("tolerance", [record.tolerance for record in records]),
        ],
        {
            "format_version": FORMAT_VERSION,
            "config_hash": report.config_hash,
            "package_version": report.version,
            "master_seed": report.master_seed,
            "path_count": report.path_count,
            "overall_pass": report.overall_pass,
        },
    )


def _write_config_echo(config: ExperimentConfig, digest: str, path: str) -> None:
    echo = _semantic_config_dict(config)
    echo["output_dir"] = config.output_dir
    echo["save_families"] = config.save_families
    echo["config_hash"] = digest
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(echo, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_excursion_table(
    rows: list[tuple[object, ...]], report: VerificationReport, path: str
) -> None:
    write_csv(
        path,
        list(zip(_EXCURSION_COLUMNS, zip(*rows))),
        {
            "format_version": FORMAT_VERSION,
            "config_hash": report.config_hash,
            "master_seed": report.master_seed,
            "path_count": report.path_count,
        },
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_report_table(data: Mapping[str, Any]) -> str:
    """Human-readable table for a parsed report.json (or ``VerificationReport.to_json_dict()``)."""

    checks: Mapping[str, Mapping[str, Any]] = data.get("checks", {})
    lines = [
        f"verification report (package {data.get('package_version', '?')}, "
        f"format {data.get('format_version', '?')})",
        f"config_hash  : {data.get('config_hash', '?')}",
        f"master_seed  : {data.get('master_seed', '?')}",
        f"path_count   : {data.get('path_count', '?')}",
        f"generated_at : {data.get('generated_at', '?')}",
        f"overall      : {'PASS' if data.get('overall_pass') else 'FAIL'}",
        "",
    ]
    header = (
        f"{'check':<22} {'pass':>5} {'fail':>5} {'allowed':>7} "
        f"{'worst_violation':>16} {'tolerance':>10} {'runtime_s':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    names = [name for name in CHECK_ORDER if name in checks]
    names += [name for name in checks if name not in CHECK_ORDER]
    for name in names:
        record = checks[name]
        worst = record.get("worst_violation")
        worst_text = "-" if worst is None else f"{worst:.3e}"
        lines.append(
            f"{name:<22} {record.get('pass_count', 0):>5} {record.get('fail_count', 0):>5} "
            f"{record.get('allowed_failures', 0):>7} {worst_text:>16} "
            f"{record.get('tolerance', 0.0):>10.2e} {record.get('runtime_s', 0.0):>10.3f}"
        )
    lines.append("")
    lines.append("statements:")
    lines += [f"  {name}: {checks[name].get('statement', '')}" for name in names]
    failures = [f"  {name}: {entry}" for name in names for entry in checks[name].get("failures", [])]
    if failures:
        lines += ["", "reported failures:", *failures]
    return "\n".join(lines)
