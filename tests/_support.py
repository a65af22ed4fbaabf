"""Shared helpers for the test suite.

Closed-form oracles (among them the fBm covariance formulas, which only the
tests evaluate), a dense Cholesky sampler as the oracle of the circulant
noise generator, Monte Carlo z-score machinery for the noise generator,
report canonicalization and the sha256 of every campaign CSV for the
determinism contract, the cell-by-cell CSV
writer that the block writer must match byte for byte and a corpus of float
cells that reaches every branch of the block writer's formatter, the scalar
eps-continuity loop, the one-row Picard loop and per-path contraction check
that the batched checks must match exactly, the batched solve collected into one whole array, the
whole-array family reductions and first-failing-level rule that the
block-streamed ones must equal, and the node-by-node excursion decomposition
that the vectorized one must equal.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import pathlib
from typing import Iterator, Mapping, Sequence

import numpy as np

from singsde import (
    EpsContinuityResult,
    EpsilonFamily,
    EpsilonLadder,
    ExcursionSet,
    ExperimentConfig,
    FbmPath,
    HurstParam,
    InfeasibleProblemError,
    LocalProblem,
    PicardBandError,
    SdeSpec,
    SeedRecord,
    SolverError,
    TimeGrid,
    VerificationReport,
    build_families,
    build_family,
    estimate_holder,
    fixed_point_residual,
    generate_fbm,
    identity_residual,
    nonpositive_measure,
    path_stream,
    picard_solve,
    select_delta,
    solve_regularized,
    verify_nested_zero_sets,
    zero_path,
)
from singsde import fbm as fbm_module
from singsde import harness
from singsde import ladder as ladder_module
from singsde.picard import PicardConvergenceError
from singsde.sde import _drift_table, _integrate_batch, _solver_error


def closed_form(t: np.ndarray | float, x0: float, a: float, hurst_value: float):
    """Exact noise-free, undamped solution sqrt(x0^2 + a t^{2H} / H).

    Solves x' = a t^{2H-1} / x with x(0) = x0 (differentiate x^2 to verify),
    which is the b=0, zero-driver member of the equation family.
    """

    return np.sqrt(x0 * x0 + a * np.power(t, 2.0 * hurst_value) / hurst_value)


def zero_noise_solution(
    t: np.ndarray | float, x0: float, a: float, b: float, hurst_value: float
) -> np.ndarray:
    """Exact noise-free solution of x' = a t^{2H-1} / x - b x, x(0) = x0, for b >= 0.

    Y = x^2 solves the linear equation Y' = 2a t^{2H-1} - 2b Y, so

        Y(t) = e^{-2bt} (x0^2 + 2a sum_k (2b)^k t^{k+2H} / (k! (k+2H))),

    the series of the integral of e^{2bs} s^{2H-1} over [0, t], summed to 60
    terms.  At b = 0 only the k = 0 term is left, and the values are
    :func:`closed_form`'s bit for bit.
    """

    if not b >= 0.0:
        raise ValueError(f"damping must be nonnegative, got {b}")
    t = np.asarray(t, dtype=float)
    two_h = 2.0 * hurst_value
    series = np.zeros_like(t)
    for k in range(60):
        term = (2.0 * b) ** k * np.power(t, k + two_h) / (math.factorial(k) * (k + two_h))
        series = series + term
    return np.sqrt(np.exp(-2.0 * b * t) * (x0 * x0 + 2.0 * a * series))


def covariance_formula(s: float, t: float, hurst_value: float) -> float:
    """Raw two-point covariance (t^{2H} + s^{2H} - |t-s|^{2H})/2.

    Unrestricted exponent evaluator: accepts any hurst_value in (0, 1) so the
    standard-Brownian boundary case can be sanity-checked against min(s, t).
    """

    if s < 0.0 or t < 0.0:
        raise ValueError(f"time arguments must be nonnegative, got s={s}, t={t}")
    if not (0.0 < hurst_value < 1.0):
        raise ValueError(f"exponent must lie in (0, 1), got {hurst_value}")
    two_h = 2.0 * hurst_value
    return 0.5 * (t**two_h + s**two_h - abs(t - s) ** two_h)


def fbm_covariance(s: float, t: float, hurst: HurstParam) -> float:
    """Covariance of the driving noise at times (s, t); symmetric in (s, t)."""

    return covariance_formula(s, t, hurst.value)


def fgn_autocovariance(k: int, hurst: HurstParam) -> float:
    """Unit-variance increment autocovariance gamma(k); gamma(0) = 1.

    Negative for every k >= 1 when H < 1/2 (antipersistent increments).
    """

    if not (isinstance(k, (int, np.integer)) and k >= 0):
        raise ValueError(f"lag must be a nonnegative integer, got {k}")
    two_h = 2.0 * hurst.value
    kk = float(k)
    return 0.5 * ((kk + 1.0) ** two_h - 2.0 * kk**two_h + abs(kk - 1.0) ** two_h)


def cholesky_fbm_values(grid: TimeGrid, hurst: HurstParam, seed_record: SeedRecord) -> np.ndarray:
    """Dense Cholesky sampler: path values with the law of ``generate_fbm``'s, O(n^3).

    The lower Cholesky factor of the unit fGn covariance gamma(|i - j|) maps
    the normals of ``path_stream(seed_record)`` to unit increments; scaled by
    dt^H and summed after a leading 0, they form the path, as in
    ``generate_fbm``.
    """

    n = grid.step_count
    k = np.arange(n + 1, dtype=float)
    two_h = 2.0 * hurst.value
    gamma = (0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h))[:n]
    idx = np.arange(n)
    factor = np.linalg.cholesky(gamma[np.abs(idx[:, None] - idx[None, :])])
    increments = factor @ path_stream(seed_record).standard_normal(n) * grid.dt**hurst.value
    return np.concatenate([[0.0], np.cumsum(increments)])


def circulant_fgn_oracle(n: int, hurst_value: float, rng: np.random.Generator) -> np.ndarray:
    """The circulant sampler's formula through complex temporaries: n unit-variance fGn increments.

    The eigenvalues of the length-2n circulant embedding of gamma(0..n-1),
    clipped at 0, weight two draws of 2n normals, the real parts first; the
    increments are the real part of the first n outputs of one complex FFT.
    """

    g = fbm_module._fgn_kernel(n, hurst_value)
    m = 2 * n
    eig = np.clip(np.fft.fft(np.concatenate([g[:n], [g[n]], g[1:n][::-1]])).real, 0.0, None)
    z_re = rng.standard_normal(m)
    z_im = rng.standard_normal(m)
    return np.fft.fft((z_re + 1j * z_im) * np.sqrt(eig / m)).real[:n]


def generate_increment_matrix(
    hurst_value: float,
    n: int,
    path_count: int,
    master_seed: int,
    horizon: float = 1.0,
) -> np.ndarray:
    """Increments of `path_count` independent paths, one row per path."""

    grid = TimeGrid(horizon=horizon, step_count=n)
    hurst = HurstParam(hurst_value)
    rows = np.empty((path_count, n))
    for index in range(path_count):
        path = generate_fbm(grid, hurst, SeedRecord(master_seed, index))
        rows[index] = np.diff(path.values)
    return rows


def lag_autocov_zscores(
    hurst_value: float,
    n: int,
    path_count: int,
    master_seed: int,
    max_lag: int = 10,
) -> np.ndarray:
    """z-scores of the empirical lag-k autocovariance of normalized increments.

    Normalization divides by dt^H so the target is the unit-variance kernel.
    The standard error at each lag is estimated from the spread of per-path
    mean products across the independent paths.
    """

    grid = TimeGrid(horizon=1.0, step_count=n)
    hurst = HurstParam(hurst_value)
    increments = generate_increment_matrix(hurst_value, n, path_count, master_seed)
    normalized = increments / grid.dt**hurst_value
    zscores = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        products = normalized[:, : n - lag] * normalized[:, lag:] if lag else normalized**2
        per_path = products.mean(axis=1)
        mean = per_path.mean()
        stderr = per_path.std(ddof=1) / math.sqrt(path_count)
        zscores[lag] = (mean - fgn_autocovariance(lag, hurst)) / stderr
    return zscores


def dense_refinement_law(n: int, horizon: float, hurst_value: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense oracle of nested refinement: v | c ~ N(mean_map @ c, conditional).

    Fine increments live on the 2n-step grid.  Writing c for the coarse
    increments (each the sum of a fine pair) and v for the first fine
    increment of each pair, (v, c) is jointly Gaussian, so the conditional
    mean map is Cov(v, c) Cov(c, c)^{-1} and the conditional covariance is
    Cov(v, v) - mean_map Cov(c, v).  O(n^2) memory and O(n^3) time.
    """

    dt_fine = horizon / (2 * n)
    hurst = HurstParam(hurst_value)
    unit = np.array([fgn_autocovariance(k, hurst) for k in range(2 * n + 1)])
    g = unit * dt_fine ** (2.0 * hurst_value)
    idx = np.arange(n)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")

    def cov(i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return g[np.abs(i - j)]

    coarse_cov = (
        cov(2 * ii, 2 * jj)
        + cov(2 * ii, 2 * jj + 1)
        + cov(2 * ii + 1, 2 * jj)
        + cov(2 * ii + 1, 2 * jj + 1)
    )
    cross = cov(2 * ii, 2 * jj) + cov(2 * ii, 2 * jj + 1)
    own = cov(2 * ii, 2 * jj)
    mean_map = np.linalg.solve(coarse_cov, cross.T).T
    return mean_map, own - mean_map @ cross.T


def seeded_families(
    spec: SdeSpec, grid: TimeGrid, master_seed: int, path_count: int, ladder: EpsilonLadder
) -> Iterator[EpsilonFamily]:
    """Families of paths 0..path_count-1 under one master seed, solved in batched chunks.

    A path whose solve fails raises its SolverError, as ``build_family`` would.
    """

    noises = (
        generate_fbm(grid, spec.hurst, SeedRecord(master_seed, index))
        for index in range(path_count)
    )
    for outcome in build_families(spec, noises, ladder):
        if isinstance(outcome, SolverError):
            raise outcome
        yield outcome


def solve_batch(
    spec: SdeSpec,
    eps_levels,
    grid: TimeGrid,
    noise_values: np.ndarray,
) -> np.ndarray:
    """The batched step loop's blocks collected into one array: the oracle of the streamed folds.

    ``noise_values`` holds one driver path per row, shape (paths, nodes).  The
    result has shape (paths, levels, nodes), a view of a time-major array, and
    equals, entry for entry, what ``solve_regularized`` computes for each
    (path, level) pair.  Unlike the scalar solver it does not raise on a
    non-finite state: such states stay in the result, and the caller checks
    each path.
    """

    levels = np.asarray(eps_levels, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError(f"eps_levels must be a nonempty 1-D sequence, got shape {levels.shape}")
    if not ((levels > 0.0) & np.isfinite(levels)).all():
        raise ValueError(f"every epsilon must be positive and finite, got {levels.tolist()}")
    noise_values = np.asarray(noise_values, dtype=float)
    if noise_values.ndim != 2 or noise_values.shape[1] != grid.step_count + 1:
        raise ValueError(
            f"noise_values must have shape (paths, {grid.step_count + 1}), got {noise_values.shape}"
        )
    out = np.empty((grid.step_count + 1, levels.size, noise_values.shape[0]))
    out[0] = spec.x0
    group = (grid, levels, _drift_table(spec, levels, grid), len(noise_values))
    for first, values in _integrate_batch(spec, [group], noise_values):
        out[first : first + len(values)] = values
    return out.transpose(2, 1, 0)


def first_non_finite(
    values: np.ndarray, levels: np.ndarray | tuple[float, ...], dt: float
) -> SolverError | None:
    """Reference of the first-failing-level rule on one path's whole (levels, nodes) block.

    The :class:`SolverError` of the first row (level) with a non-finite state,
    naming that level's first non-finite step; None when every value is finite.
    """

    finite = np.isfinite(values)
    if finite.all():
        return None
    level = int(np.argmin(finite.all(axis=1)))
    return _solver_error(int(np.argmin(finite[level])), float(levels[level]), dt)


def given_values_family(
    spec: SdeSpec,
    noise: FbmPath,
    ladder: EpsilonLadder,
    values: np.ndarray,
    tol_mono: float = ladder_module.DEFAULT_TOL_MONO,
) -> EpsilonFamily | SolverError:
    """A family of given (levels, nodes) values, which it keeps: the ladder's reducer over one block.

    Node 0 is reduced as given too.  Returns the SolverError that
    ``first_non_finite`` gives when a value is not finite.
    """

    values = np.asarray(values, dtype=float)
    reductions = ladder_module._Reductions(
        values[:, :1], values.shape[1], tol_mono, kept=values.shape[0]
    )
    reductions.fold(1, values[:, 1:].T[:, :, None])
    return reductions.family(0, spec, noise, ladder)


def family_reductions_oracle(
    values: np.ndarray, levels: np.ndarray, dt: float, tol_mono: float
) -> dict | SolverError:
    """Reference of a family's reductions, computed on one path's full (levels, nodes) values.

    The arithmetic families used when they kept every level: whole-array
    reductions, and ``first_non_finite``'s error for a non-finite value.
    Arrays are rendered as bytes, so that ``==`` compares them bit for bit.
    """

    failure = first_non_finite(values, levels, dt)
    if failure is not None:
        return failure
    deficit = values[:-1, 1:] - values[1:, 1:]
    mask = deficit > tol_mono
    nonpositive = values[:, 1:] <= 0.0
    breaks = np.flatnonzero((nonpositive[1:] & ~nonpositive[:-1]).any(axis=1))
    return {
        "limit_estimate": values[-1].tobytes(),
        "limit_min": (float(np.min(values[-1])), int(np.argmin(values[-1]))),
        "value_max": float(values.max()),
        "nonpositive_measure": (dt * np.count_nonzero(nonpositive, axis=1)).tobytes(),
        "nested": (False, int(breaks[0]) + 1) if breaks.size else (True, -1),
        "cauchy_gap": float(np.abs(values[-1] - values[-2]).max()),
        "mono_violation_count": int(mask.sum()),
        "mono_worst_deficit": float(deficit[mask].max(initial=0.0)),
    }


def family_reductions(family: EpsilonFamily) -> dict:
    """The reductions of a family as its checks read them, in the oracle's form.

    A family that keeps no limit row reports None for it.
    """

    limit = family.limit_estimate
    return {
        "limit_estimate": None if limit is None else limit.tobytes(),
        "limit_min": (family.limit_min, family.limit_argmin),
        "value_max": family.value_max,
        "nonpositive_measure": nonpositive_measure(family).tobytes(),
        "nested": verify_nested_zero_sets(family),
        "cauchy_gap": family.cauchy_gap,
        "mono_violation_count": family.mono_violation_count,
        "mono_worst_deficit": family.mono_worst_deficit,
    }


def decompose_excursions_oracle(values: np.ndarray, threshold: float) -> ExcursionSet:
    """Node-by-node reference of ``decompose_excursions``: one run at a time, no validation."""

    above = np.asarray(values, dtype=float) > threshold
    intervals: list[tuple[int, int]] = []
    k = 0
    n_nodes = above.size
    while k < n_nodes:
        if above[k]:
            start = k
            while k < n_nodes and above[k]:
                k += 1
            intervals.append((start, k - 1))
        else:
            k += 1
    return ExcursionSet(
        intervals=tuple(intervals),
        first_interval_closed_left=bool(intervals and intervals[0][0] == 0),
        last_interval_truncated_right=bool(intervals and intervals[-1][1] == n_nodes - 1),
        threshold=threshold,
    )


def eps_continuity_oracle(
    spec: SdeSpec, noise: FbmPath, eps_star: float, h_sequence: Sequence[float]
) -> EpsContinuityResult:
    """Scalar reference of ``verify_eps_continuity`` for one path.

    Seven (in general 1 + 2 * offsets) ``solve_regularized`` calls, in the
    order eps*, eps* + h_1, eps* - h_1, ...; a non-finite state raises the
    first failing level's SolverError.  No input validation.
    """

    hs = [float(h) for h in h_sequence]
    levels = [eps_star] + [e for h in hs for e in (eps_star + h, eps_star - h)]
    values = np.array([solve_regularized(spec, e, noise).values for e in levels])
    return eps_continuity_values_oracle(values, eps_star, hs, noise.grid.dt)


def eps_continuity_values_oracle(
    values: np.ndarray, eps_star: float, h_sequence: Sequence[float], dt: float
) -> EpsContinuityResult | SolverError:
    """Reference of one path's eps-continuity outcome from its whole (levels, nodes) values.

    The rows are the levels eps*, eps* + h_1, eps* - h_1, ...; a non-finite
    value gives ``first_non_finite``'s error, as solving the levels one by
    one in that order would raise it.
    """

    hs = [float(h) for h in h_sequence]
    levels = [eps_star] + [e for h in hs for e in (eps_star + h, eps_star - h)]
    failure = first_non_finite(values, levels, dt)
    if failure is not None:
        return failure
    center = values[0]
    rows = [
        (h, float(np.abs(above - center).max()), float(np.abs(below - center).max()))
        for h, above, below in zip(hs, values[1::2], values[2::2])
    ]
    plus = [row[1] for row in rows]
    minus = [row[2] for row in rows]
    both_nonincreasing = all(b <= a for a, b in zip(plus[:-1], plus[1:])) and all(
        b <= a for a, b in zip(minus[:-1], minus[1:])
    )
    first_gap = max(plus[0], minus[0])
    last_gap = max(plus[-1], minus[-1])
    return EpsContinuityResult(
        eps_star=eps_star,
        rows=rows,
        both_nonincreasing=both_nonincreasing,
        first_gap=first_gap,
        last_gap=last_gap,
        passes=both_nonincreasing and last_gap <= first_gap / 4.0,
    )


def picard_oracle(
    problem: LocalProblem, certificate, tolerance: float, start: np.ndarray | None = None
) -> tuple[np.ndarray, list, int, int]:
    """One problem's Picard iteration, a loop over one row: (values, log, iterations, cap).

    The iteration ``picard.picard_solve`` ran before problems were iterated
    as a block; once iterating, it raises the same exceptions with the same
    messages.  The start iterate is taken as given.
    """

    spec, grid = problem.spec, problem.grid
    if grid.horizon > certificate.delta * (1.0 + 1e-12):
        raise ValueError(
            f"driver horizon {grid.horizon} exceeds certified delta {certificate.delta}"
        )
    band_lo, band_hi = 0.5 * spec.x0, 2.0 * spec.x0
    x = np.full(grid.step_count + 1, spec.x0) if start is None else np.array(start, dtype=float)
    log: list[tuple[int, float, float]] = []
    cap, previous, iteration = 10, math.nan, 0
    while True:
        iteration += 1
        residual = identity_residual(
            x, problem.noise.values, spec, grid, 0, grid.step_count, spec.x0
        )
        new_x = x - residual
        distance = float(np.abs(residual).max())
        ratio = distance / previous if previous and not math.isnan(previous) else math.nan
        log.append((iteration, distance, ratio))
        if new_x.min() < band_lo - 1e-12 or new_x.max() > band_hi + 1e-12:
            raise PicardBandError(
                f"iterate {iteration} escaped [{band_lo}, {band_hi}] "
                f"(min {new_x.min():.6g}, max {new_x.max():.6g})"
            )
        x = new_x
        if distance <= tolerance:
            return x, log, iteration, cap
        if iteration == 1:
            cap = math.ceil(math.log(tolerance / distance) / math.log(certificate.modulus)) + 10
        elif iteration > cap:
            raise PicardConvergenceError(
                f"no convergence to {tolerance:g} within {cap} iterations "
                f"(last displacement {distance:.3e})"
            )
        previous = distance


def contraction_oracle(config: ExperimentConfig, index: int) -> tuple[bool, float | None, str | None]:
    """Per-path reference of the campaign's ``contraction`` check: (passed, violation, note).

    One path at a time: the window certification loop with one-row Hoelder
    scans and one-problem horizon selections, the Picard solve, and one
    ``build_family`` call for the window ladder.  Raises what the check
    would record as the path's exception note.
    """

    spec = config.spec
    beta = harness._HOLDER_EXPONENT_FRACTION * spec.hurst.value
    seed = SeedRecord(config.master_seed, index)
    window = harness._CONTRACTION_INITIAL_WINDOW
    for _ in range(harness._CONTRACTION_MAX_RECERTIFICATIONS):
        window_grid = TimeGrid(window, harness._CONTRACTION_WINDOW_STEPS)
        if config.zero_noise:
            window_noise = zero_path(window_grid, spec.hurst, seed)
        else:
            window_noise = generate_fbm(window_grid, spec.hurst, seed, substream=2)
        (holder,) = estimate_holder(spec.sigma * window_noise.values[None], [window_grid], beta)
        problem = LocalProblem(spec, window_noise, holder)
        (certificate,) = select_delta([problem])
        if isinstance(certificate, InfeasibleProblemError):
            raise certificate
        if certificate.delta >= window * (1.0 - 1e-12):
            break
        window = certificate.delta
    else:
        return False, None, "window certification did not stabilize"

    tolerance = harness._PICARD_TOLERANCE
    result = picard_solve(problem, certificate, tolerance)
    candidates: list[float] = []
    notes: list[str] = []
    ratios = [row[2] for row in result.log if math.isfinite(row[2])]
    if ratios:
        ratio_excess = max(ratios) - (certificate.modulus + harness._CONTRACTION_SLACK)
        candidates.append(ratio_excess)
        if ratio_excess > 0.0:
            notes.append(
                f"measured ratio {max(ratios):.4f} exceeds modulus {certificate.modulus:.4f} + slack"
            )
    window_ladder = harness._window_ladder(config.ladder, problem.grid.dt)
    window_family = build_family(
        spec, problem.noise, window_ladder, tol_mono=config.tolerances["tol_mono"]
    )
    allowed = window_family.cauchy_gap + harness._CONSISTENCY_EXTRA
    consistency_gap = float(np.abs(result.values - window_family.limit_estimate).max())
    consistency_excess = consistency_gap - allowed
    candidates.append(consistency_excess)
    if consistency_excess > 0.0:
        notes.append(
            f"fixed point differs from ladder limit by {consistency_gap:.3e} "
            f"(allowed {allowed:.3e})"
        )
    residual_excess = fixed_point_residual(problem, result.values) - 2.0 * tolerance
    candidates.append(residual_excess)
    if residual_excess > 0.0:
        notes.append("fixed-point residual exceeds twice the iteration tolerance")
    violation = max(candidates)
    return violation <= 0.0, violation, ("; ".join(notes) if notes else None)


def csv_digests(out_dir: str | os.PathLike) -> dict[str, str]:
    """The sha256 of every CSV a campaign wrote under ``out_dir``, keyed by relative path."""

    root = pathlib.Path(out_dir)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*.csv"))
    }


def canonical_report(report: VerificationReport | Mapping) -> dict:
    """Report content with the timing fields removed (the determinism view)."""

    data = report.to_json_dict() if isinstance(report, VerificationReport) else dict(report)
    canonical = {key: value for key, value in data.items() if key != "generated_at"}
    canonical["checks"] = {
        name: {key: value for key, value in record.items() if key != "runtime_s"}
        for name, record in data["checks"].items()
    }
    return canonical


def per_cell_csv(columns: Sequence[tuple[str, Sequence | np.ndarray]], meta: Mapping) -> str:
    """Oracle of ``singsde.io.write_csv``: the text, formatted one cell at a time."""

    def format_cell(value: object) -> str:
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        if isinstance(value, bool):
            return str(value)
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return str(value)

    names = [name for name, _ in columns]
    arrays = [np.asarray(data) for _, data in columns]
    if arrays and any(arr.shape != arrays[0].shape for arr in arrays):
        raise ValueError("all columns must have identical length")
    handle = io.StringIO()
    for key, value in meta.items():
        handle.write(f"# {key}={format_cell(value)}\n")
    handle.write(",".join(names) + "\n")
    if arrays:
        for row in zip(*arrays):
            handle.write(",".join(format_cell(cell) for cell in row) + "\n")
    return handle.getvalue()


def float_corpus(size: int, seed: int) -> np.ndarray:
    """``size`` float64 cells for the CSV oracle: the special cases, shuffled, then random bit patterns.

    The special cases are 10**k and its neighbours for k = -5..17, 1e-4 and
    1e16 with theirs, every power of two (subnormals included), values whose
    shortest ``repr`` has 15 or 16 digits, exact ties such as 1e15 + 0.5,
    ±0, ±inf and NaN, each with both signs.  The random part mixes
    patterns drawn over all 2**64 (NaN payloads and subnormals included)
    with patterns whose exponent lies in the positional range of ``repr``;
    about half of those need 17 digits and most others 16.
    """

    rng = np.random.default_rng(seed)
    edges = np.array([float(f"1e{k}") for k in range(-5, 18)])
    neighbours = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf)])
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    mantissas = [rng.integers(10 ** (count - 1), 10**count, 200) for count in (15, 16)]
    short = [
        float(f"{mantissa}e{exponent}")
        for draw in mantissas
        for mantissa, exponent in zip(draw.tolist(), rng.integers(-22, 3, draw.size).tolist())
    ]
    # halfway between two 16-digit numbers (x.5 at 1e15), two 15-digit
    # numbers (x.5 at 1e14) or two 17-digit numbers (x.25 at 1e15)
    ties = np.concatenate(
        [
            10.0**15 + np.arange(50) + 0.5,
            10.0**14 + rng.integers(0, 10**14, 50) + 0.5,
            10.0**15 + np.arange(50) + 0.25,
        ]
    )
    limits = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    special = np.concatenate([neighbours, powers_of_two, short, ties, limits])
    special = np.concatenate([special, -special])
    rng.shuffle(special)
    random_count = max(size - special.size, 0)
    any_bits = rng.integers(0, 2**64, random_count, dtype=np.uint64, endpoint=False)
    in_range = rng.integers(1009, 1077, random_count, dtype=np.uint64) << np.uint64(52)
    in_range |= rng.integers(0, 2**52, random_count, dtype=np.uint64)
    in_range |= rng.integers(0, 2, random_count, dtype=np.uint64) << np.uint64(63)
    bits = np.where(rng.random(random_count) < 0.25, any_bits, in_range)
    return np.concatenate([special, bits.view(np.float64)])[:size]


def zero_noise_path(n: int, horizon: float, hurst_value: float) -> FbmPath:
    return zero_path(TimeGrid(horizon=horizon, step_count=n), HurstParam(hurst_value))
