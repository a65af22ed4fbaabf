"""Shared helpers for the test suite.

Closed-form oracles (among them the fBm covariance formulas, which only the
tests evaluate), a dense Cholesky sampler as the oracle of the circulant
noise generator, Monte Carlo z-score machinery for the noise generator,
report canonicalization for the determinism contract, the cell-by-cell CSV
writer that the column-wise one must match byte for byte, and the scalar
eps-continuity loop that the batched check must match exactly.
"""

from __future__ import annotations

import io
import math
from typing import Iterator, Mapping, Sequence

import numpy as np

from singsde import (
    EpsContinuityResult,
    EpsilonFamily,
    EpsilonLadder,
    FbmPath,
    HurstParam,
    SdeSpec,
    SeedRecord,
    SolverError,
    TimeGrid,
    VerificationReport,
    build_families,
    generate_fbm,
    path_stream,
    solve_regularized,
)


def closed_form(t: np.ndarray | float, x0: float, a: float, hurst_value: float):
    """Exact noise-free, undamped solution sqrt(x0^2 + a t^{2H} / H).

    Solves x' = a t^{2H-1} / x with x(0) = x0 (differentiate x^2 to verify),
    which is the b=0, zero-driver member of the equation family.
    """

    return np.sqrt(x0 * x0 + a * np.power(t, 2.0 * hurst_value) / hurst_value)


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


def eps_continuity_oracle(
    spec: SdeSpec, noise: FbmPath, eps_star: float, h_sequence: Sequence[float]
) -> EpsContinuityResult:
    """Scalar reference of ``verify_eps_continuity`` for one path.

    Seven (in general 1 + 2 * offsets) ``solve_regularized`` calls, in the
    order eps*, eps* + h_1, eps* - h_1, ...; a non-finite state raises the
    first failing level's SolverError.  No input validation.
    """

    center = solve_regularized(spec, eps_star, noise).values
    rows: list[tuple[float, float, float]] = []
    for h in (float(h) for h in h_sequence):
        above = solve_regularized(spec, eps_star + h, noise).values
        below = solve_regularized(spec, eps_star - h, noise).values
        rows.append(
            (
                h,
                float(np.abs(above - center).max()),
                float(np.abs(below - center).max()),
            )
        )
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


def zero_noise_path(n: int, horizon: float, hurst_value: float) -> FbmPath:
    from singsde import zero_path

    return zero_path(TimeGrid(horizon=horizon, step_count=n), HurstParam(hurst_value))
