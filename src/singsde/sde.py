"""Pathwise integrator for the regularized singular equation.

The regularized dynamics replace the singular time kernel ``t^{2H-1}`` by
``(t+eps)^{2H-1}`` and the reciprocal ``1/x`` by ``1/(x 1_{x>0} + eps)``:

    X_{k+1} = X_k + a * K(t_k, t_{k+1}, eps) / (X_k 1_{X_k>0} + eps)
                  - b * X_k * dt + sigma * (B_{k+1} - B_k),

where ``K(t1, t2, eps) = ((t2+eps)^{2H} - (t1+eps)^{2H}) / (2H)`` integrates
the time kernel exactly across the step while the state is frozen at the left
endpoint.  A plain left-endpoint evaluation of the kernel would be infinite at
t = 0 for tiny eps; the exact per-step integral is available in closed form,
so it is used instead.  The linear ``-bX`` term uses left-endpoint Euler (it
is Lipschitz; simplicity wins), and the state indicator is evaluated at the
frozen left endpoint, mirroring the continuous integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fbm import FbmPath, HurstParam, TimeGrid

__all__ = [
    "ComparisonHypothesisError",
    "RegularizedPath",
    "SdeSpec",
    "SolverError",
    "drift_eps",
    "kernel_column",
    "kernel_integral",
    "solve_batch",
    "solve_comparison_pair",
    "solve_regularized",
]


class SolverError(RuntimeError):
    """A non-finite state appeared during integration."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class ComparisonHypothesisError(ValueError):
    """The ordering hypotheses of the comparison integrator failed at a visited point."""


@dataclass(frozen=True)
class SdeSpec:
    """Model parameters (X_0, a, b, sigma, H) of the target equation."""

    x0: float
    a: float
    b: float
    sigma: float
    hurst: HurstParam

    def __post_init__(self) -> None:
        if not (self.x0 > 0.0 and math.isfinite(self.x0)):
            raise ValueError(f"x0 must be positive, got {self.x0}")
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"a must be positive, got {self.a}")
        if not (self.b >= 0.0 and math.isfinite(self.b)):
            raise ValueError(f"b must be nonnegative, got {self.b}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass
class RegularizedPath:
    """One regularized solution; immutable after construction by convention."""

    spec: SdeSpec
    epsilon: float
    grid: TimeGrid
    values: np.ndarray
    noise_ref: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.step_count + 1,):
            raise ValueError(
                f"values must have {self.grid.step_count + 1} entries, got shape {self.values.shape}"
            )
        if self.values[0] != self.spec.x0:
            raise ValueError("a solution must start at the spec's initial value")
        if not np.isfinite(self.values).all():
            raise ValueError("solution values must all be finite")


def drift_eps(t: float, x: float, spec: SdeSpec, epsilon: float) -> float:
    """Regularized drift a (t+eps)^{2H-1} / (x 1_{x>0} + eps) - b x.

    Strictly increases as eps decreases (both smoothed factors do), which is
    the mechanism behind the shared-noise ordering of the ladder.  Always
    finite: the denominator is at least eps.
    """

    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    two_h = 2.0 * spec.hurst.value
    denominator = (x if x > 0.0 else 0.0) + epsilon
    return spec.a * (t + epsilon) ** (two_h - 1.0) / denominator - spec.b * x


def kernel_integral(t1: float, t2: float, epsilon: float, hurst: HurstParam) -> float:
    """Exact integral of (s+eps)^{2H-1} over [t1, t2].

    eps = 0 is permitted only where the caller keeps the cofactor bounded or
    integrates exactly (the integral itself is finite for every eps >= 0).
    """

    if not (0.0 <= t1 <= t2):
        raise ValueError(f"need 0 <= t1 <= t2, got t1={t1}, t2={t2}")
    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    two_h = 2.0 * hurst.value
    return ((t2 + epsilon) ** two_h - (t1 + epsilon) ** two_h) / two_h


def kernel_column(grid: TimeGrid, epsilon: float, hurst: HurstParam) -> np.ndarray:
    """Per-step exact kernel integrals K(t_k, t_{k+1}, eps) for k = 0..n-1."""

    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    two_h = 2.0 * hurst.value
    shifted = grid.nodes() + epsilon
    powered = shifted**two_h
    return np.diff(powered) / two_h


def solve_regularized(spec: SdeSpec, epsilon: float, noise: FbmPath) -> RegularizedPath:
    """Integrate the regularized recursion along the given noise path.

    The noise grid defines the solution grid.  The recursion's denominator is
    at least eps at every step, so each drift increment is finite; any
    non-finite state (possible for extreme parameters) aborts with the step
    index in the diagnostic.
    """

    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if noise.hurst != spec.hurst:
        raise ValueError(
            f"noise roughness {noise.hurst.value} differs from spec roughness {spec.hurst.value}"
        )
    grid = noise.grid
    n = grid.step_count
    dt = grid.dt
    a, b, sigma = spec.a, spec.b, spec.sigma
    kernel = kernel_column(grid, epsilon, spec.hurst).tolist()
    noise_inc = np.diff(noise.values).tolist()
    values = [0.0] * (n + 1)
    x = spec.x0
    values[0] = x
    isfinite = math.isfinite
    for k in range(n):
        x = x + a * kernel[k] / ((x if x > 0.0 else 0.0) + epsilon) - b * x * dt + sigma * noise_inc[k]
        if not isfinite(x):
            raise SolverError(
                f"non-finite state at step {k + 1} (eps={epsilon}, dt={dt})", step_index=k + 1
            )
        values[k + 1] = x
    return RegularizedPath(
        spec=spec,
        epsilon=epsilon,
        grid=grid,
        values=np.array(values),
        noise_ref=noise.ref,
    )


_BLOCK_VALUES = 2**17


def _drift_table(spec: SdeSpec, eps_levels: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Time-major table of a * K(t_k, t_{k+1}, eps_j), shape (steps, levels)."""

    table = np.empty((grid.step_count, len(eps_levels)))
    for level, epsilon in enumerate(eps_levels):
        table[:, level] = spec.a * kernel_column(grid, float(epsilon), spec.hurst)
    return table


def _integrate_batch(
    spec: SdeSpec,
    eps_levels: np.ndarray,
    grid: TimeGrid,
    table: np.ndarray,
    noise_values: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Step every path and level of ``out`` (time-major: nodes x paths x levels).

    ``table`` is :func:`_drift_table` for the same spec, levels and grid.  Each
    entry goes through the scalar recursion's operations in the same order,
    ``((x + aK / (max(x, 0) + eps)) - (b x) dt) + sigma dB``, so the result is
    bit-identical to :func:`solve_regularized`.  Non-finite states are left
    in place; the caller inspects each path.

    A ufunc call costs far more than its few hundred elements, so every
    operand is a same-shape contiguous array: the per-level table and the
    per-path pushes are broadcast into scratch blocks of about
    ``_BLOCK_VALUES`` entries once per block, not once per step.
    """

    shape = out.shape[1:]
    block = min(grid.step_count, max(1, _BLOCK_VALUES // max(1, out[0].size)))
    pushes = spec.sigma * np.diff(noise_values, axis=1)
    zeros = np.zeros(shape)
    levels = np.broadcast_to(eps_levels, shape).copy()
    b = np.full(shape, spec.b)
    dt = np.full(shape, grid.dt)
    denominator = np.empty(shape)
    damping = np.empty(shape)
    drift_block = np.empty((block,) + shape)
    push_block = np.empty((block,) + shape)
    out[0] = spec.x0
    with np.errstate(all="ignore"):
        for start in range(0, grid.step_count, block):
            stop = min(start + block, grid.step_count)
            drifts = drift_block[: stop - start]
            drifts[...] = table[start:stop, None, :]
            steps = push_block[: stop - start]
            steps[...] = pushes[:, start:stop].T[:, :, None]
            for x, following, drift, push in zip(
                out[start:stop], out[start + 1 : stop + 1], drifts, steps
            ):
                np.maximum(x, zeros, out=denominator)
                np.add(denominator, levels, out=denominator)
                np.divide(drift, denominator, out=denominator)
                np.add(x, denominator, out=following)
                np.multiply(x, b, out=damping)
                np.multiply(damping, dt, out=damping)
                np.subtract(following, damping, out=following)
                np.add(following, push, out=following)
    return out


def solve_batch(
    spec: SdeSpec,
    eps_levels,
    grid: TimeGrid,
    noise_values: np.ndarray,
) -> np.ndarray:
    """Solve the regularized recursion for every noise path and every level at once.

    ``noise_values`` holds one driver path per row, shape (paths, nodes).  The
    result has shape (paths, levels, nodes), a view of a time-major array, and
    equals, entry for entry, what :func:`solve_regularized` computes for each
    (path, level) pair.  Unlike
    the scalar solver it does not raise on a non-finite state: such states
    stay in the result, and the caller checks each path.
    """

    levels = np.asarray(eps_levels, dtype=float)
    if levels.ndim != 1 or levels.size == 0:
        raise ValueError(f"eps_levels must be a nonempty 1-D sequence, got shape {levels.shape}")
    if not (levels > 0.0).all():
        raise ValueError(f"every epsilon must be positive, got {levels.tolist()}")
    noise_values = np.asarray(noise_values, dtype=float)
    if noise_values.ndim != 2 or noise_values.shape[1] != grid.step_count + 1:
        raise ValueError(
            f"noise_values must have shape (paths, {grid.step_count + 1}), got {noise_values.shape}"
        )
    out = np.empty((grid.step_count + 1, noise_values.shape[0], levels.size))
    _integrate_batch(spec, levels, grid, _drift_table(spec, levels, grid), noise_values, out)
    return out.transpose(1, 2, 0)


def solve_comparison_pair(
    x0: float,
    g1: Callable[[float], float],
    g2: Callable[[float], float],
    f1: Callable[[float], float],
    f2: Callable[[float], float],
    h1: Callable[[float], float],
    h2: Callable[[float], float],
    forcing: np.ndarray,
    grid: TimeGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate two ordered drift systems under one shared forcing path.

    Both systems follow x_{k+1} = x_k + (g_i(t_k) f_i(x_k) + h_i(x_k)) dt
    + (forcing_{k+1} - forcing_k) with identical stepping, for ordering
    verification: strictly larger drift components force a trajectory that is
    never smaller.  The hypotheses 0 < g1 < g2, 0 < f1 < f2, h1 <= h2 are
    checked at every visited point (times on the grid, states of both
    trajectories) and a violation aborts — global verification is impossible
    for black-box callables.
    """

    forcing = np.asarray(forcing, dtype=float)
    if forcing.shape != (grid.step_count + 1,):
        raise ValueError(
            f"forcing must have {grid.step_count + 1} entries, got shape {forcing.shape}"
        )
    if forcing[0] != 0.0:
        raise ValueError("forcing path must start at 0 so both trajectories start at x0")
    dt = grid.dt
    nodes = grid.nodes()
    x_lo = float(x0)
    x_hi = float(x0)
    lo = np.empty(grid.step_count + 1)
    hi = np.empty(grid.step_count + 1)
    lo[0] = x_lo
    hi[0] = x_hi

    def check_time(t: float) -> tuple[float, float]:
        g1_t, g2_t = g1(t), g2(t)
        if not (0.0 < g1_t < g2_t):
            raise ComparisonHypothesisError(
                f"time-factor ordering 0 < g1 < g2 failed at t={t}: g1={g1_t}, g2={g2_t}"
            )
        return g1_t, g2_t

    def check_state(x: float) -> None:
        f1_x, f2_x = f1(x), f2(x)
        if not (0.0 < f1_x < f2_x):
            raise ComparisonHypothesisError(
                f"state-factor ordering 0 < f1 < f2 failed at x={x}: f1={f1_x}, f2={f2_x}"
            )
        if not (h1(x) <= h2(x)):
            raise ComparisonHypothesisError(
                f"additive ordering h1 <= h2 failed at x={x}: h1={h1(x)}, h2={h2(x)}"
            )

    for k in range(grid.step_count):
        t = float(nodes[k])
        g1_t, g2_t = check_time(t)
        check_state(x_lo)
        check_state(x_hi)
        jump = float(forcing[k + 1] - forcing[k])
        x_lo = x_lo + (g1_t * f1(x_lo) + h1(x_lo)) * dt + jump
        x_hi = x_hi + (g2_t * f2(x_hi) + h2(x_hi)) * dt + jump
        if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
            raise SolverError(f"non-finite state at step {k + 1}", step_index=k + 1)
        lo[k + 1] = x_lo
        hi[k + 1] = x_hi
    return lo, hi
