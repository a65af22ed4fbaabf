"""Pathwise integrator for the regularized singular equation.

The regularized dynamics replace the singular time kernel ``t^{2H-1}`` by
``(t+eps)^{2H-1}`` and the reciprocal ``1/x`` by ``1/(x 1_{x>0} + eps)``.
The singular term is stepped drift-implicitly, with the state frozen at the
right endpoint of the step:

    X_{k+1} = y_k + c_k / (X_{k+1} 1_{X_{k+1}>0} + eps),
    y_k = (1 - b dt) X_k + sigma * (B_{k+1} - B_k),   c_k = a * K(t_k, t_{k+1}, eps),

where ``K(t1, t2, eps) = ((t2+eps)^{2H} - (t1+eps)^{2H}) / (2H)`` integrates
the time kernel exactly across the step.  A plain endpoint evaluation of the
kernel would be infinite at t = 0 for tiny eps; the exact per-step integral is
available in closed form, so it is used instead.  The linear ``-bX`` term is
explicit (it is Lipschitz; simplicity wins).

The implicit equation has exactly one solution.  With ``h = (y + eps) / 2``,

    X_{k+1} + eps = h + min(sqrt(h^2 + c), h + c / eps):

the first branch is the positive root of ``(z + eps)(z - y) = c`` (the
solution when ``y > -c/eps``), the second is ``y + c/eps <= 0`` (the solution
otherwise), and the minimum picks the valid one everywhere.  The step is
continuous and nondecreasing in ``y``, with slope at most 1, and it increases
as eps shrinks, because ``K`` decreases in eps when H < 1/2.  So whenever
``b dt < 1`` (``y`` then increases with ``X_k``) the levels of a ladder solved
under one noise path stay ordered step by step, as the continuum solutions
are.  The explicit step ``X_k + c/(X_k^+ + eps)`` lacks that property: its
slope ``1 - c/(X_k + eps)^2`` is negative for ``0 < X_k < sqrt(c) - eps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .fbm import FbmPath, HurstParam, TimeGrid

__all__ = [
    "RegularizedPath",
    "SdeSpec",
    "SolverError",
    "kernel_column",
    "solve_regularized",
]


class SolverError(RuntimeError):
    """A non-finite state appeared during integration."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class SdeSpec:
    """Model parameters (X_0, a, b, sigma, H) of the target equation."""

    x0: float
    a: float
    b: float
    sigma: float
    hurst: HurstParam

    def __post_init__(self) -> None:
        if not isinstance(self.hurst, HurstParam):
            raise ValueError(f"hurst must be a HurstParam, got {self.hurst!r}")
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
    """One regularized solution with the noise path that drove it; immutable by convention."""

    spec: SdeSpec
    epsilon: float
    noise: FbmPath
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        nodes = self.noise.grid.step_count + 1
        if self.values.shape != (nodes,):
            raise ValueError(f"values must have {nodes} entries, got shape {self.values.shape}")
        if self.values[0] != self.spec.x0:
            raise ValueError("a solution must start at the spec's initial value")
        if not np.isfinite(self.values).all():
            raise ValueError("solution values must all be finite")


def _kernel_table(grid: TimeGrid, eps_levels: np.ndarray, hurst: HurstParam) -> np.ndarray:
    """Time-major table of the exact kernel integrals K(t_k, t_{k+1}, eps_j), shape (steps, levels).

    One power of the time-major (nodes, levels) shifted nodes, differenced in
    place, so the table needs no second array.  The table is a view of that
    array without its last row.
    """

    two_h = 2.0 * hurst.value
    powered = grid.nodes()[:, None] + eps_levels
    powered **= two_h
    table = powered[:-1]
    # row k is read before it is overwritten, so numpy subtracts in place
    np.subtract(powered[1:], table, out=table)
    table /= two_h
    return table


def kernel_column(grid: TimeGrid, epsilon: float, hurst: HurstParam) -> np.ndarray:
    """Per-step exact kernel integrals K(t_k, t_{k+1}, eps) for k = 0..n-1."""

    if epsilon < 0.0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    return _kernel_table(grid, np.array([epsilon], dtype=float), hurst)[:, 0]


def _solver_error(step: int, epsilon: float, dt: float) -> SolverError:
    """The one message every solver gives for a level's first non-finite state."""

    return SolverError(f"non-finite state at step {step} (eps={epsilon}, dt={dt})", step_index=step)


def solve_regularized(spec: SdeSpec, epsilon: float, noise: FbmPath) -> RegularizedPath:
    """Integrate the regularized recursion along the given noise path.

    The noise grid defines the solution grid.  Each step is the closed-form
    solution of the drift-implicit equation (see the module docstring), so
    every drift increment is finite; any non-finite state (possible for
    extreme parameters) aborts with the step index in the diagnostic.  The
    state is carried as ``X + eps``, the form the closed form produces.
    """

    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if noise.hurst != spec.hurst:
        raise ValueError(
            f"noise roughness {noise.hurst.value} differs from spec roughness {spec.hurst.value}"
        )
    grid = noise.grid
    n = grid.step_count
    dt = grid.dt
    bdt = spec.b * dt
    damping = (1.0 - bdt) * 0.5
    drifts = (spec.a * kernel_column(grid, epsilon, spec.hurst)).tolist()
    half_pushes = (spec.sigma * np.diff(noise.values) * 0.5 + epsilon * bdt * 0.5).tolist()
    shifted = spec.x0 + epsilon
    shifted_values = [shifted]
    append = shifted_values.append
    sqrt = math.sqrt
    for c, half_push in zip(drifts, half_pushes):
        h = shifted * damping + half_push
        root = sqrt(h * h + c)
        floor = h + c / epsilon
        shifted = h + (root if root < floor else floor)
        append(shifted)
    values = np.fromiter(shifted_values, float, n + 1) - epsilon
    values[0] = spec.x0
    finite = np.isfinite(values)
    if not finite.all():
        raise _solver_error(int(np.argmin(finite)), float(epsilon), dt)
    return RegularizedPath(spec=spec, epsilon=epsilon, noise=noise, values=values)


# Entries per scratch array of the batched step loop (512 KiB of float64),
# which holds four: the time block's drifts, drift ratios, pushes and values.
# A larger block shortens no step, and costs memory next to every chunk.
_BLOCK_VALUES = 2**16


def _drift_table(spec: SdeSpec, eps_levels: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Time-major table of a * K(t_k, t_{k+1}, eps_j), shape (steps, levels).

    :func:`_kernel_table` scaled in place, so every level is
    :func:`kernel_column` times ``a``.
    """

    table = _kernel_table(grid, eps_levels, spec.hurst)
    table *= spec.a
    return table


def _integrate_batch(
    spec: SdeSpec,
    groups: Sequence[tuple[TimeGrid, np.ndarray, np.ndarray, int]],
    noise_rows: Sequence[np.ndarray],
) -> Iterator[tuple[int, np.ndarray]]:
    """Step every path and level, yielding ``(first node, values)`` per time block.

    ``noise_rows`` holds one driver path per row (a 2-D array or a list of
    rows), in runs of consecutive rows that share a grid and levels: each
    group ``(grid, eps_levels, table, rows)`` names the next ``rows`` rows'
    grid, their levels and :func:`_drift_table` for the spec, those levels and
    that grid.  Every grid has the same step count and every group the same
    number of levels.  A row brings its own ``b dt`` and its own levels, and
    each group fills its rows of the drift blocks from its one table.  Each
    yielded block is time-major, shape (steps, paths, levels), and holds the
    solution at nodes ``first .. first + steps - 1``; together the blocks
    cover nodes 1..n in order.  Node 0 is ``x0`` on every path and level and
    is never yielded.  A block is a scratch buffer that the next block
    overwrites, so a consumer copies what it keeps.

    The state is carried across blocks as ``v = X + eps``, as the scalar
    solver carries it, and each entry goes through the scalar recursion's
    operations in the same order, ``h = v (1 - b dt)/2 + (sigma dB/2 + eps b dt/2)``
    and ``v' = h + min(sqrt(h h + c), h + c/eps)``; a block's ``eps`` is
    subtracted once as it leaves the step loop.  So every value is
    bit-identical to :func:`solve_regularized` on the row's grid at its level.
    Non-finite states are left in place; the consumer inspects each path.

    A ufunc call costs far more than its few hundred elements, so every
    operand is a same-shape contiguous array: the per-level ``c`` and
    ``c/eps`` and the per-path half pushes are broadcast into scratch blocks
    of about ``_BLOCK_VALUES`` entries once per block, not once per step.  The
    half pushes are read from the noise rows block by block, so no copy of the
    whole noise is made.
    """

    step_count = groups[0][0].step_count
    ends = accumulate(rows for *_, rows in groups)
    slices = [slice(end - rows, end) for end, (*_, rows) in zip(ends, groups)]
    shape = (len(noise_rows), groups[0][1].size)
    block = min(step_count, max(1, _BLOCK_VALUES // max(1, shape[0] * shape[1])))
    eps_rows = np.empty(shape)
    half_eps_bdt = np.empty(shape)
    damping = np.empty(shape)
    for rows, (grid, levels, _, _) in zip(slices, groups):
        bdt = spec.b * grid.dt
        eps_rows[rows] = levels
        half_eps_bdt[rows] = levels * bdt * 0.5
        damping[rows] = (1.0 - bdt) * 0.5
    h = np.empty(shape)
    root = np.empty(shape)
    floor = np.empty(shape)
    state = np.empty(shape)
    state[...] = spec.x0 + eps_rows
    drift_block = np.empty((block,) + shape)
    ratio_block = np.empty((block,) + shape)
    push_block = np.empty((block,) + shape)
    value_block = np.empty((block,) + shape)
    with np.errstate(all="ignore"):
        for start in range(0, step_count, block):
            stop = min(start + block, step_count)
            drifts = drift_block[: stop - start]
            ratios = ratio_block[: stop - start]
            for rows, (_, levels, table, _) in zip(slices, groups):
                drifts[:, rows] = table[start:stop, None, :]
                ratios[:, rows] = (table[start:stop] / levels)[:, None, :]
            window = np.array([row[start : stop + 1] for row in noise_rows])
            steps = push_block[: stop - start]
            steps[...] = (spec.sigma * np.diff(window, axis=1) * 0.5).T[:, :, None]
            np.add(steps, half_eps_bdt, out=steps)
            values = value_block[: stop - start]
            v = state
            for following, drift, ratio, push in zip(values, drifts, ratios, steps):
                np.multiply(v, damping, out=h)
                np.add(h, push, out=h)
                np.multiply(h, h, out=root)
                np.add(root, drift, out=root)
                np.sqrt(root, out=root)
                np.add(h, ratio, out=floor)
                np.minimum(root, floor, out=root)
                np.add(h, root, out=following)
                v = following
            state[...] = v
            np.subtract(values, eps_rows, out=values)
            yield start + 1, values
