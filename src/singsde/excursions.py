"""Excursion structure of limit trajectories and the restart identities.

The set of grid nodes where the limit estimate exceeds a threshold decomposes
into maximal runs of consecutive nodes — the grid analogue of the countable
union of open intervals on which the limit process is strictly positive.
Inside each run, retreated a few nodes from both ends, the trajectory should
satisfy the same integral identity it satisfies globally, but restarted from
the window's left edge with no initial-value term: the correction process is
flat on positive excursions.  The residual of that identity, and its decay
under nested 2x grid refinement, are the checkable surrogates.

Thresholds: 0 for the set decomposition itself (the positive set has an exact
discrete analogue) and, for residual-window selection, the family's Cauchy
gap plus ``NONNEG_BUDGET_EXTRA`` (``residual_window_threshold``), because the
residual needs the path bounded away from 0 to control the reciprocal.  That
threshold is its own: ``limit-nonneg``'s budget is the Cauchy gap plus
``ladder.DEFAULT_TOL_NONNEG``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import FbmPath, TimeGrid
from .ladder import EpsilonFamily, _identity_floor, _identity_kernel, _limit_row, identity_residual
from .sde import SdeSpec

__all__ = [
    "ExcursionSet",
    "InitialIdentityResult",
    "IntervalTooShortError",
    "RestartResidual",
    "decompose_excursions",
    "residual_window_threshold",
    "restart_residual",
    "verify_endpoint_limits",
    "verify_initial_identity",
]

DEFAULT_MARGIN_STEPS = 5
NONNEG_BUDGET_EXTRA = 1e-6


class IntervalTooShortError(RuntimeError):
    """The requested interior window is empty after applying the margin."""


@dataclass(frozen=True)
class ExcursionSet:
    """Maximal runs of consecutive nodes where the values exceed the threshold.

    ``intervals`` holds inclusive (start, end) node-index pairs; the union of
    the reported runs equals exactly the set of nodes above the threshold.
    The flanking nodes start-1 / end+1 (when they exist) are at or below the
    threshold by maximality.  ``first_interval_closed_left`` marks a first
    run containing node 0 (a strictly positive start pins 0 to the first
    run); ``last_interval_truncated_right`` marks a final run cut off by the
    horizon rather than by a crossing.
    """

    intervals: tuple[tuple[int, int], ...]
    first_interval_closed_left: bool
    last_interval_truncated_right: bool
    threshold: float


def decompose_excursions(values: np.ndarray, grid: TimeGrid, threshold: float) -> ExcursionSet:
    """Run-length decomposition of {k : values[k] > threshold}."""

    if not (threshold >= 0.0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be nonnegative and finite, got {threshold}")
    x = np.asarray(values, dtype=float)
    if x.shape != (grid.step_count + 1,):
        raise ValueError(f"values must have {grid.step_count + 1} entries, got shape {x.shape}")
    # Padded with a node below on each side, the above-mask changes value at
    # each run's first node and one past its last, in that order.
    above = np.concatenate([[False], x > threshold, [False]])
    edges = np.flatnonzero(above[1:] != above[:-1])
    intervals = tuple(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))
    return ExcursionSet(
        intervals=intervals,
        first_interval_closed_left=bool(intervals and intervals[0][0] == 0),
        last_interval_truncated_right=bool(intervals and intervals[-1][1] == x.size - 1),
        threshold=threshold,
    )


def residual_window_threshold(family: EpsilonFamily) -> float:
    """Detection threshold for residual windows: the Cauchy gap plus ``NONNEG_BUDGET_EXTRA``."""

    return family.cauchy_gap + NONNEG_BUDGET_EXTRA


@dataclass(frozen=True)
class EndpointCheck:
    """Verdict for one excursion's boundary values."""

    interval_index: int
    left_endpoint_value: float | None
    right_endpoint_value: float | None
    passes: bool


def verify_endpoint_limits(
    values: np.ndarray,
    excursions: ExcursionSet,
    tol: float,
) -> list[EndpointCheck]:
    """Check boundary smallness for each excursion.

    The flanking nodes just outside a run must satisfy |value| <= tol.
    Boundaries created by the grid edge rather than a crossing are skipped.
    No test of the interior nodes next to a boundary is needed: the path
    approaches 0 there, but not necessarily monotonically, so the most one
    could assert is x[node] <= tol + (oscillation accumulated from the
    boundary), and once |x[boundary]| <= tol the triangle inequality gives
    x[node] <= |x[boundary]| + sum of |steps| <= tol + oscillation.
    """

    x = np.asarray(values, dtype=float)
    checks: list[EndpointCheck] = []
    last = x.size - 1
    for index, (start, end) in enumerate(excursions.intervals):
        left_value = float(x[start - 1]) if start > 0 else None
        right_value = float(x[end + 1]) if end < last else None
        ok = not any(
            abs(x[boundary]) > tol for boundary in (start - 1, end + 1) if 0 <= boundary <= last
        )
        checks.append(
            EndpointCheck(
                interval_index=index,
                left_endpoint_value=left_value,
                right_endpoint_value=right_value,
                passes=ok,
            )
        )
    return checks


@dataclass(frozen=True)
class RestartResidual:
    """Residual profile of the restarted integral identity on one window.

    The profile is anchored at the window's left edge (margin nodes inside
    the excursion), where it is exactly 0.
    """

    anchor_index: int
    window_end_index: int
    profile: np.ndarray
    sup_residual: float


def restart_residual(
    values: np.ndarray,
    noise: FbmPath,
    spec: SdeSpec,
    start: int,
    end: int,
    margin_steps: int = DEFAULT_MARGIN_STEPS,
) -> RestartResidual:
    """Evaluate the restarted identity inside the excursion on nodes start..end.

    The window retreats ``margin_steps`` nodes from both ends of the run
    (the identity is an interior statement; boundary nodes sit at the
    reciprocal's edge of validity).  An empty window raises
    :class:`IntervalTooShortError`.
    """

    if margin_steps < 1:
        raise ValueError(f"margin_steps must be positive, got {margin_steps}")
    x = np.asarray(values, dtype=float)
    if x.shape != noise.values.shape:
        raise ValueError(f"values must have {noise.values.size} entries, got shape {x.shape}")
    if not (0 <= start and end < x.size):
        raise ValueError(f"interval nodes {start}..{end} fall outside 0..{x.size - 1}")
    window_start = start + margin_steps
    window_end = end - margin_steps
    if window_end <= window_start:
        raise IntervalTooShortError(
            f"the interval on nodes {start}..{end} leaves no interior window after a "
            f"{margin_steps}-step margin"
        )
    profile = identity_residual(
        x, noise.values, spec, noise.grid, window_start, window_end, x[window_start]
    )
    return RestartResidual(
        anchor_index=window_start,
        window_end_index=window_end,
        profile=profile,
        sup_residual=float(np.abs(profile).max()),
    )


@dataclass(frozen=True)
class InitialIdentityResult:
    """Identity residual on the initial positive window against its budget.

    budget = a * (frozen-reciprocal quadrature bound) + 2 * cauchy_gap: the
    quadrature term bounds the right-frozen singular integral against its
    exact counterpart by the reciprocal's total variation per step, and two
    Cauchy gaps cover the limit estimate's distance to the true limit on both
    sides of the identity.
    """

    sup_residual: float
    budget: float
    window_end_index: int
    passes: bool


def verify_initial_identity(family: EpsilonFamily) -> InitialIdentityResult:
    """Check the identity with the initial-value term on [0, first crossing).

    The window runs from the origin to ``DEFAULT_MARGIN_STEPS`` nodes before
    the first node at or below the residual threshold (the whole grid when
    no such node exists).
    """

    spec = family.spec
    floor = _identity_floor(spec)
    x = _limit_row(family)
    threshold = residual_window_threshold(family)
    below = np.flatnonzero(x[1:] <= threshold)
    first_crossing = int(below[0] + 1) if below.size else family.grid.step_count
    window_end = max(first_crossing - DEFAULT_MARGIN_STEPS, 1)
    profile = identity_residual(x, family.noise.values, spec, family.grid, 0, window_end, spec.x0)
    sup_residual = float(np.abs(profile).max())
    kernel = _identity_kernel(family.grid, spec.hurst)[:window_end]
    reciprocal = 1.0 / np.maximum(x[: window_end + 1], floor)
    quadrature = float(np.sum(np.abs(np.diff(reciprocal)) * kernel))
    budget = spec.a * quadrature + 2.0 * family.cauchy_gap
    return InitialIdentityResult(
        sup_residual=sup_residual,
        budget=budget,
        window_end_index=window_end,
        passes=sup_residual <= budget,
    )
