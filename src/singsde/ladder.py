"""Vanishing-regularization ladders and the pathwise limit verifications.

A ladder solves the regularized equation at a geometrically decreasing
sequence of regularization levels, all driven by one shared noise path.
Shared noise couples the levels pathwise: a smaller level has strictly larger
drift everywhere, so the solutions increase monotonically as the level
shrinks.  The discrete solutions keep that order exactly whenever
``b dt < 1``: the solver's drift-implicit step is nondecreasing in the state
and increases as the level shrinks (see :mod:`singsde.sde`), so only rounding
can break the ordering.  The limit is estimated by the deepest level, and
the sup-distance between the two deepest levels (the Cauchy gap) serves as
the limit estimate's error budget throughout — the convergence is monotone
with no proven rate, so reporting the remaining gap is the honest
extrapolation.
Families of many paths are solved together: every path and level of a chunk
advance through one batched recursion (:func:`build_families`).

Verification operations check, per path: the ordering itself, a uniform upper
bound ``X_0 + a T^{2H}/(H X_0) + 2 sigma sup|B|``, decay of the
nonpositive-time measure along the ladder, nonnegativity of the limit
estimate, nonnegativity (up to budget) of the correction process closing the
integral identity, and continuity of the solution in the regularization
parameter.  The continuity check solves its own levels eps* and eps* +/- h,
not the ladder's; :func:`verify_eps_continuity` solves them for a whole block
of noise paths in one batched recursion, and :func:`build_families` runs it
once per chunk when asked, so each family carries its gap table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fbm import FbmPath, HurstParam, TimeGrid
from .sde import (
    SdeSpec,
    SolverError,
    _drift_table,
    _first_non_finite,
    _integrate_batch,
    kernel_column,
    solve_batch,
)

__all__ = [
    "BoundCertificate",
    "CompensatorEstimate",
    "EpsContinuityResult",
    "EpsilonFamily",
    "EpsilonLadder",
    "MeasureDecayResult",
    "NonnegativityResult",
    "build_families",
    "build_family",
    "compensator_budget",
    "compute_compensator",
    "identity_residual",
    "nonpositive_measure",
    "verify_eps_continuity",
    "verify_limit_nonnegativity",
    "verify_measure_decay",
    "verify_nested_zero_sets",
    "verify_upper_bound",
]

DEFAULT_TOL_MONO = 1e-12
DEFAULT_TOL_BOUND = 1e-9
DEFAULT_FLOOR_SCALE = 1e-6
COMPENSATOR_BUDGET_EXTRA = 1e-6

# Solution values per solver chunk (16 MiB of float64): 11 paths of an
# 11-level ladder on 2^14 steps.  Larger chunks spread the per-step ufunc
# overhead over more paths but cost resident memory.
_CHUNK_VALUES = 2**21


@dataclass(frozen=True)
class EpsilonLadder:
    """Geometric levels eps_j = eps0 * ratio^j for j = 0..depth."""

    eps0: float
    ratio: float
    depth: int

    def __post_init__(self) -> None:
        if not (self.eps0 > 0.0 and math.isfinite(self.eps0)):
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        if not (0.0 < self.ratio < 1.0):
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        if isinstance(self.depth, bool) or not (isinstance(self.depth, int) and self.depth >= 1):
            raise ValueError(f"depth must be a positive integer, got {self.depth}")
        if not self.levels()[-1] > 0.0:
            raise ValueError(
                f"the deepest level underflows to 0 (eps0={self.eps0}, ratio={self.ratio}, "
                f"depth={self.depth})"
            )

    def levels(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.depth + 1, dtype=float)


@dataclass
class EpsilonFamily:
    """All ladder levels on one grid under one noise path.

    ``values`` holds one row per level, shape (levels, nodes), shallowest
    first; its last row is the limit estimate.  ``cauchy_gap`` is the
    sup-distance between the two deepest levels.
    ``mono_violation_count`` / ``mono_worst_deficit`` record how often and how
    badly the shared-noise ordering failed beyond the rounding tolerance
    (zero in correct operation: when ``b dt < 1`` the drift-implicit step
    orders the levels exactly, so only rounding can break the ordering).
    ``eps_continuity`` is the path's :func:`verify_eps_continuity` outcome
    when the family was built with that probe, else None.
    """

    spec: SdeSpec
    noise: FbmPath
    ladder: EpsilonLadder
    values: np.ndarray
    cauchy_gap: float
    mono_violation_count: int
    mono_worst_deficit: float
    eps_continuity: EpsContinuityResult | SolverError | None = None

    @property
    def limit_estimate(self) -> np.ndarray:
        return self.values[-1]

    @property
    def noise_ref(self) -> str:
        return self.noise.ref

    @property
    def grid(self) -> TimeGrid:
        return self.noise.grid


def build_families(
    spec: SdeSpec,
    noises: Iterable[FbmPath],
    ladder: EpsilonLadder,
    tol_mono: float = DEFAULT_TOL_MONO,
    eps_continuity: tuple[float, Sequence[float]] | None = None,
) -> Iterator[EpsilonFamily | SolverError]:
    """Solve every ladder level on each noise path, one batched chunk at a time.

    Yields, in input order, one :class:`EpsilonFamily` per noise, or the
    :class:`SolverError` that :func:`solve_regularized` would raise for it (the
    first failing level, at its first non-finite step).  A failing path does
    not disturb the others in its chunk.  Noises are drawn from the iterable
    lazily, one chunk of about ``_CHUNK_VALUES`` solution values ahead, and
    must all share one grid and the spec's roughness.  Each family owns a copy
    of its values; none aliases the chunk buffer.  The chunk buffer is
    allocated once, for the first chunk, and reused for the later ones.

    With ``eps_continuity = (eps_star, offsets)``, each chunk first runs
    :func:`verify_eps_continuity` on its noise block, and every family carries
    its path's outcome; only the reduced gap tables outlive that call.
    """

    if ladder.depth < 2:
        raise ValueError(f"ladder depth must be at least 2, got {ladder.depth}")
    levels = ladder.levels()
    noises = iter(noises)
    first = next(noises, None)
    if first is None:
        return
    grid = first.grid
    probe_levels = 0 if eps_continuity is None else 1 + 2 * len(eps_continuity[1])
    width = max(1, _CHUNK_VALUES // (max(levels.size, probe_levels) * (grid.step_count + 1)))
    chunk = [first, *islice(noises, width - 1)]
    table = _drift_table(spec, levels, grid)
    buffer = np.empty((grid.step_count + 1, len(chunk), levels.size))
    while chunk:
        for noise in chunk:
            if noise.hurst != spec.hurst:
                raise ValueError(
                    f"noise roughness {noise.hurst.value} differs from spec roughness "
                    f"{spec.hurst.value}"
                )
            if noise.grid != grid:
                raise ValueError(f"every noise must share the grid {grid}, got {noise.grid}")
        block = np.array([noise.values for noise in chunk])
        if eps_continuity is None:
            probes: list[EpsContinuityResult | SolverError | None] = [None] * len(chunk)
        else:
            probes = verify_eps_continuity(spec, grid, block, *eps_continuity)
        solved = _integrate_batch(spec, levels, grid, table, block, buffer[:, : len(chunk)])
        for path, (noise, probe) in enumerate(zip(chunk, probes)):
            values = solved[:, path].T.copy()
            yield _family(spec, noise, ladder, levels, values, tol_mono, probe)
        chunk = list(islice(noises, width))


def _family(
    spec: SdeSpec,
    noise: FbmPath,
    ladder: EpsilonLadder,
    levels: np.ndarray,
    values: np.ndarray,
    tol_mono: float,
    eps_continuity: EpsContinuityResult | SolverError | None,
) -> EpsilonFamily | SolverError:
    """Wrap one path's (levels, nodes) block, or report its first non-finite state."""

    failure = _first_non_finite(values, levels, noise.grid.dt)
    if failure is not None:
        return failure
    deficit = values[:-1, 1:] - values[1:, 1:]
    mask = deficit > tol_mono
    return EpsilonFamily(
        spec=spec,
        noise=noise,
        ladder=ladder,
        values=values,
        cauchy_gap=float(np.abs(values[-1] - values[-2]).max()),
        mono_violation_count=int(mask.sum()),
        mono_worst_deficit=float(deficit[mask].max(initial=0.0)),
        eps_continuity=eps_continuity,
    )


def build_family(
    spec: SdeSpec,
    noise: FbmPath,
    ladder: EpsilonLadder,
    tol_mono: float = DEFAULT_TOL_MONO,
) -> EpsilonFamily:
    """Solve every ladder level on the shared noise and record the diagnostics.

    The one-noise case of :func:`build_families`; raises its :class:`SolverError`.
    """

    (outcome,) = build_families(spec, [noise], ladder, tol_mono)
    if isinstance(outcome, SolverError):
        raise outcome
    return outcome


@dataclass(frozen=True)
class BoundCertificate:
    """Uniform bound C + 2 sigma sup|B| scanned over every level and node."""

    constant: float
    noise_sup: float
    bound: float
    max_violation: float
    tolerance: float

    @property
    def passes(self) -> bool:
        return self.max_violation <= self.tolerance


def verify_upper_bound(family: EpsilonFamily, tol_bound: float = DEFAULT_TOL_BOUND) -> BoundCertificate:
    """Certify X^eps_t <= X_0 + a T^{2H}/(H X_0) + 2 sigma max|B| across the family."""

    spec = family.spec
    grid = family.grid
    two_h = 2.0 * spec.hurst.value
    constant = spec.x0 + spec.a * grid.horizon**two_h / (spec.hurst.value * spec.x0)
    noise_sup = float(np.abs(family.noise.values).max())
    bound = constant + 2.0 * spec.sigma * noise_sup
    max_violation = float(family.values.max()) - bound
    return BoundCertificate(
        constant=constant,
        noise_sup=noise_sup,
        bound=bound,
        max_violation=max_violation,
        tolerance=tol_bound,
    )


def nonpositive_measure(family: EpsilonFamily) -> np.ndarray:
    """Per level, the grid surrogate of the time spent at or below 0.

    Entry j is dt * #{k >= 1 : X^{eps_j}_k <= 0}.
    """

    return family.grid.dt * np.count_nonzero(family.values[:, 1:] <= 0.0, axis=1)


@dataclass(frozen=True)
class MeasureDecayResult:
    """Per-level nonpositive-time measures and their monotonicity verdict."""

    per_level: list[float]
    nonincreasing: bool

    @property
    def passes(self) -> bool:
        return self.nonincreasing


def verify_measure_decay(family: EpsilonFamily) -> MeasureDecayResult:
    """Check the nonpositive-time measure is nonincreasing along the ladder.

    The ordering nests the nonpositive sets level by level, which forces the
    measures to be nonincreasing.
    """

    per_level = nonpositive_measure(family).tolist()
    nonincreasing = all(b <= a for a, b in zip(per_level[:-1], per_level[1:]))
    return MeasureDecayResult(per_level=per_level, nonincreasing=nonincreasing)


def verify_nested_zero_sets(family: EpsilonFamily) -> tuple[bool, int]:
    """Exact set containment of nonpositive nodes, deep level inside shallow.

    Returns (all_nested, first_level_index_that_breaks or -1).  Implied by the
    ordering with zero tolerance; tested independently so a rounding-scale
    ordering slip that flips a set membership is caught and localized.
    """

    nonpositive = family.values[:, 1:] <= 0.0
    breaks = np.flatnonzero((nonpositive[1:] & ~nonpositive[:-1]).any(axis=1))
    if breaks.size:
        return False, int(breaks[0]) + 1
    return True, -1


@dataclass(frozen=True)
class NonnegativityResult:
    """Minimum of the limit estimate against its negativity tolerance."""

    worst_value: float
    worst_index: int
    tolerance: float
    passes: bool


def verify_limit_nonnegativity(family: EpsilonFamily, tol: float) -> NonnegativityResult:
    """Pass iff min_k limit_estimate[k] >= -tol.

    The natural tolerance is ``cauchy_gap + small``: the true limit dominates
    the deepest level from above by at most the remaining monotone gap.
    """

    worst_index = int(np.argmin(family.limit_estimate))
    worst_value = float(family.limit_estimate[worst_index])
    return NonnegativityResult(
        worst_value=worst_value,
        worst_index=worst_index,
        tolerance=tol,
        passes=worst_value >= -tol,
    )


@functools.lru_cache(maxsize=16)
def _identity_kernel(grid: TimeGrid, hurst: HurstParam) -> np.ndarray:
    """``kernel_column(grid, 0, hurst)``, cached per grid in a small LRU cache.

    Read-only, because every caller shares the array.
    """

    kernel = kernel_column(grid, 0.0, hurst)
    kernel.flags.writeable = False
    return kernel


def identity_residual(
    values: np.ndarray,
    noise_values: np.ndarray,
    spec: SdeSpec,
    grid: TimeGrid,
    start: int,
    end: int,
    anchor: float,
    floor: float,
) -> np.ndarray:
    """Residual of the integral identity on nodes start..end, zero at start.

    R(t) = X(t) - anchor - a * sum_k K(t_k, t_{k+1}, 0) / max(X_{k+1}, floor)
           + b * (trapezoid of X) - sigma * (B(t) - B(t_start)),
    with both running sums taken from t_start.  The singular sum uses the
    exact kernel and freezes 1/X at each step's right endpoint, as the
    drift-implicit solver step does; the floor keeps it finite where X dips
    below the floor.  ``anchor`` is X_0 for the identity from the time
    origin and X(t_start) for an identity restarted at t_start.  The kernel
    is computed once per grid and reused by later calls.
    """

    if not (floor > 0.0):
        raise ValueError(f"floor must be positive, got {floor}")
    x = values[start : end + 1]
    noise = noise_values[start : end + 1]
    kernel = _identity_kernel(grid, spec.hurst)[start:end]
    singular = np.concatenate([[0.0], np.cumsum(kernel / np.maximum(x[1:], floor))])
    trapezoid = np.concatenate([[0.0], np.cumsum(0.5 * (x[1:] + x[:-1]) * grid.dt)])
    return x - anchor - spec.a * singular + spec.b * trapezoid - spec.sigma * (noise - noise[0])


@dataclass
class CompensatorEstimate:
    """Reconstruction of the correction process closing the integral identity.

    L(t) = X(t) - X_0 - a * (singular integral) + b * (trapezoid of X)
           - sigma * B(t), evaluated on the limit estimate
    (:func:`identity_residual` over the whole grid).  L(0) = 0 exactly;
    in the continuum the correction is nonnegative, and the discrete estimate
    should stay above minus its error budget (see :func:`compensator_budget`).
    """

    values: np.ndarray
    floor: float
    flagged_nodes: np.ndarray


def compute_compensator(family: EpsilonFamily, floor: float | None = None) -> CompensatorEstimate:
    """Evaluate the correction-process estimate on the family's limit estimate.

    The flagged nodes are the right endpoints (1..n) where the limit
    estimate sits below the floor, so the reciprocal there is floored.
    """

    spec = family.spec
    grid = family.grid
    if floor is None:
        floor = DEFAULT_FLOOR_SCALE * spec.x0
    x = family.limit_estimate
    values = identity_residual(
        x, family.noise.values, spec, grid, 0, grid.step_count, spec.x0, floor
    )
    flagged = np.flatnonzero(x[1:] < floor) + 1
    return CompensatorEstimate(values=values, floor=floor, flagged_nodes=flagged)


def compensator_budget(family: EpsilonFamily, estimate: CompensatorEstimate) -> float:
    """Negativity allowance: 2 * cauchy_gap + a * |flagged| * dt / floor + 1e-6.

    Two Cauchy gaps cover the monotone tail between the deepest level and the
    true limit on both sides of the identity; the flagged-mass term covers the
    floored reciprocal on nodes where the limit estimate sits below the floor.
    """

    spec = family.spec
    truncation = spec.a * len(estimate.flagged_nodes) * family.grid.dt / estimate.floor
    return 2.0 * family.cauchy_gap + truncation + COMPENSATOR_BUDGET_EXTRA


@dataclass(frozen=True)
class EpsContinuityResult:
    """Sup-gap table for symmetric perturbations of the regularization level.

    ``rows`` holds (h, gap_plus, gap_minus) per offset, where gap_plus is
    sup_t |X^{eps*+h} - X^{eps*}| over the grid and gap_minus the same for
    eps* - h, all solved under one noise path.  The verdict demands both
    one-sided gap sequences be nonincreasing and the final two-sided gap (the
    max of the two sides) be at most a quarter of the first — an artifact
    convention standing in for continuity without a proven rate.
    """

    eps_star: float
    rows: list[tuple[float, float, float]]
    both_nonincreasing: bool
    first_gap: float
    last_gap: float
    passes: bool


def _eps_continuity_levels(
    eps_star: float, h_sequence: Sequence[float]
) -> tuple[list[float], np.ndarray]:
    """The validated offsets and the levels [eps*, eps* + h_1, eps* - h_1, eps* + h_2, ...]."""

    if not (eps_star > 0.0 and math.isfinite(eps_star)):
        raise ValueError(f"eps_star must be positive and finite, got {eps_star}")
    hs = [float(h) for h in h_sequence]
    if len(hs) < 2:
        raise ValueError("need at least 2 offsets to compare first and last gaps")
    if not all(math.isfinite(h) for h in hs):
        raise ValueError(f"offsets must be finite, got {hs}")
    if any(h <= 0.0 for h in hs):
        raise ValueError("offsets must be positive")
    if any(b >= a for a, b in zip(hs[:-1], hs[1:])):
        raise ValueError("offsets must be strictly decreasing")
    if hs[0] >= eps_star:
        raise ValueError("offsets must stay below eps_star so eps* - h remains positive")
    if not math.isfinite(eps_star + hs[0]):
        raise ValueError(f"eps_star + offsets must stay finite, got {eps_star} + {hs[0]}")
    return hs, np.array([eps_star] + [eps for h in hs for eps in (eps_star + h, eps_star - h)])


def verify_eps_continuity(
    spec: SdeSpec,
    grid: TimeGrid,
    noise_values: np.ndarray,
    eps_star: float,
    h_sequence: Sequence[float],
) -> list[EpsContinuityResult | SolverError]:
    """Solve at eps* and at eps* +/- h under shared noise and tabulate sup-gaps.

    ``noise_values`` holds one driver path on ``grid`` per row, shape
    (paths, nodes).  Every path and every level
    [eps*, eps* + h_1, eps* - h_1, eps* + h_2, ...] advance through one
    batched kernel call, bit-identical to :func:`solve_regularized` at each
    level, and the solved block is reduced to gap tables before returning.
    Returns one :class:`EpsContinuityResult` per row, or, for a row with a
    non-finite state, the :class:`SolverError` that solving its levels one by
    one in that order would raise first.  Other rows are unaffected.
    """

    hs, levels = _eps_continuity_levels(eps_star, h_sequence)
    solved = solve_batch(spec, levels, grid, noise_values)
    center = solved[:, 0]
    with np.errstate(invalid="ignore"):  # a non-finite row is reported below
        gaps = np.array(
            [np.abs(solved[:, j] - center).max(axis=1) for j in range(1, levels.size)]
        )
    results: list[EpsContinuityResult | SolverError] = []
    for path, values in enumerate(solved):
        failure = _first_non_finite(values, levels, grid.dt)
        if failure is not None:
            results.append(failure)
            continue
        plus = gaps[0::2, path].tolist()
        minus = gaps[1::2, path].tolist()
        both_nonincreasing = all(b <= a for a, b in zip(plus[:-1], plus[1:])) and all(
            b <= a for a, b in zip(minus[:-1], minus[1:])
        )
        first_gap = max(plus[0], minus[0])
        last_gap = max(plus[-1], minus[-1])
        results.append(
            EpsContinuityResult(
                eps_star=eps_star,
                rows=list(zip(hs, plus, minus)),
                both_nonincreasing=both_nonincreasing,
                first_gap=first_gap,
                last_gap=last_gap,
                passes=both_nonincreasing and last_gap <= first_gap / 4.0,
            )
        )
    return results
