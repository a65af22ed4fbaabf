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
the limit estimate's error budget throughout.  The convergence is monotone
with no proven rate, and the gap understates the tail: the measured tails
are 1.3-2.6 gaps on three specs (ROADMAP item 1).
Families of many paths are solved together: every path and level of a chunk
advance through one batched recursion (:func:`build_families`), even on grids
of one step count with a ladder per path, and each time block of it is
folded into exact per-path reductions as it leaves the step loop.  A family
keeps the reductions its checks read and, by the ``keep`` choice it is built
with, no row, the limit row or every level.  A chunk is sized by the rows
each of its paths keeps alive, so a campaign chunk that keeps no row holds
twice as many paths as one that keeps the limit row.

Verification operations check, per path: the ordering itself, nested
nonpositive sets, a uniform upper bound ``X_0 + a T^{2H}/(H X_0) + 2 sigma
sup|B|``, decay of the nonpositive-time measure along the ladder,
nonnegativity of the limit estimate, nonnegativity (up to budget) of the
correction process closing the integral identity, and continuity of the
solution in the regularization parameter.  The first five read only a
family's reductions, and each returns the record a campaign keeps for the
path, a :class:`Verdict` of ``(passed, violation, note)``.
The continuity check solves its own fixed levels eps* and eps* +/- h, not
the ladder's (see ``EPS_STAR``).  When asked, :func:`build_families` solves
them as extra columns of the ladder's own step loop and folds them block by
block into exact sup-gaps against eps*, so each family carries its gap table;
:func:`verify_eps_continuity` runs the same fold over a block of noise paths
on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .fbm import FbmPath, HurstParam, TimeGrid
from .sde import (
    SdeSpec,
    SolverError,
    _drift_table,
    _integrate_batch,
    _solver_error,
    kernel_column,
)

__all__ = [
    "CompensatorEstimate",
    "EpsContinuityResult",
    "EpsilonFamily",
    "EpsilonLadder",
    "Verdict",
    "build_families",
    "build_family",
    "compensator_budget",
    "compute_compensator",
    "identity_residual",
    "nonpositive_measure",
    "upper_bound",
    "verify_eps_continuity",
    "verify_limit_nonnegativity",
    "verify_measure_decay",
    "verify_nested_zero_sets",
    "verify_ordering",
    "verify_upper_bound",
]

DEFAULT_TOL_MONO = 1e-12
DEFAULT_TOL_BOUND = 1e-9
DEFAULT_TOL_NONNEG = 1e-9  # limit-nonneg: slack below 0 beyond the Cauchy gap
DEFAULT_FLOOR_SCALE = 1e-6
COMPENSATOR_BUDGET_EXTRA = 1e-6

# Values a solver chunk keeps alive (16 MiB of float64), counted as the rows
# its paths retain: on 2^14 steps, 127 paths that keep only a noise row, 63
# that also keep the limit row, or 10 that keep a noise row and 11 levels.
# Larger chunks spread the per-step ufunc overhead over more paths but cost
# resident memory.
_CHUNK_VALUES = 2**21

# The eps-continuity probe: eps* and the offsets h_k = eps* 2^-k, k = 1..3,
# solved at [eps*, eps* + h_1, eps* - h_1, eps* + h_2, ...].  h_3 = h_1 / 4,
# so a gap linear in h falls by exactly 4: the quarter of the pass rule, last
# gap <= first gap / 4.  A gap like h^p passes for p > 1 and fails for p < 1;
# a solution Lipschitz in eps (p = 1) sits on the boundary.
EPS_STAR = 0.05
_PROBE_OFFSETS = tuple(EPS_STAR * 0.5**k for k in range(1, 4))
_PROBE_LEVELS = np.array(
    [EPS_STAR] + [e for h in _PROBE_OFFSETS for e in (EPS_STAR + h, EPS_STAR - h)]
)
_PROBE_LEVELS.setflags(write=False)


@dataclass(frozen=True)
class EpsilonLadder:
    """Geometric levels eps_j = eps0 * ratio^j for j = 0..depth, with depth >= 2."""

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
        if self.depth < 2:
            raise ValueError(f"ladder depth must be at least 2, got {self.depth}")
        if not self.levels()[-1] > 0.0:
            raise ValueError(
                f"the deepest level underflows to 0 (eps0={self.eps0}, ratio={self.ratio}, "
                f"depth={self.depth})"
            )

    def levels(self) -> np.ndarray:
        return self.eps0 * self.ratio ** np.arange(self.depth + 1, dtype=float)


@dataclass
class EpsilonFamily:
    """All ladder levels on one grid under one noise path, kept as exact reductions.

    ``limit_estimate`` is the deepest level's row, and ``values`` holds every
    level, shape (levels, nodes), shallowest first, ending in the limit row.
    Each is None unless the family was built to keep it (``keep``: ``"none"``,
    ``"limit"`` or ``"levels"``).  Besides the limit row, the checks read only
    these reductions, each equal to the same reduction of the full values:

    - ``limit_min`` / ``limit_argmin``, the limit row's minimum and the first
      node where it falls;
    - ``value_max``, the largest value over every level and node;
    - ``nonpositive_counts``, per level, the number of nodes k >= 1 with
      X_k <= 0;
    - ``nested_breaks``, per pair of adjacent levels (j, j + 1), whether some
      node k >= 1 is nonpositive on level j + 1 but not on level j;
    - ``cauchy_gap``, the sup-distance between the two deepest levels;
    - ``mono_violation_count`` / ``mono_worst_deficit``, how often and how
      badly the shared-noise ordering failed beyond the rounding tolerance on
      nodes k >= 1 (zero in correct operation: when ``b dt < 1`` the
      drift-implicit step orders the levels exactly, so only rounding can
      break the ordering).

    ``eps_continuity`` is the path's :func:`verify_eps_continuity` outcome
    when the family was built with that probe, else None; a failing probe
    level makes it that level's :class:`SolverError` and leaves the family intact.
    """

    spec: SdeSpec
    noise: FbmPath
    ladder: EpsilonLadder
    limit_min: float
    limit_argmin: int
    value_max: float
    nonpositive_counts: np.ndarray
    nested_breaks: np.ndarray
    cauchy_gap: float
    mono_violation_count: int
    mono_worst_deficit: float
    limit_estimate: np.ndarray | None = None
    values: np.ndarray | None = None
    eps_continuity: EpsContinuityResult | SolverError | None = None

    def __post_init__(self) -> None:
        nodes = self.noise.grid.step_count + 1
        row = self.limit_estimate
        if row is not None and row.shape != (nodes,):
            raise ValueError(f"limit_estimate must have {nodes} entries, got shape {row.shape}")
        if row is not None and (self.limit_min, self.limit_argmin) != (row.min(), row.argmin()):
            raise ValueError("limit_min and limit_argmin must be the limit row's min and argmin")
        if self.values is None:
            return
        if self.values.shape != (self.ladder.depth + 1, nodes):
            raise ValueError(
                f"values must have shape {(self.ladder.depth + 1, nodes)}, got {self.values.shape}"
            )
        if not np.array_equal(self.values[-1], self.limit_estimate):
            raise ValueError("the last row of values must be the limit row")

    @property
    def grid(self) -> TimeGrid:
        return self.noise.grid

    @property
    def limit_row(self) -> np.ndarray:
        """The limit row, for a check that reads it whole."""

        if self.limit_estimate is None:
            raise ValueError("the family keeps no limit row (keep='none'); keep 'limit' or 'levels'")
        return self.limit_estimate

    @functools.cached_property
    def limit_residual(self) -> np.ndarray:
        """The limit row's identity residual over the whole grid, anchored at x_0.

        Computed on first read and kept, so the checks that read it share one;
        read-only for that reason.
        """

        spec, grid = self.spec, self.grid
        residual = identity_residual(
            self.limit_row, self.noise.values, spec, grid, 0, grid.step_count, spec.x0
        )
        residual.flags.writeable = False
        return residual


def _note_non_finite(first_non_finite: np.ndarray, first: int, block: np.ndarray) -> None:
    """Record, per (level, path) not yet recorded, the first non-finite node of a block."""

    finite = np.isfinite(block)
    fresh = ~finite.all(axis=0) & (first_non_finite < 0)
    first_non_finite[fresh] = first + np.argmin(finite, axis=0)[fresh]


def _level_error(first_non_finite: np.ndarray, levels: np.ndarray, dt: float) -> SolverError | None:
    """:func:`solve_regularized`'s error for a path's first level with a non-finite node, if any."""

    failing = np.flatnonzero(first_non_finite >= 0)
    if not failing.size:
        return None
    level = int(failing[0])
    return _solver_error(int(first_non_finite[level]), float(levels[level]), dt)


class _Reductions:
    """The per-path reductions of one solve, folded one time block at a time.

    Built from node 0's values, shape (levels, paths); :meth:`fold` takes the
    later nodes in order, in the step loop's time-major blocks of shape
    (steps, levels, paths).  Every reduction is a max, a count, an or, a first
    index or a copy, so folding block by block gives exactly the reduction
    over all nodes at once.  Each block is reduced over its time axis first,
    and adjacent levels are compared as whole (steps, paths) slabs,
    ``block[:, :-1]`` against ``block[:, 1:]``; per-level reductions are kept
    per (level, path).  The deepest ``kept`` levels (none, the limit row or
    every level) are copied into one (kept, nodes) array per path.
    """

    def __init__(self, head: np.ndarray, nodes: int, tol_mono: float, kept: int):
        levels, paths = head.shape
        self.tol_mono = tol_mono
        self.limit_min = head[-1].copy()
        self.limit_argmin = np.zeros(paths, dtype=np.int64)
        self.value_max = head.copy()
        self.nonpositive_counts = np.zeros((levels, paths), dtype=np.int64)
        self.nested_breaks = np.zeros((levels - 1, paths), dtype=bool)
        self.mono_count = np.zeros(paths, dtype=np.int64)
        self.mono_worst = np.zeros(paths)
        self.gap = np.abs(head[-1] - head[-2])
        # per (level, path): the first node with a non-finite state, or -1
        self.first_non_finite = np.where(np.isfinite(head), -1, 0)
        self.shallowest_kept = levels - kept
        self.rows = [np.empty((kept, nodes)) for _ in range(paths)] if kept else []
        for rows, first in zip(self.rows, head.T):
            rows[:, 0] = first[self.shallowest_kept :]

    def fold(self, first: int, block: np.ndarray) -> None:
        """Fold in nodes ``first .. first + steps - 1``, given as a (steps, levels, paths) block."""

        stop = first + len(block)
        shallow, deep = block[:, :-1], block[:, 1:]
        with np.errstate(invalid="ignore"):  # a non-finite path is reported, not reduced
            top = block.max(axis=0)
            low = block.min(axis=0)
            if not (np.isfinite(top).all() and np.isfinite(low).all()):
                _note_non_finite(self.first_non_finite, first, block)
            np.maximum(self.value_max, top, out=self.value_max)
            # only a strictly lower minimum (never a NaN) moves the limit row's first argmin
            lower = low[-1] < self.limit_min
            if lower.any():
                self.limit_min[lower] = low[-1, lower]
                self.limit_argmin[lower] = first + block[:, -1, lower].argmin(axis=0)

            # A block whose every value is positive adds no nonpositive node;
            # a NaN fails ``> 0`` and takes the full count.
            if not (low > 0.0).all():
                self.nonpositive_counts += (block <= 0.0).sum(axis=0, dtype=np.int32)

            # A deficit beyond a nonnegative tolerance needs a shallow value
            # above the deep one, and so does a nested break (a nonpositive
            # deep value under a positive shallow one) unless the shallow
            # value is NaN, whose path gets its error and no family.  That is
            # rare, so the deficits and breaks are only computed for a block
            # that has one.
            if (shallow > deep).any():
                deficit = shallow - deep
                mask = deficit > self.tol_mono
                self.mono_count += mask.sum(axis=0).sum(axis=0)
                worst = np.where(mask, deficit, 0.0).max(axis=0).max(axis=0)
                np.maximum(self.mono_worst, worst, out=self.mono_worst)
                self.nested_breaks |= ((deep <= 0.0) & ~(shallow <= 0.0)).any(axis=0)
            gap = np.abs(block[:, -1] - block[:, -2]).max(axis=0)
            np.maximum(self.gap, gap, out=self.gap)
        for rows, kept in zip(self.rows, block[:, self.shallowest_kept :].transpose(2, 1, 0)):
            rows[:, first:stop] = kept

    def family(
        self,
        path: int,
        spec: SdeSpec,
        noise: FbmPath,
        ladder: EpsilonLadder,
        eps_continuity: EpsContinuityResult | SolverError | None = None,
    ) -> EpsilonFamily | SolverError:
        """The path's family, or the error of its first level with a non-finite state."""

        pad = len(self.nonpositive_counts) - (ladder.depth + 1)
        failure = _level_error(self.first_non_finite[pad:, path], ladder.levels(), noise.grid.dt)
        if failure is not None:
            return failure
        rows = self.rows[path] if self.rows else None
        return EpsilonFamily(
            spec=spec,
            noise=noise,
            ladder=ladder,
            limit_min=float(self.limit_min[path]),
            limit_argmin=int(self.limit_argmin[path]),
            value_max=float(self.value_max[:, path].max()),
            nonpositive_counts=self.nonpositive_counts[pad:, path].copy(),
            nested_breaks=self.nested_breaks[pad:, path].copy(),
            cauchy_gap=float(self.gap[path]),
            mono_violation_count=int(self.mono_count[path]),
            mono_worst_deficit=float(self.mono_worst[path]),
            limit_estimate=None if rows is None else rows[-1],
            values=None if self.shallowest_kept else rows[pad:],
            eps_continuity=eps_continuity,
        )


def build_families(
    spec: SdeSpec,
    noises: Iterable[FbmPath],
    ladder: EpsilonLadder | Sequence[EpsilonLadder],
    tol_mono: float = DEFAULT_TOL_MONO,
    eps_continuity: bool = False,
    keep: str = "levels",
) -> Iterator[EpsilonFamily | SolverError]:
    """Solve every ladder level on each noise path, one batched chunk at a time.

    Yields, in input order, one :class:`EpsilonFamily` per noise, or the
    :class:`SolverError` that :func:`solve_regularized` would raise for it (the
    first failing level, at its first non-finite step).  A failing path does
    not disturb the others in its chunk.  ``ladder`` is one ladder for every
    noise, or a sequence of one ladder per noise.  Noises may lie on
    different grids, but every grid must have one step count, and every noise
    the spec's roughness.  ``tol_mono`` must be finite and nonnegative.

    A chunk runs one step loop.  Its rows are ordered so that paths sharing
    a grid and a ladder sit next to each other and fill their drifts from one
    table, and each path's levels are padded on the shallow side to the
    deepest ladder with copies of its own shallowest level.  A pad level is
    that level bit for bit, so it adds no ordering deficit, nested break or
    nonpositive node of its own, and a family drops its pad levels: it is the
    family its path gets on its own.

    Each time block of a chunk's solve is folded into the families'
    reductions as it leaves the step loop, and into the rows ``keep`` names:
    ``"none"``, the limit row (``"limit"``) or every level (``"levels"``),
    one array per path; nothing else of the solve outlives the block.  A
    chunk is sized by the rows each of its paths keeps alive, its noise row
    and its kept rows, at about ``_CHUNK_VALUES`` values in all.  Noises are
    drawn from the iterable lazily, one chunk ahead.

    With ``eps_continuity``, the fixed levels of :func:`verify_eps_continuity`
    are solved as extra columns of the same step loop and folded block by
    block into exact sup-gaps against eps*, apart from the ladder's
    reductions; every family carries its path's outcome.  The probe keeps no
    row, so it does not narrow a chunk.
    """

    if not (math.isfinite(tol_mono) and tol_mono >= 0.0):
        raise ValueError(f"tol_mono must be finite and nonnegative, got {tol_mono}")
    if isinstance(ladder, EpsilonLadder):
        ladders = [ladder]
        pairs = zip(noises, repeat(ladder))
    else:
        ladders = list(ladder)
        pairs = zip(noises, ladders, strict=True)
    rungs = max((each.depth + 1 for each in ladders), default=0)
    kept = {"none": 0, "limit": 1, "levels": rungs}.get(keep)
    if kept is None:
        raise ValueError(f"keep must be 'none', 'limit' or 'levels', got {keep!r}")
    first = next(pairs, None)
    if first is None:
        return
    steps = first[0].grid.step_count
    width = max(1, _CHUNK_VALUES // ((1 + kept) * (steps + 1)))
    tables: dict[tuple[TimeGrid, EpsilonLadder], tuple[np.ndarray, np.ndarray]] = {}
    pairs = chain([first], pairs)
    while chunk := list(islice(pairs, width)):
        yield from _chunk_families(spec, steps, rungs, tables, chunk, tol_mono, eps_continuity, kept)
        del chunk  # the chunk's noises go before the next chunk's are drawn


def _chunk_families(
    spec: SdeSpec,
    steps: int,
    rungs: int,
    tables: dict[tuple[TimeGrid, EpsilonLadder], tuple[np.ndarray, np.ndarray]],
    chunk: list[tuple[FbmPath, EpsilonLadder]],
    tol_mono: float,
    eps_continuity: bool,
    kept: int,
) -> Iterator[EpsilonFamily | SolverError]:
    """Check and solve one chunk of (noise, ladder) pairs, and yield its outcomes in order.

    ``tables`` holds, per (grid, ladder), the padded levels (``rungs`` ladder
    levels, then the probe's if any) and their drift table, and gains the
    chunk's new pairs.  Each block's ladder columns go to the ladder's
    reductions, the rest to the probe.
    """

    groups: dict[tuple[TimeGrid, EpsilonLadder], list[int]] = {}
    for position, (noise, ladder) in enumerate(chunk):
        if noise.hurst != spec.hurst:
            raise ValueError(
                f"noise roughness {noise.hurst.value} differs from spec roughness "
                f"{spec.hurst.value}"
            )
        if noise.grid.step_count != steps:
            raise ValueError(f"every noise must share the grid step count {steps}, got {noise.grid}")
        groups.setdefault((noise.grid, ladder), []).append(position)
    batch = []
    for key, members in groups.items():
        if key not in tables:
            own = key[1].levels()
            levels = np.concatenate([np.full(rungs - own.size, own[0]), own])
            if eps_continuity:
                levels = np.concatenate([levels, _PROBE_LEVELS])
            tables[key] = levels, _drift_table(spec, levels, key[0])
        batch.append((key[0], *tables[key], len(members)))
    order = [position for members in groups.values() for position in members]
    head = np.broadcast_to(spec.x0, (rungs, len(chunk)))
    reductions = _Reductions(head, steps + 1, tol_mono, kept)
    gaps = _ProbeGaps(len(chunk)) if eps_continuity else None
    noise_rows = [chunk[position][0].values for position in order]
    for first, values in _integrate_batch(spec, batch, noise_rows):
        reductions.fold(first, values[:, :rungs])
        if gaps is not None:
            gaps.fold(first, values[:, rungs:])
    del values  # the solve's last scratch block goes before the families are handed out
    rows = sorted(range(len(order)), key=order.__getitem__)  # the row of each position
    for row, (noise, ladder) in zip(rows, chunk):
        outcome = None if gaps is None else gaps.outcome(row, noise.grid.dt)
        yield reductions.family(row, spec, noise, ladder, outcome)


def build_family(
    spec: SdeSpec,
    noise: FbmPath,
    ladder: EpsilonLadder,
    tol_mono: float = DEFAULT_TOL_MONO,
) -> EpsilonFamily:
    """Solve every ladder level on the shared noise and record the diagnostics.

    The one-noise case of :func:`build_families`, keeping every level; raises
    its :class:`SolverError`.
    """

    (outcome,) = build_families(spec, [noise], ladder, tol_mono)
    if isinstance(outcome, SolverError):
        raise outcome
    return outcome


class Verdict(NamedTuple):
    """One path's outcome of one reduction check, as a campaign records it.

    ``passed`` is the verdict, ``violation`` how far the checked quantity
    lies beyond its bound (positive past it), and ``note`` why the path
    fails, None when it passes.  The upper-bound and limit-nonneg violations
    leave out their 1e-9 tolerance (``DEFAULT_TOL_BOUND``,
    ``DEFAULT_TOL_NONNEG``), so a violation up to 1e-9 still passes: there
    the violation's sign does not decide the verdict.
    """

    passed: bool
    violation: float | None
    note: str | None


def verify_ordering(family: EpsilonFamily) -> Verdict:
    """Levels ordered to ``tol_mono`` on every node k >= 1; the violation is the worst deficit."""

    count = family.mono_violation_count
    note = None if count == 0 else f"{count} nodes beyond tol_mono"
    return Verdict(count == 0, family.mono_worst_deficit, note)


def verify_nested_zero_sets(family: EpsilonFamily) -> Verdict:
    """Exact set containment of nonpositive nodes, deep level inside shallow.

    Implied by the ordering with zero tolerance; tested independently so a
    rounding-scale ordering slip that flips a set membership is caught.  The
    violation is 1 where it breaks, else 0; the note names the first level.
    """

    breaks = np.flatnonzero(family.nested_breaks)
    if breaks.size:
        return Verdict(False, 1.0, f"containment breaks entering level {int(breaks[0]) + 1}")
    return Verdict(True, 0.0, None)


def upper_bound(spec: SdeSpec, noise: FbmPath) -> float:
    """The uniform bound X_0 + a T^{2H}/(H X_0) + 2 sigma max|B| of the levels ``noise`` drives."""

    two_h = 2.0 * spec.hurst.value
    constant = spec.x0 + spec.a * noise.grid.horizon**two_h / (spec.hurst.value * spec.x0)
    return constant + 2.0 * spec.sigma * float(np.abs(noise.values).max())


def verify_upper_bound(family: EpsilonFamily) -> Verdict:
    """Every level and node stays within ``DEFAULT_TOL_BOUND`` of :func:`upper_bound`.

    The violation is the family's value max less the bound.
    """

    bound = upper_bound(family.spec, family.noise)
    violation = family.value_max - bound
    passed = violation <= DEFAULT_TOL_BOUND
    note = None if passed else f"exceeds bound {bound:.6g} by {violation:.3e}"
    return Verdict(passed, violation, note)


def nonpositive_measure(family: EpsilonFamily) -> np.ndarray:
    """Per level, the grid surrogate of the time spent at or below 0.

    Entry j is dt * #{k >= 1 : X^{eps_j}_k <= 0}.
    """

    return family.grid.dt * family.nonpositive_counts


def verify_measure_decay(family: EpsilonFamily) -> Verdict:
    """The nonpositive-time measure is nonincreasing along the ladder.

    The ordering nests the nonpositive sets level by level, which forces the
    measures to be nonincreasing.  The violation is the largest increase
    between adjacent levels.
    """

    measures = nonpositive_measure(family).tolist()
    violation = max((b - a for a, b in zip(measures[:-1], measures[1:])), default=0.0)
    passed = violation <= 0.0
    note = None if passed else f"measure increases by {violation:.3e} between adjacent levels"
    return Verdict(passed, violation, note)


def verify_limit_nonnegativity(family: EpsilonFamily) -> Verdict:
    """Pass iff min_k limit_estimate[k] >= -(cauchy_gap + ``DEFAULT_TOL_NONNEG``).

    The minimum is read from ``limit_min``, so a family that keeps no limit
    row is checked too; the note names the first node where the minimum
    falls, and the violation is the minimum's depth below -cauchy_gap.  The
    budget assumes the true limit dominates the deepest level from above by
    at most the last Cauchy gap.
    """

    low, gap = family.limit_min, family.cauchy_gap
    passed = low >= -(gap + DEFAULT_TOL_NONNEG)
    note = None if passed else f"limit estimate reaches {low:.6g} at node {family.limit_argmin}"
    return Verdict(passed, -low - gap, note)


@functools.lru_cache(maxsize=16)
def _identity_kernel(grid: TimeGrid, hurst: HurstParam) -> np.ndarray:
    """``kernel_column(grid, 0, hurst)``, cached per grid in a small LRU cache.

    Read-only, because every caller shares the array.
    """

    kernel = kernel_column(grid, 0.0, hurst)
    kernel.flags.writeable = False
    return kernel


def _identity_floor(spec: SdeSpec) -> float:
    """The reciprocal floor of the integral identity: ``DEFAULT_FLOOR_SCALE * x0``."""

    return DEFAULT_FLOOR_SCALE * spec.x0


def identity_residual(
    values: np.ndarray,
    noise_values: np.ndarray,
    spec: SdeSpec,
    grid: TimeGrid,
    start: int,
    end: int,
    anchor: float,
) -> np.ndarray:
    """Residual of the integral identity on nodes start..end, zero at start.

    R(t) = X(t) - anchor - a * sum_k K(t_k, t_{k+1}, 0) / max(X_{k+1}, floor)
           + b * (trapezoid of X) - sigma * (B(t) - B(t_start)),
    with both running sums taken from t_start.  The singular sum uses the
    exact kernel and freezes 1/X at each step's right endpoint, as the
    drift-implicit solver step does; the floor ``DEFAULT_FLOOR_SCALE * x0``
    keeps it finite.  ``anchor`` is X_0 for the identity from the time origin
    and X(t_start) for an identity restarted at t_start.  The kernel is
    computed once per grid and reused by later calls.  ``values`` and
    ``noise_values`` are one path on ``grid``; :func:`_identity_rows` is the
    same quadrature for a block of paths.
    """

    rows = np.asarray(values)[None, start : end + 1]
    noise_rows = np.asarray(noise_values)[None, start : end + 1]
    kernel = _identity_kernel(grid, spec.hurst)[None, start:end]
    return _identity_rows(rows, noise_rows, kernel, np.array([[grid.dt]]), spec, anchor)[0]


def _identity_rows(
    x: np.ndarray,
    noise: np.ndarray,
    kernels: np.ndarray,
    steps: np.ndarray,
    spec: SdeSpec,
    anchor: float,
) -> np.ndarray:
    """:func:`identity_residual` of a (rows, nodes) block from its first node.

    ``kernels`` holds each row's per-step kernels, shape (rows, nodes - 1),
    and ``steps`` each row's dt, shape (rows, 1).  Each row is the residual of
    that row alone, bit for bit, since every running sum is sequential along
    its row.
    """

    floor = _identity_floor(spec)
    singular = np.zeros(x.shape)
    np.cumsum(kernels / np.maximum(x[:, 1:], floor), axis=1, out=singular[:, 1:])
    trapezoid = np.zeros(x.shape)
    np.cumsum(0.5 * (x[:, 1:] + x[:, :-1]) * steps, axis=1, out=trapezoid[:, 1:])
    return x - anchor - spec.a * singular + spec.b * trapezoid - spec.sigma * (noise - noise[:, :1])


@dataclass
class CompensatorEstimate:
    """Reconstruction of the correction process closing the integral identity.

    L(t) = X(t) - X_0 - a * (singular integral) + b * (trapezoid of X)
           - sigma * B(t), evaluated on the limit estimate
    (:func:`identity_residual` over the whole grid).  L(0) = 0 exactly;
    in the continuum the correction is nonnegative, and the discrete estimate
    should stay above minus its error budget (see :func:`compensator_budget`).
    ``floor`` is the identity's reciprocal floor the estimate used.
    """

    values: np.ndarray
    floor: float
    flagged_nodes: np.ndarray


def compute_compensator(family: EpsilonFamily) -> CompensatorEstimate:
    """Evaluate the correction-process estimate on the family's limit estimate.

    The values are the family's ``limit_residual``, computed on first read.
    The flagged nodes are the right endpoints (1..n) where the limit
    estimate sits below the floor, so the reciprocal there is floored.
    """

    floor = _identity_floor(family.spec)
    flagged = np.flatnonzero(family.limit_row[1:] < floor) + 1
    return CompensatorEstimate(values=family.limit_residual, floor=floor, flagged_nodes=flagged)


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


class _ProbeGaps:
    """Per-path sup-gaps of the eps-continuity levels against eps*, folded one time block at a time.

    Node 0 is x0 on every level, so each gap starts at 0; a max over blocks is
    the max over all nodes.  Blocks are (steps, levels, paths), as the step
    loop yields them, and every per-level result is kept per (level, path).
    """

    def __init__(self, paths: int):
        self.gaps = np.zeros((_PROBE_LEVELS.size - 1, paths))
        # per (level, path): the first node with a non-finite state, or -1
        self.first_non_finite = np.full((_PROBE_LEVELS.size, paths), -1)

    def fold(self, first: int, block: np.ndarray) -> None:
        """Fold in nodes ``first .. first + steps - 1``, given as a (steps, levels, paths) block."""

        with np.errstate(invalid="ignore"):  # a non-finite path is reported, not reduced
            gaps = np.abs(block[:, 1:] - block[:, :1]).max(axis=0)
            # a non-finite state on any level, eps* included, leaves a gap non-finite
            if not np.isfinite(gaps).all():
                _note_non_finite(self.first_non_finite, first, block)
            np.maximum(self.gaps, gaps, out=self.gaps)

    def outcome(self, path: int, dt: float) -> EpsContinuityResult | SolverError:
        """The path's gap table and verdict, or the error of its first non-finite level."""

        failure = _level_error(self.first_non_finite[:, path], _PROBE_LEVELS, dt)
        if failure is not None:
            return failure
        table = self.gaps[:, path].reshape(-1, 2)  # per offset: (gap_plus, gap_minus)
        both_nonincreasing = bool((np.diff(table, axis=0) <= 0.0).all())
        first_gap, last_gap = float(table[0].max()), float(table[-1].max())
        return EpsContinuityResult(
            eps_star=EPS_STAR,
            rows=[(h, plus, minus) for h, (plus, minus) in zip(_PROBE_OFFSETS, table.tolist())],
            both_nonincreasing=both_nonincreasing,
            first_gap=first_gap,
            last_gap=last_gap,
            passes=both_nonincreasing and last_gap <= first_gap / 4.0,
        )


def verify_eps_continuity(
    spec: SdeSpec, grid: TimeGrid, noise_values: np.ndarray
) -> list[EpsContinuityResult | SolverError]:
    """Solve at eps* and at eps* +/- h under shared noise and tabulate sup-gaps.

    eps* is ``EPS_STAR`` = 0.05 and the offsets are h_k = eps* 2^-k for
    k = 1..3; since h_3 = h_1 / 4, a gap linear in h passes the rule
    last gap <= first gap / 4 with equality.  ``noise_values`` holds one
    driver path on ``grid`` per row, shape (paths, nodes).  Every path and
    every level [eps*, eps* + h_1, eps* - h_1, eps* + h_2, ...] advance
    through one batched step loop, bit-identical to :func:`solve_regularized`
    at each level, through the fold of :func:`build_families`' probe.
    Returns one :class:`EpsContinuityResult` per row, or, for a row with a
    non-finite state, the :class:`SolverError` that solving its levels one by
    one in that order would raise first.  Other rows are unaffected.
    """

    noise_values = np.asarray(noise_values, dtype=float)
    if noise_values.ndim != 2 or noise_values.shape[1] != grid.step_count + 1:
        raise ValueError(
            f"noise_values must have shape (paths, {grid.step_count + 1}), got {noise_values.shape}"
        )
    gaps = _ProbeGaps(len(noise_values))
    group = (grid, _PROBE_LEVELS, _drift_table(spec, _PROBE_LEVELS, grid), len(noise_values))
    for first, values in _integrate_batch(spec, [group], noise_values):
        gaps.fold(first, values)
    return [gaps.outcome(path, grid.dt) for path in range(len(noise_values))]
