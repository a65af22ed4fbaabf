"""Certified local solution by contraction iteration.

On a short enough horizon delta, the integral map

    (T x)(t) = x_0 + a * integral of s^{2H-1} / x(s)
             - b * integral of x(s) + g(t)

is a contraction on the band of continuous paths with values in
[x_0/2, 2 x_0], with modulus ``q = 2 a delta^{2H} / (H x_0^2) + b delta``.
The horizon is certified by two envelope inequalities evaluated on a dense
check grid: with ``C`` the driver's grid Hoelder constant at exponent beta,

    f(t) = a t^{2H} / (H x_0)    - b x_0 t / 2 + C t^beta   must stay <= x_0,
    h(t) = a t^{2H} / (2 H x_0)  - b x_0 t     - C t^beta   must stay >= -x_0/2,

which pin every iterate inside the band.  The selector walks the dyadic
candidates 2^-1, 2^-2, ... and returns the largest horizon satisfying q < 1
and both envelopes with a 5% safety margin; it certifies a block of drivers
in one pass.  The iteration then applies the discrete map x -> x - R(x),
where R is the integral identity's residual
(:func:`singsde.ladder.identity_residual`, the quadrature every identity check
uses: exact per-step kernels with 1/x frozen at the right endpoint, and the
trapezoid for the linear term), so its fixed point solves the same discrete
equation that the ladder limit is checked against.  It stops when successive
sup-distances reach the tolerance, with an iteration cap predicted from the
certified modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fbm import FbmPath, HolderEstimate, TimeGrid
from .ladder import _identity_kernel, _identity_rows, identity_residual
from .sde import SdeSpec

__all__ = [
    "DeltaCertificate",
    "InfeasibleProblemError",
    "LocalProblem",
    "PicardBandError",
    "PicardConvergenceError",
    "PicardResult",
    "contraction_modulus",
    "fixed_point_residual",
    "picard_solve",
    "select_delta",
]

_DELTA_CANDIDATE_FLOOR_POWER = 40
_SAFETY_MARGIN = 0.05
_CHECK_NODES = 256
_EXTRA_ITERATIONS = 10


class InfeasibleProblemError(RuntimeError):
    """No dyadic horizon down to 2^-40 satisfies the certificate inequalities."""


class PicardBandError(RuntimeError):
    """An iterate escaped [x_0/2, 2 x_0]; the certificate failed numerically."""


class PicardConvergenceError(RuntimeError):
    """The iteration missed the tolerance within its predicted budget."""


@dataclass(frozen=True)
class LocalProblem:
    """Local problem: the equation, its driver on the window, and the driver's certificate.

    The driver ``spec.sigma * noise`` lives on a grid with horizon at most 1
    (the certification constants are normalized to a unit driver window); the
    certificate, for that scaled driver, must be computed on the driver's own
    grid and have its exponent strictly below the roughness index and a
    finite nonnegative constant.
    """

    spec: SdeSpec
    noise: FbmPath
    holder: HolderEstimate

    def __post_init__(self) -> None:
        hurst = self.spec.hurst
        if self.noise.hurst != hurst:
            raise ValueError(
                f"noise roughness {self.noise.hurst.value} differs from spec roughness {hurst.value}"
            )
        if self.holder.grid != self.grid:
            raise ValueError(
                f"certificate grid {self.holder.grid} differs from driver grid {self.grid}"
            )
        if self.grid.horizon > 1.0 + 1e-12:
            raise ValueError(
                f"driver window must lie inside [0, 1], got horizon {self.grid.horizon}"
            )
        if not (0.0 < self.holder.exponent < hurst.value):
            raise ValueError(
                f"certificate exponent must lie in (0, {hurst.value}), got {self.holder.exponent}"
            )
        if not (self.holder.constant >= 0.0 and math.isfinite(self.holder.constant)):
            raise ValueError(
                f"certificate constant must be nonnegative and finite, got {self.holder.constant}"
            )

    @property
    def grid(self) -> TimeGrid:
        return self.noise.grid


def contraction_modulus(delta: float, problem: LocalProblem) -> float:
    """q(delta) = 2 a delta^{2H} / (H x_0^2) + b delta."""

    spec = problem.spec
    two_h = 2.0 * spec.hurst.value
    return 2.0 * spec.a * delta**two_h / (spec.hurst.value * spec.x0**2) + spec.b * delta


def _envelopes(
    spec: SdeSpec, t: np.ndarray, constant: np.ndarray | float, exponent: float
) -> tuple[np.ndarray, np.ndarray]:
    """Displacement envelopes (f(t), h(t)); x_0 + f and x_0 + h bound every iterate.

    ``constant`` is the driver's Hoelder constant, or a column of constants
    for one row of envelopes per driver; the powers of ``t`` are computed
    once for all rows.
    """

    hv, x0 = spec.hurst.value, spec.x0
    singular = t ** (2.0 * hv)
    rough = constant * t**exponent
    upper = spec.a * singular / (hv * x0) - 0.5 * spec.b * x0 * t + rough
    lower = 0.5 * spec.a * singular / (hv * x0) - spec.b * x0 * t - rough
    return upper, lower


@dataclass(frozen=True)
class DeltaCertificate:
    """A certified horizon with its contraction modulus and raw envelope slack.

    ``margin_low``  = min over the check grid of (x_0 + h(t)) - x_0/2,
    ``margin_high`` = 2 x_0 - max over the check grid of (x_0 + f(t));
    both are nonnegative for an accepted horizon.
    """

    delta: float
    modulus: float
    margin_low: float
    margin_high: float


def select_delta(
    problems: Sequence[LocalProblem],
) -> list[DeltaCertificate | InfeasibleProblemError]:
    """Largest dyadic horizon passing modulus and envelopes with a 5% margin, per problem.

    Every inequality is tightened by 5%: q <= 0.95, f(t) <= 0.95 x_0, and
    h(t) >= -0.95 x_0/2, evaluated at ``_CHECK_NODES`` nodes of [0, delta].  A
    deterministic, reproducible choice — any smaller certified horizon would
    do as well.

    The problems must share the spec and the certificate exponent; each
    candidate is evaluated for all rows not yet certified at once.  Returns
    per problem its certificate or its :class:`InfeasibleProblemError`.
    """

    problems = list(problems)
    if not problems:
        return []
    spec, exponent = problems[0].spec, problems[0].holder.exponent
    if any(p.spec != spec or p.holder.exponent != exponent for p in problems):
        raise ValueError("a block of problems must share the spec and the certificate exponent")
    x0 = spec.x0
    constants = np.array([p.holder.constant for p in problems])
    outcomes: list[DeltaCertificate | InfeasibleProblemError | None] = [None] * len(problems)
    open_rows = np.arange(len(problems))
    for power in range(1, _DELTA_CANDIDATE_FLOOR_POWER + 1):
        if not open_rows.size:
            break
        delta = 2.0**-power
        q = contraction_modulus(delta, problems[0])
        if q > (1.0 - _SAFETY_MARGIN):
            continue
        t = np.linspace(0.0, delta, _CHECK_NODES + 1)[1:]
        f_vals, h_vals = _envelopes(spec, t, constants[open_rows, None], exponent)
        accepted = ~(
            (f_vals.max(axis=1) > (1.0 - _SAFETY_MARGIN) * x0)
            | (h_vals.min(axis=1) < -(1.0 - _SAFETY_MARGIN) * 0.5 * x0)
        )
        for row, f_row, h_row in zip(open_rows[accepted], f_vals[accepted], h_vals[accepted]):
            outcomes[row] = DeltaCertificate(
                delta=delta,
                modulus=q,
                margin_low=float((x0 + h_row).min() - 0.5 * x0),
                margin_high=float(2.0 * x0 - (x0 + f_row).max()),
            )
        open_rows = open_rows[~accepted]
    for row in open_rows:
        outcomes[row] = InfeasibleProblemError(
            f"no dyadic horizon down to 2^-{_DELTA_CANDIDATE_FLOOR_POWER} satisfies the "
            f"certificate (driver constant {problems[row].holder.constant:.3g} too large?)"
        )
    return outcomes


@dataclass
class PicardResult:
    """Converged fixed point with its iteration log.

    ``log`` rows are (iteration, sup_distance, contraction_ratio); the ratio
    of the first row is NaN (no previous distance to compare).  ``residual``
    is sup|R(values)|, the fixed-point residual of the returned values.
    """

    values: np.ndarray
    log: list[tuple[int, float, float]]
    iterations: int
    final_distance: float
    iteration_cap: int
    residual: float


def _solve_block(
    problems: Sequence[LocalProblem],
    certificates: Sequence[DeltaCertificate],
    tolerance: float,
    starts: Sequence[np.ndarray | None] | None = None,
) -> list[PicardResult | Exception]:
    """:func:`picard_solve` for a block of problems, iterated together; one outcome per problem.

    The problems must share the spec and the step count.  Each iteration
    evaluates the residual of every open row as one block; a row leaves the
    block when it converges or fails, and its outcome, its result or the
    exception :func:`picard_solve` raises for it alone, is the one it gets
    alone, log and all.  The fixed-point residuals of the converged rows are
    one more block evaluation.
    """

    if not (tolerance > 0.0):
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    problems = list(problems)
    if not problems:
        return []
    spec, steps = problems[0].spec, problems[0].grid.step_count
    if any(p.spec != spec or p.grid.step_count != steps for p in problems):
        raise ValueError("a block of problems must share the spec and the step count")
    x0 = spec.x0
    band_lo, band_hi = 0.5 * x0, 2.0 * x0
    outcomes: list[PicardResult | Exception | None] = [None] * len(problems)
    firsts: dict[int, np.ndarray] = {}
    for row, (problem, certificate) in enumerate(zip(problems, certificates)):
        start = None if starts is None else starts[row]
        x = np.full(steps + 1, x0) if start is None else np.asarray(start, dtype=float)
        if problem.grid.horizon > certificate.delta * (1.0 + 1e-12):
            outcomes[row] = ValueError(
                f"driver horizon {problem.grid.horizon} exceeds certified delta {certificate.delta}"
            )
        elif x.shape != (steps + 1,):
            outcomes[row] = ValueError("start iterate must live on the driver grid")
        elif x.min() < band_lo or x.max() > band_hi:
            outcomes[row] = PicardBandError("start iterate lies outside [x_0/2, 2 x_0]")
        else:
            firsts[row] = x
    rows = list(firsts)
    if not rows:
        return outcomes
    grids = [problems[row].grid for row in rows]
    all_noise = np.array([problems[row].noise.values for row in rows])
    all_kernels = np.array([_identity_kernel(grid, spec.hurst) for grid in grids])
    all_steps = np.array([[grid.dt] for grid in grids])
    x = np.array([firsts[row] for row in rows])
    open_at = np.arange(len(rows))  # each open row's position in the stacks above
    noise, kernels, dts = all_noise, all_kernels, all_steps
    logs: list[list[tuple[int, float, float]]] = [[] for _ in rows]
    caps = [_EXTRA_ITERATIONS] * len(rows)
    previous = [math.nan] * len(rows)
    converged: dict[int, tuple[np.ndarray, int]] = {}
    iteration = 0
    while open_at.size:
        iteration += 1
        residual = _identity_rows(x, noise, kernels, dts, spec, x0)
        new_x = x - residual
        distances = np.abs(residual).max(axis=1)
        lows, highs = new_x.min(axis=1), new_x.max(axis=1)
        keep = []
        for i, at in enumerate(open_at.tolist()):
            distance = float(distances[i])
            last = previous[at]
            ratio = distance / last if last and not math.isnan(last) else math.nan
            logs[at].append((iteration, distance, ratio))
            try:
                if lows[i] < band_lo - 1e-12 or highs[i] > band_hi + 1e-12:
                    raise PicardBandError(
                        f"iterate {iteration} escaped [{band_lo}, {band_hi}] "
                        f"(min {lows[i]:.6g}, max {highs[i]:.6g})"
                    )
                if distance <= tolerance:
                    converged[at] = new_x[i].copy(), iteration
                    continue
                if iteration == 1:
                    modulus = certificates[rows[at]].modulus
                    caps[at] = (
                        math.ceil(math.log(tolerance / distance) / math.log(modulus))
                        + _EXTRA_ITERATIONS
                    )
                elif iteration > caps[at]:
                    raise PicardConvergenceError(
                        f"no convergence to {tolerance:g} within {caps[at]} iterations "
                        f"(last displacement {distance:.3e})"
                    )
            except Exception as exc:  # noqa: BLE001 - the failure is this row's own
                outcomes[rows[at]] = exc
                continue
            previous[at] = distance
            keep.append(i)
        x = new_x
        if len(keep) < open_at.size:
            open_at, x = open_at[keep], x[keep]
            noise, kernels, dts = all_noise[open_at], all_kernels[open_at], all_steps[open_at]
    if converged:
        done = list(converged)
        values = np.array([converged[at][0] for at in done])
        sups = np.abs(
            _identity_rows(values, all_noise[done], all_kernels[done], all_steps[done], spec, x0)
        ).max(axis=1)
        for at, sup in zip(done, sups):
            fixed_point, iterations = converged[at]
            outcomes[rows[at]] = PicardResult(
                values=fixed_point,
                log=logs[at],
                iterations=iterations,
                final_distance=float(logs[at][-1][1]),
                iteration_cap=caps[at],
                residual=float(sup),
            )
    return outcomes


def picard_solve(
    problem: LocalProblem,
    certificate: DeltaCertificate,
    tolerance: float,
    start: np.ndarray | None = None,
) -> PicardResult:
    """Iterate x -> x - R(x) to its fixed point on the certified window.

    R is the integral identity's residual (see the module docstring), so the
    step's displacement is sup|R(x)|.  The grid is the driver's grid, whose
    horizon must not exceed the certified delta.  Every iterate must remain
    in [x_0/2, 2 x_0], where the residual's reciprocal floor never binds, and
    the iteration must converge within ceil(log(tol / d_1) / log q) + 10
    steps, d_1 being the first displacement.  This is the one-problem block
    of the iteration that campaigns run for many problems at once.
    """

    (outcome,) = _solve_block([problem], [certificate], tolerance, [start])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def fixed_point_residual(problem: LocalProblem, values: np.ndarray) -> float:
    """Sup-distance between the path and its image under the map: sup|R(values)|."""

    spec, grid = problem.spec, problem.grid
    values = np.asarray(values, dtype=float)
    residual = identity_residual(
        values, problem.noise.values, spec, grid, 0, grid.step_count, spec.x0
    )
    return float(np.abs(residual).max())
