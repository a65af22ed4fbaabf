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
in one pass, and :func:`certify_windows` shrinks each driver's window to its
certified horizon until the certificate covers the window.  The iteration then applies the
discrete map x -> x - R(x), where R is the integral identity's residual
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
from typing import Callable, Iterable, Sequence

import numpy as np

from .fbm import FbmPath, HolderEstimate, TimeGrid, estimate_holder
from .ladder import identity_residual
from .sde import SdeSpec

__all__ = [
    "DeltaCertificate",
    "InfeasibleProblemError",
    "LocalProblem",
    "PicardBandError",
    "PicardConvergenceError",
    "PicardResult",
    "certify_windows",
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


def certify_windows(
    spec: SdeSpec,
    draw: Callable[[int, float], FbmPath],
    paths: Iterable[int],
    exponent: float,
    initial_window: float,
    max_rounds: int,
) -> dict[int, tuple[LocalProblem, DeltaCertificate] | Exception | None]:
    """Certify for each path a window that its own driver permits.

    ``draw(path, window)`` samples the path's noise on [0, window]; the
    driver is ``spec.sigma`` times it, certified at Hoelder ``exponent``.
    Each round draws every path still certifying on its trial window, scans
    their Hoelder constants as one block and selects their horizons
    together; a path whose certified horizon does not cover its window
    retries on that horizon.  Maps each path to its (problem, certificate),
    to the exception it raised, or to None when its window still shrinks
    after ``max_rounds`` rounds.  One path's failure does not touch the
    others.
    """

    outcomes: dict[int, tuple[LocalProblem, DeltaCertificate] | Exception | None] = {}
    windows = dict.fromkeys(paths, initial_window)
    for _ in range(max_rounds):
        drivers: dict[int, FbmPath] = {}
        for path, window in windows.items():
            try:
                drivers[path] = draw(path, window)
            except Exception as exc:  # noqa: BLE001 - the failure is this path's own
                outcomes[path] = exc
        if not drivers:
            return outcomes
        holders = estimate_holder(
            np.array([spec.sigma * driver.values for driver in drivers.values()]),
            [driver.grid for driver in drivers.values()],
            exponent,
        )
        problems: dict[int, LocalProblem] = {}
        for (path, driver), holder in zip(drivers.items(), holders):
            try:
                problems[path] = LocalProblem(spec, driver, holder)
            except Exception as exc:  # noqa: BLE001 - the failure is this path's own
                outcomes[path] = exc
        certificates = select_delta(list(problems.values()))
        shrunk: dict[int, float] = {}
        for (path, problem), certificate in zip(problems.items(), certificates):
            if isinstance(certificate, InfeasibleProblemError):
                outcomes[path] = certificate
            elif certificate.delta >= windows[path] * (1.0 - 1e-12):
                outcomes[path] = (problem, certificate)
            else:
                shrunk[path] = certificate.delta
        windows = shrunk
    outcomes.update(dict.fromkeys(windows))
    return outcomes


@dataclass
class PicardResult:
    """Converged fixed point with its iteration log.

    ``log`` rows are (iteration, sup_distance, contraction_ratio); the ratio
    of the first row is NaN (no previous distance to compare).
    """

    values: np.ndarray
    log: list[tuple[int, float, float]]
    iterations: int
    final_distance: float
    iteration_cap: int


def _window_residual(problem: LocalProblem, x: np.ndarray) -> np.ndarray:
    """The integral identity's residual R(x) on the whole window, anchored at x_0."""

    spec, grid = problem.spec, problem.grid
    return identity_residual(x, problem.noise.values, spec, grid, 0, grid.step_count, spec.x0)


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
    steps, d_1 being the first displacement.
    """

    if not (tolerance > 0.0):
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    grid = problem.grid
    if grid.horizon > certificate.delta * (1.0 + 1e-12):
        raise ValueError(
            f"driver horizon {grid.horizon} exceeds certified delta {certificate.delta}"
        )
    x0 = problem.spec.x0
    band_lo, band_hi = 0.5 * x0, 2.0 * x0
    x = np.full(grid.step_count + 1, x0) if start is None else np.asarray(start, dtype=float).copy()
    if x.shape != (grid.step_count + 1,):
        raise ValueError("start iterate must live on the driver grid")
    if x.min() < band_lo or x.max() > band_hi:
        raise PicardBandError("start iterate lies outside [x_0/2, 2 x_0]")
    log: list[tuple[int, float, float]] = []
    cap = _EXTRA_ITERATIONS
    previous_distance = math.nan
    iteration = 0
    while True:
        iteration += 1
        residual = _window_residual(problem, x)
        new_x = x - residual
        distance = float(np.abs(residual).max())
        ratio = distance / previous_distance if previous_distance and not math.isnan(previous_distance) else math.nan
        log.append((iteration, distance, ratio))
        if new_x.min() < band_lo - 1e-12 or new_x.max() > band_hi + 1e-12:
            raise PicardBandError(
                f"iterate {iteration} escaped [{band_lo}, {band_hi}] "
                f"(min {new_x.min():.6g}, max {new_x.max():.6g})"
            )
        x = new_x
        if iteration == 1:
            if distance <= tolerance:
                break
            cap = (
                math.ceil(math.log(tolerance / distance) / math.log(certificate.modulus))
                + _EXTRA_ITERATIONS
            )
        elif distance <= tolerance:
            break
        elif iteration > cap:
            raise PicardConvergenceError(
                f"no convergence to {tolerance:g} within {cap} iterations "
                f"(last displacement {distance:.3e})"
            )
        previous_distance = distance
    return PicardResult(
        values=x,
        log=log,
        iterations=iteration,
        final_distance=float(log[-1][1]),
        iteration_cap=cap,
    )


def fixed_point_residual(problem: LocalProblem, values: np.ndarray) -> float:
    """Sup-distance between the path and its image under the map: sup|R(values)|."""

    return float(np.abs(_window_residual(problem, np.asarray(values, dtype=float))).max())
