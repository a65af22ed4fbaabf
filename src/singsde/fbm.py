"""Exact sampling of fractional Brownian motion on uniform grids.

Fractional Brownian motion (fBm) with Hurst parameter H is the centered
Gaussian process with covariance ``R(s,t) = (t^{2H} + s^{2H} - |t-s|^{2H})/2``.
Its increments over a uniform grid form fractional Gaussian noise (fGn), a
stationary sequence whose unit-variance autocovariance at lag k is
``gamma(k) = (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H})/2``; for H < 1/2 every
nonzero lag is negative (antipersistence).

One exact generator and a zero driver are provided:

``circulant``
    Embeds the stationary fGn covariance into a circulant matrix diagonalized
    by the FFT; O(n log n) (Wood & Chan 1994).  The weights sqrt(lambda_k / 2n)
    of the embedding eigenvalues lambda_k are computed once per (n, H) and
    kept in a small LRU cache.  Paths are drawn in blocks of rows of one
    step count: each row of one complex buffer is filled by its own path's
    weighted normals, and one FFT call transforms the whole buffer in place.
    A block holds at most 2^15 complex entries, the buffer of one 2^14-step
    path, and ``generate_fbm`` is the one-row block.  For H < 1/2 the
    embedding is nonnegative definite (Dietrich & Newsam 1997; Craigmile
    2003), so a genuinely negative eigenvalue (below -1e-10) indicates a bug
    and aborts.
``zero``
    A deterministic path of zeros (``zero_path``), used as the driver of
    zero-noise experiments; consumes no randomness.

Nested 2x refinement (``refine_fbm``) samples the fine path conditionally on
the coarse one by kriging: an unconditional circulant draw on the fine grid,
corrected by a Toeplitz solve in O(n) memory.  The solve is a conjugate
gradient (PCG) with T. Chan's circulant preconditioner, O(n log n) per
iteration; it stops at a relative residual of 1e-14 and raises
``FbmGenerationError`` if it has not converged after 1000 iterations
(``_REFINE_MAX_ITERATIONS``).

Randomness contract: every path's Gaussian stream derives deterministically
from ``(master_seed, path_index)`` through a counter-based generator, so
parallel generation order cannot change results.  Substream 1 of the same
counter block is reserved for nested grid refinement (``refine_fbm``) and
substream 2 for auxiliary window drivers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "GENERATOR_TAGS",
    "FbmGenerationError",
    "FbmPath",
    "HolderEstimate",
    "HurstParam",
    "SeedRecord",
    "TimeGrid",
    "estimate_holder",
    "generate_fbm",
    "path_stream",
    "refine_fbm",
    "zero_path",
]

GENERATOR_TAGS = ("circulant", "zero")

_EMBEDDING_EIG_FLOOR = -1e-10
# Complex entries of one draw block: the buffer of one 2^14-step path.  So a
# 2^14-step campaign draws one path per FFT call, 2^11 steps draw 8 and the
# 256-step contraction windows 64.
_BLOCK_ENTRIES = 2**15
_REFINE_RELATIVE_RESIDUAL = 1e-14
# The refinement PCG takes 5-21 iterations for H in [0.05, 0.5) up to 2^16
# coarse steps; its count grows as H approaches 0 (244 at H = 1e-4, 2^18).
_REFINE_MAX_ITERATIONS = 1000


class FbmGenerationError(RuntimeError):
    """A generator could not produce a valid Gaussian sample."""


@dataclass(frozen=True)
class HurstParam:
    """Roughness index of the driving noise, restricted to (0, 1/2).

    The fBm covariance is defined for any exponent in (0, 1); the solver-side
    restriction to H < 1/2 is enforced here because every downstream object
    carries a HurstParam.
    """

    value: float

    def __post_init__(self) -> None:
        if not (0.0 < self.value < 0.5):
            raise ValueError(f"Hurst parameter must lie in (0, 1/2), got {self.value}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * horizon / step_count for k = 0..step_count."""

    horizon: float
    step_count: int

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be a positive finite real, got {self.horizon}")
        if isinstance(self.step_count, bool) or not (
            isinstance(self.step_count, int) and self.step_count >= 1
        ):
            raise ValueError(f"step_count must be a positive integer, got {self.step_count}")

    @property
    def dt(self) -> float:
        return self.horizon / self.step_count

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.step_count + 1)


def _uint64(name: str, value: object, bound: str) -> int:
    """``value`` as an ``int`` in [0, 2^64); bools and non-integers are rejected."""

    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


@dataclass(frozen=True)
class SeedRecord:
    """Provenance of one path: a 64-bit master seed plus a path index.

    Both are integers in [0, 2^64), not bools; numpy integers become ``int``.
    """

    master_seed: int
    path_index: int

    def __post_init__(self) -> None:
        seed = _uint64("master_seed", self.master_seed, "fit in 64 bits")
        index = _uint64("path_index", self.path_index, "be a nonnegative 64-bit integer")
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "path_index", index)


def path_stream(seed_record: SeedRecord, substream: int = 0) -> Generator:
    """Counter-based Gaussian stream for one (master seed, path index) pair.

    Each path index owns a disjoint counter block; substreams partition the
    block so that derived draws (nested refinement, auxiliary drivers) never
    collide with the base path's stream.  ``substream`` is an integer in
    [0, 2^64), not a bool.
    """

    substream = _uint64("substream", substream, "fit in 64 bits")
    counter = (seed_record.path_index << 192) + (substream << 128)
    return Generator(Philox(key=seed_record.master_seed, counter=counter))


@dataclass
class FbmPath:
    """One sampled trajectory with full provenance.

    Invariants: ``values[0] == 0`` exactly, ``len(values) == step_count + 1``,
    and identical (seed_record, generator_tag, grid, hurst) reproduce
    bit-identical values.
    """

    grid: TimeGrid
    values: np.ndarray
    hurst: HurstParam
    seed_record: SeedRecord
    generator_tag: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.step_count + 1,):
            raise ValueError(
                f"values must have {self.grid.step_count + 1} entries, got shape {self.values.shape}"
            )
        if self.values[0] != 0.0:
            raise ValueError(f"a noise path must start at 0, got {self.values[0]}")
        if self.generator_tag not in GENERATOR_TAGS:
            raise ValueError(f"unknown generator tag {self.generator_tag!r}")
        if self.generator_tag == "zero" and np.any(self.values):
            raise ValueError("a path tagged 'zero' must be identically 0")

    @property
    def ref(self) -> str:
        """Stable identifier used by downstream objects to cite their driver."""

        return (
            f"{self.generator_tag}:{self.seed_record.master_seed}"
            f":{self.seed_record.path_index}:n={self.grid.step_count}"
            f":T={self.grid.horizon!r}:H={self.hurst.value!r}"
        )


@dataclass(frozen=True)
class HolderEstimate:
    """Grid Hoelder certificate: |g(t_j) - g(t_i)| <= constant * (t_j - t_i)^exponent.

    ``constant`` is the exact maximum of the pair ratios over every grid pair,
    so the inequality holds with equality for at least one pair.
    """

    exponent: float
    constant: float
    grid: TimeGrid


# ---------------------------------------------------------------------------
# covariance formulas
# ---------------------------------------------------------------------------


def _fgn_kernel(n_lags: int, hurst_value: float) -> np.ndarray:
    """gamma(0..n_lags) for unit-spaced, unit-variance increments."""

    k = np.arange(n_lags + 1, dtype=float)
    two_h = 2.0 * hurst_value
    return 0.5 * ((k + 1.0) ** two_h - 2.0 * k**two_h + np.abs(k - 1.0) ** two_h)


# ---------------------------------------------------------------------------
# generator (unit-variance fGn; scaling to the grid happens in generate_fbm)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _circulant_weights(n: int, hurst_value: float) -> np.ndarray:
    """Weights sqrt(lambda_k / 2n) of the length-2n circulant embedding of gamma(0..n-1).

    lambda_k are the embedding's eigenvalues, clipped at 0 once they pass the
    floor check.  Cached per (n, H) in a small LRU cache; the returned array
    is read-only because every caller shares it.
    """

    g = _fgn_kernel(n, hurst_value)
    row = np.concatenate([g[:n], [g[n]], g[1:n][::-1]])
    eig = np.fft.fft(row).real
    if eig.min() < _EMBEDDING_EIG_FLOOR:
        raise FbmGenerationError(
            f"circulant embedding produced eigenvalue {eig.min():.3e} below "
            f"{_EMBEDDING_EIG_FLOOR:.0e} for n={n}, H={hurst_value}"
        )
    weights = np.sqrt(np.clip(eig, 0.0, None) / (2 * n))
    weights.setflags(write=False)
    return weights


def _fgn_block(n: int, hurst_value: float, streams: Sequence[Generator]) -> np.ndarray:
    """n unit-variance fGn increments per stream: the real part of an FFT of weighted normals.

    Each stream fills its own row of one complex block, real normals first,
    then imaginary ones, each 2n long, weighted straight into the row; one
    FFT call then transforms every row in place.  A row of a multi-row FFT
    equals the FFT of that row alone bit for bit, so a row's increments do
    not depend on the rows drawn beside it.  The result, shape
    (rows, n), is a view of that block.
    """

    weights = _circulant_weights(n, hurst_value)
    block = np.empty((len(streams), 2 * n), dtype=complex)
    for row, rng in zip(block, streams):
        np.multiply(rng.standard_normal(2 * n), weights, out=row.real)
        np.multiply(rng.standard_normal(2 * n), weights, out=row.imag)
    np.fft.fft(block, axis=-1, out=block)
    return block.real[:, :n]


def _block_rows(step_count: int) -> int:
    """Rows of one draw block of ``step_count``-step paths: ``_BLOCK_ENTRIES`` entries, or 1 row."""

    return max(1, _BLOCK_ENTRIES // (2 * step_count))


def _generate_block(
    grids: Sequence[TimeGrid], hurst: HurstParam, seeds: Sequence[SeedRecord], substream: int
) -> list[FbmPath]:
    """One circulant path per (grid, seed) row, all drawn by one FFT call.

    The grids must share one step count; callers keep a block to at most
    ``_block_rows(step_count)`` rows.  Each row draws from its own
    ``path_stream(seed, substream)`` and is scaled by its own dt^H, so every
    path equals the one :func:`generate_fbm` draws alone, bit for bit.
    """

    steps = grids[0].step_count
    if any(grid.step_count != steps for grid in grids):
        raise ValueError("every row's grid must have the same step count")
    streams = [path_stream(seed, substream=substream) for seed in seeds]
    increments = _fgn_block(steps, hurst.value, streams)
    paths = []
    for grid, seed, row in zip(grids, seeds, increments):
        values = np.empty(steps + 1)
        values[0] = 0.0
        np.cumsum(row * grid.dt**hurst.value, out=values[1:])
        paths.append(
            FbmPath(
                grid=grid, values=values, hurst=hurst, seed_record=seed, generator_tag="circulant"
            )
        )
    return paths


def generate_fbm(
    grid: TimeGrid,
    hurst: HurstParam,
    seed_record: SeedRecord,
    substream: int = 0,
) -> FbmPath:
    """Sample one trajectory by circulant embedding: values[0] = 0, increments exact fGn.

    The increments carry covariance ``dt^{2H} * gamma(k)``.  An embedding
    failure raises ``FbmGenerationError``.  ``substream`` selects a disjoint
    portion of the path's counter block for auxiliary draws (0 is the base
    path; 1 is reserved for nested refinement) and is part of the
    reproducibility key.  The zero driver is ``zero_path``.  This is the
    one-row block of the sampler that campaigns draw their paths with.
    """

    (path,) = _generate_block([grid], hurst, [seed_record], substream)
    return path


def zero_path(grid: TimeGrid, hurst: HurstParam, seed_record: SeedRecord | None = None) -> FbmPath:
    """Deterministic driver identically 0 (zero-noise experiments)."""

    rec = seed_record if seed_record is not None else SeedRecord(0, 0)
    return FbmPath(
        grid=grid,
        values=np.zeros(grid.step_count + 1),
        hurst=hurst,
        seed_record=rec,
        generator_tag="zero",
    )


# ---------------------------------------------------------------------------
# Hoelder estimation
# ---------------------------------------------------------------------------


def estimate_holder(
    values: np.ndarray, grids: Sequence[TimeGrid], beta: float
) -> list[HolderEstimate]:
    """Exact maximal pair ratio max |g(t_j) - g(t_i)| / (t_j - t_i)^beta, per path.

    ``values`` is a block of paths, shape (paths, nodes), with one grid per
    row; the grids must share one step count.  Returns one
    :class:`HolderEstimate` per row.

    One loop over offsets scans the whole block; on a uniform grid the
    denominator depends only on the offset, so taking each row's per-offset
    maximum of |differences| reproduces the full O(n^2) pair scan exactly.
    The denominators (offset * dt)^beta are Python float powers: numpy's
    array power may differ from them in the last bit.
    """

    if not (0.0 < beta < 1.0):
        raise ValueError(f"exponent must lie in (0, 1), got {beta}")
    block = np.asarray(values, dtype=float)
    if block.ndim != 2:
        raise ValueError(f"values must be a (paths, nodes) block, got shape {block.shape}")
    grids = list(grids)
    if len(grids) != len(block):
        raise ValueError(f"need one grid per row, got {len(grids)} grids for {len(block)} rows")
    if not grids:
        return []
    steps = grids[0].step_count
    if any(row_grid.step_count != steps for row_grid in grids):
        raise ValueError("every row's grid must have the same step count")
    if block.shape[1] != steps + 1:
        raise ValueError(f"values must have {steps + 1} entries, got shape {block.shape}")
    powers: dict[float, list[float]] = {}
    for row_grid in grids:
        dt = row_grid.dt
        if dt not in powers:
            powers[dt] = [(offset * dt) ** beta for offset in range(1, steps + 1)]
    denominators = np.array([powers[row_grid.dt] for row_grid in grids]).T
    nodes_major = np.ascontiguousarray(block.T)
    spreads = np.empty((steps, len(grids)))
    for offset in range(1, steps + 1):
        np.abs(nodes_major[offset:] - nodes_major[:-offset]).max(axis=0, out=spreads[offset - 1])
    # fmax skips a NaN ratio, as a running maximum by ``ratio > best`` does.
    best = np.fmax.reduce(spreads / denominators, axis=0, initial=0.0)
    return [
        HolderEstimate(exponent=beta, constant=float(constant), grid=row_grid)
        for constant, row_grid in zip(best, grids)
    ]


# ---------------------------------------------------------------------------
# nested refinement (2x grid, coarse nodes preserved bitwise)
# ---------------------------------------------------------------------------


def _solve_coarse_covariance(column: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve T w = rhs for the symmetric positive-definite Toeplitz T with first column ``column``.

    Preconditioned conjugate gradients (R. Chan & Ng, SIAM Review 1996).  The
    product T p goes through T's circulant embedding of length 2n; the
    preconditioner is T. Chan's optimal circulant (SIAM J. Sci. Stat. Comput.
    1988), c_k = ((n - k) t_k + k t_{n-k}) / n, whose eigenvalues are Rayleigh
    quotients of T and hence positive.  Both are applied by FFT, O(n log n)
    per iteration.  Stops at ``_REFINE_RELATIVE_RESIDUAL``; an unconverged
    solve raises instead of returning.
    """

    n = column.size
    wrapped = np.concatenate([[0.0], column[:0:-1]])
    product_eig = np.fft.rfft(np.concatenate([column, wrapped]))
    lags = np.arange(n)
    preconditioner_eig = np.fft.rfft(((n - lags) * column + lags * wrapped) / n).real

    weights = np.zeros(n)
    residual = rhs.copy()
    search = np.fft.irfft(np.fft.rfft(residual) / preconditioner_eig, n)
    rho = residual @ search
    target = _REFINE_RELATIVE_RESIDUAL * np.linalg.norm(rhs)
    iterations = 0
    while np.linalg.norm(residual) > target:
        if iterations == _REFINE_MAX_ITERATIONS:
            raise FbmGenerationError(
                f"refinement solve did not reach relative residual {_REFINE_RELATIVE_RESIDUAL:.0e} "
                f"in {_REFINE_MAX_ITERATIONS} iterations (n={n}, relative residual "
                f"{np.linalg.norm(residual) / np.linalg.norm(rhs):.3e})"
            )
        iterations += 1
        image = np.fft.irfft(product_eig * np.fft.rfft(search, 2 * n), 2 * n)[:n]
        step = rho / (search @ image)
        weights += step * search
        residual -= step * image
        preconditioned = np.fft.irfft(np.fft.rfft(residual) / preconditioner_eig, n)
        rho, previous = residual @ preconditioned, rho
        search = preconditioned + (rho / previous) * search
    return weights


def refine_fbm(path: FbmPath) -> FbmPath:
    """Resample the path on the doubled grid, conditioning on the coarse path.

    Even fine nodes equal the coarse nodes bitwise; odd nodes are drawn from
    the exact conditional law of the fine process given every coarse
    increment.  The randomness is substream 1 of the path's own counter
    block, so refinement is itself reproducible.

    Conditional simulation by kriging (Dietrich & Newsam 1996): draw
    unconditional fine increments f* on the 2n grid with the circulant
    sampler, let c* = f*[0::2] + f*[1::2] be their coarse sums and
    v* = f*[0::2] the first increment of each pair, and correct
    v = v* + T_vc T_cc^{-1} (c - c*).  With g the fine fGn covariance,
    T_cc = Cov(c, c) has the symmetric column 2g(2d) + g(|2d-1|) + g(2d+1) and
    T_vc = Cov(v, c) the column g(2d) + g(|2d-1|) and the row g(2d) + g(2d+1).
    Both are Toeplitz, so the solve and the product need O(n) memory.  The
    solve is PCG with T. Chan's circulant preconditioner, O(n log n) per
    iteration (see ``_solve_coarse_covariance``); if it has not reached a
    relative residual of 1e-14 within 1000 iterations (``_REFINE_MAX_ITERATIONS``)
    it raises ``FbmGenerationError``.  The product is an FFT of T_vc's circulant
    embedding.  The second increment of each pair is c - v.  A path with a
    non-finite node raises ``ValueError``.
    """

    if not np.isfinite(path.values).all():
        node = int(np.argmin(np.isfinite(path.values)))
        raise ValueError(f"refinement needs a finite path, got {path.values[node]} at node {node}")
    if path.generator_tag == "zero":
        fine_grid = TimeGrid(path.grid.horizon, 2 * path.grid.step_count)
        return zero_path(fine_grid, path.hurst, path.seed_record)

    n = path.grid.step_count
    hurst_value = path.hurst.value
    rng = path_stream(path.seed_record, substream=1)
    fine_grid = TimeGrid(path.grid.horizon, 2 * n)
    fine_draw = _fgn_block(2 * n, hurst_value, [rng])[0] * fine_grid.dt**hurst_value
    first_draw = fine_draw[0::2]
    coarse_draw = first_draw + fine_draw[1::2]

    g = _fgn_kernel(2 * n, hurst_value) * fine_grid.dt ** (2.0 * hurst_value)
    # lag d of the coarse index: g(2d), g(2d+1) and g(|2d-1|), for d = 0..n-1
    even, odd_above = g[0 : 2 * n : 2], g[1::2]
    odd_below = np.concatenate([odd_above[:1], odd_above[:-1]])
    coarse_cov = 2.0 * even + odd_below + odd_above
    cross_column, cross_row = even + odd_below, even + odd_above
    weights = _solve_coarse_covariance(coarse_cov, np.diff(path.values) - coarse_draw)
    # T_vc @ weights through T_vc's circulant embedding of length 2n
    embedding = np.concatenate([cross_column, [0.0], cross_row[:0:-1]])
    correction = np.fft.irfft(np.fft.rfft(embedding) * np.fft.rfft(weights, 2 * n), 2 * n)[:n]
    first_of_pair = first_draw + correction

    fine = np.empty(2 * n + 1)
    fine[0::2] = path.values
    fine[1::2] = path.values[:-1] + first_of_pair
    return FbmPath(
        grid=fine_grid,
        values=fine,
        hurst=path.hurst,
        seed_record=path.seed_record,
        generator_tag=path.generator_tag,
    )
