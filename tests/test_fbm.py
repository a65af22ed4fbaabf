"""Noise-core tests: covariance formulas, generators, Hölder estimation, refinement.

Statistical assertions use frozen master seeds so every run sees the same
draws; the bars (3-5 standard errors) come from the module contract.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singsde import (
    GENERATOR_TAGS,
    FbmGenerationError,
    FbmPath,
    HurstParam,
    SeedRecord,
    TimeGrid,
    estimate_holder,
    generate_fbm,
    path_stream,
    refine_fbm,
    zero_path,
)
from singsde import fbm as fbm_module

from _support import (
    cholesky_fbm_values,
    circulant_fgn_oracle,
    covariance_formula,
    dense_refinement_law,
    fbm_covariance,
    fgn_autocovariance,
    lag_autocov_zscores,
)

H_QUARTER = HurstParam(0.25)
GRID_1024 = TimeGrid(horizon=1.0, step_count=1024)


# ---------------------------------------------------------------------------
# closed-form kernels
# ---------------------------------------------------------------------------


def test_covariance_formula_pinned_values():
    assert covariance_formula(1.0, 1.0, 0.3) == pytest.approx(1.0, abs=1e-12)
    # H = 1/2 is outside the rough-regime domain type but the raw evaluator
    # accepts it; the formula must then collapse to the Brownian min(s, t).
    assert covariance_formula(1.0, 3.0, 0.5) == pytest.approx(1.0, abs=1e-12)
    assert covariance_formula(1.0, 2.0, 0.25) == pytest.approx(0.7071068, abs=1e-7)
    assert fbm_covariance(1.0, 2.0, H_QUARTER) == pytest.approx(0.7071068, abs=1e-7)
    # symmetry and the variance diagonal
    assert covariance_formula(0.3, 1.2, 0.25) == covariance_formula(1.2, 0.3, 0.25)
    assert covariance_formula(0.5, 0.5, 0.25) == pytest.approx(0.5**0.5, abs=1e-12)


def test_covariance_formula_domain():
    with pytest.raises(ValueError, match="time arguments must be nonnegative"):
        covariance_formula(-0.1, 1.0, 0.25)
    with pytest.raises(ValueError, match="exponent must lie in"):
        covariance_formula(0.5, 1.0, 1.0)
    with pytest.raises(ValueError, match="must lie in \\(0, 1/2\\)"):
        HurstParam(0.5)
    with pytest.raises(ValueError, match="must lie in \\(0, 1/2\\)"):
        HurstParam(0.0)


def test_fgn_autocovariance_pinned_values():
    for value in (0.1, 0.25, 0.4):
        assert fgn_autocovariance(0, HurstParam(value)) == pytest.approx(1.0, abs=1e-12)
    assert fgn_autocovariance(1, H_QUARTER) == pytest.approx(-0.2928932, abs=1e-7)


def test_fgn_autocovariance_antipersistent_sign():
    for value in (0.1, 0.25, 0.4):
        hurst = HurstParam(value)
        worst = max(fgn_autocovariance(k, hurst) for k in range(1, 101))
        print(f"H={value}: max lag-1..100 autocovariance {worst:.3e}")
        assert worst < 0.0, f"H={value}: lagged autocovariance must stay negative"


def test_fgn_autocovariance_domain():
    with pytest.raises(ValueError, match="lag must be a nonnegative integer"):
        fgn_autocovariance(-1, H_QUARTER)


def test_generator_kernel_matches_the_support_formula():
    # The pinned formulas above live with the tests; the generators read the
    # vectorized kernel, which must agree with them lag by lag.
    for value in (0.1, 0.25, 0.4):
        expected = [fgn_autocovariance(k, HurstParam(value)) for k in range(65)]
        assert np.allclose(fbm_module._fgn_kernel(64, value), expected, rtol=0.0, atol=1e-13)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_single_increment_unit_variance():
    # n = 1, T = 1: the lone increment is standard normal; check the variance
    # over 1e5 seeds against the 3-standard-error band (SE of a variance
    # estimate is sqrt(2/N) for Gaussian data).
    grid = TimeGrid(horizon=1.0, step_count=1)
    draws = np.array(
        [
            generate_fbm(grid, H_QUARTER, SeedRecord(7, index)).values[1]
            for index in range(100_000)
        ]
    )
    variance = draws.var(ddof=1)
    bar = 3.0 * math.sqrt(2.0 / draws.size)
    print(f"n=1 increment variance {variance:.4f} (|dev| {abs(variance - 1):.4f}, bar {bar:.4f})")
    assert abs(variance - 1.0) <= bar


def test_same_seed_is_bit_identical():
    first = generate_fbm(GRID_1024, H_QUARTER, SeedRecord(42, 3))
    second = generate_fbm(GRID_1024, H_QUARTER, SeedRecord(42, 3))
    assert np.array_equal(first.values, second.values)
    assert first.generator_tag == "circulant"
    other_path = generate_fbm(GRID_1024, H_QUARTER, SeedRecord(42, 4))
    other_sub = generate_fbm(GRID_1024, H_QUARTER, SeedRecord(42, 3), substream=1)
    base = generate_fbm(GRID_1024, H_QUARTER, SeedRecord(42, 3))
    assert not np.array_equal(base.values, other_path.values)
    assert not np.array_equal(base.values, other_sub.values)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 2**11, 2**14])
@pytest.mark.parametrize("hurst_value", [0.01, 0.25, 0.49])
def test_circulant_draws_equal_the_complex_temporaries_oracle(n, hurst_value, monkeypatch):
    # The sampler weights its normals straight into one complex buffer and
    # transforms it in place; every value must equal the formula through
    # complex temporaries bit for bit, on each substream and in refine_fbm's
    # unconditional draw.
    grid, hurst, rec = TimeGrid(1.0, n), HurstParam(hurst_value), SeedRecord(2024, 7)
    for substream in (0, 1, 2):
        path = generate_fbm(grid, hurst, rec, substream=substream)
        unit = circulant_fgn_oracle(n, hurst_value, path_stream(rec, substream))
        expected = np.concatenate([[0.0], np.cumsum(unit * grid.dt**hurst_value)])
        assert np.array_equal(path.values, expected), substream
        assert path.values.flags.owndata and path.values.base is None
    assert not fbm_module._circulant_weights(n, hurst_value).flags.writeable

    coarse = generate_fbm(grid, hurst, rec)
    sampler = fbm_module._fgn_unit_circulant
    draws = []

    def recorded(size, value, rng):
        draws.append(sampler(size, value, rng))
        return draws[-1]

    monkeypatch.setattr(fbm_module, "_fgn_unit_circulant", recorded)
    refine_fbm(coarse)
    assert len(draws) == 1
    assert np.array_equal(draws[0], circulant_fgn_oracle(2 * n, hurst_value, path_stream(rec, 1)))


def test_paths_start_at_zero():
    assert GENERATOR_TAGS == ("circulant", "zero")
    for path in (
        generate_fbm(TimeGrid(1.0, 64), H_QUARTER, SeedRecord(1, 0)),
        zero_path(TimeGrid(1.0, 64), H_QUARTER, SeedRecord(1, 0)),
    ):
        assert path.values[0] == 0.0, path.generator_tag


def test_lag_autocovariance_monte_carlo():
    # Module example: H=0.25, n=1024, 4096 paths, lags 0..10 within 4 SE.
    zscores = lag_autocov_zscores(0.25, 1024, 4096, master_seed=12345)
    worst = np.abs(zscores).max()
    print(f"lag autocovariance z-scores (H=0.25): {np.round(zscores, 2)}")
    assert worst < 4.0, f"worst |z| = {worst:.2f} exceeds 4 standard errors"


def test_generator_cross_validation():
    # Circulant vs the dense Cholesky oracle from independent seeds: entrywise
    # difference of the empirical increment covariance matrices within 5
    # standard errors.
    n, paths = 64, 4096
    grid = TimeGrid(horizon=1.0, step_count=n)

    def increment_rows(sample, master: int) -> np.ndarray:
        rows = np.empty((paths, n))
        for index in range(paths):
            rows[index] = np.diff(sample(grid, H_QUARTER, SeedRecord(master, index)))
        return rows

    def covariance_and_variance(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cov = rows.T @ rows / rows.shape[0]
        second = (rows**2).T @ (rows**2) / rows.shape[0]
        return cov, second - cov**2

    cov_a, var_a = covariance_and_variance(
        increment_rows(lambda *key: generate_fbm(*key).values, 101)
    )
    cov_b, var_b = covariance_and_variance(increment_rows(cholesky_fbm_values, 202))
    stderr = np.sqrt((var_a + var_b) / paths)
    zmatrix = np.abs(cov_a - cov_b) / stderr
    print(f"cross-validation worst entrywise z: {zmatrix.max():.3f}")
    assert zmatrix.max() < 5.0


def test_terminal_value_moments():
    # Invariant: over N >= 4096 paths, the mean of B_T is within 4 T^H/sqrt(N)
    # of 0 and the variance within 4 sqrt(2) T^{2H}/sqrt(N) of T^{2H} (T = 1).
    paths = 4096
    grid = TimeGrid(horizon=1.0, step_count=256)
    terminal = np.array(
        [
            generate_fbm(grid, H_QUARTER, SeedRecord(9, index)).values[-1]
            for index in range(paths)
        ]
    )
    mean_bar = 4.0 / math.sqrt(paths)
    var_bar = 4.0 * math.sqrt(2.0) / math.sqrt(paths)
    print(
        f"B_T moments: mean {terminal.mean():+.4f} (bar {mean_bar:.4f}), "
        f"variance {terminal.var(ddof=1):.4f} (bar {var_bar:.4f})"
    )
    assert abs(terminal.mean()) <= mean_bar
    assert abs(terminal.var(ddof=1) - 1.0) <= var_bar


def test_zero_generator():
    path = zero_path(TimeGrid(1.0, 32), H_QUARTER)
    assert path.generator_tag == "zero"
    assert np.all(path.values == 0.0)


def test_path_must_start_at_zero():
    grid = TimeGrid(1.0, 4)
    values = np.array([0.5, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="must start at 0"):
        FbmPath(grid, values, H_QUARTER, SeedRecord(0, 0), "zero")


def test_zero_tag_requires_a_zero_path():
    # refine_fbm refines a "zero" path to zeros, so a nonzero path under that
    # tag would lose its coarse nodes on refinement.
    grid = TimeGrid(1.0, 4)
    for values in ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 0.0, math.nan, 0.0, 0.0]):
        with pytest.raises(ValueError, match="a path tagged 'zero' must be identically 0"):
            FbmPath(grid, values, H_QUARTER, SeedRecord(0, 0), "zero")
    refined = refine_fbm(FbmPath(grid, np.zeros(5), H_QUARTER, SeedRecord(0, 0), "zero"))
    assert refined.values.tobytes() == np.zeros(9).tobytes()


def test_time_grid_rejects_a_boolean_step_count():
    for flag in (True, False):
        with pytest.raises(ValueError, match="step_count must be a positive integer"):
            TimeGrid(1.0, flag)


def test_seed_record_rejects_indices_beyond_64_bits():
    SeedRecord(2**64 - 1, 2**64 - 1)
    with pytest.raises(ValueError, match="path_index must be a nonnegative 64-bit integer"):
        SeedRecord(0, 2**64)
    with pytest.raises(ValueError, match="path_index must be a nonnegative 64-bit integer"):
        SeedRecord(0, -1)
    with pytest.raises(ValueError, match="master_seed must fit in 64 bits"):
        SeedRecord(2**64, 0)


def test_seed_record_and_substream_take_integers_only():
    # Non-integers and bools are rejected at the boundary, not inside the
    # counter arithmetic of path_stream; numpy integers become ints.
    for master_seed in (1.5, True, "3"):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            SeedRecord(master_seed, 0)
    for path_index in (2.0, False):
        with pytest.raises(ValueError, match="path_index must be an integer"):
            SeedRecord(1, path_index)
    record = SeedRecord(np.int64(5), np.uint64(1))
    assert type(record.master_seed) is int and type(record.path_index) is int
    assert record == SeedRecord(5, 1) and hash(record) == hash(SeedRecord(5, 1))
    for substream in (2.0, True):
        with pytest.raises(ValueError, match="substream must be an integer"):
            path_stream(record, substream=substream)
    with pytest.raises(ValueError, match="substream must fit in 64 bits"):
        path_stream(record, substream=-1)
    assert np.array_equal(
        path_stream(record, substream=np.int32(2)).standard_normal(8),
        path_stream(SeedRecord(5, 1), substream=2).standard_normal(8),
    )


def test_path_stream_determinism():
    a = path_stream(SeedRecord(5, 1)).standard_normal(8)
    b = path_stream(SeedRecord(5, 1)).standard_normal(8)
    c = path_stream(SeedRecord(5, 1), substream=2).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Hölder estimation
# ---------------------------------------------------------------------------


def test_estimate_holder_pinned_values():
    grid = TimeGrid(1.0, 8)
    (constant,) = estimate_holder(np.full((1, 9), 3.7), [grid], beta=0.2)
    assert constant.constant == 0.0

    two_node = TimeGrid(1.0, 1)
    (linear,) = estimate_holder(np.array([[0.0, 1.0]]), [two_node], beta=0.5)
    assert linear.constant == pytest.approx(1.0, abs=1e-12)


def test_estimate_holder_stability_under_refinement():
    # Module example: at beta = H/2 the estimated constant grows by less than
    # 50% when the grid doubles via the nested refinement of the same draw.
    worst_ratio = 0.0
    for master in range(2024, 2030):
        coarse = generate_fbm(GRID_1024, H_QUARTER, SeedRecord(master, 0))
        fine = refine_fbm(coarse)
        c_coarse = estimate_holder(coarse.values[None], [coarse.grid], beta=0.125)[0].constant
        c_fine = estimate_holder(fine.values[None], [fine.grid], beta=0.125)[0].constant
        worst_ratio = max(worst_ratio, c_fine / c_coarse)
    print(f"Hölder constant growth under 2x refinement: worst ratio {worst_ratio:.3f}")
    assert worst_ratio < 1.5


def test_estimate_holder_monotone_in_beta():
    path = generate_fbm(TimeGrid(1.0, 256), H_QUARTER, SeedRecord(11, 0))
    constants = [
        estimate_holder(path.values[None], [path.grid], beta=beta)[0].constant
        for beta in (0.05, 0.1, 0.2)
    ]
    print(f"Hölder constants over beta=(0.05, 0.1, 0.2): {np.round(constants, 4)}")
    assert constants[0] <= constants[1] <= constants[2]


def pair_scan(values: np.ndarray, grid: TimeGrid, beta: float) -> float:
    """The O(n^2) reference: the largest pair ratio over every pair of nodes."""

    times = grid.nodes()
    best = 0.0
    for i in range(times.size):
        for j in range(i + 1, times.size):
            best = max(best, abs(values[j] - values[i]) / (times[j] - times[i]) ** beta)
    return best


def test_estimate_holder_matches_reference_scan():
    # The vectorized per-offset scan must equal the O(n^2) reference maximum.
    path = generate_fbm(TimeGrid(1.0, 128), H_QUARTER, SeedRecord(3, 0))
    beta = 0.125
    fast = estimate_holder(path.values[None], [path.grid], beta=beta)[0].constant
    assert fast == pytest.approx(pair_scan(path.values, path.grid, beta), rel=1e-12)


def offset_scan(values: np.ndarray, grid: TimeGrid, beta: float) -> float:
    """The scalar per-offset scan: each offset's largest |difference| over (offset dt)^beta."""

    best = 0.0
    for offset in range(1, grid.step_count + 1):
        spread = float(np.abs(values[offset:] - values[:-offset]).max())
        ratio = spread / (offset * grid.dt) ** beta
        if ratio > best:
            best = ratio
    return best


def test_estimate_holder_block_rows_equal_their_one_path_scans():
    # One block scan over rows on different grids (one step count, windows
    # from 1 down to 2^-47, rows sharing a grid) gives each row exactly its
    # one-row scan and the scalar per-offset scan, whose denominators are Python
    # float powers, and stays within rounding of the pair scan.
    beta = 0.125
    grids = [TimeGrid(2.0**-(power % 48), 96) for power in range(64)]
    paths = [generate_fbm(grid, H_QUARTER, SeedRecord(21, i)) for i, grid in enumerate(grids)]
    block = np.array([path.values for path in paths])
    estimates = estimate_holder(block, grids, beta)
    assert len(estimates) == len(paths)
    for index, (path, estimate) in enumerate(zip(paths, estimates)):
        assert [estimate] == estimate_holder(path.values[None], [path.grid], beta)
        assert estimate.grid == path.grid
        assert estimate.constant == offset_scan(path.values, path.grid, beta)
        if index % 16 == 0:
            assert estimate.constant == pytest.approx(pair_scan(path.values, path.grid, beta), rel=1e-12)
    shared = estimate_holder(block, [grids[0]] * len(block), beta)
    assert shared == [estimate_holder(row[None], [grids[0]], beta)[0] for row in block]
    assert estimate_holder(block[:0], [], beta) == []


def test_estimate_holder_block_validation():
    grid = TimeGrid(1.0, 8)
    block = np.zeros((2, 9))
    with pytest.raises(ValueError, match="need one grid per row, got 1 grids for 2 rows"):
        estimate_holder(block, [grid], 0.1)
    with pytest.raises(ValueError, match="same step count"):
        estimate_holder(block, [grid, TimeGrid(1.0, 16)], 0.1)
    with pytest.raises(ValueError, match="values must have 9 entries"):
        estimate_holder(np.zeros((2, 8)), [grid, grid], 0.1)
    with pytest.raises(ValueError, match=r"values must be a \(paths, nodes\) block, got shape \(9,\)"):
        estimate_holder(np.zeros(9), [grid], 0.1)


# ---------------------------------------------------------------------------
# nested refinement
# ---------------------------------------------------------------------------


def test_refine_fbm_is_nested_and_deterministic():
    coarse = generate_fbm(TimeGrid(1.0, 512), H_QUARTER, SeedRecord(77, 2))
    fine = refine_fbm(coarse)
    again = refine_fbm(coarse)
    assert fine.grid.step_count == 2 * coarse.grid.step_count
    assert fine.grid.horizon == coarse.grid.horizon
    assert np.array_equal(fine.values[::2], coarse.values), "even nodes must be preserved"
    assert np.array_equal(fine.values, again.values), "refinement must be deterministic"


def test_refine_fbm_fine_increment_statistics():
    # Refined paths must look like fGn at the fine resolution: variance of
    # fine increments within 5 SE of dt^{2H} across many refined paths.
    paths = 512
    grid = TimeGrid(horizon=1.0, step_count=64)
    samples = []
    for index in range(paths):
        fine = refine_fbm(generate_fbm(grid, H_QUARTER, SeedRecord(31, index)))
        samples.append(np.diff(fine.values))
    increments = np.concatenate(samples)
    dt_fine = 1.0 / 128.0
    target = dt_fine**0.5
    variance = increments.var(ddof=1)
    stderr = math.sqrt(2.0 / increments.size) * target
    z = abs(variance - target) / stderr
    print(f"fine-increment variance {variance:.6e} vs target {target:.6e} (z={z:.2f})")
    assert z < 5.0


def _first_of_pair(fine, coarse):
    """First fine increment v of each coarse pair."""

    return fine.values[1::2] - coarse.values[:-1]


@pytest.mark.parametrize("n", [16, 256, 1024])
@pytest.mark.parametrize("hurst_value", [0.05, 0.25, 0.45])
def test_refine_fbm_mean_map_matches_dense_oracle(n, hurst_value):
    # For a fixed draw, refinement is affine in the coarse increments c:
    # v = M c + r(draw).  Refinement draws from substream 1 of the path's own
    # seed, so three coarse paths under one seed record share the draw, and
    # the difference of two refinements isolates M, which must be the dense
    # conditional-mean map.
    grid = TimeGrid(horizon=1.0, step_count=n)
    hurst = HurstParam(hurst_value)
    mean_map, _ = dense_refinement_law(n, grid.horizon, hurst_value)
    shared = SeedRecord(607, 0)
    draws = [generate_fbm(grid, hurst, SeedRecord(606, index)) for index in range(3)]
    coarse = [FbmPath(grid, draw.values, hurst, shared, "circulant") for draw in draws]
    first = [_first_of_pair(refine_fbm(path), path) for path in coarse]
    worst = 0.0
    for other in (1, 2):
        direction = np.diff(coarse[other].values) - np.diff(coarse[0].values)
        gap = (first[other] - first[0]) - mean_map @ direction
        worst = max(worst, float(np.abs(gap).max()))
    print(f"n={n}, H={hurst_value}: mean map vs dense oracle, max |gap| {worst:.2e}")
    assert worst <= 1e-10


@pytest.mark.parametrize("hurst_value", [0.05, 0.45])
def test_refine_fbm_conditional_covariance_monte_carlo(hurst_value):
    # The residual v - M c must be N(0, Cond) with the dense oracle's Cond.
    # Whitened by Cond's Cholesky factor it is standard normal, so every
    # entry of its empirical covariance (SE sqrt(2/N) on the diagonal,
    # sqrt(1/N) off it) and its mean squared norm per coordinate (SE
    # sqrt(2/(nN))) must lie within 5 standard errors of the identity.
    n, draws = 16, 2048
    grid = TimeGrid(horizon=1.0, step_count=n)
    hurst = HurstParam(hurst_value)
    mean_map, conditional = dense_refinement_law(n, grid.horizon, hurst_value)
    residuals = np.empty((draws, n))
    for index in range(draws):
        coarse = generate_fbm(grid, hurst, SeedRecord(808, index))
        residuals[index] = _first_of_pair(refine_fbm(coarse), coarse) - mean_map @ np.diff(
            coarse.values
        )
    white = np.linalg.solve(np.linalg.cholesky(conditional), residuals.T).T
    cov = white.T @ white / draws
    stderr = np.where(np.eye(n, dtype=bool), math.sqrt(2.0 / draws), math.sqrt(1.0 / draws))
    z_entry = float(np.abs((cov - np.eye(n)) / stderr).max())
    z_trace = abs(float(np.trace(cov)) / n - 1.0) / math.sqrt(2.0 / (n * draws))
    print(f"H={hurst_value}: whitened residual covariance, worst entry z {z_entry:.2f}, trace z {z_trace:.2f}")
    assert z_entry < 5.0
    assert z_trace < 5.0


def test_refine_fbm_rejects_non_finite_nodes():
    coarse = generate_fbm(TimeGrid(1.0, 64), H_QUARTER, SeedRecord(77, 6))
    for bad in (math.nan, math.inf):
        values = coarse.values.copy()
        values[17] = bad
        broken = FbmPath(coarse.grid, values, coarse.hurst, coarse.seed_record, coarse.generator_tag)
        with pytest.raises(ValueError, match="(?i)inf|nan"):
            refine_fbm(broken)


def test_refine_fbm_raises_at_the_iteration_cap(monkeypatch):
    # An unconverged solve must raise, never return a biased draw.
    monkeypatch.setattr(fbm_module, "_REFINE_MAX_ITERATIONS", 1)
    coarse = generate_fbm(TimeGrid(1.0, 2**11), H_QUARTER, SeedRecord(77, 7))
    with pytest.raises(FbmGenerationError, match="did not reach relative residual"):
        refine_fbm(coarse)


def test_refine_fbm_memory_at_acceptance_grid():
    # 2^14 steps, the acceptance grid: dense conditional tables would need
    # about 20 GiB; kriging must stay in O(n) memory.
    coarse = generate_fbm(TimeGrid(1.0, 2**14), H_QUARTER, SeedRecord(77, 5))
    tracemalloc.start()
    try:
        fine = refine_fbm(coarse)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"refine_fbm at 2^14 steps: traced peak {peak / 2**20:.1f} MB")
    assert peak < 32 * 2**20
    assert fine.grid.step_count == 2**15
    assert np.array_equal(fine.values[::2], coarse.values), "even nodes must be preserved"
    assert np.array_equal(fine.values, refine_fbm(coarse).values), "refinement must be deterministic"


@settings(deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    hurst_value=st.floats(min_value=0.05, max_value=0.45),
    master_seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_refine_fbm_nesting_and_determinism_property(n, hurst_value, master_seed):
    coarse = generate_fbm(TimeGrid(1.0, n), HurstParam(hurst_value), SeedRecord(master_seed, 0))
    fine = refine_fbm(coarse)
    assert np.array_equal(fine.values[::2], coarse.values)
    assert np.array_equal(fine.values, refine_fbm(coarse).values)
