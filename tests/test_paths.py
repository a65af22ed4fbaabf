"""Excursion-structure tests: run-length decomposition above a threshold,
boundary smallness at excursion endpoints, and restart / initial-window
integral residuals against a closed-form quadrature oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from singsde import (
    EpsilonLadder,
    HurstParam,
    IntervalTooShortError,
    SdeSpec,
    SeedRecord,
    TimeGrid,
    build_families,
    build_family,
    decompose_excursions,
    generate_fbm,
    residual_window_threshold,
    restart_residual,
    verify_endpoint_limits,
    verify_initial_identity,
    zero_path,
)

from _support import closed_form, decompose_excursions_oracle

H_QUARTER = HurstParam(0.25)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_all_positive_path_is_one_interval():
    grid = TimeGrid(1.0, 100)
    excursions = decompose_excursions(np.full(101, 2.0), grid, threshold=1.0)
    assert excursions.intervals == ((0, 100),)
    assert excursions.first_interval_closed_left
    assert excursions.last_interval_truncated_right


def test_never_positive_path_has_no_intervals():
    grid = TimeGrid(1.0, 100)
    excursions = decompose_excursions(np.zeros(101), grid, threshold=0.0)
    assert excursions.intervals == ()
    assert not excursions.first_interval_closed_left
    assert not excursions.last_interval_truncated_right


def test_hand_built_runs_are_recovered():
    grid = TimeGrid(1.0, 50)
    values = np.zeros(51)
    values[10:21] = 1.0
    values[30:36] = 1.0
    excursions = decompose_excursions(values, grid, threshold=0.5)
    assert excursions.intervals == ((10, 20), (30, 35))
    assert not excursions.first_interval_closed_left
    assert not excursions.last_interval_truncated_right


def test_decomposition_input_validation():
    grid = TimeGrid(1.0, 100)
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        decompose_excursions(np.zeros(101), grid, threshold=-0.1)
    for threshold in (math.nan, math.inf):
        # A NaN threshold compares false against every node, so a path
        # positive everywhere would decompose into no excursion at all.
        with pytest.raises(ValueError, match="threshold must be nonnegative and finite"):
            decompose_excursions(np.ones(101), grid, threshold)
    with pytest.raises(ValueError, match="values must have 101 entries"):
        decompose_excursions(np.zeros(10), grid, threshold=0.0)


def test_intervals_partition_the_strictly_positive_set():
    rng = np.random.default_rng(0)
    grid = TimeGrid(1.0, 400)
    for _ in range(20):
        values = rng.normal(size=401)
        threshold = float(rng.uniform(0.0, 0.5))
        excursions = decompose_excursions(values, grid, threshold)
        covered = np.zeros(401, dtype=bool)
        for start, end in excursions.intervals:
            assert not covered[start : end + 1].any(), "intervals overlap"
            covered[start : end + 1] = True
            assert (values[start : end + 1] > threshold).all()
            # maximality: flanking nodes sit at or below the threshold
            if start > 0:
                assert values[start - 1] <= threshold
            if end < 400:
                assert values[end + 1] <= threshold
        assert np.array_equal(covered, values > threshold)


def _edge_masks(n):
    """Above-masks on n + 1 nodes that put runs against the grid's ends."""

    nodes = n + 1
    masks = {
        "nothing above": np.zeros(nodes, dtype=bool),
        "everything above": np.ones(nodes, dtype=bool),
        "alternating from node 0": np.arange(nodes) % 2 == 0,
        "alternating from node 1": np.arange(nodes) % 2 == 1,
    }
    for node in (0, n):
        single = np.zeros(nodes, dtype=bool)
        single[node] = True
        masks[f"one node at {node}"] = single
    ends = np.zeros(nodes, dtype=bool)
    ends[[0, n]] = True
    masks["one node at each end"] = ends
    return masks


@pytest.mark.parametrize("n", [1, 2, 7, 400])
def test_decomposition_equals_the_node_by_node_oracle(n):
    # Edge masks and random masks of every density, as values above or at
    # the threshold: the vectorized run edges give the oracle's set, flags
    # and all.
    grid = TimeGrid(1.0, n)
    threshold = 0.25
    masks = list(_edge_masks(n).values())
    rng = np.random.default_rng(n)
    masks += [rng.random(n + 1) < density for density in (0.05, 0.5, 0.95) for _ in range(10)]
    for mask in masks:
        values = np.where(mask, threshold + rng.random(n + 1), threshold - rng.random(n + 1))
        values[(rng.random(n + 1) < 0.1) & ~mask] = threshold  # at the threshold is not above
        assert decompose_excursions(values, grid, threshold) == decompose_excursions_oracle(
            values, threshold
        )
    excursions = decompose_excursions(np.arange(n + 1) % 2 == 0, grid, 0.0)
    assert excursions.intervals == tuple((node, node) for node in range(0, n + 1, 2))
    assert excursions.first_interval_closed_left
    assert excursions.last_interval_truncated_right == (n % 2 == 0)


# ---------------------------------------------------------------------------
# endpoint smallness
# ---------------------------------------------------------------------------


def test_endpoint_limits_dip_to_zero_passes():
    grid = TimeGrid(1.0, 40)
    values = np.ones(41)
    values[20] = 0.0
    excursions = decompose_excursions(values, grid, threshold=0.0)
    assert excursions.intervals == ((0, 19), (21, 40))
    checks = verify_endpoint_limits(values, excursions, tol=0.0)
    assert [c.passes for c in checks] == [True, True]
    assert checks[0].left_endpoint_value is None
    assert checks[0].right_endpoint_value == 0.0
    assert checks[1].left_endpoint_value == 0.0
    assert checks[1].right_endpoint_value is None


def test_endpoint_limits_flags_large_boundary_value():
    grid = TimeGrid(1.0, 5)
    values = np.array([0.0, 0.4, 1.0, 1.0, 0.4, 0.0])
    excursions = decompose_excursions(values, grid, threshold=0.5)
    assert excursions.intervals == ((2, 3),)
    bad = verify_endpoint_limits(values, excursions, tol=0.1)
    assert not bad[0].passes
    good = verify_endpoint_limits(values, excursions, tol=0.4)
    assert good[0].passes


def test_endpoint_limits_on_campaign_paths():
    # Mirrors the campaign check: decompose the limit estimate at the
    # nonnegativity budget and require boundary smallness at that same tol.
    grid = TimeGrid(1.0, 2048)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=2.0**-0.5, hurst=H_QUARTER)
    windows = 0
    for index in range(4):
        noise = generate_fbm(grid, H_QUARTER, SeedRecord(77, index))
        family = build_family(spec, noise, EpsilonLadder(0.1, 0.3, 8))
        threshold = residual_window_threshold(family)
        assert threshold == family.cauchy_gap + 1e-6
        excursions = decompose_excursions(family.limit_estimate, family.grid, threshold)
        checks = verify_endpoint_limits(family.limit_estimate, excursions, tol=threshold)
        failing = [c.interval_index for c in checks if not c.passes]
        assert not failing, f"path {index}: boundary check fails on intervals {failing}"
        windows += len(checks)
    print(f"endpoint limits over 4 paths: {windows} excursions, all boundaries small")


# ---------------------------------------------------------------------------
# restart residuals
# ---------------------------------------------------------------------------


def zero_noise_fixture(steps: int):
    grid = TimeGrid(0.5, steps)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.0, sigma=1.0, hurst=H_QUARTER)
    noise = zero_path(grid, H_QUARTER)
    values = closed_form(grid.nodes(), 1.0, 1.0, 0.25)
    excursions = decompose_excursions(values, grid, threshold=0.0)
    return grid, spec, noise, values, excursions


def test_restart_residual_validation():
    _, spec, noise, values, excursions = zero_noise_fixture(512)
    with pytest.raises(ValueError, match="margin_steps must be positive"):
        restart_residual(values, noise, spec, *excursions.intervals[0], margin_steps=0)
    with pytest.raises(IntervalTooShortError, match="nodes 100..101 leaves no interior window"):
        restart_residual(values, noise, spec, 100, 101, margin_steps=1)
    # Node ranges arrive as raw indices: an end past the grid would silently
    # shorten the window instead of failing.
    with pytest.raises(ValueError, match="interval nodes 0..600 fall outside 0..512"):
        restart_residual(values, noise, spec, 0, 600, margin_steps=1)
    with pytest.raises(ValueError, match="values must have 513 entries"):
        restart_residual(values[:-1], noise, spec, 0, 511, margin_steps=1)


def test_restart_profile_is_anchored_at_zero():
    _, spec, noise, values, excursions = zero_noise_fixture(512)
    result = restart_residual(values, noise, spec, *excursions.intervals[0], margin_steps=1)
    assert result.profile[0] == 0.0
    assert result.anchor_index == 1
    assert result.window_end_index == 511
    assert result.sup_residual <= 2e-3


def test_restart_quadrature_error_shrinks_with_the_grid():
    # The exact trajectory sqrt(1 + 4 sqrt(t)) satisfies the continuum
    # identity identically, so the restarted residual is pure quadrature
    # error of the right-frozen singular integral and must shrink as the
    # grid refines.
    frozen = {1024: 8.953e-4, 2048: 5.233e-4, 4096: 3.007e-4}
    sups = []
    for steps, expected in frozen.items():
        _, spec, noise, values, excursions = zero_noise_fixture(steps)
        result = restart_residual(values, noise, spec, *excursions.intervals[0], margin_steps=1)
        sups.append(result.sup_residual)
        assert result.sup_residual <= 1.2 * expected
    print("restart residual sups over n=1024/2048/4096:", [f"{s:.3e}" for s in sups])
    assert sups[2] < sups[1] < sups[0]


def test_initial_identity_deterministic():
    grid = TimeGrid(0.5, 2048)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.0, sigma=1.0, hurst=H_QUARTER)
    family = build_family(spec, zero_path(grid, H_QUARTER), EpsilonLadder(0.1, 0.3, 8))
    result = verify_initial_identity(family)
    print(
        f"initial identity (zero noise): residual {result.sup_residual:.3e} "
        f"budget {result.budget:.3e} on nodes 0..{result.window_end_index}"
    )
    assert result.passes
    assert result.window_end_index == 2043  # no crossing: full grid minus margin
    assert result.sup_residual <= result.budget


def test_initial_identity_needs_the_limit_row():
    grid = TimeGrid(0.5, 256)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.0, sigma=1.0, hurst=H_QUARTER)
    (family,) = build_families(
        spec, [zero_path(grid, H_QUARTER)], EpsilonLadder(0.1, 0.3, 4), keep="none"
    )
    with pytest.raises(ValueError, match=r"keeps no limit row \(keep='none'\)"):
        verify_initial_identity(family)


def test_initial_identity_on_stochastic_paths():
    grid = TimeGrid(1.0, 2048)
    spec = SdeSpec(x0=0.5, a=1.5, b=0.5, sigma=1.0, hurst=H_QUARTER)
    for index in range(3):
        noise = generate_fbm(grid, H_QUARTER, SeedRecord(99, index))
        family = build_family(spec, noise, EpsilonLadder(0.1, 0.4, 8))
        result = verify_initial_identity(family)
        assert result.passes, (
            f"path {index}: residual {result.sup_residual:.3e} vs budget {result.budget:.3e}"
        )
