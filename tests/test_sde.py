"""Solver tests: exact kernel integration, the regularized drift-implicit
recursion against closed-form oracles, its batched form, and the
monotonicity of its step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singsde import (
    FbmPath,
    HurstParam,
    RegularizedPath,
    SdeSpec,
    SeedRecord,
    SolverError,
    TimeGrid,
    generate_fbm,
    EpsilonLadder,
    kernel_column,
    solve_regularized,
    zero_path,
)

from singsde.sde import _drift_table, _integrate_batch

from _support import closed_form, solve_batch

H_QUARTER = HurstParam(0.25)


def make_spec(x0=1.0, a=1.0, b=0.0, sigma=1.0) -> SdeSpec:
    return SdeSpec(x0=x0, a=a, b=b, sigma=sigma, hurst=H_QUARTER)


def exact_kernel(t1: float, t2: float, epsilon: float) -> float:
    """((t2 + eps)^{2H} - (t1 + eps)^{2H}) / (2H) at H = 1/4, written out."""

    return ((t2 + epsilon) ** 0.5 - (t1 + epsilon) ** 0.5) / 0.5


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


def test_spec_field_domains():
    with pytest.raises(ValueError, match="x0 must be positive"):
        make_spec(x0=0.0)
    with pytest.raises(ValueError, match="a must be positive"):
        make_spec(a=-1.0)
    with pytest.raises(ValueError, match="b must be nonnegative"):
        make_spec(b=-0.1)
    with pytest.raises(ValueError, match="sigma must be positive"):
        make_spec(sigma=0.0)
    # a bare float would fail later, deep in the solver, on hurst.value
    with pytest.raises(ValueError, match="hurst must be a HurstParam, got 0.25"):
        SdeSpec(x0=1.0, a=1.0, b=0.0, sigma=1.0, hurst=0.25)


def test_solution_invariants():
    spec = make_spec(b=0.5)
    noise = generate_fbm(TimeGrid(1.0, 128), H_QUARTER, SeedRecord(4, 0))
    solution = solve_regularized(spec, 0.05, noise)
    assert solution.values[0] == spec.x0
    assert np.all(np.isfinite(solution.values))
    assert solution.epsilon == 0.05
    assert solution.noise is noise
    with pytest.raises(ValueError, match="must start at the spec's initial value"):
        RegularizedPath(spec, 0.05, noise, solution.values + 1.0)


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_integral_pinned_values():
    # K(t_k, t_{k+1}, eps) per grid step.  A grid has no empty step, so the
    # zero pin is additivity: three steps of [0, 0.3] sum to the one-step
    # column.  Then the whole unit interval unregularized, and [0, 0.1] at
    # eps = 0.1.
    split = kernel_column(TimeGrid(0.3, 3), 0.05, H_QUARTER).sum()
    whole = kernel_column(TimeGrid(0.3, 1), 0.05, H_QUARTER)[0]
    assert split - whole == pytest.approx(0.0, abs=1e-15)
    assert kernel_column(TimeGrid(1.0, 1), 0.0, H_QUARTER)[0] == pytest.approx(2.0, abs=1e-12)
    assert kernel_column(TimeGrid(0.1, 1), 0.1, H_QUARTER)[0] == pytest.approx(
        0.2619716, abs=1e-7
    )
    with pytest.raises(ValueError, match="epsilon must be nonnegative"):
        kernel_column(TimeGrid(1.0, 4), -0.1, H_QUARTER)


# ---------------------------------------------------------------------------
# regularized recursion
# ---------------------------------------------------------------------------


def test_one_step_recursion_oracle():
    # One drift-implicit step at eps=0.1, dt=0.1 from x0=1 without noise:
    # X_1 solves z - K/(z + 0.1) = 1, K = K(0, 0.1, 0.1) = 0.2619716, so
    # X_1 = (0.9 + sqrt(0.81 + 4 (0.1 + K))) / 2 = 1.2013133.
    noise = zero_path(TimeGrid(0.1, 1), H_QUARTER)
    solution = solve_regularized(make_spec(), 0.1, noise)
    assert solution.values[1] == pytest.approx(1.2013133, abs=1e-7)


def bisect_root(f, low, high):
    """Root of a nondecreasing f with f(low) <= 0 <= f(high), to the last bit."""

    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return mid
        if f(mid) < 0.0:
            low = mid
        else:
            high = mid


def test_recursion_matches_manual_reference():
    # Eight steps against a hand-rolled recursion, with noise and damping:
    # each step solves z = y + c / (max(z, 0) + eps) by bisection on
    # [y, y + c/eps], where the residual changes sign.
    spec = make_spec(b=0.4, sigma=0.8)
    noise = generate_fbm(TimeGrid(0.5, 8), H_QUARTER, SeedRecord(21, 5))
    eps = 0.07
    solution = solve_regularized(spec, eps, noise)
    dt = noise.grid.dt
    x = spec.x0
    for k in range(8):
        c = spec.a * exact_kernel(k * dt, (k + 1) * dt, eps)
        y = x - spec.b * x * dt + spec.sigma * (noise.values[k + 1] - noise.values[k])
        x = bisect_root(lambda z: z - y - c / ((z if z > 0.0 else 0.0) + eps), y, y + c / eps)
        assert solution.values[k + 1] == pytest.approx(x, abs=1e-14)


def test_deterministic_oracle_at_half():
    # eps=1e-6, n=2^14, T=0.5: X(0.5) = 1.9566360 +/- 2e-3.
    noise = zero_path(TimeGrid(0.5, 2**14), H_QUARTER)
    solution = solve_regularized(make_spec(), 1e-6, noise)
    target = closed_form(0.5, 1.0, 1.0, 0.25)
    print(f"deterministic X(0.5) = {solution.values[-1]:.7f} vs oracle {target:.7f}")
    assert solution.values[-1] == pytest.approx(1.9566360, abs=2e-3)
    assert solution.values[-1] == pytest.approx(target, abs=2e-3)


def test_vanishing_singular_term_gives_exponential_decay():
    # a -> 0 with b = 1 reduces to x' = -x; compare against e^{-t} at n=2^12.
    spec = SdeSpec(x0=1.0, a=1e-12, b=1.0, sigma=1.0, hurst=H_QUARTER)
    noise = zero_path(TimeGrid(1.0, 2**12), H_QUARTER)
    solution = solve_regularized(spec, 1e-6, noise)
    target = np.exp(-noise.grid.nodes())
    worst = np.abs(solution.values - target).max()
    print(f"exponential-decay oracle worst error {worst:.2e}")
    assert worst <= 1e-3


def test_deterministic_convergence_is_monotone():
    # Error against the closed form at T=0.5 decreases at every doubling of n
    # (eps=1e-8 keeps the regularization bias below discretization error).
    errors = []
    for power in range(10, 15):
        noise = zero_path(TimeGrid(0.5, 2**power), H_QUARTER)
        solution = solve_regularized(make_spec(), 1e-8, noise)
        errors.append(abs(solution.values[-1] - closed_form(0.5, 1.0, 1.0, 0.25)))
    print("solver errors over n=2^10..2^14:", [f"{e:.2e}" for e in errors])
    assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))


def test_solver_is_deterministic_and_checks_hurst():
    spec = make_spec(b=0.5)
    noise = generate_fbm(TimeGrid(1.0, 256), H_QUARTER, SeedRecord(8, 1))
    first = solve_regularized(spec, 0.02, noise)
    second = solve_regularized(spec, 0.02, noise)
    assert np.array_equal(first.values, second.values)

    mismatched = generate_fbm(TimeGrid(1.0, 256), HurstParam(0.3), SeedRecord(8, 1))
    with pytest.raises(ValueError, match="noise roughness 0.3 differs"):
        solve_regularized(spec, 0.02, mismatched)
    for epsilon in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            solve_regularized(spec, epsilon, noise)


def test_non_finite_state_aborts_with_step_index():
    spec = SdeSpec(x0=1.0, a=1.0, b=1e160, sigma=1.0, hurst=H_QUARTER)
    noise = zero_path(TimeGrid(1.0, 16), H_QUARTER)
    with pytest.raises(SolverError, match="non-finite state at step") as excinfo:
        solve_regularized(spec, 0.1, noise)
    assert excinfo.value.step_index >= 1


def test_denominator_floor_keeps_drift_finite():
    # A strong negative shock pushes the state below zero; the indicator
    # floors the denominator at eps and every value stays finite.  (At eps =
    # 1e-4 the implicit step's kick keeps this path positive; at 1e-2 it
    # reaches -1.44.)
    spec = make_spec(b=0.0, sigma=5.0)
    noise = generate_fbm(TimeGrid(1.0, 512), H_QUARTER, SeedRecord(13, 0))
    solution = solve_regularized(spec, 1e-2, noise)
    assert np.all(np.isfinite(solution.values))
    assert solution.values.min() < 0.0, "fixture should actually cross zero"


def test_solve_batch_is_bit_identical_to_scalar_solver():
    # Paths x levels at once: a zero-crossing path, ordinary paths, and a path
    # with an infinite increment, which the batch leaves non-finite from the
    # step where the scalar solver aborts.
    spec = make_spec(b=0.5, sigma=5.0)
    grid = TimeGrid(1.0, 512)
    noises = [generate_fbm(grid, H_QUARTER, SeedRecord(13, index)) for index in range(4)]
    broken = noises[2].values.copy()
    broken[100] = np.inf
    noises[2] = FbmPath(grid, broken, H_QUARTER, SeedRecord(13, 2), "circulant")
    levels = [0.1, 1e-2, 1e-4]
    batch = solve_batch(spec, levels, grid, np.array([noise.values for noise in noises]))
    assert batch.shape == (4, 3, 513)
    for path, noise in enumerate(noises):
        for level, epsilon in enumerate(levels):
            if path == 2:
                with pytest.raises(SolverError, match="non-finite state at step 100") as excinfo:
                    solve_regularized(spec, epsilon, noise)
                step = excinfo.value.step_index
                assert np.isfinite(batch[path, level, :step]).all()
                assert not np.isfinite(batch[path, level, step])
            else:
                expected = solve_regularized(spec, epsilon, noise).values
                assert np.array_equal(batch[path, level], expected), (path, level)
    assert batch[0].min() < 0.0, "fixture should cross zero"


@pytest.mark.parametrize("hurst", [0.05, 0.25, 0.45])
def test_drift_table_is_the_kernel_column_of_each_level(hurst):
    # One power of the (levels, nodes) shifted nodes gives, level by level,
    # exactly a * kernel_column: on the ladder-14 grid with the campaign's
    # ladder and eps-continuity levels, and on 256-step windows of 2^-33 ..
    # 2^-1 with a 34-level window ladder.
    spec = SdeSpec(x0=1.0, a=1.5, b=0.5, sigma=1.0, hurst=HurstParam(hurst))
    probe = [0.05, 0.075, 0.025, 0.0625, 0.0375, 0.05625, 0.04375]
    cases = [(TimeGrid(1.0, 2**14), np.concatenate([EpsilonLadder(0.1, 0.5, 10).levels(), probe]))]
    cases += [(TimeGrid(2.0**-k, 256), EpsilonLadder(0.1, 0.4, 33).levels()) for k in range(1, 34)]
    for grid, levels in cases:
        table = _drift_table(spec, levels, grid)
        assert table.shape == (grid.step_count, levels.size)
        for level, epsilon in enumerate(levels):
            expected = spec.a * kernel_column(grid, float(epsilon), spec.hurst)
            assert np.array_equal(table[:, level], expected), (grid, level)


def test_batched_rows_on_different_grids_match_the_scalar_solver():
    # One step loop over three grids with one step count, each with its own
    # levels and so its own b dt and drift table: every row and level equals
    # solve_regularized on the row's own grid, bit for bit.
    spec = make_spec(b=0.5, sigma=1.0)
    grids = [TimeGrid(1.0, 64), TimeGrid(2.0**-10, 64), TimeGrid(3.0, 64)]
    level_sets = [np.array([0.1, 0.1, 0.05, 0.025]), np.array([1e-3, 1e-4, 1e-5, 1e-6]),
                  np.array([0.2, 0.02, 0.002, 0.0002])]
    rows = [2, 1, 3]
    noises = [
        generate_fbm(grid, H_QUARTER, SeedRecord(17, 10 * group + index))
        for group, (grid, count) in enumerate(zip(grids, rows))
        for index in range(count)
    ]
    groups = [
        (grid, levels, _drift_table(spec, levels, grid), count)
        for grid, levels, count in zip(grids, level_sets, rows)
    ]
    solved = np.empty((65, 4, len(noises)))
    solved[0] = spec.x0
    for first, values in _integrate_batch(spec, groups, [noise.values for noise in noises]):
        solved[first : first + len(values)] = values
    owners = [group for group, count in enumerate(rows) for _ in range(count)]
    for row, (noise, group) in enumerate(zip(noises, owners)):
        for level, epsilon in enumerate(level_sets[group]):
            expected = solve_regularized(spec, float(epsilon), noise).values
            assert np.array_equal(solved[:, level, row], expected), (row, level)


def test_solve_batch_validates_its_inputs():
    grid = TimeGrid(1.0, 8)
    values = np.zeros((2, 9))
    with pytest.raises(ValueError, match="every epsilon must be positive"):
        solve_batch(make_spec(), [0.1, 0.0], grid, values)
    with pytest.raises(ValueError, match="every epsilon must be positive and finite"):
        solve_batch(make_spec(), [0.1, np.inf], grid, values)
    with pytest.raises(ValueError, match="nonempty 1-D"):
        solve_batch(make_spec(), [], grid, values)
    with pytest.raises(ValueError, match=r"noise_values must have shape \(paths, 9\)"):
        solve_batch(make_spec(), [0.1], grid, np.zeros(9))


def assert_step_claims(spec: SdeSpec, levels: np.ndarray, horizon: float, y: np.ndarray):
    """One step of ``solve_batch`` from x0 under pushes that land on the sorted ``y``.

    The unit-level form of the shared-noise ordering.  With y = (1 - b dt) x0
    + sigma dB and c = a K(0, dt, eps), the branch switch is at y = -c/eps.
    X_1 must not decrease in y, rise with slope at most 1, vanish at the
    switch (|X_1| <= |y + c/eps|, so the two branches meet continuously), and
    not decrease as eps shrinks (``levels`` run from shallow to deep).  The
    allowance is 4 ulps of the inputs' magnitude: near the switch X_1 is a
    difference of two numbers of the size of y, and far above it two levels
    can round y plus their tiny drifts one ulp apart.  Returns the pushes,
    the noise rows and X_1, shape (len(y), len(levels)).
    """

    grid = TimeGrid(horizon, 1)
    kicks = spec.a * np.array([exact_kernel(0.0, horizon, e) for e in levels])
    switch = -kicks / levels
    base = (1.0 - spec.b * grid.dt) * spec.x0
    pushes = (y - base) / spec.sigma
    y = base + spec.sigma * pushes
    noise_values = np.column_stack([np.zeros_like(pushes), pushes])
    step = solve_batch(spec, levels, grid, noise_values)[:, :, 1]

    rise = np.diff(step, axis=0)
    allowance = 4.0 * np.spacing(np.maximum(np.maximum(np.abs(y[:-1]), np.abs(y[1:])), 1.0))
    assert (rise >= -allowance[:, None]).all(), f"step decreases in y (horizon {horizon})"
    assert (rise <= np.diff(y)[:, None] + allowance[:, None]).all(), f"slope above 1 ({horizon})"
    distance = np.abs(y[:, None] - switch[None, :])
    magnitude = np.maximum(np.abs(y)[:, None], np.abs(switch)[None, :])
    kink_allowance = 4.0 * np.spacing(np.maximum(magnitude, 1.0))
    assert (np.abs(step) <= distance + kink_allowance).all(), f"gap at the switch ({horizon})"
    level_allowance = 4.0 * np.spacing(np.maximum(np.abs(y), 1.0))
    deepening = np.diff(step, axis=1)
    assert (deepening >= -level_allowance[:, None]).all(), f"step decreases as eps shrinks ({horizon})"
    return pushes, noise_values, step


def test_step_is_monotone_in_state_and_level_and_continuous_at_the_kink():
    # A dense sweep of y, also around each level's switch, through
    # solve_batch; every 41st point also through solve_regularized.
    spec = make_spec(b=0.5, sigma=1.0)
    levels = np.array([0.1, 1e-2, 1e-4, 1e-8])
    for horizon in (1e-4, 1e-2, 0.5):
        kicks = spec.a * np.array([exact_kernel(0.0, horizon, e) for e in levels])
        sweeps = [np.linspace(-3.0, 3.0, 601)]
        for point in -kicks / levels:
            scale = max(1.0, abs(point))
            sweeps.append(point + np.linspace(-1e-3, 1e-3, 201) * scale)
            sweeps.append(point + np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9]) * scale)
        pushes, noise_values, step = assert_step_claims(
            spec, levels, horizon, np.unique(np.concatenate(sweeps))
        )
        # on this sweep the level ordering holds exactly, with no allowance
        assert (np.diff(step, axis=1) >= 0.0).all(), f"step decreases as eps shrinks ({horizon})"

        grid = TimeGrid(horizon, 1)
        for index in range(0, pushes.size, 41):
            noise = FbmPath(grid, noise_values[index], H_QUARTER, SeedRecord(0, index), "circulant")
            for level, epsilon in enumerate(levels):
                scalar = solve_regularized(spec, float(epsilon), noise).values[1]
                assert scalar == step[index, level], (horizon, index, epsilon)


@settings(deadline=None)
@given(
    horizon=st.floats(min_value=1e-6, max_value=1.0),
    levels=st.lists(st.floats(min_value=1e-10, max_value=1.0), min_size=2, max_size=2),
    anchor=st.sampled_from([None, 0, 1]),
    offsets=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=8),
)
def test_step_claims_property(horizon, levels, anchor, offsets):
    # The sweep's claims at drawn states: offsets from 0, or relative offsets
    # from one level's switch, which is where the branches meet.
    spec = make_spec(b=0.5, sigma=1.0)
    levels = np.array(sorted(levels, reverse=True))
    offsets = np.array(offsets)
    if anchor is None:
        y = offsets
    else:
        point = -spec.a * exact_kernel(0.0, horizon, levels[anchor]) / levels[anchor]
        y = point + offsets * max(1.0, abs(point))
    assert_step_claims(spec, levels, horizon, np.unique(y))
