"""Solver tests: drift evaluation, exact kernel integration, the regularized
recursion against closed-form oracles, and the two-trajectory comparison
integrator with its strict ordering hypotheses.
"""

from __future__ import annotations

import numpy as np
import pytest

from singsde import (
    ComparisonHypothesisError,
    FbmPath,
    HurstParam,
    RegularizedPath,
    SdeSpec,
    SeedRecord,
    SolverError,
    TimeGrid,
    drift_eps,
    generate_fbm,
    kernel_integral,
    solve_batch,
    solve_comparison_pair,
    solve_regularized,
    zero_path,
)

from _support import closed_form

H_QUARTER = HurstParam(0.25)


def make_spec(x0=1.0, a=1.0, b=0.0, sigma=1.0) -> SdeSpec:
    return SdeSpec(x0=x0, a=a, b=b, sigma=sigma, hurst=H_QUARTER)


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


def test_solution_invariants():
    spec = make_spec(b=0.5)
    noise = generate_fbm(TimeGrid(1.0, 128), H_QUARTER, SeedRecord(4, 0))
    solution = solve_regularized(spec, 0.05, noise)
    assert solution.values[0] == spec.x0
    assert np.all(np.isfinite(solution.values))
    assert solution.epsilon == 0.05
    with pytest.raises(ValueError, match="must start at the spec's initial value"):
        RegularizedPath(spec, 0.05, noise.grid, solution.values + 1.0, noise.ref)


# ---------------------------------------------------------------------------
# drift and kernel
# ---------------------------------------------------------------------------


def test_drift_eps_pinned_values():
    spec = make_spec(a=1.0, b=1.0)
    assert drift_eps(0.5, -1.0, spec, 0.5) == pytest.approx(3.0, abs=1e-12)
    spec0 = make_spec(a=1.0, b=0.0)
    # a (t + eps)^{2H-1} / (x^+ + eps) at t=0: 0.1^{-1/2} / 1.1
    assert drift_eps(0.0, 1.0, spec0, 0.1) == pytest.approx(0.1**-0.5 / 1.1, abs=1e-12)


def test_drift_eps_monotone_in_epsilon():
    spec = make_spec(a=0.7, b=0.3)
    eps_pairs = [(0.5, 0.25), (0.2, 0.1), (0.05, 0.01)]
    for t in (0.0, 0.3, 1.7):
        for x in (-1.0, 0.0, 0.5, 2.0):
            for eps1, eps2 in eps_pairs:
                assert drift_eps(t, x, spec, eps2) > drift_eps(t, x, spec, eps1), (t, x)


def test_kernel_integral_pinned_values():
    assert kernel_integral(0.3, 0.3, 0.05, H_QUARTER) == 0.0
    assert kernel_integral(0.0, 1.0, 0.0, H_QUARTER) == pytest.approx(2.0, abs=1e-12)
    assert kernel_integral(0.0, 0.1, 0.1, H_QUARTER) == pytest.approx(0.2619716, abs=1e-7)
    with pytest.raises(ValueError, match="need 0 <= t1 <= t2"):
        kernel_integral(0.2, 0.1, 0.1, H_QUARTER)
    with pytest.raises(ValueError, match="need 0 <= t1 <= t2"):
        kernel_integral(-0.1, 0.1, 0.1, H_QUARTER)


# ---------------------------------------------------------------------------
# regularized recursion
# ---------------------------------------------------------------------------


def test_one_step_recursion_oracle():
    # One explicit step at eps=0.1, dt=0.1: X_1 = 1 + K/(1 + 0.1) = 1.2381560.
    noise = zero_path(TimeGrid(0.1, 1), H_QUARTER)
    solution = solve_regularized(make_spec(), 0.1, noise)
    assert solution.values[1] == pytest.approx(1.2381560, abs=1e-7)


def test_recursion_matches_manual_reference():
    # Eight steps against a hand-rolled recursion, with noise and damping.
    spec = make_spec(b=0.4, sigma=0.8)
    noise = generate_fbm(TimeGrid(0.5, 8), H_QUARTER, SeedRecord(21, 5))
    eps = 0.07
    solution = solve_regularized(spec, eps, noise)
    dt = noise.grid.dt
    x = spec.x0
    for k in range(8):
        kick = kernel_integral(k * dt, (k + 1) * dt, eps, H_QUARTER)
        denominator = (x if x > 0.0 else 0.0) + eps
        x = (
            x
            + spec.a * kick / denominator
            - spec.b * x * dt
            + spec.sigma * (noise.values[k + 1] - noise.values[k])
        )
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


def test_non_finite_state_aborts_with_step_index():
    spec = SdeSpec(x0=1.0, a=1.0, b=1e160, sigma=1.0, hurst=H_QUARTER)
    noise = zero_path(TimeGrid(1.0, 16), H_QUARTER)
    with pytest.raises(SolverError, match="non-finite state at step") as excinfo:
        solve_regularized(spec, 0.1, noise)
    assert excinfo.value.step_index >= 1


def test_denominator_floor_keeps_drift_finite():
    # A strong negative shock pushes the state below zero; the indicator
    # floors the denominator at eps and every value stays finite.
    spec = make_spec(b=0.0, sigma=5.0)
    noise = generate_fbm(TimeGrid(1.0, 512), H_QUARTER, SeedRecord(13, 0))
    solution = solve_regularized(spec, 1e-4, noise)
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


def test_solve_batch_validates_its_inputs():
    grid = TimeGrid(1.0, 8)
    values = np.zeros((2, 9))
    with pytest.raises(ValueError, match="every epsilon must be positive"):
        solve_batch(make_spec(), [0.1, 0.0], grid, values)
    with pytest.raises(ValueError, match="nonempty 1-D"):
        solve_batch(make_spec(), [], grid, values)
    with pytest.raises(ValueError, match=r"noise_values must have shape \(paths, 9\)"):
        solve_batch(make_spec(), [0.1], grid, np.zeros(9))


# ---------------------------------------------------------------------------
# comparison integrator
# ---------------------------------------------------------------------------


GRID_CMP = TimeGrid(1.0, 256)
ZERO_FORCING = np.zeros(257)


def test_comparison_hypotheses_are_enforced():
    # Equal state factors / equal additive parts / equal time factors violate
    # the strict hypothesis chain and must abort rather than integrate.
    g2 = lambda t: 1.2
    g1 = lambda t: 1.1
    f = lambda x: 1.0 / (abs(x) + 1.0)
    h = lambda x: -0.1 * x
    with pytest.raises(ComparisonHypothesisError, match="state-factor ordering"):
        solve_comparison_pair(1.0, g1, g2, f, f, h, h, ZERO_FORCING, GRID_CMP)
    with pytest.raises(ComparisonHypothesisError, match="time-factor ordering"):
        solve_comparison_pair(1.0, g2, g2, f, lambda x: 2.0 * f(x), h, h, ZERO_FORCING, GRID_CMP)
    with pytest.raises(ComparisonHypothesisError, match="time-factor ordering"):
        solve_comparison_pair(
            1.0, lambda t: -1.0, g2, f, lambda x: 2.0 * f(x), h, h, ZERO_FORCING, GRID_CMP
        )
    with pytest.raises(ComparisonHypothesisError, match="additive ordering"):
        solve_comparison_pair(
            1.0, g1, g2, f, lambda x: 2.0 * f(x), h, lambda x: h(x) - 1.0, ZERO_FORCING, GRID_CMP
        )


def test_strictly_smaller_drift_gives_strictly_smaller_path():
    # Intent of the "g1 = g2 - delta" example, realized with strictly ordered
    # stand-ins (the hypotheses require strict f and weak h ordering).
    g1 = lambda t: 1.0
    g2 = lambda t: 1.1
    f1 = lambda x: 1.0 / (abs(x) + 1.0)
    f2 = lambda x: 1.0000000001 / (abs(x) + 1.0)
    h = lambda x: -0.2 * x
    low, high = solve_comparison_pair(1.0, g1, g2, f1, f2, h, h, ZERO_FORCING, GRID_CMP)
    assert low[0] == high[0] == 1.0
    gap = (high - low)[1:]
    print(f"comparison gap range: [{gap.min():.3e}, {gap.max():.3e}]")
    assert np.all(gap > 0.0), "larger drift must produce a strictly larger trajectory"


def test_comparison_pair_is_deterministic():
    # Intent of the "identical right-hand sides" example: the literal equal
    # inputs violate the strict hypotheses (asserted above), so determinism is
    # checked by running the same admissible pair twice.
    g1 = lambda t: 1.0
    g2 = lambda t: 1.0 + 1e-9
    f1 = lambda x: 1.0 / (abs(x) + 1.0)
    f2 = lambda x: (1.0 + 1e-9) / (abs(x) + 1.0)
    h = lambda x: -0.2 * x
    first = solve_comparison_pair(1.0, g1, g2, f1, f2, h, h, ZERO_FORCING, GRID_CMP)
    second = solve_comparison_pair(1.0, g1, g2, f1, f2, h, h, ZERO_FORCING, GRID_CMP)
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])
    assert np.abs(first[1] - first[0]).max() < 1e-6, "near-identical inputs stay near-identical"


def test_regularized_instantiation_is_ordered():
    # The regularized drift triple (time kernel, state factor, damping) at
    # eps2 < eps1 satisfies the hypotheses; the smaller-eps path dominates.
    eps1, eps2 = 0.1, 0.05
    a, b = 1.0, 0.5
    gap_min = np.inf
    for index in range(3):
        noise = generate_fbm(GRID_CMP, H_QUARTER, SeedRecord(21, index))
        forcing = 0.3 * noise.values
        low, high = solve_comparison_pair(
            1.0,
            lambda t: (t + eps1) ** (-0.5),
            lambda t: (t + eps2) ** (-0.5),
            lambda x: a / (max(x, 0.0) + eps1),
            lambda x: a / (max(x, 0.0) + eps2),
            lambda x: -b * x,
            lambda x: -b * x,
            forcing,
            GRID_CMP,
        )
        gap_min = min(gap_min, (high - low)[1:].min())
    print(f"regularized-pair minimum ordering gap over t>0: {gap_min:.3e}")
    assert gap_min > 0.0


def test_comparison_forcing_must_start_at_zero():
    with pytest.raises(ValueError, match="forcing path must start at 0"):
        solve_comparison_pair(
            1.0,
            lambda t: 1.0,
            lambda t: 1.1,
            lambda x: 1.0,
            lambda x: 1.1,
            lambda x: 0.0,
            lambda x: 0.0,
            np.ones(257),
            GRID_CMP,
        )
