"""Acceptance gate: one test per shipping criterion, each printing a single
PASS/FAIL line with its measured margin and pinned tolerance.

The criteria cover: statistical validity of the noise generators, solver
convergence to the closed-form oracle, the four structural ladder properties
(shared-noise ordering, uniform upper bound, nonpositive-measure decay, limit
nonnegativity) on one frozen 100-path campaign, compensator nonnegativity,
the certified local contraction, continuity in the regularization level,
excursion restart identities through the campaign runner, and byte-level
report determinism.

The shared 100-path campaign runs the equation at sigma = 1 on a 2^14-step
grid; the ordering criterion is asserted exactly as stated (zero violations
beyond the rounding tolerance, and exact nesting of the nonpositive sets).
It holds because the solver steps the singular drift implicitly: the step is
nondecreasing in the state and in 1/eps, so levels that share noise keep
their order at every step whenever b dt < 1.  An explicit step is not
monotone in the state just above zero and breaks the ordering on 17 of these
100 paths, by up to 0.50.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from singsde import (
    EpsilonLadder,
    HolderEstimate,
    HurstParam,
    LocalProblem,
    SdeSpec,
    SeedRecord,
    TimeGrid,
    build_family,
    compensator_budget,
    compute_compensator,
    contraction_modulus,
    generate_fbm,
    picard_solve,
    read_csv_with_meta,
    run_campaign,
    select_delta,
    solve_regularized,
    verify_eps_continuity,
    verify_limit_nonnegativity,
    verify_measure_decay,
    verify_nested_zero_sets,
    verify_upper_bound,
    zero_path,
    config_from_dict,
)

from _support import canonical_report, closed_form, lag_autocov_zscores, seeded_families

H_QUARTER = HurstParam(0.25)


def acceptance_line(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {verdict} — {detail}")


# ---------------------------------------------------------------------------
# 1: noise generator statistical validity
# ---------------------------------------------------------------------------


def test_acceptance_1_noise_covariance():
    worst = 0.0
    for hurst_value in (0.1, 0.25, 0.4):
        z = lag_autocov_zscores(hurst_value, n=1024, path_count=4096, master_seed=12345)
        worst = max(worst, float(np.abs(z).max()))
    passed = worst < 4.0
    acceptance_line(
        1, "noise-covariance",
        passed,
        f"worst |z| {worst:.2f} over lags 0..10 at H in {{0.1, 0.25, 0.4}} (tolerance 4.0)",
    )
    assert passed


# ---------------------------------------------------------------------------
# 2: solver convergence to the closed-form oracle
# ---------------------------------------------------------------------------


def test_acceptance_2_solver_convergence():
    oracle_t = 0.5
    target = closed_form(oracle_t, 1.0, 1.0, 0.25)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.0, sigma=1.0, hurst=H_QUARTER)
    ladder_errors = []
    for power in range(10, 15):
        grid = TimeGrid(oracle_t, 2**power)
        solution = solve_regularized(spec, 1e-8, zero_path(grid, H_QUARTER))
        ladder_errors.append(abs(float(solution.values[-1]) - target))
    ladder_monotone = all(b < a for a, b in zip(ladder_errors[:-1], ladder_errors[1:]))

    picard_errors = []
    for power in range(10, 15):
        grid = TimeGrid(2.0**-7, 2**power)
        problem = LocalProblem(
            spec, zero_path(grid, H_QUARTER), HolderEstimate(exponent=0.125, constant=0.0, grid=grid)
        )
        result = picard_solve(problem, select_delta([problem])[0], 1e-10)
        picard_errors.append(float(np.abs(result.values - closed_form(grid.nodes(), 1.0, 1.0, 0.25)).max()))
    picard_monotone = all(b < a for a, b in zip(picard_errors[:-1], picard_errors[1:]))

    passed = ladder_monotone and ladder_errors[-1] <= 1e-3 and picard_monotone and picard_errors[-1] <= 1e-4
    acceptance_line(
        2, "solver-convergence",
        passed,
        f"regularized terminal error {ladder_errors[-1]:.2e} (tol 1e-3, monotone={ladder_monotone}); "
        f"fixed-point sup error {picard_errors[-1]:.2e} (tol 1e-4, monotone={picard_monotone})",
    )
    assert passed


# ---------------------------------------------------------------------------
# shared 100-path campaign for criteria 3-6
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def shared_campaign():
    """Per-path aggregates of the frozen sigma=1 campaign (master 12345)."""

    spec = SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=1.0, hurst=H_QUARTER)
    grid = TimeGrid(1.0, 2**14)
    ladder = EpsilonLadder(0.1, 0.5, 10)
    stats = []
    for family in seeded_families(spec, grid, 12345, 100, ladder):
        bound = verify_upper_bound(family)
        decay = verify_measure_decay(family)
        nested, _ = verify_nested_zero_sets(family)
        nonneg = verify_limit_nonnegativity(family)
        stats.append(
            {
                "mono_violations": family.mono_violation_count,
                "mono_worst": family.mono_worst_deficit,
                "nested": nested,
                "bound_constant": bound.constant,
                "bound_violation": bound.max_violation,
                "measure_first": decay.per_level[0],
                "measure_last": decay.per_level[-1],
                "measure_monotone": decay.nonincreasing,
                "limit_margin": nonneg.worst_value + family.cauchy_gap,
                "nonneg_passes": nonneg.passes,
            }
        )
    return stats


def test_acceptance_3_shared_noise_ordering():
    stats = shared_campaign()
    bad_paths = [k for k, s in enumerate(stats) if s["mono_violations"] > 0 or not s["nested"]]
    worst = max(s["mono_worst"] for s in stats)
    passed = not bad_paths
    acceptance_line(
        3, "shared-noise-ordering",
        passed,
        f"{len(bad_paths)} of 100 paths break monotone ordering / set nesting "
        f"(worst deficit {worst:.2e}); required: 0",
    )
    assert passed, f"ordering is violated at sigma=1 on this grid (paths {bad_paths})"


def test_acceptance_4_uniform_upper_bound():
    stats = shared_campaign()
    violations = [s["bound_violation"] for s in stats]
    constant = stats[0]["bound_constant"]
    passed = constant == pytest.approx(5.0, abs=1e-12) and max(violations) <= 1e-9
    acceptance_line(
        4, "uniform-upper-bound",
        passed,
        f"deterministic constant {constant} (expected 5.0); worst excess over "
        f"all levels/nodes/paths {max(violations):.2e} (tol 1e-9)",
    )
    assert passed


def test_acceptance_5_measure_decay():
    stats = shared_campaign()
    non_monotone = [k for k, s in enumerate(stats) if not s["measure_monotone"]]
    mean_first = float(np.mean([s["measure_first"] for s in stats]))
    mean_last = float(np.mean([s["measure_last"] for s in stats]))
    passed = not non_monotone and mean_first > 0.0 and mean_last < mean_first
    acceptance_line(
        5, "nonpositive-measure-decay",
        passed,
        f"{len(non_monotone)} of 100 paths non-monotone; mean measure "
        f"{mean_first:.4e} (level 0) -> {mean_last:.4e} (deepest)",
    )
    assert passed


def test_acceptance_6_limit_nonnegativity():
    stats = shared_campaign()
    failing = [k for k, s in enumerate(stats) if not s["nonneg_passes"]]
    worst_margin = min(s["limit_margin"] for s in stats)
    passed = not failing
    acceptance_line(
        6, "limit-nonnegativity",
        passed,
        f"{len(failing)} of 100 paths dip below -(cauchy_gap + 1e-9); "
        f"tightest margin min(limit)+gap = {worst_margin:.2e}",
    )
    assert passed


# ---------------------------------------------------------------------------
# 7: compensator nonnegativity
# ---------------------------------------------------------------------------


def test_acceptance_7_compensator():
    # Deterministic pin: under zero noise with b=0 the correction process is
    # identically 0 up to quadrature error.
    grid = TimeGrid(0.5, 4096)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.0, sigma=1.0, hurst=H_QUARTER)
    family = build_family(spec, zero_path(grid, H_QUARTER), EpsilonLadder(0.1, 0.3, 8))
    estimate = compute_compensator(family)
    budget = compensator_budget(family, estimate)
    deterministic_ok = (
        estimate.values[0] == 0.0 and float(np.abs(estimate.values).max()) <= budget
    )

    stochastic_spec = SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=2.0**-0.5, hurst=H_QUARTER)
    mc_grid = TimeGrid(1.0, 4096)
    failing: list[int] = []
    worst = -np.inf
    mc_ladder = EpsilonLadder(0.1, 0.3, 8)
    for index, mc_family in enumerate(
        seeded_families(stochastic_spec, mc_grid, 12345, 100, mc_ladder)
    ):
        mc_estimate = compute_compensator(mc_family)
        mc_budget = compensator_budget(mc_family, mc_estimate)
        violation = float(-mc_estimate.values.min()) - mc_budget
        worst = max(worst, violation)
        if violation > 0.0:
            failing.append(index)
    passed = deterministic_ok and len(failing) <= 5
    acceptance_line(
        7, "compensator-nonnegativity",
        passed,
        f"zero-noise max |correction| within budget: {deterministic_ok}; "
        f"{len(failing)} of 100 paths exceed the negativity budget "
        f"(allowance 5, worst excess {worst:.2e})",
    )
    assert passed, f"failing paths: {failing}"


# ---------------------------------------------------------------------------
# 8: certified local contraction
# ---------------------------------------------------------------------------


def test_acceptance_8_local_contraction():
    grid = TimeGrid(2.0**-7, 4096)
    problem = LocalProblem(
        SdeSpec(x0=1.0, a=1.0, b=0.0, sigma=1.0, hurst=H_QUARTER),
        zero_path(grid, H_QUARTER),
        HolderEstimate(exponent=0.125, constant=0.0, grid=grid),
    )
    modulus_ok = abs(contraction_modulus(0.01, problem) - 0.8) <= 1e-12
    (certificate,) = select_delta([problem])
    result = picard_solve(problem, certificate, 1e-10)
    ratios = [row[2] for row in result.log if np.isfinite(row[2])]
    ratios_ok = bool(ratios) and max(ratios) <= certificate.modulus + 0.05
    converged_ok = result.final_distance <= 1e-10 and result.iterations <= result.iteration_cap
    passed = modulus_ok and ratios_ok and converged_ok
    acceptance_line(
        8, "local-contraction",
        passed,
        f"q(0.01) = {contraction_modulus(0.01, problem):.12f} (expected 0.8); measured "
        f"ratio max {max(ratios):.3f} vs certified {certificate.modulus:.4f}+0.05; "
        f"converged to 1e-10 in {result.iterations} of {result.iteration_cap} allowed iterations",
    )
    assert passed


# ---------------------------------------------------------------------------
# 9: continuity in the regularization level
# ---------------------------------------------------------------------------


def test_acceptance_9_regularization_continuity():
    spec = SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=2.0**-0.5, hurst=H_QUARTER)
    grid = TimeGrid(1.0, 4096)
    offsets = [0.025, 0.0125, 0.00625]
    noises = np.array(
        [generate_fbm(grid, H_QUARTER, SeedRecord(777, index)).values for index in range(50)]
    )
    results = verify_eps_continuity(spec, grid, noises, 0.05, offsets)
    failing: list[int] = []
    min_ratio = np.inf
    for index, result in enumerate(results):
        min_ratio = min(min_ratio, result.first_gap / result.last_gap)
        if not result.passes:
            failing.append(index)
    passed = not failing
    acceptance_line(
        9, "regularization-continuity",
        passed,
        f"{len(failing)} of 50 paths fail the shrinking-gap contract; "
        f"weakest first/last gap ratio {min_ratio:.3f} (needs >= 4)",
    )
    assert passed, f"failing paths: {failing}"


# ---------------------------------------------------------------------------
# 10: excursion restart identities through the campaign runner
# ---------------------------------------------------------------------------


def test_acceptance_10_excursion_identities(tmp_path):
    config = config_from_dict(
        {
            "spec": {"x0": 0.5, "a": 1.5, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
            "grid": {"horizon": 1.0, "steps": 2048},
            "ladder": {"eps0": 0.1, "ratio": 0.4, "depth": 8},
            "seeds": {"master_seed": 99, "path_count": 50},
            "checks": ["excursion-endpoints", "initial-identity", "restart-refinement"],
            "output_dir": str(tmp_path / "excursion-campaign"),
        }
    )
    report = run_campaign(config)
    endpoint = report.checks["excursion-endpoints"]
    initial = report.checks["initial-identity"]
    restart = report.checks["restart-refinement"]
    _, names, matrix = read_csv_with_meta(tmp_path / "excursion-campaign" / "excursions.csv")
    sup_column = matrix[:, names.index("sup_residual")]
    # Three intervals qualify for the refinement comparison (at least
    # min_window_nodes = 20 nodes, an interior window after the 5-step
    # margins, not the run that starts at t = 0): interval 2 of path 31 and
    # interval 1 of paths 38 and 44.
    refined_windows = int(np.count_nonzero(~np.isnan(sup_column)))
    passed = (
        endpoint.fail_count == 0
        and initial.fail_count == 0
        and initial.pass_count == 50
        and restart.fail_count == 0
        and refined_windows == 3
    )
    acceptance_line(
        10, "excursion-identities",
        passed,
        f"fails: endpoints {endpoint.fail_count}, initial identity {initial.fail_count}, "
        f"restart refinement {restart.fail_count} (all of 50 paths); "
        f"{refined_windows} interior windows carried the refinement comparison (expected 3)",
    )
    assert passed


# ---------------------------------------------------------------------------
# 11: determinism of the full report
# ---------------------------------------------------------------------------


def test_acceptance_11_determinism(tmp_path):
    def run(out_dir):
        return run_campaign(
            config_from_dict(
                {
                    "spec": {"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 2.0**-0.5, "hurst": 0.25},
                    "grid": {"horizon": 1.0, "steps": 2048},
                    "ladder": {"eps0": 0.1, "ratio": 0.3, "depth": 8},
                    "seeds": {"master_seed": 77, "path_count": 4},
                    "output_dir": str(out_dir),
                }
            )
        )

    first = run(tmp_path / "one")
    second = run(tmp_path / "two")
    identical = canonical_report(first) == canonical_report(second)
    passed = identical and first.overall_pass and second.overall_pass
    acceptance_line(
        11, "determinism",
        passed,
        f"two runs of the 4-path campaign: reports identical up to timestamps = {identical}, "
        f"overall_pass = {first.overall_pass}/{second.overall_pass}",
    )
    assert passed
