"""Local fixed-point tests: horizon selection from the contraction
inequalities, the iteration itself against the closed-form oracle, band
preservation, uniqueness, and the certified contraction rate.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from singsde import (
    EpsilonLadder,
    HolderEstimate,
    HurstParam,
    InfeasibleProblemError,
    LocalProblem,
    PicardBandError,
    SdeSpec,
    SeedRecord,
    TimeGrid,
    build_family,
    contraction_modulus,
    estimate_holder,
    fixed_point_residual,
    generate_fbm,
    identity_residual,
    picard_solve,
    select_delta,
    zero_path,
)
from singsde.picard import DeltaCertificate, PicardConvergenceError, _envelopes, _solve_block

from _support import closed_form, picard_oracle

H_QUARTER = HurstParam(0.25)
DELTA = 2.0**-7


def driver_free_problem(grid: TimeGrid, x0=1.0, a=1.0, b=0.0) -> LocalProblem:
    return LocalProblem(
        SdeSpec(x0=x0, a=a, b=b, sigma=1.0, hurst=H_QUARTER),
        zero_path(grid, H_QUARTER),
        HolderEstimate(exponent=0.125, constant=0.0, grid=grid),
    )


ORACLE_GRID = TimeGrid(DELTA, 4096)


# ---------------------------------------------------------------------------
# horizon selection
# ---------------------------------------------------------------------------


def test_select_delta_driver_free_oracle():
    (certificate,) = select_delta([driver_free_problem(ORACLE_GRID)])
    assert certificate.delta == DELTA
    assert certificate.modulus == pytest.approx(0.7071068, abs=1e-7)
    assert certificate.margin_low > 0.0 and certificate.margin_high > 0.0


def test_contraction_modulus_formula():
    problem = driver_free_problem(ORACLE_GRID)
    # q(delta) = 2 a delta^{2H} / (H x0^2) + b delta; at delta = 0.01: 0.8.
    assert contraction_modulus(0.01, problem) == pytest.approx(0.8, abs=1e-12)
    assert contraction_modulus(1e-12, problem) < 1e-5
    moduli = [contraction_modulus(d, problem) for d in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(moduli[i] < moduli[i + 1] for i in range(len(moduli) - 1))

    damped = driver_free_problem(ORACLE_GRID, b=2.0)
    assert contraction_modulus(0.01, damped) == pytest.approx(0.8 + 0.02, abs=1e-12)


def test_envelopes_never_cross():
    # f - h = a t^{2H}/(2 H x0) + b x0 t / 2 + 2 C t^beta >= 0 identically.
    spec = SdeSpec(x0=0.7, a=1.3, b=0.8, sigma=1.0, hurst=H_QUARTER)
    upper, lower = _envelopes(spec, np.linspace(0.0, 1.0, 513), 2.5, 0.125)
    assert np.all(upper >= lower - 1e-15)


def test_select_delta_infeasible_for_enormous_constant():
    grid = TimeGrid(1.0, 256)
    hopeless = LocalProblem(
        SdeSpec(x0=1.0, a=1.0, b=0.0, sigma=1.0, hurst=H_QUARTER),
        zero_path(grid, H_QUARTER),
        HolderEstimate(exponent=0.125, constant=1e40, grid=grid),
    )
    (outcome,) = select_delta([hopeless])
    assert isinstance(outcome, InfeasibleProblemError)


def one_candidate_at_a_time(problem: LocalProblem) -> DeltaCertificate | None:
    """Reference selector for one problem: the dyadic candidates in turn, None if none passes."""

    x0 = problem.spec.x0
    for power in range(1, 41):
        delta = 2.0**-power
        q = contraction_modulus(delta, problem)
        if q > 0.95:
            continue
        t = np.linspace(0.0, delta, 257)[1:]
        f, h = _envelopes(problem.spec, t, problem.holder.constant, problem.holder.exponent)
        if f.max() > 0.95 * x0 or h.min() < -0.95 * 0.5 * x0:
            continue
        return DeltaCertificate(
            delta, q, float((x0 + h).min() - 0.5 * x0), float(2.0 * x0 - (x0 + f).max())
        )
    return None


def test_select_delta_block_matches_one_problem_at_a_time():
    # Rows resolve at different candidates (and one never does); each row of
    # the block gets exactly its own certificate or its own error.
    grid = TimeGrid(2.0**-10, 256)
    spec = SdeSpec(x0=0.5, a=1.5, b=0.5, sigma=1.0, hurst=H_QUARTER)
    constants = [0.0, 0.3, 2.0, 1e40, 7.5, 0.3]
    problems = [
        LocalProblem(spec, zero_path(grid, H_QUARTER), HolderEstimate(0.125, c, grid))
        for c in constants
    ]
    block = select_delta(problems)
    assert len(block) == len(problems)
    assert len({outcome.delta for outcome in block if isinstance(outcome, DeltaCertificate)}) >= 3
    for problem, outcome in zip(problems, block):
        expected = one_candidate_at_a_time(problem)
        if expected is None:
            assert isinstance(outcome, InfeasibleProblemError)
            assert "driver constant 1e+40" in str(outcome)
            (alone,) = select_delta([problem])
            assert isinstance(alone, InfeasibleProblemError) and str(alone) == str(outcome)
        else:
            assert outcome == expected
            assert select_delta([problem]) == [expected]
    assert select_delta([]) == []
    damped = LocalProblem(
        SdeSpec(x0=0.5, a=1.5, b=0.6, sigma=1.0, hurst=H_QUARTER),
        zero_path(grid, H_QUARTER),
        HolderEstimate(0.125, 0.3, grid),
    )
    with pytest.raises(ValueError, match="must share the spec"):
        select_delta([problems[0], damped])


def test_problem_validation():
    grid = TimeGrid(1.0, 64)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.0, sigma=1.0, hurst=H_QUARTER)
    noise = zero_path(grid, H_QUARTER)
    with pytest.raises(ValueError, match="noise roughness 0.3 differs from spec roughness 0.25"):
        LocalProblem(
            spec,
            zero_path(grid, HurstParam(0.3)),
            HolderEstimate(exponent=0.125, constant=0.0, grid=grid),
        )
    with pytest.raises(ValueError, match="driver window must lie inside"):
        wide = TimeGrid(2.0, 64)
        LocalProblem(
            spec, zero_path(wide, H_QUARTER), HolderEstimate(exponent=0.125, constant=0.0, grid=wide)
        )
    with pytest.raises(ValueError, match="certificate grid .* differs from driver grid"):
        # A certificate of another path's grid says nothing about this driver.
        window = TimeGrid(2**-7, 256)
        LocalProblem(
            spec, zero_path(window, H_QUARTER), HolderEstimate(exponent=0.125, constant=0.0, grid=grid)
        )
    with pytest.raises(ValueError, match="exponent must lie in"):
        LocalProblem(spec, noise, HolderEstimate(exponent=0.4, constant=0.0, grid=grid))
    with pytest.raises(ValueError, match="constant must be nonnegative"):
        LocalProblem(spec, noise, HolderEstimate(exponent=0.125, constant=-1.0, grid=grid))
    for constant in (math.nan, math.inf):
        # NaN slips past every envelope comparison; it must not reach select_delta.
        with pytest.raises(ValueError, match="constant must be nonnegative and finite"):
            LocalProblem(spec, noise, HolderEstimate(exponent=0.125, constant=constant, grid=grid))


# ---------------------------------------------------------------------------
# the iteration
# ---------------------------------------------------------------------------


def test_picard_fixed_point_matches_closed_form():
    problem = driver_free_problem(ORACLE_GRID)
    (certificate,) = select_delta([problem])
    result = picard_solve(problem, certificate, 1e-10)
    oracle = closed_form(ORACLE_GRID.nodes(), 1.0, 1.0, 0.25)
    worst = np.abs(result.values - oracle).max()
    print(
        f"picard vs closed form: worst {worst:.3e} in {result.iterations} iterations "
        f"(cap {result.iteration_cap})"
    )
    assert result.values[0] == 1.0
    assert worst <= 1e-4
    assert result.iterations <= result.iteration_cap
    assert result.final_distance <= 1e-10


def test_contraction_ratios_below_certified_modulus():
    problem = driver_free_problem(ORACLE_GRID)
    (certificate,) = select_delta([problem])
    result = picard_solve(problem, certificate, 1e-10)
    ratios = [row[2] for row in result.log if math.isfinite(row[2])]
    print(f"contraction ratios: {[f'{r:.3f}' for r in ratios]}")
    assert ratios, "iteration log must carry measured ratios"
    assert max(ratios) <= certificate.modulus + 0.05


def test_fixed_point_residual_bound():
    problem = driver_free_problem(ORACLE_GRID)
    (certificate,) = select_delta([problem])
    result = picard_solve(problem, certificate, 1e-10)
    assert fixed_point_residual(problem, result.values) <= 2e-10


def test_uniqueness_from_band_edge_start():
    problem = driver_free_problem(ORACLE_GRID)
    (certificate,) = select_delta([problem])
    from_center = picard_solve(problem, certificate, 1e-10)
    from_edge = picard_solve(
        problem, certificate, 1e-10, start=np.full(ORACLE_GRID.step_count + 1, 2.0)
    )
    gap = np.abs(from_center.values - from_edge.values).max()
    print(f"uniqueness gap between starts: {gap:.3e}")
    assert gap <= 1e-9  # 10 x tolerance


def test_band_is_enforced():
    problem = driver_free_problem(ORACLE_GRID)
    (certificate,) = select_delta([problem])
    with pytest.raises(PicardBandError, match="start iterate lies outside"):
        picard_solve(
            problem, certificate, 1e-10, start=np.full(ORACLE_GRID.step_count + 1, 3.0)
        )
    with pytest.raises(ValueError, match="start iterate must live on the driver grid"):
        picard_solve(problem, certificate, 1e-10, start=np.ones(17))


def test_horizon_must_fit_certificate():
    wide = driver_free_problem(TimeGrid(1.0, 512))
    (certificate,) = select_delta([wide])
    with pytest.raises(ValueError, match="exceeds certified delta"):
        picard_solve(wide, certificate, 1e-10)


def test_unreachable_tolerance_raises_at_the_iteration_cap():
    # The displacement stalls at rounding level (about 1e-16), so a 1e-30
    # tolerance is never met; the iteration must stop at its predicted budget.
    problem = driver_free_problem(ORACLE_GRID)
    (certificate,) = select_delta([problem])
    with pytest.raises(PicardConvergenceError, match=r"no convergence to 1e-30 within \d+ iterations"):
        picard_solve(problem, certificate, 1e-30)


def test_discretization_error_decreases_monotonically():
    errors = []
    for power in range(10, 15):
        grid = TimeGrid(DELTA, 2**power)
        problem = driver_free_problem(grid)
        (certificate,) = select_delta([problem])
        result = picard_solve(problem, certificate, 1e-10)
        oracle = closed_form(grid.nodes(), 1.0, 1.0, 0.25)
        errors.append(np.abs(result.values - oracle).max())
    print("picard errors over n=2^10..2^14:", [f"{e:.2e}" for e in errors])
    assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))


def rough_driver_problem() -> LocalProblem:
    """A 256-step window of 2^-7 driven by sigma = 0.3 times a seeded fBm path."""

    window = TimeGrid(2.0**-7, 256)
    noise = generate_fbm(window, H_QUARTER, SeedRecord(99, 0), substream=2)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=0.3, hurst=H_QUARTER)
    (holder,) = estimate_holder(spec.sigma * noise.values[None], [window], beta=0.125)
    return LocalProblem(spec, noise, holder)


def test_fixed_point_solves_the_discrete_integral_identity():
    # The map iterates the identity residual itself, so its fixed point makes
    # the campaign's identity quadrature vanish to rounding, driver or not.
    for problem in (driver_free_problem(ORACLE_GRID), rough_driver_problem()):
        (certificate,) = select_delta([problem])
        assert certificate.delta >= problem.grid.horizon
        result = picard_solve(problem, certificate, 1e-10)
        spec, grid = problem.spec, problem.grid
        residual = identity_residual(
            result.values, problem.noise.values, spec, grid, 0, grid.step_count, spec.x0
        )
        worst = float(np.abs(residual).max())
        print(f"fixed point's identity residual on {grid.step_count} steps: {worst:.2e}")
        assert worst <= 1e-12


def test_picard_with_rough_driver_stays_consistent_with_ladder():
    # Cross-module consistency on a short window: the fixed point against the
    # family limit built from the same driver, within cauchy_gap + 1e-3.
    problem = rough_driver_problem()
    (certificate,) = select_delta([problem])
    if certificate.delta < problem.grid.horizon:
        pytest.skip("certificate does not cover the fixture window for this draw")
    result = picard_solve(problem, certificate, 1e-10)

    # Deep ladder: at ratio 0.5 the residual distance to the limit is about
    # 2.4x the last gap, so the gap must sit well below the 1e-3 slack.
    family = build_family(problem.spec, problem.noise, EpsilonLadder(0.01, 0.5, 16))
    gap = np.abs(result.values - family.limit_estimate).max()
    print(f"picard vs ladder limit on the window: {gap:.3e} vs {family.cauchy_gap + 1e-3:.3e}")
    assert gap <= family.cauchy_gap + 1e-3


def block_of_windows() -> tuple[list[LocalProblem], list[DeltaCertificate]]:
    """Six 256-step windows of one spec with seeded rough drivers, on horizons 2^-7 .. 0.375.

    The certificates are stated, not selected: the horizons 2^-7 .. 2^-3
    converge in 8-11 iterations; the 0.3 window's stated modulus of 1e-20
    caps it at 11 iterations, so it fails to converge, and the 0.375 window
    escapes the band on its first iterate.
    """

    spec = SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=0.05, hurst=H_QUARTER)
    horizons = (2.0**-7, 2.0**-5, 0.3, 2.0**-3, 0.375, 2.0**-6)
    problems, certificates = [], []
    for index, horizon in enumerate(horizons):
        grid = TimeGrid(horizon, 256)
        noise = generate_fbm(grid, H_QUARTER, SeedRecord(99, index), substream=2)
        (holder,) = estimate_holder(spec.sigma * noise.values[None], [grid], beta=0.125)
        problems.append(LocalProblem(spec, noise, holder))
        modulus = 1e-20 if horizon == 0.3 else 0.5
        certificates.append(DeltaCertificate(1.0, modulus, 0.0, 0.0))
    return problems, certificates


def test_block_picard_gives_each_problem_its_own_outcome():
    # Rows leave the block at different iterations, by convergence, by a
    # band escape and by a convergence failure; every row's outcome equals
    # the problem's alone: values, log, iterations, cap and residual, or the
    # exception with its message.
    problems, certificates = block_of_windows()
    outcomes = _solve_block(problems, certificates, 1e-10)
    kinds = []
    for problem, certificate, outcome in zip(problems, certificates, outcomes):
        try:
            values, log, iterations, cap = picard_oracle(problem, certificate, 1e-10)
        except (PicardBandError, PicardConvergenceError) as exc:
            assert type(outcome) is type(exc) and str(outcome) == str(exc)
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                picard_solve(problem, certificate, 1e-10)
            kinds.append(type(exc).__name__)
            continue
        assert np.array_equal(outcome.values, values)
        assert (outcome.log, outcome.iterations, outcome.iteration_cap) == (log, iterations, cap)
        assert outcome.final_distance == log[-1][1]
        assert outcome.residual == fixed_point_residual(problem, values)
        assert same_result(picard_solve(problem, certificate, 1e-10), outcome)
        kinds.append(iterations)
    print(f"block outcomes: {kinds}")
    assert kinds[2:5:2] == ["PicardConvergenceError", "PicardBandError"]
    assert len(set(kinds[:2] + kinds[3:4] + kinds[5:])) >= 3  # rows leave at different iterations


def same_result(result, other) -> bool:
    return (
        np.array_equal(result.values, other.values)
        and (result.log, result.iterations, result.final_distance)
        == (other.log, other.iterations, other.final_distance)
        and (result.iteration_cap, result.residual) == (other.iteration_cap, other.residual)
    )


def test_block_picard_rows_do_not_depend_on_their_neighbours():
    # Dropping, reordering or repeating rows changes no row's outcome, and a
    # row whose horizon or start is invalid fails alone, before iterating.
    problems, certificates = block_of_windows()
    full = _solve_block(problems, certificates, 1e-10)
    order = [5, 3, 1, 0, 3]
    part = _solve_block([problems[i] for i in order], [certificates[i] for i in order], 1e-10)
    assert all(same_result(outcome, full[i]) for i, outcome in zip(order, part))
    narrow = DeltaCertificate(2.0**-8, 1e-20, 0.0, 0.0)
    mixed = _solve_block(
        [problems[2], problems[0], problems[1]],
        [narrow, certificates[0], certificates[1]],
        1e-10,
        [None, None, np.full(257, 3.0)],
    )
    assert isinstance(mixed[0], ValueError) and "exceeds certified delta" in str(mixed[0])
    assert same_result(mixed[1], full[0])
    assert isinstance(mixed[2], PicardBandError) and "start iterate" in str(mixed[2])
    with pytest.raises(ValueError, match="share the spec and the step count"):
        other_spec = driver_free_problem(TimeGrid(DELTA, 256))
        _solve_block([problems[0], other_spec], certificates[:2], 1e-10)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        _solve_block(problems, certificates, 0.0)
    assert _solve_block([], [], 1e-10) == []
