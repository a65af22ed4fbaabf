"""Regularization-family tests: shared-noise ladders, the monotone limit
estimate, the uniform bound, nonpositive-measure decay, nonnegativity,
compensator reconstruction, and continuity in the regularization level.
"""

from __future__ import annotations

import dataclasses
import functools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singsde import (
    EpsilonFamily,
    EpsilonLadder,
    FbmPath,
    HolderEstimate,
    HurstParam,
    LocalProblem,
    SdeSpec,
    SeedRecord,
    SolverError,
    TimeGrid,
    build_families,
    build_family,
    compensator_budget,
    compute_compensator,
    fixed_point_residual,
    generate_fbm,
    identity_residual,
    kernel_column,
    nonpositive_measure,
    restart_residual,
    solve_regularized,
    verify_eps_continuity,
    verify_initial_identity,
    verify_limit_nonnegativity,
    verify_measure_decay,
    verify_nested_zero_sets,
    verify_upper_bound,
    zero_path,
)
from singsde import harness as harness_module
from singsde import ladder as ladder_module
from singsde import sde as sde_module
from singsde.excursions import DEFAULT_MARGIN_STEPS
from singsde.ladder import upper_bound

from _support import (
    closed_form,
    eps_continuity_oracle,
    eps_continuity_values_oracle,
    family_reductions,
    family_reductions_oracle,
    first_non_finite,
    given_values_family,
    seeded_families,
    solve_batch,
)

H_QUARTER = HurstParam(0.25)


def make_spec(x0=1.0, a=1.0, b=0.0, sigma=1.0) -> SdeSpec:
    return SdeSpec(x0=x0, a=a, b=b, sigma=sigma, hurst=H_QUARTER)


def deterministic_family(n=4096, horizon=0.5, ladder=EpsilonLadder(0.1, 0.5, 8), b=0.0):
    noise = zero_path(TimeGrid(horizon, n), H_QUARTER)
    return build_family(make_spec(b=b), noise, ladder)


def hand_built_family(values, horizon=1.0, spec=None) -> EpsilonFamily:
    """A family over given (levels, nodes) values under zero noise, unsolved."""

    values = np.asarray(values, dtype=float)
    levels, nodes = values.shape
    return given_values_family(
        make_spec(x0=float(values[0, 0])) if spec is None else spec,
        zero_path(TimeGrid(horizon, nodes - 1), H_QUARTER),
        EpsilonLadder(0.1, 0.5, levels - 1),
        values,
    )


# ---------------------------------------------------------------------------
# ladder and family construction
# ---------------------------------------------------------------------------


def test_ladder_validation_and_levels():
    with pytest.raises(ValueError, match="eps0 must be positive"):
        EpsilonLadder(0.0, 0.5, 4)
    with pytest.raises(ValueError, match="ratio must lie in"):
        EpsilonLadder(0.1, 1.0, 4)
    with pytest.raises(ValueError, match="depth must be a positive integer"):
        EpsilonLadder(0.1, 0.5, 0)
    for flag in (True, False):
        with pytest.raises(ValueError, match="depth must be a positive integer"):
            EpsilonLadder(0.1, 0.5, flag)
    with pytest.raises(ValueError, match="deepest level underflows to 0"):
        EpsilonLadder(1e-300, 1e-10, 3)
    ladder = EpsilonLadder(0.1, 0.5, 10)
    levels = ladder.levels()
    assert levels.size == 11
    assert np.allclose(levels, 0.1 * 0.5 ** np.arange(11))
    assert np.all(np.diff(levels) < 0.0)


def test_build_family_deterministic_oracle():
    # Zero noise, b=0, deep ladder: limit at T=0.5 within 5e-3 of the closed
    # form (the residual distance to the true limit is roughly 2.4x the last
    # gap at ratio 0.5, so depth 14 is needed for this tolerance); ordering
    # is exact, with no violations even at tolerance 0.
    family = build_family(
        make_spec(), zero_path(TimeGrid(0.5, 4096), H_QUARTER), EpsilonLadder(0.1, 0.5, 14),
        tol_mono=0.0,
    )
    target = closed_form(0.5, 1.0, 1.0, 0.25)
    print(
        f"deterministic limit at T: {family.limit_estimate[-1]:.7f} vs {target:.7f}; "
        f"cauchy_gap {family.cauchy_gap:.3e}"
    )
    assert family.limit_estimate[-1] == pytest.approx(1.9566360, abs=5e-3)
    assert family.mono_violation_count == 0
    assert family.values.shape == (15, 4097)
    assert np.array_equal(family.limit_estimate, family.values[-1])
    deepest, next_deepest = family.values[-1], family.values[-2]
    assert family.cauchy_gap == pytest.approx(np.abs(deepest - next_deepest).max(), rel=1e-12)
    assert np.all(family.limit_estimate >= family.values), "monotone sandwich"


def test_build_family_ordering_with_resolved_noise():
    # With moderate noise the discrete ordering holds at the default 1e-12
    # tolerance (acceptance 3 checks it at unit noise on 100 paths).
    spec = make_spec(b=0.5, sigma=2.0**-0.5)
    grid = TimeGrid(1.0, 2048)
    for index in range(4):
        noise = generate_fbm(grid, H_QUARTER, SeedRecord(77, index))
        family = build_family(spec, noise, EpsilonLadder(0.1, 0.3, 8))
        assert family.mono_violation_count == 0, f"path {index}"
        assert verify_nested_zero_sets(family) == (True, 0.0, None), f"path {index}"


def test_build_family_requires_depth():
    # The ladder owns the minimum, so a one-step ladder never reaches the build.
    with pytest.raises(ValueError, match="^ladder depth must be at least 2, got 1$"):
        EpsilonLadder(0.1, 0.5, 1)


def test_build_families_matches_build_family_and_isolates_non_finite_path():
    # One chunk holds every path; the path with an infinite increment yields
    # the scalar solver's SolverError, and its neighbours still yield families.
    spec = make_spec(b=0.5, sigma=5.0)
    grid = TimeGrid(1.0, 512)
    ladder = EpsilonLadder(0.1, 0.3, 4)
    noises = [generate_fbm(grid, H_QUARTER, SeedRecord(13, index)) for index in range(4)]
    broken = noises[1].values.copy()
    broken[300] = -np.inf
    noises[1] = FbmPath(grid, broken, H_QUARTER, SeedRecord(13, 1), "circulant")

    outcomes = list(build_families(spec, noises, ladder))
    assert len(outcomes) == 4
    with pytest.raises(SolverError) as expected:
        solve_regularized(spec, float(ladder.levels()[0]), noises[1])
    assert isinstance(outcomes[1], SolverError)
    assert str(outcomes[1]) == str(expected.value)
    assert outcomes[1].step_index == expected.value.step_index == 300
    with pytest.raises(SolverError, match="non-finite state at step 300"):
        build_family(spec, noises[1], ladder)

    for index in (0, 2, 3):
        family = outcomes[index]
        assert family.noise is noises[index]
        assert family.values.shape == (5, 513)
        for row, eps in zip(family.values, ladder.levels()):
            scalar = solve_regularized(spec, float(eps), noises[index])
            assert np.array_equal(row, scalar.values)
        single = build_family(spec, noises[index], ladder)
        assert np.array_equal(family.limit_estimate, single.limit_estimate)
        assert family.cauchy_gap == single.cauchy_gap
        assert family.mono_violation_count == single.mono_violation_count
        assert family.mono_worst_deficit == single.mono_worst_deficit
    # The chunk holds paths whose state crosses zero (at the top level; the
    # deepest level stays positive on these paths).
    assert min(family.values[0].min() for family in outcomes[::2]) < 0.0


def test_build_families_rejects_mixed_noises():
    spec = make_spec()
    ladder = EpsilonLadder(0.1, 0.5, 2)
    coarse = zero_path(TimeGrid(1.0, 64), H_QUARTER)
    fine = zero_path(TimeGrid(1.0, 128), H_QUARTER)
    with pytest.raises(ValueError, match="every noise must share the grid"):
        list(build_families(spec, [coarse, fine], ladder))
    rough = zero_path(TimeGrid(1.0, 64), HurstParam(0.3))
    with pytest.raises(ValueError, match="noise roughness 0.3 differs"):
        list(build_families(spec, [rough], ladder))
    assert list(build_families(spec, [], ladder)) == []


def test_build_families_rejects_a_bad_tol_mono():
    # A negative tolerance would count every pair of equal levels as an
    # ordering violation and NaN would count none, so both are refused, with
    # the infinities, before any noise is drawn; 0 is a valid tolerance.
    spec = make_spec()
    ladder = EpsilonLadder(0.1, 0.5, 4)

    def undrawable():
        raise AssertionError("a noise was drawn")
        yield

    for tol in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tol_mono must be finite and nonnegative"):
            list(build_families(spec, undrawable(), ladder, tol_mono=tol))
    noise = zero_path(TimeGrid(1.0, 256), H_QUARTER)
    assert build_family(spec, noise, ladder, tol_mono=0.0).mono_violation_count == 0


_MIXED_GRIDS = (TimeGrid(1.0, 128), TimeGrid(0.25, 128), TimeGrid(2.0**-20, 128))
_MIXED_LADDERS = (EpsilonLadder(0.1, 0.5, 3), EpsilonLadder(0.1, 0.4, 6), EpsilonLadder(0.2, 0.5, 4))


def _mixed_block() -> tuple[list[FbmPath], list[EpsilonLadder]]:
    """Seven noises cycling through three grids of one step count, the ladder of each
    noise's grid, and a non-finite value at node 50 of noise 4."""

    noises = [
        generate_fbm(_MIXED_GRIDS[index % 3], H_QUARTER, SeedRecord(31, index))
        for index in range(7)
    ]
    broken = noises[4].values.copy()
    broken[50] = np.nan
    noises[4] = FbmPath(noises[4].grid, broken, H_QUARTER, SeedRecord(31, 4), "circulant")
    return noises, [_MIXED_LADDERS[index % 3] for index in range(7)]


def _outcome_fields(outcome) -> dict | tuple:
    """Every field of a family, arrays as (shape, bytes), or an error's message and step."""

    if isinstance(outcome, SolverError):
        return str(outcome), outcome.step_index
    fields = {}
    for field in dataclasses.fields(outcome):
        value = getattr(outcome, field.name)
        if isinstance(value, np.ndarray):
            value = (value.shape, value.dtype.str, value.tobytes())
        elif isinstance(value, FbmPath):
            value = id(value)
        fields[field.name] = value
    return fields


@pytest.mark.parametrize("keep", ["none", "limit", "levels"])
def test_paths_on_many_grids_share_one_step_loop(keep, monkeypatch):
    # Seven paths on three grids of one step count, each grid with its own
    # ladder (4, 7 and 5 levels), interleaved, with the eps-continuity probe
    # and path 4 breaking: one step loop solves them all, and every path's
    # outcome equals, field by field, its own one-grid build's.  The padded
    # paths on the first grid have nonpositive nodes on every level.
    spec = make_spec(x0=0.3, a=0.1, b=0.5, sigma=2.0)
    noises, ladders = _mixed_block()
    alone = [
        next(build_families(spec, [noise], ladder, eps_continuity=True, keep=keep))
        for noise, ladder in zip(noises, ladders)
    ]
    solve = ladder_module._integrate_batch
    loops = []

    def counted(spec_, groups, noise_rows):
        loops.append([(grid, levels.size, rows) for grid, levels, _, rows in groups])
        return solve(spec_, groups, noise_rows)

    monkeypatch.setattr(ladder_module, "_integrate_batch", counted)
    mixed = list(build_families(spec, noises, ladders, eps_continuity=True, keep=keep))
    columns = 7 + 1 + 2 * len(_EPS_CONTINUITY[1])
    assert loops == [[(grid, columns, rows) for grid, rows in zip(_MIXED_GRIDS, (3, 2, 2))]]
    for outcome, own, noise, ladder in zip(mixed, alone, noises, ladders, strict=True):
        assert _outcome_fields(outcome) == _outcome_fields(own)
        if isinstance(outcome, SolverError):
            continue
        assert outcome.noise is noise and outcome.ladder == ladder
        assert outcome.nonpositive_counts.shape == (ladder.depth + 1,)
        assert outcome.nested_breaks.shape == (ladder.depth,)
        if keep == "levels":
            assert outcome.values.shape == (ladder.depth + 1, 129)
    assert isinstance(mixed[4], SolverError) and mixed[4].step_index == 50
    assert all(family.nonpositive_counts.all() for family in (mixed[0], mixed[3], mixed[6]))


def test_a_padded_path_names_its_own_failing_level(monkeypatch):
    # A 4-level ladder runs padded to 7 levels beside a 7-level one.  A value
    # planted on its own level 2 at node 40 is reported as that level's
    # error, and the other path keeps its own family.
    spec = make_spec(b=0.5, sigma=1.0)
    noises, ladders = (items[:2] for items in _mixed_block())
    solve = ladder_module._integrate_batch

    def planted(spec_, groups, noise_rows):
        for first, values in solve(spec_, groups, noise_rows):
            if first <= 40 < first + len(values):
                values[40 - first, 3 + 2, 0] = np.nan
            yield first, values

    alone = next(build_families(spec, noises[1:], ladders[1]))
    monkeypatch.setattr(ladder_module, "_integrate_batch", planted)
    short, deep = build_families(spec, noises, ladders)
    dt = noises[0].grid.dt
    assert isinstance(short, SolverError) and short.step_index == 40
    assert str(short) == f"non-finite state at step 40 (eps={ladders[0].levels()[2]}, dt={dt})"
    assert _outcome_fields(deep) == _outcome_fields(alone)


def test_build_families_carries_the_eps_continuity_probe(monkeypatch):
    # Two paths per chunk: each family carries the probe outcome of its
    # chunk's step loop, its ladder values are those of a build without the
    # probe, and a path that breaks carries no family at all.
    spec = make_spec(b=0.5, sigma=1.0)
    grid = TimeGrid(1.0, 256)
    ladder = EpsilonLadder(0.1, 0.5, 4)
    probe = (0.05, [0.025, 0.0125, 0.00625])
    noises = [generate_fbm(grid, H_QUARTER, SeedRecord(21, index)) for index in range(5)]
    broken = noises[3].values.copy()
    broken[100] = np.nan
    noises[3] = FbmPath(grid, broken, H_QUARTER, SeedRecord(21, 3), "circulant")
    monkeypatch.setattr(ladder_module, "_CHUNK_VALUES", 2 * 7 * 257)

    plain = list(build_families(spec, noises, ladder))
    probed = list(build_families(spec, noises, ladder, eps_continuity=True))
    assert isinstance(probed[3], SolverError) and str(probed[3]) == str(plain[3])
    for index in (0, 1, 2, 4):
        assert plain[index].eps_continuity is None
        assert np.array_equal(probed[index].values, plain[index].values)
        assert probed[index].eps_continuity == eps_continuity_oracle(
            spec, noises[index], *probe
        )


# ---------------------------------------------------------------------------
# block-streamed reductions
# ---------------------------------------------------------------------------

# (spec, grid, ladder, master seed or None for the zero driver): the shared
# ladder-14 spec on 2^12 steps, the all-checks-11 spec at its frozen and a
# held-out seed, and zero noise.
_SHARED = (
    SdeSpec(1.0, 1.0, 0.5, 1.0, H_QUARTER), TimeGrid(1.0, 2**12), EpsilonLadder(0.1, 0.5, 10)
)
_ALL_CHECKS = (
    SdeSpec(0.5, 1.5, 0.5, 1.0, H_QUARTER), TimeGrid(1.0, 2**11), EpsilonLadder(0.1, 0.4, 8)
)
_STREAM_CASES = {
    "ladder-14": (*_SHARED, 12345),
    "all-checks-11": (*_ALL_CHECKS, 99),
    "all-checks-11-4242": (*_ALL_CHECKS, 4242),
    "zero-noise": (*_SHARED, None),
}
# the campaign's eps-continuity probe: eps* = 0.05 and three offsets
_EPS_CONTINUITY = (ladder_module.EPS_STAR, ladder_module._PROBE_OFFSETS)


def _stream_noises(grid, seed, paths):
    if seed is None:
        return [zero_path(grid, H_QUARTER, SeedRecord(0, index)) for index in range(paths)]
    return [generate_fbm(grid, H_QUARTER, SeedRecord(seed, index)) for index in range(paths)]


@functools.lru_cache(maxsize=None)
def _stream_probe_oracle(case):
    """The scalar eps-continuity outcome of each of the case's 16 paths."""

    spec, grid, _, seed = _STREAM_CASES[case]
    return [
        eps_continuity_oracle(spec, noise, *_EPS_CONTINUITY)
        for noise in _stream_noises(grid, seed, 16)
    ]


def _replay(values, block_steps):
    """A stand-in for the step loop that hands out given (paths, levels, nodes) values.

    The blocks are time-major, shape (steps, levels, paths), ``block_steps``
    nodes each from node 1 on, as the step loop yields them.
    """

    def replay(spec, groups, noise_rows):
        assert (len(noise_rows), groups[0][1].size) == values.shape[:2]
        for first in range(1, values.shape[2], block_steps):
            block = values[:, :, first : first + block_steps].transpose(2, 1, 0)
            yield first, np.ascontiguousarray(block)

    return replay


@pytest.mark.parametrize("case", sorted(_STREAM_CASES))
@pytest.mark.parametrize("block_steps", [1, 2, 7, None])
def test_streamed_reductions_equal_the_whole_array_oracle(case, block_steps, monkeypatch):
    # 16 paths, one chunk, time blocks of 1, 2, 7 or the default number of
    # steps: every reduction equals the oracle's on the full values, which
    # are solved beforehand at the default block size.  With the campaign's
    # eps-continuity probe riding the same step loop, the reductions stay the
    # same and every gap table equals the scalar solver's.
    spec, grid, ladder, seed = _STREAM_CASES[case]
    noises = _stream_noises(grid, seed, 16)
    levels = ladder.levels()
    full = solve_batch(spec, levels, grid, np.array([noise.values for noise in noises]))

    def block_of(columns):
        if block_steps is not None:
            monkeypatch.setattr(sde_module, "_BLOCK_VALUES", block_steps * 16 * columns)

    block_of(levels.size)
    streamed = list(build_families(spec, noises, ladder, keep="limit"))
    for values, family in zip(full, streamed):
        assert family.values is None
        assert family_reductions(family) == family_reductions_oracle(
            values, levels, grid.dt, ladder_module.DEFAULT_TOL_MONO
        )
    # Without its row, a family keeps the same reductions, and the limit
    # nonnegativity check returns the same record from them.
    rowless = list(build_families(spec, noises, ladder, keep="none"))
    for family, plain in zip(rowless, streamed):
        assert family.limit_estimate is None and family.values is None
        assert family_reductions(family) == {**family_reductions(plain), "limit_estimate": None}
        assert verify_limit_nonnegativity(family) == verify_limit_nonnegativity(plain)
    kept = list(build_families(spec, noises[:3], ladder))
    for values, family in zip(full, kept):
        assert family.values.tobytes() == values.tobytes()
        assert family_reductions(family) == family_reductions_oracle(
            values, levels, grid.dt, ladder_module.DEFAULT_TOL_MONO
        )
    if case == "ladder-14":
        # the fixture reaches zero, so the counts and breaks are exercised
        assert any(family.nonpositive_counts.any() for family in streamed)
    if case == "zero-noise":
        # every value is positive, so every block skips the counts and breaks
        assert full.min() > 0.0

    block_of(levels.size + 1 + 2 * len(_EPS_CONTINUITY[1]))
    oracles = _stream_probe_oracle(case)
    for keep, plains in (("limit", streamed), ("none", rowless)):
        probed = build_families(spec, noises, ladder, eps_continuity=True, keep=keep)
        for family, plain, oracle in zip(probed, plains, oracles, strict=True):
            assert family_reductions(family) == family_reductions(plain)
            assert family.eps_continuity == oracle


def test_eps_continuity_rides_the_ladder_step_loop(monkeypatch):
    # With the probe on, each chunk runs one step loop, over the ladder's
    # levels and then the probe's; the probe keeps no row, so a chunk holds
    # as many paths as without it (two here).
    spec = make_spec(b=0.5, sigma=1.0)
    grid = TimeGrid(1.0, 256)
    ladder = EpsilonLadder(0.1, 0.5, 4)
    probe = (0.05, [0.025, 0.0125, 0.00625])
    noises = [generate_fbm(grid, H_QUARTER, SeedRecord(21, index)) for index in range(5)]
    monkeypatch.setattr(ladder_module, "_CHUNK_VALUES", 2 * 2 * 257)
    solve = ladder_module._integrate_batch
    calls = []

    def counted(spec_, groups, noise_rows):
        ((_, levels, _, rows),) = groups
        calls.append((levels.tolist(), len(noise_rows)))
        return solve(spec_, groups, noise_rows)

    monkeypatch.setattr(ladder_module, "_integrate_batch", counted)
    families = list(build_families(spec, noises, ladder, eps_continuity=True, keep="limit"))
    solved = ladder.levels().tolist() + ladder_module._PROBE_LEVELS.tolist()
    assert calls == [(solved, 2), (solved, 2), (solved, 1)]
    for noise, family in zip(noises, families):
        assert family.eps_continuity == eps_continuity_oracle(spec, noise, *probe)


def _planted_values(spec, grid, ladder, noises):
    """A solve of the noises with one defect planted on each of paths 0..4."""

    values = solve_batch(
        spec, ladder.levels(), grid, np.array([noise.values for noise in noises])
    )
    values[0, 3, 20] = values[0, 4, 20] + 1e-3  # shallow above deep: ordering
    values[1, 5, 30] = -0.1  # deep nonpositive below a positive shallow node
    values[2, 0, 1] = -0.25  # nonpositive at node 1, the first streamed node
    values[3, 5, 7] = np.nan  # a middle level, at a block boundary
    values[3, 8, 3] = -np.inf  # earlier, but on a deeper level
    values[3, 5, 30] = np.inf
    values[4, 7, 8] = np.inf  # earlier, but on a deeper level than ...
    values[4, 2, 40] = np.nan  # ... the level the error must name
    return values


@pytest.mark.parametrize("block_steps", [1, 2, 7])
def test_limit_minimum_folds_to_its_first_node(block_steps, monkeypatch):
    # Minima planted on the limit row of a positive zero-noise solve: a
    # three-way tie (within one block and across blocks at these block
    # sizes), a row whose minimum x0 at node 0 ties a later node, and minima
    # on node 15 and node 14, the first and the last node of a block.  The
    # first node of the minimum wins, as in np.argmin of the whole row.
    spec = make_spec(x0=1.0, b=0.5, sigma=1.0)
    grid = TimeGrid(1.0, 64)
    ladder = EpsilonLadder(0.1, 0.5, 4)
    levels = ladder.levels()
    noises = _stream_noises(grid, None, 4)
    values = solve_batch(spec, levels, grid, np.array([noise.values for noise in noises]))
    values[0, -1, [10, 12, 40]] = -0.5
    values[1, -1, 1:] = np.abs(values[1, -1, 1:]) + 1.5
    values[1, -1, 30] = 1.0
    values[2, -1, 15] = -1.0
    values[3, -1, 14] = -1.0

    monkeypatch.setattr(ladder_module, "_integrate_batch", _replay(values, block_steps))
    tol = ladder_module.DEFAULT_TOL_MONO
    families = list(build_families(spec, noises, ladder, keep="none"))
    for path, family in enumerate(families):
        expected = family_reductions_oracle(values[path], levels, grid.dt, tol)
        assert family_reductions(family) == {**expected, "limit_estimate": None}
    assert [(family.limit_min, family.limit_argmin) for family in families] == [
        (-0.5, 10), (1.0, 0), (-1.0, 15), (-1.0, 14)
    ]


@pytest.mark.parametrize("block_steps", [1, 2, 7])
def test_positive_blocks_skip_only_what_they_cannot_change(block_steps, monkeypatch):
    # Under zero noise from x0 = 1 every value is positive, and a block whose
    # minimum is positive skips the nonpositive counts and the nested breaks.
    # A -inf that only the block minimum sees is still reported, and a
    # planted zero is still counted and breaks the nesting, as on the whole
    # array.
    spec = make_spec(x0=1.0, b=0.5, sigma=1.0)
    grid = TimeGrid(1.0, 64)
    ladder = EpsilonLadder(0.1, 0.5, 10)
    levels = ladder.levels()
    noises = _stream_noises(grid, None, 4)
    values = solve_batch(spec, levels, grid, np.array([noise.values for noise in noises]))
    assert values.min() > 0.0
    values[1, 3, 20] = -np.inf
    values[2, 6, 33] = 0.0

    monkeypatch.setattr(ladder_module, "_integrate_batch", _replay(values, block_steps))
    tol = ladder_module.DEFAULT_TOL_MONO
    outcomes = list(build_families(spec, noises, ladder, keep="limit"))
    for path, outcome in enumerate(outcomes):
        expected = family_reductions_oracle(values[path], levels, grid.dt, tol)
        if path == 1:
            assert isinstance(outcome, SolverError) and isinstance(expected, SolverError)
            assert str(outcome) == str(expected) and outcome.step_index == expected.step_index == 20
            continue
        assert family_reductions(outcome) == expected
    assert np.flatnonzero(outcomes[2].nonpositive_counts).tolist() == [6]
    assert verify_nested_zero_sets(outcomes[2]) == (
        False, 1.0, "containment breaks entering level 6"
    )
    assert not outcomes[0].nonpositive_counts.any() and not outcomes[3].nonpositive_counts.any()


@pytest.mark.parametrize("block_steps", [1, 2, 7])
def test_streamed_reductions_with_planted_defects(block_steps, monkeypatch):
    # The solve is replaced by planted values handed out in time blocks, so
    # the defects reach build_families exactly as a solve would yield them.
    spec = make_spec(x0=1.0, b=0.5, sigma=0.5)
    grid = TimeGrid(1.0, 64)
    ladder = EpsilonLadder(0.1, 0.5, 10)
    levels = ladder.levels()
    noises = _stream_noises(grid, 5, 6)
    values = _planted_values(spec, grid, ladder, noises)
    assert values[1, 4, 30] > 0.0 and values[2, 1, 1] > 0.0

    monkeypatch.setattr(ladder_module, "_integrate_batch", _replay(values, block_steps))
    tol = ladder_module.DEFAULT_TOL_MONO
    for path, outcome in enumerate(build_families(spec, noises, ladder, keep="limit")):
        given = given_values_family(spec, noises[path], ladder, values[path])
        expected = family_reductions_oracle(values[path], levels, grid.dt, tol)
        if isinstance(expected, SolverError):
            assert path in (3, 4)
            for error in (outcome, given):
                assert isinstance(error, SolverError)
                assert str(error) == str(expected) and error.step_index == expected.step_index
            continue
        assert family_reductions(outcome) == family_reductions(given) == expected
    middle = first_non_finite(values[3], levels, grid.dt)
    assert str(middle) == f"non-finite state at step 7 (eps={levels[5]}, dt={grid.dt})"
    assert first_non_finite(values[4], levels, grid.dt).step_index == 40
    ordering, nested, node_one = (
        family_reductions_oracle(values[path], levels, grid.dt, tol) for path in range(3)
    )
    assert ordering["mono_violation_count"] == 1 and ordering["mono_worst_deficit"] > 0.0
    assert np.flatnonzero(np.frombuffer(nested["nested_breaks"], dtype=bool)).tolist() == [4]
    assert node_one["nonpositive_measure"] != family_reductions_oracle(
        values[5], levels, grid.dt, tol
    )["nonpositive_measure"]


@pytest.mark.parametrize("block_steps", [1, 7])
def test_a_non_finite_probe_level_leaves_the_family_intact(block_steps, monkeypatch):
    # Non-finite values planted in probe columns only: every family's
    # reductions equal a build without the probe, and its eps_continuity is
    # the scalar solver's error for the first failing probe level in the
    # order eps*, eps* + h_1, eps* - h_1, ..., not for the earliest node.
    spec = make_spec(x0=1.0, b=0.5, sigma=0.5)
    grid = TimeGrid(1.0, 64)
    ladder = EpsilonLadder(0.1, 0.5, 4)
    probe = (0.05, [0.025, 0.0125, 0.00625])
    probe_levels = ladder_module._PROBE_LEVELS
    noises = _stream_noises(grid, 5, 3)
    plain = list(build_families(spec, noises, ladder, keep="limit"))
    rungs = ladder.depth + 1
    values = solve_batch(
        spec,
        np.concatenate([ladder.levels(), probe_levels]),
        grid,
        np.array([noise.values for noise in noises]),
    )
    values[1, rungs + 2, 40] = np.nan  # eps* - h_1: the first failing level in probe order
    values[1, rungs + 5, 9] = np.inf  # earlier, but on the later level eps* + h_3
    values[2, rungs, 64] = -np.inf  # eps*, at the last node

    monkeypatch.setattr(ladder_module, "_integrate_batch", _replay(values, block_steps))
    probed = list(build_families(spec, noises, ladder, eps_continuity=True, keep="limit"))
    for family, clean in zip(probed, plain):
        assert family_reductions(family) == family_reductions(clean)
    assert probed[0].eps_continuity == eps_continuity_oracle(spec, noises[0], *probe)
    for path, level, step in ((1, 2, 40), (2, 0, 64)):
        error = probed[path].eps_continuity
        expected = first_non_finite(values[path, rungs:], probe_levels, grid.dt)
        assert isinstance(error, SolverError) and error.step_index == step
        assert str(error) == str(expected)
        assert str(error) == (
            f"non-finite state at step {step} (eps={probe_levels[level]}, dt={grid.dt})"
        )


# values planted by the property test below: nonpositive, NaN and infinite
_PLANTED = (-0.5, 0.0, np.nan, np.inf, -np.inf)


@st.composite
def _random_chunks(draw):
    """A chunk for the step-loop stand-in: paths, ladders, probe, block size and values.

    Each path's own ladder levels (and probe levels, when on) are an
    ordered random walk from x0 = 1 that crosses zero, with values from
    ``_PLANTED`` and raised shallow values planted on random nodes; a path on
    the shallower of two ladders is padded with copies of its shallowest
    level, as the step loop pads it.
    """

    paths = draw(st.integers(1, 9))
    depths = draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
    owners = draw(st.lists(st.integers(0, len(depths) - 1), min_size=paths, max_size=paths))
    ladders = [EpsilonLadder(0.1, 0.5, depths[owner]) for owner in owners]
    probe = _EPS_CONTINUITY if draw(st.booleans()) else None
    block_steps = draw(st.integers(1, 9))
    steps = draw(st.integers(1, 12))
    keep = draw(st.sampled_from(["none", "limit", "levels"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rungs = max(ladder.depth for ladder in ladders) + 1
    extra = 0 if probe is None else 1 + 2 * len(probe[1])
    values = np.empty((paths, rungs + extra, steps + 1))
    own = []
    for path, ladder in enumerate(ladders):
        columns = ladder.depth + 1 + extra
        walk = np.cumsum(rng.normal(0.0, 0.6, (1, steps + 1)), axis=1)
        block = 1.0 + walk + np.cumsum(rng.uniform(0.0, 0.05, (columns, 1)), axis=0)
        for _ in range(draw(st.integers(0, 4))):
            level, node = rng.integers(columns), rng.integers(1, steps + 1)
            if draw(st.booleans()):
                block[level, node] = draw(st.sampled_from(_PLANTED))
            else:
                block[level, node] += rng.uniform(0.0, 0.2)
        block[:, 0] = 1.0
        pad = rungs - (ladder.depth + 1)
        values[path, :pad] = block[0]
        values[path, pad:] = block
        own.append(block)
    return ladders, probe, block_steps, keep, values, own


@settings(max_examples=120, deadline=None)
@given(chunk=_random_chunks())
def test_streamed_folds_equal_their_oracles_on_random_chunks(chunk):
    # Random chunks through the step-loop stand-in: 1-9 paths on one or two
    # ladders (so some paths are padded), the probe on or off, blocks of
    # 1-9 steps and planted nonpositive, non-finite and out-of-order values.
    # Every family and every probe outcome equals its whole-array oracle.
    ladders, probe, block_steps, keep, values, own = chunk
    spec = make_spec(x0=1.0, b=0.5, sigma=1.0)
    grid = TimeGrid(1.0, values.shape[2] - 1)
    noises = [zero_path(grid, H_QUARTER, SeedRecord(0, path)) for path in range(len(own))]
    # the chunk's rows, as build_families orders them: paths grouped by ladder
    order = sorted(range(len(ladders)), key=lambda path: ladders.index(ladders[path]))
    tol = ladder_module.DEFAULT_TOL_MONO
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ladder_module, "_integrate_batch", _replay(values[order], block_steps))
        outcomes = list(
            build_families(spec, noises, ladders, eps_continuity=probe is not None, keep=keep)
        )
    for outcome, ladder, block in zip(outcomes, ladders, own, strict=True):
        rungs = ladder.depth + 1
        expected = family_reductions_oracle(block[:rungs], ladder.levels(), grid.dt, tol)
        if isinstance(expected, SolverError):
            assert isinstance(outcome, SolverError)
            assert (str(outcome), outcome.step_index) == (str(expected), expected.step_index)
            continue
        if keep == "none":
            expected["limit_estimate"] = None
        kept = None if outcome.values is None else outcome.values.tobytes()
        assert kept == (block[:rungs].tobytes() if keep == "levels" else None)
        assert family_reductions(outcome) == expected
        if probe is None:
            assert outcome.eps_continuity is None
            continue
        result = eps_continuity_values_oracle(block[rungs:], *probe, grid.dt)
        if isinstance(result, SolverError):
            error = outcome.eps_continuity
            assert isinstance(error, SolverError)
            assert (str(error), error.step_index) == (str(result), result.step_index)
        else:
            assert outcome.eps_continuity == result


def test_given_values_reduce_node_zero_like_the_oracle():
    # A family of given values reduces node 0 too: here the largest value,
    # the whole Cauchy gap and a non-finite state sit at node 0 alone.
    values = np.array([[1.0, 0.5, 0.5], [1.0, 0.5, 0.6], [3.0, 0.5, 0.6]])
    family = hand_built_family(values)
    assert family_reductions(family) == family_reductions_oracle(
        values, family.ladder.levels(), 0.5, ladder_module.DEFAULT_TOL_MONO
    )
    assert (family.cauchy_gap, family.value_max) == (2.0, 3.0)
    values[1, 0] = np.nan
    failure = given_values_family(family.spec, family.noise, family.ladder, values)
    expected = first_non_finite(values, family.ladder.levels(), 0.5)
    assert isinstance(failure, SolverError) and str(failure) == str(expected)
    assert failure.step_index == 0


def test_campaign_families_keep_no_levels_and_stay_small():
    # 16 paths of 2^12 steps and 11 levels, keeping the limit row or no row:
    # the traced peak of building them, noise included, stays below the
    # bytes of one (paths, levels, nodes) array, and no family holds its
    # levels.
    spec = make_spec(b=0.5, sigma=1.0)
    grid = TimeGrid(1.0, 2**12)
    ladder = EpsilonLadder(0.1, 0.5, 10)
    full_bytes = 16 * 11 * (grid.step_count + 1) * 8
    for keep in ("limit", "none"):
        tracemalloc.start()
        try:
            noises = (
                generate_fbm(grid, H_QUARTER, SeedRecord(12345, index)) for index in range(16)
            )
            families = list(build_families(spec, noises, ladder, keep=keep))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        print(f"keep {keep}: traced peak {peak / 1e6:.2f} MB against {full_bytes / 1e6:.2f} MB")
        assert peak < full_bytes
        assert len(families) == 16
        assert all(family.values is None for family in families)
        kept = [family.limit_estimate for family in families]
        if keep == "none":
            assert all(row is None for row in kept)
        else:
            assert all(row.shape == (grid.step_count + 1,) for row in kept)
        del families


def test_family_rejects_values_that_do_not_end_in_its_limit_row():
    family = deterministic_family(n=64)
    shifted = family.values.copy()
    shifted[-1, 5] += 1e-9
    with pytest.raises(ValueError, match="last row of values must be the limit row"):
        dataclasses.replace(family, values=shifted)
    with pytest.raises(ValueError, match=r"values must have shape \(9, 65\)"):
        dataclasses.replace(family, values=family.values[1:])
    with pytest.raises(ValueError, match="limit_estimate must have 65 entries"):
        dataclasses.replace(family, limit_estimate=family.limit_estimate[1:], values=None)
    assert dataclasses.replace(family, values=None).values is None


def test_family_rejects_a_limit_minimum_its_row_does_not_hold():
    family = deterministic_family(n=64)
    row = family.limit_estimate
    assert (family.limit_min, family.limit_argmin) == (row.min(), row.argmin())
    lowered = row.copy()
    lowered[40] = row.min() - 1.0
    tied = row.copy()
    tied[row.argmin() + 1] = row.min()  # a later tie leaves the first argmin
    assert dataclasses.replace(family, limit_estimate=tied, values=None).limit_argmin == row.argmin()
    match = "limit_min and limit_argmin must be the limit row's min and argmin"
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(family, limit_estimate=lowered, values=None)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(family, limit_min=row.min() - 1.0)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(family, limit_argmin=family.limit_argmin + 1)
    rowless = dataclasses.replace(family, limit_estimate=None, values=None, limit_min=-1.0)
    assert rowless.limit_min == -1.0  # nothing to check a rowless family against


def test_cauchy_gap_nonincreasing_in_depth():
    spec = make_spec(b=0.5, sigma=2.0**-0.5)
    grid = TimeGrid(1.0, 1024)
    drivers = [zero_path(grid, H_QUARTER)] + [
        generate_fbm(grid, H_QUARTER, SeedRecord(55, index)) for index in range(3)
    ]
    for noise in drivers:
        gaps = [
            build_family(spec, noise, EpsilonLadder(0.1, 0.5, depth)).cauchy_gap
            for depth in range(2, 7)
        ]
        assert all(gaps[i + 1] <= gaps[i] + 1e-15 for i in range(len(gaps) - 1)), gaps
    print(f"cauchy gaps over depth 2..6 (last driver): {[f'{g:.2e}' for g in gaps]}")


# ---------------------------------------------------------------------------
# uniform upper bound
# ---------------------------------------------------------------------------


def test_upper_bound_constant_and_deterministic_case():
    # Under zero noise the bound is its deterministic part x0 + a T^{2H}/(H x0).
    family = deterministic_family(n=2048, horizon=1.0)
    assert upper_bound(family.spec, family.noise) == pytest.approx(5.0, abs=1e-12)
    verdict = verify_upper_bound(family)
    assert verdict == (True, family.value_max - upper_bound(family.spec, family.noise), None)
    assert verdict.violation <= 0.0


def test_upper_bound_monte_carlo_property():
    # 100 independent families at tol_bound=1e-9: no violations.
    spec = make_spec(b=0.5, sigma=2.0**-0.5)
    grid = TimeGrid(1.0, 4096)
    ladder = EpsilonLadder(0.1, 0.5, 6)
    worst = -np.inf
    for index, family in enumerate(seeded_families(spec, grid, 4242, 100, ladder)):
        verdict = verify_upper_bound(family)
        worst = max(worst, verdict.violation)
        assert verdict.passed and verdict.note is None, f"path {index}: {verdict.note}"
    print(f"worst signed bound violation over 100 paths: {worst:.3e}")


# ---------------------------------------------------------------------------
# nonpositive measure and its decay
# ---------------------------------------------------------------------------


def test_nonpositive_measure_counting():
    family = deterministic_family(n=100, horizon=1.0)
    assert nonpositive_measure(family)[0] == 0.0

    values = family.values.copy()
    values[0, 50] = -0.001
    dipped = hand_built_family(values, spec=family.spec)
    measures = nonpositive_measure(dipped)
    assert measures[0] == pytest.approx(0.01, abs=1e-15)
    assert np.array_equal(measures[1:], np.zeros(8))


def test_measure_decay_deterministic_all_zero():
    family = deterministic_family()
    assert nonpositive_measure(family).tolist() == [0.0] * 9
    assert verify_measure_decay(family) == (True, 0.0, None)


def test_measure_decay_monte_carlo_example():
    # 200 seeds at unit noise, b=0, ladder 0.1/0.5/J=10: the seed-mean measure
    # at the deepest level sits below the level-0 mean and below 0.02*T.
    # Per-seed monotonicity is a consequence of the pathwise ordering, so it
    # is asserted exactly where the ordering itself held; seeds with discrete
    # ordering flips (none are expected: the drift-implicit step keeps the
    # levels ordered) must account for every non-monotone sequence.
    spec = make_spec(b=0.0, sigma=1.0)
    grid = TimeGrid(1.0, 4096)
    ladder = EpsilonLadder(0.1, 0.5, 10)
    first, last, monotone, flipped = [], [], 0, 0
    for index, family in enumerate(seeded_families(spec, grid, 31415, 200, ladder)):
        verdict = verify_measure_decay(family)
        measures = nonpositive_measure(family)
        first.append(measures[0])
        last.append(measures[-1])
        monotone += int(verdict.passed)
        flipped += int(family.mono_violation_count > 0)
        if family.mono_violation_count == 0:
            assert verdict.passed, f"ordered family {index}: {verdict.note}"
    mean_first, mean_last = float(np.mean(first)), float(np.mean(last))
    print(
        f"measure decay over 200 seeds: level-0 mean {mean_first:.5f}, deepest mean "
        f"{mean_last:.5f}, nonincreasing {monotone}/200 ({flipped} ordering-flipped)"
    )
    assert mean_first > 0.0, "fixture must actually spend time at or below zero"
    assert mean_last <= mean_first
    assert mean_last <= 0.02
    assert monotone >= 200 - flipped


def test_verifiers_flag_a_hand_built_family():
    # Three levels on four unit-horizon steps.  Level 2 (the deepest) is
    # nonpositive at nodes 2 and 3 while levels 0 and 1 are so only at node 3:
    # containment breaks entering level 2 and the measure rises from 0.25 to
    # 0.5.  Level 1 peaks at 9 against the zero-noise bound x0 + a/(H x0) = 5.
    family = hand_built_family(
        [
            [1.0, 0.5, 0.5, -0.1, 1.0],
            [1.0, 9.0, 0.5, -0.1, 1.0],
            [1.0, 0.5, -0.2, -0.1, 1.0],
        ]
    )
    assert verify_nested_zero_sets(family) == (False, 1.0, "containment breaks entering level 2")
    assert nonpositive_measure(family).tolist() == [0.25, 0.25, 0.5]
    assert verify_measure_decay(family) == (
        False, 0.25, "measure increases by 2.500e-01 between adjacent levels"
    )
    assert upper_bound(family.spec, family.noise) == pytest.approx(5.0, abs=1e-12)
    verdict = verify_upper_bound(family)
    assert verdict.violation == pytest.approx(4.0, abs=1e-12)
    assert verdict == (False, verdict.violation, "exceeds bound 5 by 4.000e+00")


# ---------------------------------------------------------------------------
# limit nonnegativity
# ---------------------------------------------------------------------------


def test_limit_nonnegativity_deterministic():
    family = deterministic_family()
    assert family.limit_min == pytest.approx(1.0, abs=1e-12) and family.limit_argmin == 0
    assert verify_limit_nonnegativity(family) == (True, -family.limit_min - family.cauchy_gap, None)
    # The pass boundary is exactly -(cauchy_gap + 1e-9): that minimum passes,
    # and the next double below it fails.
    boundary = -(family.cauchy_gap + 1e-9)
    at = dataclasses.replace(family, limit_estimate=None, values=None, limit_min=boundary)
    assert verify_limit_nonnegativity(at) == (True, -boundary - family.cauchy_gap, None)
    below = dataclasses.replace(at, limit_min=float(np.nextafter(boundary, -np.inf)))
    assert verify_limit_nonnegativity(below) == (
        False,
        -below.limit_min - family.cauchy_gap,
        f"limit estimate reaches {below.limit_min:.6g} at node 0",
    )


def test_limit_nonnegativity_monte_carlo():
    spec = make_spec(b=0.5, sigma=2.0**-0.5)
    grid = TimeGrid(1.0, 2048)
    for index in range(4):
        noise = generate_fbm(grid, H_QUARTER, SeedRecord(77, index))
        family = build_family(spec, noise, EpsilonLadder(0.1, 0.3, 8))
        verdict = verify_limit_nonnegativity(family)
        assert verdict.passed and verdict.note is None, f"path {index}: {verdict.note}"


def test_limit_nonnegativity_shallow_ladder_negative_control():
    # A truncated two-step ladder with a huge top level leaves the limit
    # estimate far from converged; the certificate must fail.
    spec = SdeSpec(x0=0.5, a=1.0, b=0.0, sigma=1.2, hurst=H_QUARTER)
    noise = generate_fbm(TimeGrid(1.0, 512), H_QUARTER, SeedRecord(333, 7))
    family = build_family(spec, noise, EpsilonLadder(0.5, 0.5, 2))
    verdict = verify_limit_nonnegativity(family)
    print(
        f"shallow-ladder control: worst value {family.limit_min:.3f}, "
        f"gap {family.cauchy_gap:.3f}"
    )
    assert verdict == (
        False,
        -family.limit_min - family.cauchy_gap,
        f"limit estimate reaches {family.limit_min:.6g} at node {family.limit_argmin}",
    ), "shallow ladder should be flagged as unconverged"


# ---------------------------------------------------------------------------
# integral-identity residual and compensator
# ---------------------------------------------------------------------------


def test_singular_integral_constant_path():
    # a = 1, b = 0 and zero noise: the residual on [0, 1] is minus the
    # singular integral of s^{-1/2} / 2, whose value at t = 1 is 1.
    grid = TimeGrid(1.0, 2048)
    values = np.full(2049, 2.0)
    spec = make_spec(x0=2.0)
    residual = identity_residual(values, np.zeros(2049), spec, grid, 0, 2048, 2.0)
    assert residual[0] == 0.0
    assert -residual[-1] == pytest.approx(1.0, abs=1e-12)  # 2 / c with c = 2
    assert compute_compensator(hand_built_family([values] * 3)).flagged_nodes.size == 0


def test_identity_residual_reuses_one_read_only_kernel_per_grid():
    # The zero-level kernel is computed once per (grid, H) and shared, so it
    # must equal a fresh kernel_column and refuse writes.
    grid = TimeGrid(2.0**-20, 256)
    kernel = ladder_module._identity_kernel(grid, H_QUARTER)
    assert np.array_equal(kernel, kernel_column(grid, 0.0, H_QUARTER))
    assert ladder_module._identity_kernel(TimeGrid(2.0**-20, 256), H_QUARTER) is kernel
    assert ladder_module._identity_kernel(grid, HurstParam(0.45)) is not kernel
    with pytest.raises(ValueError, match="read-only"):
        kernel[0] = 1.0
    spec = make_spec(b=0.5, sigma=0.7)
    values = np.linspace(1.0, 1.5, 257)
    noise = np.linspace(0.0, 0.3, 257)
    residual = identity_residual(values, noise, spec, grid, 3, 200, 1.1)
    assert np.array_equal(residual, floored_residual(values, noise, spec, grid, 3, 200, 1.1, 1e-6))


def test_block_identity_residual_rows_equal_one_row_calls():
    # A (rows, nodes) block of _identity_rows with one grid per row: each row
    # equals the one-path call and the reference bit for bit, on a window from
    # the origin and on a restarted one, with the floor binding on some nodes.
    spec = make_spec(b=0.5, sigma=0.7)
    grids = [TimeGrid(horizon, 256) for horizon in (1.0, 2.0**-7, 0.5, 2.0**-7, 2.0**-20)]
    paths = [generate_fbm(TimeGrid(1.0, 256), H_QUARTER, SeedRecord(41, row)) for row in range(5)]
    values = np.array([path.values**2 + 1e-9 * row for row, path in enumerate(paths)])
    noise = np.array(
        [generate_fbm(grid, H_QUARTER, SeedRecord(42, r)).values for r, grid in enumerate(grids)]
    )
    for start, end, anchor in ((0, 256, 1.0), (3, 200, 0.4), (255, 256, 0.0)):
        kernels = np.array(
            [ladder_module._identity_kernel(grid, H_QUARTER)[start:end] for grid in grids]
        )
        steps = np.array([[grid.dt] for grid in grids])
        block = ladder_module._identity_rows(
            values[:, start : end + 1], noise[:, start : end + 1], kernels, steps, spec, anchor
        )
        assert block.shape == (len(grids), end - start + 1)
        for row, grid in enumerate(grids):
            alone = identity_residual(values[row], noise[row], spec, grid, start, end, anchor)
            reference = floored_residual(
                values[row], noise[row], spec, grid, start, end, anchor, 1e-6
            )
            assert np.array_equal(block[row], alone), (start, row)
            assert np.array_equal(alone, reference), (start, row)


def test_initial_identity_reads_a_prefix_of_the_whole_grid_residual():
    # The initial-identity window's residual is the prefix of the limit row's
    # whole-grid residual (a running sum's prefix is the running sum of the
    # prefix), so the result is the same whether the check computes the
    # family's residual or finds it already read, and equals the residual on
    # the window alone.
    # At sigma = 2 the windows end at nodes 264, 118, 1019 and 1482 of 2048.
    spec = make_spec(x0=0.5, a=0.5, b=0.5, sigma=2.0)
    grid = TimeGrid(1.0, 2048)
    for index in range(4):
        noise = generate_fbm(grid, H_QUARTER, SeedRecord(77, index))
        family = build_family(spec, noise, EpsilonLadder(0.1, 0.3, 8))
        whole = identity_residual(family.limit_estimate, noise.values, spec, grid, 0, 2048, spec.x0)
        alone = verify_initial_identity(build_family(spec, noise, EpsilonLadder(0.1, 0.3, 8)))
        assert alone.window_end_index < 1500
        assert np.array_equal(family.limit_residual, whole)
        assert verify_initial_identity(family) == alone
        window = identity_residual(
            family.limit_estimate, noise.values, spec, grid, 0, alone.window_end_index, spec.x0
        )
        assert np.array_equal(whole[: alone.window_end_index + 1], window)
        assert alone.sup_residual == float(np.abs(window).max())
        assert compute_compensator(family).values is family.limit_residual
        assert np.array_equal(compute_compensator(family).values, whole)


def test_singular_integral_closed_form_identity():
    # On the exact solution with b=0 the defining identity gives
    # a * I_t = X_t - x0; the discrete residual is pure quadrature error
    # and shrinks when the grid doubles.
    residuals = []
    for n in (1024, 2048, 4096):
        grid = TimeGrid(0.5, n)
        values = closed_form(grid.nodes(), 1.0, 1.0, 0.25)
        residual = identity_residual(values, np.zeros(n + 1), make_spec(), grid, 0, n, 1.0)
        residuals.append(np.abs(residual).max())
        family = hand_built_family([values] * 3, horizon=0.5, spec=make_spec())
        assert compute_compensator(family).flagged_nodes.size == 0
    print("singular-integral identity residuals:", [f"{r:.2e}" for r in residuals])
    assert residuals[0] < 2e-3
    assert residuals[2] < residuals[1] < residuals[0]


def test_singular_integral_floor_inactive_on_positive_path(monkeypatch):
    # Through the compensator, which evaluates the residual on the whole
    # grid and flags the nodes where the floor binds; the floor is
    # DEFAULT_FLOOR_SCALE * x0, halved here through the patch.
    grid = TimeGrid(1.0, 512)
    values = closed_form(grid.nodes(), 1.0, 1.0, 0.25)
    family = hand_built_family([values] * 3, spec=make_spec())
    full = compute_compensator(family)
    monkeypatch.setattr(ladder_module, "DEFAULT_FLOOR_SCALE", 5e-7)
    half = compute_compensator(family)
    assert (full.floor, half.floor) == (1e-6, 5e-7)
    assert np.array_equal(full.values, half.values)
    assert full.flagged_nodes.size == half.flagged_nodes.size == 0


def floored_residual(values, noise, spec, grid, start, end, anchor, floor) -> np.ndarray:
    """Reference of ``identity_residual`` on nodes start..end with the reciprocal floor given."""

    x = values[start : end + 1]
    kernel = kernel_column(grid, 0.0, spec.hurst)[start:end]
    singular = np.concatenate([[0.0], np.cumsum(kernel / np.maximum(x[1:], floor))])
    trapezoid = np.concatenate([[0.0], np.cumsum(0.5 * (x[1:] + x[:-1]) * grid.dt)])
    driver = spec.sigma * (noise[start : end + 1] - noise[start])
    return x - anchor - spec.a * singular + spec.b * trapezoid - driver


def test_identity_floor_has_one_owner(monkeypatch):
    # A path that dips to 1e-3 and x0 = 2: the default floor (2e-6) never
    # binds, the patched one (0.05 * x0 = 0.1) binds from node 199 on.  The
    # compensator, the initial-identity budget, the restart residual and the
    # Picard residual all follow ladder.DEFAULT_FLOOR_SCALE.  A family keeps
    # its residual once read, so each evaluation builds its own.
    grid = TimeGrid(1.0, 256)
    t = grid.nodes()
    values = 2.0 * (1.0 - t) ** 2 + 1e-3 * t
    spec = make_spec(x0=2.0, b=0.5)
    family = hand_built_family([values] * 3, spec=spec)
    noise = family.noise
    problem = LocalProblem(spec, noise, HolderEstimate(0.125, 0.0, grid))
    window_end = verify_initial_identity(family).window_end_index
    assert window_end == 256 - DEFAULT_MARGIN_STEPS

    def outcomes():
        family = hand_built_family([values] * 3, spec=spec)
        compensator = compute_compensator(family)
        return (
            compensator.floor,
            compensator.flagged_nodes.tolist(),
            compensator.values.tobytes(),
            verify_initial_identity(family).budget,
            restart_residual(values, noise, spec, 0, 256, margin_steps=1).profile.tobytes(),
            fixed_point_residual(problem, values),
        )

    def expected(floor):
        kernel = kernel_column(grid, 0.0, spec.hurst)[:window_end]
        reciprocal = 1.0 / np.maximum(values[: window_end + 1], floor)
        whole = floored_residual(values, noise.values, spec, grid, 0, 256, 2.0, floor)
        return (
            floor,
            (np.flatnonzero(values[1:] < floor) + 1).tolist(),
            whole.tobytes(),
            spec.a * float(np.sum(np.abs(np.diff(reciprocal)) * kernel)) + 2.0 * family.cauchy_gap,
            floored_residual(values, noise.values, spec, grid, 1, 255, values[1], floor).tobytes(),
            float(np.abs(whole).max()),
        )

    default = outcomes()
    assert default == expected(2e-6)
    assert default[1] == []
    monkeypatch.setattr(ladder_module, "DEFAULT_FLOOR_SCALE", 0.05)
    patched = outcomes()
    assert patched == expected(0.1)
    assert patched[1] == list(range(199, 257))
    assert all(a != b for a, b in zip(default, patched))


def test_compensator_deterministic_and_origin():
    # Ratio 0.3: the monotone tail beyond the deepest level is about 1.2x the
    # last gap, so the 2x-gap budget covers it (at ratio 0.5 the tail factor
    # is 2.4 and the same budget would not).
    family = deterministic_family(n=4096, horizon=1.0, ladder=EpsilonLadder(0.1, 0.3, 8))
    estimate = compute_compensator(family)
    assert estimate.values[0] == 0.0
    worst = np.abs(estimate.values).max()
    allowance = 2.0 * family.cauchy_gap + 1e-3  # quadrature tolerance
    print(f"deterministic compensator sup {worst:.3e} vs allowance {allowance:.3e}")
    assert worst <= allowance
    assert len(estimate.flagged_nodes) == 0


def test_compensator_needs_the_limit_row():
    (family,) = build_families(
        make_spec(), [zero_path(TimeGrid(1.0, 64), H_QUARTER)], EpsilonLadder(0.1, 0.5, 3),
        keep="none",
    )
    with pytest.raises(ValueError, match=r"keeps no limit row \(keep='none'\)"):
        compute_compensator(family)


def test_build_families_rejects_an_unknown_keep_choice():
    noise = zero_path(TimeGrid(1.0, 64), H_QUARTER)
    with pytest.raises(ValueError, match="keep must be 'none', 'limit' or 'levels', got 'all'"):
        list(build_families(make_spec(), [noise], EpsilonLadder(0.1, 0.5, 3), keep="all"))


def test_compensator_budget_property():
    spec = make_spec(b=0.5, sigma=2.0**-0.5)
    grid = TimeGrid(1.0, 2048)
    for index in range(4):
        noise = generate_fbm(grid, H_QUARTER, SeedRecord(77, index))
        family = build_family(spec, noise, EpsilonLadder(0.1, 0.3, 8))
        estimate = compute_compensator(family)
        budget = compensator_budget(family, estimate)
        assert estimate.values[0] == 0.0
        assert estimate.values.min() >= -budget, (
            f"path {index}: min {estimate.values.min():.3e} vs budget {budget:.3e}"
        )


# ---------------------------------------------------------------------------
# continuity in the regularization level
# ---------------------------------------------------------------------------


def test_eps_continuity_noise_shape_validation():
    spec = make_spec(b=0.5, sigma=2.0**-0.5)
    noise = zero_path(TimeGrid(1.0, 256), H_QUARTER)
    with pytest.raises(ValueError, match=r"noise_values must have shape \(paths, 257\)"):
        verify_eps_continuity(spec, noise.grid, noise.values)


@pytest.mark.parametrize("hurst_value", [0.05, 0.25, 0.45])
def test_eps_continuity_matches_the_scalar_oracle(hurst_value):
    # One batched call over a zero-noise row and six seeded rows equals, row
    # by row, the seven scalar solves; the rows include paths whose eps*
    # solution crosses zero and paths whose does not.
    hurst = HurstParam(hurst_value)
    spec = SdeSpec(x0=0.3, a=0.5, b=0.5, sigma=1.0, hurst=hurst)
    grid = TimeGrid(1.0, 512)
    offsets = [0.025, 0.0125, 0.00625]
    noises = [zero_path(grid, hurst)] + [
        generate_fbm(grid, hurst, SeedRecord(seed, index)) for seed in (3, 41) for index in range(3)
    ]
    results = verify_eps_continuity(spec, grid, np.array([noise.values for noise in noises]))
    assert len(results) == len(noises)
    for noise, result in zip(noises, results):
        assert result == eps_continuity_oracle(spec, noise, 0.05, offsets)
    minima = [solve_regularized(spec, 0.05, noise).values.min() for noise in noises]
    assert min(minima) < 0.0 < max(minima)


def test_eps_continuity_isolates_a_non_finite_row():
    spec = make_spec(b=0.5, sigma=2.0**-0.5)
    grid = TimeGrid(1.0, 512)
    offsets = [0.025, 0.0125, 0.00625]
    noises = [generate_fbm(grid, H_QUARTER, SeedRecord(5, index)) for index in range(3)]
    broken = noises[1].values.copy()
    broken[200] = np.inf
    noises[1] = FbmPath(grid, broken, H_QUARTER, SeedRecord(5, 1), "circulant")

    results = verify_eps_continuity(spec, grid, np.array([noise.values for noise in noises]))
    with pytest.raises(SolverError) as expected:
        solve_regularized(spec, 0.05, noises[1])
    assert isinstance(results[1], SolverError)
    assert str(results[1]) == str(expected.value)
    assert results[1].step_index == expected.value.step_index == 200
    for index in (0, 2):
        assert results[index] == eps_continuity_oracle(spec, noises[index], 0.05, offsets)


def test_identical_level_has_zero_gap():
    # Trivial content of the h -> 0 limit: solving at the same level twice is
    # bit-identical, so the sup gap at offset 0 is exactly 0.
    spec = make_spec(b=0.5, sigma=2.0**-0.5)
    noise = generate_fbm(TimeGrid(1.0, 256), H_QUARTER, SeedRecord(2, 0))
    first = solve_regularized(spec, 0.05, noise)
    second = solve_regularized(spec, 0.05, noise)
    assert np.abs(first.values - second.values).max() == 0.0


def test_eps_continuity_deterministic_gaps_decrease():
    spec = make_spec(b=0.0, sigma=1.0)
    noise = zero_path(TimeGrid(1.0, 2048), H_QUARTER)
    (result,) = verify_eps_continuity(spec, noise.grid, noise.values[None])
    plus = [row[1] for row in result.rows]
    minus = [row[2] for row in result.rows]
    print(f"deterministic eps-continuity gaps: plus {plus}, minus {minus}")
    assert all(plus[i + 1] < plus[i] for i in range(len(plus) - 1))
    assert all(minus[i + 1] < minus[i] for i in range(len(minus) - 1))
    assert result.passes


@pytest.mark.parametrize("nudged", [False, True])
def test_eps_continuity_passes_on_its_exact_boundary(nudged, monkeypatch):
    # Planted probe rows whose gaps equal the offsets: eps* is 0 and the row
    # of eps* +/- h_k is +/- h_k at node 2, so every gap is linear in h and
    # the last is exactly a quarter of the first.  The rule is <=, so that
    # passes with violation 0; one ulp more on the last gap fails.
    spec = make_spec(b=0.5, sigma=1.0)
    grid = TimeGrid(1.0, 4)
    h1, h2, h3 = ladder_module._PROBE_OFFSETS
    values = np.zeros((1, ladder_module._PROBE_LEVELS.size, 5))
    for row, h in enumerate((h1, h2, np.nextafter(h3, 1.0) if nudged else h3)):
        values[0, 1 + 2 * row, 2] = h
        values[0, 2 + 2 * row, 2] = -h
    monkeypatch.setattr(ladder_module, "_integrate_batch", _replay(values, 4))
    (result,) = verify_eps_continuity(spec, grid, zero_path(grid, H_QUARTER).values[None])
    ctx = SimpleNamespace(family=SimpleNamespace(eps_continuity=result))
    verdict = harness_module._check_eps_continuity(None, ctx)
    assert result.first_gap == h1
    if not nudged:
        assert result.last_gap == result.first_gap / 4.0 and result.passes
        assert verdict == (True, 0.0, None)
        return
    assert result.both_nonincreasing and not result.passes
    assert not verdict.passed and verdict.violation == np.nextafter(h3, 1.0) - h3  # 8.67e-19
    assert verdict.note.startswith("final gap 6.250e-03 exceeds a quarter of the first gap")


def test_eps_continuity_monte_carlo_sample():
    spec = make_spec(b=0.5, sigma=2.0**-0.5)
    grid = TimeGrid(1.0, 2048)
    noises = [generate_fbm(grid, H_QUARTER, SeedRecord(777, index)) for index in range(3)]
    results = verify_eps_continuity(spec, grid, np.array([noise.values for noise in noises]))
    for index, result in enumerate(results):
        ratio = result.first_gap / result.last_gap
        assert result.passes, f"path {index}: first/last ratio {ratio:.2f}"
