"""Campaign harness tests: strict config validation, semantic hashing,
deterministic reports and artifacts, per-path failure isolation, and the
command-line front end.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import singsde

from singsde import (
    CHECK_ORDER,
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    FbmGenerationError,
    HurstParam,
    SeedRecord,
    PicardBandError,
    SolverError,
    build_families,
    build_family,
    config_digest,
    config_from_dict,
    generate_fbm,
    load_config,
    read_csv_with_meta,
    render_report_table,
    run_campaign,
    zero_path,
)

from singsde import cli as cli_module
from singsde import fbm as fbm_module
from singsde import harness as harness_module
from singsde import ladder as ladder_module
from singsde.cli import cli_dispatch
from singsde.excursions import DEFAULT_MARGIN_STEPS

from _support import canonical_report, contraction_oracle, csv_digests, family_reductions

H_QUARTER = HurstParam(0.25)
# the checks of the frozen ladder-14 campaign: none reads the limit row whole
ROWLESS_CHECKS = [
    "ordering",
    "nested-zero-sets",
    "upper-bound",
    "measure-decay",
    "measure-decay-mean",
    "limit-nonneg",
]
ROW_READING_CHECKS = ["compensator", "excursion-endpoints", "initial-identity", "restart-refinement"]


def config_dict(**overrides) -> dict:
    """A small, valid baseline config; overrides replace whole sections."""

    base = {
        "spec": {"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
        "grid": {"horizon": 1.0, "steps": 256},
        "ladder": {"eps0": 0.1, "ratio": 0.5, "depth": 4},
        "seeds": {"master_seed": 7, "path_count": 1},
    }
    base.update(overrides)
    return base


def make_config(**overrides) -> ExperimentConfig:
    return config_from_dict(config_dict(**overrides))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_unknown_and_missing_keys_are_named():
    with pytest.raises(ValueError, match="unknown config keys: extra"):
        config_from_dict(config_dict(extra=1))
    with pytest.raises(ValueError, match="missing config keys: grid, ladder, seeds, spec"):
        config_from_dict({})
    with pytest.raises(ValueError, match="missing spec keys: sigma"):
        bad = config_dict()
        del bad["spec"]["sigma"]
        config_from_dict(bad)
    with pytest.raises(ValueError, match="unknown ladder keys: rate"):
        config_from_dict(config_dict(ladder={"eps0": 0.1, "ratio": 0.5, "depth": 4, "rate": 2}))
    with pytest.raises(ValueError, match="grid.steps must be an integer"):
        config_from_dict(config_dict(grid={"horizon": 1.0, "steps": 256.0}))


def test_tolerance_validation():
    # tol_mono is the one tolerance: it accepts 0 — a zero tolerance is the
    # negative control — but no negative or non-finite value.
    assert DEFAULT_TOLERANCES == {"tol_mono": 1e-12}
    assert make_config().tolerances == {"tol_mono": 1e-12}
    assert make_config(tolerances={"tol_mono": 0.0}).tolerances == {"tol_mono": 0.0}
    with pytest.raises(ValueError, match="^tolerances.tol_mono must be nonnegative, got -1e-12$"):
        make_config(tolerances={"tol_mono": -1e-12})
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^tolerances.tol_mono must be finite"):
            make_config(tolerances={"tol_mono": bad})
    with pytest.raises(ValueError, match="^tolerances.tol_mono must be a number"):
        make_config(tolerances={"tol_mono": True})
    # every other pass-rule constant is fixed beside its check, so naming one
    # is an unknown key, as is measure-decay's former absolute threshold
    removed = (
        "tol_bound",
        "tol_nonneg",
        "picard_tolerance",
        "eps_star",
        "consistency_extra",
        "contraction_slack",
        "margin_steps",
        "min_window_nodes",
        "window_steps",
        "endpoint_approach_nodes",
        "measure_last_max",
        "bogus",
    )
    for key in removed:
        with pytest.raises(ValueError, match=f"^unknown tolerances keys: {key}$"):
            make_config(tolerances={key: 1})


def test_readme_campaign_config_matches_the_code():
    # The README's example config names every key and must validate; its
    # table of pass-rule constants must give the values the checks use.
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as handle:
        section = handle.read().split("## Campaign config\n", 1)[1].split("\n## ", 1)[0]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    keys = harness_module._TOP_LEVEL_REQUIRED + harness_module._TOP_LEVEL_OPTIONAL
    assert sorted(example) == sorted(keys)
    config = config_from_dict(example)
    assert config.tolerances == DEFAULT_TOLERANCES
    assert config.checks == CHECK_ORDER
    # the one allowance, stated in the text beside the block
    assert harness_module._ALLOWANCES == {"compensator": 0.05}
    assert "`compensator` allows 5% of the paths to fail" in section
    rows = re.findall(r"^\| [^|]+ \| `(\w+)\.(\w+)` \| ([^|]+) \|", section, re.M)
    assert len(rows) == 9
    for module, name, value in rows:
        constant = getattr(importlib.import_module(f"singsde.{module}"), name)
        assert constant == float(value), f"{module}.{name}: code {constant}, README {value}"


def test_allowance_validation():
    # The allowances are fixed beside the checks: compensator may fail on 5%
    # of the paths, rounded down, and every other check on none.  A config
    # cannot set them.
    for path_count in (1, 19, 20, 64, 100):
        config = make_config(seeds={"master_seed": 7, "path_count": path_count})
        assert config.allowed_failures("compensator") == math.floor(0.05 * path_count)
        assert all(
            config.allowed_failures(check) == 0 for check in CHECK_ORDER if check != "compensator"
        )
    with pytest.raises(ValueError, match="^unknown config keys: allowances$"):
        make_config(allowances={"compensator": 0.05})


def test_check_list_validation():
    config = make_config(checks=["upper-bound", "ordering"])
    assert config.checks == ("ordering", "upper-bound")  # canonical order restored
    with pytest.raises(ValueError, match="unknown checks: bogus"):
        make_config(checks=["bogus"])
    with pytest.raises(ValueError, match="checks must not repeat"):
        make_config(checks=["ordering", "ordering"])
    with pytest.raises(ValueError, match="at least one check"):
        make_config(checks=[])
    with pytest.raises(ValueError, match="checks must be a list of check ids"):
        make_config(checks="ordering")


def test_structural_validation():
    with pytest.raises(ValueError, match="path_count must be a positive integer"):
        make_config(seeds={"master_seed": 7, "path_count": 0})
    with pytest.raises(ValueError, match="ladder depth must be at least 2"):
        make_config(ladder={"eps0": 0.1, "ratio": 0.5, "depth": 1})
    with pytest.raises(ValueError, match="zero_noise must be a boolean"):
        config_from_dict(config_dict(zero_noise="yes"))
    # campaigns draw circulant noise unless zero_noise is set: there is no
    # generator to choose, so a method key is unknown
    for method in ("circulant", "zero", "cholesky"):
        with pytest.raises(ValueError, match="^unknown config keys: method$"):
            make_config(method=method)


def test_direct_construction_validates_like_config_from_dict():
    # ExperimentConfig itself is the one validation pass, so building it
    # directly raises exactly what the JSON path raises.
    base = make_config()
    fields = dict(
        spec=base.spec,
        grid=base.grid,
        ladder=base.ladder,
        master_seed=base.master_seed,
        path_count=base.path_count,
    )
    cases = [
        ({"tolerances": {"bogus": 1.0}}, "unknown tolerances keys: bogus"),
        ({"checks": ("ordering", "ordering")}, "checks must not repeat"),
        ({"checks": "ordering"}, "checks must be a list of check ids"),
        ({"path_count": True}, "path_count must be a positive integer, got True"),
        ({"zero_noise": "no"}, "zero_noise must be a boolean, got 'no'"),
        ({"save_families": 0}, "save_families must be a boolean, got 0"),
        ({"output_dir": 5}, "output_dir must be a string, got 5"),
    ]
    for override, message in cases:
        with pytest.raises(ValueError) as direct:
            ExperimentConfig(**{**fields, **override})
        if "path_count" in override:
            override = {"seeds": {"master_seed": base.master_seed, **override}}
        with pytest.raises(ValueError) as parsed:
            make_config(**override)
        assert str(direct.value) == str(parsed.value) == message
    # the parsed path always builds these three; direct construction checks them
    for name in ("spec", "grid", "ladder"):
        with pytest.raises(ValueError, match=f"^{name} must be a .+, got None$"):
            ExperimentConfig(**{**fields, name: None})
    direct_config = ExperimentConfig(**fields, tolerances={"tol_mono": 0})
    assert direct_config.tolerances == make_config(tolerances={"tol_mono": 0}).tolerances
    assert direct_config.tolerances["tol_mono"] == 0.0


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_dict()), encoding="utf-8")
    config = load_config(path)
    assert config.spec.b == 0.5
    assert config.grid.step_count == 256
    bad = tmp_path / "list.json"
    bad.write_text("[]", encoding="utf-8")
    with pytest.raises(ValueError, match="config file must contain a JSON object"):
        load_config(bad)


def test_output_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("SINGSDE_OUTPUT_DIR", str(tmp_path / "envdir"))
    config = config_from_dict(config_dict())
    assert config.output_dir == str(tmp_path / "envdir")
    explicit = config_from_dict(config_dict(output_dir=str(tmp_path / "explicit")))
    assert explicit.output_dir == str(tmp_path / "explicit")


def test_digest_covers_semantics_only():
    base = make_config()
    assert config_digest(base) == config_digest(make_config(output_dir="elsewhere"))
    assert config_digest(base) == config_digest(make_config(save_families=True))
    changed = config_dict()
    changed["spec"]["sigma"] = 1.1
    assert config_digest(base) != config_digest(config_from_dict(changed))
    assert config_digest(base) != config_digest(make_config(zero_noise=True))


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def smoke_config(out_dir, **overrides) -> ExperimentConfig:
    """The all-green stochastic smoke campaign (resolved-noise regime)."""

    data = config_dict(
        spec={"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 2.0**-0.5, "hurst": 0.25},
        grid={"horizon": 1.0, "steps": 2048},
        ladder={"eps0": 0.1, "ratio": 0.3, "depth": 8},
        seeds={"master_seed": 77, "path_count": 4},
        output_dir=str(out_dir),
    )
    data.update(overrides)
    return config_from_dict(data)


def test_zero_noise_campaign_is_all_green(tmp_path):
    config = config_from_dict(
        config_dict(
            spec={"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
            grid={"horizon": 1.0, "steps": 2048},
            ladder={"eps0": 0.1, "ratio": 0.3, "depth": 10},
            seeds={"master_seed": 2026, "path_count": 1},
            zero_noise=True,
            output_dir=str(tmp_path / "zero"),
        )
    )
    report = run_campaign(config)
    for name, record in report.checks.items():
        print(
            f"zero-noise {name}: pass {record.pass_count} fail {record.fail_count} "
            f"worst {record.worst_violation}"
        )
        assert record.fail_count == 0, f"{name} fails under zero noise: {record.failures}"
    assert report.overall_pass
    assert tuple(report.checks) == CHECK_ORDER


def test_smoke_campaign_passes_and_writes_artifacts(tmp_path):
    out = tmp_path / "smoke"
    report = run_campaign(smoke_config(out))
    for name, record in report.checks.items():
        assert record.fail_count == 0, f"{name}: {record.failures}"
        if name != "measure-decay-mean":
            assert record.pass_count == 4
    assert report.overall_pass
    assert report.path_count == 4

    assert (out / "report.json").exists()
    assert (out / "checks.csv").exists()
    assert (out / "config_echo.json").exists()
    assert (out / "excursions.csv").exists()

    stored = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert stored["overall_pass"] is True
    assert stored["config_hash"] == report.config_hash
    assert stored["format_version"] == 1
    assert set(stored["checks"]) == set(CHECK_ORDER)

    echo = json.loads((out / "config_echo.json").read_text(encoding="utf-8"))
    assert echo["config_hash"] == report.config_hash
    assert echo["spec"]["sigma"] == 2.0**-0.5
    assert echo["output_dir"] == str(out)

    # checks.csv carries a string key column, so parse it by hand
    lines = (out / "checks.csv").read_text(encoding="utf-8").strip().splitlines()
    meta = dict(
        line[1:].strip().split("=", 1) for line in lines if line.startswith("#")
    )
    body = [line for line in lines if not line.startswith("#")]
    assert meta["config_hash"] == report.config_hash
    assert meta["overall_pass"] == "True"
    # one row per check and no timing column, so the file is reproducible
    assert body[0] == "check,pass_count,fail_count,allowed_failures,worst_violation,tolerance"
    assert [row.split(",")[0] for row in body[1:]] == list(CHECK_ORDER)


def test_campaign_csvs_read_back_numeric_columns_only(tmp_path):
    # checks.csv has a text column, so the reader refuses it at the first
    # check name, naming the file, line and column; excursions.csv reads.
    out = tmp_path / "excursions"
    run_campaign(smoke_config(out, checks=["excursion-endpoints"]))
    checks_csv = out / "checks.csv"
    message = f"{checks_csv}, line 8, column 'check': 'excursion-endpoints' is not a number"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        read_csv_with_meta(checks_csv)
    meta, names, matrix = read_csv_with_meta(out / "excursions.csv")
    assert names == list(harness_module._EXCURSION_COLUMNS)
    assert matrix.shape[1] == len(names) and len(matrix) >= 4
    assert sorted(set(matrix[:, 0])) == [0.0, 1.0, 2.0, 3.0]
    assert meta["path_count"] == "4"


def test_campaign_reports_are_deterministic(tmp_path):
    first = run_campaign(
        smoke_config(
            tmp_path / "one",
            seeds={"master_seed": 123, "path_count": 2},
            grid={"horizon": 1.0, "steps": 1024},
            save_families=True,
        )
    )
    second = run_campaign(
        smoke_config(
            tmp_path / "two",
            seeds={"master_seed": 123, "path_count": 2},
            grid={"horizon": 1.0, "steps": 1024},
            save_families=True,
        )
    )
    assert canonical_report(first) == canonical_report(second)
    assert first.config_hash == second.config_hash

    # Every CSV the campaign writes is byte-identical across runs; checks.csv
    # carries no timing.
    digests = csv_digests(tmp_path / "one")
    assert sorted(digests) == [
        "checks.csv", "excursions.csv", "families/path_00000.csv", "families/path_00001.csv"
    ]
    assert digests == csv_digests(tmp_path / "two")
    meta, _, _ = read_csv_with_meta(tmp_path / "one" / "families" / "path_00000.csv")
    assert meta["config_hash"] == first.config_hash


def test_campaign_report_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # Seven paths on the hot (sigma = 1) spec, so several checks record
    # failures: solved all in one chunk, one path per chunk, and 3 + 3 + 1.
    # Every check keeps the limit row; ladder-14's checks keep no row, so a
    # chunk of three paths holds half the values.  At seed 77 eps-continuity
    # fails on paths 0 and 1, so its batched per-chunk verdicts are compared
    # across the splits too.
    def run(name, **checks):
        return canonical_report(
            run_campaign(
                smoke_config(
                    tmp_path / name,
                    spec={"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
                    grid={"horizon": 1.0, "steps": 512},
                    ladder={"eps0": 0.1, "ratio": 0.5, "depth": 5},
                    seeds={"master_seed": 77, "path_count": 7},
                    **checks,
                )
            )
        )

    for rows, checks in ((2, {}), (1, {"checks": ROWLESS_CHECKS})):
        monkeypatch.undo()
        default = run(f"default-{rows}", **checks)
        monkeypatch.setattr(ladder_module, "_CHUNK_VALUES", 1)
        one_path = run(f"one-{rows}", **checks)
        monkeypatch.setattr(ladder_module, "_CHUNK_VALUES", 3 * rows * 513)
        three_paths = run(f"three-{rows}", **checks)
        assert default == one_path == three_paths
        if not checks:
            assert sum(record["fail_count"] for record in default["checks"].values()) > 0
            assert default["checks"]["eps-continuity"]["fail_count"] >= 1


def recorded_family_builds(monkeypatch) -> list[tuple[str, list]]:
    """(keep, families) of each family build a campaign makes, appended as it starts."""

    build = harness_module.build_families
    builds: list[tuple[str, list]] = []

    def recording(spec, noises, ladder, **kwargs):
        families: list = []
        builds.append((kwargs["keep"], families))
        for family in build(spec, noises, ladder, **kwargs):
            families.append(family)
            yield family

    monkeypatch.setattr(harness_module, "build_families", recording)
    return builds


def test_campaign_families_keep_only_the_rows_their_checks_read(tmp_path, monkeypatch):
    # ladder-14's checks read no row whole, so its families keep none; adding
    # any one check that reads the limit row keeps that row, and
    # save_families keeps every level.
    cases = [(ROWLESS_CHECKS, False, "none")]
    cases += [(ROWLESS_CHECKS + [check], False, "limit") for check in ROW_READING_CHECKS]
    cases += [(ROWLESS_CHECKS, True, "levels")]
    builds = recorded_family_builds(monkeypatch)
    for number, (checks, save, keep) in enumerate(cases):
        builds.clear()
        run_campaign(
            make_config(
                checks=checks,
                save_families=save,
                seeds={"master_seed": 7, "path_count": 2},
                output_dir=str(tmp_path / str(number)),
            )
        )
        ((kept, families),) = builds
        assert kept == keep and len(families) == 2
        for family in families:
            assert (family.limit_estimate is None) == (keep == "none")
            assert (family.values is None) == (keep != "levels")


def counted_chunks(monkeypatch) -> list[int]:
    """The number of paths of each run of the ladder's step loop, appended as it starts."""

    solve = ladder_module._integrate_batch
    chunks: list[int] = []

    def counted(spec, groups, noise_rows):
        chunks.append(len(noise_rows))
        return solve(spec, groups, noise_rows)

    monkeypatch.setattr(ladder_module, "_integrate_batch", counted)
    return chunks


def test_a_rowless_campaign_chunk_holds_twice_the_paths(tmp_path, monkeypatch):
    # Four paths' worth of rows per chunk: four noise rows, or two noise
    # rows and their two limit rows.
    monkeypatch.setattr(ladder_module, "_CHUNK_VALUES", 4 * 257)
    chunks = counted_chunks(monkeypatch)
    for checks in (ROWLESS_CHECKS, ROWLESS_CHECKS + ["compensator"]):
        run_campaign(
            make_config(
                checks=checks,
                seeds={"master_seed": 7, "path_count": 8},
                output_dir=str(tmp_path / str(len(checks))),
            )
        )
    assert chunks == [4, 4] + [2, 2, 2, 2]


def test_ladder_14_solves_its_paths_in_one_step_loop(tmp_path, monkeypatch):
    # The frozen 100-path, 2^14-step shared-noise campaign keeps no row, so
    # all of its paths fit in one chunk and one run of the step loop.
    chunks = counted_chunks(monkeypatch)
    report = run_campaign(
        make_config(
            grid={"horizon": 1.0, "steps": 2**14},
            ladder={"eps0": 0.1, "ratio": 0.5, "depth": 10},
            checks=ROWLESS_CHECKS,
            seeds={"master_seed": 12345, "path_count": 100},
            output_dir=str(tmp_path / "ladder-14"),
        )
    )
    assert chunks == [100]
    assert report.checks["limit-nonneg"].pass_count == 100


def test_restart_check_needs_the_limit_row():
    config = make_config(checks=["excursion-endpoints", "restart-refinement"])
    (family,) = build_families(
        config.spec, [zero_path(config.grid, config.spec.hurst)], config.ladder, keep="none"
    )
    context = harness_module._PathContext(index=0, family=family)
    with pytest.raises(ValueError, match=r"keeps no limit row \(keep='none'\)"):
        harness_module._check_restart_refinement(config, context)


def test_restart_excursions_always_keep_a_residual_window():
    # Every excursion long enough for restart-refinement keeps nodes between
    # its two margins, so the check tests the length only.
    assert harness_module._MIN_WINDOW_NODES >= 2 * DEFAULT_MARGIN_STEPS + 2


def planted_drivers(monkeypatch, broken_substream: int, failures: dict[int, Exception]) -> None:
    """On one substream, make each path's draw outcome in ``failures`` that exception."""

    drivers = harness_module._drivers

    def planted(config, grids, indices, substream):
        for index, outcome in zip(indices, drivers(config, grids, indices, substream)):
            yield failures.get(index, outcome) if substream == broken_substream else outcome

    monkeypatch.setattr(harness_module, "_drivers", planted)


def test_noise_generation_failures_keep_path_order(tmp_path, monkeypatch):
    # Paths whose noise cannot be generated are recorded in index order among
    # the batched families, at the front, inside and after the last chunk.
    failures = {index: RuntimeError(f"no sample for path {index}") for index in (0, 2, 3, 5)}
    planted_drivers(monkeypatch, 0, failures)
    # two paths per chunk: upper-bound reads no row, so each keeps only its noise row
    monkeypatch.setattr(ladder_module, "_CHUNK_VALUES", 2 * 257)
    report = run_campaign(
        make_config(
            seeds={"master_seed": 7, "path_count": 6},
            checks=["upper-bound"],
            output_dir=str(tmp_path / "flaky"),
        )
    )
    record = report.checks["upper-bound"]
    assert record.pass_count == 2
    assert record.failures == tuple(
        f"path {index}: family construction failed: RuntimeError: no sample for path {index}"
        for index in (0, 2, 3, 5)
    )


def test_a_failed_draw_block_fails_each_of_its_paths(tmp_path, monkeypatch):
    # Noise is drawn in blocks of paths; a block whose draw raises records
    # that exception for each of its paths, in index order, and the paths
    # of the other blocks keep the families they get when nothing fails.
    # With the helper thread (two CPUs) the blocks' call order is not
    # defined, only their partition and the order paths are handed out in.
    monkeypatch.setattr(fbm_module, "_BLOCK_ENTRIES", 2 * 2 * 256)  # two 256-step paths a block
    generate_block = harness_module._generate_block
    blocks = []

    def planted(grids, hurst, seeds, substream):
        indices = [seed.path_index for seed in seeds]
        blocks.append(indices)
        if 2 in indices:
            raise RuntimeError("planted block failure")
        return generate_block(grids, hurst, seeds, substream)

    def campaign(name: str) -> dict:
        config = make_config(
            seeds={"master_seed": 7, "path_count": 5},
            checks=["upper-bound", "limit-nonneg"],
            output_dir=str(tmp_path / name),
        )
        return canonical_report(run_campaign(config))

    expected = campaign("clean")
    monkeypatch.setattr(harness_module, "_generate_block", planted)
    for cpus in (1, 2):
        monkeypatch.setattr(harness_module, "_available_cpus", lambda: cpus)
        blocks.clear()
        report = campaign(f"planted-{cpus}")
        assert sorted(blocks) == [[0, 1], [2, 3], [4]]
        for check in ("upper-bound", "limit-nonneg"):
            record = report["checks"][check]
            assert record["failures"] == [
                f"path {index}: family construction failed: RuntimeError: planted block failure"
                for index in (2, 3)
            ]
            assert record["pass_count"] == expected["checks"][check]["pass_count"] - 2


def draw_config(steps: int, path_count: int) -> ExperimentConfig:
    return make_config(
        grid={"horizon": 1.0, "steps": steps}, seeds={"master_seed": 7, "path_count": path_count}
    )


def drivers_of(config: ExperimentConfig, substream: int = 0):
    """The generator of every path's driver on the config's grid."""

    indices = list(range(config.path_count))
    return harness_module._drivers(config, [config.grid] * config.path_count, indices, substream)


def helper_threads() -> list:
    return [thread for thread in threading.enumerate() if thread.name == "singsde-draw"]


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-thread", "helper"])
@pytest.mark.parametrize(
    ("steps", "rows", "path_count"), [(2**14, 1, 5), (2**11, 8, 21)], ids=["2^14", "2^11"]
)
def test_drivers_hand_out_bit_identical_paths_in_index_order(
    monkeypatch, cpus, steps, rows, path_count
):
    # Whichever thread draws a block, each path equals the one drawn alone.
    monkeypatch.setattr(harness_module, "_available_cpus", lambda: cpus)
    assert fbm_module._block_rows(steps) == rows
    config = draw_config(steps, path_count)
    threads = []
    generate_block = harness_module._generate_block

    def recording(grids, hurst, seeds, substream):
        threads.append((seeds[0].path_index // rows, threading.current_thread().name))
        return generate_block(grids, hurst, seeds, substream)

    monkeypatch.setattr(harness_module, "_generate_block", recording)
    paths = list(drivers_of(config, substream=2))
    assert [path.seed_record.path_index for path in paths] == list(range(path_count))
    for index, path in enumerate(paths):
        alone = generate_fbm(config.grid, config.spec.hurst, SeedRecord(7, index), substream=2)
        assert np.array_equal(path.values, alone.values), index
    main = threading.current_thread().name
    blocks = range(-(-path_count // rows))
    expected = {(block, "singsde-draw" if cpus == 2 and block % 2 else main) for block in blocks}
    assert set(threads) == expected and len(threads) == len(blocks)


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-thread", "helper"])
@pytest.mark.parametrize("broken", [2, 3], ids=["even-block", "odd-block"])
def test_a_failed_draw_block_yields_its_exception_for_exactly_its_paths(
    monkeypatch, cpus, broken
):
    monkeypatch.setattr(harness_module, "_available_cpus", lambda: cpus)
    config = draw_config(2**11, 36)  # 8 paths a block: 5 blocks, the last of 4
    failure = RuntimeError("planted block failure")
    generate_block = harness_module._generate_block

    def planted(grids, hurst, seeds, substream):
        if seeds[0].path_index // 8 == broken:
            raise failure
        return generate_block(grids, hurst, seeds, substream)

    monkeypatch.setattr(harness_module, "_generate_block", planted)
    for index, outcome in enumerate(drivers_of(config)):
        if index // 8 == broken:
            assert outcome is failure, index
        else:
            alone = generate_fbm(config.grid, config.spec.hurst, SeedRecord(7, index))
            assert np.array_equal(outcome.values, alone.values), index


def test_the_helper_draws_at_most_one_block_ahead_of_the_consumer(monkeypatch):
    # One 256-step path a block.  The consumer dawdles over every path, so a
    # helper free to run ahead would; a block is started only once the block
    # two before it has been handed out.
    monkeypatch.setattr(harness_module, "_available_cpus", lambda: 2)
    monkeypatch.setattr(fbm_module, "_BLOCK_ENTRIES", 2 * 256)
    started = []
    generate_block = harness_module._generate_block

    def recording(grids, hurst, seeds, substream):
        started.append(seeds[0].path_index)
        return generate_block(grids, hurst, seeds, substream)

    monkeypatch.setattr(harness_module, "_generate_block", recording)
    for index, path in enumerate(drivers_of(draw_config(256, 12))):
        assert path.seed_record.path_index == index
        time.sleep(0.005)
        assert max(started) <= index + 1, (index, started)
    assert sorted(started) == list(range(12))


def test_interleaved_draws_under_rapid_thread_switching_keep_every_path(monkeypatch):
    # Three draws consumed in turn run three helpers beside the calling
    # thread, more threads than a two-CPU host has, with the interpreter
    # switching threads every microsecond: a lost or swapped block would
    # hand out a path out of order or unequal to the one drawn alone.
    monkeypatch.setattr(harness_module, "_available_cpus", lambda: 2)
    monkeypatch.setattr(fbm_module, "_BLOCK_ENTRIES", 2 * 256)
    configs = [
        make_config(
            seeds={"master_seed": seed, "path_count": 24}, grid={"horizon": 1.0, "steps": 256}
        )
        for seed in (3, 5, 8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        handed = [list(outcomes) for outcomes in zip(*(drivers_of(config) for config in configs))]
    finally:
        sys.setswitchinterval(interval)
    for index, paths in enumerate(handed):
        for config, path in zip(configs, paths):
            seed = SeedRecord(config.master_seed, index)
            alone = generate_fbm(config.grid, config.spec.hurst, seed)
            assert path.seed_record == alone.seed_record
            assert np.array_equal(path.values, alone.values), (config.master_seed, index)
    assert len(handed) == 24


def test_a_one_block_draw_starts_no_thread(monkeypatch):
    # A contraction round draws its 64 window drivers of 256 steps as one block.
    monkeypatch.setattr(harness_module, "_available_cpus", lambda: 2)
    before = threading.active_count()
    counts = []
    generate_block = harness_module._generate_block

    def recording(grids, hurst, seeds, substream):
        counts.append(threading.active_count())
        return generate_block(grids, hurst, seeds, substream)

    monkeypatch.setattr(harness_module, "_generate_block", recording)
    assert fbm_module._block_rows(256) == harness_module._CONTRACTION_BLOCK_PATHS
    assert len(list(drivers_of(draw_config(256, 64), substream=2))) == 64
    assert counts == [before]


@pytest.mark.parametrize("ending", ["close", "error"])
def test_a_generator_left_halfway_leaves_no_helper_alive(monkeypatch, ending):
    monkeypatch.setattr(harness_module, "_available_cpus", lambda: 2)
    drivers = drivers_of(draw_config(2**14, 6))
    for _ in range(3):
        next(drivers)
    assert len(helper_threads()) == 1
    if ending == "close":
        drivers.close()
    else:
        with pytest.raises(KeyboardInterrupt):
            drivers.throw(KeyboardInterrupt())
    assert helper_threads() == []


def test_compensator_and_initial_identity_share_one_residual_per_path(tmp_path, monkeypatch):
    # Both checks read the limit row's whole-grid identity residual, which
    # the family computes on first read and keeps, so once per path.  The
    # defect is planted beneath that cache: when the computation raises, both
    # checks record that exception for that path alone, and every other
    # record is unchanged.
    limit_residual = ladder_module.EpsilonFamily.limit_residual.func
    calls = []

    def planted(family):
        calls.append(family.noise.seed_record.path_index)
        if calls[-1] == 1:
            raise RuntimeError("planted residual failure")
        return limit_residual(family)

    def campaign(name: str) -> dict:
        config = make_config(
            seeds={"master_seed": 7, "path_count": 3},
            checks=["upper-bound", "compensator", "initial-identity"],
            output_dir=str(tmp_path / name),
        )
        return canonical_report(run_campaign(config))

    expected = campaign("clean")
    monkeypatch.setattr(ladder_module.EpsilonFamily.limit_residual, "func", planted)
    report = campaign("planted")
    assert calls == [0, 1, 1, 2]
    assert report["checks"]["upper-bound"] == expected["checks"]["upper-bound"]
    for check in ("compensator", "initial-identity"):
        record, clean = report["checks"][check], expected["checks"][check]
        others = [note for note in clean["failures"] if not note.startswith("path 1:")]
        assert record["failures"] == sorted(
            others + ["path 1: RuntimeError: planted residual failure"]
        )
        assert record["pass_count"] + record["fail_count"] == 3


def test_failures_are_isolated_per_check(tmp_path):
    # At sigma = 1.0 on this grid the regularization is under-resolved and the
    # eps-continuity check fails on both paths (first/last gap ratios 3.50 and
    # 2.91, below the required 4), but each failure is contained: every check
    # still reports on every path and the campaign finishes normally.
    config = smoke_config(
        tmp_path / "hot",
        spec={"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
        seeds={"master_seed": 77, "path_count": 2},
    )
    report = run_campaign(config)
    assert not report.overall_pass
    assert tuple(report.checks) == CHECK_ORDER
    for name, record in report.checks.items():
        expected_paths = 1 if name == "measure-decay-mean" else 2
        assert record.pass_count + record.fail_count == expected_paths
        print(f"sigma=1 {name}: fail {record.fail_count} of {expected_paths}")
    assert report.checks["eps-continuity"].fail_count == 2
    for quiet in (
        "ordering",
        "nested-zero-sets",
        "upper-bound",
        "measure-decay",
        "measure-decay-mean",
        "limit-nonneg",
        "compensator",
        "contraction",
        "excursion-endpoints",
        "initial-identity",
        "restart-refinement",
    ):
        assert report.checks[quiet].fail_count == 0, report.checks[quiet].failures


def test_zero_tol_mono_is_a_working_negative_control(tmp_path):
    # A ladder with ratio 1 - 1e-15 produces adjacent levels identical up to
    # rounding dust; tol_mono = 0 must flag that dust, the default must not.
    base = config_dict(
        spec={"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
        grid={"horizon": 1.0, "steps": 1024},
        ladder={"eps0": 0.1, "ratio": 1.0 - 1e-15, "depth": 4},
        seeds={"master_seed": 0, "path_count": 1},
        checks=["ordering"],
        output_dir=str(tmp_path / "strict"),
    )
    strict = config_from_dict({**base, "tolerances": {"tol_mono": 0.0}})
    strict_report = run_campaign(strict)
    record = strict_report.checks["ordering"]
    assert record.fail_count == 1
    assert re.search(r"\d+ nodes beyond tol_mono", record.failures[0])
    assert record.worst_violation is not None and 0.0 < record.worst_violation < 1e-13
    print(f"tol_mono=0 control: {record.failures[0]} (worst {record.worst_violation:.2e})")

    relaxed = config_from_dict({**base, "output_dir": str(tmp_path / "default")})
    assert run_campaign(relaxed).checks["ordering"].fail_count == 0


@pytest.mark.parametrize(
    "depth, digest, first_failures",
    [
        (
            4,
            "40e8fc8e76648c0afdb32eac9ec9be1cc6ab7f9fa4f1f4bc0d8e0662051e697b",
            {
                "ordering": (8, "path 0: 509 nodes beyond tol_mono"),
                "nested-zero-sets": (1, "path 6: containment breaks entering level 3"),
                "upper-bound": (8, "path 0: exceeds bound 3.42654 by 1.092e+32"),
                "measure-decay": (1, "path 6: measure increases by 3.906e-03 between adjacent levels"),
                "measure-decay-mean": (0, None),
                "limit-nonneg": (7, "path 0: limit estimate reaches -1.46687e+32 at node 256"),
            },
        ),
        (
            2,
            "93cc4a13da36a91fc63ff93949d203771fdf0af3e7d00b800083ef319528e258",
            {
                "ordering": (8, "path 0: 254 nodes beyond tol_mono"),
                "nested-zero-sets": (0, None),
                "upper-bound": (8, "path 0: exceeds bound 3.42654 by 1.092e+32"),
                "measure-decay": (0, None),
                "measure-decay-mean": (
                    1, "deepest-level mean 0.501465 does not fall below level-0 mean 0.501465"
                ),
                "limit-nonneg": (8, "path 0: limit estimate reaches -1.46554e+32 at node 256"),
            },
        ),
    ],
)
def test_failing_reduction_checks_keep_their_records(tmp_path, depth, digest, first_failures):
    # At b dt = 600/256 > 1 the step no longer keeps the levels ordered, and
    # the paths grow to about 1e32, so each reduction check fails somewhere.
    # No other pinned campaign fails one, so this pins their failure counts,
    # notes and violations: the digest covers every record of the report.
    config = make_config(
        spec={"x0": 0.2, "a": 0.02, "b": 600.0, "sigma": 1.0, "hurst": 0.25},
        ladder={"eps0": 0.5, "ratio": 0.5, "depth": depth},
        seeds={"master_seed": 3, "path_count": 8},
        checks=list(first_failures),
        output_dir=str(tmp_path / "out"),
    )
    report = run_campaign(config)
    assert {
        name: (record.fail_count, record.failures[0] if record.failures else None)
        for name, record in report.checks.items()
    } == first_failures
    rendered = json.dumps(
        canonical_report(report), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    assert hashlib.sha256(rendered.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "zero_noise, digest, csvs, fail_counts",
    [
        (
            False,
            "ae34ad21641314f51f9b03501c26af6eef14ae19ac8b66e0052ac6ba5489c960",
            {
                "checks.csv": "3eb99f5c476b571553eea546994310f443be0255052ad930ed94cffcea4c1253",
                "excursions.csv": "6b62ae0e30ce86b68e0bded92410d5b211f86c639b1a58b7236419f5e8740e80",
            },
            {"compensator": 12, "eps-continuity": 2},
        ),
        (
            True,
            "1fe66776a7e74123b3349f627160da108a18fe1b0a8ffb9c3c870789a639efd0",
            {
                "checks.csv": "c11a29a2d13ee1f294dca37bb62fe2425dd461f787aebbfce43982e18ebc2fb9",
                "excursions.csv": "ce3805c61bebd9a320f167834ba1f25a4339a4204a1199b06ebbafdbf57ae3d5",
            },
            {"compensator": 12},
        ),
    ],
)
def test_every_check_keeps_its_golden_records(tmp_path, zero_noise, digest, csvs, fail_counts):
    # The all-checks-11 spec on 2^11 steps, 12 paths at seed 99, every check,
    # with and without noise: the digest covers every record of the report
    # and the CSVs every exported value, so a refactor of contraction,
    # eps-continuity or the row checks that moves a bit is caught here.
    config = make_config(
        spec={"x0": 0.5, "a": 1.5, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
        grid={"horizon": 1.0, "steps": 2**11},
        ladder={"eps0": 0.1, "ratio": 0.4, "depth": 8},
        seeds={"master_seed": 99, "path_count": 12},
        checks=list(CHECK_ORDER),
        zero_noise=zero_noise,
        output_dir=str(tmp_path / "out"),
    )
    report = run_campaign(config)
    assert list(report.checks) == list(CHECK_ORDER)
    counts = {name: record.fail_count for name, record in report.checks.items()}
    assert {name: count for name, count in counts.items() if count} == fail_counts
    rendered = json.dumps(
        canonical_report(report), sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    assert hashlib.sha256(rendered.encode("utf-8")).hexdigest() == digest
    assert csv_digests(tmp_path / "out") == csvs


def test_solver_abort_is_recorded_not_raised(tmp_path):
    config = config_from_dict(
        config_dict(
            spec={"x0": 1.0, "a": 1.0, "b": 1e160, "sigma": 1.0, "hurst": 0.25},
            grid={"horizon": 1.0, "steps": 16},
            ladder={"eps0": 0.1, "ratio": 0.5, "depth": 2},
            seeds={"master_seed": 0, "path_count": 1},
            zero_noise=True,
            output_dir=str(tmp_path / "abort"),
        )
    )
    report = run_campaign(config)
    assert not report.overall_pass
    for name, record in report.checks.items():
        assert record.fail_count == 1, name
        if name in harness_module._FAMILY_CHECKS:
            assert "family construction failed: SolverError" in record.failures[0]
    # contraction reads no family: it records its own window's outcome
    (note,) = report.checks["contraction"].failures
    assert note.startswith("path 0: InfeasibleProblemError: no dyadic horizon")


def test_eps_continuity_solver_error_is_recorded_per_path(tmp_path, monkeypatch):
    # A probe level that breaks while the ladder solves is recorded as that
    # path's eps-continuity failure, with the scalar solver's message.  The
    # probe's levels follow the ladder's in the one step loop; the value
    # planted on path 0's eps* column at node 3 leaves the ladder intact.
    solve = ladder_module._integrate_batch
    eps_star_column = -(1 + 2 * len(ladder_module._PROBE_OFFSETS))

    def eps_star_breaks(spec, groups, noise_rows):
        ((_, eps_levels, _, _),) = groups
        assert eps_levels[eps_star_column] == 0.05
        for first, values in solve(spec, groups, noise_rows):
            if first <= 3 < first + len(values):
                values[3 - first, eps_star_column, 0] = np.nan
            yield first, values

    monkeypatch.setattr(ladder_module, "_integrate_batch", eps_star_breaks)
    report = run_campaign(
        make_config(
            seeds={"master_seed": 7, "path_count": 2},
            checks=["upper-bound", "eps-continuity"],
            output_dir=str(tmp_path / "probe"),
        )
    )
    record = report.checks["eps-continuity"]
    assert record.pass_count + record.fail_count == 2
    assert record.failures[0] == (
        "path 0: SolverError: non-finite state at step 3 (eps=0.05, dt=0.00390625)"
    )
    assert report.checks["upper-bound"].fail_count == 0


# ---------------------------------------------------------------------------
# the batched contraction check
# ---------------------------------------------------------------------------

ALL_CHECKS_SPEC = {"x0": 0.5, "a": 1.5, "b": 0.5, "sigma": 1.0, "hurst": 0.25}

# Specs on which the per-path oracle and the block must agree: the
# all-checks-11 spec at its frozen and held-out seeds, and as the benchmark
# runs it (64 paths, one block whose window ladders are 26 to 33 levels
# deep), zero noise, one spec each at H = 0.05 (where most paths are
# infeasible and the others fail the consistency comparison) and H = 0.45,
# a ladder whose window ladder underflows on every path, and one whose
# window ladder underflows only on the finer certified windows (one level
# deeper there), so that 6 of 16 paths fail and the others pass.
CONTRACTION_CASES = {
    "seed-99": {"seeds": {"master_seed": 99, "path_count": 16}},
    "all-checks-11": {"seeds": {"master_seed": 99, "path_count": 64}},
    "seed-4242": {"seeds": {"master_seed": 4242, "path_count": 16}},
    "zero-noise": {"zero_noise": True},
    "hurst-0.05": {"spec": {"x0": 1.0, "a": 0.01, "b": 0.5, "sigma": 0.3, "hurst": 0.05}},
    "hurst-0.45": {"spec": {**ALL_CHECKS_SPEC, "hurst": 0.45}},
    "window-ladder-underflow": {"ladder": {"eps0": 0.1, "ratio": 1e-80, "depth": 2}},
    "window-ladder-partial-underflow": {"ladder": {"eps0": 1e47, "ratio": 1e-58, "depth": 2}},
}


def contraction_config(out_dir, **overrides) -> ExperimentConfig:
    """A contraction-only campaign on the all-checks-11 spec, 16 paths."""

    data = config_dict(
        spec=ALL_CHECKS_SPEC,
        grid={"horizon": 1.0, "steps": 2048},
        ladder={"eps0": 0.1, "ratio": 0.4, "depth": 8},
        seeds={"master_seed": 99, "path_count": 16},
        checks=["contraction"],
        output_dir=str(out_dir),
    )
    data.update(overrides)
    return config_from_dict(data)


def as_record(outcome) -> tuple:
    """(passed, violation, note), with an exception turned into the runner's note."""

    if isinstance(outcome, Exception):
        return False, None, f"{type(outcome).__name__}: {outcome}"
    return outcome


def oracle_records(config: ExperimentConfig) -> list[tuple]:
    records = []
    for index in range(config.path_count):
        try:
            outcome = contraction_oracle(config, index)
        except Exception as exc:  # noqa: BLE001 - the runner's isolation policy
            outcome = exc
        records.append(as_record(outcome))
    return records


def block_records(config: ExperimentConfig) -> list[tuple]:
    return harness_module._contraction_block(config, range(config.path_count))


@pytest.mark.parametrize("case", sorted(CONTRACTION_CASES))
def test_contraction_block_matches_the_per_path_oracle(tmp_path, monkeypatch, case):
    config = contraction_config(tmp_path, **CONTRACTION_CASES[case])
    expected = oracle_records(config)
    window_families = {}
    verdict = harness_module._contraction_verdict

    def recording(problem, certificate, result, window_family):
        window_families[problem.noise.seed_record.path_index] = problem, window_family
        return verdict(problem, certificate, result, window_family)

    monkeypatch.setattr(harness_module, "_contraction_verdict", recording)
    assert block_records(config) == expected
    # A record reads its window family only through the consistency excess,
    # about 1e-3 below the violation it reports, so each path's family from
    # the block is also compared whole with the oracle's one-path build:
    # every reduction and the limit row, bit for bit.
    reached = [note is None or note.startswith(("measured", "fixed")) for _, _, note in expected]
    assert len(window_families) == sum(reached)
    for index, (problem, family) in window_families.items():
        ladder = harness_module._window_ladder(config.ladder, problem.grid.dt)
        oracle = build_family(
            config.spec, problem.noise, ladder, tol_mono=config.tolerances["tol_mono"]
        )
        assert family_reductions(family) == family_reductions(oracle), index
    print(f"{case}: {sum(passed for passed, _, _ in expected)} of {len(expected)} pass")
    if case == "window-ladder-partial-underflow":
        failed = [note for passed, _, note in expected if not passed]
        assert len(failed) == 6
        assert all(note.startswith("ValueError: the deepest level underflows") for note in failed)


def test_contraction_block_outcomes_cover_pass_fail_and_error():
    # The cases above reach every kind of outcome the check records.
    notes = set()
    for case in ("seed-99", "hurst-0.05"):
        for passed, _, note in oracle_records(contraction_config("unused", **CONTRACTION_CASES[case])):
            notes.add("pass" if passed else note.split(":")[0].split(" ")[0])
    assert {"pass", "fixed", "InfeasibleProblemError"} <= notes


def test_a_window_ladder_deeper_than_the_cap_fails_its_path(monkeypatch):
    # The certified windows of seed 99 have steps of about 4e-12 to 6e-11.
    # At ratio 0.9 a ladder from eps0 = 0.1 needs more than 200 levels to get
    # below such a step, far above the cap of 64: every path that reaches its
    # window ladder fails with the depth it needs, and builds no window family.
    # At ratio 0.4 it needs about 30, so the records are those of no cap.
    built = []
    build = harness_module.build_families

    def recording(spec, noises, ladder, **kwargs):
        noises = list(noises)
        built.extend(noise.seed_record.path_index for noise in noises)
        return build(spec, noises, ladder, **kwargs)

    monkeypatch.setattr(harness_module, "build_families", recording)
    shallow = block_records(contraction_config("unused"))
    reached = [note is None or note.startswith(("measured", "fixed")) for _, _, note in shallow]
    assert sum(reached) >= 8
    built.clear()
    fine_ratio = {"eps0": 0.1, "ratio": 0.9, "depth": 8}
    deep = block_records(contraction_config("unused", ladder=fine_ratio))
    assert built == []
    depth_note = re.compile(
        r"ValueError: the window ladder needs depth (\d+) to reach below the window step "
        r"(\S+), above the cap 64"
    )
    for index, (record, reference) in enumerate(zip(deep, shallow)):
        if not reached[index]:
            assert record == reference, index
            continue
        passed, violation, note = record
        match = depth_note.fullmatch(note)
        assert (passed, violation) == (False, None) and match, (index, note)
        assert int(match.group(1)) > 200 and float(match.group(2)) < 1e-10
    monkeypatch.setattr(harness_module, "_WINDOW_LADDER_MAX_DEPTH", 10**6)
    assert block_records(contraction_config("unused")) == shallow


def test_a_configured_ladder_deeper_than_the_cap_fails_each_window_path():
    # A window ladder is never shallower than the campaign's, so a campaign
    # ladder of depth 80 needs more levels than the cap of 64 on every path
    # that reaches its window ladder; the other paths keep their depth-8 records.
    shallow = block_records(contraction_config("unused"))
    deep_ladder = {"eps0": 0.1, "ratio": 0.4, "depth": 80}
    deep = block_records(contraction_config("unused", ladder=deep_ladder))
    depth_note = re.compile(
        r"ValueError: the window ladder needs depth 80 to reach below the window step "
        r"\S+, above the cap 64"
    )
    reached = 0
    for index, (record, reference) in enumerate(zip(deep, shallow)):
        if reference[2] is None or reference[2].startswith(("measured", "fixed")):
            reached += 1
            passed, violation, note = record
            assert (passed, violation) == (False, None) and depth_note.fullmatch(note), index
        else:
            assert record == reference, index
    assert reached >= 8


@pytest.mark.parametrize(
    "stage", ["driver", "every-driver", "picard", "picard-and-ladder", "window-family"]
)
def test_contraction_failure_is_isolated_to_its_path(tmp_path, monkeypatch, stage):
    # Paths break at one stage of the batched check; each records its own
    # exception note, and every other path's record equals the oracle's.
    # every-driver: no window draw succeeds, so no Hoelder scan runs and no
    # note is a block failure.  picard-and-ladder: a ratio-0.9 ladder puts
    # every window ladder above the depth cap, and the path whose Picard
    # solve fails keeps the Picard note, since its ladder is never built.
    fine_ratio = {"eps0": 0.1, "ratio": 0.9, "depth": 8}
    config = contraction_config(
        tmp_path, **({"ladder": fine_ratio} if stage == "picard-and-ladder" else {})
    )
    expected = oracle_records(config)
    broken = range(config.path_count) if stage == "every-driver" else [5]
    if stage in ("driver", "every-driver"):
        failure = FbmGenerationError("planted driver failure")
        planted_drivers(monkeypatch, 2, dict.fromkeys(broken, failure))
        note = "FbmGenerationError: planted driver failure"
    elif stage in ("picard", "picard-and-ladder"):
        solve_block = harness_module._solve_block

        def planted(problems, certificates, tolerance):
            outcomes = solve_block(problems, certificates, tolerance)
            return [
                PicardBandError("planted band escape")
                if problem.noise.seed_record.path_index in broken
                else outcome
                for problem, outcome in zip(problems, outcomes)
            ]

        monkeypatch.setattr(harness_module, "_solve_block", planted)
        note = "PicardBandError: planted band escape"
        if stage == "picard-and-ladder":
            assert expected[5][2].startswith("ValueError: the window ladder needs depth")
    else:
        build = harness_module.build_families

        def planted(spec, noises, ladder, **kwargs):
            noises = list(noises)
            for noise, outcome in zip(noises, build(spec, noises, ladder, **kwargs)):
                if ladder != config.ladder and noise.seed_record.path_index in broken:
                    outcome = SolverError("planted non-finite state", 7)
                yield outcome

        monkeypatch.setattr(harness_module, "build_families", planted)
        note = "SolverError: planted non-finite state"

    for index in broken:
        expected[index] = (False, None, note)
    assert block_records(config) == expected
    record = run_campaign(config).checks["contraction"]
    assert record.failures == tuple(
        f"path {index}: {text}" for index, (passed, _, text) in enumerate(expected) if not passed
    )
    assert record.pass_count == sum(passed for passed, _, _ in expected)


def test_contraction_block_failure_is_recorded_per_path(tmp_path, monkeypatch):
    # A failure of the work a block shares is each of its paths' failure; the
    # campaign and the other checks go on.
    def broken_scan(values, grids, beta):
        raise RuntimeError("planted scan failure")

    monkeypatch.setattr(harness_module, "estimate_holder", broken_scan)
    report = run_campaign(
        contraction_config(
            tmp_path,
            seeds={"master_seed": 99, "path_count": 3},
            checks=["upper-bound", "contraction"],
        )
    )
    assert report.checks["contraction"].failures == tuple(
        f"path {index}: RuntimeError: planted scan failure" for index in range(3)
    )
    assert report.checks["upper-bound"].fail_count == 0


def test_a_failed_family_build_leaves_the_contraction_record(tmp_path, monkeypatch):
    # The contraction check reads only the seeds: a path whose campaign noise
    # (substream 0) cannot be drawn fails upper-bound, which reads its
    # family, and keeps the contraction record the oracle gives it.
    config = contraction_config(
        tmp_path,
        seeds={"master_seed": 99, "path_count": 3},
        checks=["upper-bound", "contraction"],
    )
    expected = oracle_records(config)
    planted_drivers(monkeypatch, 0, {1: RuntimeError("planted noise failure")})
    assert harness_module._contraction_records(config)[1] == contraction_oracle(config, 1)
    report = run_campaign(config)
    record = report.checks["contraction"]
    assert record.pass_count == sum(passed for passed, _, _ in expected)
    assert record.failures == tuple(
        f"path {index}: {note}" for index, (passed, _, note) in enumerate(expected) if not passed
    )
    assert record.worst_violation == max(violation for _, violation, _ in expected)
    assert report.checks["upper-bound"].failures == (
        "path 1: family construction failed: RuntimeError: planted noise failure",
    )


def test_a_campaign_that_reads_no_family_builds_none(tmp_path, monkeypatch):
    # contraction reads only the seeds (its window solves are its own family
    # builds), so a contraction-only campaign builds no path family, and its
    # record equals that of a campaign that builds every family.
    # measure-decay-mean reads the families' measures, so it builds them.
    built = canonical_report(
        run_campaign(contraction_config(tmp_path / "built", checks=["upper-bound", "contraction"]))
    )
    path_families = harness_module._path_families
    started = []

    def recording(config):
        started.append(config.output_dir)
        return path_families(config)

    monkeypatch.setattr(harness_module, "_path_families", recording)
    run_campaign(contraction_config(tmp_path / "mean", checks=["contraction", "measure-decay-mean"]))
    assert started == [str(tmp_path / "mean")]

    def refuse(config):
        raise AssertionError("a path family build started")

    monkeypatch.setattr(harness_module, "_path_families", refuse)
    report = canonical_report(run_campaign(contraction_config(tmp_path / "none")))
    assert list(report["checks"]) == ["contraction"]
    assert report["checks"]["contraction"] == built["checks"]["contraction"]
    for key in ("package_version", "master_seed", "path_count", "overall_pass"):
        assert report[key] == built[key], key


def test_contraction_window_certification_that_does_not_stabilize(tmp_path, monkeypatch):
    # With one certification round, a path whose first trial window is not
    # covered by its certificate records the isolation note; the block and
    # the oracle agree path by path.  Every block record is a Verdict (a
    # bare tuple compares equal to one, so equality alone cannot tell).
    monkeypatch.setattr(harness_module, "_CONTRACTION_MAX_RECERTIFICATIONS", 1)
    config = contraction_config(tmp_path)
    expected = oracle_records(config)
    block = block_records(config)
    assert block == expected
    assert all(type(record) is ladder_module.Verdict for record in block)
    unstable = [i for i, record in enumerate(expected) if record[2] == "window certification did not stabilize"]
    assert unstable
    record = run_campaign(config).checks["contraction"]
    assert record.fail_count == len(unstable)
    assert f"path {unstable[0]}: window certification did not stabilize" in record.failures


def test_contraction_runs_one_window_solve_per_block(tmp_path, monkeypatch):
    # Guard against a return to per-path or per-window work, by call counts:
    # the window families of a block, on every certified window, are one
    # build_families call and one step loop, no build_family call is made,
    # the Hoelder scan and the window draw run once per round on a block of
    # every path still certifying, and Picard iterates every certified
    # window in one block.
    config = contraction_config(tmp_path)
    window_grids: list = []
    loop_grids: list = []
    scanned_rows: list[int] = []
    attempts: dict[int, int] = {}

    build = harness_module.build_families

    def counting_build(spec, noises, ladder, **kwargs):
        if ladder != config.ladder:
            noises = list(noises)
            window_grids.append({noise.grid for noise in noises})
        return build(spec, noises, ladder, **kwargs)

    solve = ladder_module._integrate_batch

    def counting_loop(spec, groups, noise_rows):
        loop_grids.append([grid for grid, *_ in groups])
        return solve(spec, groups, noise_rows)

    def no_build_family(*args, **kwargs):
        raise AssertionError("build_family called")

    scan = harness_module.estimate_holder

    def counting_scan(values, grids, beta):
        assert np.ndim(values) == 2
        scanned_rows.append(len(values))
        return scan(values, grids, beta)

    generate_block = harness_module._generate_block
    draw_blocks: list[int] = []

    def counting_generate(grids, hurst, seeds, substream):
        if substream == 2:
            draw_blocks.append(len(seeds))
            for seed in seeds:
                attempts[seed.path_index] = attempts.get(seed.path_index, 0) + 1
        return generate_block(grids, hurst, seeds, substream)

    solve_block = harness_module._solve_block
    picard_blocks: list[int] = []

    def counting_solve(problems, certificates, tolerance):
        picard_blocks.append(len(problems))
        return solve_block(problems, certificates, tolerance)

    monkeypatch.setattr(harness_module, "build_families", counting_build)
    monkeypatch.setattr(ladder_module, "build_families", counting_build)
    monkeypatch.setattr(harness_module, "build_family", no_build_family, raising=False)
    monkeypatch.setattr(ladder_module, "build_family", no_build_family)
    monkeypatch.setattr(harness_module, "estimate_holder", counting_scan)
    monkeypatch.setattr(harness_module, "_generate_block", counting_generate)
    monkeypatch.setattr(harness_module, "_solve_block", counting_solve)
    monkeypatch.setattr(ladder_module, "_integrate_batch", counting_loop)
    record = run_campaign(config).checks["contraction"]

    assert record.pass_count == 16
    (distinct,) = window_grids
    (groups,) = loop_grids
    assert len(groups) == len(distinct) >= 2 and set(groups) == distinct
    assert sorted(attempts) == list(range(16))
    assert len(scanned_rows) == max(attempts.values()) >= 2
    assert scanned_rows[0] == 16
    assert sum(scanned_rows) == sum(attempts.values())
    # every round draws its windows as one block, and Picard runs once
    assert draw_blocks == scanned_rows
    assert picard_blocks == [16]
    print(f"{len(distinct)} window grids in one solve, Hoelder blocks of {scanned_rows} rows")


def test_render_report_table(tmp_path):
    config = smoke_config(
        tmp_path / "table",
        grid={"horizon": 1.0, "steps": 512},
        seeds={"master_seed": 5, "path_count": 1},
        checks=["ordering", "upper-bound"],
    )
    report = run_campaign(config)
    table = render_report_table(report.to_json_dict())
    assert "overall      : PASS" in table
    assert "ordering" in table and "upper-bound" in table
    assert "statements:" in table
    # rendering the parsed report.json gives the same table
    stored = json.loads((tmp_path / "table" / "report.json").read_text(encoding="utf-8"))
    assert render_report_table(stored) == table


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_fbm_writes_path(tmp_path, capsys):
    out = tmp_path / "noise.csv"
    status = cli_dispatch(
        ["fbm", "--hurst", "0.25", "--steps", "8", "--seed", "3", "--out", str(out)]
    )
    assert status == 0
    meta, names, matrix = read_csv_with_meta(out)
    assert names == ["t", "value"]
    assert matrix.shape == (9, 2)
    assert matrix[0, 0] == 0.0 and matrix[0, 1] == 0.0
    assert meta["hurst"] == "0.25"
    assert "wrote" in capsys.readouterr().out


def test_cli_solve_matches_oracle(tmp_path):
    out = tmp_path / "solution.csv"
    status = cli_dispatch(
        [
            "solve", "--hurst", "0.25", "--steps", "4096", "--horizon", "0.5",
            "--method", "zero", "--eps", "1e-6", "--x0", "1", "--a", "1", "--b", "0",
            "--out", str(out),
        ]
    )
    assert status == 0
    _, names, matrix = read_csv_with_meta(out)
    assert names == ["t", "X_eps", "noise_value"]
    assert abs(matrix[-1, names.index("X_eps")] - 1.9566360) <= 2e-3


def test_cli_ladder_limit_matches_oracle(tmp_path):
    out = tmp_path / "family.csv"
    status = cli_dispatch(
        [
            "ladder", "--hurst", "0.25", "--steps", "4096", "--horizon", "0.5",
            "--method", "zero", "--eps0", "0.1", "--ratio", "0.5", "--depth", "14",
            "--x0", "1", "--a", "1", "--b", "0", "--out", str(out),
        ]
    )
    assert status == 0
    _, names, matrix = read_csv_with_meta(out)
    assert names[-1] == "limit_estimate"
    assert matrix[-1, 0] == 0.5  # final time node
    assert abs(matrix[-1, -1] - 1.9566360) <= 5e-3


def test_cli_verify_exit_codes(tmp_path, capsys):
    passing = config_dict(
        spec={"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
        grid={"horizon": 0.5, "steps": 512},
        ladder={"eps0": 0.1, "ratio": 0.3, "depth": 6},
        seeds={"master_seed": 1, "path_count": 1},
        zero_noise=True,
        checks=["ordering", "upper-bound", "limit-nonneg"],
        output_dir=str(tmp_path / "pass-out"),
    )
    passing_path = tmp_path / "passing.json"
    passing_path.write_text(json.dumps(passing), encoding="utf-8")
    assert cli_dispatch(["verify", "--config", str(passing_path)]) == 0

    failing = dict(passing)
    failing["ladder"] = {"eps0": 0.1, "ratio": 1.0 - 1e-15, "depth": 4}
    failing["tolerances"] = {"tol_mono": 0.0}
    failing["checks"] = ["ordering"]
    failing["zero_noise"] = False
    failing["grid"] = {"horizon": 1.0, "steps": 1024}
    failing["seeds"] = {"master_seed": 0, "path_count": 1}
    failing["output_dir"] = str(tmp_path / "fail-out")
    failing_path = tmp_path / "failing.json"
    failing_path.write_text(json.dumps(failing), encoding="utf-8")
    assert cli_dispatch(["verify", "--config", str(failing_path)]) == 1
    capsys.readouterr()

    # file errors exit 2 with one "error:" line that names the file
    missing = str(tmp_path / "missing.json")
    assert cli_dispatch(["verify", "--config", missing]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json", encoding="utf-8")
    assert cli_dispatch(["verify", "--config", str(malformed)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid config {malformed}: Expecting")
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(config_dict(extra=1)), encoding="utf-8")
    assert cli_dispatch(["verify", "--config", str(invalid)]) == 2
    assert capsys.readouterr().err == f"error: invalid config {invalid}: unknown config keys: extra\n"


def test_cli_report_rerenders(tmp_path, capsys):
    out_dir = tmp_path / "campaign"
    passing = config_dict(
        grid={"horizon": 0.5, "steps": 256},
        ladder={"eps0": 0.1, "ratio": 0.3, "depth": 4},
        zero_noise=True,
        checks=["ordering"],
        output_dir=str(out_dir),
    )
    config_path = tmp_path / "c.json"
    config_path.write_text(json.dumps(passing), encoding="utf-8")
    assert cli_dispatch(["verify", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["report", str(out_dir / "report.json")]) == 0
    assert "overall      : PASS" in capsys.readouterr().out
    missing = str(tmp_path / "nope.json")
    assert cli_dispatch(["report", missing]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"checks": ', encoding="utf-8")
    assert cli_dispatch(["report", str(malformed)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid report {malformed}: Expecting")


def test_cli_report_shows_checks_it_does_not_know(tmp_path, capsys):
    # A stored report may hold a check this version does not define; its
    # row, statement and failure notes follow the known checks.
    ordering = {"pass_count": 1, "statement": "levels stay ordered", "failures": []}
    later = {
        "fail_count": 1,
        "statement": "a check a later version adds",
        "failures": ["path 0: planted failure"],
    }
    stored = tmp_path / "report.json"
    data = {"overall_pass": False, "checks": {"later-check": later, "ordering": ordering}}
    stored.write_text(json.dumps(data), encoding="utf-8")
    assert cli_dispatch(["report", str(stored)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split()[0] for line in lines if line.startswith(("ordering ", "later-check "))]
    assert rows == ["ordering", "later-check"]
    assert "  later-check: a check a later version adds" in lines
    assert lines[-2:] == ["reported failures:", "  later-check: path 0: planted failure"]


def test_cli_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert cli_dispatch(["fbm", "--hurst", "0.25", "--bogus", "1", "--out", out]) == 2
    assert cli_dispatch(["fbm", "--hurst", "abc", "--out", out]) == 2
    assert cli_dispatch(["fbm", "--hurst", "0.7", "--out", out]) == 2  # out of domain
    assert cli_dispatch(["frobnicate"]) == 2
    assert cli_dispatch([]) == 2
    capsys.readouterr()
    # the generators are circulant and zero; cholesky is argparse's invalid choice
    argv = ["--hurst", "0.25", "--method", "cholesky", "--steps", "8", "--out", out]
    for command in (["fbm"], ["solve", "--eps", "0.01"]):
        assert cli_dispatch([*command, *argv]) == 2
        assert "argument --method: invalid choice: 'cholesky'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_file_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "missing-dir" / "x.csv")
    assert cli_dispatch(["fbm", "--hurst", "0.25", "--steps", "8", "--out", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: [Errno 2] No such file or directory: '{out}'")
    assert cli_dispatch(["fbm", "--hurst", "0.25", "--steps", "8", "--out", str(tmp_path)]) == 2


def test_cli_computation_errors_exit_1(tmp_path, capsys, monkeypatch):
    # A solve or a ladder whose state overflows, and a noise draw that
    # fails, are failed runs, not usage errors: status 1, one "error:" line
    # with the package's message, and no file written.
    out = tmp_path / "x.csv"
    extreme = ["--hurst", "0.25", "--steps", "64", "--a", "1e300", "--sigma", "1e300"]
    assert cli_dispatch(["solve", *extreme, "--eps", "1e-300", "--out", str(out)]) == 1
    expected = "error: non-finite state at step 1 (eps=1e-300, dt=0.015625)\n"
    assert capsys.readouterr().err == expected
    ladder = ["ladder", *extreme, "--eps0", "1e-300", "--depth", "2", "--out", str(out)]
    assert cli_dispatch(ladder) == 1
    assert capsys.readouterr().err == expected

    def failing_draw(grid, hurst, seed):
        raise FbmGenerationError("negative circulant eigenvalue")

    monkeypatch.setattr(cli_module, "generate_fbm", failing_draw)
    assert cli_dispatch(["fbm", "--hurst", "0.25", "--steps", "8", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: negative circulant eigenvalue\n"
    assert not out.exists()


def test_cli_report_rejects_a_report_of_the_wrong_shape(tmp_path, capsys):
    # valid JSON that is not a report is an invalid file (exit 2), not a failed campaign
    cases = [
        ("[1, 2]", "the top level must be a JSON object"),
        ('{"checks": {"ordering": 5}}', "checks must map check ids to JSON objects"),
        ('{"checks": ["ordering"]}', "checks must map check ids to JSON objects"),
        ('{"checks": {"ordering": {"pass_count": [1]}}}', "unsupported format string"),
        ('{"checks": {"ordering": {"failures": "path 0: bad"}}}', "failures must be a list of strings"),
        ('{"checks": {"ordering": {"failures": ["path 0: bad", 3]}}}', "failures must be a list of strings"),
    ]
    for index, (text, reason) in enumerate(cases):
        path = tmp_path / f"report_{index}.json"
        path.write_text(text, encoding="utf-8")
        assert cli_dispatch(["report", str(path)]) == 2, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: invalid report {path}: {reason}"), captured.err
        assert captured.err.count("\n") == 1


def test_cli_runs_as_a_module(tmp_path):
    out = tmp_path / "noise.csv"
    source_root = os.path.dirname(os.path.dirname(singsde.__file__))
    paths = [source_root, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
    argv = ["fbm", "--hurst", "0.25", "--steps", "8", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, "-m", "singsde.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert read_csv_with_meta(out)[2].shape == (9, 2)
    missing = str(tmp_path / "missing-dir" / "x.csv")
    done = subprocess.run(
        [sys.executable, "-m", "singsde.cli", *argv[:-1], missing],
        env=env, capture_output=True, text=True, timeout=120,
    )
    # importing the package does not load singsde.cli, so runpy has nothing to warn about
    assert done.returncode == 2
    assert done.stderr == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    assert "RuntimeWarning" not in done.stderr
