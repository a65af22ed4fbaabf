"""Campaign harness tests: strict config validation, semantic hashing,
deterministic reports and artifacts, per-path failure isolation, and the
command-line front end.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import singsde

from singsde import (
    CHECK_ORDER,
    DEFAULT_TOLERANCES,
    ExperimentConfig,
    HurstParam,
    SolverError,
    config_digest,
    config_from_dict,
    load_config,
    read_csv_with_meta,
    render_report_table,
    run_campaign,
)

from singsde import harness as harness_module
from singsde import ladder as ladder_module
from singsde.cli import cli_dispatch

from _support import canonical_report

H_QUARTER = HurstParam(0.25)


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
    # tol_* knobs accept 0 — a zero tolerance is the negative control — but
    # structural knobs must stay positive.
    config = make_config(tolerances={"tol_mono": 0.0})
    assert config.tolerances["tol_mono"] == 0.0
    assert config.tolerances["eps_star"] == DEFAULT_TOLERANCES["eps_star"]
    with pytest.raises(ValueError, match="picard_tolerance must be positive"):
        make_config(tolerances={"picard_tolerance": 0.0})
    with pytest.raises(ValueError, match="margin_steps must be a positive integer"):
        make_config(tolerances={"margin_steps": 0})
    with pytest.raises(ValueError, match="unknown tolerances keys: bogus"):
        make_config(tolerances={"bogus": 1.0})
    with pytest.raises(ValueError, match="tol_bound must be nonnegative"):
        make_config(tolerances={"tol_bound": -1e-9})
    # eps_star / 2 underflows to 0, so eps-continuity has no valid offsets
    with pytest.raises(
        ValueError, match="tolerances.eps_star = 5e-324 is unusable: offsets must be positive"
    ):
        make_config(tolerances={"eps_star": 5e-324})
    assert make_config(tolerances={"eps_star": 5e-324}, checks=["ordering"])
    # measure-decay sets no absolute threshold on the deepest level's measure,
    # and every tolerance the schema accepts has a default
    with pytest.raises(ValueError, match="unknown tolerances keys: measure_last_max"):
        make_config(tolerances={"measure_last_max": 0.1})
    assert set(harness_module._TOLERANCE_SCHEMA) == set(DEFAULT_TOLERANCES)


def test_allowance_validation():
    config = make_config(
        allowances={"ordering": 0.5}, seeds={"master_seed": 7, "path_count": 2}
    )
    assert config.allowed_failures("ordering") == 1
    assert config.allowed_failures("upper-bound") == 0
    assert config.allowed_failures("compensator") == 0  # floor(0.05 * 2)
    with pytest.raises(ValueError, match=re.escape("allowances.ordering must lie in [0, 1]")):
        make_config(allowances={"ordering": 1.5})
    with pytest.raises(ValueError, match="unknown allowances keys: bogus"):
        make_config(allowances={"bogus": 0.1})


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
        ({"allowances": {"ordering": 1.5}}, "allowances.ordering must lie in [0, 1], got 1.5"),
        ({"checks": ("ordering", "ordering")}, "checks must not repeat"),
    ]
    for override, message in cases:
        with pytest.raises(ValueError) as direct:
            ExperimentConfig(**fields, **override)
        with pytest.raises(ValueError) as parsed:
            make_config(**override)
        assert str(direct.value) == str(parsed.value) == message
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
    assert body[0].split(",")[0] == "check"
    assert [row.split(",")[0] for row in body[1:]] == list(CHECK_ORDER)


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

    for path_file in ("path_00000.csv", "path_00001.csv"):
        a = (tmp_path / "one" / "families" / path_file).read_bytes()
        b = (tmp_path / "two" / "families" / path_file).read_bytes()
        assert a == b
    meta, _, _ = read_csv_with_meta(tmp_path / "one" / "families" / "path_00000.csv")
    assert meta["config_hash"] == first.config_hash
    excursions_a = (tmp_path / "one" / "excursions.csv").read_bytes()
    excursions_b = (tmp_path / "two" / "excursions.csv").read_bytes()
    assert excursions_a == excursions_b


def test_campaign_report_does_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # Seven paths on the hot (sigma = 1) spec, so several checks record
    # failures: solved all in one chunk, one path per chunk, and 3 + 3 + 1.
    # At seed 77 eps-continuity fails on paths 0 and 1, so its batched
    # per-chunk verdicts are compared across the splits too.  A chunk is
    # sized by its widest solve, here the 7 eps-continuity levels.
    def run(name):
        return canonical_report(
            run_campaign(
                smoke_config(
                    tmp_path / name,
                    spec={"x0": 1.0, "a": 1.0, "b": 0.5, "sigma": 1.0, "hurst": 0.25},
                    grid={"horizon": 1.0, "steps": 512},
                    ladder={"eps0": 0.1, "ratio": 0.5, "depth": 5},
                    seeds={"master_seed": 77, "path_count": 7},
                )
            )
        )

    default = run("default")
    monkeypatch.setattr(ladder_module, "_CHUNK_VALUES", 1)
    one_path = run("one")
    monkeypatch.setattr(ladder_module, "_CHUNK_VALUES", 3 * 7 * 513)
    three_paths = run("three")
    assert default == one_path == three_paths
    assert sum(record["fail_count"] for record in default["checks"].values()) > 0
    assert default["checks"]["eps-continuity"]["fail_count"] >= 1


def test_noise_generation_failures_keep_path_order(tmp_path, monkeypatch):
    # Paths whose noise cannot be generated are recorded in index order among
    # the batched families, at the front, inside and after the last chunk.
    generate = harness_module.generate_fbm

    def flaky(grid, hurst, seed, **kwargs):
        if seed.path_index in (0, 2, 3, 5):
            raise RuntimeError(f"no sample for path {seed.path_index}")
        return generate(grid, hurst, seed, **kwargs)

    monkeypatch.setattr(harness_module, "generate_fbm", flaky)
    monkeypatch.setattr(ladder_module, "_CHUNK_VALUES", 2 * 5 * 257)
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
        if name != "measure-decay-mean":
            assert "family construction failed: SolverError" in record.failures[0]


def test_eps_continuity_solver_error_is_recorded_per_path(tmp_path, monkeypatch):
    # A probe level that breaks while the ladder solves is recorded as that
    # path's eps-continuity failure, with the scalar solver's message.
    batched = ladder_module.verify_eps_continuity

    def first_row_breaks(spec, grid, noise_values, eps_star, h_sequence):
        results = batched(spec, grid, noise_values, eps_star, h_sequence)
        results[0] = SolverError("non-finite state at step 3 (eps=0.05, dt=0.00390625)", 3)
        return results

    monkeypatch.setattr(ladder_module, "verify_eps_continuity", first_row_breaks)
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


def test_render_report_table(tmp_path):
    config = smoke_config(
        tmp_path / "table",
        grid={"horizon": 1.0, "steps": 512},
        seeds={"master_seed": 5, "path_count": 1},
        checks=["ordering", "upper-bound"],
    )
    report = run_campaign(config)
    table = render_report_table(report)
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


def test_cli_report_rejects_a_report_of_the_wrong_shape(tmp_path, capsys):
    # valid JSON that is not a report is an invalid file (exit 2), not a failed campaign
    cases = [
        ("[1, 2]", "the top level must be a JSON object"),
        ('{"checks": {"ordering": 5}}', "checks must map check ids to JSON objects"),
        ('{"checks": ["ordering"]}', "checks must map check ids to JSON objects"),
        ('{"checks": {"ordering": {"pass_count": [1]}}}', "unsupported format string"),
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
