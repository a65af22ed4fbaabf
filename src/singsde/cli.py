"""Command-line front end.

Subcommands:

``fbm``
    Generate one noise path and export it as CSV.
``solve``
    Integrate the regularized equation at a single regularization level.
``ladder``
    Build a whole regularization family on shared noise and export it.
``verify``
    Run the verification campaign described by a JSON config file; prints
    the report table and exits nonzero iff the campaign fails.
``report``
    Re-render a stored report.json as a human-readable table.

Exit status: 0 on success, 1 for a failing campaign or a failed computation
(a solver or noise-generator error), 2 for usage errors (unknown or malformed
flags, out-of-domain parameter values, missing or invalid files).
"""

from __future__ import annotations

import argparse
import json
import sys

from .fbm import GENERATOR_TAGS, FbmGenerationError, HurstParam, SeedRecord, TimeGrid
from .fbm import generate_fbm, zero_path
from .harness import load_config, render_report_table, run_campaign
from .io import write_family_csv, write_fbm_csv, write_solution_csv
from .ladder import EpsilonLadder, build_family
from .sde import SdeSpec, SolverError, solve_regularized

__all__ = ["build_parser", "cli_dispatch", "main"]

_USAGE_ERROR = 2


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hurst", type=float, required=True, help="roughness index in (0, 1/2)")
    parser.add_argument("--steps", type=int, default=4096, help="number of grid steps (default 4096)")
    parser.add_argument("--horizon", type=float, default=1.0, help="time horizon (default 1.0)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--index", type=int, default=0, help="path index under the master seed")
    parser.add_argument(
        "--method",
        choices=GENERATOR_TAGS,
        default="circulant",
        help="noise generator ('zero' gives the deterministic zero driver)",
    )
    parser.add_argument("--out", required=True, help="output CSV path")


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--x0", type=float, default=1.0, help="initial value (default 1.0)")
    parser.add_argument("--a", type=float, default=1.0, help="singular drift coefficient (default 1.0)")
    parser.add_argument("--b", type=float, default=0.0, help="linear drift coefficient (default 0.0)")
    parser.add_argument("--sigma", type=float, default=1.0, help="noise coefficient (default 1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="singsde",
        description="Numerical laboratory for a singular SDE solved through vanishing regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fbm_parser = sub.add_parser("fbm", help="generate and export a noise path")
    _add_grid_flags(fbm_parser)

    solve_parser = sub.add_parser("solve", help="solve at a single regularization level")
    _add_grid_flags(solve_parser)
    _add_spec_flags(solve_parser)
    solve_parser.add_argument("--eps", type=float, required=True, help="regularization level")

    ladder_parser = sub.add_parser("ladder", help="build a regularization family on shared noise")
    _add_grid_flags(ladder_parser)
    _add_spec_flags(ladder_parser)
    ladder_parser.add_argument("--eps0", type=float, default=0.1, help="top level (default 0.1)")
    ladder_parser.add_argument("--ratio", type=float, default=0.5, help="level ratio (default 0.5)")
    ladder_parser.add_argument("--depth", type=int, default=10, help="levels below eps0 (default 10)")

    verify_parser = sub.add_parser("verify", help="run a verification campaign from a config file")
    verify_parser.add_argument("--config", required=True, help="JSON config path")

    report_parser = sub.add_parser("report", help="re-render a stored report.json as a table")
    report_parser.add_argument("report_json", help="path to a report.json file")

    return parser


def _make_noise(args: argparse.Namespace):
    grid = TimeGrid(horizon=args.horizon, step_count=args.steps)
    hurst = HurstParam(args.hurst)
    seed = SeedRecord(args.seed, args.index)
    if args.method == "zero":
        return zero_path(grid, hurst, seed)
    return generate_fbm(grid, hurst, seed)


def _cmd_fbm(args: argparse.Namespace) -> int:
    noise = _make_noise(args)
    write_fbm_csv(noise, args.out)
    print(f"wrote {args.out} ({noise.grid.step_count + 1} nodes, {noise.ref})")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    noise = _make_noise(args)
    spec = SdeSpec(x0=args.x0, a=args.a, b=args.b, sigma=args.sigma, hurst=noise.hurst)
    solution = solve_regularized(spec, args.eps, noise)
    write_solution_csv(solution, args.out)
    print(
        f"wrote {args.out} (eps={args.eps:g}, final value {solution.values[-1]:.6f}, {noise.ref})"
    )
    return 0


def _cmd_ladder(args: argparse.Namespace) -> int:
    noise = _make_noise(args)
    spec = SdeSpec(x0=args.x0, a=args.a, b=args.b, sigma=args.sigma, hurst=noise.hurst)
    family = build_family(spec, noise, EpsilonLadder(args.eps0, args.ratio, args.depth))
    write_family_csv(family, args.out)
    print(
        f"wrote {args.out} ({args.depth + 1} levels, cauchy_gap {family.cauchy_gap:.3e}, "
        f"{noise.ref})"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    report = run_campaign(config)
    print(render_report_table(report.to_json_dict()))
    print(f"\nartifacts written to {config.output_dir}")
    return 0 if report.overall_pass else 1


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.report_json, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise TypeError("the top level must be a JSON object")
        checks = data.get("checks", {})
        if not isinstance(checks, dict) or any(
            not isinstance(entry, dict) for entry in checks.values()
        ):
            raise TypeError("checks must map check ids to JSON objects")
        notes = [entry.get("failures", []) for entry in checks.values()]
        if any(not isinstance(n, list) or not all(isinstance(x, str) for x in n) for n in notes):
            raise TypeError("failures must be a list of strings")
        table = render_report_table(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid report {args.report_json}: {exc}") from exc
    print(table)
    return 0


_COMMANDS = {
    "fbm": _cmd_fbm,
    "solve": _cmd_solve,
    "ladder": _cmd_ladder,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def cli_dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand; returns the exit status."""

    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except (SolverError, FbmGenerationError) as exc:  # the run failed, not its usage
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
