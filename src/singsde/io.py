"""Delimited exports with provenance headers.

Every CSV written by the library starts with ``# key=value`` comment lines
carrying the provenance needed to regenerate the file (seeds, parameters,
format version, config hash when applicable), followed by one header row of
column names.  Floats are rendered with ``repr``-exact precision so a file is
a faithful witness of the computation.

Rows are formatted column by column and streamed in blocks of at most
``_BLOCK_ROWS`` rows: each block of a numeric or string column becomes
builtin values through one ``tolist()`` call and then text through ``str``
(for a builtin float that is ``repr``), and the block's rows are joined and
written with one ``write``.  A column object passed twice, such as the
family's deepest level and its limit estimate, is formatted once per block.
Object columns go through ``_format_value`` cell by cell.  Every path
renders a cell exactly as ``_format_value`` does, so the bytes do not
depend on the block size.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence, TextIO

import numpy as np

from .fbm import FbmPath, TimeGrid
from .ladder import EpsilonFamily
from .sde import RegularizedPath, SdeSpec

__all__ = [
    "read_csv_with_meta",
    "write_csv",
    "write_family_csv",
    "write_fbm_csv",
    "write_solution_csv",
]

FORMAT_VERSION = 1

# Rows per formatted block; it bounds the cell strings held at once.  On a
# campaign exporting 2^14-step families, blocks of 256 to 4096 rows ran
# equally fast, but 1024-row blocks raised the peak resident size by about
# 2 MB over cell-by-cell writing and 4096-row blocks by about 6 MB.
_BLOCK_ROWS = 256


def _format_value(value: object) -> str:
    # Normalize numpy scalars through the builtin types: np.float64 subclasses
    # float, and its own repr ("np.float64(...)") must never reach a cell.
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _format_block(block: np.ndarray) -> list[str]:
    """Cells of a 1-D block, each rendered as ``_format_value`` renders it."""

    kind = block.dtype.kind
    if kind == "f":
        # float() of a float16/32 or long double cell is this double
        block = block.astype(np.float64, copy=False)
    elif kind not in "biuU":
        return list(map(_format_value, block))
    return list(map(str, block.tolist()))


def write_csv(
    target: str | os.PathLike[str] | TextIO,
    columns: Sequence[tuple[str, Sequence | np.ndarray]],
    meta: Mapping[str, object],
) -> None:
    """Write ``# key=value`` header lines, a column-name row, then the rows.

    Every column must be 1-D and all must have the same length; a column
    that breaks either rule raises ``ValueError`` before ``target`` is
    opened.
    """

    names = [name for name, _ in columns]
    # distinct column objects by identity, and each column's key into them
    arrays: dict[int, np.ndarray] = {}
    keys = [id(data) for _, data in columns]
    for (name, data), key in zip(columns, keys):
        if key not in arrays:
            array = np.asarray(data)
            if array.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {array.shape}")
            arrays[key] = array
    lengths = {len(array) for array in arrays.values()}
    if len(lengths) > 1:
        raise ValueError("all columns must have identical length")
    row_count = lengths.pop() if lengths else 0

    def _emit(handle: TextIO) -> None:
        for key, value in meta.items():
            handle.write(f"# {key}={_format_value(value)}\n")
        handle.write(",".join(names) + "\n")
        for start in range(0, row_count, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            cells = {key: _format_block(array[start:stop]) for key, array in arrays.items()}
            rows = map(",".join, zip(*[cells[key] for key in keys]))
            handle.write("\n".join(rows) + "\n")

    if hasattr(target, "write"):
        _emit(target)  # type: ignore[arg-type]
    else:
        with open(target, "w", encoding="utf-8") as handle:
            _emit(handle)


def read_csv_with_meta(path: str | os.PathLike[str]) -> tuple[dict[str, str], list[str], np.ndarray]:
    """Read back a library CSV: (meta dict, column names, float value matrix).

    The reader returns numeric columns only: a cell that is not a float, such
    as a check name in a campaign's ``checks.csv``, raises ``ValueError``
    naming the file, the line number and the column.
    """

    meta: dict[str, str] = {}
    names: list[str] = []
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition("=")
                meta[key.strip()] = value
            elif not names:
                names = line.split(",")
            else:
                row = []
                for column, cell in enumerate(line.split(",")):
                    try:
                        row.append(float(cell))
                    except ValueError:
                        name = repr(names[column]) if column < len(names) else f"#{column + 1}"
                        raise ValueError(
                            f"{os.fspath(path)}, line {number}, column {name}: {cell!r} is not "
                            "a number (read_csv_with_meta reads numeric columns only)"
                        ) from None
                rows.append(row)
    matrix = np.array(rows) if rows else np.empty((0, len(names)))
    return meta, names, matrix


def _spec_meta(spec: SdeSpec) -> dict[str, object]:
    """Header head of a solution or family export: the format version and the spec."""

    return {
        "format_version": FORMAT_VERSION,
        "x0": spec.x0,
        "a": spec.a,
        "b": spec.b,
        "sigma": spec.sigma,
        "hurst": spec.hurst.value,
    }


def _grid_seed_meta(grid: TimeGrid, noise: FbmPath) -> dict[str, object]:
    """Header fields of the grid and of the noise path's seed."""

    return {
        "horizon": grid.horizon,
        "step_count": grid.step_count,
        "master_seed": noise.seed_record.master_seed,
        "path_index": noise.seed_record.path_index,
        "generator_tag": noise.generator_tag,
    }


def write_fbm_csv(path: FbmPath, target) -> None:
    """Path archive: provenance header plus (t, value) rows."""

    meta = {"format_version": FORMAT_VERSION, "hurst": path.hurst.value}
    meta |= _grid_seed_meta(path.grid, path)
    write_csv(target, [("t", path.grid.nodes()), ("value", path.values)], meta)


def write_solution_csv(solution: RegularizedPath, noise: FbmPath, target) -> None:
    """Single-level solve: (t, X_eps, noise_value) with spec and seed metadata.

    ``noise`` must be the path that drove ``solution``; another path raises
    a ``ValueError`` before ``target`` is opened.
    """

    if solution.noise_ref != noise.ref:
        raise ValueError(
            f"the solution was driven by {solution.noise_ref}, not by the given noise {noise.ref}"
        )
    meta = _spec_meta(solution.spec) | {"eps": solution.epsilon}
    meta |= _grid_seed_meta(solution.grid, noise)
    columns = [("t", solution.grid.nodes()), ("X_eps", solution.values), ("noise_value", noise.values)]
    write_csv(target, columns, meta)


def write_family_csv(
    family: EpsilonFamily, target, extra_meta: Mapping[str, object] | None = None
) -> None:
    """Ladder export: (t, noise, X_eps_0 .. X_eps_J, limit_estimate).

    The family must keep its levels (``build_families(..., keep="levels")``).
    ``extra_meta`` is appended to the header, after ``cauchy_gap``.
    """

    if family.values is None:
        keep = "none" if family.limit_estimate is None else "limit"
        raise ValueError(f"the family keeps no levels to export (keep={keep!r}); keep 'levels'")
    ladder = family.ladder
    meta = _spec_meta(family.spec) | {
        "eps0": ladder.eps0,
        "ratio": ladder.ratio,
        "depth": ladder.depth,
    }
    meta |= _grid_seed_meta(family.grid, family.noise)
    meta |= {"cauchy_gap": family.cauchy_gap, **(extra_meta or {})}
    columns: list[tuple[str, np.ndarray]] = [
        ("t", family.grid.nodes()),
        ("noise", family.noise.values),
    ]
    rows = list(family.values)
    columns.extend((f"X_eps_{level}", row) for level, row in enumerate(rows))
    # the deepest row object itself, not a fresh view, so write_csv formats it once
    columns.append(("limit_estimate", rows[-1]))
    write_csv(target, columns, meta)
