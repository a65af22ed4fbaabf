"""CSV export tests: the column-wise block writer against the cell-by-cell
oracle, its boundary checks, and the exact round trip of a family export.
"""

from __future__ import annotations

import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singsde import (
    EpsilonLadder,
    HurstParam,
    SdeSpec,
    SeedRecord,
    TimeGrid,
    build_families,
    build_family,
    generate_fbm,
    read_csv_with_meta,
    solve_regularized,
    write_csv,
    write_family_csv,
    write_fbm_csv,
    write_solution_csv,
)
from singsde import io as io_module
from singsde import sde as sde_module

from _support import float_corpus, per_cell_csv

BLOCK = io_module._BLOCK_ROWS
META = {"format_version": 1, "hurst": np.float64(0.25), "flag": True, "tag": "circulant", "n": np.int64(3)}


def mixed_columns(row_count: int, seed: int) -> list[tuple[str, object]]:
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e16, 1e-5, 5e-324, 0.1, -1.5])
    floats = rng.standard_normal(row_count) * 10.0 ** rng.integers(-20, 20, row_count)
    head = min(row_count, specials.size)
    floats[:head] = specials[:head]
    # numpy scalars in an object column render through the builtin types
    scalars = (lambda value: None, np.float64, np.float32, lambda value: np.int64(np.isfinite(value)))
    objects = np.empty(row_count, dtype=object)
    objects[:] = [scalars[index % 4](value) for index, value in enumerate(floats)]
    corpus = float_corpus(row_count, seed)
    with np.errstate(over="ignore"):
        halves = floats.astype(np.float16)  # large values become inf
    with np.errstate(over="ignore", invalid="ignore"):  # and signaling NaNs stay NaN
        corpus_halves = corpus.astype(np.float16)
        corpus_singles = corpus.astype(np.float32)
    return [
        ("float", floats),
        ("float32", floats.astype(np.float32)),
        ("float16", halves),
        ("longdouble", floats.astype(np.longdouble)),
        ("int", rng.integers(-(2**62), 2**62, row_count)),
        ("int_list", [int(value) for value in rng.integers(-5, 5, row_count)]),
        ("bool", rng.random(row_count) < 0.5),
        # every 100th text is wider than any float cell and not ASCII
        ("str", [f"s{index}" if index % 100 else f"s{index}é" * 40 for index in range(row_count)]),
        ("object", objects),
        ("float_again", floats),
        ("corpus", corpus),
        ("corpus_float32", corpus_singles),
        ("corpus_float16", corpus_halves),
    ]


# The largest case holds about 850 000 cells, every special case of the
# float corpus among them.  255 to 257 end a block's first half and the
# block size's own neighbours end a whole block.
@pytest.mark.parametrize(
    "row_count", [0, 1, 255, 256, 257, BLOCK - 1, BLOCK, BLOCK + 1, 2**16 + 5]
)
def test_write_csv_matches_per_cell_oracle(row_count):
    columns = mixed_columns(row_count, seed=row_count)
    handle = io.StringIO()
    write_csv(handle, columns, META)
    assert handle.getvalue() == per_cell_csv(columns, META)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(), max_size=3 * BLOCK), st.lists(st.floats(width=32), min_size=1))
def test_write_csv_matches_per_cell_oracle_on_any_floats(values, singles):
    # every double hypothesis draws, NaN, infinities and subnormals included,
    # next to a float32 column: another draw's cells repeated to that length
    single_column = np.resize(np.array(singles, dtype=np.float32), len(values))
    columns = [("x", np.array(values, dtype=np.float64)), ("y", single_column)]
    handle = io.StringIO()
    write_csv(handle, columns, {})
    assert handle.getvalue() == per_cell_csv(columns, {})


def test_write_csv_is_warning_free_on_every_kind_of_float():
    # The fast path's arithmetic must not warn on the cells it hands to the
    # fallback, whatever the warning filter.
    tiny = np.nextafter(0.0, 1.0)
    values = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, -tiny, 2.2e-308, 1e300])
    # a signaling NaN and a float32 subnormal, which the writer casts to double
    singles = np.array([0x7F800001, 0x00000001], dtype=np.uint32).view(np.float32)
    columns = [("x", np.tile(values, 30)), ("y", np.resize(singles, 300))]
    handle = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_csv(handle, columns, {})
    assert handle.getvalue() == per_cell_csv(columns, {})


def test_write_csv_block_memory_is_bounded():
    # A 14-column float block: the formatter's per-cell arrays and the byte
    # block stay well under 1.5 MiB of transient memory.
    rng = np.random.default_rng(3)
    columns = [(f"c{index}", rng.standard_normal(BLOCK)) for index in range(14)]
    tracemalloc.start()
    try:
        write_csv(io.StringIO(), columns, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_write_csv_streams_rows_in_bounded_blocks(tmp_path):
    class Recorder(io.StringIO):
        def __init__(self) -> None:
            super().__init__()
            self.lines_per_write: list[int] = []

        def write(self, text: str) -> int:
            self.lines_per_write.append(text.count("\n"))
            return super().write(text)

    row_count = 2 * BLOCK + 5
    ones = np.ones(row_count)
    texts = [f"é{index}" for index in range(row_count)]
    columns = [("t", np.arange(row_count) * 0.5), ("x", ones), ("s", texts), ("x_again", ones)]
    handle = Recorder()
    write_csv(handle, columns, {"a": "ü"})
    row_writes = handle.lines_per_write[2:]  # after one meta line and the header
    assert row_writes == [BLOCK, BLOCK, 5]
    # A path target gets the same bytes, written in binary, so its lines end
    # in "\n" on every platform.
    target = tmp_path / "rows.csv"
    write_csv(target, columns, {"a": "ü"})
    data = target.read_bytes()
    assert b"\r" not in data
    assert data.decode("utf-8") == handle.getvalue() == per_cell_csv(columns, {"a": "ü"})


@pytest.mark.parametrize(
    "bad, shape",
    [(np.ones((3, 2)), r"\(3, 2\)"), (np.float64(1.0), r"\(\)"), (2.5, r"\(\)")],
)
def test_write_csv_rejects_columns_that_are_not_1d(tmp_path, bad, shape):
    target = tmp_path / "never.csv"
    with pytest.raises(ValueError, match=rf"column 'bad' must be 1-D, got shape {shape}"):
        write_csv(target, [("t", np.arange(3.0)), ("bad", bad)], {})
    assert not target.exists()


@pytest.mark.parametrize(
    "columns, meta, message",
    [
        ([("a,b", [1.0])], {}, "column name 'a,b' contains ','"),
        ([("a\nb", [1.0])], {}, r"column name 'a\\nb' contains '\\n'"),
        ([("a\rb", [1.0])], {}, r"column name 'a\\rb' contains '\\r'"),
        ([("s", ["x", "y,z"])], {}, "a cell of column 's', 'y,z' contains ','"),
        ([("s", ["x", "y\nz"])], {}, "a cell of column 's'"),
        ([("s", np.array([None, (1, 2)], dtype=object))], {}, r"a cell of column 's', '\(1, 2\)'"),
        ([("t", [1.0])], {"a=b": 1}, "meta key 'a=b' contains '='"),
        ([("t", [1.0])], {"a\nb": 1}, "meta key 'a\\\\nb'"),
        ([("t", [1.0])], {"note": "two\nlines"}, "the value of meta key 'note'"),
        ([("t", [1.0])], {"note": "two\rlines"}, "the value of meta key 'note'"),
        ([("#a", [1.0]), ("b", [2.0])], {}, "column name '#a' starts with '#'"),
        ([("s", ["x", "#y"]), ("b", [1.0, 2.0])], {}, "a cell of column 's', '#y' starts with '#'"),
        ([("", [1.0, 2.0])], {}, "column name '' is empty and alone on its line"),
        ([("s", ["x", ""])], {}, "a cell of column 's', '' is empty and alone on its line"),
    ],
)
def test_write_csv_rejects_what_it_could_not_read_back(tmp_path, columns, meta, message):
    # Unchecked, a comma in a name or cell splits a column, a line break
    # starts a new row or header line, "=" in a key moves the split, a line
    # starting with "#" reads as meta and a blank line is skipped.
    target = tmp_path / "never.csv"
    with pytest.raises(ValueError, match=message):
        write_csv(target, columns, meta)
    assert not target.exists()


def test_write_csv_allows_hash_and_empty_names_off_the_line_start(tmp_path):
    # "#" and empty names are refused only where they would start or fill a line.
    target = tmp_path / "rows.csv"
    write_csv(target, [("", [1.0]), ("#b", [2.0]), ("s", ["#x"])], {})
    assert target.read_text(encoding="utf-8") == ",#b,s\n1.0,2.0,#x\n"
    write_csv(target, [("", [1.0]), ("#b", [2.0])], {})
    _, names, matrix = read_csv_with_meta(target)
    assert names == ["", "#b"] and matrix.tolist() == [[1.0, 2.0]]


def test_meta_round_trips_verbatim(tmp_path):
    # The reader strips only the writer's "# ": spaces in keys and values stay.
    target = tmp_path / "meta.csv"
    write_csv(target, [("t", [0.5])], {"note": "x  ", " key": 2, "eq": "a=b"})
    meta, names, matrix = read_csv_with_meta(target)
    assert meta == {"note": "x  ", " key": "2", "eq": "a=b"}
    assert names == ["t"] and matrix.tolist() == [[0.5]]


@pytest.mark.parametrize("block_rows", [1, 3, 512])
def test_write_csv_bytes_do_not_depend_on_the_block_size(monkeypatch, block_rows):
    # The special cases head the first four columns, so their first blocks
    # of one and three rows fall back whole; the text-only columns lay out
    # blocks with no float cell; and "float_again" is the "float" column
    # object again, which each block takes twice.
    monkeypatch.setattr(io_module, "_BLOCK_ROWS", block_rows)
    columns = mixed_columns(600, seed=7)
    text_only = [column for column in columns if np.asarray(column[1]).dtype.kind != "f"]
    for chosen in (columns, columns[:4], text_only):
        handle = io.StringIO()
        write_csv(handle, chosen, META)
        assert handle.getvalue() == per_cell_csv(chosen, META)


def test_write_csv_rejects_unequal_lengths(tmp_path):
    target = tmp_path / "never.csv"
    with pytest.raises(ValueError, match="identical length"):
        write_csv(target, [("t", np.arange(3.0)), ("x", np.arange(4.0))], {})
    assert not target.exists()


def _family_columns(family):
    levels = [(f"X_eps_{level}", row) for level, row in enumerate(family.values)]
    columns = [("t", family.grid.nodes()), ("noise", family.noise.values), *levels]
    return columns + [("limit_estimate", family.limit_estimate)]


def test_family_export_round_trips_exactly(tmp_path):
    hurst = HurstParam(0.25)
    grid = TimeGrid(1.0, 2 * BLOCK + 7)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=1.0, hurst=hurst)
    family = build_family(spec, generate_fbm(grid, hurst, SeedRecord(5, 2)), EpsilonLadder(0.1, 0.5, 6))
    target = tmp_path / "family.csv"
    write_family_csv(family, target, extra_meta={"config_hash": "abc"})

    meta, names, matrix = read_csv_with_meta(target)
    assert meta["config_hash"] == "abc" and meta["depth"] == "6"
    assert names == ["t", "noise"] + [f"X_eps_{level}" for level in range(7)] + ["limit_estimate"]
    assert np.array_equal(matrix[:, 0], grid.nodes())
    assert np.array_equal(matrix[:, 1], family.noise.values)
    for level, row in enumerate(family.values):
        assert np.array_equal(matrix[:, 2 + level], row), level
    assert np.array_equal(matrix[:, -1], family.limit_estimate)

    # the file's own header values are text and re-render to themselves
    assert target.read_text(encoding="utf-8") == per_cell_csv(_family_columns(family), meta)


def header_lines(write, *args, **kwargs) -> list[str]:
    """The ``# key=value`` lines and the column-name row of an export written to a stream."""

    handle = io.StringIO()
    write(*args, handle, **kwargs)
    lines = handle.getvalue().splitlines()
    return lines[: next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1]


def test_export_headers_are_pinned():
    hurst = HurstParam(0.25)
    noise = generate_fbm(TimeGrid(0.5, 8), hurst, SeedRecord(5, 2))
    spec = SdeSpec(x0=1.0, a=1.5, b=0.5, sigma=0.75, hurst=hurst)
    spec_lines = ["# format_version=1", "# x0=1.0", "# a=1.5", "# b=0.5", "# sigma=0.75", "# hurst=0.25"]
    grid_seed_lines = [
        "# horizon=0.5",
        "# step_count=8",
        "# master_seed=5",
        "# path_index=2",
        "# generator_tag=circulant",
    ]
    assert header_lines(write_fbm_csv, noise) == [
        "# format_version=1", "# hurst=0.25", *grid_seed_lines, "t,value"
    ]
    solution = solve_regularized(spec, 0.01, noise)
    assert header_lines(write_solution_csv, solution, noise) == [
        *spec_lines, "# eps=0.01", *grid_seed_lines, "t,X_eps,noise_value"
    ]
    family = build_family(spec, noise, EpsilonLadder(0.1, 0.5, 3))
    assert header_lines(write_family_csv, family, extra_meta={"config_hash": "abc"}) == [
        *spec_lines,
        "# eps0=0.1",
        "# ratio=0.5",
        "# depth=3",
        *grid_seed_lines,
        f"# cauchy_gap={family.cauchy_gap!r}",
        "# config_hash=abc",
        "t,noise,X_eps_0,X_eps_1,X_eps_2,X_eps_3,limit_estimate",
    ]


def test_solution_export_rejects_another_paths_noise(tmp_path):
    # The header's seed and the noise column come from the noise argument, so
    # a noise other than the solution's driver is refused before the file opens.
    hurst = HurstParam(0.25)
    grid = TimeGrid(0.5, 8)
    spec = SdeSpec(x0=1.0, a=1.5, b=0.5, sigma=0.75, hurst=hurst)
    solution = solve_regularized(spec, 0.01, generate_fbm(grid, hurst, SeedRecord(1, 0)))
    other = generate_fbm(grid, hurst, SeedRecord(2, 5))
    target = tmp_path / "solution.csv"
    with pytest.raises(ValueError) as error:
        write_solution_csv(solution, other, target)
    assert solution.noise_ref in str(error.value) and other.ref in str(error.value)
    assert solution.noise_ref != other.ref
    assert not target.exists()


def test_streamed_family_export_matches_the_cell_oracle(tmp_path, monkeypatch):
    # Three paths in one chunk, solved in time blocks of 5 steps: each kept
    # family's CSV equals the cell-by-cell rendering of its levels.
    hurst = HurstParam(0.25)
    grid = TimeGrid(1.0, BLOCK + 9)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=1.0, hurst=hurst)
    ladder = EpsilonLadder(0.1, 0.5, 6)
    noises = [generate_fbm(grid, hurst, SeedRecord(8, index)) for index in range(3)]
    monkeypatch.setattr(sde_module, "_BLOCK_VALUES", 5 * 3 * 7)
    for index, family in enumerate(build_families(spec, noises, ladder, keep="levels")):
        target = tmp_path / f"path_{index}.csv"
        write_family_csv(family, target, extra_meta={"config_hash": "abc"})
        meta, _, _ = read_csv_with_meta(target)
        assert target.read_text(encoding="utf-8") == per_cell_csv(_family_columns(family), meta)


def test_family_export_needs_kept_values(tmp_path):
    hurst = HurstParam(0.25)
    grid = TimeGrid(1.0, 32)
    spec = SdeSpec(x0=1.0, a=1.0, b=0.5, sigma=1.0, hurst=hurst)
    noise = generate_fbm(grid, hurst, SeedRecord(8, 0))
    target = tmp_path / "never.csv"
    for keep in ("limit", "none"):
        (family,) = build_families(spec, [noise], EpsilonLadder(0.1, 0.5, 3), keep=keep)
        with pytest.raises(ValueError, match=f"no levels to export \\(keep='{keep}'\\)"):
            write_family_csv(family, target)
        assert not target.exists()
