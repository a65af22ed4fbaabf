"""Delimited exports with provenance headers.

Every CSV written by the library starts with ``# key=value`` comment lines
carrying the provenance needed to regenerate the file (seeds, parameters,
format version, config hash when applicable), followed by one header row of
column names.  Every float cell is the ``repr`` of its value as a double, so
a file reads back bit-exact and is a faithful witness of the computation.

Rows are formatted in blocks of at most ``_BLOCK_ROWS`` rows.  A block's
distinct column objects are laid out side by side in one uint8 array of
shape (rows, columns, width), the float columns from one formatter call:
every cell's bytes, then its delimiter.  Each cell brings the mask of the
bytes to keep, its text and its delimiter: a float cell's mask is a row of
``_FLOAT_KEEP``, a table over the fixed float cell width, and a text cell's
compares byte positions with the text's length.  One ``take`` per array puts
the columns in file order, so a column object passed twice, such as the
family's deepest level and its limit estimate, is formatted once.  One
boolean compress drops the other bytes, and the block's UTF-8 bytes go to a
file opened in binary with one ``write``.  Integer and boolean columns go
through ``tolist()`` and ``str``.  Columns of any other kind, strings and
objects among them, are rendered whole by ``_format_value`` before the file
opens, so that their cells can be checked.  Every cell's text is exactly
what ``_format_value`` renders, so the bytes do not depend on the block size.

**Float cells.**  ``_float_cells`` renders all the float cells of a block at
once, in numpy arithmetic, and reproduces ``repr`` byte for byte.  Its fast
path covers finite cells with 1e-4 <= |x| < 1e16 whose mantissa field is not
zero.  That range is where ``repr`` writes positional notation, and a
non-zero mantissa field makes the rounding interval of x symmetric: every
real within half an ulp of x rounds back to x.

- Take q = 16 - floor(log10|x|), so that |x|·10^q lies in [1e16, 1e17).
  10^q is an exact double, and Dekker's TwoProduct (Numer. Math. 18, 1971)
  gives |x|·10^q = P + E exactly, with P = fl(|x|·10^q) an integer.  So
  |x|·10^q = D17 + δ exactly, where D17 is its nearest integer and
  |δ| <= 1/2.
- D16 and D15, the nearest 16- and 15-digit integers to |x|·10^q / 10 and
  / 100, come from D17 and the sign of δ.  The last one or two digits of
  D17, call them r, decide the rounding, and r + δ lies strictly above or
  below the halfway point 5 (or 50) unless r is 5 (or 50) exactly.  Then
  the sign of δ decides.  So each candidate is rounded once, from the exact
  value, and never from the already rounded D17.
- A candidate 10^k·D round-trips when |10^k·D - D17 - δ| is below half an
  ulp of x scaled by 10^q.  D17 always does: that half ulp exceeds
  2^-54·1e16 > 0.55, and |δ| <= 1/2.
- The digits are the first of D15, D16 and D17 that round-trips, with its
  trailing zeros stripped.  This is ``repr``'s choice, the shortest digit
  string that round-trips and, among those, the closest to x (Steele &
  White; Gay; Adams, "Ryū", PLDI 2018):
  - the rounding interval of x is at most 2.3e-16·|x| wide, and 15-digit
    numbers near |x| lie more than 1e-15·|x| apart.  So at most one 15-digit
    number round-trips, and if one does, it is the nearest one, D15.  A
    shorter string that round-trips is that same number without its
    trailing zeros.
  - when no 15-digit number round-trips, the shortest length is 16 or 17.
    The nearest candidate of that length round-trips whenever any of that
    length does, and it is the closest one.

Cells off the fast path fall back to ``_format_value``: zeros, infinities
and NaN; values that ``repr`` writes in exponent form; powers of two, whose
rounding interval is asymmetric; exact ties (|δ| = 1/2, or r = 5 or 50 with
δ = 0); candidates within a relative 1e-9 of the round-trip boundary; and
cells where log10 was off by one, so that D17 or the chosen digits left
[1e16, 1e17).
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

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

# Rows per formatted block; it bounds the byte block and the fast path's
# per-cell arrays.  Writing ten 2^14-step family exports (14 columns) from a
# fresh process, blocks of 128, 256, 512 and 1024 rows took about 345, 265,
# 240 and 230 ns per cell, and a 14-column float block peaked at 0.29, 0.58,
# 1.16 and 2.30 MiB traced (2 cores, Python 3.11.7, numpy 2.4.6).  The limit
# is test_write_csv_block_memory_is_bounded's 1.5 MiB, so not 1024.
# Whether 512 beats 256 depends on what the process freed before.  At 512
# rows each of a block's byte arrays is about 186 KB (13 distinct columns of
# 28 bytes), above glibc's initial 128 KiB mmap threshold; at 256 rows about
# 93 KB.  glibc raises its mmap threshold, and its trim threshold to twice
# that, when it frees a mapped block above the threshold.  Until a block of
# about 1 MiB has been freed, a 512-row block's memory goes back to the
# kernel after each block, and the next block faults it in again.  A warm
# loop writing ten family-shaped files took 91,540 minor faults a round at
# 512 rows against 13 at 256, and 256 rows were faster; after freeing a
# 1 MiB array first, 512 rows took 61.  A campaign frees its noise buffers
# and families before it writes, so export-14's ten files take 133 to 182
# faults and 512 rows win there.
_BLOCK_ROWS = 512

# The lookup tables are built from Python floats and numpy copies only:
# importing the module runs no numpy arithmetic kernel, so it maps no more of
# numpy's shared library into memory than importing numpy does.

# 10**k for k = 0..22, each an exact double, and its Veltkamp split into two
# halves of at most 26 significant bits, as TwoProduct needs.
_SPLITTER = 134217729.0  # 2**27 + 1


def _veltkamp(value: float) -> tuple[float, float]:
    scaled = value * _SPLITTER
    high = scaled - (scaled - value)
    return high, value - high


_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI, _POW10_LO = np.array([_veltkamp(power) for power in _POW10.tolist()]).T
_MANTISSA_FIELD = (1 << 52) - 1
_EXPONENT_FIELD = 0x7FF << 52


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each group 0..9999 as one uint32, and each
    group's count of trailing zeros."""

    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    # text[a, b, c, d] spells the group 1000a + 100b + 10c + d
    text = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    text[..., 0] = digit[:, None, None, None]
    text[..., 1] = digit[:, None, None]
    text[..., 2] = digit[:, None]
    text[..., 3] = digit
    zeros = np.zeros(10_000, dtype=np.uint8)
    for count, step in enumerate((10, 100, 1000, 10_000), start=1):
        zeros[::step] = count
    return text.view(np.uint32).ravel(), zeros


_GROUP_TEXT, _GROUP_ZEROS = _digit_tables()

# A float cell's bytes: "0000000", its 17 digits d_1..d_17 and "0000", with
# the point put in and the sign written over the zero before the text.  A
# text fits: "-0.000" and 17 digits, or 24 bytes from ``_format_value``.
_FLOAT_WIDTH = 28
_LEAD = 7


def _keep_masks() -> np.ndarray:
    """Row first * _FLOAT_WIDTH + end keeps bytes first..end of a float cell:
    its text and its delimiter."""

    masks = np.zeros((_LEAD + 1, _FLOAT_WIDTH, _FLOAT_WIDTH), dtype=bool)
    for end in range(_FLOAT_WIDTH):
        masks[:, end, : end + 1] = True
    for first in range(1, _LEAD + 1):
        masks[first, :, :first] = False
    return masks.reshape(-1, _FLOAT_WIDTH)


_FLOAT_KEEP = _keep_masks()


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


def _text_cells(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each text's UTF-8 bytes, NUL-padded to one byte past the longest (the
    delimiter's); its length; and the mask of its bytes and its delimiter."""

    encoded = [text.encode() for text in texts]
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    cells = np.array(encoded, dtype=f"S{lengths.max(initial=0) + 1}")
    keep = np.arange(cells.itemsize) <= lengths[:, None]
    return cells.view(np.uint8).reshape(len(encoded), cells.itemsize), lengths, keep


def _nearest_integer(x: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d17 and delta with x * 10**scale == d17 + delta exactly and |delta| <= 1/2.

    Dekker's TwoProduct gives x * 10**scale == product + error exactly, and
    product is an integer wherever x * 10**scale >= 2**53.
    """

    product = x * _POW10[scale]
    split = x * _SPLITTER
    x_hi = split - (split - x)
    x_lo = x - x_hi
    p_hi = _POW10_HI[scale]
    p_lo = _POW10_LO[scale]
    error = ((x_hi * p_hi - product) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    rounded = np.rint(error)
    return product.astype(np.int64) + rounded.astype(np.int64), error - rounded


def _rounded(d17: np.ndarray, delta: np.ndarray, unit: int) -> tuple[np.ndarray, np.ndarray]:
    """d17 + delta rounded to the nearest multiple of ``unit`` (10 or 100), in
    units of ``unit``, and whether it lay exactly halfway.

    The remainder of d17 decides, and the sign of delta decides where the
    remainder is exactly half a unit, so the exact value is rounded once.
    """

    quotient = d17 // unit
    rest = d17 - unit * quotient
    quotient += (rest > unit // 2) | ((rest == unit // 2) & (delta > 0))
    return quotient, (rest == unit // 2) & (delta == 0)


def _round_trips(
    offset: np.ndarray, delta: np.ndarray, half_ulp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Whether d17 + offset round-trips, and whether it lies within a relative
    1e-9 of the boundary, where rounding in this test could decide."""

    miss = np.abs(offset - delta)
    return miss < half_ulp, np.abs(miss - half_ulp) <= 1e-9 * half_ulp


def _shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``repr``'s digits of each x in the fast range, by the module docstring's rule.

    Returns the digits as one integer in [1e16, 1e17), padded with zeros to
    17 digits, the decimal exponent floor(log10 x) and the cells whose
    digits the rule cannot vouch for.
    """

    exponent = np.floor(np.log10(x)).astype(np.intp)
    d17, delta = _nearest_integer(x, 16 - exponent)
    d16, tie16 = _rounded(d17, delta, 10)
    d15, tie15 = _rounded(d17, delta, 100)
    # half an ulp of x is the power of two 2**-53 times x's binary exponent;
    # this is it in units of d17's last digit
    half_ulp = ((x.view(np.int64) & _EXPONENT_FIELD) - (53 << 52)).view(np.float64)
    half_ulp *= _POW10[16 - exponent]
    round_trips15, near15 = _round_trips(100 * d15 - d17, delta, half_ulp)
    round_trips16, near16 = _round_trips(10 * d16 - d17, delta, half_ulp)
    digits = np.where(round_trips15, 100 * d15, np.where(round_trips16, 10 * d16, d17))
    off = tie16 | tie15 | near15 | near16 | (np.abs(delta) == 0.5)
    off |= (d17 < 10**16) | (digits >= 10**17)
    return digits, exponent, off


def _padded_digits(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's "0000000", 17 digits and "0000", and its count of significant digits."""

    top = digits // 10**8
    low = digits - 10**8 * top
    first = top // 10**8  # the digit 1..9
    top -= 10**8 * first
    second = top // 10**4
    fourth = low // 10**4
    groups = (first, second, top - 10**4 * second, fourth, low - 10**4 * fourth)
    words = np.empty((digits.size, 7), dtype=np.uint32)
    words[:, 0] = words[:, 6] = _GROUP_TEXT[0]
    for column, group in enumerate(groups, start=1):
        words[:, column] = _GROUP_TEXT[group]
    trailing = _GROUP_ZEROS[groups[1]]
    for group in groups[2:]:
        zeros = _GROUP_ZEROS[group]
        trailing = zeros + (zeros == 4) * trailing
    return words.view(np.uint8), 17 - trailing


def _float_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each float64 cell's ``repr``: ``_FLOAT_WIDTH`` bytes, the end of its
    text, and the mask of its text and its delimiter.

    The fast path's arithmetic runs on every cell; a cell off the path runs
    it as 1.5, so no operation meets a value it could warn on, and
    ``_format_value``'s text replaces that cell's bytes.
    """

    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e16)
    fast &= (values.view(np.int64) & _MANTISSA_FIELD) != 0
    digits, exponent, fallback = _shortest_digits(np.where(fast, magnitude, 1.5))
    fallback |= ~fast
    padded, significant = _padded_digits(digits)
    # |x| = 0.d_1...d_17 * 10**point, point in -3..16 on the fast path
    point = exponent + 1
    at = _LEAD + point
    # The point goes in at byte `at`: the rest move one to the right, and
    # bytes 0..at-1, which _FLOAT_KEEP's row at-1 keeps, stay.  So byte 0
    # stays, and the flat shift may carry the row before's last byte into it.
    cells = np.empty_like(padded)
    flat = cells.reshape(-1)
    flat[1:] = padded.reshape(-1)[:-1]
    np.copyto(cells, padded, where=np.take(_FLOAT_KEEP, at - 1, axis=0))
    rows = np.arange(0, flat.size, _FLOAT_WIDTH)
    flat[rows + at] = ord(".")
    # The text starts at the first digit, or at the "0" before the point
    # when |x| < 1, and one byte earlier, at the sign, when x < 0.
    negative = values.view(np.int64) < 0
    first = np.minimum(_LEAD, at - 1) - negative
    flat[(rows + first)[negative]] = ord("-")
    # It ends after the last significant digit, or after the "0" that
    # follows a point with no digit after it.
    end = _LEAD + 1 + np.maximum(significant, point + 1)

    rest = np.flatnonzero(fallback)
    if rest.size:
        texts, lengths, _ = _text_cells(list(map(_format_value, values[rest].tolist())))
        cells[rest, : texts.shape[1]] = texts
        first[rest] = 0
        end[rest] = lengths
    return cells, end, np.take(_FLOAT_KEEP, first * _FLOAT_WIDTH + end, axis=0)


def _render_block(blocks: Mapping[int, np.ndarray], keys: Sequence[int]) -> np.ndarray:
    """The UTF-8 bytes of one block of rows: ``keys`` names each column's block."""

    rows = len(blocks[keys[0]])
    floats = [key for key, block in blocks.items() if block.dtype.kind == "f"]
    texts = [key for key, block in blocks.items() if block.dtype.kind != "f"]
    stacked = np.empty((rows, len(floats)))
    # A float16/32 or long double cell becomes the double float() gives,
    # without a warning for a signaling NaN or a long double beyond range.
    with np.errstate(invalid="ignore", over="ignore"):
        for column, key in enumerate(floats):
            stacked[:, column] = blocks[key]
    text, end, keep = _float_cells(stacked.ravel())
    shape = (rows, len(floats), _FLOAT_WIDTH)
    text, end, keep = text.reshape(shape), end.reshape(shape[:2]), keep.reshape(shape)
    if texts:
        # the distinct columns side by side: the floats, then each text column
        cells = [_text_cells(list(map(str, blocks[key].tolist()))) for key in texts]
        width = max(_FLOAT_WIDTH, *(cell_bytes.shape[1] for cell_bytes, _, _ in cells))
        laid = np.empty((rows, len(blocks), width), dtype=np.uint8)
        laid_keep = np.zeros(laid.shape, dtype=bool)
        float_part = np.s_[:, : len(floats), :_FLOAT_WIDTH]
        laid[float_part], laid_keep[float_part] = text, keep
        for column, (cell_bytes, _, cell_keep) in enumerate(cells, start=len(floats)):
            laid[:, column, : cell_bytes.shape[1]] = cell_bytes
            laid_keep[:, column, : cell_bytes.shape[1]] = cell_keep
        text, keep = laid, laid_keep
        end = np.concatenate([end, *(lengths[:, None] for _, lengths, _ in cells)], axis=1)
    # a comma after each cell, the columns in file order, then a line break
    starts = np.arange(0, text.size, text.shape[2]).reshape(end.shape)
    text.reshape(-1)[starts + end] = ord(",")
    column_of = {key: column for column, key in enumerate(floats + texts)}
    order = [column_of[key] for key in keys]
    text, keep = np.take(text, order, axis=1), np.take(keep, order, axis=1)
    text[np.arange(rows), -1, end[:, order[-1]]] = ord("\n")
    return text[keep]


def _refuse(what: str, text: str, forbidden: str, first: bool = False, alone: bool = False) -> None:
    """Raise ``ValueError`` where ``read_csv_with_meta`` could not read ``text``
    back: it contains a character of ``forbidden``, or it is ``first`` on its
    line and starts with "#" (a meta line), or ``alone`` on it and empty."""

    faults = [f"contains {char!r}" for char in forbidden if char in text]
    if first and text.startswith("#"):
        faults.append("starts with '#'")
    if alone and not text:
        faults.append("is empty and alone on its line")
    if faults:
        raise ValueError(f"{what} {text!r} {faults[0]}; read_csv_with_meta could not read it back")


def write_csv(
    target: str | os.PathLike[str],
    columns: Sequence[tuple[str, Sequence | np.ndarray]],
    meta: Mapping[str, object],
) -> None:
    """Write ``# key=value`` header lines, a column-name row, then the rows.

    Every column must be 1-D and all must have the same length.  Column
    names and non-numeric cells may not contain a comma or a line break; in
    the first column they may not start with "#", and in a one-column file
    they may not be empty.  Meta keys may not contain "=" or a line break,
    and meta values may not contain a line break.  Input that breaks a rule
    raises ``ValueError`` before the file at ``target`` is opened.  The file
    is written in binary, so its lines end in "\n" on every platform.
    """

    meta_lines = []
    for key, value in meta.items():
        text = _format_value(value)
        _refuse("meta key", str(key), "=\n\r")
        _refuse(f"the value of meta key {key!r},", text, "\n\r")
        meta_lines.append(f"# {key}={text}\n")
    names = [name for name, _ in columns]
    # the first column's texts start their lines, and fill them if it is alone
    alone = len(columns) == 1
    for column, name in enumerate(names):
        _refuse("column name", name, ",\n\r", column == 0, alone)

    # distinct column objects by identity, and each column's key into them
    arrays: dict[int, np.ndarray] = {}
    keys = [id(data) for _, data in columns]
    for column, ((name, data), key) in enumerate(zip(columns, keys)):
        if key not in arrays:
            array = np.asarray(data)
            if array.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {array.shape}")
            if array.dtype.kind not in "fbiu":
                # strings, objects and the rest: their cell texts, as objects
                texts = list(map(_format_value, array))
                for text in texts:
                    _refuse(f"a cell of column {name!r},", text, ",\n\r", column == 0, alone)
                array = np.array(texts, dtype=object)
            arrays[key] = array
    lengths = {len(array) for array in arrays.values()}
    if len(lengths) > 1:
        raise ValueError("all columns must have identical length")
    row_count = lengths.pop() if lengths else 0

    with open(target, "wb") as handle:
        for line in [*meta_lines, ",".join(names) + "\n"]:
            handle.write(line.encode())
        for start in range(0, row_count, _BLOCK_ROWS):
            block = {key: array[start : start + _BLOCK_ROWS] for key, array in arrays.items()}
            handle.write(_render_block(block, keys))


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
                # only the writer's "# " comes off: keys and values are verbatim
                key, _, value = line[1:].removeprefix(" ").partition("=")
                meta[key] = value
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


def write_solution_csv(solution: RegularizedPath, target) -> None:
    """Single-level solve: (t, X_eps, noise_value) with spec and seed metadata."""

    noise = solution.noise
    meta = _spec_meta(solution.spec) | {"eps": solution.epsilon}
    meta |= _grid_seed_meta(noise.grid, noise)
    columns = [("t", noise.grid.nodes()), ("X_eps", solution.values), ("noise_value", noise.values)]
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
