"""Parsers and writers for every on-disk format.

Formats:
  - GMT gene sets (name TAB description TAB gene...)
  - expression matrices, sparse triplet TSV (spot TAB gene TAB value)
  - spot coordinates CSV
  - survival CSV
  - float tables, TSV of id columns then floats: patch features
    (spot_id f0...), pathway scores (spot <pathway>...) and slide embeddings
    (spot_id slide_id e0..., one row per spot)
  - checkpoints: <name>.manifest.json + <name>.params.bin, the parameters'
    little-endian f32 back to back, written and read one parameter at a time
  - JSON objects (config files, checkpoint manifests), read by `read_json`

Every float a text writer writes is spelled by `_float_spec`: a float32
array at 9 significant digits, anything else as float64 at 17, the fewest
that round-trip every value of the dtype (IEEE 754 binary32 and binary64).
Writing a non-finite value is a DataFormatError naming the file.

Text tables are read through `_rows`, so a malformed file raises
DataFormatError naming its physical line, a repeated key (first field) of a
keyed table included.  Expression files and float tables are parsed in
blocks of lines instead: an expression file in which the block parse finds
anything off is re-read through `_rows`, and a block of a float table that
`np.loadtxt` cannot parse as the line reader would goes through the line
reader's per-line checks, so the error is the same; `_read_float_table` is
the one loop over a float table's blocks, float64 or float32.  The text
readers are wrapped in `_names_file`, so the error names the file too.
Parsed structures are immutable by convention and safe to share read-only.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheckpointManifestError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    DataFormatError,
    PearlError,
)

CHECKPOINT_FORMAT_VERSION = 2

RAW_COUNTS = "raw_counts"
NORMALIZED_LOG = "normalized_log"

COORDS_HEADER = "spot_id,slide_id,x,y,array_row,array_col"
SURVIVAL_HEADER = "subject_id,time,event,slide_ids"


@dataclass
class ExpressionMatrix:
    """Spots x genes matrix with identifier lists.

    `matrix` is kept as given: a dense array, or anything with `toarray()`
    (e.g. a scipy sparse matrix).  Read it only through `dense()` and `.shape`.
    """

    spot_ids: list
    gene_ids: list
    matrix: np.ndarray
    value_kind: str = RAW_COUNTS

    def __post_init__(self):
        for kind, ids in (("spot", self.spot_ids), ("gene", self.gene_ids)):
            if (repeated := _repeated(ids)) is not None:
                raise DataFormatError(f"duplicate {kind} id {repeated!r}")
        if self.matrix.shape != (len(self.spot_ids), len(self.gene_ids)):
            raise DataFormatError(
                f"matrix shape {self.matrix.shape} does not match id lists "
                f"({len(self.spot_ids)} spots, {len(self.gene_ids)} genes)"
            )
        if self.value_kind == RAW_COUNTS and (self.dense() < 0).any():
            raise DataFormatError("raw counts must be non-negative")

    @property
    def n_spots(self):
        return len(self.spot_ids)

    @property
    def n_genes(self):
        return len(self.gene_ids)

    def dense(self):
        """The matrix as a float64 array; a float64 array is returned uncopied."""
        m = self.matrix
        return np.asarray(m.toarray() if hasattr(m, "toarray") else m, dtype=np.float64)


@dataclass(frozen=True)
class SpotGeometry:
    spot_id: str
    slide_id: str
    x: float
    y: float
    array_row: int
    array_col: int


@dataclass(frozen=True)
class GeneSet:
    name: str
    description: str
    genes: frozenset


@dataclass
class GeneSetCollection:
    sets: list

    def __post_init__(self):
        if (repeated := _repeated(s.name for s in self.sets)) is not None:
            raise DataFormatError(f"duplicate gene set name {repeated!r}")
        for s in self.sets:
            if not s.genes:
                raise DataFormatError(f"gene set {s.name!r} is empty")

    def names(self):
        return [s.name for s in self.sets]

    def __len__(self):
        return len(self.sets)


@dataclass
class PatchFeatureMatrix:
    spot_ids: list
    features: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != len(self.spot_ids):
            raise DataFormatError("feature row count does not match spot count")
        if not np.all(np.isfinite(self.features)):
            raise DataFormatError("non-finite feature value")

    @property
    def d_img(self):
        return self.features.shape[1]


@dataclass(frozen=True)
class SurvivalRecord:
    subject_id: str
    time: float
    event: bool
    slide_ids: tuple


@dataclass
class SurvivalTable:
    rows: list

    def __post_init__(self):
        for r in self.rows:
            if not 0 < r.time < math.inf:
                raise DataFormatError(f"subject {r.subject_id!r}: time must be finite and > 0")


@dataclass
class PathwayScoreMatrix:
    spot_ids: list
    pathway_names: list
    scores: np.ndarray

    def __post_init__(self):
        # float32 (model predictions) stays float32, so it is written at 9 digits
        if np.asarray(self.scores).dtype != np.float32:
            self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.spot_ids), len(self.pathway_names)):
            raise DataFormatError("score matrix shape does not match id lists")
        if not np.all(np.isfinite(self.scores)):
            raise DataFormatError("non-finite pathway score")


def _repeated(items):
    """The first of `items` that equals an earlier one, or None."""
    first = {}
    return next((x for i, x in enumerate(items) if first.setdefault(x, i) != i), None)


def rows_of(ids, table_ids, table, path=None):
    """The row of `table_ids` that holds each of `ids`, in order: the one join
    of per-spot tables by spot id.  The first id it lacks is an error naming
    `table` (and the file `path`)."""
    row = {s: i for i, s in enumerate(table_ids)}
    if (absent := next((s for s in ids if s not in row), None)) is not None:
        raise DataFormatError(f"spot {absent!r} is missing from the {table} table", path=path)
    return [row[s] for s in ids]


def _float_spec(values, path):
    """The `%` conversion that spells every value of the array `values` so
    that it reads back bit-identical: `%.9g` for float32, `%.17g` for any
    other dtype, written as float64.  A non-finite value is refused, naming
    the file `path` it was to be written to."""
    finite = np.isfinite(values)
    if not finite.all():
        raise DataFormatError(f"cannot write the non-finite value {values[~finite][0]}", path=path)
    return "%.9g" if values.dtype == np.float32 else "%.17g"


def _names_file(reader):
    """`reader(path, ...)`, a DataFormatError it raises, or bytes that are
    not UTF-8, made a DataFormatError naming `path`."""

    @functools.wraps(reader)
    def read(path, *args, **kwargs):
        try:
            return reader(path, *args, **kwargs)
        except DataFormatError as exc:
            raise DataFormatError(exc.detail, exc.line, path) from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text: {exc}", path=path) from None

    return read


def read_json(path, error, what):
    """The JSON object in the file `path`, the `what` (e.g. "config") it
    holds.  Invalid JSON, bytes that are not UTF-8, nesting too deep to
    decode, a root that is not an object or a key repeated in any object is
    an `error` naming the path."""

    def unique(pairs):
        if (repeated := _repeated(key for key, _ in pairs)) is not None:
            raise error(f"{path}: {what} repeats the key {repeated!r} in one object")
        return dict(pairs)

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh, object_pairs_hook=unique)
        except (ValueError, RecursionError) as exc:
            raise error(f"{path}: {what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise error(f"{path}: {what} root must be a JSON object")
    return obj


def of_type(value, kind):
    """Whether the JSON value `value` is of type `kind`: exactly (a bool is
    not an int), except that an int may stand for a float if it has one
    (10**400 does not)."""
    if kind is float and type(value) is int:
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return type(value) is kind


# ---------------------------------------------------------------------------
# GMT
# ---------------------------------------------------------------------------


def parse_gmt(text):
    """Parse GMT text: one gene set per non-empty line, whose genes are the
    distinct non-blank fields after the name and description."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    sets = []
    seen_names = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split("\t")
        if len(fields) < 3:
            raise DataFormatError(
                f"expected at least 3 tab-separated fields, got {len(fields)}",
                line=lineno,
            )
        name = fields[0].strip()
        if name in seen_names:
            raise DataFormatError(f"duplicate gene set name {name!r}", line=lineno)
        seen_names.add(name)
        genes = frozenset(field.strip() for field in fields[2:]) - {""}
        if not genes:
            raise DataFormatError(f"gene set {name!r} is empty", line=lineno)
        sets.append(GeneSet(name=name, description=fields[1], genes=genes))
    return GeneSetCollection(sets)


def write_gmt(collection, path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in collection.sets:
            fh.write("\t".join([s.name, s.description] + sorted(s.genes)) + "\n")


@_names_file
def read_gmt(path):
    with open(path, "rb") as fh:
        return parse_gmt(fh.read())


# ---------------------------------------------------------------------------
# Text tables
# ---------------------------------------------------------------------------


def _rows(path, sep, head, exact=False, keyed=False):
    """Yield (physical line number, fields) for each non-blank line of a table:
    the `_header` line, then each later line's `_fields`, keyed if `keyed`."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        n, header = _header(lines, sep, head, exact)
        yield n, header
        keys = set() if keyed else None
        for n, ln in lines:
            if (fields := _fields(n, ln, sep, header, keys)) is not None:
                yield n, fields


def _header(lines, sep, head, exact=False):
    """(line number, fields) of the first non-blank of `lines`, (number, text)
    pairs: the header, which must start with the fields `head` (equal them if
    `exact`).  No such line is an "empty file" error on line 1."""
    for n, ln in lines:
        if not ln.isspace():
            header = ln.rstrip("\n").split(sep)
            if header[: len(head)] != list(head) or (exact and len(header) != len(head)):
                what = "header" if exact else "header starting"
                raise DataFormatError(f"expected {what} {sep.join(head)!r}", line=n)
            return n, header
    raise DataFormatError("empty file", line=1)


def _fields(n, ln, sep, header, keys=None):
    """The fields of line `n`, `ln`, of a table under `header`, or None if it
    is blank.  It must be as wide as the header.  If `keys` is a set, a first
    field already in it is an error naming the header's first field; it is
    added otherwise."""
    if ln.isspace():
        return None
    fields = ln.rstrip("\n").split(sep)
    if len(fields) != len(header):
        raise DataFormatError(f"expected {len(header)} fields, got {len(fields)}", line=n)
    if keys is not None:
        if fields[0] in keys:
            raise DataFormatError(f"duplicate {header[0]} {fields[0]!r}", line=n)
        keys.add(fields[0])
    return fields


# ---------------------------------------------------------------------------
# Expression matrices
# ---------------------------------------------------------------------------


# characters per block of lines of the bulk triplet and float-table readers (a
# `readlines` hint) and cells per `%` call of the triplet writer: big enough
# that per-block overhead is small, small enough that a block's Python strings
# do not raise the peak RSS
_BLOCK_BYTES = 1 << 17
_WRITE_CELLS = 4096

_TRIPLET_HEADER = "spot\tgene\tvalue\n"


@_names_file
def parse_expression(path, value_kind=RAW_COUNTS):
    """Parse a sparse-triplet expression TSV: a `spot gene value` header, then
    one line per cell, spots and genes numbered in order of first appearance.

    `value_kind` tags the result; files written mid-pipeline (after
    normalization) are re-read with value_kind=normalized_log.  A well-formed
    file is parsed in blocks of lines; any other is re-read line by line,
    which names the line at fault.
    """
    spot_ids, gene_ids, rows, cols, vals = _triplets_in_blocks(path) or _triplets_by_line(path)
    nonzero = vals != 0.0  # -0.0 is not stored
    mat = np.zeros((len(spot_ids), len(gene_ids)))
    mat[rows[nonzero], cols[nonzero]] = vals[nonzero]
    return ExpressionMatrix(spot_ids, gene_ids, mat, value_kind)


def _triplets_by_line(path):
    """(spot ids, gene ids, int64 spot codes, int64 gene codes, float64
    values) of a triplet file, one entry per cell in file order, read one line
    at a time: the reference reader, and the one that raises DataFormatError."""
    lines = _rows(path, "\t", ("spot", "gene", "value"), exact=True)
    next(lines)
    spot_index, gene_index, cells = {}, {}, {}  # cells: (spot code, gene code) -> value
    for lineno, fields in lines:
        spot, gene = fields[0].strip(), fields[1].strip()
        v = _parse_value(fields[2], lineno)
        si = spot_index.setdefault(spot, len(spot_index))
        gi = gene_index.setdefault(gene, len(gene_index))
        if (si, gi) in cells:
            raise DataFormatError(f"duplicate entry for ({spot}, {gene})", line=lineno)
        cells[si, gi] = v
    rows, cols = np.array(list(cells), dtype=np.int64).reshape(-1, 2).T
    return list(spot_index), list(gene_index), rows, cols, np.array(list(cells.values()))


def _triplets_in_blocks(path):
    """What `_triplets_by_line` returns, built from blocks of `_BLOCK_BYTES`
    of whole lines, or None if the file is not a header followed by at least
    one line of exactly three tab-separated fields, each value a finite
    non-negative float, each (spot, gene) pair once."""
    spot_codes, gene_codes = {}, {}  # stripped id -> code
    raw_spots, raw_genes = {}, {}  # id as written -> code
    rows, cols, vals = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            if fh.readline() != _TRIPLET_HEADER:
                return None
            while lines := fh.readlines(_BLOCK_BYTES):
                block = "".join(lines)
                if not block.endswith("\n"):
                    block += "\n"
                n = len(lines)
                seps = np.frombuffer(block.encode(), dtype=np.uint8)
                seps = seps[(seps == 9) | (seps == 10)]
                if seps.size != 3 * n or not (seps.reshape(n, 3) == (9, 9, 10)).all():
                    return None
                cells = block[:-1].replace("\n", "\t").split("\t")
                v = np.fromiter(map(float, cells[2::3]), dtype=np.float64, count=n)
                if not (np.isfinite(v) & (v >= 0)).all():
                    return None
                rows.append(_codes(cells[0::3], raw_spots, spot_codes))
                cols.append(_codes(cells[1::3], raw_genes, gene_codes))
                vals.append(v)
        except ValueError:  # a value float() refuses, or bytes that are not UTF-8
            return None
    if not rows:
        return None
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    key = np.sort(rows * len(gene_codes) + cols)
    if (key[1:] == key[:-1]).any():
        return None
    return list(spot_codes), list(gene_codes), rows, cols, vals


def _codes(raw_ids, raw_codes, codes):
    """int64 code of each id in `raw_ids`, each stripped id numbered in order
    of first appearance in `codes`; `raw_codes` holds the code of each id as
    written, so each distinct one is stripped once."""
    for raw in dict.fromkeys(raw_ids):
        if raw not in raw_codes:
            raw_codes[raw] = codes.setdefault(raw.strip(), len(codes))
    return np.fromiter(map(raw_codes.__getitem__, raw_ids), dtype=np.int64, count=len(raw_ids))


def _parse_value(cell, lineno):
    try:
        v = float(cell)
    except ValueError:
        raise DataFormatError(f"bad numeric value {cell!r}", line=lineno) from None
    if not math.isfinite(v):
        raise DataFormatError(f"non-finite value {cell!r}", line=lineno)
    if v < 0:
        raise DataFormatError(f"negative value {cell!r}", line=lineno)
    return v


def write_expression(m, path):
    """Write `m` as a sparse-triplet TSV: one line per nonzero cell, by spot,
    then by gene id, so the bytes do not depend on the column numbering.  A
    spot or gene with no nonzero cell gets one explicit 0 (at the first gene
    by id, or the first spot), so that reading the file back keeps it.  A
    matrix with spots but no genes, or genes but no spots, has no cell to
    carry its ids and is refused; a 0 x 0 one is the bare header.

    Values are spelled by `_float_spec` (float64), `_WRITE_CELLS` lines per
    `%` call; a negative value is refused, as `_float_spec` refuses a
    non-finite one.
    """
    dense = m.dense()
    if dense.size == 0 and dense.shape != (0, 0):
        raise DataFormatError(
            f"a matrix of {m.n_spots} spots and {m.n_genes} genes has no cell "
            "to keep its ids in a triplet file"
        )
    line = f"%s\t%s\t{_float_spec(dense, path)}\n"
    if (negative := dense < 0).any():  # `parse_expression` refuses one; -0.0 is not < 0
        raise DataFormatError(f"cannot write the negative value {dense[negative][0]}", path=path)
    by_id = np.argsort(m.gene_ids)  # the mask's columns in gene-id order
    mask = (dense != 0)[:, by_id]
    if mask.size:
        mask[~mask.any(axis=1), 0] = True
        mask[0, ~mask.any(axis=0)] = True
    row, col = np.nonzero(mask)
    col = by_id[col]
    spot_ids, gene_ids = np.array(m.spot_ids, dtype=object), np.array(m.gene_ids, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TRIPLET_HEADER)
        for start in range(0, row.size, _WRITE_CELLS):
            r, c = row[start : start + _WRITE_CELLS], col[start : start + _WRITE_CELLS]
            cells = np.empty((r.size, 3), dtype=object)
            cells[:, 0], cells[:, 1] = spot_ids[r], gene_ids[c]
            cells[:, 2] = dense[r, c]
            fh.write(line * r.size % tuple(cells.ravel().tolist()))


# ---------------------------------------------------------------------------
# Coordinates and survival
# ---------------------------------------------------------------------------


@_names_file
def read_coords(path):
    rows = _rows(path, ",", tuple(COORDS_HEADER.split(",")), exact=True, keyed=True)
    next(rows)
    geoms, seen_pos = [], set()
    for lineno, fields in rows:
        try:
            g = SpotGeometry(
                spot_id=fields[0],
                slide_id=fields[1],
                x=float(fields[2]),
                y=float(fields[3]),
                array_row=int(fields[4]),
                array_col=int(fields[5]),
            )
        except ValueError as exc:
            raise DataFormatError(str(exc), line=lineno) from None
        if not (math.isfinite(g.x) and math.isfinite(g.y)):
            raise DataFormatError(f"non-finite coordinate ({fields[2]}, {fields[3]})", line=lineno)
        key = (g.slide_id, g.array_row, g.array_col)
        if key in seen_pos:
            raise DataFormatError(f"duplicate grid position {key}", line=lineno)
        seen_pos.add(key)
        geoms.append(g)
    return geoms


def write_coords(geoms, path):
    xy = np.array([(g.x, g.y) for g in geoms], dtype=np.float64)
    spec = _float_spec(xy, path)
    line = f"%s,%s,{spec},{spec},%s,%s\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(COORDS_HEADER + "\n")
        for g, (x, y) in zip(geoms, xy.tolist()):
            fh.write(line % (g.spot_id, g.slide_id, x, y, g.array_row, g.array_col))


@_names_file
def read_survival(path):
    rows = _rows(path, ",", tuple(SURVIVAL_HEADER.split(",")), exact=True, keyed=True)
    next(rows)
    records, owner = [], {}  # owner: the subject that lists each slide
    for lineno, fields in rows:
        ev = fields[2].strip().lower()
        if ev not in {"0", "1", "true", "false"}:
            raise DataFormatError(f"bad event flag {fields[2]!r}", line=lineno)
        try:
            t = float(fields[1])
        except ValueError:
            raise DataFormatError(f"bad time {fields[1]!r}", line=lineno) from None
        if not 0 < t < math.inf:
            raise DataFormatError(f"time must be finite and > 0, got {fields[1]!r}", line=lineno)
        slides = tuple(s for s in fields[3].split(";") if s)
        if not slides:
            raise DataFormatError(f"subject {fields[0]!r} lists no slide", line=lineno)
        for s in slides:
            if (other := owner.get(s)) is not None:
                raise DataFormatError(
                    f"subject {other!r} lists slide {s!r} twice" if other == fields[0]
                    else f"subjects {other!r} and {fields[0]!r} both list slide {s!r}",
                    line=lineno,
                )
            owner[s] = fields[0]
        records.append(
            SurvivalRecord(
                subject_id=fields[0],
                time=t,
                event=ev in {"1", "true"},
                slide_ids=slides,
            )
        )
    return SurvivalTable(records)


def write_survival(table, path):
    times = np.array([r.time for r in table.rows], dtype=np.float64)
    line = f"%s,{_float_spec(times, path)},%d,%s\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SURVIVAL_HEADER + "\n")
        for r, t in zip(table.rows, times.tolist()):
            fh.write(line % (r.subject_id, t, r.event, ";".join(r.slide_ids)))


# ---------------------------------------------------------------------------
# Float tables: features, scores, slide embeddings
# ---------------------------------------------------------------------------


# characters numpy's float parser skips around a number and `float()` does not
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _in_bulk(block, k, width, keys):
    """What `_float_rows` gives for `block`, lines with `k` id columns and
    `width` values, from one `np.loadtxt` call; or None if the block holds a
    line with no values, a cell `np.loadtxt` refuses or reads where `float()`
    would not, a row that is not `width` wide, a non-finite value or a first
    id seen before.  `keys`, the first ids seen, gains the block's."""
    parts = [ln.split("\t", k) for ln in block]
    if any(len(p) <= k or p[k].isspace() or not p[k] for p in parts) or any(
        c in ln for ln in block for c in _LOADTXT_ONLY_SPACE
    ):
        return None
    try:
        values = np.loadtxt(
            [p[k] for p in parts], dtype=np.float64, delimiter="\t", comments=None, ndmin=2
        )
    except ValueError:
        return None
    firsts = {p[0] for p in parts}
    if (
        values.shape != (len(block), width)
        or not np.isfinite(values).all()
        or len(firsts) != len(block)
        or not keys.isdisjoint(firsts)
    ):
        return None
    keys |= firsts
    return [list(column) for column in zip(*(p[:k] for p in parts))], values


def _float_rows(block, first, header, k, keys):
    """(one list per id column, float64 values) of `block`, the lines of a
    float table under `header` from physical line `first` on, with `k` id
    columns, parsed one row at a time: numpy reads each cell as float() does.
    `keys`, the first ids seen, gains the block's."""
    ids, values = [[] for _ in range(k)], []
    for n, ln in enumerate(block, start=first):
        if (fields := _fields(n, ln, "\t", header, keys)) is None:
            continue
        try:
            row = np.array(fields[k:], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(str(exc), line=n) from None
        if not np.isfinite(row).all():
            raise DataFormatError("non-finite value", line=n)
        for column, v in zip(ids, fields):
            column.append(v)
        values.append(row)
    return ids, np.array(values).reshape(-1, len(header) - k)


def _max_rows(path, skip, width):
    """An upper bound on the rows of `width` values in file `path` after its
    first `skip` lines: one per line end (\n, \r\n or a lone \r, as text
    mode reads them; a \r\n split between two chunks counts twice) and
    one for an unterminated last line, and at most one per 2 * `width`
    bytes, the fewest a row of `width` tab-separated values takes."""
    lines, size, last = 0, 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_BLOCK_BYTES):
            lines += chunk.count(b"\n")
            if b"\r" in chunk:  # a fast scan: counting \r and \r\n costs 3x counting \n
                lines += chunk.count(b"\r") - chunk.count(b"\r\n")
            size, last = size + len(chunk), chunk[-1:]
    return min(lines + (last not in b"\r\n") - skip, size // (2 * width))


def _read_float_table(path, id_names, float32=False):
    """(one list per id column, float column names, values) of a TSV whose
    header starts with `id_names`: float64 values, or float32 if `float32`.

    Each block of `_BLOCK_BYTES` of lines is parsed by `_in_bulk`, or if that
    refuses it, by `_float_rows`, the reference.  An empty table, a header
    with no value column or a repeated value-column name, a cell that is not
    a finite number or a repeated first id is an error.  Bytes that are not
    UTF-8 are refused when their block is read, before any other fault of
    that block.  The values go into one array of the output dtype, sized by
    `_max_rows` before the first block is parsed, so the table is never
    held twice; a float32 table has each block checked by `check_float32`
    before it is cast into that array, so no float64 copy of it is made.
    """
    k = len(id_names)
    ids = [[] for _ in id_names]
    with open(path, "r", encoding="utf-8") as fh:
        header_line, header = _header(enumerate(fh, start=1), "\t", id_names)
        names = header[k:]
        if not names:
            raise DataFormatError("no value column after the id columns", line=header_line)
        if (repeated := _repeated(names)) is not None:
            raise DataFormatError(f"repeated column {repeated!r}", line=header_line)
        table = np.empty((_max_rows(path, header_line, len(names)), len(names)),
                         np.float32 if float32 else np.float64)
        keys, first, filled = set(), header_line + 1, 0
        while block := fh.readlines(_BLOCK_BYTES):
            block_ids, values = _in_bulk(block, k, len(names), keys) or _float_rows(
                block, first, header, k, keys
            )
            first += len(block)
            if float32:
                check_float32(path, block_ids[0], values)
            table[filled : filled + len(values)] = values
            filled += len(values)
            for column, block_column in zip(ids, block_ids):
                column += block_column
    if not filled:
        raise DataFormatError("no rows after the header", line=header_line)
    return ids, names, table[:filled]


def _write_float_table(path, header, ids, values):
    """Write `header`, then per row its id fields and its values, spelled by
    `_float_spec`.  Each row is one `%` call; rows are converted one at a
    time, so no Python float list of the whole table is held.
    """
    fmt = f"\t{_float_spec(values, path)}" * values.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row_ids, row in zip(ids, values):
            fh.write("\t".join(row_ids) + fmt % tuple(row.tolist()))


def check_float32(path, spot_ids, values):
    """Refuse float64 `values`, one row per spot of `spot_ids`, that a float32
    model cannot hold: a value whose float32 cast is infinite is an error
    naming `path` and the spot.  Two reductions and no copy if all fit."""
    with np.errstate(over="ignore"):
        if values.size == 0 or np.isfinite(np.float32([values.max(), values.min()])).all():
            return
        i, j = np.argwhere(np.isinf(values.astype(np.float32)))[0]
    raise DataFormatError(
        f"spot {spot_ids[i]!r}: value {float(values[i, j])!r} is beyond float32's range", path=path
    )


@_names_file
def read_features(path):
    (spot_ids,), _, features = _read_float_table(path, ("spot_id",))
    return PatchFeatureMatrix(spot_ids, features)


def write_features(fm, path):
    header = ["spot_id", *(f"f{j}" for j in range(fm.d_img))]
    _write_float_table(path, header, zip(fm.spot_ids), fm.features)


@_names_file
def read_scores(path):
    (spot_ids,), names, scores = _read_float_table(path, ("spot",))
    return PathwayScoreMatrix(spot_ids, names, scores)


def write_scores(sm, path):
    _write_float_table(path, ["spot", *sm.pathway_names], zip(sm.spot_ids), sm.scores)


@_names_file
def read_embeddings(path):
    """(spot ids, slide ids, float64 (spots, dim) embeddings) of an embedding TSV."""
    (spot_ids, slide_ids), _, values = _read_float_table(path, ("spot_id", "slide_id"))
    return spot_ids, slide_ids, values


@_names_file
def read_slide_embeddings(path):
    """({slide id: its row indices}, float32 (rows, dim) embeddings) of an
    embedding TSV, slides and rows in file order: what the Cox head reads.
    A value float32 cannot hold is refused in the first block that has one."""
    (_, slide_ids), _, values = _read_float_table(path, ("spot_id", "slide_id"), float32=True)
    rows = {}
    for i, slide in enumerate(slide_ids):
        rows.setdefault(slide, []).append(i)
    return rows, values


def write_embeddings(spot_ids, slide_ids, values, path):
    header = ["spot_id", "slide_id", *(f"e{j}" for j in range(values.shape[1]))]
    _write_float_table(path, header, zip(spot_ids, slide_ids), values)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def manifest_of(path):
    """The manifest file of the checkpoint `path`."""
    return path + ".manifest.json"


def blob_of(path):
    """The parameter blob of the checkpoint `path`."""
    return path + ".params.bin"


def save_checkpoint(obj, hyperparams, path):
    """Write <path>.manifest.json and <path>.params.bin.

    `obj.parameters()` is an ordered list of (name, Tensor); the blob stores
    their values back to back as little-endian f32 in manifest order.
    """
    params = obj.parameters()
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "hyperparams": hyperparams,
        "params": [{"name": n, "shape": list(p.shape)} for n, p in params],
    }
    with open(manifest_of(path), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    with open(blob_of(path), "wb") as fh:
        for _, p in params:  # a float32 parameter on a little-endian host is not copied
            fh.write(np.ascontiguousarray(p.values, dtype="<f4"))


def _is_param_entry(p):
    return (
        isinstance(p, dict)
        and isinstance(p.get("name"), str)
        and isinstance(p.get("shape"), list)
        and all(of_type(n, int) and n >= 0 for n in p["shape"])
    )


def load_checkpoint(path, kinds, build):
    """`build(**hyperparams)`, the float32 arrays of its `parameters()` filled
    in place from the blob.

    The manifest, read by `read_json` (a missing one is an OSError), must be
    a JSON object with this format version, a `hyperparams` object and a
    `params` list of {name, shape} entries with no name twice; anything else
    is a CheckpointManifestError, and any other key is ignored.
    The hyperparameter keys must be exactly those of `kinds`, {name: type},
    each value `of_type` its type, and a PearlError from `build` is a
    CheckpointManifestError.  The built parameters' names and shapes must be
    the manifest's.
    """
    manifest_path, blob_path = manifest_of(path), blob_of(path)
    manifest = read_json(manifest_path, CheckpointManifestError, "manifest")
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointVersionError(
            f"{manifest_path}: format version {manifest.get('format_version')} != "
            f"{CHECKPOINT_FORMAT_VERSION}"
        )
    hyper, entries = manifest.get("hyperparams"), manifest.get("params")
    if not isinstance(hyper, dict):
        raise CheckpointManifestError(f"{manifest_path}: 'hyperparams' must be a JSON object")
    if not isinstance(entries, list) or not all(map(_is_param_entry, entries)):
        raise CheckpointManifestError(
            f"{manifest_path}: 'params' must be a list of {{name, shape}} entries"
        )
    if (repeated := _repeated(p["name"] for p in entries)) is not None:
        raise CheckpointManifestError(f"{manifest_path}: parameter {repeated!r} listed twice")
    with open(blob_path, "rb") as fh:
        expected = 4 * sum(math.prod(p["shape"]) for p in entries)
        if (size := os.fstat(fh.fileno()).st_size) != expected:
            error = CheckpointTruncatedError if size < expected else CheckpointShapeError
            raise error(f"{blob_path}: blob holds {size} bytes, manifest declares {expected}")
        if bad := sorted(set(hyper) ^ set(kinds)):
            kind = "unknown" if bad[0] in hyper else "missing"
            raise CheckpointShapeError(f"{manifest_path}: {kind} hyperparameter {bad[0]!r}")
        for name, kind in kinds.items():
            if not of_type(value := hyper[name], kind):
                raise CheckpointManifestError(f"{manifest_path}: hyperparameter {name!r} must "
                                              f"be of type {kind.__name__}, got {value!r}")
        try:
            obj = build(**hyper)
        except PearlError as exc:
            raise CheckpointManifestError(f"{manifest_path}: {exc}") from None
        shapes = {p["name"]: tuple(p["shape"]) for p in entries}
        targets = dict(obj.parameters())
        if shapes.keys() != targets.keys():
            raise CheckpointShapeError(f"{manifest_path}: parameter names do not match the "
                                       "declared hyperparameters")
        for n, t in targets.items():  # the first mismatch in the object's order is named
            if (shape := shapes[n]) != t.values.shape:
                raise CheckpointShapeError(f"{manifest_path}: parameter {n!r}: shape {shape}, "
                                           f"expected {t.values.shape}")
        for p in entries:  # in blob order, each straight into its built float32 array
            values = targets[p["name"]].values
            if fh.readinto(values) < values.nbytes:  # cut since its size was read
                raise CheckpointTruncatedError(f"{blob_path}: blob ends inside {p['name']!r}")
            if sys.byteorder == "big":  # the blob is little-endian
                values.byteswap(inplace=True)
    return obj
