"""Parsers and writers for every on-disk format.

Formats:
  - GMT gene sets (name TAB description TAB gene...)
  - expression matrices, sparse triplet TSV (spot TAB gene TAB value)
  - spot coordinates CSV
  - survival CSV
  - float tables, TSV of id columns then floats: patch features
    (spot_id f0...), pathway scores (spot <pathway>...) and slide embeddings
    (spot_id slide_id e0..., one row per spot).  A float32 table is written
    at 9 significant digits and any other at 17, as float64: the fewest that
    round-trip every value of the dtype (IEEE 754 binary32 and binary64)
  - checkpoints: <name>.manifest.json + <name>.params.bin (little-endian f32)

Text tables are read through `_rows`, so a malformed file raises
DataFormatError naming its physical line.  Expression files are parsed in
blocks of lines instead, and one in which the block parse finds anything off
is re-read through `_rows`, so its error is the same.  The text readers are
wrapped in `_names_file`, so the error names the file too.  Parsed structures
are immutable by convention and safe to share read-only.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
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
        if len(set(self.spot_ids)) != len(self.spot_ids):
            raise DataFormatError("duplicate spot ids")
        if len(set(self.gene_ids)) != len(self.gene_ids):
            raise DataFormatError("duplicate gene ids")
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
    dedup_warnings: int = 0

    def __post_init__(self):
        names = [s.name for s in self.sets]
        if len(set(names)) != len(names):
            raise DataFormatError("duplicate gene set names")
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


def _names_file(reader):
    """Make a DataFormatError raised by `reader(path, ...)`, or bytes that are
    not UTF-8, a DataFormatError naming the path."""

    @functools.wraps(reader)
    def read(path, *args, **kwargs):
        try:
            return reader(path, *args, **kwargs)
        except DataFormatError as exc:
            raise DataFormatError(exc.detail, exc.line, path) from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text: {exc}", path=path) from None

    return read


# ---------------------------------------------------------------------------
# GMT
# ---------------------------------------------------------------------------


def parse_gmt(text):
    """Parse GMT text: one gene set per non-empty line.

    Duplicate gene symbols within a line are removed; the total number of
    removed duplicates is reported on the collection.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    sets = []
    seen_names = set()
    dedup = 0
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
        genes = []
        seen_genes = set()
        for raw in fields[2:]:
            g = raw.strip()
            if not g:
                continue
            if g in seen_genes:
                dedup += 1
                continue
            seen_genes.add(g)
            genes.append(g)
        sets.append(GeneSet(name=name, description=fields[1], genes=frozenset(genes)))
    return GeneSetCollection(sets=sets, dedup_warnings=dedup)


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


def _rows(path, sep, head, exact=False):
    """Yield (physical line number, fields) for each non-blank line of a table.

    The first is the header; it must start with the fields `head` (equal them
    if `exact`), and every later line must be as wide.  An empty file is an
    error on line 1.
    """
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for n, ln in enumerate(fh, start=1):
            if ln.isspace():
                continue
            fields = ln.rstrip("\n").split(sep)
            if header is None:
                header = fields
                if header[: len(head)] != list(head) or (exact and len(header) != len(head)):
                    what = "header" if exact else "header starting"
                    raise DataFormatError(f"expected {what} {sep.join(head)!r}", line=n)
            elif len(fields) != len(header):
                raise DataFormatError(
                    f"expected {len(header)} fields, got {len(fields)}", line=n
                )
            yield n, fields
    if header is None:
        raise DataFormatError("empty file", line=1)


# ---------------------------------------------------------------------------
# Expression matrices
# ---------------------------------------------------------------------------


# lines per block of the bulk triplet reader (a `readlines` hint) and cells per
# `%` call of the triplet writer: big enough that per-block overhead is small,
# small enough that a block's Python strings do not raise the peak RSS
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
    spot_ids, gene_ids, mat = _triplets_in_blocks(path) or _triplets_by_line(path)
    return ExpressionMatrix(spot_ids, gene_ids, mat, value_kind)


def _triplets_by_line(path):
    """(spot ids, gene ids, dense matrix) of a triplet file, one line at a
    time: the reference reader, and the one that raises DataFormatError."""
    rows = _rows(path, "\t", ("spot", "gene", "value"), exact=True)
    next(rows)
    spot_index, gene_index, seen_pairs = {}, {}, set()
    row_idx, cols, vals = [], [], []
    for lineno, fields in rows:
        spot, gene = fields[0].strip(), fields[1].strip()
        v = _parse_value(fields[2], lineno)
        si = spot_index.setdefault(spot, len(spot_index))
        gi = gene_index.setdefault(gene, len(gene_index))
        if (si, gi) in seen_pairs:
            raise DataFormatError(f"duplicate entry for ({spot}, {gene})", line=lineno)
        seen_pairs.add((si, gi))
        if v != 0.0:
            row_idx.append(si)
            cols.append(gi)
            vals.append(v)
    mat = np.zeros((len(spot_index), len(gene_index)))
    mat[np.asarray(row_idx, dtype=np.intp), np.asarray(cols, dtype=np.intp)] = vals
    return list(spot_index), list(gene_index), mat


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
    nonzero = vals != 0.0  # -0.0 is not stored, as in the line reader
    mat = np.zeros((len(spot_codes), len(gene_codes)))
    mat[rows[nonzero], cols[nonzero]] = vals[nonzero]
    return list(spot_codes), list(gene_codes), mat


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

    Values are written as `_fmt` writes them, `_WRITE_CELLS` lines per `%`
    call.
    """
    dense = m.dense()
    if dense.size == 0 and dense.shape != (0, 0):
        raise DataFormatError(
            f"a matrix of {m.n_spots} spots and {m.n_genes} genes has no cell "
            "to keep its ids in a triplet file"
        )
    gene_rank = np.argsort(np.argsort(m.gene_ids, kind="stable"), kind="stable")
    mask = dense != 0
    if mask.size:
        mask[~mask.any(axis=1), np.argmin(gene_rank)] = True
        mask[0, ~mask.any(axis=0)] = True
    row, col = np.nonzero(mask)
    order = np.lexsort((gene_rank[col], row))
    row, col = row[order], col[order]
    spot_ids, gene_ids = np.array(m.spot_ids, dtype=object), np.array(m.gene_ids, dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TRIPLET_HEADER)
        for start in range(0, row.size, _WRITE_CELLS):
            r, c = row[start : start + _WRITE_CELLS], col[start : start + _WRITE_CELLS]
            cells = np.empty((r.size, 3), dtype=object)
            cells[:, 0], cells[:, 1] = spot_ids[r], gene_ids[c]
            cells[:, 2] = _fmt_values(dense[r, c])
            fh.write("%s\t%s\t%s\n" * r.size % tuple(cells.ravel().tolist()))


def _fmt_values(v):
    """Objects whose `%s` is `_fmt` of each value of float64 array `v`: an int
    for a whole value under 1e15 in magnitude, else the float (whose str is
    its repr)."""
    finite = np.isfinite(v)
    if not finite.all():
        _fmt(v[~finite][0])  # raises, as _fmt does on a value with no int
    out = v.astype(object)
    whole = (v == np.trunc(v)) & (np.abs(v) < 1e15)
    out[whole] = v[whole].astype(np.int64)
    return out


def _fmt(v):
    # repr round-trips float64 exactly; integers print compactly
    f = float(v)
    return str(int(f)) if f == int(f) and abs(f) < 1e15 else repr(f)


# ---------------------------------------------------------------------------
# Coordinates and survival
# ---------------------------------------------------------------------------


@_names_file
def read_coords(path):
    rows = _rows(path, ",", tuple(COORDS_HEADER.split(",")), exact=True)
    next(rows)
    geoms = []
    seen_ids, seen_pos = set(), set()
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
        if g.spot_id in seen_ids:
            raise DataFormatError(f"duplicate spot_id {g.spot_id!r}", line=lineno)
        seen_ids.add(g.spot_id)
        key = (g.slide_id, g.array_row, g.array_col)
        if key in seen_pos:
            raise DataFormatError(f"duplicate grid position {key}", line=lineno)
        seen_pos.add(key)
        geoms.append(g)
    return geoms


def write_coords(geoms, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(COORDS_HEADER + "\n")
        for g in geoms:
            fh.write(
                f"{g.spot_id},{g.slide_id},{_fmt(g.x)},{_fmt(g.y)},{g.array_row},{g.array_col}\n"
            )


@_names_file
def read_survival(path):
    rows = _rows(path, ",", tuple(SURVIVAL_HEADER.split(",")), exact=True)
    next(rows)
    records, seen = [], set()
    for lineno, fields in rows:
        if fields[0] in seen:
            raise DataFormatError(f"duplicate subject_id {fields[0]!r}", line=lineno)
        seen.add(fields[0])
        ev = fields[2].strip().lower()
        if ev not in {"0", "1", "true", "false"}:
            raise DataFormatError(f"bad event flag {fields[2]!r}", line=lineno)
        try:
            t = float(fields[1])
        except ValueError:
            raise DataFormatError(f"bad time {fields[1]!r}", line=lineno) from None
        if not 0 < t < math.inf:
            raise DataFormatError(f"time must be finite and > 0, got {fields[1]!r}", line=lineno)
        records.append(
            SurvivalRecord(
                subject_id=fields[0],
                time=t,
                event=ev in {"1", "true"},
                slide_ids=tuple(s for s in fields[3].split(";") if s),
            )
        )
    return SurvivalTable(records)


def write_survival(table, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(SURVIVAL_HEADER + "\n")
        for r in table.rows:
            fh.write(
                f"{r.subject_id},{repr(r.time)},{int(r.event)},{';'.join(r.slide_ids)}\n"
            )


# ---------------------------------------------------------------------------
# Float tables: features, scores, slide embeddings
# ---------------------------------------------------------------------------


def _read_float_table(path, id_names):
    """(one list per id column, float column names, float64 values) of a TSV.

    numpy parses a row per call, rounding as float() does.  An empty table, a
    header with no value column or a repeated value-column name, a cell that
    is not a finite number or a repeated first id is an error.
    """
    rows = _rows(path, "\t", id_names)
    header_line, header = next(rows)
    k = len(id_names)
    names = header[k:]
    if not names:
        raise DataFormatError("no value column after the id columns", line=header_line)
    if len(set(names)) != len(names):
        repeated = next(n for n in names if names.count(n) > 1)
        raise DataFormatError(f"repeated column {repeated!r}", line=header_line)
    ids = [[] for _ in id_names]
    values, seen = [], set()
    for lineno, fields in rows:
        if fields[0] in seen:
            raise DataFormatError(f"duplicate {id_names[0]} {fields[0]!r}", line=lineno)
        seen.add(fields[0])
        try:
            row = np.array(fields[k:], dtype=np.float64)
        except ValueError as exc:
            raise DataFormatError(str(exc), line=lineno) from None
        if not np.isfinite(row).all():
            raise DataFormatError("non-finite value", line=lineno)
        for column, v in zip(ids, fields):
            column.append(v)
        values.append(row)
    if not values:
        raise DataFormatError("no rows after the header", line=header_line)
    return ids, names, np.array(values)


def _write_float_table(path, header, ids, values):
    """Write `header`, then per row its id fields and its values.

    A float32 array is written at 9 significant digits, anything else as
    float64 at 17, so every value reads back exactly in its dtype.  Each row
    is one `%` call; rows are converted one at a time, so no Python float
    list of the whole table is held.
    """
    digits = 9 if values.dtype == np.float32 else 17
    fmt = f"\t%.{digits}g" * values.shape[1] + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row_ids, row in zip(ids, values):
            fh.write("\t".join(row_ids) + fmt % tuple(row.tolist()))


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


def write_embeddings(spot_ids, slide_ids, values, path):
    header = ["spot_id", "slide_id", *(f"e{j}" for j in range(values.shape[1]))]
    _write_float_table(path, header, zip(spot_ids, slide_ids), values)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(obj, hyperparams, path, extra=None):
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
    if extra:
        manifest["extra"] = extra
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    blob = b"".join(np.ascontiguousarray(p.values, dtype="<f4").tobytes() for _, p in params)
    with open(path + ".params.bin", "wb") as fh:
        fh.write(blob)


def _is_param_entry(p):
    return (
        isinstance(p, dict)
        and isinstance(p.get("name"), str)
        and isinstance(p.get("shape"), list)
        and all(type(n) is int and n >= 0 for n in p["shape"])
    )


def load_checkpoint(path, kinds, build):
    """Return (object, extra): `build(**hyperparams)` with its `parameters()`
    filled from the blob, and the manifest's `extra` object.

    The manifest must be a JSON object with this format version, a
    `hyperparams` object, a `params` list of {name, shape} entries and, if
    present, an `extra` object; anything else is a CheckpointManifestError.
    The hyperparameter keys must be exactly those of `kinds`, {name: type},
    each value of its type (an int may stand for a float), and a PearlError
    from `build` is a CheckpointManifestError.  The built parameters' names
    and shapes must be the manifest's.
    """
    manifest_path = path + ".manifest.json"
    if not os.path.exists(manifest_path):
        raise DataFormatError(f"missing manifest {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
            raise CheckpointManifestError(f"{manifest_path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise CheckpointManifestError(f"{manifest_path}: manifest must be a JSON object")
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointVersionError(
            f"format version {manifest.get('format_version')} != {CHECKPOINT_FORMAT_VERSION}"
        )
    hyper, entries = manifest.get("hyperparams"), manifest.get("params")
    extra = manifest.get("extra", {})
    if not isinstance(hyper, dict) or not isinstance(extra, dict):
        raise CheckpointManifestError(
            f"{manifest_path}: 'hyperparams' and 'extra' must be JSON objects"
        )
    if not isinstance(entries, list) or not all(map(_is_param_entry, entries)):
        raise CheckpointManifestError(
            f"{manifest_path}: 'params' must be a list of {{name, shape}} entries"
        )
    with open(path + ".params.bin", "rb") as fh:
        blob = fh.read()
    # each entry's byte offset in the blob, entries back to back in manifest order
    *offsets, expected = itertools.accumulate(
        (math.prod(p["shape"]) * 4 for p in entries), initial=0
    )
    if len(blob) < expected:
        raise CheckpointTruncatedError(
            f"blob holds {len(blob)} bytes, manifest declares {expected}"
        )
    if len(blob) > expected:
        raise CheckpointShapeError(
            f"blob holds {len(blob)} bytes, manifest declares {expected}"
        )
    bad = sorted(set(hyper) ^ set(kinds))
    if bad:
        kind = "unknown" if bad[0] in hyper else "missing"
        raise CheckpointShapeError(f"{kind} hyperparameter {bad[0]!r}")
    for name, kind in kinds.items():
        value = hyper[name]
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise CheckpointManifestError(
                f"hyperparameter {name!r} must be of type {kind.__name__}, got {value!r}"
            )
    try:
        obj = build(**hyper)
    except PearlError as exc:
        raise CheckpointManifestError(f"{path}: {exc}") from None
    stored = {p["name"]: (tuple(p["shape"]), o) for p, o in zip(entries, offsets)}
    targets = obj.parameters()
    if set(stored) != {n for n, _ in targets}:
        raise CheckpointShapeError("parameter names do not match the declared hyperparameters")
    for n, t in targets:
        shape, offset = stored[n]
        if shape != t.values.shape:
            raise CheckpointShapeError(
                f"parameter {n!r}: manifest shape {shape}, expected {t.values.shape}"
            )
        count = math.prod(shape)
        t.values = np.frombuffer(blob, "<f4", count, offset).astype(np.float32).reshape(shape)
    return obj, extra
