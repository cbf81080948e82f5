"""Parsers and writers for every on-disk format.

Formats:
  - GMT gene sets (name TAB description TAB gene...)
  - expression matrices, dense TSV or sparse triplet TSV
  - spot coordinates CSV
  - survival CSV
  - float tables, TSV of id columns then floats written with repr: patch
    features (spot_id f0...), pathway scores (spot <pathway>...) and slide
    embeddings (spot_id slide_id e0..., one row per spot)
  - checkpoints: <name>.manifest.json + <name>.params.bin (little-endian f32)

Text tables are read through `_rows`, so a malformed file raises
DataFormatError naming its physical line; the text readers are wrapped in
`_names_file`, so the error names the file too.  Parsed structures are
immutable by convention and safe to share read-only.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    DataFormatError,
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
            if r.time <= 0:
                raise DataFormatError(f"subject {r.subject_id!r}: time must be > 0")


@dataclass
class PathwayScoreMatrix:
    spot_ids: list
    pathway_names: list
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.shape != (len(self.spot_ids), len(self.pathway_names)):
            raise DataFormatError("score matrix shape does not match id lists")
        if not np.all(np.isfinite(self.scores)):
            raise DataFormatError("non-finite pathway score")


def _names_file(reader):
    """Make a DataFormatError raised by `reader(path, ...)` name the path."""

    @functools.wraps(reader)
    def read(path, *args, **kwargs):
        try:
            return reader(path, *args, **kwargs)
        except DataFormatError as exc:
            raise DataFormatError(exc.detail, exc.line, path) from None

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


def _rows(path, sep, head, exact=False, empty_ok=False):
    """Yield (physical line number, fields) for each non-blank line of a table.

    The first is the header; it must start with the fields `head` (equal them
    if `exact`), and every later line must be as wide.  An empty file is an
    error on line 1, or yields nothing if `empty_ok`.
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
    if header is None and not empty_ok:
        raise DataFormatError("empty file", line=1)


# ---------------------------------------------------------------------------
# Expression matrices
# ---------------------------------------------------------------------------


@_names_file
def parse_expression(path, fmt="sparse_triplet_tsv", value_kind=RAW_COUNTS):
    """Parse a dense or sparse-triplet expression TSV.

    `value_kind` tags the result; files written mid-pipeline (after
    normalization) are re-read with value_kind=normalized_log.
    """
    if fmt == "dense_tsv":
        m = _parse_dense(path)
    elif fmt == "sparse_triplet_tsv":
        m = _parse_triplets(path)
    else:
        raise DataFormatError(f"unknown expression format {fmt!r}")
    m.value_kind = value_kind
    return m


def _parse_dense(path):
    rows = _rows(path, "\t", ("spot",), empty_ok=True)
    _, header = next(rows, (1, ["spot"]))
    spot_ids, row_idx, cols, vals = [], [], [], []
    for lineno, fields in rows:
        spot_ids.append(fields[0].strip())
        for j, cell in enumerate(fields[1:]):
            v = _parse_value(cell, lineno)
            if v != 0.0:
                row_idx.append(len(spot_ids) - 1)
                cols.append(j)
                vals.append(v)
    return _raw_counts(spot_ids, [g.strip() for g in header[1:]], row_idx, cols, vals)


def _parse_triplets(path):
    rows = _rows(path, "\t", ("spot", "gene", "value"), exact=True, empty_ok=True)
    next(rows, None)
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
    return _raw_counts(list(spot_index), list(gene_index), row_idx, cols, vals)


def _raw_counts(spot_ids, gene_ids, rows, cols, vals):
    """ExpressionMatrix from the (row, column, value) of its nonzero entries."""
    mat = np.zeros((len(spot_ids), len(gene_ids)))
    mat[np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)] = vals
    return ExpressionMatrix(spot_ids, gene_ids, mat, RAW_COUNTS)


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


def write_expression(m, path, fmt="sparse_triplet_tsv"):
    if fmt == "dense_tsv":
        dense = m.dense()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("spot\t" + "\t".join(m.gene_ids) + "\n")
            for i, sid in enumerate(m.spot_ids):
                fh.write(sid + "\t" + "\t".join(_fmt(v) for v in dense[i]) + "\n")
    elif fmt == "sparse_triplet_tsv":
        dense = m.dense()
        row, col = np.nonzero(dense)
        # canonical order: by row, then gene id, so serialization does not
        # depend on internal column numbering
        gene_rank = np.argsort(np.argsort(m.gene_ids, kind="stable"), kind="stable")
        order = np.lexsort((gene_rank[col], row))
        row, col = row[order], col[order]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("spot\tgene\tvalue\n")
            for i, j, v in zip(row.tolist(), col.tolist(), dense[row, col].tolist()):
                fh.write(f"{m.spot_ids[i]}\t{m.gene_ids[j]}\t{_fmt(v)}\n")
    else:
        raise DataFormatError(f"unknown expression format {fmt!r}")


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
    records = []
    for lineno, fields in rows:
        ev = fields[2].strip().lower()
        if ev not in {"0", "1", "true", "false"}:
            raise DataFormatError(f"bad event flag {fields[2]!r}", line=lineno)
        try:
            t = float(fields[1])
        except ValueError:
            raise DataFormatError(f"bad time {fields[1]!r}", line=lineno) from None
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
    cell that is not a finite number or a repeated first id is an error.
    """
    rows = _rows(path, "\t", id_names)
    header_line, header = next(rows)
    k = len(id_names)
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
    return ids, header[k:], np.array(values)


def _write_float_table(path, header, ids, values):
    """Write `header`, then per row its id fields and each value's repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row_ids, row in zip(ids, values):
            fh.write("\t".join([*row_ids, *map(repr, row.tolist())]) + "\n")


@_names_file
def read_features(path):
    (spot_ids,), _, features = _read_float_table(path, ("spot_id",))
    return PatchFeatureMatrix(spot_ids, features)


def write_features(fm, path, prefix="f"):
    header = ["spot_id", *(f"{prefix}{j}" for j in range(fm.d_img))]
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


def save_checkpoint(params, hyperparams, path, extra=None):
    """Write <path>.manifest.json and <path>.params.bin.

    `params` is an ordered list of (name, float32 ndarray); the blob stores
    them back to back as little-endian f32 in manifest order.
    """
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "hyperparams": hyperparams,
        "params": [{"name": n, "shape": list(a.shape)} for n, a in params],
    }
    if extra:
        manifest["extra"] = extra
    with open(path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    blob = b"".join(
        np.ascontiguousarray(a, dtype="<f4").tobytes() for _, a in params
    )
    with open(path + ".params.bin", "wb") as fh:
        fh.write(blob)


def check_hyperparams(hyper, expected):
    """Require a manifest's hyperparameter keys to be exactly `expected`."""
    bad = sorted(set(hyper) ^ set(expected))
    if bad:
        kind = "unknown" if bad[0] in hyper else "missing"
        raise CheckpointShapeError(f"{kind} hyperparameter {bad[0]!r}")


def assign_params(targets, params):
    """Set each target tensor's values from the loaded `params`.

    `targets` is [(name, Tensor)] as built from the checkpoint's
    hyperparameters, `params` is load_checkpoint's [(name, f32 ndarray)];
    names and shapes must match exactly.
    """
    loaded = dict(params)
    if set(loaded) != {n for n, _ in targets}:
        raise CheckpointShapeError("parameter names do not match the declared hyperparameters")
    for n, t in targets:
        if loaded[n].shape != t.values.shape:
            raise CheckpointShapeError(
                f"parameter {n!r}: manifest shape {loaded[n].shape}, expected {t.values.shape}"
            )
        t.values = loaded[n].astype(np.float32)


def load_checkpoint(path):
    """Return (params, hyperparams, extra); params is [(name, f32 ndarray)]."""
    manifest_path = path + ".manifest.json"
    if not os.path.exists(manifest_path):
        raise DataFormatError(f"missing manifest {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointVersionError(
            f"format version {manifest.get('format_version')} != {CHECKPOINT_FORMAT_VERSION}"
        )
    with open(path + ".params.bin", "rb") as fh:
        blob = fh.read()
    expected = sum(int(np.prod(p["shape"])) for p in manifest["params"]) * 4
    if len(blob) < expected:
        raise CheckpointTruncatedError(
            f"blob holds {len(blob)} bytes, manifest declares {expected}"
        )
    if len(blob) > expected:
        raise CheckpointShapeError(
            f"blob holds {len(blob)} bytes, manifest declares {expected}"
        )
    params = []
    offset = 0
    for p in manifest["params"]:
        n = int(np.prod(p["shape"]))
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).reshape(p["shape"])
        params.append((p["name"], arr.copy()))
        offset += n * 4
    return params, manifest["hyperparams"], manifest.get("extra")
