"""Expression preprocessing chain.

Fixed order: filter_genes -> normalize_and_log -> smooth_8neighbor -> select_hvg.
Smoothing acts on log-normalized values; HVG selection uses plain per-gene
sample variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data_io import NORMALIZED_LOG, RAW_COUNTS, rows_of
from .errors import ConfigError, DataFormatError, PearlError


@dataclass
class PreprocessConfig:
    min_spots_per_gene: int = 1000
    target_sum: float = 10000.0
    top_hvg: int = 1000

    def __post_init__(self):
        if self.min_spots_per_gene < 0:
            raise PearlError("min_spots_per_gene must be >= 0")
        if not 0 < self.target_sum < math.inf:  # json reads NaN and Infinity
            raise PearlError("target_sum must be finite and > 0")
        if self.top_hvg < 1:
            raise PearlError("top_hvg must be >= 1")


def _require_kind(m, kind):
    if m.value_kind != kind:
        raise PearlError(f"expected value_kind {kind!r}, got {m.value_kind!r}")


def filter_genes(m, min_spots):
    """Keep genes with nonzero entries in at least `min_spots` spots."""
    _require_kind(m, RAW_COUNTS)
    X = m.dense()
    keep = np.flatnonzero(np.count_nonzero(X, axis=0) >= min_spots)
    return replace(m, gene_ids=[m.gene_ids[j] for j in keep], matrix=X[:, keep])


def normalize_and_log(m, target_sum):
    """Scale each spot row to `target_sum`, then ln(1+v).

    Zero-total spots are left as zero vectors rather than dropped, keeping the
    spot set synchronized with geometry and feature files.
    """
    _require_kind(m, RAW_COUNTS)
    X = m.dense()
    totals = X.sum(axis=1)
    scale = np.where(totals > 0, target_sum / np.where(totals > 0, totals, 1.0), 0.0)
    return replace(m, matrix=np.log1p(X * scale[:, None]), value_kind=NORMALIZED_LOG)


def smooth_8neighbor(m, geoms):
    """Replace each spot vector by the mean of itself and its grid neighbors.

    Neighbors are spots at Chebyshev distance 1 in (array_row, array_col) on
    the same slide; absent neighbors are excluded from the mean.  Spot i gets
    the sum of w_i * x_j over its members j in ascending order, w_i = 1 / their
    count: the order a CSR averaging-matrix product would add them in.
    """
    _require_kind(m, NORMALIZED_LOG)
    n = m.n_spots
    rows = rows_of(m.spot_ids, [g.spot_id for g in geoms], "coords")
    cells = [(geoms[i].slide_id, geoms[i].array_row, geoms[i].array_col) for i in rows]
    index = {}
    for i, cell in enumerate(cells):
        if index.setdefault(cell, i) != i:
            raise DataFormatError(f"duplicate grid position {cell}")
    # each spot's members in ascending order, padded with n: a zero row of X
    steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    near = [index.get((slide, r + dr, c + dc), n) for slide, r, c in cells for dr, dc in steps]
    members = np.sort(np.array(near, dtype=np.intp).reshape(n, 9), axis=1)
    w = 1.0 / np.count_nonzero(members < n, axis=1)[:, None]
    X = np.vstack([m.dense(), np.zeros((1, m.n_genes))])
    out = np.zeros((n, m.n_genes))
    for col in members.T:
        out += w * X[col]
    return replace(m, matrix=out)


def select_hvg(m, g):
    """The matrix restricted to its top-g variance genes.

    Columns (and gene_ids) are ordered by descending variance, ties broken by
    lexicographic gene id.
    """
    _require_kind(m, NORMALIZED_LOG)
    if g > m.n_genes:
        raise PearlError(f"requested {g} HVGs but only {m.n_genes} genes present")
    # per-gene sample variance (ddof=1) of the full column, zeros included
    var = m.dense().var(axis=0, ddof=1) if m.n_spots > 1 else np.zeros(m.n_genes)
    order = sorted(range(m.n_genes), key=lambda j: (-var[j], m.gene_ids[j]))
    keep = order[:g]
    return replace(m, gene_ids=[m.gene_ids[j] for j in keep], matrix=m.dense()[:, keep])


def run_pipeline(m, geoms, config):
    """Full chain; returns (normalized pre-HVG matrix, HVG matrix)."""
    if m.n_spots == 0:
        raise PearlError("expression matrix has no spots")
    filtered = filter_genes(m, config.min_spots_per_gene)
    if filtered.n_genes == 0:
        most = int(np.count_nonzero(m.dense(), axis=0).max(initial=0))
        raise ConfigError(
            f"no gene is nonzero in preprocess.min_spots_per_gene = "
            f"{config.min_spots_per_gene} spots: the matrix has {m.n_spots} spots, "
            f"and the most spots any gene is nonzero in is {most}"
        )
    normed = smooth_8neighbor(normalize_and_log(filtered, config.target_sum), geoms)
    top = min(config.top_hvg, normed.n_genes)
    return normed, select_hvg(normed, top)
