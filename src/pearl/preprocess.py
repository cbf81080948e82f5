"""Expression preprocessing chain.

Fixed order: filter_genes -> normalize_and_log -> smooth_8neighbor -> select_hvg.
Smoothing acts on log-normalized values; HVG selection uses plain per-gene
sample variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data_io import NORMALIZED_LOG, RAW_COUNTS, ExpressionMatrix
from .errors import DataFormatError, PearlError


@dataclass
class PreprocessConfig:
    min_spots_per_gene: int = 1000
    target_sum: float = 10000.0
    top_hvg: int = 1000
    smoothing_enabled: bool = True

    def __post_init__(self):
        if self.min_spots_per_gene < 0:
            raise PearlError("min_spots_per_gene must be >= 0")
        if self.target_sum <= 0:
            raise PearlError("target_sum must be > 0")
        if self.top_hvg < 1:
            raise PearlError("top_hvg must be >= 1")


def _require_kind(m, kind):
    if m.value_kind != kind:
        raise PearlError(f"expected value_kind {kind!r}, got {m.value_kind!r}")


def filter_genes(m, min_spots):
    """Keep genes with nonzero entries in at least `min_spots` spots."""
    _require_kind(m, RAW_COUNTS)
    counts = np.asarray((m.matrix != 0).sum(axis=0)).ravel()
    keep = np.flatnonzero(counts >= min_spots)
    return ExpressionMatrix(
        spot_ids=list(m.spot_ids),
        gene_ids=[m.gene_ids[j] for j in keep],
        matrix=sp.csr_matrix(m.matrix[:, keep]),
        value_kind=RAW_COUNTS,
    )


def normalize_and_log(m, target_sum):
    """Scale each spot row to `target_sum`, then ln(1+v).

    Zero-total spots are left as zero vectors rather than dropped, keeping the
    spot set synchronized with geometry and feature files.
    """
    _require_kind(m, RAW_COUNTS)
    mat = m.matrix.tocsr().astype(np.float64)
    totals = np.asarray(mat.sum(axis=1)).ravel()
    scale = np.where(totals > 0, target_sum / np.where(totals > 0, totals, 1.0), 0.0)
    mat = sp.diags(scale) @ mat
    mat.data = np.log1p(mat.data)
    return ExpressionMatrix(
        spot_ids=list(m.spot_ids),
        gene_ids=list(m.gene_ids),
        matrix=sp.csr_matrix(mat),
        value_kind=NORMALIZED_LOG,
    )


def smooth_8neighbor(m, geoms):
    """Replace each spot vector by the mean of itself and its grid neighbors.

    Neighbors are spots at Chebyshev distance 1 in (array_row, array_col) on
    the same slide; absent neighbors are excluded from the mean.
    """
    _require_kind(m, NORMALIZED_LOG)
    by_spot = {g.spot_id: g for g in geoms}
    missing = [s for s in m.spot_ids if s not in by_spot]
    if missing:
        raise DataFormatError(f"no geometry for spot {missing[0]!r}")
    grid = {}
    for sid in m.spot_ids:
        g = by_spot[sid]
        key = (g.slide_id, g.array_row, g.array_col)
        if key in grid:
            raise DataFormatError(f"duplicate grid position {key}")
        grid[key] = sid
    spot_index = {s: i for i, s in enumerate(m.spot_ids)}

    # averaging operator: rows sum to 1 over self + existing neighbors
    rows, cols, vals = [], [], []
    for i, sid in enumerate(m.spot_ids):
        g = by_spot[sid]
        members = [i]
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nb = grid.get((g.slide_id, g.array_row + dr, g.array_col + dc))
                if nb is not None:
                    members.append(spot_index[nb])
        w = 1.0 / len(members)
        for j in members:
            rows.append(i)
            cols.append(j)
            vals.append(w)
    A = sp.csr_matrix((vals, (rows, cols)), shape=(m.n_spots, m.n_spots))
    return ExpressionMatrix(
        spot_ids=list(m.spot_ids),
        gene_ids=list(m.gene_ids),
        matrix=sp.csr_matrix(A @ m.matrix),
        value_kind=NORMALIZED_LOG,
    )


def gene_variances(m):
    """Per-gene sample variance (ddof=1) of the full column, zeros included."""
    dense = m.dense()
    if m.n_spots < 2:
        return np.zeros(m.n_genes)
    return dense.var(axis=0, ddof=1)


def select_hvg(m, g):
    """Return (matrix restricted to top-g variance genes, gene ids).

    Columns and the returned id list are ordered by descending variance, ties
    broken by lexicographic gene id.
    """
    _require_kind(m, NORMALIZED_LOG)
    if g > m.n_genes:
        raise PearlError(f"requested {g} HVGs but only {m.n_genes} genes present")
    var = gene_variances(m)
    order = sorted(range(m.n_genes), key=lambda j: (-var[j], m.gene_ids[j]))
    keep = order[:g]
    sub = ExpressionMatrix(
        spot_ids=list(m.spot_ids),
        gene_ids=[m.gene_ids[j] for j in keep],
        matrix=sp.csr_matrix(m.matrix[:, keep]),
        value_kind=NORMALIZED_LOG,
    )
    return sub, [m.gene_ids[j] for j in keep]


def run_pipeline(m, geoms, config):
    """Full chain; returns (normalized pre-HVG matrix, HVG matrix, HVG ids)."""
    if m.n_spots == 0:
        raise PearlError("expression matrix has no spots")
    filtered = filter_genes(m, config.min_spots_per_gene)
    normed = normalize_and_log(filtered, config.target_sum)
    if config.smoothing_enabled:
        normed = smooth_8neighbor(normed, geoms)
    top = min(config.top_hvg, normed.n_genes)
    hvg, hvg_ids = select_hvg(normed, top)
    return normed, hvg, hvg_ids
