"""Expression preprocessing chain.

Fixed order: filter_genes -> normalize_and_log -> smooth_8neighbor -> select_hvg.
Smoothing acts on log-normalized values; HVG selection uses plain per-gene
sample variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    X = m.dense()
    keep = np.flatnonzero(np.count_nonzero(X, axis=0) >= min_spots)
    return ExpressionMatrix(
        spot_ids=list(m.spot_ids),
        gene_ids=[m.gene_ids[j] for j in keep],
        matrix=X[:, keep],
        value_kind=RAW_COUNTS,
    )


def normalize_and_log(m, target_sum):
    """Scale each spot row to `target_sum`, then ln(1+v).

    Zero-total spots are left as zero vectors rather than dropped, keeping the
    spot set synchronized with geometry and feature files.
    """
    _require_kind(m, RAW_COUNTS)
    X = m.dense()
    totals = X.sum(axis=1)
    scale = np.where(totals > 0, target_sum / np.where(totals > 0, totals, 1.0), 0.0)
    return ExpressionMatrix(
        spot_ids=list(m.spot_ids),
        gene_ids=list(m.gene_ids),
        matrix=np.log1p(X * scale[:, None]),
        value_kind=NORMALIZED_LOG,
    )


_OFFSETS = [(0, dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]


def smooth_8neighbor(m, geoms):
    """Replace each spot vector by the mean of itself and its grid neighbors.

    Neighbors are spots at Chebyshev distance 1 in (array_row, array_col) on
    the same slide; absent neighbors are excluded from the mean.  Spot i gets
    the sum of w_i * x_j over its members j in ascending order, w_i = 1 / their
    count: the order a CSR averaging-matrix product would add them in.
    """
    _require_kind(m, NORMALIZED_LOG)
    by_spot = {g.spot_id: g for g in geoms}
    missing = [s for s in m.spot_ids if s not in by_spot]
    if missing:
        raise DataFormatError(f"no geometry for spot {missing[0]!r}")
    n = m.n_spots
    spot_geoms = [by_spot[s] for s in m.spot_ids]
    slide_code = {s: k for k, s in enumerate(dict.fromkeys(g.slide_id for g in spot_geoms))}
    pos = np.array(
        [(slide_code[g.slide_id], g.array_row, g.array_col) for g in spot_geoms], dtype=np.int64
    ).reshape(n, 3)
    # one int64 key per (slide, row, col) cell of a grid padded by one cell on
    # every side, so each neighbour offset has a key too
    lo = pos.min(axis=0, initial=0) - 1
    span = pos.max(axis=0, initial=0) - lo + 2

    def keys(offset):
        p = pos + offset - lo
        return (p[:, 0] * span[1] + p[:, 1]) * span[2] + p[:, 2]

    order = np.argsort(keys(0), kind="stable")
    sorted_keys = keys(0)[order]
    dup = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
    if dup.size:
        g = spot_geoms[order[dup[0] + 1]]
        raise DataFormatError(f"duplicate grid position {(g.slide_id, g.array_row, g.array_col)}")

    # each spot's members in ascending order, padded with n: a zero row of X
    members = [np.arange(n)]
    for offset in _OFFSETS:
        q = keys(offset)
        at = np.minimum(np.searchsorted(sorted_keys, q), n - 1)
        members.append(np.where(sorted_keys[at] == q, order[at], n))
    members = np.sort(np.stack(members, axis=1), axis=1)
    w = 1.0 / np.count_nonzero(members < n, axis=1)[:, None]
    X = np.vstack([m.dense(), np.zeros((1, m.n_genes))])
    out = np.zeros((n, m.n_genes))
    for col in members.T:
        out += w * X[col]
    return ExpressionMatrix(
        spot_ids=list(m.spot_ids),
        gene_ids=list(m.gene_ids),
        matrix=out,
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
        matrix=m.dense()[:, keep],
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
