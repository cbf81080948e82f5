"""Per-spot pathway activity via weighted running-sum enrichment.

The enrichment score is the running-sum integral (sum of P_in - P_out over
all rank positions), and NES divides by the mean absolute score of
size-matched random gene sets.  All gene bookkeeping runs in canonical
(lexicographic gene id) order so results are invariant to the column order
of the input matrix, and null draws use a counter-based (Philox) generator
keyed by (seed, set size) so equal-size pathways share null sets.

With rank weights w = n - j (0-based position j, n genes) the integral has
a closed form.  A hit at position j contributes to n - j = w prefix sums, so
with S(b) = sum of w**b over the m hits,

    ES = S(alpha + 1) / S(alpha) - (n (n + 1) / 2 - S(1)) / (n - m).

`score_matrix` evaluates it for every spot, pathway and null set at once:
W holds each spot's rank weights, A stacks the pathway and null membership
masks, and S(b) is the matmul W**b @ A.  Spots go through in chunks whose
(spots, sets) float64 blocks fit in _CHUNK_BYTES, which bounds memory
whatever the spot and null-set counts; `threads` only sizes the pool the
chunks are mapped over, so scores do not depend on it.  `enrichment_score`
and `nes` keep the explicit running sum as the scalar reference.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data_io import NORMALIZED_LOG, PathwayScoreMatrix
from .errors import DataFormatError, DegeneratePathway, PearlError

_CHUNK_BYTES = 1 << 17  # bytes of one chunk's (spots, sets) float64 block
NES_EPSILON = 1e-12  # floor on a null set's mean |ES|, the NES denominator


@dataclass
class SsgseaConfig:
    weight_exponent: float = 0.75
    null_sets: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if self.null_sets < 1:
            raise PearlError("null_sets must be >= 1")
        if not np.isfinite(self.weight_exponent) or self.weight_exponent < 0:
            raise PearlError("weight_exponent must be finite and >= 0")


def rank_genes(values):
    """Sort genes by expression descending; ties by ascending index (canonical
    gene-id order, as every caller passes them).

    Returns (order, weights): `order` holds input indices in rank order and
    weights[j] = n_genes - j for 0-based position j.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    order = np.argsort(-values, kind="stable")
    weights = np.arange(n, 0, -1, dtype=np.float64)
    return order, weights


def _running_sum_es(hit_mask, weights, alpha):
    """ES for hit indicator(s) given rank-ordered weights.

    hit_mask: (..., n) boolean in rank order.  Uses float64 throughout.
    """
    n = weights.shape[0]
    w_alpha = weights**alpha
    hit = hit_mask.astype(np.float64)
    n_hit = hit.sum(axis=-1, keepdims=True)
    n_miss = n - n_hit
    denom_in = (hit * w_alpha).sum(axis=-1, keepdims=True)
    p_in = np.cumsum(hit * w_alpha, axis=-1) / denom_in
    p_out = np.cumsum(1.0 - hit, axis=-1) / n_miss
    return (p_in - p_out).sum(axis=-1)


def enrichment_score(order, weights, member_mask, alpha):
    """ES of one gene set for one spot.

    `member_mask` is boolean over input gene indices; `order`/`weights` come
    from rank_genes.
    """
    member_mask = np.asarray(member_mask, dtype=bool)
    m = int(member_mask.sum())
    n = weights.shape[0]
    if m == 0:
        raise PearlError("gene set has no measured gene")
    if m == n:
        raise DegeneratePathway("<set>")
    return float(_running_sum_es(member_mask[order], weights, alpha))


def _null_masks(seed, set_size, n_genes, n_null):
    """Boolean (n_null, n_genes) membership over canonical gene indices."""
    key = (int(seed) << 32) ^ (set_size & 0xFFFFFFFF)
    rng = np.random.Generator(np.random.Philox(key=key))
    masks = np.zeros((n_null, n_genes), dtype=bool)
    for i in range(n_null):
        masks[i, rng.choice(n_genes, size=set_size, replace=False)] = True
    return masks


def nes(values, gene_ids, member_genes, config):
    """Normalized enrichment score of one gene set in one spot.

    `values` is the expression vector over `gene_ids` (canonical order not
    required); `member_genes` is an iterable of gene symbols.
    """
    gene_ids = list(gene_ids)
    canon = sorted(range(len(gene_ids)), key=lambda j: gene_ids[j])
    values = np.asarray(values, dtype=np.float64)[canon]
    ids = [gene_ids[j] for j in canon]
    members = set(member_genes)
    member_mask = np.array([g in members for g in ids], dtype=bool)
    order, weights = rank_genes(values)
    es = enrichment_score(order, weights, member_mask, config.weight_exponent)
    m = int(member_mask.sum())
    null = _null_masks(config.rng_seed, m, len(ids), config.null_sets)
    null_es = _running_sum_es(null[:, order], weights, config.weight_exponent)
    denom = max(float(np.abs(null_es).mean()), NES_EPSILON)
    return es / denom


def score_matrix(m, sets, config, threads=1):
    """NES for every (spot, pathway); returns (PathwayScoreMatrix, dropped).

    Pathways with no measured genes are dropped and reported; a pathway
    covering every measured gene raises DegeneratePathway.  Scoring expects
    the full post-normalization matrix (before HVG subsetting).
    """
    if m.value_kind != NORMALIZED_LOG:
        raise PearlError(f"expected normalized_log input, got {m.value_kind!r}")
    if m.n_spots == 0:
        raise PearlError("expression matrix has no spots")
    canon = sorted(range(m.n_genes), key=lambda j: m.gene_ids[j])
    ids = [m.gene_ids[j] for j in canon]
    id_index = {g: i for i, g in enumerate(ids)}
    dense = m.dense()[:, canon]
    n_genes = len(ids)

    kept, dropped, member_masks = [], [], []
    for s in sets.sets:
        idx = [id_index[g] for g in s.genes if g in id_index]
        if not idx:
            dropped.append(s.name)
            continue
        if len(idx) == n_genes:
            raise DegeneratePathway(s.name)
        mask = np.zeros(n_genes, dtype=bool)
        mask[idx] = True
        kept.append(s.name)
        member_masks.append(mask)
    if not kept:
        raise DataFormatError("no pathway overlaps the measured genes")
    member_mat = np.stack(member_masks)  # (P, n_genes)
    sizes = member_mat.sum(axis=1)
    distinct_sizes, size_index = np.unique(sizes, return_inverse=True)
    n_kept, n_null = len(kept), config.null_sets
    # columns: the P pathways, then n_null null draws for each distinct size
    sets_mat = np.concatenate(
        [member_mat]
        + [_null_masks(config.rng_seed, int(k), n_genes, n_null) for k in distinct_sizes]
    ).T.astype(np.float64)  # (n_genes, P + K * n_null)
    miss_counts = n_genes - np.concatenate([sizes, np.repeat(distinct_sizes, n_null)])
    alpha = config.weight_exponent
    rank_weights = np.arange(n_genes, 0, -1, dtype=np.float64)
    total_weight = n_genes * (n_genes + 1) / 2.0
    scores = np.empty((m.n_spots, n_kept))

    def score_chunk(block):
        x = dense[block]
        w = np.empty_like(x)
        np.put_along_axis(w, np.argsort(-x, axis=1, kind="stable"), rank_weights[None, :], axis=1)
        w_pow = np.power(w, alpha + 1.0)
        es = w_pow @ sets_mat
        s_alpha = np.matmul(np.power(w, alpha, out=w_pow), sets_mat)
        np.divide(es, s_alpha, out=es)
        miss_sum = np.matmul(w, sets_mat, out=s_alpha)
        np.subtract(total_weight, miss_sum, out=miss_sum)
        np.divide(miss_sum, miss_counts, out=miss_sum)
        np.subtract(es, miss_sum, out=es)
        null_abs = np.abs(es[:, n_kept:], out=es[:, n_kept:])
        null_mean = null_abs.reshape(len(x), -1, n_null).mean(axis=2)
        np.divide(es[:, :n_kept], np.maximum(null_mean, NES_EPSILON)[:, size_index],
                  out=scores[block])

    # a 1-row chunk would go to gemv, whose bits differ from a gemm row's, so
    # a trailing single row joins the chunk before it
    rows = max(2, _CHUNK_BYTES // sets_mat[0].nbytes)
    bounds = list(range(0, m.n_spots, rows))
    if m.n_spots - bounds[-1] == 1 and len(bounds) > 1:
        bounds.pop()
    bounds.append(m.n_spots)
    with ThreadPoolExecutor(max_workers=threads) as ex:
        list(ex.map(score_chunk, map(slice, bounds[:-1], bounds[1:])))
    return PathwayScoreMatrix(list(m.spot_ids), kept, scores), dropped
