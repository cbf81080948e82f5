"""Evaluation metrics: Pearson correlation, MSE, MAE, and the adjusted Rand
index for externally supplied cluster labels."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import PearlError


def pcc(pred, truth):
    """Sample Pearson correlation; returns nan if either input has zero
    variance (callers exclude those from aggregates)."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise PearlError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size < 2:
        raise PearlError("pcc needs at least 2 observations")
    pc = pred - pred.mean()
    tc = truth - truth.mean()
    denom = np.sqrt((pc * pc).sum() * (tc * tc).sum())
    if denom == 0:
        return float("nan")
    return float((pc * tc).sum() / denom)


@dataclass
class EvalReport:
    per_target_pcc: list
    mean_pcc: float
    mse: float
    mae: float
    n_spots: int
    n_targets: int
    n_undefined_pcc: int = 0
    target_names: list = field(default_factory=list)

    def to_dict(self):
        """The aggregate fields: every field but the per-target ones."""
        d = asdict(self)
        del d["per_target_pcc"], d["target_names"]
        return d


def evaluate_expression(pred, truth, target_names=None):
    """Per-target PCC across spots; aggregate PCC is the unweighted mean over
    targets with defined correlation, MSE/MAE over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise PearlError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if pred.ndim != 2:
        raise PearlError("expected (spots, targets) matrices")
    n, t = pred.shape
    per_target = [pcc(pred[:, j], truth[:, j]) for j in range(t)]
    defined = [v for v in per_target if not np.isnan(v)]
    diff = pred - truth
    return EvalReport(
        per_target_pcc=per_target,
        mean_pcc=float(np.mean(defined)) if defined else float("nan"),
        mse=float((diff * diff).mean()),
        mae=float(np.abs(diff).mean()),
        n_spots=n,
        n_targets=t,
        n_undefined_pcc=t - len(defined),
        target_names=list(target_names) if target_names else [],
    )


def ari(labels_a, labels_b):
    """Adjusted Rand index via the contingency-table formula."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise PearlError("labelings must be equal-length 1-D arrays")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    cont = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(cont, (ai, bi), 1)

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_ij = comb2(cont).sum()
    sum_a = comb2(cont.sum(axis=1)).sum()
    sum_b = comb2(cont.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))
