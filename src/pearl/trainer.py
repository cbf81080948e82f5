"""Two-stage training: symmetric contrastive pretraining, then frozen-backbone
supervised head training.  Batches mix slides; validation forward passes use
the same batch size as training so the attention context matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data_io
from .autodiff import AdamW, Tensor
from .encoders import CoordNormalizer
from .errors import ConfigError, PearlError, TrainingDiverged


@dataclass
class TrainConfig:
    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 15
    lr: float = 1e-4
    weight_decay: float = 1e-3
    seed: int = 0
    val_fraction: float = 0.1

    def __post_init__(self):
        if self.batch_size < 2:
            raise PearlError("batch_size must be >= 2 (contrastive needs negatives)")
        if not 0 < self.val_fraction < 1:
            raise PearlError("val_fraction must be in (0, 1)")
        if not 1 <= self.patience < self.max_epochs:
            raise PearlError("need 1 <= patience < max_epochs")
        if not (0 < self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise PearlError("need finite lr > 0 and weight_decay >= 0")


@dataclass
class SpotDataset:
    """Aligned per-spot arrays for training."""

    spot_ids: list
    slide_ids: list
    scores: np.ndarray  # (N, P) pathway NES: the pathway tokens and the pathway target
    coords: np.ndarray  # (N, 2) raw coordinates
    features: np.ndarray  # (N, d_img)
    y_gene: np.ndarray  # (N, g)

    def __post_init__(self):
        n = len(self.spot_ids)
        for name in ("scores", "coords", "features", "y_gene"):
            arr = getattr(self, name)
            if arr.shape[0] != n:
                raise PearlError(f"{name} has {arr.shape[0]} rows, expected {n}")

    @classmethod
    def from_tables(cls, scores, geoms, patch, hvg):
        """Dataset on the score table's spots, looked up in the SpotGeometry list
        `geoms`, then in the feature and HVG tables; the first of the three that
        lacks a spot is named."""
        ids = list(scores.spot_ids)
        geo = [geoms[i] for i in data_io.rows_of(ids, [g.spot_id for g in geoms], "coords")]
        return cls(
            spot_ids=ids,
            slide_ids=[g.slide_id for g in geo],
            scores=scores.scores,
            coords=np.array([[g.x, g.y] for g in geo]),
            features=patch.features[data_io.rows_of(ids, patch.spot_ids, "features")],
            y_gene=hvg.dense()[data_io.rows_of(ids, hvg.spot_ids, "hvg")],
        )

    @property
    def n_spots(self):
        return len(self.spot_ids)

    def subset(self, idx):
        idx = np.asarray(idx)
        return SpotDataset(
            spot_ids=[self.spot_ids[i] for i in idx],
            slide_ids=[self.slide_ids[i] for i in idx],
            scores=self.scores[idx],
            coords=self.coords[idx],
            features=self.features[idx],
            y_gene=self.y_gene[idx],
        )


def slide_stratified_split(slide_ids, val_fraction, seed):
    """(train_idx, val_idx): samples val_fraction of the spots of each slide."""
    rng = np.random.default_rng(seed)
    by_slide = {}
    for i, s in enumerate(slide_ids):
        by_slide.setdefault(s, []).append(i)
    train, val = [], []
    for s in sorted(by_slide):
        idx = np.array(by_slide[s])
        perm = rng.permutation(len(idx))
        n_val = max(1, int(round(val_fraction * len(idx)))) if len(idx) > 1 else 0
        val.extend(idx[perm[:n_val]])
        train.extend(idx[perm[n_val:]])
    return np.sort(np.array(train, dtype=int)), np.sort(np.array(val, dtype=int))


def _split(dataset, config, min_val):
    """slide_stratified_split, refusing a training set under 2 spots (it makes
    no batch) and a validation set under `min_val` spots (it would score every
    epoch NaN and keep the initial weights)."""
    train_idx, val_idx = slide_stratified_split(
        dataset.slide_ids, config.val_fraction, config.seed
    )
    if len(train_idx) < 2:
        raise ConfigError(
            f"training split has {len(train_idx)} spots and validation split {len(val_idx)}, "
            f"training needs at least 2: lower val_fraction (now {config.val_fraction})"
        )
    if len(val_idx) < min_val:
        raise ConfigError(
            f"validation split has {len(val_idx)} spots, needs at least {min_val}: raise "
            f"val_fraction (now {config.val_fraction}); a one-spot slide gives none"
        )
    return train_idx, val_idx


def contrastive_loss(h_image, h_path, inv_tau):
    """Symmetric InfoNCE with identity targets.

    Both embeddings are L2-normalized; similarity logits are scaled by the
    inverse temperature (a Tensor keeps tau trainable, a float freezes it).
    """
    if h_image.shape != h_path.shape:
        raise PearlError(f"embedding shape mismatch: {h_image.shape} vs {h_path.shape}")
    if h_image.shape[0] < 2:
        raise PearlError("contrastive loss needs at least 2 pairs")
    hi = ad.l2_normalize_rows(h_image)
    hp = ad.l2_normalize_rows(h_path)
    sim = ad.matmul(hi, ad.transpose(hp))
    if isinstance(inv_tau, Tensor):
        s = ad.mul(sim, inv_tau)
    else:
        s = ad.mul_scalar(sim, float(inv_tau))
    row = ad.cross_entropy_index(s)
    col = ad.cross_entropy_index(ad.transpose(s))
    return ad.mul_scalar(ad.add(row, col), 0.5)


def _batches(idx, batch_size, rng=None):
    """The index array `idx` in batches of `batch_size`, shuffled by `rng` when
    one is given; a last batch under 2 spots is dropped."""
    idx = np.asarray(idx)
    if rng is not None:
        idx = idx[rng.permutation(len(idx))]
    return [b for b in np.split(idx, range(batch_size, len(idx), batch_size)) if len(b) >= 2]


def fit(params, config, batches, batch_loss, val_loss=None):
    """The one epoch loop: AdamW on the [(name, Tensor)] `params`, one step per
    batch of `batches()` on the loss Tensor `batch_loss(batch)`.

    An epoch scores `val_loss()` (run without a graph) after its steps, and
    the best epoch's values are those it ended with.  With no validation set
    the score is the mean training loss, taken before each step, so the best
    epoch's values are those it started from: for one full batch, exactly
    the values that produced the score.  After `config.patience` epochs with
    no lower score, training stops and `params` get the best values back.
    A step's graph is freed by its backward pass, which consumes it, before
    the optimizer step, so no two batches' graphs are alive at once.
    Returns the per-epoch {"train_loss", "val_loss"} (no val_loss: empty).
    """
    tensors = [p for _, p in params]
    opt = AdamW(tensors, lr=config.lr, weight_decay=config.weight_decay)
    history = {"train_loss": [], "val_loss": []}

    def snapshot():
        return [p.values.copy() for p in tensors]

    best_score, best_epoch, best = math.inf, -1, snapshot()
    for epoch in range(config.max_epochs):
        start = snapshot() if val_loss is None else None
        losses = []
        for bi, batch in enumerate(batches()):
            opt.zero_grad()
            loss = batch_loss(batch)
            lv = loss.item()
            if not math.isfinite(lv):
                raise TrainingDiverged(epoch, bi)
            ad.backward(loss)
            del loss  # backward freed the graph; this frees its loss node
            opt.step()
            losses.append(lv)
        score = float(np.mean(losses))
        history["train_loss"].append(score)
        if val_loss is not None:
            with ad.no_grad():
                score = float(val_loss())
            history["val_loss"].append(score)
        if score < best_score:
            best_score, best_epoch = score, epoch
            best = start if val_loss is None else snapshot()
        elif epoch - best_epoch >= config.patience:
            break
    for p, values in zip(tensors, best):
        p.values = values
    return history


def _embed_batch(model, ds, idx):
    """(image, pathway) embeddings of the spots `idx` of `ds`: the pathway
    tokens are their scores plus their normalised coordinates."""
    hp = model.encode_pathways(ds.scores[idx], model.normalizer.transform(ds.coords[idx]))
    return model.encode_images(ds.features[idx]), hp


def _stage1_batch_loss(model, ds, idx):
    model.clamp_tau()
    return contrastive_loss(*_embed_batch(model, ds, idx), model.inv_tau())


def train_stage1(dataset, model, config):
    """Contrastive pretraining of the backbone.

    Returns (model, history) where history holds per-epoch train/val loss;
    the model carries the best-validation parameters and the coordinate
    normalizer fitted on the training split.
    """
    train_idx, val_idx = _split(dataset, config, min_val=2)
    model.normalizer = CoordNormalizer.fit(dataset.coords[train_idx])
    rng = np.random.default_rng(config.seed)
    history = fit(
        model.stage1_parameters(),
        config,
        lambda: _batches(train_idx, config.batch_size, rng),
        lambda idx: _stage1_batch_loss(model, dataset, idx),
        lambda: np.mean([_stage1_batch_loss(model, dataset, idx).item()
                         for idx in _batches(val_idx, config.batch_size)]),
    )
    return model, history


def supervised_loss(model, h_image, scores, y_gene):
    yp, yg = model.predict_heads(h_image)
    return ad.add(
        ad.mse(yp, Tensor(np.asarray(scores, dtype=model.dtype))),
        ad.mse(yg, Tensor(np.asarray(y_gene, dtype=model.dtype))),
    )


def train_stage2(dataset, model, config):
    """Head training on frozen image embeddings.

    Only the two prediction heads receive gradients; the backbone embedding
    of every spot is computed once up front.  Returns (model, history).
    """
    train_idx, val_idx = _split(dataset, config, min_val=1)
    h_all = embed_images(model, dataset.features)
    rng = np.random.default_rng(config.seed + 1)

    def loss(idx):
        return supervised_loss(model, h_all[idx], dataset.scores[idx], dataset.y_gene[idx])

    history = fit(
        model.stage2_parameters(),
        config,
        lambda: _batches(train_idx, config.batch_size, rng),
        loss,
        lambda: loss(val_idx).item(),
    )
    return model, history


def _rowwise(fn, x):
    """The array fn(x) of a row-wise `fn` over the rows of array `x`, run
    without a graph in `autodiff.row_blocks`' blocks."""
    with ad.no_grad():
        return ad.row_blocks(lambda xb: fn(xb.values), Tensor(x)).values


def embed_images(model, features):
    """Frozen forward of the image branch over all rows."""
    return _rowwise(model.encode_images, features)


def predict(model, features):
    """(h, yp, yg): the image embeddings of the rows of `features` and the
    heads' pathway and gene predictions from them, all arrays."""
    h = embed_images(model, features)
    yp = _rowwise(lambda hb: model.predict_head(hb, "head_path"), h)
    yg = _rowwise(lambda hb: model.predict_head(hb, "head_gene"), h)
    return h, yp, yg


def retrieval_top1(model, dataset, batch_size=256, seed=0):
    """Fraction of spots whose image embedding is closest to its own pathway
    embedding within its batch (diagonal argmax of the similarity matrix).
    A spot whose image or pathway embedding has zero norm counts as a miss."""
    rng = np.random.default_rng(seed)
    hits, total = 0, 0
    for idx in _batches(np.arange(dataset.n_spots), batch_size, rng):
        with ad.no_grad():
            hi, hp = (ad.l2_normalize_rows(h).values for h in _embed_batch(model, dataset, idx))
        # zero-norm rows normalise to zero rows; any() drops them from the hits
        hit = (hi @ hp.T).argmax(axis=1) == np.arange(len(idx))
        hits += int((hit & hi.any(axis=1) & hp.any(axis=1)).sum())
        total += len(idx)
    return hits / total if total else 0.0
