"""Slide-level prognosis: attention-pooled spot embeddings, Cox partial
likelihood with Breslow tie handling, and the concordance index."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data_io
from .autodiff import Tensor
from .encoders import _xavier
from .errors import CheckpointManifestError, PearlError
from .trainer import fit


class CoxHead:
    """tanh-attention pooling over each subject's spots plus a linear risk head.

    Neither the attention logits nor the risk has a bias: the per-bag softmax
    ignores a common shift of its logits and the Cox partial likelihood a
    common shift of the risks, so such a bias would draw no gradient.
    """

    def __init__(self, embed_dim=256, attn_hidden=128, seed=0):
        rng = np.random.default_rng(seed)
        dtype = np.float32
        self.embed_dim = embed_dim
        self.attn_hidden = attn_hidden
        self.params = {
            "attn.w1": Tensor(_xavier(rng, (embed_dim, attn_hidden), dtype), requires_grad=True),
            "attn.b1": Tensor(np.zeros(attn_hidden, dtype=dtype), requires_grad=True),
            "attn.w2": Tensor(_xavier(rng, (attn_hidden, 1), dtype), requires_grad=True),
            "risk.w": Tensor(_xavier(rng, (embed_dim, 1), dtype), requires_grad=True),
        }

    def parameters(self):
        return list(self.params.items())

    def pool(self, E, sizes):
        """Attention-weighted mean of each bag -> (len(sizes), embed_dim).

        `E` is (N, embed_dim): the bags' spots back to back, bag i being the
        next sizes[i] rows.  Every spot goes through one attention graph; a
        segment softmax then normalises the logits within each bag.
        """
        E = np.asarray(E, dtype=np.float32)  # no copy when E is float32 already
        sizes = np.asarray(sizes)
        if E.ndim != 2 or E.shape[1] != self.embed_dim:
            raise PearlError(f"pool needs an (N, {self.embed_dim}) array, got shape {E.shape}")
        if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.sum() != len(E):
            raise PearlError(f"pool needs one or more bag sizes >= 1 that sum to N = {len(E)}")
        h = ad.tanh(ad.add(ad.matmul(Tensor(E), self.params["attn.w1"]), self.params["attn.b1"]))
        return _segment_pool(ad.matmul(h, self.params["attn.w2"]), E, sizes)

    def risk(self, pooled):
        return ad.matmul(pooled, self.params["risk.w"])

    def subject_risks(self, E, sizes):
        """Risk tensor (len(sizes), 1) of the bags that `sizes` cuts `E` into."""
        return self.risk(self.pool(E, sizes))


def _segment_pool(logits, E, sizes):
    """Softmax of (N, 1) `logits` within each run of `sizes` consecutive rows,
    and the weighted sum of E's rows per run: (len(sizes), d).

    E is data, not a parameter: the backward returns the logits gradient only.
    """
    starts = np.cumsum(sizes) - sizes
    z = logits.values.reshape(-1)
    e = np.exp(z - np.repeat(np.maximum.reduceat(z, starts), sizes))
    w = e / np.repeat(np.add.reduceat(e, starts), sizes)
    out = np.add.reduceat(w[:, None] * E, starts, axis=0)

    def bw(g):
        gw = (E * np.repeat(g, sizes, axis=0)).sum(axis=1)
        dot = np.add.reduceat(w * gw, starts)
        return ((w * (gw - np.repeat(dot, sizes))).reshape(logits.shape),)

    return ad._node(out, (logits,), bw)


def cox_loss(risks, times, events):
    """Negative log partial likelihood, Breslow handling of tied event times.

    `risks` is a Tensor of shape (n,) or (n, 1); times/events are arrays.
    Risk sets are {j : t_j >= t_i}, censored subjects included at ties.
    """
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    r = risks.values.reshape(-1).astype(np.float64)
    n = r.size
    if n < 2:
        raise PearlError("cox_loss needs at least 2 subjects")
    if times.shape != (n,) or events.shape != (n,):
        raise PearlError("times/events length mismatch")
    if not events.any():
        raise PearlError("cox_loss needs at least one event")

    loss = 0.0
    grad = -events.astype(np.float64)
    for t in np.unique(times[events]):
        dead = events & (times == t)
        d = int(dead.sum())
        at_risk = times >= t
        rs = r[at_risk]
        m = rs.max()
        lse = m + np.log(np.exp(rs - m).sum())
        loss += d * lse - r[dead].sum()
        w = np.exp(rs - lse)  # softmax over the risk set
        grad[at_risk] += d * w
    grad = grad.astype(risks.dtype).reshape(risks.values.shape)

    def bw(g):
        return (g.reshape(()) * grad,)

    return ad._node(np.asarray(loss, dtype=risks.dtype), (risks,), bw)


def c_index(risks, times, events):
    """Harrell's concordance over pairs (i, j) with t_i < t_j and event_i."""
    risks = np.asarray(risks, dtype=np.float64).reshape(-1)
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=bool)
    # pair (i, j) is comparable when i has the event and j outlives it
    comparable = events[:, None] & (times[:, None] < times[None, :])
    den = int(comparable.sum())
    if den == 0:
        raise PearlError("no comparable pairs")
    concordant = (comparable & (risks[:, None] > risks[None, :])).sum()
    tied = (comparable & (risks[:, None] == risks[None, :])).sum()
    return float((concordant + 0.5 * tied) / den)


@dataclass
class SurvivalTrainConfig:
    max_epochs: int = 300
    patience: int = 30
    lr: float = 1e-2
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.patience <= self.max_epochs:
            raise PearlError("survival: need 1 <= patience <= max_epochs")
        if not (self.lr > 0 and self.weight_decay >= 0):
            raise PearlError("survival: need lr > 0 and weight_decay >= 0")


def train_cox(E, sizes, times, events, config):
    """Full-batch Cox training; returns (head, loss_history).

    `E` stacks every subject's spot embeddings, `sizes` gives each subject's
    row count, in the order of `times` and `events`.  Early stopping monitors
    the training loss (cohorts are small).
    """
    E = np.asarray(E, dtype=np.float32)  # cast once, not on every step
    head = CoxHead(embed_dim=E.shape[-1], seed=config.seed)
    history = fit(
        head.parameters(),
        config,
        lambda: [None],
        lambda _: cox_loss(head.subject_risks(E, sizes), times, events),
    )
    return head, history["train_loss"]


def predict_risks(head, E, sizes):
    with ad.no_grad():
        return head.subject_risks(E, sizes).values.reshape(-1)


def save_cox(head, path):
    hyper = {"embed_dim": head.embed_dim, "attn_hidden": head.attn_hidden}
    params = [(n, np.asarray(p.values, dtype=np.float32)) for n, p in head.parameters()]
    data_io.save_checkpoint(params, hyper, path)


def load_cox(path):
    params, hyper, _ = data_io.load_checkpoint(path)
    data_io.check_hyperparams(hyper, {"embed_dim": int, "attn_hidden": int})
    if min(hyper["embed_dim"], hyper["attn_hidden"]) < 1:
        raise CheckpointManifestError(f"{path}: embed_dim and attn_hidden must be >= 1")
    head = CoxHead(embed_dim=hyper["embed_dim"], attn_hidden=hyper["attn_hidden"])
    data_io.assign_params(head.parameters(), params)
    return head
