"""Slide-level prognosis: attention-pooled spot embeddings, Cox partial
likelihood with Breslow tie handling, and the concordance index."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data_io
from .autodiff import Tensor
from .encoders import _xavier
from .errors import PearlError
from .trainer import fit


class CoxHead:
    """tanh-attention pooling over a slide's spots plus a linear risk head."""

    def __init__(self, embed_dim=256, attn_hidden=128, seed=0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.embed_dim = embed_dim
        self.attn_hidden = attn_hidden
        self.params = {
            "attn.w1": Tensor(_xavier(rng, (embed_dim, attn_hidden), dtype), requires_grad=True),
            "attn.b1": Tensor(np.zeros(attn_hidden, dtype=dtype), requires_grad=True),
            "attn.w2": Tensor(_xavier(rng, (attn_hidden, 1), dtype), requires_grad=True),
            "attn.b2": Tensor(np.zeros(1, dtype=dtype), requires_grad=True),
            "risk.w": Tensor(_xavier(rng, (embed_dim, 1), dtype), requires_grad=True),
            "risk.b": Tensor(np.zeros(1, dtype=dtype), requires_grad=True),
        }

    def parameters(self):
        return list(self.params.items())

    def pool_slide(self, embeddings):
        """Attention-weighted mean of (M, embed_dim) spot embeddings -> (1, embed_dim)."""
        E = (
            embeddings
            if isinstance(embeddings, Tensor)
            else Tensor(np.asarray(embeddings, dtype=np.float32))
        )
        if E.values.ndim != 2 or E.shape[0] < 1:
            raise PearlError(f"expected (M, d) embeddings, got {E.shape}")
        h = ad.tanh(ad.add(ad.matmul(E, self.params["attn.w1"]), self.params["attn.b1"]))
        logits = ad.add(ad.matmul(h, self.params["attn.w2"]), self.params["attn.b2"])
        weights = ad.softmax_rows(ad.transpose(logits))  # (1, M), sums to 1
        return ad.matmul(weights, E)

    def risk(self, pooled):
        return ad.add(ad.matmul(pooled, self.params["risk.w"]), self.params["risk.b"])

    def subject_risks(self, slide_embeddings):
        """Risk tensor (n, 1) for a list of per-subject embedding matrices."""
        return ad.concat_rows([self.risk(self.pool_slide(e)) for e in slide_embeddings])


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
    num, den = 0.0, 0
    for i in range(len(times)):
        if not events[i]:
            continue
        later = times > times[i]
        den += int(later.sum())
        num += (risks[i] > risks[later]).sum() + 0.5 * (risks[i] == risks[later]).sum()
    if den == 0:
        raise PearlError("no comparable pairs")
    return float(num / den)


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


def train_cox(slide_embeddings, times, events, config=None, head=None):
    """Full-batch Cox training; returns (head, loss_history).

    `slide_embeddings` is a list of (M_i, embed_dim) arrays, one per subject.
    Early stopping monitors the training loss (cohorts are small).
    """
    config = config or SurvivalTrainConfig()
    if head is None:
        head = CoxHead(embed_dim=slide_embeddings[0].shape[1], seed=config.seed)
    history = fit(
        head.parameters(),
        config,
        lambda: [None],
        lambda _: cox_loss(head.subject_risks(slide_embeddings), times, events),
    )
    return head, history["train_loss"]


def predict_risks(head, slide_embeddings):
    with ad.no_grad():
        return head.subject_risks(slide_embeddings).values.reshape(-1)


def save_cox(head, path):
    hyper = {"embed_dim": head.embed_dim, "attn_hidden": head.attn_hidden, "kind": "cox_head"}
    params = [(n, np.asarray(p.values, dtype=np.float32)) for n, p in head.parameters()]
    data_io.save_checkpoint(params, hyper, path)


def load_cox(path):
    params, hyper, _ = data_io.load_checkpoint(path)
    data_io.check_hyperparams(hyper, ("embed_dim", "attn_hidden", "kind"))
    head = CoxHead(embed_dim=hyper["embed_dim"], attn_hidden=hyper["attn_hidden"])
    data_io.assign_params(head.parameters(), params)
    return head
