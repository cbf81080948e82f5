"""Slide-level prognosis: attention-pooled spot embeddings, Cox partial
likelihood with Breslow tie handling, and the concordance index."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data_io
from .autodiff import Tensor
from .encoders import _xavier
from .errors import PearlError
from .trainer import fit


class CoxHead:
    """tanh-attention pooling over each subject's spots plus a linear risk head.

    Neither the attention logits nor the risk has a bias: the per-bag softmax
    ignores a common shift of its logits and the Cox partial likelihood a
    common shift of the risks, so such a bias would draw no gradient.
    """

    HYPERPARAMS = {"embed_dim": int, "attn_hidden": int}  # what a checkpoint holds, by type

    def __init__(self, embed_dim=256, attn_hidden=128, seed=0, draw=True):
        # with `draw` false, weights are left unfilled for a checkpoint to fill
        if min(embed_dim, attn_hidden) < 1:
            raise PearlError("embed_dim and attn_hidden must be >= 1")
        rng = np.random.default_rng(seed) if draw else None
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
        next sizes[i] rows.  Every spot's attention logit comes from one
        `row_blocks` node, which runs the attention layer on blocks of
        spots and keeps no (N, attn_hidden) activation between forward and
        backward; a segment softmax then normalises the logits within each
        bag.
        """
        E = np.asarray(E, dtype=np.float32)  # no copy when E is float32 already
        sizes = np.asarray(sizes)
        if E.ndim != 2 or E.shape[1] != self.embed_dim:
            raise PearlError(f"pool needs an (N, {self.embed_dim}) array, got shape {E.shape}")
        if sizes.ndim != 1 or sizes.size == 0 or sizes.min() < 1 or sizes.sum() != len(E):
            raise PearlError(f"pool needs one or more bag sizes >= 1 that sum to N = {len(E)}")
        p = self.params
        logits = ad.row_blocks(_attention_logits, Tensor(E), p["attn.w1"], p["attn.b1"],
                               p["attn.w2"])
        return _segment_pool(logits, E, sizes)

    def subject_risks(self, E, sizes):
        """Risk tensor (len(sizes), 1) of the bags that `sizes` cuts `E` into."""
        return ad.matmul(self.pool(E, sizes), self.params["risk.w"])


def _attention_logits(x, w1, b1, w2):
    """The (n, 1) attention logits of the n spots `x`, one row per spot."""
    return ad.matmul(ad.tanh(ad.affine(x, w1, b1)), w2)


def _segment_pool(logits, E, sizes):
    """Softmax of (N, 1) `logits` within each run of `sizes` consecutive rows,
    and the weighted sum of E's rows per run: (len(sizes), d).

    Each bag's weighted sum is one BLAS product on its contiguous block of E;
    the backward's per-spot dots E_n . g_bag(n) are one einsum per
    `autodiff._row_slices` block of `_ROW_BLOCK` rows, so no (N, d) array is
    made.  E is data, not a parameter: the backward returns the logits
    gradient only.
    """
    ends = np.cumsum(sizes)
    starts = ends - sizes
    bags = [slice(a, b) for a, b in zip(starts.tolist(), ends.tolist())]
    shape = logits.shape
    z = logits.values.reshape(-1)
    e = np.exp(z - np.repeat(np.maximum.reduceat(z, starts), sizes))
    w = e / np.repeat(np.add.reduceat(e, starts), sizes)
    out = np.stack([w[b] @ E[b] for b in bags])

    def bw(g):
        owner = np.repeat(np.arange(len(sizes)), sizes)  # each spot's bag
        gw = np.empty(len(E), np.result_type(E, g))
        for rows in ad._row_slices(len(E), ad._ROW_BLOCK):
            gw[rows] = np.einsum("nd,nd->n", E[rows], g[owner[rows]])
        dot = np.add.reduceat(w * gw, starts)
        return ((w * (gw - np.repeat(dot, sizes))).reshape(shape),)

    return ad._node(out, (logits,), bw)


def cox_loss(risks, times, events):
    """Negative log partial likelihood, Breslow handling of tied event times.

    `risks` is a Tensor of shape (n,) or (n, 1); times/events are arrays.
    Risk sets are {j : t_j >= t_i}, censored subjects included at ties.

    Closed form over the subjects sorted latest first, with d_t events at
    time t: t's risk set is every row up to the last of its tie group, so its
    log-sum-exp lse_t is a running `logaddexp` there.  Subject j's gradient
    is exp(r_j) * (sum over event times t <= t_j of d_t exp(-lse_t)) minus
    event_j, the log of that sum a running `logaddexp` from the earliest
    time.  r_j <= lse_t in every term, so risks of any size stay finite.
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

    order = np.argsort(-times, kind="stable")
    t, rs, ev = times[order], r[order], events[order]
    last = np.flatnonzero(np.append(t[1:] != t[:-1], True))  # each tie group's last row
    d = np.diff(np.cumsum(ev)[last], prepend=0)  # events per tie group
    has = d > 0
    # a NaN or infinite risk gives a non-finite loss, which `fit` reports as divergence
    with np.errstate(invalid="ignore"):
        lse = np.logaddexp.accumulate(rs)[last][has]
        loss = d[has] @ lse - rs[ev].sum()
        terms = np.full(n, -np.inf)  # log(d_t) - lse_t at the last row of t's tie group
        terms[last[has]] = np.log(d[has]) - lse
        tail = np.logaddexp.accumulate(terms[::-1])[::-1]
        grad = np.empty(n)
        grad[order] = np.exp(rs + tail) - ev
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
            raise PearlError("need 1 <= patience <= max_epochs")
        if not (0 < self.lr < math.inf and 0 <= self.weight_decay < math.inf):
            raise PearlError("need finite lr > 0 and weight_decay >= 0")


def train_cox(E, sizes, times, events, config):
    """Full-batch Cox training; returns (head, loss_history).

    `E` stacks every subject's spot embeddings (float32 is used uncopied),
    `sizes` gives each subject's row count, in the order of `times` and
    `events`.  Early stopping monitors the training loss (cohorts are small).
    """
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
    hyper = {name: getattr(head, name) for name in head.HYPERPARAMS}
    data_io.save_checkpoint(head, hyper, path)


def load_cox(path):
    return data_io.load_checkpoint(
        path, CoxHead.HYPERPARAMS, lambda **hyper: CoxHead(**hyper, draw=False)
    )
