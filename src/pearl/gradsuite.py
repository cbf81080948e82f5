"""Finite-difference gradient suite for every differentiable kernel.

Shared by the `gradcheck` CLI subcommand and the acceptance tests.  All
checks run on float64 tensors with central differences (step 1e-3).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import trainer
from .autodiff import Tensor
from .encoders import ModelConfig, PearlModel
from .survival import _segment_pool, cox_loss


def _t(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)


def run_all(seed=0):
    """Returns [(name, worst relative error)] for every kernel."""
    rng = np.random.default_rng(seed)
    results = []

    a, b = _t(rng, (3, 4)), _t(rng, (4, 2))
    results.append(("matmul", ad.gradcheck(lambda a, b: ad.sum_all(ad.matmul(a, b)), [a, b])))

    x = _t(rng, (2, 3))
    w = Tensor(rng.normal(size=(2, 3)))
    results.append(
        ("softmax_rows", ad.gradcheck(lambda x: ad.sum_all(ad.mul(ad.softmax_rows(x), w)), [x]))
    )

    x, g, bias = _t(rng, (4, 8)), _t(rng, (8,)), _t(rng, (8,))
    w = Tensor(rng.normal(size=(4, 8)))
    results.append(
        (
            "layer_norm",
            ad.gradcheck(
                lambda x, g, bias: ad.sum_all(ad.mul(ad.layer_norm(x, g, bias), w)), [x, g, bias]
            ),
        )
    )

    x = _t(rng, (3, 5))
    w = Tensor(rng.normal(size=(3, 5)))
    results.append(("gelu", ad.gradcheck(lambda x: ad.sum_all(ad.mul(ad.gelu(x), w)), [x])))
    results.append(("tanh", ad.gradcheck(lambda x: ad.sum_all(ad.mul(ad.tanh(x), w)), [x])))
    results.append(
        (
            "l2_normalize_rows",
            ad.gradcheck(lambda x: ad.sum_all(ad.mul(ad.l2_normalize_rows(x), w)), [x]),
        )
    )

    logits = _t(rng, (4, 4))
    results.append(
        ("cross_entropy_index", ad.gradcheck(lambda l: ad.cross_entropy_index(l), [logits]))
    )

    p, q = _t(rng, (3, 4)), _t(rng, (3, 4))
    results.append(("mse", ad.gradcheck(lambda p, q: ad.mse(p, q), [p, q])))

    hi, hp = _t(rng, (4, 6)), _t(rng, (4, 6))
    lt = Tensor(np.asarray(np.log(0.3)), requires_grad=True, dtype=np.float64)
    def contrastive(hi, hp, lt):  # the model's inverse temperature exp(-log_tau)
        return trainer.contrastive_loss(hi, hp, ad.exp(ad.mul_scalar(lt, -1.0)))

    results.append(("contrastive_loss", ad.gradcheck(contrastive, [hi, hp, lt])))

    risks = _t(rng, (6, 1))
    times = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 2.0])
    events = np.array([True, True, False, True, True, False])
    results.append(
        ("cox_loss", ad.gradcheck(lambda r: cox_loss(r, times, events), [risks]))
    )

    logits, spots = _t(rng, (6, 1)), rng.normal(size=(6, 3))
    w = Tensor(rng.normal(size=(3, 3)))

    def pooled(logits):  # the Cox head's attention pooling over bags of 1, 3 and 2 spots
        return ad.sum_all(ad.mul(_segment_pool(logits, spots, np.array([1, 3, 2])), w))

    results.append(("segment_pool", ad.gradcheck(pooled, [logits])))

    results.append(("stage1_graph", stage1_graph_check(seed)))
    return results


def stage1_graph_check(seed=0):
    """Full contrastive objective on a tiny model (P=4, B=3), float64."""
    cfg = ModelConfig(
        n_pathways=4,
        n_genes=3,
        d_img=5,
        n_heads=2,
        d_k=2,
        phi_hidden=4,
        proj_hidden=6,
        head_hidden=6,
        embed_dim=4,
        seed=seed,
    )
    model = PearlModel(cfg, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(3, 4))
    C = rng.normal(size=(3, 2))
    F = rng.normal(size=(3, 5))
    params = [p for _, p in model.stage1_parameters()]

    def loss_fn(*_):
        hp = model.encode_pathways(X, C)
        hi = model.encode_images(F)
        return trainer.contrastive_loss(hi, hp, model.inv_tau())

    # step 2e-4: the composed graph's curvature makes 1e-3 central
    # differences exceed the 1e-4 tolerance through truncation alone
    return ad.gradcheck(loss_fn, params, step=2e-4)
