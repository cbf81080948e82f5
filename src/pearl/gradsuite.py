"""Finite-difference gradient suite: one table of every differentiable case.

`CASES` is the single list of kernel cases.  `run_all` measures each of them,
then the full stage-1 graph, for the `gradcheck` CLI subcommand and
acceptance 1, which hold every error to `REL_TOL`; tests/test_autodiff.py
runs each case on its own and on float32 inputs, and fails when a public
autodiff kernel has no case of its own name.  All checks run on float64
tensors with central differences, and report a NaN error as inf.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import trainer
from .autodiff import Tensor
from .encoders import ModelConfig, PearlModel
from .survival import _segment_pool, cox_loss

REL_TOL = 1e-4

_COX_TIMES = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 2.0])
_COX_EVENTS = np.array([True, True, False, True, True, False])
# the Cox head pools bags of 1, 3 and 2 float32 spot embeddings: data, not inputs
_POOL_SPOTS = np.random.default_rng(13).normal(size=(6, 3)).astype(np.float32)
_POOL_SIZES = np.array([1, 3, 2])


def _contrastive(hi, hp, log_tau):  # the model's inverse temperature exp(-log_tau)
    return trainer.contrastive_loss(hi, hp, ad.exp(ad.mul_scalar(log_tau, -1.0)))


# case -> (input shapes, op): every public autodiff kernel under its own name,
# the Cox loss and pooling nodes, and the contrastive objective
CASES = {
    "matmul": ([(3, 4), (4, 2)], ad.matmul),
    "affine": ([(3, 4), (4, 2), (2,)], ad.affine),
    "gelu": ([(3, 4)], ad.gelu),
    "softmax_rows": ([(2, 3, 4)], ad.softmax_rows),
    "attention": ([(3, 4), (4, 12)], lambda h, w: ad.attention(h, w, 2, 0.5)),
    "layer_norm": ([(3, 4), (4,), (4,)], ad.layer_norm),
    "add": ([(3, 4), (4,)], ad.add),
    "mul": ([(3, 4), (3, 4)], ad.mul),
    "mul_scalar": ([(3, 4)], lambda a: ad.mul_scalar(a, 0.5)),
    "transpose": ([(3, 4)], ad.transpose),
    "concat_cols": ([(3, 2), (3, 4)], lambda a, b: ad.concat_cols([a, b])),
    "concat_rows": ([(2, 4), (3, 4)], lambda a, b: ad.concat_rows([a, b])),
    "l2_normalize_rows": ([(3, 4)], ad.l2_normalize_rows),
    "cross_entropy_index": ([(4, 4)], ad.cross_entropy_index),
    "mse": ([(3, 4), (3, 4)], ad.mse),
    "tanh": ([(3, 4)], ad.tanh),
    "exp": ([(3, 4)], ad.exp),
    "sum_all": ([(3, 4)], ad.sum_all),
    "cox_loss": ([(6, 1)], lambda r: cox_loss(r, _COX_TIMES, _COX_EVENTS)),
    "segment_pool": ([(6, 1)], lambda l: _segment_pool(l, _POOL_SPOTS, _POOL_SIZES)),
    "contrastive_loss": ([(4, 6), (4, 6), ()], _contrastive),
}


def check(name, rng):
    """Worst relative error of case `name` on float64 inputs drawn from `rng`:
    the gradient of sum(op(*inputs) * W), with W a fixed random projection."""
    shapes, op = CASES[name]
    inputs = [Tensor(rng.normal(size=s), requires_grad=True, dtype=np.float64) for s in shapes]
    w = Tensor(rng.normal(size=op(*inputs).shape))
    return ad.gradcheck(lambda *xs: ad.sum_all(ad.mul(op(*xs), w)), inputs)


def run_all(seed=0):
    """Returns [(name, worst relative error)] for every case, then the stage-1 graph."""
    rng = np.random.default_rng(seed)
    results = [(name, check(name, rng)) for name in CASES]
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
