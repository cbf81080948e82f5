"""Model definition: positional MLP, two-layer transformer pathway encoder,
projection heads, learnable temperature, and the two prediction heads.

The transformer treats the N spots of a batch as tokens with model dimension
equal to the pathway count P; attention mixes spots within the batch.  Each
layer projects to queries, keys and values of all H heads with one fused
(P, 3*H*d_k) matrix, columns [Q heads | K heads | V heads] with head i at
block i of each, and attends on stacked (H, N, d_k) arrays.  Inference uses
the image branch only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from . import data_io
from .autodiff import Tensor
from .errors import PearlError

TAU_MIN = 1e-3
TAU_MAX = 100.0


@dataclass
class ModelConfig:
    n_pathways: int = 0
    n_genes: int = 0
    d_img: int = 0
    n_heads: int = 8
    d_k: int = 64
    n_layers: int = 2
    embed_dim: int = 256
    phi_hidden: int = 128
    proj_hidden: int = 512
    head_hidden: int = 512
    ffn_mult: int = 2
    tau_init: float = 0.07
    seed: int = 0

    def validate(self):
        for name in ("n_pathways", "n_genes", "d_img", "n_heads", "d_k", "n_layers"):
            if getattr(self, name) < 1:
                raise PearlError(f"model config: {name} must be >= 1")
        if not TAU_MIN <= self.tau_init <= TAU_MAX:
            raise PearlError(f"model config: tau_init must be in [{TAU_MIN}, {TAU_MAX}]")


@dataclass
class CoordNormalizer:
    """Per-axis standardization of raw spot coordinates (sample std, n-1)."""

    mu: np.ndarray
    sigma: np.ndarray

    @classmethod
    def fit(cls, coords):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise PearlError(f"expected (N, 2) coordinates, got {coords.shape}")
        if coords.shape[0] < 2:
            raise PearlError("need at least 2 spots to fit the coordinate normalizer")
        mu = coords.mean(axis=0)
        sigma = coords.std(axis=0, ddof=1)
        if np.any(sigma <= 0):
            raise PearlError("degenerate coordinate axis (zero variance)")
        return cls(mu=mu, sigma=sigma)

    def transform(self, coords):
        return (np.asarray(coords, dtype=np.float64) - self.mu) / self.sigma


def _xavier(rng, shape, dtype):
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class PearlModel:
    """All trainable parameters, addressable by name in a fixed order."""

    def __init__(self, config, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(config.seed)
        P = config.n_pathways
        self.params = {}

        def param(name, shape, init="xavier"):
            if init == "xavier":
                v = _xavier(rng, shape, dtype)
            elif init == "zeros":
                v = np.zeros(shape, dtype=dtype)
            elif init == "ones":
                v = np.ones(shape, dtype=dtype)
            else:
                raise ValueError(init)
            t = Tensor(v, requires_grad=True)
            self.params[name] = t
            return t

        param("phi.w1", (2, config.phi_hidden))
        param("phi.b1", (config.phi_hidden,), "zeros")
        param("phi.w2", (config.phi_hidden, P))
        param("phi.b2", (P,), "zeros")
        H, d_k = config.n_heads, config.d_k
        for l in range(config.n_layers):
            # head by head, q then k then v, each with its own (P, d_k) xavier
            # limit: the draws of separate per-head matrices, laid out fused
            wqkv = np.empty((P, 3 * H * d_k), dtype=dtype)
            for h in range(H):
                for j in range(3):
                    col = (j * H + h) * d_k
                    wqkv[:, col : col + d_k] = _xavier(rng, (P, d_k), dtype)
            self.params[f"tf{l}.wqkv"] = Tensor(wqkv, requires_grad=True)
            param(f"tf{l}.wo", (H * d_k, P))
            param(f"tf{l}.ln1.g", (P,), "ones")
            param(f"tf{l}.ln1.b", (P,), "zeros")
            param(f"tf{l}.ffn.w1", (P, config.ffn_mult * P))
            param(f"tf{l}.ffn.b1", (config.ffn_mult * P,), "zeros")
            param(f"tf{l}.ffn.w2", (config.ffn_mult * P, P))
            param(f"tf{l}.ffn.b2", (P,), "zeros")
            param(f"tf{l}.ln2.g", (P,), "ones")
            param(f"tf{l}.ln2.b", (P,), "zeros")
        for prefix, d_in, d_out in (
            ("proj_path", P, config.embed_dim),
            ("proj_img", config.d_img, config.embed_dim),
        ):
            param(f"{prefix}.w1", (d_in, config.proj_hidden))
            param(f"{prefix}.b1", (config.proj_hidden,), "zeros")
            param(f"{prefix}.w2", (config.proj_hidden, config.embed_dim))
            param(f"{prefix}.b2", (config.embed_dim,), "zeros")
        t = Tensor(
            np.asarray(math.log(config.tau_init), dtype=dtype), requires_grad=True
        )
        self.params["log_tau"] = t
        for prefix, d_out in (("head_path", P), ("head_gene", config.n_genes)):
            param(f"{prefix}.w1", (config.embed_dim, config.head_hidden))
            param(f"{prefix}.b1", (config.head_hidden,), "zeros")
            param(f"{prefix}.w2", (config.head_hidden, d_out))
            param(f"{prefix}.b2", (d_out,), "zeros")

    # -- parameter access ---------------------------------------------------

    def parameters(self):
        return list(self.params.items())

    def stage1_parameters(self):
        return [
            (n, p)
            for n, p in self.params.items()
            if not n.startswith(("head_path", "head_gene"))
        ]

    def stage2_parameters(self):
        return [
            (n, p) for n, p in self.params.items() if n.startswith(("head_path", "head_gene"))
        ]

    @property
    def tau(self):
        return float(np.exp(self.params["log_tau"].values))

    def clamp_tau(self):
        lo, hi = math.log(TAU_MIN), math.log(TAU_MAX)
        v = self.params["log_tau"].values
        self.params["log_tau"].values = np.clip(v, lo, hi).astype(v.dtype)

    def inv_tau(self):
        return ad.exp(ad.neg(self.params["log_tau"]))

    # -- forward passes -----------------------------------------------------

    def _mlp(self, x, prefix):
        h = ad.gelu(ad.add(ad.matmul(x, self.params[f"{prefix}.w1"]), self.params[f"{prefix}.b1"]))
        return ad.add(ad.matmul(h, self.params[f"{prefix}.w2"]), self.params[f"{prefix}.b2"])

    def encode_pathways(self, scores, coords_norm):
        """scores: (N, P) NES matrix; coords_norm: (N, 2) normalized coords."""
        X = scores if isinstance(scores, Tensor) else Tensor(np.asarray(scores, dtype=self.dtype))
        C = (
            coords_norm
            if isinstance(coords_norm, Tensor)
            else Tensor(np.asarray(coords_norm, dtype=self.dtype))
        )
        if X.shape[1] != self.config.n_pathways:
            raise PearlError(
                f"score matrix has {X.shape[1]} pathways, model expects {self.config.n_pathways}"
            )
        if C.shape != (X.shape[0], 2):
            raise PearlError(f"coords shape {C.shape} does not match scores {X.shape}")
        h = ad.add(X, self._mlp(C, "phi"))
        for l in range(self.config.n_layers):
            h = self._transformer_layer(h, l)
        return self._mlp(h, "proj_path")

    def _transformer_layer(self, h, l):
        H, d_k = self.config.n_heads, self.config.d_k
        n = h.shape[0]
        # (N, 3*H*d_k) -> (3*H, N, d_k): rows [0, H) are queries, then keys, values
        qkv = ad.transpose(
            ad.reshape(ad.matmul(h, self.params[f"tf{l}.wqkv"]), (n, 3 * H, d_k)), (1, 0, 2)
        )
        q, k, v = (ad.slice_rows(qkv, j * H, (j + 1) * H) for j in range(3))
        scores = ad.mul_scalar(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(d_k))
        heads = ad.matmul(ad.softmax_rows(scores), v)  # (H, N, d_k)
        concat = ad.reshape(ad.transpose(heads, (1, 0, 2)), (n, H * d_k))
        mh = ad.matmul(concat, self.params[f"tf{l}.wo"])
        h = ad.layer_norm(ad.add(h, mh), self.params[f"tf{l}.ln1.g"], self.params[f"tf{l}.ln1.b"])
        ffn = ad.add(
            ad.matmul(
                ad.gelu(ad.add(ad.matmul(h, self.params[f"tf{l}.ffn.w1"]), self.params[f"tf{l}.ffn.b1"])),
                self.params[f"tf{l}.ffn.w2"],
            ),
            self.params[f"tf{l}.ffn.b2"],
        )
        return ad.layer_norm(
            ad.add(h, ffn), self.params[f"tf{l}.ln2.g"], self.params[f"tf{l}.ln2.b"]
        )

    def encode_images(self, features):
        """Row-wise projection of patch features to the shared embedding."""
        F = (
            features
            if isinstance(features, Tensor)
            else Tensor(np.asarray(features, dtype=self.dtype))
        )
        if F.values.ndim != 2 or F.shape[1] != self.config.d_img:
            raise PearlError(
                f"feature dim {F.shape} does not match model d_img={self.config.d_img}"
            )
        return self._mlp(F, "proj_img")

    def predict_heads(self, h_image):
        """(y_path, y_gene) from image embeddings; never touches the pathway encoder."""
        H = (
            h_image
            if isinstance(h_image, Tensor)
            else Tensor(np.asarray(h_image, dtype=self.dtype))
        )
        return self._mlp(H, "head_path"), self._mlp(H, "head_gene")


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_model(model, path, normalizer=None, extra=None):
    hyper = asdict(model.config)
    more = dict(extra or {})
    if normalizer is not None:
        more["coord_normalizer"] = {
            "mu": [float(v) for v in normalizer.mu],
            "sigma": [float(v) for v in normalizer.sigma],
        }
    params = [(n, np.asarray(p.values, dtype=np.float32)) for n, p in model.parameters()]
    data_io.save_checkpoint(params, hyper, path, extra=more)


def load_model(path):
    """Returns (model, normalizer_or_None, extra)."""
    params, hyper, extra = data_io.load_checkpoint(path)
    data_io.check_hyperparams(hyper, ModelConfig.__dataclass_fields__)
    config = ModelConfig(**hyper)
    model = PearlModel(config)
    data_io.assign_params(model.parameters(), params)
    normalizer = None
    if extra and "coord_normalizer" in extra:
        cn = extra["coord_normalizer"]
        normalizer = CoordNormalizer(
            mu=np.asarray(cn["mu"], dtype=np.float64),
            sigma=np.asarray(cn["sigma"], dtype=np.float64),
        )
    return model, normalizer, extra or {}
