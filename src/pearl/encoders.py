"""Model definition: positional MLP, two-layer transformer pathway encoder,
projection heads, learnable temperature, and the two prediction heads.

The transformer treats the N spots of a batch as tokens with model dimension
equal to the pathway count P; attention mixes spots within the batch.  Each
layer projects to queries, keys and values of all H heads with one fused
(P, 3*H*d_k) matrix, in the column layout `autodiff.attention` states, and
that one node runs the projection and all the heads, so a layer is 2-D nodes
end to end and its graph holds no (N, N) probabilities.  Inference uses the
image branch only; a loaded checkpoint fills parameters built unfilled.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from . import data_io
from .autodiff import Tensor
from .errors import CheckpointManifestError, PearlError

TAU_MIN = 1e-3
TAU_MAX = 100.0
# the name prefixes of the prediction heads' parameters, which stage 2 trains
_HEADS = ("head_path", "head_gene")


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

    def __post_init__(self):
        # the sizes a config file may set; PearlModel checks those a command sets
        for name in ("n_heads", "d_k", "n_layers", "embed_dim", "phi_hidden", "proj_hidden",
                     "head_hidden", "ffn_mult"):
            if getattr(self, name) < 1:
                raise PearlError(f"{name} must be >= 1")
        if not TAU_MIN <= self.tau_init <= TAU_MAX:
            raise PearlError(f"tau_init must be in [{TAU_MIN}, {TAU_MAX}]")


@dataclass
class CoordNormalizer:
    """Per-axis standardization of raw spot coordinates (sample std, n-1): a
    finite `mu` and a `sigma` in (0, inf), two of each, however it was made."""

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.sigma = np.asarray(self.sigma, dtype=np.float64)
        if self.mu.shape != (2,) or self.sigma.shape != (2,):
            raise PearlError(
                f"need 2 values each of mu and sigma, got {self.mu.size} and {self.sigma.size}"
            )
        if not np.all(np.isfinite(self.mu) & (0 < self.sigma) & (self.sigma < np.inf)):
            raise PearlError("degenerate coordinate axis (zero or non-finite variance)")

    @classmethod
    def fit(cls, coords):
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise PearlError(f"expected (N, 2) coordinates, got {coords.shape}")
        if coords.shape[0] < 2:
            raise PearlError("need at least 2 spots to fit the coordinate normalizer")
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(mu=coords.mean(axis=0), sigma=coords.std(axis=0, ddof=1))

    def transform(self, coords):
        return (np.asarray(coords, dtype=np.float64) - self.mu) / self.sigma


def _xavier(rng, shape, dtype):
    """A xavier-uniform draw from `rng`; with no `rng`, an unfilled array for a
    checkpoint to fill."""
    if rng is None:
        return np.empty(shape, dtype)
    limit = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class PearlModel:
    """All trainable parameters, addressable by name in a fixed order, and the
    coordinate normalizer the pathway encoder was trained with.  With `draw`
    false the weights are left unfilled, for a checkpoint to fill, and no
    random generator is made."""

    def __init__(self, config, dtype=np.float32, draw=True):
        for name in ("n_pathways", "n_genes", "d_img"):  # the sizes a command fills in
            if getattr(config, name) < 1:
                raise PearlError(f"model config: {name} must be >= 1")
        self.config = config
        self.dtype = dtype
        self.normalizer = None  # the CoordNormalizer stage-1 training fits
        rng = np.random.default_rng(config.seed) if draw else None
        P = config.n_pathways
        self.params = {}

        def param(name, shape, fill=None):  # `_xavier(rng, ...)`, or the constant `fill`
            v = _xavier(rng, shape, dtype) if fill is None else np.full(shape, fill, dtype)
            self.params[name] = Tensor(v, requires_grad=True)

        def mlp(prefix, d_in, d_hidden, d_out):  # the parameters `_mlp(x, prefix)` reads
            param(f"{prefix}.w1", (d_in, d_hidden))
            param(f"{prefix}.b1", (d_hidden,), 0.0)
            param(f"{prefix}.w2", (d_hidden, d_out))
            param(f"{prefix}.b2", (d_out,), 0.0)

        mlp("phi", 2, config.phi_hidden, P)
        H, d_k = config.n_heads, config.d_k
        limit = math.sqrt(6.0 / (P + d_k))
        for l in range(config.n_layers):
            # head by head, q then k then v, each a (P, d_k) xavier draw: the
            # draws of separate per-head matrices, laid out fused in the
            # column order `autodiff.attention` states
            if rng is None:
                wqkv = np.empty((P, 3 * H * d_k), dtype)
            else:
                draws = rng.uniform(-limit, limit, size=(H, 3, P, d_k))
                wqkv = draws.transpose(2, 1, 0, 3).reshape(P, 3 * H * d_k).astype(dtype)
            self.params[f"tf{l}.wqkv"] = Tensor(wqkv, requires_grad=True)
            param(f"tf{l}.wo", (H * d_k, P))
            param(f"tf{l}.ln1.g", (P,), 1.0)
            param(f"tf{l}.ln1.b", (P,), 0.0)
            mlp(f"tf{l}.ffn", P, config.ffn_mult * P, P)
            param(f"tf{l}.ln2.g", (P,), 1.0)
            param(f"tf{l}.ln2.b", (P,), 0.0)
        mlp("proj_path", P, config.proj_hidden, config.embed_dim)
        mlp("proj_img", config.d_img, config.proj_hidden, config.embed_dim)
        self.params["log_tau"] = Tensor(math.log(config.tau_init), requires_grad=True, dtype=dtype)
        mlp("head_path", config.embed_dim, config.head_hidden, P)
        mlp("head_gene", config.embed_dim, config.head_hidden, config.n_genes)

    # -- parameter access ---------------------------------------------------

    def parameters(self):
        return list(self.params.items())

    def stage1_parameters(self):
        return [(n, p) for n, p in self.params.items() if not n.startswith(_HEADS)]

    def stage2_parameters(self):
        return [(n, p) for n, p in self.params.items() if n.startswith(_HEADS)]

    @property
    def tau(self):
        return float(np.exp(self.params["log_tau"].values))

    def clamp_tau(self):
        lo, hi = math.log(TAU_MIN), math.log(TAU_MAX)
        v = self.params["log_tau"].values
        self.params["log_tau"].values = np.clip(v, lo, hi).astype(v.dtype)

    def inv_tau(self):
        return ad.exp(ad.mul_scalar(self.params["log_tau"], -1.0))

    # -- forward passes -----------------------------------------------------

    def _mlp(self, x, prefix):
        p = self.params
        h = ad.gelu(ad.affine(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
        return ad.affine(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])

    def encode_pathways(self, scores, coords_norm):
        """scores: (N, P) NES matrix; coords_norm: (N, 2) normalized coords."""
        X = Tensor(scores, dtype=self.dtype)
        C = Tensor(coords_norm, dtype=self.dtype)
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
        p = self.params
        heads = ad.attention(h, p[f"tf{l}.wqkv"], self.config.n_heads,
                             1.0 / math.sqrt(self.config.d_k))
        h = ad.layer_norm(ad.add(h, ad.matmul(heads, p[f"tf{l}.wo"])),
                          p[f"tf{l}.ln1.g"], p[f"tf{l}.ln1.b"])
        ffn = self._mlp(h, f"tf{l}.ffn")
        return ad.layer_norm(ad.add(h, ffn), p[f"tf{l}.ln2.g"], p[f"tf{l}.ln2.b"])

    def encode_images(self, features):
        """Row-wise projection of patch features to the shared embedding."""
        F = Tensor(features, dtype=self.dtype)
        if F.values.ndim != 2 or F.shape[1] != self.config.d_img:
            raise PearlError(
                f"feature dim {F.shape} does not match model d_img={self.config.d_img}"
            )
        return self._mlp(F, "proj_img")

    def predict_heads(self, h_image):
        """(pathway, gene) predictions from image embeddings; never touches the pathway encoder."""
        H = Tensor(h_image, dtype=self.dtype)
        return self._mlp(H, "head_path"), self._mlp(H, "head_gene")


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_model(model, path):
    extra = {}
    if model.normalizer is not None:
        extra["coord_normalizer"] = {
            "mu": [float(v) for v in model.normalizer.mu],
            "sigma": [float(v) for v in model.normalizer.sigma],
        }
    data_io.save_checkpoint(model, asdict(model.config), path, extra=extra)


def load_model(path):
    """The saved model, with its coordinate normalizer if one was saved."""
    model, extra = data_io.load_checkpoint(
        path,
        {f.name: type(f.default) for f in fields(ModelConfig)},
        lambda **hyper: PearlModel(ModelConfig(**hyper), draw=False),
    )
    if "coord_normalizer" in extra:
        cn = extra["coord_normalizer"]
        if not (isinstance(cn, dict) and all(_is_numbers(cn.get(k)) for k in ("mu", "sigma"))):
            raise CheckpointManifestError(
                f"{data_io.manifest_of(path)}: extra.coord_normalizer must hold 'mu' and "
                "'sigma', lists of numbers"
            )
        try:
            model.normalizer = CoordNormalizer(mu=cn["mu"], sigma=cn["sigma"])
        except PearlError as exc:
            raise CheckpointManifestError(
                f"{data_io.manifest_of(path)}: extra.coord_normalizer: {exc}"
            ) from None
    return model


def _is_numbers(v):
    return isinstance(v, list) and all(data_io.of_type(x, float) for x in v)
