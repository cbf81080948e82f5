import json
import math

import numpy as np
import pytest

from pearl import autodiff as ad
from pearl import gradsuite
from pearl.encoders import CoordNormalizer, ModelConfig, PearlModel, load_model, save_model
from pearl.errors import CheckpointVersionError, PearlError


def tiny_model(dtype=np.float64, seed=0, **kw):
    cfg = ModelConfig(
        n_pathways=kw.pop("n_pathways", 4),
        n_genes=kw.pop("n_genes", 3),
        d_img=kw.pop("d_img", 5),
        n_heads=kw.pop("n_heads", 1),
        d_k=kw.pop("d_k", 2),
        phi_hidden=4,
        proj_hidden=6,
        head_hidden=6,
        embed_dim=kw.pop("embed_dim", 4),
        seed=seed,
        **kw,
    )
    return PearlModel(cfg, dtype=dtype)


def numpy_forward(model, X, C):
    """Independent step-by-step trace of the pathway encoder in plain numpy."""
    P = {n: p.values for n, p in model.parameters()}

    def gelu(x):
        return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))

    def mlp(x, pre):
        return gelu(x @ P[f"{pre}.w1"] + P[f"{pre}.b1"]) @ P[f"{pre}.w2"] + P[f"{pre}.b2"]

    def ln(x, g, b, eps=1e-5):
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * g + b

    h = X + mlp(C, "phi")
    cfg = model.config
    for l in range(cfg.n_layers):
        heads = []
        w, H, d = P[f"tf{l}.wqkv"], cfg.n_heads, cfg.d_k
        for i in range(cfg.n_heads):
            # fused columns: [Q heads | K heads | V heads], head i at block i
            q = h @ w[:, i * d : (i + 1) * d]
            k = h @ w[:, (H + i) * d : (H + i + 1) * d]
            v = h @ w[:, (2 * H + i) * d : (2 * H + i + 1) * d]
            s = q @ k.T / np.sqrt(cfg.d_k)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            heads.append(a @ v)
        mh = np.concatenate(heads, axis=1) @ P[f"tf{l}.wo"]
        h = ln(h + mh, P[f"tf{l}.ln1.g"], P[f"tf{l}.ln1.b"])
        ffn = gelu(h @ P[f"tf{l}.ffn.w1"] + P[f"tf{l}.ffn.b1"]) @ P[f"tf{l}.ffn.w2"] + P[
            f"tf{l}.ffn.b2"
        ]
        h = ln(h + ffn, P[f"tf{l}.ln2.g"], P[f"tf{l}.ln2.b"])
    return mlp(h, "proj_path")


class TestCoordNormalizer:
    def test_hand_fit(self):
        n = CoordNormalizer.fit([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_allclose(n.mu, [1.0, 1.0])
        np.testing.assert_allclose(n.sigma, [np.sqrt(2.0), np.sqrt(2.0)])

    def test_centering(self):
        n = CoordNormalizer.fit([[0.0, 1.0], [4.0, 5.0], [2.0, 3.0]])
        np.testing.assert_allclose(n.transform([n.mu]), [[0.0, 0.0]], atol=1e-12)

    def test_single_spot_rejected(self):
        with pytest.raises(PearlError):
            CoordNormalizer.fit([[1.0, 2.0]])

    def test_degenerate_axis_rejected(self):
        with pytest.raises(PearlError):
            CoordNormalizer.fit([[1.0, 2.0], [1.0, 5.0]])


class TestEncodePathways:
    def test_forward_matches_hand_trace(self):
        model = tiny_model()
        rng = np.random.default_rng(1)
        X, C = rng.normal(size=(3, 4)), rng.normal(size=(3, 2))
        got = model.encode_pathways(X, C).values
        np.testing.assert_allclose(got, numpy_forward(model, X, C), atol=1e-5)

    def test_single_token_attention(self):
        model = tiny_model()
        rng = np.random.default_rng(2)
        X, C = rng.normal(size=(1, 4)), rng.normal(size=(1, 2))
        got = model.encode_pathways(X, C).values
        np.testing.assert_allclose(got, numpy_forward(model, X, C), atol=1e-6)

    def test_token_order_equivariance(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        X, C = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
        perm = rng.permutation(5)
        base = model.encode_pathways(X, C).values
        permuted = model.encode_pathways(X[perm], C[perm]).values
        np.testing.assert_allclose(permuted, base[perm], atol=1e-10)

    def test_coordinate_shift_invariance(self):
        model = tiny_model()
        rng = np.random.default_rng(4)
        X = rng.normal(size=(6, 4))
        raw = rng.normal(size=(6, 2)) * 50
        n1 = CoordNormalizer.fit(raw)
        n2 = CoordNormalizer.fit(raw + np.array([123.0, -77.0]))
        a = model.encode_pathways(X, n1.transform(raw)).values
        b = model.encode_pathways(X, n2.transform(raw + np.array([123.0, -77.0]))).values
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_shape_mismatch(self):
        model = tiny_model()
        with pytest.raises(PearlError):
            model.encode_pathways(np.zeros((2, 7)), np.zeros((2, 2)))


def per_head_init(cfg, dtype=np.float64):
    """The initial weights of a model with separate per-head q/k/v matrices:
    the same draws in the same order, one (P, d_k) matrix per head and role."""
    rng = np.random.default_rng(cfg.seed)
    P = cfg.n_pathways
    out = {}

    def xavier(name, shape):
        limit = math.sqrt(6.0 / (shape[0] + shape[1]))
        out[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)

    xavier("phi.w1", (2, cfg.phi_hidden))
    xavier("phi.w2", (cfg.phi_hidden, P))
    for l in range(cfg.n_layers):
        for h in range(cfg.n_heads):
            for role in ("wq", "wk", "wv"):
                xavier(f"tf{l}.h{h}.{role}", (P, cfg.d_k))
        xavier(f"tf{l}.wo", (cfg.n_heads * cfg.d_k, P))
        xavier(f"tf{l}.ffn.w1", (P, cfg.ffn_mult * P))
        xavier(f"tf{l}.ffn.w2", (cfg.ffn_mult * P, P))
    for prefix, d_in in (("proj_path", P), ("proj_img", cfg.d_img)):
        xavier(f"{prefix}.w1", (d_in, cfg.proj_hidden))
        xavier(f"{prefix}.w2", (cfg.proj_hidden, cfg.embed_dim))
    for prefix, d_out in (("head_path", P), ("head_gene", cfg.n_genes)):
        xavier(f"{prefix}.w1", (cfg.embed_dim, cfg.head_hidden))
        xavier(f"{prefix}.w2", (cfg.head_hidden, d_out))
    return out


class TestFusedHeads:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_initial_weights_match_per_head_draws(self, dtype):
        model = tiny_model(dtype=dtype, n_heads=3, d_k=2, seed=11)
        cfg = model.config
        ref = per_head_init(cfg, dtype)
        H, d = cfg.n_heads, cfg.d_k
        for l in range(cfg.n_layers):
            fused = model.params[f"tf{l}.wqkv"].values
            assert fused.shape == (cfg.n_pathways, 3 * H * d)
            for h in range(H):
                for j, role in enumerate(("wq", "wk", "wv")):
                    col = (j * H + h) * d
                    np.testing.assert_array_equal(
                        fused[:, col : col + d], ref.pop(f"tf{l}.h{h}.{role}")
                    )
        for name, values in ref.items():
            np.testing.assert_array_equal(model.params[name].values, values)
        for name, p in model.parameters():
            if name.endswith((".b", ".b1", ".b2")):
                np.testing.assert_array_equal(p.values, 0.0)

    def test_multi_head_forward_matches_hand_trace(self):
        model = tiny_model(n_heads=3, d_k=2, seed=12)
        rng = np.random.default_rng(13)
        X, C = rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
        got = model.encode_pathways(X, C).values
        np.testing.assert_allclose(got, numpy_forward(model, X, C), atol=1e-5)

    def test_version_1_checkpoint_rejected(self, tmp_path):
        path = str(tmp_path / "m")
        save_model(tiny_model(dtype=np.float32), path)
        manifest_path = tmp_path / "m.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointVersionError):
            load_model(path)


class TestEncodeImages:
    def test_row_duplication(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        F = rng.normal(size=(3, 5))
        F2 = np.vstack([F, F[0:1]])
        out = model.encode_images(F2).values
        np.testing.assert_allclose(out[3], out[0], atol=1e-12)

    def test_zero_weights_zero_output(self):
        model = tiny_model()
        for name in ("proj_img.w1", "proj_img.b1", "proj_img.w2", "proj_img.b2"):
            model.params[name].values[...] = 0.0
        out = model.encode_images(np.ones((2, 5))).values
        np.testing.assert_array_equal(out, 0.0)

    def test_row_locality(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        F = rng.normal(size=(4, 5))
        base = model.encode_images(F).values
        F2 = F.copy()
        F2[2] += 1.0
        out = model.encode_images(F2).values
        np.testing.assert_array_equal(out[[0, 1, 3]], base[[0, 1, 3]])
        assert not np.allclose(out[2], base[2])

    def test_gradcheck_through_mlp(self):
        model = tiny_model()
        rng = np.random.default_rng(7)
        F = rng.normal(size=(2, 5))
        params = [model.params[n] for n in ("proj_img.w1", "proj_img.b1", "proj_img.w2", "proj_img.b2")]
        err = ad.gradcheck(lambda *_: ad.sum_all(model.encode_images(F)), params)
        assert err < gradsuite.REL_TOL


class TestPredictHeads:
    def test_shapes(self):
        model = tiny_model()
        yp, yg = model.predict_heads(np.zeros((1, 4)))
        assert yp.shape == (1, 4)
        assert yg.shape == (1, 3)

    def test_determinism(self):
        model = tiny_model()
        h = np.random.default_rng(8).normal(size=(3, 4))
        a = model.predict_heads(h)[0].values
        b = model.predict_heads(h)[0].values
        np.testing.assert_array_equal(a, b)

    def test_hand_traced_heads(self):
        model = tiny_model()
        P = {n: p.values for n, p in model.parameters()}
        h = np.random.default_rng(9).normal(size=(2, 4))

        def gelu(x):
            return 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x**3)))

        expect = gelu(h @ P["head_path.w1"] + P["head_path.b1"]) @ P["head_path.w2"] + P[
            "head_path.b2"
        ]
        got = model.predict_heads(h)[0].values
        np.testing.assert_allclose(got, expect, atol=1e-6)


class TestTemperature:
    def test_positive_after_clamp(self):
        model = tiny_model()
        model.params["log_tau"].values = np.asarray(-100.0)
        model.clamp_tau()
        assert model.tau >= 1e-3
        model.params["log_tau"].values = np.asarray(100.0)
        model.clamp_tau()
        assert model.tau <= 100.0 * (1 + 1e-12)

    def test_initial_value(self):
        assert tiny_model().tau == pytest.approx(0.07, rel=1e-6)

    @pytest.mark.parametrize("tau_init", [100.0, 1e-3])
    def test_initial_value_at_a_bound_accepted(self, tau_init):
        assert tiny_model(tau_init=tau_init).tau == pytest.approx(tau_init, rel=1e-6)

    @pytest.mark.parametrize("tau_init", [150.0, 1e-4])
    def test_initial_value_outside_clamp_rejected(self, tau_init):
        # training clamps tau before reading it, so an initial value outside
        # the bounds would never be used
        with pytest.raises(PearlError, match="tau_init"):
            tiny_model(tau_init=tau_init)


class TestModelConfig:
    @pytest.mark.parametrize(
        "name",
        ["n_heads", "d_k", "n_layers", "embed_dim", "phi_hidden", "proj_hidden", "head_hidden",
         "ffn_mult"],
    )
    def test_settable_size_checked_on_construction(self, name):
        with pytest.raises(PearlError, match=f"{name} must be >= 1"):
            ModelConfig(**{name: 0})

    @pytest.mark.parametrize("tau_init", [150.0, 1e-4, float("nan")])
    def test_tau_init_checked_on_construction(self, tau_init):
        with pytest.raises(PearlError, match="tau_init"):
            ModelConfig(tau_init=tau_init)

    @pytest.mark.parametrize("name", ["n_pathways", "n_genes", "d_img"])
    def test_data_sizes_checked_by_the_model(self, name):
        cfg = ModelConfig(n_pathways=4, n_genes=3, d_img=5)
        PearlModel(cfg)
        setattr(cfg, name, 0)
        with pytest.raises(PearlError, match=f"{name} must be >= 1"):
            PearlModel(cfg)
