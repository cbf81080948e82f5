import weakref
from dataclasses import replace

import numpy as np
import pytest

from pearl import autodiff as ad
from pearl import data_io
from pearl.encoders import CoordNormalizer, ModelConfig, PearlModel
from pearl.errors import PearlError, TrainingDiverged
from pearl.trainer import (
    SpotDataset,
    TrainConfig,
    _batches,
    _stage1_batch_loss,
    contrastive_loss,
    embed_images,
    fit,
    predict,
    retrieval_top1,
    slide_stratified_split,
    supervised_loss,
    train_stage1,
    train_stage2,
)

from conftest import graph_nodes, peak_bound, traced_peak


def brute_force_contrastive(h_img, h_path, inv_tau):
    """Scalar-loop InfoNCE: normalize, score, per-row and per-column softmax CE."""
    def norm(m):
        out = np.zeros_like(m)
        for i in range(m.shape[0]):
            n = np.sqrt(sum(v * v for v in m[i]))
            if n > 0:
                out[i] = m[i] / n
        return out

    a, b = norm(np.asarray(h_img, float)), norm(np.asarray(h_path, float))
    n = a.shape[0]
    s = np.array([[sum(a[i] * b[j]) * inv_tau for j in range(n)] for i in range(n)])

    def ce_rows(mat):
        total = 0.0
        for i in range(n):
            z = mat[i] - mat[i].max()
            total += -(z[i] - np.log(np.sum(np.exp(z))))
        return total / n

    return 0.5 * (ce_rows(s) + ce_rows(s.T))


# what _split says of a 3-spot slide split at val_fraction 0.5
TRAIN_SPLIT_REFUSED = r"training split has 1 spots and validation split 2, .*\(now 0\.5\)"


def tiny_dataset(n=12, n_path=4, n_genes=3, d_img=5, n_slides=2, seed=0):
    rng = np.random.default_rng(seed)
    slide_ids = [f"sl{i % n_slides}" for i in range(n)]
    return SpotDataset(
        spot_ids=[f"s{i}" for i in range(n)],
        slide_ids=slide_ids,
        scores=rng.normal(size=(n, n_path)),
        coords=rng.uniform(0, 100, size=(n, 2)),
        features=rng.normal(size=(n, d_img)),
        y_gene=rng.normal(size=(n, n_genes)),
    )


def tiny_model(seed=0, dtype=np.float32):
    return PearlModel(
        ModelConfig(
            n_pathways=4,
            n_genes=3,
            d_img=5,
            n_heads=1,
            d_k=2,
            phi_hidden=4,
            proj_hidden=6,
            head_hidden=6,
            embed_dim=4,
            seed=seed,
        ),
        dtype=dtype,
    )


class TestContrastiveLoss:
    @pytest.mark.parametrize("n", [2, 4, 16])
    def test_identical_embeddings_ln_n(self, n):
        # every row the same vector: uniform softmax in both directions
        rng = np.random.default_rng(n)
        v = rng.normal(size=6)
        h = np.tile(v, (n, 1))
        loss = contrastive_loss(ad.Tensor(h), ad.Tensor(h.copy()), 1.0)
        assert loss.values == pytest.approx(np.log(n), abs=1e-6)

    def test_orthonormal_pairs_small_temperature(self):
        # matched pairs score 1/tau, mismatched 0: loss collapses toward 0
        h = np.eye(4)
        loss = contrastive_loss(ad.Tensor(h), ad.Tensor(h.copy()), 100.0)
        assert loss.values < 1e-6

    def test_symmetry_under_swap(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        l1 = contrastive_loss(ad.Tensor(a), ad.Tensor(b), 2.0).values
        l2 = contrastive_loss(ad.Tensor(b), ad.Tensor(a), 2.0).values
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            a, b = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
            inv_tau = float(rng.uniform(0.5, 10.0))
            got = contrastive_loss(ad.Tensor(a), ad.Tensor(b), inv_tau).values
            assert got == pytest.approx(brute_force_contrastive(a, b, inv_tau), abs=1e-10)


class TestSplit:
    def test_partition(self):
        slides = ["a"] * 10 + ["b"] * 10
        tr, va = slide_stratified_split(slides, 0.2, seed=0)
        assert sorted(np.concatenate([tr, va])) == list(range(20))
        assert len(va) == 4

    def test_stratified_per_slide(self):
        slides = ["a"] * 10 + ["b"] * 20
        _, va = slide_stratified_split(slides, 0.1, seed=1)
        va_slides = [slides[i] for i in va]
        assert va_slides.count("a") == 1
        assert va_slides.count("b") == 2

    def test_seed_determinism(self):
        slides = ["a"] * 30
        tr1, va1 = slide_stratified_split(slides, 0.1, seed=7)
        tr2, va2 = slide_stratified_split(slides, 0.1, seed=7)
        np.testing.assert_array_equal(va1, va2)
        tr3, va3 = slide_stratified_split(slides, 0.1, seed=8)
        assert not np.array_equal(va1, va3)

    def test_minimum_one_val_spot_per_slide(self):
        slides = ["a"] * 3 + ["b"] * 3
        _, va = slide_stratified_split(slides, 0.05, seed=0)
        va_slides = [slides[i] for i in va]
        assert "a" in va_slides and "b" in va_slides


def assert_stopped_at_best(history, patience, max_epochs):
    """An early stop: `patience` epochs ran after the best validation epoch."""
    best = int(np.argmin(history["val_loss"]))
    assert len(history["val_loss"]) < max_epochs
    assert len(history["val_loss"]) == len(history["train_loss"]) == best + 1 + patience
    return min(history["val_loss"])


class TestFit:
    def _quadratic(self):
        w = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        return w, lambda _: ad.sum_all(ad.mul(w, w))

    def test_non_finite_loss_names_epoch_and_batch(self):
        w, loss = self._quadratic()
        calls = []

        def batch_loss(batch):
            calls.append(batch)
            out = loss(batch)
            return ad.mul_scalar(out, np.nan) if len(calls) == 6 else out

        cfg = TrainConfig(max_epochs=5, patience=2, lr=1e-2)
        with pytest.raises(TrainingDiverged) as info:
            fit([("w", w)], cfg, lambda: [0, 1, 2], batch_loss)
        assert (info.value.epoch, info.value.batch) == (1, 2)
        assert "epoch 1, batch 2" in str(info.value)

    def test_restores_best_epoch_and_stops_after_patience(self):
        w, loss = self._quadratic()
        scores = iter([3.0, 1.0, 2.0, 1.0, 5.0, 0.0])
        seen = []

        def val_loss():
            seen.append(w.values.copy())
            return next(scores)

        cfg = TrainConfig(max_epochs=6, patience=3, lr=1e-1)
        history = fit([("w", w)], cfg, lambda: [0, 1], loss, val_loss)
        # epoch 1 is best; ties (epoch 3) do not count as improvement
        assert history["val_loss"] == [3.0, 1.0, 2.0, 1.0, 5.0]
        assert len(history["train_loss"]) == 5
        np.testing.assert_array_equal(w.values, seen[1])

    def test_without_validation_scores_mean_training_loss(self):
        w, loss = self._quadratic()
        cfg = TrainConfig(max_epochs=4, patience=1, lr=1e-1)
        history = fit([("w", w)], cfg, lambda: [0, 1], loss)
        assert history["val_loss"] == []
        assert len(history["train_loss"]) == 4
        assert history["train_loss"] == sorted(history["train_loss"], reverse=True)

    def test_previous_step_graph_freed_before_the_next_is_built(self, no_gc):
        # each batch_loss call finds the loss it returned last time dead
        w, loss = self._quadratic()
        previous, alive = [], []

        def batch_loss(batch):
            alive.extend(r() is not None for r in previous[-1:])
            out = loss(batch)
            previous.append(weakref.ref(out))
            return out

        fit([("w", w)], TrainConfig(max_epochs=2, patience=1, lr=1e-1), lambda: [0, 1, 2],
            batch_loss)
        assert alive == [False] * 5


class TestStage1:
    def test_one_attention_node_per_layer(self, no_gc):
        ds = tiny_dataset()

        def n_nodes(n_layers):
            model = PearlModel(replace(tiny_model().config, n_layers=n_layers))
            model.normalizer = CoordNormalizer.fit(ds.coords)
            return graph_nodes(_stage1_batch_loss(model, ds, np.arange(6)))

        # a layer is 9 ops and 10 parameters: attention, matmul, add,
        # layer_norm, then the feed-forward's affine, gelu, affine, add,
        # layer_norm; attention is one node from h and the fused wqkv
        assert [n_nodes(1), n_nodes(2) - n_nodes(1)] == [54, 19]

    def test_peak_memory_at_benchmark_shape(self, benchmark_inputs, train_infer_model):
        # 400 spots on 2 slides (a 256-spot batch, a 104-spot one, 40 for
        # validation), 20 pathways, d_img 64 and the default ModelConfig: the
        # tables of perfbench's train-infer; 2 epochs, the fewest a TrainConfig
        # allows, peak as high as one.  Measured 37.0 MiB with three (H, N, N)
        # score arrays per layer in the graph and the previous step's graph
        # alive while the next was built, 28.0 MiB with neither; 26.3 MiB
        # with stacked per-head nodes around the attention node, 24.3 MiB
        # with attention one node on the fused qkv product, 14.3 MiB with
        # that node keeping only h and wqkv (its backward recomputes each
        # head) and backward freeing each node as it passes it, 13.4 MiB with
        # backward dropping every intermediate value before its walk.
        d = benchmark_inputs("train-infer")
        ds = SpotDataset.from_tables(
            data_io.read_scores(d / "train_scores.tsv"), data_io.read_coords(d / "coords.csv"),
            data_io.read_features(d / "train_features.tsv"),
            data_io.parse_expression(d / "train_hvg.tsv", value_kind=data_io.NORMALIZED_LOG),
        )
        _, peak = traced_peak(train_stage1, ds, train_infer_model,
                              TrainConfig(max_epochs=2, patience=1))
        assert peak < peak_bound("train_stage1, two epochs, benchmark train-infer", peak, 15)

    def test_loss_decreases_and_best_restored(self):
        ds = tiny_dataset(n=24, seed=1)
        cfg = TrainConfig(batch_size=4, max_epochs=8, patience=3, lr=1e-2, seed=0)
        model, history = train_stage1(ds, tiny_model(), cfg)
        assert len(history["train_loss"]) == len(history["val_loss"])
        assert min(history["val_loss"][:1]) >= min(history["val_loss"])
        # restored parameters reproduce the best recorded validation loss shape
        assert np.isfinite(history["val_loss"]).all()
        assert history["train_loss"][-1] < history["train_loss"][0] * 1.5

    def test_early_stopping_bound(self):
        ds = tiny_dataset(n=16, seed=2)
        cfg = TrainConfig(batch_size=4, max_epochs=50, patience=2, lr=1e-2, seed=0)
        _, history = train_stage1(ds, tiny_model(), cfg)
        assert len(history["val_loss"]) <= 50

    def test_early_stop_restores_best_validation_epoch(self):
        ds = tiny_dataset(n=24, seed=1)
        cfg = TrainConfig(batch_size=4, max_epochs=60, patience=2, lr=3e-2, seed=0)
        model, history = train_stage1(ds, tiny_model(), cfg)
        best = assert_stopped_at_best(history, cfg.patience, cfg.max_epochs)
        _, val_idx = slide_stratified_split(ds.slide_ids, cfg.val_fraction, cfg.seed)
        with ad.no_grad():
            losses = [
                _stage1_batch_loss(model, ds, idx).item()
                for idx in _batches(val_idx, cfg.batch_size)
            ]
        assert float(np.mean(losses)) == best

    def test_determinism(self):
        ds = tiny_dataset(n=16, seed=3)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=2, lr=1e-3, seed=5)
        m1, h1 = train_stage1(ds, tiny_model(), cfg)
        m2, h2 = train_stage1(ds, tiny_model(), cfg)
        assert h1 == h2
        for (n1, p1), (_, p2) in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.values, p2.values)

    def test_one_spot_validation_split_rejected(self):
        # one 12-spot slide at val_fraction 0.05 leaves a single validation
        # spot: no validation batch, so every epoch would score NaN
        ds = tiny_dataset(n=12, n_slides=1, seed=11)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=1, val_fraction=0.05)
        assert len(slide_stratified_split(ds.slide_ids, cfg.val_fraction, cfg.seed)[1]) == 1
        with pytest.raises(PearlError, match="val_fraction"):
            train_stage1(ds, tiny_model(), cfg)

    def test_one_spot_training_split_rejected(self):
        # three spots at val_fraction 0.5: one training spot, no training batch
        ds = tiny_dataset(n=3, n_slides=1, seed=13)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=1, val_fraction=0.5)
        with pytest.raises(PearlError, match=TRAIN_SPLIT_REFUSED):
            train_stage1(ds, tiny_model(), cfg)

    def test_batch_too_small_rejected(self):
        with pytest.raises(PearlError):
            TrainConfig(batch_size=1)

    def test_patience_not_below_epochs(self):
        with pytest.raises(PearlError):
            TrainConfig(max_epochs=5, patience=5)


class TestStage2:
    def test_backbone_frozen(self):
        ds = tiny_dataset(n=16, seed=4)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=2, lr=1e-2, seed=0)
        model, _ = train_stage1(ds, tiny_model(), cfg)
        before = {
            n: p.values.copy()
            for n, p in model.parameters()
            if not n.startswith("head_")
        }
        model, history = train_stage2(ds, model, cfg)
        for n, p in model.parameters():
            if n.startswith("head_"):
                continue
            np.testing.assert_array_equal(p.values, before[n])
        assert len(history["train_loss"]) >= 1

    def test_heads_move(self):
        ds = tiny_dataset(n=16, seed=5)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=2, lr=1e-2, seed=0)
        model, _ = train_stage1(ds, tiny_model(), cfg)
        before = model.params["head_path.w1"].values.copy()
        model, _ = train_stage2(ds, model, cfg)
        assert not np.array_equal(model.params["head_path.w1"].values, before)

    def test_early_stop_restores_best_validation_epoch(self):
        ds = tiny_dataset(n=24, seed=10)
        cfg = TrainConfig(batch_size=4, max_epochs=200, patience=2, lr=1e-1, seed=0)
        model, history = train_stage2(ds, tiny_model(), cfg)
        best = assert_stopped_at_best(history, cfg.patience, cfg.max_epochs)
        _, val_idx = slide_stratified_split(ds.slide_ids, cfg.val_fraction, cfg.seed)
        h = embed_images(model, ds.features)[val_idx]
        with ad.no_grad():
            loss = supervised_loss(model, h, ds.scores[val_idx], ds.y_gene[val_idx])
        assert loss.item() == best

    def test_one_spot_validation_split_accepted(self):
        ds = tiny_dataset(n=12, n_slides=1, seed=11)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=1, val_fraction=0.05)
        _, history = train_stage2(ds, tiny_model(), cfg)
        assert np.isfinite(history["val_loss"]).all()

    def test_empty_validation_split_rejected(self):
        # a slide with a single spot puts it in training, so one-spot slides
        # leave the validation split empty
        ds = tiny_dataset(n=6, n_slides=6, seed=12)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=1)
        assert len(slide_stratified_split(ds.slide_ids, cfg.val_fraction, cfg.seed)[1]) == 0
        with pytest.raises(PearlError, match="val_fraction"):
            train_stage2(ds, tiny_model(), cfg)

    def test_one_spot_training_split_rejected(self):
        ds = tiny_dataset(n=3, n_slides=1, seed=13)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=1, val_fraction=0.5)
        with pytest.raises(PearlError, match=TRAIN_SPLIT_REFUSED):
            train_stage2(ds, tiny_model(), cfg)

    def test_supervised_loss_composition_at_init(self):
        # with freshly zeroed heads both terms reduce to mean squared targets
        ds = tiny_dataset(n=8, seed=6)
        model = tiny_model(dtype=np.float64)
        for name in (
            "head_path.w1", "head_path.b1", "head_path.w2", "head_path.b2",
            "head_gene.w1", "head_gene.b1", "head_gene.w2", "head_gene.b2",
        ):
            model.params[name].values[...] = 0.0
        h = np.random.default_rng(0).normal(size=(8, 4))
        yp, yg = model.predict_heads(h)
        lp = ad.mse(yp, ad.Tensor(ds.scores)).values
        lg = ad.mse(yg, ad.Tensor(ds.y_gene)).values
        assert lp == pytest.approx(np.mean(ds.scores**2), abs=1e-12)
        assert lg == pytest.approx(np.mean(ds.y_gene**2), abs=1e-12)


class TestEmbeddingUtilities:
    def test_embed_images_matches_direct(self, monkeypatch):
        monkeypatch.setattr(ad, "_ROW_BLOCK", 3)  # blocks of 3, 3, 4 rows
        model = tiny_model()
        rng = np.random.default_rng(7)
        F = rng.normal(size=(10, 5))
        batched = embed_images(model, F)
        direct = model.encode_images(F).values
        np.testing.assert_allclose(batched, direct, atol=1e-6)

    def test_embed_images_of_no_rows(self):
        model = tiny_model()
        h = embed_images(model, np.zeros((0, 5)))
        assert h.shape == (0, model.config.embed_dim) and h.dtype == model.dtype

    def test_predict_is_the_heads_on_the_embeddings(self):
        model = tiny_model()
        F = np.random.default_rng(7).normal(size=(10, 5))
        h, yp, yg = predict(model, F)
        assert h.tobytes() == embed_images(model, F).tobytes()
        with ad.no_grad():
            heads = model.predict_heads(h)
        for got, want in zip((yp, yg), heads):
            assert isinstance(got, np.ndarray) and got.tobytes() == want.values.tobytes()

    def test_retrieval_range(self):
        ds = tiny_dataset(n=12, seed=8)
        cfg = TrainConfig(batch_size=4, max_epochs=2, patience=1, lr=1e-3, seed=0)
        model, _ = train_stage1(ds, tiny_model(), cfg)
        acc = retrieval_top1(model, ds, batch_size=4, seed=0)
        assert 0.0 <= acc <= 1.0

    def test_retrieval_zero_norm_image_embeddings_miss(self):
        ds = tiny_dataset(n=12, seed=9)
        model = tiny_model()
        model.params["proj_img.w2"].values[...] = 0.0
        model.params["proj_img.b2"].values[...] = 0.0
        model.normalizer = CoordNormalizer.fit(ds.coords)
        assert retrieval_top1(model, ds, batch_size=4, seed=0) == 0.0
