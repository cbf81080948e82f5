"""End-to-end acceptance gate.

Each test covers one numbered criterion and registers a single PASS/FAIL
line that the conftest terminal-summary hook prints after the run.
"""

import json
import math
import sys
import time

import numpy as np
import pytest

from pearl import autodiff as ad
from pearl import gradsuite, preprocess, ssgsea, synthgen, trainer
from pearl.autodiff import Tensor
from pearl.cli import main as cli_main
from pearl.data_io import (
    NORMALIZED_LOG,
    ExpressionMatrix,
    GeneSet,
    GeneSetCollection,
    SpotGeometry,
)
from pearl.encoders import ModelConfig, PearlModel
from pearl.metrics import ari, evaluate_expression, pcc
from pearl.preprocess import PreprocessConfig
from pearl.ssgsea import SsgseaConfig, enrichment_score, rank_genes
from pearl.survival import (
    SurvivalTrainConfig,
    c_index,
    cox_loss,
    predict_risks,
    train_cox,
)
from pearl.trainer import SpotDataset, TrainConfig, contrastive_loss

import scipy.sparse as sp

from test_metrics import brute_force_ari, brute_force_pcc
from test_ssgsea import brute_force_nes
from test_survival import brute_force_cox


import conftest


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion} {status}: {detail}"
    conftest.acceptance_lines.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, f"criterion {criterion}: {detail}"


class TestAcceptance:
    def test_1_kernel_gradient_suite(self):
        t0 = time.time()
        results = gradsuite.run_all(seed=0)
        elapsed = time.time() - t0
        worst = max(err for _, err in results)
        ok = worst < 1e-4 and elapsed < 60
        report(
            1,
            ok,
            f"{len(results)} gradient checks, worst rel err {worst:.2e} "
            f"(< 1e-4), {elapsed:.1f}s (< 60s)",
        )

    def test_2_ssgsea_oracle_equivalence(self):
        t0 = time.time()
        order, weights = rank_genes([4.0, 3.0, 2.0, 1.0])
        es = enrichment_score(order, weights, [True, False, True, False], alpha=1.0)
        hand_ok = es == 4.0 / 3.0

        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            n_genes = int(rng.integers(5, 21))
            n_spots = int(rng.integers(1, 3))
            n_sets = int(rng.integers(1, 6))
            genes = [f"g{j:02d}" for j in range(n_genes)]
            dense = rng.normal(size=(n_spots, n_genes)) ** 2
            sets = []
            for k in range(n_sets):
                size = int(rng.integers(1, n_genes))
                sets.append((f"P{k}", set(rng.choice(genes, size=size, replace=False))))
            # alpha = 0 is excluded: symmetric hit layouts make ES analytically
            # zero, and the epsilon-guarded NES quotient of two near-zero
            # roundoff residues is not comparable at 1e-12
            cfg = SsgseaConfig(
                weight_exponent=float(rng.choice([0.75, 1.0])),
                null_sets=int(rng.integers(1, 5)),
                rng_seed=int(rng.integers(0, 1000)),
            )
            m = ExpressionMatrix(
                [f"s{i}" for i in range(n_spots)], genes, sp.csr_matrix(dense), NORMALIZED_LOG
            )
            sm, _ = ssgsea.score_matrix(
                m, GeneSetCollection([GeneSet(n, "", frozenset(g)) for n, g in sets]), cfg
            )
            for si in range(n_spots):
                oracle = brute_force_nes(dense[si], genes, sets, cfg)
                for pi, name in enumerate(sm.pathway_names):
                    worst = max(worst, abs(sm.scores[si, pi] - oracle[name]))
        elapsed = time.time() - t0
        ok = hand_ok and worst <= 1e-12 and elapsed < 10
        report(
            2,
            ok,
            f"hand case ES = 4/3 {'exact' if hand_ok else 'WRONG'}, 50 instances "
            f"max |diff| {worst:.1e} (<= 1e-12), {elapsed:.1f}s (< 10s)",
        )

    def test_3_ssgsea_invariances(self):
        cfg = SsgseaConfig(null_sets=4, rng_seed=7)
        rng = np.random.default_rng(0)
        genes = [f"g{j:02d}" for j in range(15)]
        dense = rng.normal(size=(5, 15)) ** 2
        sets = GeneSetCollection(
            [
                GeneSet("A", "", frozenset({"g00", "g03", "g07"})),
                GeneSet("B", "", frozenset({"g01", "g02"})),
            ]
        )

        def mk(d, g):
            return ExpressionMatrix(
                [f"s{i}" for i in range(d.shape[0])], g, sp.csr_matrix(d), NORMALIZED_LOG
            )

        perm = rng.permutation(15)
        s1, _ = ssgsea.score_matrix(mk(dense, genes), sets, cfg)
        s2, _ = ssgsea.score_matrix(
            mk(dense[:, perm], [genes[j] for j in perm]), sets, cfg
        )
        perm_ok = np.array_equal(s1.scores, s2.scores)

        st1, _ = ssgsea.score_matrix(mk(dense, genes), sets, cfg, threads=1)
        st8, _ = ssgsea.score_matrix(mk(dense, genes), sets, cfg, threads=8)
        thread_ok = np.array_equal(st1.scores, st8.scores)

        # monotonicity is checked at alpha = 0, where it is provable: boosting
        # every member shifts hits earlier, so each prefix sum weakly grows.
        # For alpha > 0 the renormalized hit weights admit counterexamples.
        member = np.array([g in {"g02", "g05", "g08"} for g in genes])
        violations = 0
        for _ in range(100):
            vals = rng.normal(size=15) ** 2 + rng.uniform(0, 1, size=15)
            o1, w1 = rank_genes(vals)
            before = enrichment_score(o1, w1, member, 0.0)
            boosted = vals.copy()
            boosted[member] += rng.uniform(0.1, 2.0)
            o2, w2 = rank_genes(boosted)
            after = enrichment_score(o2, w2, member, 0.0)
            if after < before - 1e-12:
                violations += 1
        ok = perm_ok and thread_ok and violations == 0
        report(
            3,
            ok,
            f"gene permutation exact={perm_ok}, threads 1 vs 8 bit-exact={thread_ok}, "
            f"monotone violations {violations}/100",
        )

    def test_4_contrastive_sanity(self):
        worst = 0.0
        for n in (2, 4, 16):
            v = np.random.default_rng(n).normal(size=8)
            h = np.tile(v, (n, 1))
            loss = contrastive_loss(Tensor(h), Tensor(h.copy()), 1.0).values
            worst = max(worst, abs(loss - math.log(n)))
        uniform_ok = worst <= 1e-6

        rng = np.random.default_rng(0)
        n, p = 512, 20
        ds = SpotDataset(
            spot_ids=[f"s{i}" for i in range(n)],
            slide_ids=["sl0"] * (n // 2) + ["sl1"] * (n // 2),
            scores=rng.normal(size=(n, p)),
            coords=rng.uniform(0, 1000, size=(n, 2)),
            features=rng.normal(size=(n, 32)),
            y_gene=rng.normal(size=(n, 5)),
        )
        cfg = TrainConfig(batch_size=256, max_epochs=2, patience=1, lr=1e-4, seed=0)
        model = PearlModel(ModelConfig(n_pathways=p, n_genes=5, d_img=32, seed=0))
        _, history, _ = trainer.train_stage1(ds, model, cfg)
        first = history["train_loss"][0]
        target = math.log(256)
        init_ok = abs(first - target) <= 0.1 * target
        ok = uniform_ok and init_ok
        report(
            4,
            ok,
            f"uniform-softmax max |loss - ln N| {worst:.1e} (<= 1e-6); first-epoch "
            f"mean loss {first:.3f} vs ln 256 = {target:.3f} (within 10%)",
        )

    def test_5_synthetic_end_to_end_recovery(self):
        t0 = time.time()

        def run(coupling, seed=0):
            expr, geoms, sets, patch, _ = synthgen.gen_st_dataset(
                seed=seed,
                n_spots=2000,
                n_genes=200,
                n_pathways=20,
                noise_sigma=0.02,
                coupling=coupling,
                n_slides=2,
                d_img=64,
                activity_strength=2.0,
                activity_noise=0.1,
            )
            pcfg = PreprocessConfig(min_spots_per_gene=50, top_hvg=100)
            normed, hvg = preprocess.run_pipeline(expr, geoms, pcfg)
            sm, _ = ssgsea.score_matrix(
                normed, sets, SsgseaConfig(null_sets=50, rng_seed=seed), threads=4
            )
            ds = SpotDataset.from_tables(sm, geoms, patch, hvg)
            train_ds = ds.subset([i for i, s in enumerate(ds.slide_ids) if s == "slide0"])
            test_ds = ds.subset([i for i, s in enumerate(ds.slide_ids) if s == "slide1"])
            tcfg = TrainConfig(
                batch_size=256, max_epochs=100, patience=15, lr=1e-4,
                weight_decay=1e-3, seed=seed,
            )
            model = PearlModel(
                ModelConfig(n_pathways=20, n_genes=ds.y_gene.shape[1], d_img=64, seed=seed)
            )
            model, _, normalizer = trainer.train_stage1(train_ds, model, tcfg)
            model, _ = trainer.train_stage2(train_ds, model, tcfg)
            h = trainer.embed_images(model, test_ds.features, 256)
            yp, yg = model.predict_heads(h)
            path_pcc = evaluate_expression(yp.values, test_ds.scores).mean_pcc
            gene_pcc = evaluate_expression(yg.values, test_ds.y_gene).mean_pcc
            top1 = trainer.retrieval_top1(model, test_ds, normalizer, 256, seed=seed)
            return path_pcc, gene_pcc, top1

        path_pcc, gene_pcc, top1 = run(coupling=0.95)
        null_path, null_gene, _ = run(coupling=0.0)
        elapsed = time.time() - t0
        ok = (
            path_pcc >= 0.8
            and gene_pcc >= 0.6
            and top1 >= 0.9
            and abs(null_path) <= 0.1
            and abs(null_gene) <= 0.1
            and elapsed < 900
        )
        report(
            5,
            ok,
            f"pathway PCC {path_pcc:.3f} (>= 0.8), gene PCC {gene_pcc:.3f} (>= 0.6), "
            f"retrieval top-1 {top1:.3f} (>= 0.9); no-signal |PCC| "
            f"{max(abs(null_path), abs(null_gene)):.3f} (<= 0.1); {elapsed:.0f}s (< 900s)",
        )

    def test_6_preprocessing_oracles(self):
        dense = np.ones((1000, 2))
        dense[0, 0] = 0
        m = ExpressionMatrix(
            [f"s{i}" for i in range(1000)], ["g0", "g1"],
            sp.csr_matrix(dense), "raw_counts",
        )
        filt_ok = preprocess.filter_genes(m, 1000).gene_ids == ["g1"]

        m2 = ExpressionMatrix(["s0"], ["g0", "g1", "g2"],
                              sp.csr_matrix(np.array([[1.0, 1.0, 2.0]])), "raw_counts")
        normed = preprocess.normalize_and_log(m2, 10000).dense()
        norm_ok = np.allclose(
            normed, [[math.log(2501), math.log(2501), math.log(5001)]], rtol=1e-12
        )

        geoms = [
            SpotGeometry("a", "sl", 0, 0, 0, 0),
            SpotGeometry("b", "sl", 10, 0, 0, 1),
        ]
        m3 = ExpressionMatrix(["a", "b"], ["g"],
                              sp.csr_matrix(np.array([[0.0], [2.0]])), NORMALIZED_LOG)
        smooth_ok = np.array_equal(
            preprocess.smooth_8neighbor(m3, geoms).dense(), [[1.0], [1.0]]
        )

        m4 = ExpressionMatrix(
            ["s0", "s1"], ["zz", "aa"],
            sp.csr_matrix(np.array([[0.0, 0.0], [2.0, 2.0]])), NORMALIZED_LOG,
        )
        hvg_ok = preprocess.select_hvg(m4, 1).gene_ids == ["aa"]

        rng = np.random.default_rng(1)
        convex_ok = True
        for _ in range(100):
            rows, cols = rng.integers(1, 6, size=2)
            n = int(rows * cols)
            d = rng.normal(size=(n, 2))
            mm = ExpressionMatrix(
                [f"s{i}" for i in range(n)], ["g0", "g1"], sp.csr_matrix(d), NORMALIZED_LOG
            )
            gg = [
                SpotGeometry(f"s{r * cols + c}", "sl", 10.0 * c, 10.0 * r, int(r), int(c))
                for r in range(rows)
                for c in range(cols)
            ]
            out = preprocess.smooth_8neighbor(mm, gg).dense()
            for j in range(2):
                if out[:, j].min() < d[:, j].min() - 1e-12 or out[:, j].max() > d[:, j].max() + 1e-12:
                    convex_ok = False
        ok = filt_ok and norm_ok and smooth_ok and hvg_ok and convex_ok
        report(
            6,
            ok,
            f"filter={filt_ok}, normalize={norm_ok}, smooth={smooth_ok}, "
            f"hvg tie={hvg_ok}, convexity on 100 grids={convex_ok}",
        )

    def test_7_survival(self):
        t0 = time.time()
        ln2 = cox_loss(Tensor(np.zeros((2, 1))), [1.0, 2.0], [True, False]).values
        ln2_ok = abs(ln2 - math.log(2.0)) <= 1e-10

        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(4, 9))
            r = rng.normal(size=n)
            times = rng.choice([1.0, 2.0, 3.0], size=n)
            events = rng.random(size=n) < 0.7
            if not events.any():
                events[0] = True
            got = cox_loss(Tensor(r.reshape(-1, 1)), times, events).values
            worst = max(worst, abs(got - brute_force_cox(list(r), list(times), list(events))))
        breslow_ok = worst <= 1e-10

        table, embeddings, _ = synthgen.gen_survival_cohort(
            seed=0, n_subjects=200, embed_dim=16, risk_strength=5.0
        )
        times = np.array([r.time for r in table.rows])
        events = np.array([r.event for r in table.rows])
        # one 16-spot slide per subject, stacked in subject order
        E = np.concatenate([embeddings[r.slide_ids[0]] for r in table.rows])
        sizes = [len(embeddings[r.slide_ids[0]]) for r in table.rows]
        cut = sum(sizes[:100])
        cfg = SurvivalTrainConfig(
            max_epochs=200, patience=40, lr=1e-2, weight_decay=1e-2, seed=0
        )
        head, _ = train_cox(E[:cut], sizes[:100], times[:100], events[:100], cfg)
        ci = c_index(predict_risks(head, E[cut:], sizes[100:]), times[100:], events[100:])
        elapsed = time.time() - t0
        ok = ln2_ok and breslow_ok and ci >= 0.85 and elapsed < 120
        report(
            7,
            ok,
            f"two-subject loss |diff from ln 2| {abs(ln2 - math.log(2)):.1e} (<= 1e-10), "
            f"Breslow oracle max |diff| {worst:.1e} (<= 1e-10), held-out C-index "
            f"{ci:.3f} (>= 0.85), {elapsed:.0f}s (< 120s)",
        )

    def test_8_metrics_oracles(self):
        rng = np.random.default_rng(8)
        worst_pcc = worst_mse = worst_mae = worst_ari = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 25))
            x, y = rng.normal(size=n), rng.normal(size=n)
            worst_pcc = max(worst_pcc, abs(pcc(x, y) - brute_force_pcc(list(x), list(y))))
            pred = rng.normal(size=(n, 2))
            truth = rng.normal(size=(n, 2))
            rep = evaluate_expression(pred, truth, ["a", "b"])
            mse_bf = sum(
                (pred[i, j] - truth[i, j]) ** 2 for i in range(n) for j in range(2)
            ) / (2 * n)
            mae_bf = sum(
                abs(pred[i, j] - truth[i, j]) for i in range(n) for j in range(2)
            ) / (2 * n)
            worst_mse = max(worst_mse, abs(rep.mse - mse_bf))
            worst_mae = max(worst_mae, abs(rep.mae - mae_bf))
            a = rng.integers(0, 4, size=n).tolist()
            b = rng.integers(0, 4, size=n).tolist()
            worst_ari = max(worst_ari, abs(ari(a, b) - brute_force_ari(a, b)))

        worst_affine = 0.0
        for _ in range(50):
            x, y = rng.normal(size=12), rng.normal(size=12)
            base = pcc(x, y)
            worst_affine = max(worst_affine, abs(pcc(5.0 * x - 3.0, y) - base))
        oracle_worst = max(worst_pcc, worst_mse, worst_mae, worst_ari)
        ok = oracle_worst <= 1e-10 and worst_affine <= 1e-12
        report(
            8,
            ok,
            f"100-instance oracle max |diff| {oracle_worst:.1e} (<= 1e-10), "
            f"affine invariance max |diff| {worst_affine:.1e} (<= 1e-12)",
        )

    def test_9_run_cv_reproducibility(self, tmp_path):
        cfg = {
            "synth": {
                "n_spots": 48, "n_genes": 30, "n_pathways": 3,
                "n_slides": 2, "d_img": 6,
            },
            "preprocess": {"min_spots_per_gene": 2, "top_hvg": 10},
            "ssgsea": {"null_sets": 3},
            "train": {"batch_size": 8, "max_epochs": 2, "patience": 1},
            "model": {
                "n_heads": 1, "d_k": 2, "phi_hidden": 4,
                "proj_hidden": 8, "head_hidden": 8, "embed_dim": 8,
            },
        }
        data = tmp_path / "data"
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(
            ["synth", "--config", str(cfg_path), "--seed", "3", "--out-dir", str(data)]
        ) == 0
        for run_dir in ("run_a", "run_b"):
            assert cli_main(
                [
                    "run-cv",
                    "--config", str(cfg_path),
                    "--seed", "3",
                    "--threads", "2",
                    "--folds", "2",
                    "--out-dir", str(tmp_path / run_dir),
                    "--expression", str(data / "expression.tsv"),
                    "--coords", str(data / "coords.csv"),
                    "--gene-sets", str(data / "gene_sets.gmt"),
                    "--features", str(data / "features.tsv"),
                ]
            ) == 0
        agg_a = (tmp_path / "run_a" / "aggregate.json").read_bytes()
        agg_b = (tmp_path / "run_b" / "aggregate.json").read_bytes()
        folds_same = all(
            (tmp_path / "run_a" / f"fold_{k}.json").read_bytes()
            == (tmp_path / "run_b" / f"fold_{k}.json").read_bytes()
            for k in range(2)
        )
        ok = agg_a == agg_b and folds_same
        report(
            9,
            ok,
            f"aggregate bit-identical={agg_a == agg_b}, folds bit-identical={folds_same}",
        )
