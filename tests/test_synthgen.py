import numpy as np
import pytest

from pearl.errors import PearlError
from pearl.metrics import pcc
from pearl.survival import c_index
from pearl.synthgen import gen_st_dataset, gen_survival_cohort


class TestStDataset:
    def test_shapes_and_ids(self):
        expr, geoms, sets, patch, act = gen_st_dataset(
            seed=0, n_spots=50, n_genes=40, n_pathways=4, d_img=8
        )
        assert expr.matrix.shape == (50, 40)
        assert len(geoms) == 50
        assert len(sets) == 4
        assert patch.features.shape == (50, 8)
        assert act.shape == (50, 4)
        assert expr.spot_ids == [g.spot_id for g in geoms]
        assert patch.spot_ids == expr.spot_ids

    def test_counts_toarray_is_dense(self):
        # perfbench/workloads.py's train-infer generator reads the counts
        # through `expr.matrix.toarray()`
        expr = gen_st_dataset(seed=0, n_spots=20, n_genes=12, n_pathways=2, d_img=4)[0]
        counts = expr.matrix.toarray()
        assert type(counts) is np.ndarray and counts.dtype == np.float64
        assert counts.tobytes() == expr.dense().tobytes()

    def test_determinism(self):
        a = gen_st_dataset(seed=3, n_spots=30, n_genes=20, n_pathways=2, d_img=4)
        b = gen_st_dataset(seed=3, n_spots=30, n_genes=20, n_pathways=2, d_img=4)
        np.testing.assert_array_equal(a[0].dense(), b[0].dense())
        np.testing.assert_array_equal(a[3].features, b[3].features)
        np.testing.assert_array_equal(a[4], b[4])

    def test_seed_sensitivity(self):
        a = gen_st_dataset(seed=1, n_spots=30, n_genes=20, n_pathways=2, d_img=4)
        b = gen_st_dataset(seed=2, n_spots=30, n_genes=20, n_pathways=2, d_img=4)
        assert not np.array_equal(a[0].dense(), b[0].dense())

    def test_activities_standardized(self):
        _, _, _, _, act = gen_st_dataset(
            seed=4, n_spots=200, n_genes=40, n_pathways=5, d_img=4
        )
        np.testing.assert_allclose(act.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(act.std(axis=0), 1.0, atol=1e-10)

    def test_pathway_blocks_disjoint(self):
        _, _, sets, _, _ = gen_st_dataset(
            seed=5, n_spots=20, n_genes=30, n_pathways=3, d_img=4
        )
        seen = set()
        for s in sets.sets:
            assert not (s.genes & seen)
            seen |= s.genes

    def test_full_coupling_zero_noise_exact_linear(self):
        # features must be an exact linear image of the activities
        _, _, _, patch, act = gen_st_dataset(
            seed=6, n_spots=40, n_genes=30, n_pathways=3, d_img=6,
            noise_sigma=0.0, coupling=1.0,
        )
        w, *_ = np.linalg.lstsq(act, patch.features, rcond=None)
        np.testing.assert_allclose(act @ w, patch.features, atol=1e-8)

    def test_zero_coupling_decorrelated(self):
        _, _, _, patch, act = gen_st_dataset(
            seed=7, n_spots=400, n_genes=30, n_pathways=3, d_img=6, coupling=0.0
        )
        cors = [
            abs(pcc(act[:, k], patch.features[:, j]))
            for k in range(3)
            for j in range(6)
        ]
        assert max(cors) < 0.2

    def test_member_genes_track_activity(self):
        expr, _, sets, _, act = gen_st_dataset(
            seed=8, n_spots=300, n_genes=30, n_pathways=3, d_img=4,
            activity_strength=1.2,
        )
        dense = expr.dense()
        gene_index = {g: j for j, g in enumerate(expr.gene_ids)}
        for k, s in enumerate(sets.sets):
            cors = [
                pcc(np.log1p(dense[:, gene_index[g]]), act[:, k]) for g in s.genes
            ]
            assert np.nanmean(cors) > 0.5

    def test_slide_partition(self):
        _, geoms, _, _, _ = gen_st_dataset(
            seed=9, n_spots=25, n_genes=20, n_pathways=2, d_img=4, n_slides=3
        )
        counts = {}
        for g in geoms:
            counts[g.slide_id] = counts.get(g.slide_id, 0) + 1
        assert sum(counts.values()) == 25
        assert len(counts) == 3
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_bad_coupling_rejected(self):
        with pytest.raises(PearlError):
            gen_st_dataset(seed=0, n_spots=10, n_genes=10, n_pathways=1, coupling=1.5)

    def test_too_many_pathway_genes_rejected(self):
        with pytest.raises(PearlError):
            gen_st_dataset(
                seed=0, n_spots=10, n_genes=10, n_pathways=3, genes_per_pathway=5
            )


class TestSurvivalCohort:
    def test_determinism(self):
        t1, e1, r1 = gen_survival_cohort(seed=0, n_subjects=10, embed_dim=8)
        t2, e2, r2 = gen_survival_cohort(seed=0, n_subjects=10, embed_dim=8)
        assert t1 == t2
        np.testing.assert_array_equal(r1, r2)
        for k in e1:
            np.testing.assert_array_equal(e1[k], e2[k])

    def test_planted_risk_concordant_with_times(self):
        table, _, risks = gen_survival_cohort(
            seed=1, n_subjects=300, embed_dim=8, risk_strength=5.0, censor_rate=0.0
        )
        times = np.array([r.time for r in table.rows])
        events = np.array([r.event for r in table.rows])
        assert c_index(risks, times, events) > 0.9

    def test_censor_rate_zero(self):
        table, _, _ = gen_survival_cohort(seed=2, n_subjects=40, censor_rate=0.0)
        assert all(r.event for r in table.rows)

    def test_censor_fraction_rough(self):
        table, _, _ = gen_survival_cohort(seed=3, n_subjects=400, censor_rate=0.3)
        frac = np.mean([not r.event for r in table.rows])
        assert 0.2 < frac < 0.4

    def test_one_slide_per_subject(self):
        table, embeddings, _ = gen_survival_cohort(seed=4, n_subjects=5, embed_dim=8)
        for r in table.rows:
            assert len(r.slide_ids) == 1
            assert r.slide_ids[0] in embeddings

    def test_bad_censor_rate(self):
        with pytest.raises(PearlError):
            gen_survival_cohort(seed=0, n_subjects=5, censor_rate=1.5)
