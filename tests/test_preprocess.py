import numpy as np
import pytest
import scipy.sparse as sp

from pearl.data_io import NORMALIZED_LOG, RAW_COUNTS, ExpressionMatrix, SpotGeometry
from pearl.errors import DataFormatError, PearlError
from pearl.preprocess import (
    PreprocessConfig,
    filter_genes,
    normalize_and_log,
    run_pipeline,
    select_hvg,
    smooth_8neighbor,
)


def make_matrix(dense, kind=RAW_COUNTS, genes=None, spots=None, store=sp.csr_matrix):
    dense = np.asarray(dense, dtype=float)
    n, g = dense.shape
    return ExpressionMatrix(
        spots or [f"s{i}" for i in range(n)],
        genes or [f"g{j}" for j in range(g)],
        store(dense),
        kind,
    )


def grid_geoms(rows, cols, slide="sl"):
    return [
        SpotGeometry(f"s{r * cols + c}", slide, 10.0 * c, 10.0 * r, r, c)
        for r in range(rows)
        for c in range(cols)
    ]


class TestFilterGenes:
    def test_threshold_boundary(self):
        # gene present in 999 of 1000 spots is dropped at min_spots=1000
        dense = np.ones((1000, 2))
        dense[0, 0] = 0
        m = filter_genes(make_matrix(dense), 1000)
        assert m.gene_ids == ["g1"]

    def test_zero_threshold_identity(self):
        dense = np.array([[0.0, 1.0], [2.0, 0.0]])
        m = filter_genes(make_matrix(dense), 0)
        assert m.gene_ids == ["g0", "g1"]
        np.testing.assert_array_equal(m.dense(), dense)

    def test_hand_counted(self):
        # genes detected in {2, 5, 5} of 5 spots
        dense = np.zeros((5, 3))
        dense[:2, 0] = 1
        dense[:, 1] = 1
        dense[:, 2] = 3
        m = filter_genes(make_matrix(dense), 5)
        assert m.gene_ids == ["g1", "g2"]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        m = make_matrix(rng.poisson(0.5, size=(20, 10)))
        once = filter_genes(m, 3)
        twice = filter_genes(once, 3)
        assert once.gene_ids == twice.gene_ids
        np.testing.assert_array_equal(once.dense(), twice.dense())

    def test_requires_raw_counts(self):
        m = make_matrix([[1.0]], kind=NORMALIZED_LOG)
        with pytest.raises(PearlError):
            filter_genes(m, 1)


class TestNormalizeAndLog:
    def test_forced_arithmetic(self):
        m = normalize_and_log(make_matrix([[1.0, 1.0, 2.0]]), 10000)
        np.testing.assert_allclose(
            m.dense(), [[np.log(2501), np.log(2501), np.log(5001)]], rtol=1e-12
        )
        assert m.value_kind == NORMALIZED_LOG

    def test_zero_total_spot(self):
        m = normalize_and_log(make_matrix([[0.0, 0.0], [1.0, 1.0]]), 100)
        np.testing.assert_array_equal(m.dense()[0], 0.0)

    def test_single_gene(self):
        m = normalize_and_log(make_matrix([[7.0]]), 10000)
        np.testing.assert_allclose(m.dense(), [[np.log(10001)]], rtol=1e-12)

    def test_rejects_normalized_input(self):
        m = normalize_and_log(make_matrix([[1.0]]), 10)
        with pytest.raises(PearlError):
            normalize_and_log(m, 10)


class TestSmooth:
    def test_constant_field_fixpoint(self):
        m = make_matrix(np.full((9, 2), 3.5), kind=NORMALIZED_LOG)
        out = smooth_8neighbor(m, grid_geoms(3, 3))
        np.testing.assert_allclose(out.dense(), 3.5, rtol=1e-12)

    def test_isolated_spot_unchanged(self):
        geoms = [
            SpotGeometry("s0", "sl", 0, 0, 0, 0),
            SpotGeometry("s1", "sl", 0, 0, 10, 10),
        ]
        m = make_matrix([[1.0], [5.0]], kind=NORMALIZED_LOG)
        out = smooth_8neighbor(m, geoms)
        np.testing.assert_array_equal(out.dense(), [[1.0], [5.0]])

    def test_two_adjacent_spots(self):
        geoms = [
            SpotGeometry("s0", "sl", 0, 0, 0, 0),
            SpotGeometry("s1", "sl", 10, 0, 0, 1),
        ]
        m = make_matrix([[0.0], [2.0]], kind=NORMALIZED_LOG)
        out = smooth_8neighbor(m, geoms)
        np.testing.assert_allclose(out.dense(), [[1.0], [1.0]])

    def test_cross_slide_isolation(self):
        geoms = [
            SpotGeometry("s0", "slA", 0, 0, 0, 0),
            SpotGeometry("s1", "slB", 0, 0, 0, 1),
        ]
        m = make_matrix([[0.0], [2.0]], kind=NORMALIZED_LOG)
        out = smooth_8neighbor(m, geoms)
        np.testing.assert_array_equal(out.dense(), [[0.0], [2.0]])

    def test_duplicate_position_rejected(self):
        geoms = [
            SpotGeometry("s0", "sl", 0, 0, 0, 0),
            SpotGeometry("s1", "sl", 1, 1, 0, 0),
        ]
        m = make_matrix([[0.0], [2.0]], kind=NORMALIZED_LOG)
        with pytest.raises(DataFormatError):
            smooth_8neighbor(m, geoms)

    def test_convexity_random_grids(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            rows, cols = rng.integers(1, 6, size=2)
            n = rows * cols
            dense = rng.normal(size=(n, 3))
            m = make_matrix(dense, kind=NORMALIZED_LOG)
            out = smooth_8neighbor(m, grid_geoms(rows, cols)).dense()
            for j in range(3):
                assert out[:, j].min() >= dense[:, j].min() - 1e-12
                assert out[:, j].max() <= dense[:, j].max() + 1e-12


def grid_members(geoms):
    """Per spot, the indices of itself and the spots one grid step away."""
    return [
        [
            j for j, h in enumerate(geoms)
            if h.slide_id == g.slide_id
            and max(abs(h.array_row - g.array_row), abs(h.array_col - g.array_col)) <= 1
        ]
        for g in geoms
    ]


def random_holey_grids(rng):
    """Spots on two slides of random size, 30% of cells empty, in shuffled order."""
    geoms = [
        SpotGeometry(f"{slide}_{r}_{c}", slide, float(c), float(r), r - 2, c + 7)
        for slide in ("A", "B")
        for r in range(rng.integers(1, 7))
        for c in range(rng.integers(1, 7))
        if rng.uniform() < 0.7
    ]
    return [geoms[k] for k in rng.permutation(len(geoms))]


class TestSmoothOracle:
    def _cases(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            geoms = random_holey_grids(rng)
            if geoms:
                n = len(geoms)
                dense = rng.gamma(1.0, size=(n, 4)) * (rng.uniform(size=(n, 4)) < 0.6)
                m = make_matrix(dense, kind=NORMALIZED_LOG, spots=[g.spot_id for g in geoms])
                yield geoms, dense, smooth_8neighbor(m, geoms).dense()

    def test_brute_force_mean(self):
        for geoms, dense, out in self._cases(3):
            expected = np.array([
                [sum(dense[j, k] for j in members) / len(members) for k in range(4)]
                for members in grid_members(geoms)
            ])
            np.testing.assert_allclose(out, expected, rtol=1e-13, atol=0)

    def test_bitwise_equal_to_csr_averaging_product(self):
        # the sum order of a CSR product of the row-stochastic averaging matrix
        for geoms, dense, out in self._cases(4):
            rows, cols, vals = [], [], []
            for i, members in enumerate(grid_members(geoms)):
                rows += [i] * len(members)
                cols += members
                vals += [1.0 / len(members)] * len(members)
            A = sp.csr_matrix((vals, (rows, cols)), shape=(len(geoms),) * 2)
            assert out.tobytes() == (A @ sp.csr_matrix(dense)).toarray().tobytes()

    @pytest.mark.parametrize(
        "cells",
        [
            [(0, 1), (2**62, 1)],
            [(0, 0), (2**62, 1)],
            [(10**20, 0), (10**20, 1), (10**20 + 1, 3), (0, 0)],
        ],
        ids=["2**62_pair", "2**62_apart", "10**20_row"],
    )
    def test_rows_past_int64(self, cells):
        # grid keys are compared whole: no packed key to overflow or collide
        geoms = [SpotGeometry(f"s{i}", "sl", 0.0, 0.0, r, c) for i, (r, c) in enumerate(cells)]
        dense = np.arange(1.0, 1.0 + 2 * len(cells)).reshape(-1, 2) ** 2
        out = smooth_8neighbor(make_matrix(dense, kind=NORMALIZED_LOG), geoms).dense()
        expected = [dense[members].mean(axis=0) for members in grid_members(geoms)]
        np.testing.assert_allclose(out, expected, rtol=1e-15, atol=0)

    def test_same_position_on_two_slides(self):
        # equal (row, col) on two slides are separate spots, not duplicates
        geoms = [SpotGeometry("a", "A", 0, 0, 0, 0), SpotGeometry("b", "B", 0, 0, 0, 0)]
        m = make_matrix([[1.0], [3.0]], kind=NORMALIZED_LOG, spots=["a", "b"])
        np.testing.assert_array_equal(smooth_8neighbor(m, geoms).dense(), [[1.0], [3.0]])


class TestArrayInput:
    """ExpressionMatrix holds a dense array in the pipeline; a CSR input (the
    other tests) must give the same bytes."""

    def test_pipeline_matches_csr_input(self):
        counts = np.random.default_rng(4).poisson(2.0, size=(30, 12))
        cfg = PreprocessConfig(min_spots_per_gene=20, top_hvg=5)
        runs = [
            run_pipeline(make_matrix(counts, store=store), grid_geoms(5, 6), cfg)
            for store in (np.asarray, sp.csr_matrix)
        ]
        (normed_a, hvg_a), (normed_b, hvg_b) = runs
        assert isinstance(normed_a.matrix, np.ndarray)
        assert normed_a.dense().tobytes() == normed_b.dense().tobytes()
        assert hvg_a.dense().tobytes() == hvg_b.dense().tobytes()
        assert hvg_a.gene_ids == hvg_b.gene_ids

    def test_steps_keep_arrays(self):
        m = filter_genes(make_matrix([[0.0, 1.0, 3.0], [2.0, 0.0, 1.0]], store=np.asarray), 2)
        np.testing.assert_array_equal(m.dense(), [[3.0], [1.0]])
        m = normalize_and_log(m, 4.0)
        np.testing.assert_allclose(m.dense(), np.log1p([[4.0], [4.0]]), rtol=1e-15)
        m = smooth_8neighbor(m, grid_geoms(1, 2))
        sub = select_hvg(m, 1)
        assert sub.gene_ids == ["g2"] and isinstance(sub.matrix, np.ndarray)


class TestSelectHvg:
    def _mk(self):
        # variances: a > b > c == 0
        dense = np.array([[0.0, 1.0, 2.0], [4.0, 2.0, 2.0], [8.0, 3.0, 2.0]])
        return make_matrix(dense, kind=NORMALIZED_LOG, genes=["a", "b", "c"])

    def test_top2(self):
        assert select_hvg(self._mk(), 2).gene_ids == ["a", "b"]

    def test_full_selection_identity(self):
        sub = select_hvg(self._mk(), 3)
        assert set(sub.gene_ids) == {"a", "b", "c"}

    def test_tie_lexicographic(self):
        dense = np.array([[0.0, 0.0], [2.0, 2.0]])
        sub = select_hvg(make_matrix(dense, kind=NORMALIZED_LOG, genes=["zz", "aa"]), 1)
        assert sub.gene_ids == ["aa"]

    def test_variance_sequence_non_increasing(self):
        rng = np.random.default_rng(2)
        m = make_matrix(rng.normal(size=(10, 8)), kind=NORMALIZED_LOG)
        sub = select_hvg(m, 5)
        var = sub.dense().var(axis=0, ddof=1)
        assert np.all(np.diff(var) <= 1e-12)

    def test_too_many_requested(self):
        with pytest.raises(PearlError):
            select_hvg(self._mk(), 4)


class TestConfig:
    def test_defaults(self):
        c = PreprocessConfig()
        assert c.min_spots_per_gene == 1000
        assert c.target_sum == 10000.0
        assert c.top_hvg == 1000

    def test_invalid(self):
        with pytest.raises(PearlError):
            PreprocessConfig(top_hvg=0)
