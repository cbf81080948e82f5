import numpy as np
import pytest
import scipy.sparse as sp

from pearl import data_io
from pearl.data_io import (
    NORMALIZED_LOG,
    RAW_COUNTS,
    ExpressionMatrix,
    GeneSet,
    GeneSetCollection,
    parse_gmt,
)
from pearl.encoders import ModelConfig, PearlModel, load_model, save_model
from pearl.errors import (
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    DataFormatError,
)


class TestGmt:
    def test_basic_line(self):
        c = parse_gmt(b"PATH_A\tdesc\tTP53\tBRCA1\n")
        assert len(c) == 1
        assert c.sets[0].genes == frozenset({"TP53", "BRCA1"})
        assert c.dedup_warnings == 0

    def test_dedup_with_warning(self):
        c = parse_gmt("PATH_A\tdesc\tTP53\tTP53\n")
        assert c.sets[0].genes == frozenset({"TP53"})
        assert c.dedup_warnings == 1

    def test_too_few_fields(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_gmt("PATH_A\tdesc\n")

    def test_duplicate_name(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            parse_gmt("A\td\tG1\nA\td\tG2\n")

    def test_order_preserved_over_sets(self):
        c = parse_gmt("B\td\tG1\nA\td\tG2\n")
        assert c.names() == ["B", "A"]

    def test_roundtrip_fixed_point(self, tmp_path):
        c = parse_gmt("B\tdesc b\tG3\tG1\nA\tdesc a\tG2\n")
        p = tmp_path / "sets.gmt"
        data_io.write_gmt(c, p)
        c2 = data_io.read_gmt(p)
        assert c2.names() == c.names()
        assert [s.genes for s in c2.sets] == [s.genes for s in c.sets]
        data_io.write_gmt(c2, tmp_path / "again.gmt")
        assert (tmp_path / "again.gmt").read_bytes() == p.read_bytes()


class TestExpressionParsing:
    def test_dense_sparsity(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("spot\tg1\tg2\ns1\t0\t3\ns2\t1\t0\n")
        m = data_io.parse_expression(p, "dense_tsv")
        assert np.count_nonzero(m.dense()) == 2
        assert m.value_kind == RAW_COUNTS
        assert m.spot_ids == ["s1", "s2"]

    def test_triplet_negative_value(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("spot\tgene\tvalue\ns1\tg1\t-2\n")
        with pytest.raises(DataFormatError, match="negative"):
            data_io.parse_expression(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("")
        m = data_io.parse_expression(p)
        assert m.n_spots == 0

    def test_duplicate_pair(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("spot\tgene\tvalue\ns1\tg1\t2\ns1\tg1\t3\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            data_io.parse_expression(p)

    @pytest.mark.parametrize("fmt", ["dense_tsv", "sparse_triplet_tsv"])
    def test_roundtrip_fixed_point(self, tmp_path, fmt):
        rng = np.random.default_rng(0)
        dense = rng.poisson(1.0, size=(4, 6)).astype(float)
        m = ExpressionMatrix(
            [f"s{i}" for i in range(4)],
            [f"g{j}" for j in range(6)],
            sp.csr_matrix(dense),
            RAW_COUNTS,
        )
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        data_io.write_expression(m, p1, fmt)
        m2 = data_io.parse_expression(p1, fmt)
        # triplet parsing orders ids by first appearance; align before comparing
        col = [m2.gene_ids.index(g) for g in m.gene_ids]
        row = [m2.spot_ids.index(s) for s in m.spot_ids]
        np.testing.assert_array_equal(m2.dense()[np.ix_(row, col)], dense)
        data_io.write_expression(m2, p2, fmt)
        assert p1.read_bytes() == p2.read_bytes()


    @pytest.mark.parametrize("fmt", ["dense_tsv", "sparse_triplet_tsv"])
    def test_array_and_csr_write_the_same_bytes(self, tmp_path, fmt):
        rng = np.random.default_rng(1)
        dense = rng.gamma(1.0, size=(5, 7)) * (rng.uniform(size=(5, 7)) < 0.5)
        genes = ["b", "a", "e", "c", "g", "d", "f"]  # written in gene-id order
        paths = []
        for k, matrix in enumerate((dense, sp.csr_matrix(dense))):
            paths.append(tmp_path / f"{k}.tsv")
            m = ExpressionMatrix([f"s{i}" for i in range(5)], genes, matrix, NORMALIZED_LOG)
            data_io.write_expression(m, paths[-1], fmt)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_parsed_matrix_is_an_uncopied_array(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("spot\tgene\tvalue\ns1\tg1\t2\ns2\tg2\t0.5\n")
        m = data_io.parse_expression(p)
        assert isinstance(m.matrix, np.ndarray) and m.matrix.dtype == np.float64
        assert m.dense() is m.matrix
        np.testing.assert_array_equal(m.dense(), [[2.0, 0.0], [0.0, 0.5]])


class TestCoordsSurvivalFeatures:
    def test_coords_roundtrip(self, tmp_path):
        geoms = [
            data_io.SpotGeometry("s1", "sl1", 1.5, 2.0, 0, 0),
            data_io.SpotGeometry("s2", "sl1", 3.0, 2.0, 0, 1),
        ]
        p = tmp_path / "c.csv"
        data_io.write_coords(geoms, p)
        assert data_io.read_coords(p) == geoms

    def test_duplicate_grid_position(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(
            data_io.COORDS_HEADER + "\ns1,sl,0,0,1,1\ns2,sl,5,5,1,1\n"
        )
        with pytest.raises(DataFormatError, match="duplicate"):
            data_io.read_coords(p)

    def test_duplicate_spot_id(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(data_io.COORDS_HEADER + "\ns1,sl,0,0,0,0\n\ns1,sl,0,1,0,1\n")
        with pytest.raises(DataFormatError, match="duplicate spot_id 's1'") as info:
            data_io.read_coords(p)
        assert info.value.line == 4

    def test_survival_roundtrip(self, tmp_path):
        t = data_io.SurvivalTable(
            [
                data_io.SurvivalRecord("a", 1.5, True, ("sl1", "sl2")),
                data_io.SurvivalRecord("b", 2.0, False, ("sl3",)),
            ]
        )
        p = tmp_path / "surv.csv"
        data_io.write_survival(t, p)
        assert data_io.read_survival(p) == t

    def test_nonpositive_time_rejected(self):
        with pytest.raises(DataFormatError):
            data_io.SurvivalTable([data_io.SurvivalRecord("a", 0.0, True, ())])

    def test_features_roundtrip(self, tmp_path):
        fm = data_io.PatchFeatureMatrix(["s1", "s2"], np.array([[0.25, -1.5], [2.0, 3.5]]))
        p = tmp_path / "f.tsv"
        data_io.write_features(fm, p)
        fm2 = data_io.read_features(p)
        assert fm2.spot_ids == fm.spot_ids
        np.testing.assert_array_equal(fm2.features, fm.features)

    def test_scores_roundtrip(self, tmp_path):
        sm = data_io.PathwayScoreMatrix(["s1"], ["pwA", "pwB"], np.array([[0.1, -0.2]]))
        p = tmp_path / "sc.tsv"
        data_io.write_scores(sm, p)
        sm2 = data_io.read_scores(p)
        assert sm2.pathway_names == sm.pathway_names
        np.testing.assert_array_equal(sm2.scores, sm.scores)

    def test_scores_bad_cell_names_line(self, tmp_path):
        p = tmp_path / "sc.tsv"
        p.write_text("spot\tA\ns1\tabc\n")
        with pytest.raises(DataFormatError, match="line 2") as info:
            data_io.read_scores(p)
        assert info.value.line == 2


class TestTextTables:
    @pytest.mark.parametrize(
        "reader, header, ids",
        [
            (data_io.read_features, "spot_id\tf0\tf1", "s{}"),
            (data_io.read_scores, "spot\tA\tB", "s{}"),
            (data_io.read_embeddings, "spot_id\tslide_id\te0\te1", "s{}\tsl"),
        ],
        ids=["features", "scores", "embeddings"],
    )
    @pytest.mark.parametrize(
        "body, line, message",
        [
            (None, 1, "empty file"),
            ([], 1, "no rows"),
            ([(0, "0.5\tnan")], 2, "non-finite"),
            ([(0, "0.5\t1"), (0, "2\t3")], 3, "duplicate"),
            ([(0, "0.5\t1"), "", "", (1, "abc\t1")], 5, "could not convert"),
        ],
        ids=["empty", "header_only", "nan", "duplicate_id", "blank_lines"],
    )
    def test_float_table_errors_name_line(
        self, tmp_path, reader, header, ids, body, line, message
    ):
        p = tmp_path / "t.tsv"
        if body is None:
            p.write_text("")
        else:
            rows = [r if r == "" else ids.format(r[0]) + "\t" + r[1] for r in body]
            p.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DataFormatError, match=message) as info:
            reader(p)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "reader, text",
        [
            (data_io.read_coords, data_io.COORDS_HEADER + "\ns1,sl,0,0,0,0\n\n\ns2,sl,x,0,0,1\n"),
            (data_io.read_survival, data_io.SURVIVAL_HEADER + "\na,1.5,1,sl1\n\n\nb,abc,0,sl2\n"),
            (data_io.parse_expression, "spot\tgene\tvalue\ns1\tg1\t1\n\n\ns1\tg2\tabc\n"),
            (
                lambda p: data_io.parse_expression(p, "dense_tsv"),
                "spot\tg1\ns1\t1\n\n\ns2\tabc\n",
            ),
        ],
        ids=["coords", "survival", "triplets", "dense"],
    )
    def test_blank_lines_keep_physical_line_numbers(self, tmp_path, reader, text):
        p = tmp_path / "t.txt"
        p.write_text(text)
        with pytest.raises(DataFormatError, match="line 5:") as info:
            reader(p)
        assert info.value.line == 5

    @pytest.mark.parametrize(
        "reader, text",
        [
            (data_io.read_gmt, "only_a_name\n"),
            (data_io.parse_expression, "spot\tgene\tvalue\ns1\tg1\t-1\n"),
            (data_io.read_coords, "spot_id,x\n"),
            (data_io.read_survival, data_io.SURVIVAL_HEADER + "\na,1.5,maybe,sl1\n"),
            (data_io.read_features, "spot_id\tf0\ns1\tabc\n"),
            (data_io.read_scores, ""),
            (data_io.read_embeddings, "spot_id\tslide_id\te0\ns1\tsl\tinf\n"),
        ],
        ids=["gmt", "expression", "coords", "survival", "features", "scores", "embeddings"],
    )
    def test_errors_name_the_file(self, tmp_path, reader, text):
        p = tmp_path / "input.txt"
        p.write_text(text)
        with pytest.raises(DataFormatError) as info:
            reader(p)
        assert info.value.path == p
        assert str(info.value).startswith(f"{p}: line {info.value.line}: ")

    def test_float_cells_parse_as_float(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(20, 8)) * 10.0 ** rng.integers(-300, 300, size=(20, 8))
        cells = [
            [repr(v) if j % 2 else f"{v:.7g}" for j, v in enumerate(row)]
            for row in values.tolist()
        ]
        p = tmp_path / "sc.tsv"
        p.write_text(
            "spot\t" + "\t".join(f"p{j}" for j in range(8)) + "\n"
            + "".join(f"s{i}\t" + "\t".join(row) + "\n" for i, row in enumerate(cells))
        )
        expected = np.array([[float(c) for c in row] for row in cells])
        assert data_io.read_scores(p).scores.tobytes() == expected.tobytes()

    def test_embeddings_roundtrip(self, tmp_path):
        values = np.array([[0.1, -2.5], [3.0, 1e-300], [7.25, 0.0]])
        p = tmp_path / "e.tsv"
        data_io.write_embeddings(["a_s0", "a_s1", "b_s0"], ["a", "a", "b"], values, p)
        spot_ids, slide_ids, values2 = data_io.read_embeddings(p)
        assert spot_ids == ["a_s0", "a_s1", "b_s0"]
        assert slide_ids == ["a", "a", "b"]
        np.testing.assert_array_equal(values2, values)


class TestCheckpoint:
    def _model(self):
        return PearlModel(
            ModelConfig(n_pathways=4, n_genes=3, d_img=5, n_heads=2, d_k=2, seed=7)
        )

    def test_roundtrip_bit_exact(self, tmp_path):
        m = self._model()
        path = str(tmp_path / "ckpt")
        save_model(m, path)
        m2, _, _ = load_model(path)
        for (n1, p1), (n2, p2) in zip(m.parameters(), m2.parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.values, p2.values)
        # blob is byte-identical on re-save
        save_model(m2, str(tmp_path / "ckpt2"))
        assert (tmp_path / "ckpt.params.bin").read_bytes() == (
            tmp_path / "ckpt2.params.bin"
        ).read_bytes()

    def test_truncated_blob(self, tmp_path):
        m = self._model()
        path = str(tmp_path / "ckpt")
        save_model(m, path)
        blob = (tmp_path / "ckpt.params.bin").read_bytes()
        (tmp_path / "ckpt.params.bin").write_bytes(blob[:-4])
        with pytest.raises(CheckpointTruncatedError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        import json

        m = self._model()
        path = str(tmp_path / "ckpt")
        save_model(m, path)
        manifest = json.loads((tmp_path / "ckpt.manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "ckpt.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointVersionError):
            load_model(path)

    def test_hyperparam_shape_mismatch(self, tmp_path):
        # manifest rewritten to claim a larger d_k than the blob provides
        import json

        m = self._model()
        path = str(tmp_path / "ckpt")
        save_model(m, path)
        manifest = json.loads((tmp_path / "ckpt.manifest.json").read_text())
        manifest["hyperparams"]["d_k"] = 64
        (tmp_path / "ckpt.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointShapeError):
            load_model(path)

    @pytest.mark.parametrize("tamper", ["unknown", "missing"])
    def test_bad_hyperparam_key_named(self, tmp_path, tamper):
        import json

        path = str(tmp_path / "ckpt")
        save_model(self._model(), path)
        manifest = json.loads((tmp_path / "ckpt.manifest.json").read_text())
        if tamper == "unknown":
            manifest["hyperparams"]["foo"] = 1
        else:
            del manifest["hyperparams"]["n_heads"]
        (tmp_path / "ckpt.manifest.json").write_text(json.dumps(manifest))
        key = "foo" if tamper == "unknown" else "n_heads"
        with pytest.raises(CheckpointShapeError, match=f"{tamper} hyperparameter '{key}'"):
            load_model(path)


class TestInvariants:
    def test_duplicate_spot_ids_rejected(self):
        with pytest.raises(DataFormatError):
            ExpressionMatrix(["s", "s"], ["g"], sp.csr_matrix((2, 1)), RAW_COUNTS)

    def test_negative_raw_counts_rejected(self):
        with pytest.raises(DataFormatError):
            ExpressionMatrix(["s"], ["g"], sp.csr_matrix(np.array([[-1.0]])), RAW_COUNTS)

    def test_array_invariants(self):
        with pytest.raises(DataFormatError, match="negative"):
            ExpressionMatrix(["s"], ["g"], np.array([[-1.0]]), RAW_COUNTS)
        with pytest.raises(DataFormatError, match="shape"):
            ExpressionMatrix(["s"], ["g"], np.zeros((1, 2)), RAW_COUNTS)
        # normalized values are not held to the raw-count sign rule
        ExpressionMatrix(["s"], ["g"], np.array([[-1.0]]), NORMALIZED_LOG)
        # an integer array reads back as float64
        m = ExpressionMatrix(["s"], ["g"], np.array([[3]]), RAW_COUNTS)
        assert m.dense().dtype == np.float64

    def test_empty_gene_set_rejected(self):
        with pytest.raises(DataFormatError):
            GeneSetCollection([GeneSet("A", "d", frozenset())])
