import json
import re
from types import SimpleNamespace

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
    CheckpointManifestError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    DataFormatError,
)

from conftest import (MANIFEST_TAMPERS, peak_bound, significant_digits, tamper_manifest,
                      traced_peak)


def reference_triplets(m):
    """The text write_expression should write, one cell at a time: every
    nonzero cell; a 0 at the first gene by id for a spot with none, then a 0
    at the first spot for a gene still with none; by spot, then gene id;
    each value at float64's round-trip 17 significant digits."""
    dense = m.dense()
    kept = set(zip(*np.nonzero(dense)))
    for i in range(m.n_spots):
        if not dense[i].any():
            kept.add((i, m.gene_ids.index(min(m.gene_ids))))
    for j in range(m.n_genes):
        if not any((i, j) in kept for i in range(m.n_spots)):
            kept.add((0, j))
    cells = sorted(kept, key=lambda c: (c[0], m.gene_ids[c[1]]))
    return "spot\tgene\tvalue\n" + "".join(
        f"{m.spot_ids[i]}\t{m.gene_ids[j]}\t{dense[i, j]:.17g}\n" for i, j in cells
    )


def _writer_corpus():
    """Seeded matrices with gene ids out of id order (g12 sorts before g3),
    all-zero rows and columns, whole and fractional values, and the 1 x 1 and
    0 x 0 edges."""
    rng = np.random.default_rng(0)
    out = [ExpressionMatrix([], [], np.zeros((0, 0))),
           ExpressionMatrix(["s"], ["g"], np.zeros((1, 1))),
           ExpressionMatrix(["s"], ["g"], np.full((1, 1), 2.5))]
    for _ in range(24):
        rows, cols = rng.integers(1, 13, size=2)
        dense = rng.gamma(1.0, size=(rows, cols)) * (rng.uniform(size=(rows, cols)) < 0.4)
        dense[rng.uniform(size=(rows, cols)) < 0.3] = rng.integers(1, 9)  # whole values
        dense[rng.uniform(size=rows) < 0.25] = 0.0
        dense[:, rng.uniform(size=cols) < 0.25] = 0.0
        genes = [f"g{k}" for k in rng.permutation(cols) * 3]
        out.append(ExpressionMatrix([f"s{i}" for i in range(rows)], genes, dense))
    return out


_WRITER_CORPUS = _writer_corpus()


class TestGmt:
    def test_basic_line(self):
        c = parse_gmt(b"PATH_A\tdesc\tTP53\tBRCA1\n")
        assert len(c) == 1
        assert c.sets[0].genes == frozenset({"TP53", "BRCA1"})

    def test_duplicate_and_blank_genes_dropped(self):
        c = parse_gmt("PATH_A\tdesc\tTP53\t TP53 \t\t\n")
        assert c.sets[0].genes == frozenset({"TP53"})

    def test_empty_set_names_its_line(self, tmp_path):
        p = tmp_path / "sets.gmt"
        p.write_text("A\td\tG1\n\nB\td\t \t\n")
        with pytest.raises(DataFormatError, match="sets.gmt: line 3: gene set 'B' is empty"):
            data_io.read_gmt(p)

    def test_too_few_fields(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_gmt("PATH_A\tdesc\n")

    def test_duplicate_name(self):
        with pytest.raises(DataFormatError, match="^line 2: duplicate gene set name 'A'$"):
            parse_gmt("A\td\tG1\nA\td\tG2\n")
        sets = [data_io.GeneSet("A", "d", frozenset({g})) for g in ("G1", "G2")]
        with pytest.raises(DataFormatError, match="^duplicate gene set name 'A'$"):
            data_io.GeneSetCollection(sets)

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
    def test_triplet_negative_value(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("spot\tgene\tvalue\ns1\tg1\t-2\n")
        with pytest.raises(DataFormatError, match="negative"):
            data_io.parse_expression(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("")
        with pytest.raises(DataFormatError) as info:
            data_io.parse_expression(p)
        assert str(info.value) == f"{p}: line 1: empty file"

    def test_header_only_file(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("spot\tgene\tvalue\n")
        assert data_io.parse_expression(p).matrix.shape == (0, 0)

    def test_duplicate_pair(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("spot\tgene\tvalue\ns1\tg1\t2\ns1\tg1\t3\n")
        with pytest.raises(DataFormatError, match="duplicate"):
            data_io.parse_expression(p)

    @pytest.mark.parametrize("case", range(len(_WRITER_CORPUS)))
    def test_bytes_match_reference_writer(self, tmp_path, case):
        m = _WRITER_CORPUS[case]
        data_io.write_expression(m, tmp_path / "m.tsv")
        assert (tmp_path / "m.tsv").read_text() == reference_triplets(m)

    # the one expression format: a header, then one line per nonzero cell
    @pytest.mark.parametrize("header", ["spot\tgene\tvalue\n"], ids=["sparse_triplet_tsv"])
    def test_roundtrip_fixed_point(self, tmp_path, header):
        rng = np.random.default_rng(0)
        dense = rng.poisson(1.0, size=(4, 6)).astype(float)
        m = ExpressionMatrix(
            [f"s{i}" for i in range(4)],
            [f"g{j}" for j in range(6)],
            sp.csr_matrix(dense),
            RAW_COUNTS,
        )
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        data_io.write_expression(m, p1)
        assert p1.read_text().startswith(header)
        assert len(p1.read_text().splitlines()) == 1 + np.count_nonzero(dense)
        m2 = data_io.parse_expression(p1)
        assert m2.value_kind == RAW_COUNTS
        # triplet parsing orders ids by first appearance; align before comparing
        col = [m2.gene_ids.index(g) for g in m.gene_ids]
        row = [m2.spot_ids.index(s) for s in m.spot_ids]
        np.testing.assert_array_equal(m2.dense()[np.ix_(row, col)], dense)
        data_io.write_expression(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()


    @pytest.mark.parametrize(
        "dense",
        [
            [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0]],
            [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            [[0.0, 5.0], [0.0, 0.0], [7.0, 0.0]],
        ],
        ids=["zero_row_and_column", "all_zero", "zero_rows_first_gene"],
    )
    def test_roundtrip_keeps_all_zero_spots_and_genes(self, tmp_path, dense):
        dense = np.array(dense)
        spots = [f"s{i}" for i in range(dense.shape[0])][::-1]
        genes = ["b", "c", "a"][: dense.shape[1]]  # not in id order
        m = ExpressionMatrix(spots, genes, dense, RAW_COUNTS)
        p = tmp_path / "m.tsv"
        data_io.write_expression(m, p)
        m2 = data_io.parse_expression(p)
        assert m2.spot_ids == spots and sorted(m2.gene_ids) == sorted(genes)
        col = [m2.gene_ids.index(g) for g in genes]
        np.testing.assert_array_equal(m2.dense()[:, col], dense)
        data_io.write_expression(m2, tmp_path / "again.tsv")
        assert (tmp_path / "again.tsv").read_bytes() == p.read_bytes()

    def test_explicit_zero_only_for_empty_spots_and_genes(self, tmp_path):
        dense = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        m = ExpressionMatrix(["s0", "s1"], ["b", "a", "c"], dense)
        data_io.write_expression(m, tmp_path / "m.tsv")
        # s1 gets a 0 at the first gene by id, then b and c a 0 at the first spot
        assert (tmp_path / "m.tsv").read_text().splitlines() == [
            "spot\tgene\tvalue", "s0\ta\t2", "s0\tb\t0", "s0\tc\t0", "s1\ta\t0"
        ]

    @pytest.mark.parametrize("header", ["spot\tgene\tvalue\n"], ids=["sparse_triplet_tsv"])
    def test_array_and_csr_write_the_same_bytes(self, tmp_path, header):
        rng = np.random.default_rng(1)
        dense = rng.gamma(1.0, size=(5, 7)) * (rng.uniform(size=(5, 7)) < 0.5)
        genes = ["b", "a", "e", "c", "g", "d", "f"]  # written in gene-id order
        paths = []
        for k, matrix in enumerate((dense, sp.csr_matrix(dense))):
            paths.append(tmp_path / f"{k}.tsv")
            m = ExpressionMatrix([f"s{i}" for i in range(5)], genes, matrix, NORMALIZED_LOG)
            data_io.write_expression(m, paths[-1])
        assert paths[0].read_text().startswith(header)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_parsed_matrix_is_an_uncopied_array(self, tmp_path):
        p = tmp_path / "m.tsv"
        p.write_text("spot\tgene\tvalue\ns1\tg1\t2\ns2\tg2\t0.5\n")
        m = data_io.parse_expression(p)
        assert isinstance(m.matrix, np.ndarray) and m.matrix.dtype == np.float64
        assert m.dense() is m.matrix
        np.testing.assert_array_equal(m.dense(), [[2.0, 0.0], [0.0, 0.5]])


def _triplet_corpus(n_files):
    """Seeded triplet files (bytes) with what a hand-made file holds: ids
    padded by whitespace that strips to the same id, non-ASCII ids, values
    float() reads in other spellings, CRLF endings, a missing final newline,
    and in about half the files one blank line or fault."""
    rng = np.random.default_rng(20261018)
    spots = ["s1", "spot\u00e9", "\u7ec6\u80de", *(f"s{i}" for i in range(2, 9))]
    genes = ["g1", "g\u00e8ne", *(f"g{i}" for i in range(2, 9))]
    pads = ["", "", "", " ", "\u3000", "\u00a0"]
    values = ["1", "0", "2.5", "1_0", "+3", " 4 ", "-0", "0.0", "1e-300", "7E2"]
    odd = ["", "  ", "\t\t", "s1\tg1", "s1\tg1\t1\t2", "s1\tg1\t1e400", "s1\tg1\tnan",
           "s1\tg1\t-1", "s1\tg1\tx"]
    headers = ["spot\tgene\tvalue"] * 17 + ["", "spot\tgene", "spot gene value"]
    for _ in range(n_files):
        cells = rng.permutation(len(spots) * len(genes))[: rng.integers(0, 30)]
        lines = [
            f"{rng.choice(pads)}{spots[c // len(genes)]}\t{genes[c % len(genes)]}"
            f"{rng.choice(pads)}\t{rng.choice(values)}"
            for c in cells
        ]
        if rng.uniform() < 0.5:
            lines.insert(rng.integers(0, len(lines) + 1), str(rng.choice(odd)))
        if lines and rng.uniform() < 0.1:  # a (spot, gene) pair written twice
            lines.append(lines[rng.integers(0, len(lines))])
        eol = str(rng.choice(["\n", "\r\n"]))
        text = eol.join([str(rng.choice(headers)), *lines]) + eol * (rng.uniform() < 0.8)
        yield text.encode("utf-8")


def _triplets(spot_ids, gene_ids, rows, cols, vals):
    return spot_ids, gene_ids, rows.tobytes(), cols.tobytes(), vals.tobytes()


def _matrix(spot_ids, gene_ids, rows, cols, vals):
    """The dense matrix of the triplets, set cell by cell; a zero (-0.0 too)
    leaves its cell at +0.0."""
    mat = np.zeros((len(spot_ids), len(gene_ids)))
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        if v != 0.0:
            mat[r, c] = v
    return spot_ids, gene_ids, mat.shape, mat.tobytes()


def _outcome(read, path):
    """What `read(path)` gives, or its error."""
    try:
        return read(path)
    except DataFormatError as exc:
        return str(exc), exc.detail, exc.line, exc.path


def _parsed(path):
    m = data_io.parse_expression(path)
    return m.spot_ids, m.gene_ids, m.matrix.shape, m.matrix.tobytes()


class TestBulkTriplets:
    """The block reader gives what the line reader gives, or hands the file to it."""

    @pytest.mark.parametrize("block_bytes", [1, 16, 100, 1 << 17])
    def test_matches_the_line_reader(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr(data_io, "_BLOCK_BYTES", block_bytes)
        by_line = data_io._names_file(data_io._triplets_by_line)
        taken = 0
        for k, text in enumerate(_triplet_corpus(300)):
            p = tmp_path / f"{k}.tsv"
            p.write_bytes(text)
            assert _outcome(_parsed, p) == _outcome(lambda q: _matrix(*by_line(q)), p), text
            bulk = data_io._triplets_in_blocks(p)
            if bulk is not None:
                taken += 1
                assert _triplets(*bulk) == _outcome(lambda q: _triplets(*by_line(q)), p), text
        # the corpus reaches both readers
        assert 100 < taken < 250

    @pytest.mark.parametrize("block_bytes", [16, 100])
    def test_duplicate_in_a_later_block_names_its_line(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr(data_io, "_BLOCK_BYTES", block_bytes)
        p = tmp_path / "m.tsv"
        p.write_text("spot\tgene\tvalue\n" + "".join(f"s{i}\tg{i}\t{i}\n" for i in range(40))
                     + "s0\tg0\t5\n")
        with pytest.raises(DataFormatError) as info:
            data_io.parse_expression(p)
        assert str(info.value) == f"{p}: line 42: duplicate entry for (s0, g0)"

    @pytest.mark.parametrize(
        "kind, shape, rate",
        [(RAW_COUNTS, (4, 3), 1.0), (NORMALIZED_LOG, (5, 6), 0.5), (RAW_COUNTS, (60, 300), 3.0)],
        ids=["raw_counts", "normalized_log", "longer_than_a_block"],
    )
    def test_well_formed_files_are_not_read_line_by_line(
        self, tmp_path, monkeypatch, kind, shape, rate
    ):
        def refuse(path):
            raise AssertionError(f"{path} was read line by line")

        monkeypatch.setattr(data_io, "_triplets_by_line", refuse)
        rng = np.random.default_rng(6)
        dense = rng.poisson(rate, size=shape).astype(float)
        if kind == NORMALIZED_LOG:
            dense = np.log1p(dense * rng.gamma(2.0, size=shape))
        m = ExpressionMatrix([f"s{i}" for i in range(shape[0])],
                             [f"g{j}" for j in range(shape[1])], dense, kind)
        p = tmp_path / "m.tsv"
        data_io.write_expression(m, p)
        if shape[0] > 10:
            assert p.stat().st_size > data_io._BLOCK_BYTES
        m2 = data_io.parse_expression(p, value_kind=kind)
        col = [m2.gene_ids.index(g) for g in m.gene_ids]
        assert m2.spot_ids == m.spot_ids
        assert m2.dense()[:, col].tobytes() == dense.tobytes()

    @pytest.mark.parametrize("cells", [1, 3, 4096])
    def test_writer_formats_each_value_as_fmt(self, tmp_path, monkeypatch, cells):
        monkeypatch.setattr(data_io, "_WRITE_CELLS", cells)
        dense = np.array([
            [0.1, 2.0, 1e15, 123456789012345.0],
            [1e16, 2.5e-300, 7.0, 1 / 3],
            [2.5, 999999999999999.0, 4.0, 1e300],
        ])
        genes = ["a", "b", "c", "d"]
        m = ExpressionMatrix(["s0", "s1", "s2"], genes, dense, NORMALIZED_LOG)
        data_io.write_expression(m, tmp_path / "m.tsv")
        # every value at 17 significant digits, whole ones with no point or exponent
        spelled = [
            ["0.10000000000000001", "2", "1000000000000000", "123456789012345"],
            ["10000000000000000", "2.5e-300", "7", "0.33333333333333331"],
            ["2.5", "999999999999999", "4", "1.0000000000000001e+300"],
        ]
        want = "spot\tgene\tvalue\n" + "".join(
            f"s{i}\t{g}\t{spelled[i][j]}\n" for i in range(3) for j, g in enumerate(genes)
        )
        assert (tmp_path / "m.tsv").read_text() == want

    @pytest.mark.parametrize("shape", [(3, 0), (0, 2)])
    def test_ids_with_no_cell_are_refused(self, tmp_path, shape):
        m = ExpressionMatrix([f"s{i}" for i in range(shape[0])],
                             [f"g{j}" for j in range(shape[1])], np.zeros(shape))
        with pytest.raises(DataFormatError, match="no cell"):
            data_io.write_expression(m, tmp_path / "m.tsv")
        assert not (tmp_path / "m.tsv").exists()

    def test_empty_matrix_is_the_header(self, tmp_path):
        data_io.write_expression(ExpressionMatrix([], [], np.zeros((0, 0))), tmp_path / "m.tsv")
        assert (tmp_path / "m.tsv").read_text() == "spot\tgene\tvalue\n"
        assert data_io.parse_expression(tmp_path / "m.tsv").matrix.shape == (0, 0)


def _float_table_corpus(n_files):
    """Seeded float tables (k, bytes): k id columns (1, a feature table, or
    2, an embedding table) and the file, with what a hand-made file holds:
    cells that only `float()` reads, or that no reader takes, blank lines,
    first ids repeated, rows too short or too long, CRLF endings, a missing
    final newline, bytes that are not UTF-8, and header-only and empty files."""
    rng = np.random.default_rng(20261020)
    odd = ["1_0", "١", "1.5\r", "nan", "inf", "1e400", "1#2", "0x1p3", "", "1\x1c", "\x1f2"]
    blank = ["", "  ", "\t\t", "　"]
    for _ in range(n_files):
        k, width, n = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(0, 30))
        if rng.uniform() < 0.03:
            yield k, b""
            continue
        header = ["spot_id", "slide_id"][:k] + [f"e{j}" for j in range(width)]
        values = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-30, 30, size=(n, width))
        lines = []
        for i, row in enumerate(values.tolist()):
            spot = f"s{rng.integers(0, i)}" if i and rng.uniform() < 0.01 else f"s{i}"
            cells = [repr(v) if rng.uniform() < 0.5 else f"{v:.9g}" for v in row]
            if rng.uniform() < 0.05:
                cells[rng.integers(0, width)] = str(rng.choice(odd))
            if rng.uniform() < 0.01:
                cells = cells[:-1] if rng.uniform() < 0.5 else cells + ["1"]
            lines.append("\t".join([spot, f"sl{i // 4}"][:k] + cells))
            if rng.uniform() < 0.01:
                lines.append(str(rng.choice(blank)))
        eol = str(rng.choice(["\n", "\r\n"]))
        text = eol.join(["\t".join(header), *lines]) + eol * (rng.uniform() < 0.8)
        data = text.encode("utf-8")
        if len(data) > 40 and rng.uniform() < 0.05:
            at = int(rng.integers(len(data) // 2, len(data)))
            data = data[:at] + b"\xff" + data[at + 1 :]
        yield k, data


def _float32_outcome(path):
    """What survival-train reads from the embedding table `path`."""
    return _outcome(lambda p: (lambda rows, E: (rows, E.tobytes(), E.shape))(
        *data_io.read_slide_embeddings(p)), path)


def _reference_float32(path):
    """`_float32_outcome` as the whole-table reader gives it: the float64
    table read, checked by `check_float32`, then cast."""

    def read(p):
        spot_ids, slide_ids, values = data_io.read_embeddings(p)
        data_io.check_float32(p, spot_ids, values)
        rows = {}
        for i, slide in enumerate(slide_ids):
            rows.setdefault(slide, []).append(i)
        E = values.astype(np.float32)
        return rows, E.tobytes(), E.shape

    return _outcome(read, path)


class TestBulkFloatTables:
    """Blocks parsed by `np.loadtxt` give what the per-row reader gives, or go to it."""

    @pytest.mark.filterwarnings("error")  # e.g. np.loadtxt's on a block with no data
    @pytest.mark.parametrize("block_bytes", [1, 40, 200, 1 << 17])
    def test_matches_the_row_reader(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr(data_io, "_BLOCK_BYTES", block_bytes)
        bulk = data_io._in_bulk
        taken, refused = [0], [0]

        def counted(*args):
            out = bulk(*args)
            (taken if out is not None else refused)[0] += 1
            return out

        monkeypatch.setattr(data_io, "_in_bulk", counted)

        def read(k, p):
            if k == 1:
                return _outcome(lambda q: (lambda fm: (fm.spot_ids, fm.features.tobytes(),
                                                       fm.features.shape))(
                    data_io.read_features(q)), p)
            table = _outcome(lambda q: (lambda s, sl, v: (s, sl, v.tobytes(), v.shape))(
                *data_io.read_embeddings(q)), p)
            return table, _float32_outcome(p)

        errors = 0
        for n, (k, text) in enumerate(_float_table_corpus(400)):
            p = tmp_path / f"{n}.tsv"
            p.write_bytes(text)
            got = read(k, p)
            with monkeypatch.context() as m:
                m.setattr(data_io, "_in_bulk", lambda *args: None)
                want = read(k, p)
                if k == 2:
                    assert got[1] == _reference_float32(p), text
            assert got == want, text
            for outcome in got if k == 2 else [got]:
                if isinstance(outcome[0], str):  # an error, by the float32 reader too
                    errors += 1
                    assert outcome[3] == p and outcome[0].startswith(f"{p}: "), text
        # the corpus reaches both parsers, and both outcomes
        assert taken[0] > 200 and refused[0] > 50
        assert 100 < errors < 700

    def test_repeated_id_in_a_later_block_names_its_line(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_io, "_BLOCK_BYTES", 64)
        p = tmp_path / "e.tsv"
        p.write_text("spot_id\tslide_id\te0\n" + "".join(f"s{i}\tsl\t{i}\n" for i in range(40))
                     + "s3\tsl\t5\n")
        for read in (data_io.read_embeddings, data_io.read_slide_embeddings):
            with pytest.raises(DataFormatError) as info:
                read(p)
            assert str(info.value) == f"{p}: line 42: duplicate spot_id 's3'"

    def test_value_beyond_float32_in_a_later_block(self, tmp_path, monkeypatch):
        # the float32 path checks each block as it is read, with check_float32's message
        monkeypatch.setattr(data_io, "_BLOCK_BYTES", 64)
        p = tmp_path / "e.tsv"
        values = np.arange(80.0).reshape(40, 2)
        values[30, 1] = 1e39
        data_io.write_embeddings([f"s{i}" for i in range(40)], ["sl"] * 40, values, p)
        assert p.stat().st_size > 5 * data_io._BLOCK_BYTES
        assert _float32_outcome(p) == _reference_float32(p) == (
            f"{p}: spot 's30': value 1e+39 is beyond float32's range",
            "spot 's30': value 1e+39 is beyond float32's range", None, p,
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_table_over_a_mib_matches_the_row_reader(self, tmp_path, monkeypatch, dtype):
        # many blocks fill one preallocated array, for float64 and float32 tables alike
        monkeypatch.setattr(data_io, "_BLOCK_BYTES", 1 << 14)
        n, width = 4000, 40 if dtype == np.float64 else 80
        values = np.random.default_rng(7).normal(size=(n, width)).astype(dtype)
        assert values.nbytes > 1 << 20
        p = tmp_path / "e.tsv"
        data_io.write_embeddings([f"s{i}" for i in range(n)], [f"sl{i % 3}" for i in range(n)],
                                 values, p)

        def read(q):
            if dtype == np.float64:
                spot_ids, slide_ids, table = data_io.read_embeddings(q)
                return spot_ids, slide_ids, table.dtype, table.tobytes()
            rows, table = data_io.read_slide_embeddings(q)
            return rows, table.dtype, table.tobytes()

        got = read(p)
        assert got[-2:] == (dtype, values.tobytes())
        monkeypatch.setattr(data_io, "_in_bulk", lambda *args: None)
        assert got == read(p)

    def test_well_formed_tables_are_not_read_by_row(self, tmp_path, monkeypatch):
        def refuse(block, *args):
            raise AssertionError(f"a block of {len(block)} lines was read by row")

        monkeypatch.setattr(data_io, "_float_rows", refuse)
        monkeypatch.setattr(data_io, "_BLOCK_BYTES", 1 << 12)
        values = np.random.default_rng(4).normal(size=(300, 16))
        p = tmp_path / "e.tsv"
        data_io.write_embeddings([f"s{i}" for i in range(300)], ["sl"] * 300, values, p)
        assert p.stat().st_size > 10 * data_io._BLOCK_BYTES
        assert data_io.read_embeddings(p)[2].tobytes() == values.tobytes()


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

    @pytest.mark.parametrize("x, y", [("nan", "0"), ("1", "inf"), ("-inf", "2")])
    def test_non_finite_coordinate(self, tmp_path, x, y):
        p = tmp_path / "c.csv"
        p.write_text(data_io.COORDS_HEADER + f"\ns1,sl,0,0,0,0\ns2,sl,{x},{y},0,1\n")
        with pytest.raises(DataFormatError) as info:
            data_io.read_coords(p)
        assert str(info.value) == f"{p}: line 3: non-finite coordinate ({x}, {y})"

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
        ],
        ids=["coords", "survival", "triplets"],
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

    @pytest.mark.parametrize(
        "reader, text",
        [
            (data_io.read_gmt, b"SET\tdesc\tG\xff\n"),
            (data_io.parse_expression, b"spot\tgene\tvalue\ns1\tg\xff\t1\n"),
            (data_io.read_coords, data_io.COORDS_HEADER.encode() + b"\ns\xff,sl,0,0,0,0\n"),
            (data_io.read_survival, data_io.SURVIVAL_HEADER.encode() + b"\na\xff,1.5,1,sl\n"),
            (data_io.read_features, b"spot_id\tf0\ns\xff\t1\n"),
            (data_io.read_scores, b"spot\tA\ns\xff\t1\n"),
            (data_io.read_embeddings, b"spot_id\tslide_id\te0\ns\xff\tsl\t1\n"),
        ],
        ids=["gmt", "expression", "coords", "survival", "features", "scores", "embeddings"],
    )
    def test_non_utf8_bytes_name_the_file(self, tmp_path, reader, text):
        p = tmp_path / "input.txt"
        p.write_bytes(text)
        with pytest.raises(DataFormatError, match="not UTF-8 text") as info:
            reader(p)
        assert info.value.path == p

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

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            (data_io.read_features, "spot_id\ns1\n", "no value column"),
            (data_io.read_scores, "spot\ns1\n", "no value column"),
            (data_io.read_embeddings, "spot_id\tslide_id\ns1\tsl\n", "no value column"),
            (data_io.read_scores, "spot\tA\tB\tA\ns1\t1\t2\t3\n", "repeated column 'A'"),
            (data_io.read_features, "spot_id\tf0\tf0\ns1\t1\t2\n", "repeated column 'f0'"),
        ],
        ids=["features_ids_only", "scores_ids_only", "embeddings_ids_only",
             "scores_repeated", "features_repeated"],
    )
    def test_header_needs_distinct_value_columns(self, tmp_path, reader, text, message):
        p = tmp_path / "t.tsv"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=message) as info:
            reader(p)
        assert info.value.line == 1

    F64_EDGES = [
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
        1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308, 0.1, 1 / 3,
        1e15 + 1, 2.0**53 + 2, -(2.0**63), 123456789012345678.0,
        3.4028234663852886e38, 1.1754943508222875e-38, 1.401298464324817e-45,
    ]
    F32_EDGES = [
        0.0, -0.0, 1.401298464324817e-45, -1.401298464324817e-45, 1.1754942106924411e-38,
        1.1754943508222875e-38, 3.4028234663852886e38, -3.4028234663852886e38,
        1e15 + 2**20, 2.0**60, 16777217.0, 0.1, 1 / 3,
    ]

    def _table(self, dtype, rows=30, cols=8):
        """Edge values first, then random ones over most of the dtype's exponent range."""
        rng = np.random.default_rng(11)
        if dtype == np.float64:
            edges, exponents = self.F64_EDGES, (-300, 300)
        else:
            edges, exponents = self.F32_EDGES, (-44, 37)
        values = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(*exponents, size=(rows, cols))
        values.flat[: len(edges)] = edges
        return values.astype(dtype)

    @pytest.mark.parametrize(
        "table, dtype",
        [
            ("scores", np.float64),
            ("scores", np.float32),
            ("embeddings", np.float64),
            ("embeddings", np.float32),
            ("features", np.float64),
        ],
        ids=["scores64", "scores32", "embeddings64", "embeddings32", "features64"],
    )
    def test_float_table_round_trips_bit_exact(self, tmp_path, table, dtype):
        values = self._table(dtype)
        assert np.isfinite(values).all()
        ids = [f"s{i}" for i in range(len(values))]
        p = tmp_path / "t.tsv"
        if table == "scores":
            names = [f"p{j}" for j in range(values.shape[1])]
            data_io.write_scores(data_io.PathwayScoreMatrix(ids, names, values), p)
            back = data_io.read_scores(p).scores
        elif table == "embeddings":
            data_io.write_embeddings(ids, ["sl"] * len(ids), values, p)
            back = data_io.read_embeddings(p)[2]
        else:
            data_io.write_features(data_io.PatchFeatureMatrix(ids, values), p)
            back = data_io.read_features(p).features
        assert back.dtype == np.float64
        assert back.astype(dtype).tobytes() == values.tobytes()
        k = 2 if table == "embeddings" else 1
        cells = [c for ln in p.read_text().splitlines()[1:] for c in ln.split("\t")[k:]]
        assert len(cells) == values.size
        digits = 9 if dtype == np.float32 else 17
        assert max(map(significant_digits, cells)) == digits

    def test_float32_scores_stay_float32(self):
        sm = data_io.PathwayScoreMatrix(["s"], ["p"], np.ones((1, 1), np.float32))
        assert sm.scores.dtype == np.float32
        sm = data_io.PathwayScoreMatrix(["s"], ["p"], np.ones((1, 1), np.int64))
        assert sm.scores.dtype == np.float64

    def test_embeddings_roundtrip(self, tmp_path):
        values = np.array([[0.1, -2.5], [3.0, 1e-300], [7.25, 0.0]])
        p = tmp_path / "e.tsv"
        data_io.write_embeddings(["a_s0", "a_s1", "b_s0"], ["a", "a", "b"], values, p)
        spot_ids, slide_ids, values2 = data_io.read_embeddings(p)
        assert spot_ids == ["a_s0", "a_s1", "b_s0"]
        assert slide_ids == ["a", "a", "b"]
        np.testing.assert_array_equal(values2, values)


def _write(kind, values, path):
    """Write the 2-D array `values` through the writer of `kind`, putting the
    values in after the table object is built, so a non-finite one gets past
    the object's own checks to the writer."""
    n, k = values.shape
    ids, names = [f"s{i}" for i in range(n)], [f"c{j}" for j in range(k)]
    table = kind.rstrip("0123456789")
    if table == "expression":
        data_io.write_expression(ExpressionMatrix(ids, names, values, NORMALIZED_LOG), path)
    elif table == "coords":
        geoms = [data_io.SpotGeometry(s, "sl", x, y, 0, i)
                 for i, (s, (x, y)) in enumerate(zip(ids, values.tolist()))]
        data_io.write_coords(geoms, path)
    elif table == "survival":
        survival = data_io.SurvivalTable([])
        survival.rows = [data_io.SurvivalRecord(s, t, i % 2 == 0, (f"sl{i}",))
                         for i, (s, (t,)) in enumerate(zip(ids, values.tolist()))]
        data_io.write_survival(survival, path)
    elif table == "features":
        fm = data_io.PatchFeatureMatrix(ids, np.zeros(values.shape, values.dtype))
        fm.features[...] = values
        data_io.write_features(fm, path)
    elif table == "scores":
        sm = data_io.PathwayScoreMatrix(ids, names, np.zeros(values.shape, values.dtype))
        sm.scores[...] = values
        data_io.write_scores(sm, path)
    else:
        data_io.write_embeddings(ids, ["sl"] * n, values, path)


def _read(kind, path):
    """What `_write(kind, ...)` wrote to `path`, read back as a float64 array."""
    table = kind.rstrip("0123456789")
    if table == "expression":
        m = data_io.parse_expression(path, value_kind=NORMALIZED_LOG)
        return m.dense()[:, np.argsort(m.gene_ids)]  # c0..c9 sort as numbered
    if table == "coords":
        return np.array([(g.x, g.y) for g in data_io.read_coords(path)])
    if table == "survival":
        return np.array([[r.time] for r in data_io.read_survival(path).rows])
    if table == "features":
        return data_io.read_features(path).features
    if table == "scores":
        return data_io.read_scores(path).scores
    return data_io.read_embeddings(path)[2]


class TestFloatSpelling:
    """Every writer that spells floats, at each dtype its table is written in."""

    KINDS = ["expression", "coords", "survival", "features32", "features64",
             "scores32", "scores64", "embeddings32", "embeddings64"]
    # subnormals, extremes, whole values >= 1e15, -0.0, and values with no short spelling
    F64_EDGES = [5e-324, -5e-324, 2.2250738585072009e-308, 1e300, -1e300, 1e15,
                 2.0**53 + 2, 123456789012345678.0, -0.0, 0.1, 1 / 3]
    F32_EDGES = [1.401298464324817e-45, -1.401298464324817e-45, 1.1754942106924411e-38,
                 3.4028234663852886e38, -3.4028234663852886e38, 1e15, 2.0**60, -0.0, 0.1, 1 / 3]

    def _values(self, kind):
        """Seeded values for `kind`'s table, edge values first: any sign for
        coordinates and float tables, >= 0 or -0.0 for expression, > 0 for
        survival times."""
        rng = np.random.default_rng(sum(map(ord, kind)))
        dtype = np.float32 if kind.endswith("32") else np.float64
        edges, exponents = (self.F32_EDGES, (-44, 37)) if dtype == np.float32 else (
            self.F64_EDGES, (-300, 300))
        cols = {"coords": 2, "survival": 1}.get(kind, 6)
        values = rng.normal(size=(40, cols)) * 10.0 ** rng.integers(*exponents, size=(40, cols))
        values.flat[: len(edges)] = edges
        if kind == "expression":
            values = np.where(values < 0, -values, values)  # keeps -0.0
        elif kind == "survival":
            values = np.abs(values) + (values == 0)
        return values.astype(dtype)

    @pytest.mark.parametrize("kind", KINDS)
    def test_writer_round_trips_bit_identical(self, tmp_path, kind):
        values = self._values(kind)
        p = tmp_path / "t.txt"
        _write(kind, values, p)
        back = _read(kind, p)
        assert back.dtype == np.float64
        # a zero triplet cell, -0.0 too, is not stored: it reads back as +0.0
        want = values + 0.0 if kind == "expression" else values
        assert back.astype(values.dtype).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_writer_refuses_non_finite(self, tmp_path, kind, bad):
        values = self._values(kind)
        values[-1, -1] = bad
        p = tmp_path / "t.txt"
        with pytest.raises(DataFormatError, match="non-finite") as info:
            _write(kind, values, p)
        assert info.value.path == p
        assert not p.exists()

    @pytest.mark.parametrize("bad", [-0.25, -5e-324], ids=["negative", "negative_subnormal"])
    def test_expression_writer_refuses_negative(self, tmp_path, bad):
        # `parse_expression` refuses a negative value on every line; -0.0 is written
        values = self._values("expression")
        values[-1, -1] = bad
        p = tmp_path / "t.txt"
        with pytest.raises(DataFormatError, match=f"negative value {bad}$") as info:
            _write("expression", values, p)
        assert info.value.path == p
        assert not p.exists()


class TestCheckpoint:
    def _model(self):
        return PearlModel(
            ModelConfig(n_pathways=4, n_genes=3, d_img=5, n_heads=2, d_k=2, seed=7)
        )

    def test_roundtrip_bit_exact(self, tmp_path):
        m = self._model()
        path = str(tmp_path / "ckpt")
        save_model(m, path)
        m2 = load_model(path)
        for (n1, p1), (n2, p2) in zip(m.parameters(), m2.parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.values, p2.values)
        # blob is byte-identical on re-save
        save_model(m2, str(tmp_path / "ckpt2"))
        assert (tmp_path / "ckpt.params.bin").read_bytes() == (
            tmp_path / "ckpt2.params.bin"
        ).read_bytes()

    def test_manifest_with_a_saved_normalizer_loads(self, tmp_path):
        # checkpoints once saved the coordinate normalizer in an `extra`
        # section; the loader ignores it like any key it does not read
        m = self._model()
        path = str(tmp_path / "ckpt")
        save_model(m, path)
        manifest_path = tmp_path / "ckpt.manifest.json"
        written = manifest_path.read_text()
        manifest = json.loads(written)
        manifest["extra"] = {"coord_normalizer": {"mu": [50.0, 49.5], "sigma": [28.9, 29.1]}}
        manifest_path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        m2 = load_model(path)
        assert m2.normalizer is None
        for (n1, p1), (n2, p2) in zip(m.parameters(), m2.parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.values, p2.values)
        save_model(m2, str(tmp_path / "ckpt2"))
        assert (tmp_path / "ckpt2.manifest.json").read_text() == written

    def test_truncated_blob(self, tmp_path):
        m = self._model()
        path = str(tmp_path / "ckpt")
        save_model(m, path)
        blob = (tmp_path / "ckpt.params.bin").read_bytes()
        (tmp_path / "ckpt.params.bin").write_bytes(blob[:-4])
        with pytest.raises(CheckpointTruncatedError):
            load_model(path)

    def test_load_peak_memory_at_benchmark_shape(self, tmp_path, train_infer_model):
        # Measured 6.02 MiB reading the blob whole and copying each parameter
        # out of it, 2.78 MiB reading each parameter straight into the array
        # the unfilled model was built with.  Bound: the model plus its
        # largest parameter.
        m = train_infer_model
        path = str(tmp_path / "ckpt")
        save_model(m, path)
        m2, peak = traced_peak(load_model, path)
        for (_, p1), (_, p2) in zip(m.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p1.values, p2.values)
        assert peak < peak_bound("load_model, benchmark train-infer", peak, 3.25)

    def test_save_peak_memory_at_benchmark_shape(self, tmp_path, train_infer_model):
        # Measured 5.51 MiB joining the whole blob before writing it, 0.04 MiB
        # writing each float32 parameter from its own array (the rest is the
        # manifest's JSON).  Bound: less than one copy of the largest parameter.
        m = train_infer_model
        _, peak = traced_peak(save_model, m, str(tmp_path / "ckpt"))
        assert (tmp_path / "ckpt.params.bin").stat().st_size == 4 * sum(
            p.values.size for _, p in m.parameters())
        assert peak < peak_bound("save_model, benchmark train-infer", peak, 0.5)

    def test_entries_reordered_with_the_blob_load_the_same_values(self, tmp_path):
        # the blob follows the manifest's entry order, whatever the model's
        m = self._model()
        path = str(tmp_path / "ckpt")
        save_model(m, path)
        manifest = json.loads((tmp_path / "ckpt.manifest.json").read_text())
        blob = (tmp_path / "ckpt.params.bin").read_bytes()
        sizes = [4 * int(np.prod(p["shape"])) for p in manifest["params"]]
        ends = np.cumsum(sizes)
        chunks = [blob[end - size : end] for size, end in zip(sizes, ends)]
        manifest["params"].reverse()
        (tmp_path / "ckpt.manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "ckpt.params.bin").write_bytes(b"".join(reversed(chunks)))
        assert (tmp_path / "ckpt.params.bin").read_bytes() != blob
        m2 = load_model(path)
        for (n1, p1), (n2, p2) in zip(m.parameters(), m2.parameters()):
            assert n1 == n2 and p2.values.dtype == np.float32
            np.testing.assert_array_equal(p1.values, p2.values)

    def test_first_shape_mismatch_in_the_model_order_named(self, tmp_path):
        # two transposed shapes, listed in the reverse of the model's order:
        # the model's first parameter is the one named
        path = str(tmp_path / "ckpt")
        save_model(self._model(), path)
        manifest = json.loads((tmp_path / "ckpt.manifest.json").read_text())
        by_name = {p["name"]: p for p in manifest["params"]}
        for name in ("phi.w1", "head_gene.w1"):
            by_name[name]["shape"].reverse()
        manifest["params"].reverse()
        (tmp_path / "ckpt.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointShapeError) as exc:
            load_model(path)
        assert str(exc.value) == (
            f"{path}.manifest.json: parameter 'phi.w1': shape (128, 2), expected (2, 128)"
        )

    def test_blob_cut_while_read(self, tmp_path, monkeypatch):
        # the size is read once, from the open file: a blob cut after that
        # is refused, not left partly unfilled
        path = str(tmp_path / "ckpt")
        save_model(self._model(), path)
        blob = (tmp_path / "ckpt.params.bin").read_bytes()
        (tmp_path / "ckpt.params.bin").write_bytes(blob[:-4])
        monkeypatch.setattr(data_io.os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
        with pytest.raises(CheckpointTruncatedError) as exc:
            load_model(path)
        assert str(exc.value) == f"{path}.params.bin: blob ends inside 'head_gene.b2'"

    def test_version_mismatch(self, tmp_path):
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

    @pytest.mark.parametrize(
        "edit, error, suffix, message",
        [
            (lambda m: m.update(format_version=1), CheckpointVersionError, ".manifest.json",
             "format version 1 != 2"),
            (lambda m: m["hyperparams"].update(kind="x"), CheckpointShapeError, ".manifest.json",
             "unknown hyperparameter 'kind'"),
            (lambda m: m["hyperparams"].update(embed_dim=2.5), CheckpointManifestError,
             ".manifest.json", "hyperparameter 'embed_dim' must be of type int, got 2.5"),
            (lambda m: m["hyperparams"].update(embed_dim=0), CheckpointManifestError,
             ".manifest.json", "embed_dim must be >= 1"),
            (lambda m: m["params"].pop(), CheckpointShapeError, ".params.bin",
             r"blob holds \d+ bytes, manifest declares \d+"),
            (lambda m: m["params"][0].update(name="phi.w9"), CheckpointShapeError,
             ".manifest.json", "parameter names do not match the declared hyperparameters"),
            (lambda m: m["params"][0]["shape"].reverse(), CheckpointShapeError, ".manifest.json",
             r"parameter 'phi.w1': shape \(128, 2\), expected \(2, 128\)"),
        ],
        ids=["version", "unknown_key", "type", "build", "blob_size", "names", "shape"],
    )
    def test_refusal_names_the_file(self, tmp_path, edit, error, suffix, message):
        path = str(tmp_path / "ckpt")
        save_model(self._model(), path)
        manifest = json.loads((tmp_path / "ckpt.manifest.json").read_text())
        edit(manifest)
        (tmp_path / "ckpt.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(error) as exc:
            load_model(path)
        assert re.fullmatch(re.escape(path + suffix) + ": " + message, str(exc.value))

    @pytest.mark.parametrize("tamper", MANIFEST_TAMPERS)
    def test_malformed_manifest_rejected(self, tmp_path, tamper):
        path = str(tmp_path / "ckpt")
        save_model(self._model(), path)
        tamper_manifest(tmp_path / "ckpt.manifest.json", tamper)
        with pytest.raises(CheckpointManifestError):
            load_model(path)

    def test_repeated_manifest_key_named(self, tmp_path):
        # json keeps a repeated key's last value; the reader refuses the file instead
        path = str(tmp_path / "ckpt")
        save_model(self._model(), path)
        tamper_manifest(tmp_path / "ckpt.manifest.json", "repeated_key")
        with pytest.raises(CheckpointManifestError) as info:
            load_model(path)
        assert str(info.value) == (
            f"{path}.manifest.json: manifest repeats the key 'embed_dim' in one object"
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["hyperparams"].update(embed_dim=0),
            lambda m: m["hyperparams"].update(tau_init=1e6),
            lambda m: m["params"][0].update(shape=[-4, 2]),
            lambda m: m.update(hyperparams=[]),
        ],
        ids=["zero_embed_dim", "tau_out_of_range", "negative_shape", "hyperparams_not_object"],
    )
    def test_invalid_manifest_field_rejected(self, tmp_path, edit):
        path = str(tmp_path / "ckpt")
        save_model(self._model(), path)
        manifest = json.loads((tmp_path / "ckpt.manifest.json").read_text())
        edit(manifest)
        (tmp_path / "ckpt.manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointManifestError, match=re.escape(path)):
            load_model(path)


class TestInvariants:
    def test_duplicate_spot_ids_rejected(self):
        with pytest.raises(DataFormatError, match="^duplicate spot id 's'$"):
            ExpressionMatrix(["s", "s"], ["g"], sp.csr_matrix((2, 1)), RAW_COUNTS)

    def test_duplicate_gene_ids_rejected(self):
        with pytest.raises(DataFormatError, match="^duplicate gene id 'b'$"):
            ExpressionMatrix(["s"], ["a", "b", "c", "b"], np.zeros((1, 4)), RAW_COUNTS)

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
