import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pearl import autodiff as ad
from pearl import cli, data_io, gradsuite, preprocess, survival, trainer
from pearl.cli import _read_slide_embeddings, main
from pearl.encoders import load_model, save_model
from pearl.errors import ConfigError, DataFormatError, TrainingDiverged

import golden_chain
from conftest import (BENCHMARK_SEED, MANIFEST_TAMPERS, peak_bound, significant_digits,
                      tamper_manifest, traced_peak)


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """(root, data, config path): the golden chain's ten commands, synth to
    run-cv, with every output in `data`."""
    root = tmp_path_factory.mktemp("cli")
    return root, root / "data", golden_chain.run_chain(root / "data")


class TestPipeline:
    def test_synth_outputs(self, pipeline):
        _, data, _ = pipeline
        for name in (
            "expression.tsv",
            "coords.csv",
            "gene_sets.gmt",
            "features.tsv",
            "survival.csv",
            "survival_embeddings.tsv",
        ):
            assert (data / name).exists(), name

    def test_preprocess_outputs(self, pipeline):
        _, data, _ = pipeline
        hvg = data_io.parse_expression(
            data / "hvg.tsv", value_kind=data_io.NORMALIZED_LOG
        )
        assert hvg.matrix.shape == (48, 10)
        genes = (data / "hvg_genes.txt").read_text().split()
        # the list is in selection order, the matrix in serialization order
        assert sorted(genes) == sorted(hvg.gene_ids)

    def test_scores_aligned_with_spots(self, pipeline):
        _, data, _ = pipeline
        sm = data_io.read_scores(data / "scores.tsv")
        assert len(sm.pathway_names) == 3
        assert sm.scores.shape == (48, 3)

    def test_predict_contract(self, pipeline):
        _, data, _ = pipeline
        yp = data_io.read_scores(data / "yhat_path.tsv")
        yg = data_io.read_scores(data / "yhat_gene.tsv")
        assert yp.scores.shape == (48, 3)
        assert yg.scores.shape == (48, 10)
        emb_lines = (data / "embeddings.tsv").read_text().strip().split("\n")
        assert emb_lines[0].startswith("spot_id\tslide_id\te0")
        assert len(emb_lines) == 49
        slide_of = {g.spot_id: g.slide_id for g in data_io.read_coords(data / "coords.csv")}
        spots, slides, _ = data_io.read_embeddings(data / "embeddings.tsv")
        assert slides == [slide_of[s] for s in spots]

    @pytest.mark.parametrize("given", ["--emit-embeddings", "--coords"])
    def test_predict_embeddings_and_coords_go_together(self, pipeline, tmp_path, capsys, given):
        _, data, _ = pipeline
        argv = ["predict", "--out-dir", str(tmp_path / "out"),
                "--checkpoint", str(data / "final"), "--features", str(data / "features.tsv")]
        argv += [given] if given == "--emit-embeddings" else [given, str(data / "coords.csv")]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "usage", "message": "pearl predict: --emit-embeddings and --coords go together"
        }
        assert not (tmp_path / "out").exists()

    def test_predict_spot_without_coordinates(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        lines = (data / "coords.csv").read_text().splitlines()
        coords = tmp_path / "coords.csv"
        coords.write_text("\n".join(lines[:3]) + "\n")  # 2 of the 48 spots
        listed = {ln.split(",")[0] for ln in lines[1:3]}
        spots = data_io.read_features(data / "features.tsv").spot_ids
        absent = next(s for s in spots if s not in listed)
        argv = ["predict", "--out-dir", str(tmp_path / "out"), "--emit-embeddings",
                "--checkpoint", str(data / "final"), "--features", str(data / "features.tsv"),
                "--coords", str(coords)]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "data_format",
            "message": f"{coords}: spot {absent!r} is missing from the coords table",
        }
        assert not (tmp_path / "out").exists()

    def test_predictions_are_the_models_float32_outputs(self, pipeline):
        _, data, _ = pipeline
        model = load_model(str(data / "final"))
        h = trainer.embed_images(model, data_io.read_features(data / "features.tsv").features)
        with ad.no_grad():
            yp, _ = model.predict_heads(h)
        for name, k, expected in (("yhat_path.tsv", 1, yp.values), ("embeddings.tsv", 2, h)):
            assert expected.dtype == np.float32
            rows = [ln.split("\t")[k:] for ln in (data / name).read_text().splitlines()[1:]]
            assert max(significant_digits(c) for row in rows for c in row) <= 9, name
            written = np.array(rows, dtype=np.float64).astype(np.float32)
            assert written.tobytes() == expected.tobytes(), name

    def test_evaluate_report(self, pipeline, tmp_path):
        _, data, _ = pipeline
        assert run(
            [
                "evaluate",
                "--out-dir", str(tmp_path),
                "--pred", str(data / "yhat_path.tsv"),
                "--truth", str(data / "scores.tsv"),
            ]
        ) == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        assert rep["n_spots"] == 48
        assert rep["n_targets"] == 3
        assert np.isfinite(rep["mse"])

    @pytest.mark.parametrize("case", ["swapped", "one_fewer", "one_more"])
    def test_evaluate_refuses_other_spots(self, pipeline, tmp_path, capsys, case):
        # --pred's spots are looked up in --truth by id: --truth's order and a
        # spot only --truth holds change nothing; a --pred spot it lacks is refused
        _, data, _ = pipeline
        header, *rows = (data / "scores.tsv").read_text().splitlines()
        ids = [r.split("\t")[0] for r in rows]
        if case == "swapped":
            rows[:2] = rows[1::-1]
        elif case == "one_fewer":
            rows.pop()
        else:
            rows.append("extra\t" + rows[0].split("\t", 1)[1])
        truth = tmp_path / "truth.tsv"
        truth.write_text("\n".join([header, *rows]) + "\n")

        def evaluate(truth, out):
            return run(["evaluate", "--out-dir", str(tmp_path / out),
                        "--pred", str(data / "yhat_path.tsv"), "--truth", str(truth)])

        capsys.readouterr()
        if case == "one_fewer":
            assert evaluate(truth, "out") == 1
            assert json.loads(capsys.readouterr().err) == {
                "error": "data_format",
                "message": f"{truth}: spot {ids[47]!r} is missing from the truth table",
            }
            assert not (tmp_path / "out").exists()
            return
        assert evaluate(truth, "out") == 0
        assert evaluate(data / "scores.tsv", "in_order") == 0
        for name in ("report.json", "per_target_pcc.csv"):
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "in_order" / name
            ).read_bytes(), name

    def test_evaluate_refuses_another_width(self, pipeline, tmp_path, capsys):
        # the gene head's 10 columns against the 3 pathway scores of the same spots
        _, data, _ = pipeline
        argv = ["evaluate", "--out-dir", str(tmp_path / "out"),
                "--pred", str(data / "yhat_gene.tsv"), "--truth", str(data / "scores.tsv")]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "data_format",
            "message": f"{data / 'yhat_gene.tsv'}: 10 value columns here but 3 in --truth",
        }
        assert not (tmp_path / "out").exists()

    def test_evaluate_refuses_a_single_spot(self, pipeline, tmp_path, capsys):
        # one spot has no PCC; --pred is the table named
        _, data, _ = pipeline
        for name in ("yhat_path.tsv", "scores.tsv"):
            header, first = (data / name).read_text().splitlines()[:2]
            (tmp_path / name).write_text(f"{header}\n{first}\n")
        argv = ["evaluate", "--out-dir", str(tmp_path / "out"),
                "--pred", str(tmp_path / "yhat_path.tsv"), "--truth", str(tmp_path / "scores.tsv")]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "data_format",
            "message": f"{tmp_path / 'yhat_path.tsv'}: a PCC needs at least 2 spots, "
                       "but this table holds 1",
        }
        assert not (tmp_path / "out").exists()

    def test_survival_train_eval(self, pipeline, tmp_path):
        _, data, _ = pipeline
        cfg = tmp_path / "surv.json"
        cfg.write_text(json.dumps({"survival": {"max_epochs": 5, "patience": 3}}))
        assert run(
            [
                "survival-train",
                "--config", str(cfg),
                "--out-dir", str(tmp_path),
                "--survival", str(data / "survival.csv"),
                "--embeddings", str(data / "survival_embeddings.tsv"),
            ]
        ) == 0
        assert run(
            [
                "survival-eval",
                "--out-dir", str(tmp_path),
                "--checkpoint", str(tmp_path / "cox"),
                "--survival", str(data / "survival.csv"),
                "--embeddings", str(data / "survival_embeddings.tsv"),
            ]
        ) == 0
        rep = json.loads((tmp_path / "survival_report.json").read_text())
        assert 0.0 <= rep["c_index"] <= 1.0
        assert rep["n_subjects"] == 12

    def test_survival_eval_rejects_tampered_checkpoint(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        flags = [
            "--out-dir", str(tmp_path),
            "--survival", str(data / "survival.csv"),
            "--embeddings", str(data / "survival_embeddings.tsv"),
        ]
        cfg = tmp_path / "surv.json"
        cfg.write_text(json.dumps({"survival": {"max_epochs": 2, "patience": 1}}))
        assert run(["survival-train", "--config", str(cfg), *flags]) == 0
        manifest_path = tmp_path / "cox.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"][0]["name"] = "renamed"
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run(["survival-eval", "--checkpoint", str(tmp_path / "cox"), *flags]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "checkpoint_shape"

    @pytest.mark.parametrize("tamper", MANIFEST_TAMPERS)
    @pytest.mark.parametrize("command", ["survival-eval", "predict"])
    def test_malformed_manifest_is_json_error(
        self, pipeline, cox_checkpoint, tmp_path, capsys, command, tamper
    ):
        _, data, _ = pipeline
        source = cox_checkpoint if command == "survival-eval" else data / "final"
        for suffix in (".manifest.json", ".params.bin"):
            (tmp_path / f"ckpt{suffix}").write_bytes(
                source.with_name(source.name + suffix).read_bytes()
            )
        tamper_manifest(tmp_path / "ckpt.manifest.json", tamper)
        inputs = _SURVIVAL if command == "survival-eval" else {"features": "features.tsv"}
        argv = [command, "--checkpoint", str(tmp_path / "ckpt"), "--out-dir", str(tmp_path / "out")]
        argv += _flags(inputs, data)
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "checkpoint_manifest"
        assert not (tmp_path / "out").exists()

    def test_run_cv_two_folds(self, pipeline, tmp_path):
        root, data, cfg_path = pipeline
        assert run(
            [
                "run-cv",
                "--config", str(cfg_path),
                "--out-dir", str(tmp_path),
                "--folds", "2",
                *_flags(_CV_PATHS, data),
            ]
        ) == 0
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert agg["folds"] == 2
        for fold in range(2):
            rep = json.loads((tmp_path / f"fold_{fold}.json").read_text())
            assert rep["n_test_spots"] == 24

    def test_run_cv_fault_in_a_later_fold_writes_nothing(self, pipeline, tmp_path, capsys,
                                                          monkeypatch):
        # stage 2 diverges in fold 1, after fold 0 has finished
        _, data, cfg_path = pipeline
        calls, stage2 = [], trainer.train_stage2

        def diverge_in_fold_1(*args):
            calls.append(len(calls))
            if len(calls) == 2:
                raise TrainingDiverged(0, 0)
            return stage2(*args)

        monkeypatch.setattr(trainer, "train_stage2", diverge_in_fold_1)
        out = tmp_path / "out"
        out.mkdir()
        (out / "fold_0.json").write_text("from an earlier run\n")
        (out / "notes.txt").write_bytes(b"kept\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        argv = ["run-cv", "--config", str(cfg_path), "--out-dir", str(out), "--folds", "2",
                *_flags(_CV_PATHS, data)]
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "training_diverged", "message": "non-finite loss at epoch 0, batch 0"
        }
        assert calls == [0, 1]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_run_cv_more_folds_than_slides(self, pipeline, tmp_path, capsys, monkeypatch):
        # the slides of --coords decide it, before any spot is preprocessed or
        # the gene sets are read
        _, data, cfg_path = pipeline
        monkeypatch.setattr(preprocess, "run_pipeline", lambda *args: pytest.fail("preprocessed"))
        monkeypatch.setattr(data_io, "read_gmt", lambda *args: pytest.fail("gene sets read"))
        out = tmp_path / "out"
        argv = ["run-cv", "--config", str(cfg_path), "--out-dir", str(out), "--folds", "3",
                *_flags(_CV_PATHS, data)]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "usage",
            "message": f"--folds 3: the spots of {data / 'coords.csv'} lie on 2 slides, "
                       "which cannot form 3 slide-disjoint folds",
        }
        assert not out.exists()

    def test_run_cv_refuses_a_single_spot_fold(self, pipeline, tmp_path, capsys, monkeypatch):
        # the last spot alone on a third slide: fold 2 would test one spot, so
        # run-cv stops before the features are read, any spot is preprocessed
        # or any fold trains
        _, data, cfg_path = pipeline
        monkeypatch.setattr(data_io, "read_features", lambda *args: pytest.fail("features read"))
        monkeypatch.setattr(preprocess, "run_pipeline", lambda *args: pytest.fail("preprocessed"))
        monkeypatch.setattr(trainer, "train_stage1", lambda *args: pytest.fail("a fold trained"))
        *lines, last = (data / "coords.csv").read_text().splitlines()
        spot, _, rest = last.split(",", 2)
        coords = tmp_path / "coords.csv"
        coords.write_text("\n".join([*lines, f"{spot},slideX,{rest}"]) + "\n")
        out = tmp_path / "out"
        argv = ["run-cv", "--config", str(cfg_path), "--out-dir", str(out), "--folds", "3",
                *_flags(_CV_PATHS | {"coords": coords}, data)]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "usage",
            "message": f"--folds 3: fold 2 is a single spot of {coords}, "
                       "but scoring a fold needs at least 2",
        }
        assert not out.exists()


def test_preprocess_keeps_zero_count_spot(tmp_path):
    # a spot with no counts and no neighbour stays a zero row, so it is written
    coords = [data_io.SpotGeometry(f"s{i}", "a", 100.0 * (i % 4), 100.0 * (i // 4), i // 4, i % 4)
              for i in range(16)] + [data_io.SpotGeometry("z", "b", 0.0, 0.0, 0, 0)]
    counts = np.vstack([np.random.default_rng(0).poisson(3, size=(16, 5)) + 1, np.zeros((1, 5))])
    ids = [g.spot_id for g in coords]
    expr = data_io.ExpressionMatrix(ids, [f"g{j}" for j in range(5)], counts)
    data_io.write_expression(expr, tmp_path / "expression.tsv")
    data_io.write_coords(coords, tmp_path / "coords.csv")
    (tmp_path / "c.json").write_text(json.dumps({"preprocess": {"min_spots_per_gene": 1}}))
    assert run(["preprocess", "--config", str(tmp_path / "c.json"), "--out-dir", str(tmp_path),
                "--expression", str(tmp_path / "expression.tsv"),
                "--coords", str(tmp_path / "coords.csv")]) == 0
    for name in ("normalized.tsv", "hvg.tsv"):
        m = data_io.parse_expression(tmp_path / name, value_kind=data_io.NORMALIZED_LOG)
        assert m.spot_ids == ids and not m.dense()[-1].any(), name


def test_preprocess_grid_rows_past_int64(tmp_path):
    # a grid moved 10**20 rows away smooths as it does in place: no int64 key
    counts = np.random.default_rng(1).poisson(3, size=(9, 4)) + 1
    ids = [f"s{i}" for i in range(9)]
    expr = data_io.ExpressionMatrix(ids, [f"g{j}" for j in range(4)], counts)
    data_io.write_expression(expr, tmp_path / "expression.tsv")
    (tmp_path / "c.json").write_text(json.dumps({"preprocess": {"min_spots_per_gene": 1}}))
    for shift in (0, 10**20):
        coords = tmp_path / f"coords_{shift}.csv"
        data_io.write_coords([data_io.SpotGeometry(s, "a", float(i % 3), float(i // 3),
                                                   shift + i // 3, i % 3)
                              for i, s in enumerate(ids)], coords)
        assert run(["preprocess", "--config", str(tmp_path / "c.json"),
                    "--out-dir", str(tmp_path / str(shift)),
                    "--expression", str(tmp_path / "expression.tsv"),
                    "--coords", str(coords)]) == 0
    for name in ("normalized.tsv", "hvg.tsv"):
        assert (tmp_path / "0" / name).read_bytes() == (tmp_path / str(10**20) / name).read_bytes()


def test_preprocess_keeps_genes_of_synth_at_defaults(tmp_path):
    assert run(["synth", "--out-dir", str(tmp_path)]) == 0
    assert run(["preprocess", "--out-dir", str(tmp_path / "work"),
                "--expression", str(tmp_path / "expression.tsv"),
                "--coords", str(tmp_path / "coords.csv")]) == 0
    assert (tmp_path / "work" / "hvg_genes.txt").read_text().strip()


def test_preprocess_refuses_a_filter_that_keeps_no_gene(pipeline, tmp_path, capsys):
    _, data, _ = pipeline
    (tmp_path / "c.json").write_text(json.dumps({"preprocess": {"min_spots_per_gene": 1000}}))
    m = data_io.parse_expression(data / "expression.tsv")
    most = np.count_nonzero(m.dense(), axis=0).max()
    capsys.readouterr()
    assert run(["preprocess", "--config", str(tmp_path / "c.json"),
                "--out-dir", str(tmp_path / "out"),
                "--expression", str(data / "expression.tsv"),
                "--coords", str(data / "coords.csv")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "config",
        "message": "no gene is nonzero in preprocess.min_spots_per_gene = 1000 spots: the "
                   f"matrix has 48 spots, and the most spots any gene is nonzero in is {most}",
    }
    assert not (tmp_path / "out").exists()


def test_preprocess_spot_missing_from_coords(pipeline, tmp_path, capsys):
    _, data, cfg_path = pipeline
    lines = (data / "coords.csv").read_text().splitlines()
    dropped = lines[5].split(",")[0]
    coords = tmp_path / "coords.csv"
    coords.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
    capsys.readouterr()
    assert run(["preprocess", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                "--expression", str(data / "expression.tsv"), "--coords", str(coords)]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "data_format", "message": f"spot {dropped!r} is missing from the coords table"
    }
    assert not (tmp_path / "out").exists()


def _strict_json(path):
    """Parse `path` as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(name):
        raise ValueError(f"{path.name}: non-standard constant {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


class TestUndefinedMetrics:
    """An undefined metric (the PCC of a constant column) is a result: the
    command exits 0 and the JSON report holds null."""

    def test_evaluate_constant_truth(self, tmp_path):
        ids, names = [f"s{i}" for i in range(4)], ["A", "B"]
        pred = np.arange(8.0).reshape(4, 2)
        data_io.write_scores(data_io.PathwayScoreMatrix(ids, names, pred), tmp_path / "p.tsv")
        truth = np.ones((4, 2))
        data_io.write_scores(data_io.PathwayScoreMatrix(ids, names, truth), tmp_path / "t.tsv")
        argv = ["evaluate", "--out-dir", str(tmp_path),
                "--pred", str(tmp_path / "p.tsv"), "--truth", str(tmp_path / "t.tsv")]
        assert run(argv) == 0
        rep = _strict_json(tmp_path / "report.json")
        assert rep["mean_pcc"] is None
        assert rep["n_undefined_pcc"] == 2
        assert rep["mse"] == float(((pred - truth) ** 2).mean())

    def test_run_cv_constant_predictions(self, pipeline, tmp_path, monkeypatch):
        _, data, cfg_path = pipeline
        evaluate = cli.evaluate_expression
        monkeypatch.setattr(
            cli, "evaluate_expression", lambda pred, truth: evaluate(np.zeros_like(pred), truth)
        )
        argv = ["run-cv", "--config", str(cfg_path),
                "--out-dir", str(tmp_path), "--folds", "2", *_flags(_CV_PATHS, data)]
        assert run(argv) == 0
        for fold in range(2):
            rep = _strict_json(tmp_path / f"fold_{fold}.json")
            assert rep["pathway"]["mean_pcc"] is None and rep["gene"]["mean_pcc"] is None
        agg = _strict_json(tmp_path / "aggregate.json")
        assert agg["pathway"]["mean_pcc"] == {"mean": None, "std": None}
        assert agg["pathway"]["mse"]["mean"] > 0


@pytest.fixture(scope="module")
def cox_checkpoint(pipeline, tmp_path_factory):
    _, data, _ = pipeline
    out = tmp_path_factory.mktemp("cox")
    cfg = out / "surv.json"
    cfg.write_text(json.dumps({"survival": {"max_epochs": 2, "patience": 1}}))
    assert run(
        [
            "survival-train",
            "--config", str(cfg),
            "--out-dir", str(out),
            "--survival", str(data / "survival.csv"),
            "--embeddings", str(data / "survival_embeddings.tsv"),
        ]
    ) == 0
    return out / "cox"


_DATASET = {
    "scores": "scores.tsv", "coords": "coords.csv", "features": "features.tsv", "hvg": "hvg.tsv"
}
_SURVIVAL = {"survival": "survival.csv", "embeddings": "survival_embeddings.tsv"}
_CV_PATHS = {
    "expression": "expression.tsv",
    "coords": "coords.csv",
    "gene_sets": "gene_sets.gmt",
    "features": "features.tsv",
}


def _flags(files, directory=""):
    """Input flags naming `files` ({flag: file}) in `directory`, a file given
    by its absolute path as it is: {"gene_sets": "x.gmt"} gives
    ["--gene-sets", "<directory>/x.gmt"]."""
    return [x for k, file in files.items()
            for x in (f"--{k.replace('_', '-')}", os.path.join(directory, file))]


# every subcommand that reads files: its inputs (flag -> file in the pipeline's
# data directory), the table input that the failures are injected into, and
# the column of the cell made malformed
FILE_COMMANDS = {
    "preprocess": ({"expression": "expression.tsv", "coords": "coords.csv"}, "expression", 2),
    "score-pathways": (
        {"expression": "normalized.tsv", "gene_sets": "gene_sets.gmt"}, "expression", 2
    ),
    "train-contrastive": (_DATASET, "scores", 1),
    "train-heads": ({"checkpoint": "stage1", **_DATASET}, "features", 1),
    "predict": ({"checkpoint": "final", "features": "features.tsv"}, "features", 1),
    "evaluate": ({"pred": "yhat_path.tsv", "truth": "scores.tsv"}, "pred", 1),
    "survival-train": (_SURVIVAL, "embeddings", 2),
    "survival-eval": ({"checkpoint": "cox", **_SURVIVAL}, "survival", 1),
    "run-cv": (_CV_PATHS, "features", 1),
}


class TestCohort:
    def test_interleaved_slide_rows_match_per_bag_reference(self, tmp_path):
        # subject a lists slides a2;a1 whose rows interleave with b's and c's,
        # as `predict --emit-embeddings` writes rows in feature-file order
        spots = ["a2_0", "b_0", "a1_0", "a2_1", "c_0", "a1_1", "b_1", "a2_2"]
        slides = [s.split("_")[0] for s in spots]
        values = np.random.default_rng(0).normal(size=(8, 4))
        data_io.write_embeddings(spots, slides, values, tmp_path / "emb.tsv")
        data_io.write_survival(
            data_io.SurvivalTable([
                data_io.SurvivalRecord("a", 1.0, True, ("a2", "a1")),
                data_io.SurvivalRecord("b", 2.0, True, ("b",)),
                data_io.SurvivalRecord("c", 3.0, False, ("c",)),
            ]),
            tmp_path / "surv.csv",
        )
        inputs = [
            "--survival", str(tmp_path / "surv.csv"), "--embeddings", str(tmp_path / "emb.tsv")
        ]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"survival": {"max_epochs": 3, "patience": 1}}))
        argv = ["survival-train", "--config", str(cfg), "--out-dir", str(tmp_path), *inputs]
        assert run(argv) == 0

        E, sizes, times, events = cli._load_cohort(
            argparse.Namespace(survival=inputs[1], embeddings=inputs[3])
        )
        bags = [values[[0, 3, 7, 2, 5]], values[[1, 6]], values[[4]]]  # slides as listed
        assert E.dtype == np.float32 and list(sizes) == [5, 2, 1]
        assert E.tobytes() == np.concatenate(bags).astype(np.float32).tobytes()
        assert times.tolist() == [1.0, 2.0, 3.0] and events.tolist() == [True, True, False]
        head = survival.load_cox(str(tmp_path / "cox"))
        expected = [survival.predict_risks(head, bag, [len(bag)])[0] for bag in bags]
        np.testing.assert_allclose(survival.predict_risks(head, E, sizes), expected, atol=1e-6)

    def test_rows_in_subject_order_are_not_gathered(self, tmp_path, monkeypatch):
        read, tables = cli._read_slide_embeddings, []

        def recorded(path):
            tables.append(read(path))
            return tables[-1]

        monkeypatch.setattr(cli, "_read_slide_embeddings", recorded)
        inputs = self._cohort(tmp_path / "c", [1.0, 2.0, 3.0], [True, False, True])
        E = cli._load_cohort(argparse.Namespace(survival=inputs[1], embeddings=inputs[3]))[0]
        assert E is tables[0][1] and E.dtype == np.float32

    def test_peak_memory_at_benchmark_shape(self, benchmark_inputs, tmp_path):
        # one epoch of survival-train in process; five peak no higher.
        # Measured 17.8 MiB with the table read as float64 rows, then cast and
        # gathered, the attention's first layer a matmul and an add node and
        # tanh's backward making two (N, 128) temporaries; 13.5 MiB with
        # float32 blocks, one affine node and the one-temporary backward;
        # 9.4 MiB with backward dropping intermediate values, tanh's backward
        # writing into its output and the pooling backward making no (N, d)
        # array.  Any one of those three undone alone reads 11.0-11.3 MiB.
        # 5.60 MiB with the attention logits computed in blocks of 512 spots
        # by `autodiff.row_blocks`, which keeps no (N, 128) activation.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"survival": {"max_epochs": 1, "patience": 1}}))
        argv = ["survival-train", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                *_benchmark_flags(benchmark_inputs, "cohort")]
        code, peak = traced_peak(run, argv)
        assert code == 0
        assert peak < peak_bound("survival-train, one epoch, benchmark cohort", peak, 6.25)

    def test_read_peak_memory_at_benchmark_shape(self, benchmark_inputs):
        # the cohort's float32 embedding read on its own: the table is 4.1
        # MiB.  Measured 8.9 MiB with the blocks joined a MiB at a time, 5.2
        # MiB filling one preallocated array.
        path = benchmark_inputs("cohort") / "train_embeddings.tsv"
        (rows, table), peak = traced_peak(data_io.read_slide_embeddings, path)
        assert table.shape == (4216, 256) and len(rows) == 160
        assert peak < peak_bound("read_slide_embeddings, benchmark cohort", peak, 6)

    def test_eval_peak_memory_at_benchmark_shape(self, benchmark_inputs, tmp_path):
        # survival-eval with an untrained Cox head of the default sizes, on
        # the training cohort, the larger of the benchmark's two.  Measured
        # 8.44 MiB, reading the checkpoint whole or one parameter at a time:
        # the float32 table and the pooled forward set the peak.  5.35 MiB
        # with the attention logits computed in blocks of 512 spots.
        survival.save_cox(survival.CoxHead(), str(tmp_path / "cox"))
        argv = ["survival-eval", "--checkpoint", str(tmp_path / "cox"),
                "--out-dir", str(tmp_path / "out"), *_benchmark_flags(benchmark_inputs, "cohort")]
        code, peak = traced_peak(run, argv)
        assert code == 0
        assert peak < peak_bound("survival-eval, benchmark cohort", peak, 6)

    @pytest.mark.parametrize(
        "listed, message",
        [
            (lambda i: (f"sl{i}", f"typo{i}"), "subject 'p0': no embeddings for slide 'typo0'"),
            (lambda i: (), "line 2: subject 'p0' lists no slide"),
        ],
        ids=["slide_without_embeddings", "no_slide"],
    )
    def test_listed_slides_must_have_embeddings(self, tmp_path, capsys, listed, message):
        # every subject lists a second slide that the embedding table lacks, or none
        n = 6
        emb, surv = tmp_path / "emb.tsv", tmp_path / "surv.csv"
        data_io.write_embeddings(
            [f"sl{i // 2}_{i % 2}" for i in range(2 * n)],
            [f"sl{i // 2}" for i in range(2 * n)],
            np.random.default_rng(0).normal(size=(2 * n, 4)),
            emb,
        )
        data_io.write_survival(
            data_io.SurvivalTable([
                data_io.SurvivalRecord(f"p{i}", float(i + 1), i % 2 == 0, listed(i))
                for i in range(n)
            ]),
            surv,
        )
        argv = ["survival-train", "--out-dir", str(tmp_path / "out"),
                "--survival", str(surv), "--embeddings", str(emb)]
        capsys.readouterr()
        assert run(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "data_format", "message": f"{surv}: {message}"}
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _cohort(directory, times, events):
        """survival-train's input flags on a cohort of one 4-wide spot per
        subject, written to `directory`."""
        directory.mkdir()
        n = len(times)
        data_io.write_embeddings([f"sl{i}_0" for i in range(n)], [f"sl{i}" for i in range(n)],
                                 np.random.default_rng(0).normal(size=(n, 4)),
                                 directory / "emb.tsv")
        data_io.write_survival(
            data_io.SurvivalTable([
                data_io.SurvivalRecord(f"p{i}", t, e, (f"sl{i}",))
                for i, (t, e) in enumerate(zip(times, events))
            ]),
            directory / "surv.csv",
        )
        return ["--survival", str(directory / "surv.csv"),
                "--embeddings", str(directory / "emb.tsv")]

    @pytest.mark.parametrize(
        "command, times, events, message",
        [
            ("survival-train", [1.0], [True], "the Cox loss needs at least 2 subjects"),
            ("survival-eval", [1.0], [True], "the Cox loss needs at least 2 subjects"),
            ("survival-train", [1.0, 2.0, 3.0], [False] * 3,
             "the Cox loss needs at least one event"),
            ("survival-eval", [1.0, 2.0, 3.0], [False] * 3,
             "the Cox loss needs at least one event"),
            # the one event is at the latest time, so no subject outlives it
            ("survival-eval", [3.0, 1.0, 2.0], [True, False, False], "no comparable pairs"),
        ],
        ids=["train-one_subject", "eval-one_subject", "train-all_censored", "eval-all_censored",
             "eval-no_comparable_pair"],
    )
    def test_cohort_it_cannot_score_refused(
        self, tmp_path, capsys, command, times, events, message
    ):
        argv = [command, "--out-dir", str(tmp_path / "out"),
                *self._cohort(tmp_path / "bad", times, events)]
        if command == "survival-eval":
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"survival": {"max_epochs": 2, "patience": 1}}))
            good = self._cohort(tmp_path / "good", [1.0, 2.0, 3.0], [True, True, False])
            train = ["survival-train", "--config", str(cfg), "--out-dir", str(tmp_path / "ckpt")]
            assert run([*train, *good]) == 0
            argv += ["--checkpoint", str(tmp_path / "ckpt" / "cox")]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "data_format", "message": f"{tmp_path / 'bad' / 'surv.csv'}: {message}"
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old", ["kind", "biases"])
    def test_old_cox_checkpoint_refused(self, pipeline, cox_checkpoint, tmp_path, capsys, old):
        # Cox checkpoints used to carry a `kind` hyperparameter and the two
        # output biases attn.b2 and risk.b
        _, data, _ = pipeline
        manifest = json.loads(cox_checkpoint.with_name("cox.manifest.json").read_text())
        blob = cox_checkpoint.with_name("cox.params.bin").read_bytes()
        if old == "kind":
            manifest["hyperparams"]["kind"] = "cox_head"
        else:
            manifest["params"] += [
                {"name": "attn.b2", "shape": [1]}, {"name": "risk.b", "shape": [1]}
            ]
            blob += bytes(8)
        (tmp_path / "ckpt.manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "ckpt.params.bin").write_bytes(blob)
        argv = ["survival-eval", "--checkpoint", str(tmp_path / "ckpt")]
        argv += _flags(_SURVIVAL, data)
        capsys.readouterr()
        assert run([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        reason = {"kind": "unknown hyperparameter 'kind'",
                  "biases": "parameter names do not match the declared hyperparameters"}[old]
        assert json.loads(capsys.readouterr().err) == {
            "error": "checkpoint_shape", "message": f"{tmp_path / 'ckpt'}.manifest.json: {reason}"
        }
        assert not (tmp_path / "out").exists()


# the benchmark's input files the commands here read: {name: (workload,
# {flag: file})}
_BENCHMARK_FILES = {
    # 160 subjects, each with one slide of 4 to 48 spots: 4216 x 256 float32
    "cohort": ("cohort", {"survival": "train_survival.csv",
                          "embeddings": "train_embeddings.tsv"}),
    # 300 spots x 300 genes, and a config of 100 HVGs and 30 null sets
    "panel": ("score-panel", {"config": "config.json", "expression": "expression.tsv",
                              "coords": "coords.csv"}),
    # 400 spots on 2 slides: 20 pathway scores, 64 features, 100 HVG values
    "training": ("train-infer", {"scores": "train_scores.tsv", "coords": "coords.csv",
                                 "features": "train_features.tsv", "hvg": "train_hvg.tsv"}),
    # 2000 held-out spots on 10 slides
    "heldout": ("train-infer", {"features": "heldout_features.tsv", "coords": "coords.csv"}),
}


def _benchmark_flags(benchmark_inputs, name):
    """Input flags on the benchmark files `_BENCHMARK_FILES[name]` lists."""
    workload, files = _BENCHMARK_FILES[name]
    return _flags(files, benchmark_inputs(workload))


def _score_pathways_flags(benchmark_inputs, out):
    """score-pathways' flags as the benchmark score-panel runs it, once its
    preprocess has run into `out`."""
    assert run(["preprocess", "--out-dir", str(out),
                *_benchmark_flags(benchmark_inputs, "panel")]) == 0
    d = benchmark_inputs("score-panel")
    return ["--config", str(d / "config.json"), "--seed", str(BENCHMARK_SEED), "--threads", "2",
            "--expression", str(out / "normalized.tsv"), "--gene-sets", str(d / "gene_sets.gmt")]


@pytest.fixture
def untrained_stage1(train_infer_model, tmp_path):
    """An untrained stage-1 checkpoint of the model train-infer trains; the
    benchmark trains its own."""
    save_model(train_infer_model, str(tmp_path / "stage1"))
    return str(tmp_path / "stage1")


class TestScorePanelMemory:
    def test_preprocess_peak_memory_at_benchmark_shape(self, benchmark_inputs, tmp_path):
        # Measured 5.12-5.15 MiB: the expression parse sets the peak.
        argv = ["preprocess", "--out-dir", str(tmp_path / "out"),
                *_benchmark_flags(benchmark_inputs, "panel")]
        code, peak = traced_peak(run, argv)
        assert code == 0
        assert peak < peak_bound("preprocess, benchmark score-panel", peak, 6)

    def test_score_pathways_peak_memory_at_benchmark_shape(self, benchmark_inputs, tmp_path):
        # Measured 8.75 MiB with fixed 256-spot chunks, whose float64 blocks
        # of ES over every pathway and null set set the peak; 5.02 MiB with
        # chunks of 128 KiB blocks, where the expression parse sets it.
        out = tmp_path / "out"
        argv = ["score-pathways", "--out-dir", str(out),
                *_score_pathways_flags(benchmark_inputs, out)]
        code, peak = traced_peak(run, argv)
        assert code == 0
        assert peak < peak_bound("score-pathways, benchmark score-panel", peak, 5.75)


class TestTrainInferMemory:
    def test_train_heads_peak_memory_at_benchmark_shape(
        self, benchmark_inputs, untrained_stage1, tmp_path
    ):
        # 2 epochs, the fewest a TrainConfig allows.  Measured 13.68 MiB,
        # reading the checkpoint whole or one parameter at a time: stage-2
        # training sets the peak.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {"max_epochs": 2, "patience": 1}}))
        argv = ["train-heads", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
                "--checkpoint", untrained_stage1, *_benchmark_flags(benchmark_inputs, "training")]
        code, peak = traced_peak(run, argv)
        assert code == 0
        assert peak < peak_bound("train-heads, two epochs, benchmark train-infer", peak, 15.5)

    def test_predict_peak_memory_at_benchmark_shape(
        self, benchmark_inputs, untrained_stage1, tmp_path
    ):
        # Measured 18.51 MiB, reading the checkpoint whole or one parameter at
        # a time: the heads' forward over all 2000 rows at once sets the peak.
        # 9.86 MiB with the image branch and each head run on blocks of 512
        # rows by `autodiff.row_blocks`, and gelu writing its output over its
        # tanh when no graph is recorded.
        argv = ["predict", "--out-dir", str(tmp_path / "out"), "--checkpoint", untrained_stage1,
                "--emit-embeddings", *_benchmark_flags(benchmark_inputs, "heldout")]
        code, peak = traced_peak(run, argv)
        assert code == 0
        assert peak < peak_bound("predict, benchmark train-infer", peak, 11)


@pytest.mark.parametrize("command", ["survival-train", "score-pathways", "train-contrastive",
                                     "train-heads", "predict"])
def test_outputs_do_not_depend_on_the_blas_thread_count(
    command, benchmark_inputs, untrained_stage1, tmp_path
):
    # each command on its benchmark workload's inputs in two processes, BLAS
    # at 1 and at 2 threads (OpenBLAS reads the setting at import), every
    # output compared.  Training runs two epochs, since fit restores the
    # values the best epoch started from: after one, the initial weights.
    # With the Cox attention layer's weight gradients summed over all 4216
    # spots at once, cox.params.bin differed here.
    if command == "score-pathways":
        argv = _score_pathways_flags(benchmark_inputs, tmp_path / "pre")
    elif command == "predict":
        argv = ["--checkpoint", untrained_stage1, "--emit-embeddings",
                *_benchmark_flags(benchmark_inputs, "heldout")]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"survival": {"max_epochs": 2, "patience": 2},
                                   "train": {"max_epochs": 2, "patience": 1}}))
        inputs = "cohort" if command == "survival-train" else "training"
        argv = ["--config", str(cfg), *_benchmark_flags(benchmark_inputs, inputs)]
        if command == "train-heads":
            argv += ["--checkpoint", untrained_stage1]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "pearl.cli", command, *argv,
                               "--out-dir", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


# each command that hands a table to a float32 model, that table, and the
# column of its value cells
FLOAT32_TABLES = [
    ("train-contrastive", "scores", 1),
    ("train-contrastive", "features", 1),
    ("train-contrastive", "hvg", 2),
    ("train-heads", "hvg", 2),
    ("predict", "features", 1),
    ("run-cv", "features", 1),
    ("survival-train", "embeddings", 2),
    ("survival-eval", "embeddings", 2),
]


@pytest.mark.parametrize("command, table, column", FLOAT32_TABLES,
                         ids=[f"{c}-{t}" for c, t, _ in FLOAT32_TABLES])
def test_value_beyond_float32_refused(pipeline, cox_checkpoint, tmp_path, command, table, column):
    # 1e300 is a finite float64 that float32 rounds to inf
    _, data, _ = pipeline
    inputs = FILE_COMMANDS[command][0]
    paths = {k: str(cox_checkpoint if name == "cox" else data / name) for k, name in inputs.items()}
    lines = (data / inputs[table]).read_text().splitlines()
    cells = lines[1].split("\t")
    cells[column] = "1e300"
    lines[1] = "\t".join(cells)
    broken = tmp_path / inputs[table]
    broken.write_text("\n".join(lines) + "\n")
    paths[table] = str(broken)
    argv = [sys.executable, "-m", "pearl.cli", command, "--out-dir", str(tmp_path / "out"),
            *_flags(paths)]
    if command == "run-cv":  # the fixture's 2 slides: the default 5 folds are refused first
        argv += ["--folds", "2"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1  # no numpy overflow warning
    assert json.loads(proc.stderr) == {
        "error": "data_format",
        "message": f"{broken}: spot {cells[0]!r}: value 1e+300 is beyond float32's range",
    }
    assert not (tmp_path / "out").exists()


class TestFailureInjection:
    @pytest.mark.parametrize("kind", ["missing", "malformed", "empty", "unknown_field"])
    @pytest.mark.parametrize("command", list(FILE_COMMANDS))
    def test_exits_1_with_json_error(
        self, pipeline, cox_checkpoint, tmp_path, capsys, command, kind
    ):
        _, data, _ = pipeline
        inputs, target, column = FILE_COMMANDS[command]
        paths = {
            k: str(cox_checkpoint if name == "cox" else data / name) for k, name in inputs.items()
        }
        broken = tmp_path / inputs[target]
        if kind == "missing":
            broken = tmp_path / "absent" / inputs[target]
        elif kind == "empty":
            broken.write_text("")
        elif kind == "malformed":
            # a bad cell on the 4th non-blank line, pushed to physical line 6
            sep = "," if broken.suffix == ".csv" else "\t"
            lines = (data / inputs[target]).read_text().splitlines()
            fields = lines[3].split(sep)
            fields[column] = "abc"
            lines[3] = sep.join(fields)
            broken.write_text("\n".join([lines[0], "", "", *lines[1:]]) + "\n")
        if kind != "unknown_field":
            paths[target] = str(broken)
        # a command that reads no config does not declare --config
        reads_config = "--config" in FLAGS[command]
        cfg = {"train": {"bogus": 1}} if kind == "unknown_field" else {}
        argv = [command, "--out-dir", str(tmp_path / "out"), *_flags(paths)]
        if command == "run-cv":
            argv += ["--folds", "2"]
        if cfg:
            (tmp_path / "c.json").write_text(json.dumps(cfg))
            argv += ["--config", str(tmp_path / "c.json")]
        capsys.readouterr()
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
        if kind == "missing":
            assert err["error"] == "io" and str(broken) in err["message"]
        elif kind == "malformed":
            assert err["error"] == "data_format" and f"{broken}: line 6:" in err["message"]
        elif kind == "unknown_field" and reads_config:
            assert err["error"] == "config" and "train.bogus" in err["message"]
        elif kind == "unknown_field":
            assert err["error"] == "usage" and "unrecognized arguments: --config" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["predict", "train-heads", "survival-eval"])
    def test_missing_checkpoint_is_io_error(self, pipeline, tmp_path, capsys, command):
        # the manifest is opened like any other input
        _, data, _ = pipeline
        inputs, _, _ = FILE_COMMANDS[command]
        argv = [command, "--out-dir", str(tmp_path / "out"),
                "--checkpoint", str(tmp_path / "absent")]
        argv += _flags({k: v for k, v in inputs.items() if k != "checkpoint"}, data)
        capsys.readouterr()
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and f"{tmp_path / 'absent'}.manifest.json" in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["predict", "train-heads", "survival-eval"])
    def test_unopenable_blob_is_io_error(self, pipeline, tmp_path, capsys, command, kind):
        # a sound manifest beside a blob that cannot be opened as a file
        _, data, _ = pipeline
        inputs, _, _ = FILE_COMMANDS[command]
        ckpt = str(tmp_path / "ckpt")
        source = data_io.manifest_of(str(data / inputs["checkpoint"]))
        Path(data_io.manifest_of(ckpt)).write_bytes(Path(source).read_bytes())
        blob = Path(data_io.blob_of(ckpt))
        if kind == "directory":
            blob.mkdir()
        argv = [command, "--out-dir", str(tmp_path / "out"), "--checkpoint", ckpt]
        argv += _flags({k: v for k, v in inputs.items() if k != "checkpoint"}, data)
        capsys.readouterr()
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io" and str(blob) in err["message"]
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _train_on_coords(pipeline, tmp_path, x_by_line):
        """train-contrastive in a child process on the pipeline's coordinates
        with the x of some lines replaced; returns (coords path, its lines
        as fields, the finished process)."""
        _, data, cfg_path = pipeline
        lines = [line.split(",") for line in (data / "coords.csv").read_text().splitlines()]
        for k, x in x_by_line.items():
            lines[k][2] = x
        coords = tmp_path / "coords.csv"
        coords.write_text("".join(",".join(fields) + "\n" for fields in lines))
        argv = [sys.executable, "-m", "pearl.cli", "train-contrastive", "--config", str(cfg_path),
                "--out-dir", str(tmp_path / "out"), *_flags(_DATASET | {"coords": coords}, data)]
        return coords, lines, subprocess.run(argv, capture_output=True, text=True)

    def test_non_finite_coordinate_refused(self, pipeline, tmp_path):
        coords, lines, proc = self._train_on_coords(pipeline, tmp_path, {2: "nan"})
        assert proc.returncode == 1
        # one JSON object and nothing else: no numpy warning from a NaN downstream
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {
            "error": "data_format",
            "message": f"{coords}: line 3: non-finite coordinate (nan, {lines[2][3]})",
        }
        assert not (tmp_path / "out").exists()

    def test_overflowing_coordinate_spread_refused(self, pipeline, tmp_path):
        # finite x = +-1e308 overflow the sample std, which would scale every x to 0
        coords, _, proc = self._train_on_coords(pipeline, tmp_path, {1: "1e308", 2: "-1e308"})
        assert proc.returncode == 1
        assert proc.stderr.count("\n") == 1  # no numpy overflow warning
        assert json.loads(proc.stderr) == {
            "error": "data_format",
            "message": f"{coords}: degenerate coordinate axis (zero or non-finite variance)",
        }
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _refused(pipeline, tmp_path, capsys, command, **paths):
        """The JSON error of `command` in process, on the pipeline's inputs with
        the files `paths` (flag -> path) in their place, asserting that it
        exits 1 and writes no output."""
        _, data, cfg_path = pipeline
        argv = [command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]
        argv += _flags(FILE_COMMANDS[command][0] | paths, data)
        if command == "run-cv":
            argv += ["--folds", "2"]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        return json.loads(err)

    @pytest.mark.parametrize("command", ["preprocess", "score-pathways", "run-cv"])
    def test_header_only_expression_refused(self, pipeline, tmp_path, capsys, command):
        # a valid 0 x 0 matrix to the reader, but no spot to process
        table = tmp_path / "expression.tsv"
        table.write_text("spot\tgene\tvalue\n")
        assert self._refused(pipeline, tmp_path, capsys, command, expression=table) == {
            "error": "data_format", "message": f"{table}: expression matrix has no spots"
        }

    @pytest.mark.parametrize("command", ["score-pathways", "run-cv"])
    def test_gene_sets_sharing_no_gene_refused(self, pipeline, tmp_path, capsys, command):
        gmt = tmp_path / "gene_sets.gmt"
        gmt.write_text("A\tna\tnot_a_gene\tnor_this\nB\tna\tnone_here\n")
        assert self._refused(pipeline, tmp_path, capsys, command, gene_sets=gmt) == {
            "error": "data_format", "message": f"{gmt}: no pathway overlaps the measured genes"
        }

    @pytest.mark.parametrize("command", ["train-contrastive", "run-cv"])
    def test_constant_coordinate_axis_refused(self, pipeline, tmp_path, capsys, command):
        # the normalizer fitted on the training split cannot scale a constant x
        _, data, _ = pipeline
        lines = [ln.split(",") for ln in (data / "coords.csv").read_text().splitlines()]
        for fields in lines[1:]:
            fields[2] = "7.5"
        coords = tmp_path / "coords.csv"
        coords.write_text("".join(",".join(fields) + "\n" for fields in lines))
        assert self._refused(pipeline, tmp_path, capsys, command, coords=coords) == {
            "error": "data_format",
            "message": f"{coords}: degenerate coordinate axis (zero or non-finite variance)",
        }

    def test_run_cv_spot_missing_from_features(self, pipeline, tmp_path, capsys):
        _, data, cfg_path = pipeline
        lines = (data / "features.tsv").read_text().splitlines()
        dropped = lines[5].split("\t")[0]
        features = tmp_path / "features.tsv"
        features.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        capsys.readouterr()
        argv = ["run-cv", "--config", str(cfg_path), "--out-dir", str(tmp_path), "--folds", "2",
                *_flags(_CV_PATHS | {"features": features}, data)]
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "data_format",
            "message": f"spot {dropped!r} is missing from the features table",
        }

    @pytest.mark.parametrize("table", ["coords", "features", "hvg"])
    def test_spot_missing_from_a_training_table_named(self, pipeline, tmp_path, capsys, table):
        self._train_without_a_spot(pipeline, tmp_path, capsys, table, ["train-contrastive"])

    def test_train_heads_spot_missing_from_hvg(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        argv = ["train-heads", "--checkpoint", str(data / "stage1")]
        self._train_without_a_spot(pipeline, tmp_path, capsys, "hvg", argv)

    @staticmethod
    def _train_without_a_spot(pipeline, tmp_path, capsys, table, argv):
        """Run `argv` on the pipeline's dataset with one scored spot dropped from
        `table`; it must fail naming the spot and the table, writing nothing."""
        _, data, cfg_path = pipeline
        dropped = data_io.read_scores(data / "scores.tsv").spot_ids[3]
        sep = "," if table == "coords" else "\t"
        lines = (data / _DATASET[table]).read_text().splitlines()
        broken = tmp_path / _DATASET[table]
        broken.write_text("".join(ln + "\n" for ln in lines if ln.split(sep)[0] != dropped))
        argv = [*argv, "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                *_flags(_DATASET | {table: broken}, data)]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "data_format",
            "message": f"spot {dropped!r} is missing from the {table} table",
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("table, size", [
        ("scores", "n_pathways"), ("hvg", "n_genes"), ("features", "d_img"),
    ])
    def test_train_heads_refuses_a_table_the_checkpoint_does_not_fit(
        self, pipeline, tmp_path, capsys, table, size
    ):
        _, data, cfg_path = pipeline
        lines = (data / _DATASET[table]).read_text().splitlines()
        if table == "hvg":  # every cell of the last gene goes
            gene = lines[-1].split("\t")[1]
            lines = [ln for ln in lines if ln.split("\t")[1] != gene]
        else:  # the last column goes
            lines = [ln.rsplit("\t", 1)[0] for ln in lines]
        broken = tmp_path / _DATASET[table]
        broken.write_text("\n".join(lines) + "\n")
        checkpoint = data / "stage1"
        fitted = getattr(load_model(str(checkpoint)).config, size)
        argv = ["train-heads", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                "--checkpoint", str(checkpoint), *_flags(_DATASET | {table: broken}, data)]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "data_format",
            "message": f"{broken}: {size} is {fitted - 1} here but {fitted} in checkpoint "
                       f"{checkpoint}",
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, table, size", [
        ("predict", "features", "d_img"), ("survival-eval", "embeddings", "embed_dim"),
    ])
    def test_table_the_checkpoint_does_not_fit_is_named(
        self, pipeline, cox_checkpoint, tmp_path, capsys, command, table, size
    ):
        _, data, _ = pipeline
        paths = {"features": "features.tsv"} if command == "predict" else dict(_SURVIVAL)
        broken = tmp_path / paths[table]
        broken.write_text("".join(
            ln.rsplit("\t", 1)[0] + "\n" for ln in (data / paths[table]).read_text().splitlines()
        ))
        if command == "predict":
            checkpoint = data / "final"
            fitted = getattr(load_model(str(checkpoint)).config, size)
        else:
            checkpoint = cox_checkpoint
            fitted = getattr(survival.load_cox(str(checkpoint)), size)
        argv = [command, "--out-dir", str(tmp_path / "out"), "--checkpoint", str(checkpoint),
                *_flags(paths | {table: broken}, data)]
        capsys.readouterr()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "data_format",
            "message": f"{broken}: {size} is {fitted - 1} here but {fitted} in checkpoint "
                       f"{checkpoint}",
        }
        assert not (tmp_path / "out").exists()


class TestErrors:
    def test_unknown_config_field_named(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {"learning_rate": 0.1}}))
        proc = subprocess.run(
            [sys.executable, "-m", "pearl.cli", "synth", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert err["error"] == "config"
        assert "train.learning_rate" in err["message"]

    def test_unknown_synth_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"synth": {"n_spotz": 10}}))
        assert run(["synth", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "synth.n_spotz" in err["message"]

    def test_unknown_survival_field_named(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"survival": {"foo": 1}}))
        argv = [
            "survival-train",
            "--config", str(cfg),
            "--survival", str(tmp_path / "survival.csv"),
            "--embeddings", str(tmp_path / "embeddings.tsv"),
            "--out-dir", str(tmp_path),
        ]
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "survival.foo" in err["message"]

    @pytest.mark.parametrize(
        "cfg, needle",
        [
            ({"trian": {"max_epochs": 3}}, "unknown config section 'trian'"),
            ({"train": 5}, "config section 'train' must be a JSON object"),
            # run-cv's inputs are flags; their old config section is unknown
            ({"paths": {"coords": "x"}}, "unknown config section 'paths'"),
        ],
        ids=["unknown_section", "section_not_object", "paths_section_unknown"],
    )
    def test_bad_config_section_rejected(self, tmp_path, capsys, cfg, needle):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run(["synth", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "message": needle}

    def test_deeply_nested_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[" * 200000)
        assert run(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "maximum recursion depth" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "can't decode byte 0xff" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key_refused(self, tmp_path, capsys):
        # json keeps a repeated key's last value, which would build max_epochs 50
        path = tmp_path / "c.json"
        path.write_text('{"train": {"max_epochs": 3, "max_epochs": 50}}')
        assert run(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config",
            "message": f"{path}: config repeats the key 'max_epochs' in one object",
        }
        assert not (tmp_path / "out").exists()

    def test_config_root_not_object(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("[]")
        assert run(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config", "message": f"{path}: config root must be a JSON object"
        }
        assert not (tmp_path / "out").exists()

    def test_non_utf8_expression_table(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        lines = (data / "expression.tsv").read_bytes().split(b"\n")
        spot, gene, value = lines[2].split(b"\t")
        lines[2] = b"\t".join([spot, gene + b"\xff", value])
        table = tmp_path / "expression.tsv"
        table.write_bytes(b"\n".join(lines))
        argv = ["preprocess", "--expression", str(table), "--coords", str(data / "coords.csv"),
                "--out-dir", str(tmp_path / "out")]
        capsys.readouterr()
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "data_format"
        assert err["message"].startswith(f"{table}: not UTF-8 text: ")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _train_contrastive_on_one_slide(tmp_path, capsys, n, val_fraction):
        """The JSON error of train-contrastive on one slide of `n` spots."""
        rng = np.random.default_rng(0)
        ids = [f"s{i}" for i in range(n)]
        data_io.write_coords(
            [data_io.SpotGeometry(s, "sl", float(i), 0.0, 0, i) for i, s in enumerate(ids)],
            tmp_path / "coords.csv",
        )
        data_io.write_scores(
            data_io.PathwayScoreMatrix(ids, ["A", "B"], rng.normal(size=(n, 2))),
            tmp_path / "scores.tsv",
        )
        data_io.write_features(
            data_io.PatchFeatureMatrix(ids, rng.normal(size=(n, 3))), tmp_path / "features.tsv"
        )
        data_io.write_expression(
            data_io.ExpressionMatrix(
                ids, ["g0", "g1"], rng.uniform(size=(n, 2)), data_io.NORMALIZED_LOG
            ),
            tmp_path / "hvg.tsv",
        )
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {
            "batch_size": 4, "max_epochs": 2, "patience": 1, "val_fraction": val_fraction
        }}))
        argv = ["train-contrastive", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        for name in ("scores.tsv", "coords.csv", "features.tsv", "hvg.tsv"):
            argv += [f"--{name.split('.')[0]}", str(tmp_path / name)]
        assert run(argv) == 1
        return json.loads(capsys.readouterr().err)

    def test_one_spot_validation_split_rejected(self, tmp_path, capsys):
        # one 12-spot slide at val_fraction 0.05: a single validation spot
        err = self._train_contrastive_on_one_slide(tmp_path, capsys, 12, 0.05)
        assert err["error"] == "config"
        assert "val_fraction" in err["message"]

    def test_one_spot_training_split_is_a_config_error(self, tmp_path, capsys):
        # three spots at val_fraction 0.5: one training spot, no training batch
        err = self._train_contrastive_on_one_slide(tmp_path, capsys, 3, 0.5)
        assert err == {
            "error": "config",
            "message": "training split has 1 spots and validation split 2, training needs "
                       "at least 2: lower val_fraction (now 0.5)",
        }

    def test_bad_survival_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"survival": {"patience": 0}}))
        argv = [
            "survival-train",
            "--config", str(cfg),
            "--survival", str(tmp_path / "survival.csv"),
            "--embeddings", str(tmp_path / "embeddings.tsv"),
            "--out-dir", str(tmp_path),
        ]
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "config", "message": "survival: need 1 <= patience <= max_epochs"
        }

    def test_zero_embed_dim_rejected(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        argv = ["train-contrastive", *_flags(_DATASET, data)]
        err = _config_error(tmp_path, capsys, {"model": {"embed_dim": 0}}, argv)
        assert err == {"error": "config", "message": "model: embed_dim must be >= 1"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, line",
        [
            ("", 1),
            ("spot_id\tslide_id\te0\te1\na_s0\ta\t0.5\t1.5\na_s1\ta\t0.5\n", 3),
            ("spot_id\tslide_id\te0\na_s0\ta\tnan?\n", 2),
            ("spot_id\tslide_id\te0\na_s0\ta\tnan\n", 2),
            ("spot_id\tslide_id\te0\na_s0\ta\t0.5\n\n\na_s1\ta\tabc\n", 5),
        ],
        ids=["empty", "short_row", "non_numeric", "nan", "blank_lines"],
    )
    def test_slide_embeddings_format_errors(self, tmp_path, text, line):
        path = tmp_path / "embeddings.tsv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"line {line}:"):
            _read_slide_embeddings(str(path))

    def test_run_cv_input_flags_required(self, tmp_path, capsys):
        assert run(["run-cv", "--coords", "x", "--out-dir", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "usage",
            "message": "pearl run-cv: the following arguments are required: "
            "--expression, --gene-sets, --features",
        }
        assert not any(tmp_path.iterdir())

    def test_malformed_input_file(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("spot\tgene\tvalue\ns1\tg1\tnot_a_number\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "pearl.cli",
                "preprocess",
                "--expression", str(bad),
                "--coords", str(tmp_path / "missing.csv"),
                "--out-dir", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert "error" in err and "message" in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize(
        "command, other_flag",
        [("preprocess", "--coords"), ("score-pathways", "--gene-sets")],
    )
    def test_unopenable_input_file(self, tmp_path, capsys, command, other_flag, kind):
        path = tmp_path / "expression.tsv"
        if kind == "directory":
            path.mkdir()
        argv = [
            command,
            "--expression", str(path),
            other_flag, str(tmp_path / "other"),
            "--out-dir", str(tmp_path / "out"),
        ]
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "io"
        assert str(path) in err["message"]

    def test_gradcheck_command(self, capsys):
        assert run(["gradcheck"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("PASS ") for line in lines)
        # one line per case of the table, then the composed stage-1 graph
        names = [line.split()[1].rstrip(":") for line in lines]
        assert names == [*gradsuite.CASES, "stage1_graph"]

    def test_gradcheck_reports_every_failure(self, capsys, monkeypatch):
        # a 1%-scaled backward first and a NaN one last: every case is still
        # checked, and the NaN shows as inf, so no max over the errors skips it
        def doubling(scale):
            return lambda x: ad._node(x.values * 2.0, (x,), lambda g: (g * 2.0 * scale,))

        cases = {"scaled": ([(3,)], doubling(1.01)), **gradsuite.CASES,
                 "nan": ([(3,)], doubling(np.nan))}
        monkeypatch.setattr(gradsuite, "CASES", cases)
        assert run(["gradcheck"]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == "FAIL scaled: rel err 9.901e-03"
        assert lines[-2] == "FAIL nan: rel err inf"
        passed = [line.split()[1].rstrip(":") for line in lines[1:-2] + lines[-1:]]
        assert passed == [*cases][1:-1] + ["stage1_graph"]
        assert all(line.startswith("PASS ") for line in lines[1:-2] + lines[-1:])
        assert json.loads(err) == {
            "error": "error",
            "message": "gradient check over 1e-04 relative error: scaled, nan",
        }


# every field a config file may set, by section: adding a knob shows up here
SETTABLE = {
    "synth": [
        "n_spots", "n_genes", "n_pathways", "noise_sigma", "coupling", "n_slides", "d_img",
        "n_subjects", "censor_rate", "embed_dim",
    ],
    "preprocess": ["min_spots_per_gene", "target_sum", "top_hvg"],
    "ssgsea": ["weight_exponent", "null_sets"],
    "train": ["batch_size", "max_epochs", "patience", "lr", "weight_decay", "val_fraction"],
    "model": [
        "n_heads", "d_k", "n_layers", "embed_dim", "phi_hidden", "proj_hidden", "head_hidden",
        "ffn_mult", "tau_init",
    ],
    "survival": ["max_epochs", "patience", "lr", "weight_decay"],
}
# fields the commands fill in from --seed or the input tables
COMMAND_SET = [
    "ssgsea.rng_seed", "train.seed", "survival.seed",
    "model.n_pathways", "model.n_genes", "model.d_img", "model.seed",
]


def _config_error(tmp_path, capsys, cfg, argv=("synth",)):
    """Run `argv` with the config `cfg`; return its JSON error, asserting exit 1."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run([*argv, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    return json.loads(capsys.readouterr().err)


class TestConfigValues:
    """Values of the right type that would train nothing, generate nothing or
    fail deep in a command are refused when the config is built."""

    @pytest.mark.parametrize(
        "fields, needle",
        [
            ({"n_spots": -3}, "n_spots must be >= 1"),
            ({"n_spots": 1, "n_slides": 1}, "n_spots must be >= 2"),
            ({"n_genes": 0}, "n_genes must be >= 1"),
            ({"n_pathways": 0}, "n_pathways must be >= 1"),
            ({"n_slides": 0}, "n_slides must be >= 1"),
            ({"d_img": 0}, "d_img must be >= 1"),
            ({"n_subjects": 0}, "n_subjects must be >= 1"),
            ({"embed_dim": 0}, "embed_dim must be >= 1"),
            ({"n_spots": 600, "n_slides": 700}, "n_slides must be <= n_spots"),
            ({"noise_sigma": -1.0}, "noise_sigma must be finite and >= 0"),
            ({"noise_sigma": float("nan")}, "noise_sigma must be finite and >= 0"),
            ({"censor_rate": 1.5}, "censor_rate must be in [0, 1]"),
            # gen_st_dataset gives each pathway at least 3 genes of its own
            ({"n_genes": 10, "n_pathways": 5}, "n_genes must be >= 3 * n_pathways = 15"),
        ],
        ids=["negative_spots", "one_spot", "no_genes", "no_pathways", "no_slides", "no_d_img",
             "no_subjects", "no_embed_dim", "slides_above_spots", "negative_noise", "nan_noise",
             "censor_above_1", "genes_below_3_per_pathway"],
    )
    def test_synth_refuses(self, tmp_path, capsys, fields, needle):
        err = _config_error(tmp_path, capsys, {"synth": fields})
        assert err == {"error": "config", "message": f"synth: {needle}"}
        assert not (tmp_path / "out").exists()

    def test_synth_rate_overflow_refused(self, tmp_path, capsys):
        err = _config_error(tmp_path, capsys, {"synth": {"noise_sigma": 10.0}})
        assert err == {
            "error": "config", "message": "synth: noise_sigma 10.0 makes a Poisson rate too large"
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key", [("synth", "n_spots"), ("ssgsea", "null_sets"),
                                              ("model", "d_k")])
    def test_oversized_int_refused(self, tmp_path, capsys, section, key):
        # refused as the config is built, so nothing is allocated; synth's
        # 10**19 spots ended in numpy's "Maximum allowed dimension exceeded"
        err = _config_error(tmp_path, capsys, {section: {key: 10**19}})
        assert err == {"error": "config",
                       "message": f"{section}.{key} must be below 2**31, got {10**19}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, fields, needle",
        [
            ("train", {"lr": -1.0}, "lr > 0"),
            ("train", {"lr": 0}, "lr > 0"),
            ("train", {"lr": float("nan")}, "lr > 0"),
            ("train", {"weight_decay": -1e-3}, "weight_decay >= 0"),
            ("train", {"lr": float("inf")}, "lr > 0"),
            ("train", {"weight_decay": float("inf")}, "weight_decay >= 0"),
            ("train", {"patience": 0}, "1 <= patience"),
            ("survival", {"lr": float("inf"), "weight_decay": float("inf")},
             "lr > 0 and weight_decay >= 0"),
            ("preprocess", {"target_sum": float("nan")}, "target_sum must be finite"),
            ("preprocess", {"target_sum": float("inf")}, "target_sum must be finite"),
            ("train", {"batch_size": 0}, "batch_size must be >= 2"),
            ("ssgsea", {"null_sets": 0}, "null_sets must be >= 1"),
        ],
        ids=["negative_lr", "zero_lr", "nan_lr", "negative_decay", "inf_lr", "inf_decay",
             "no_patience", "inf_survival_lr_and_decay", "nan_target_sum", "inf_target_sum",
             "zero_batch_size", "no_null_sets"],
    )
    def test_training_sections_refuse(self, pipeline, tmp_path, capsys, section, fields, needle):
        _, data, _ = pipeline
        if section == "train":
            inputs = _DATASET
            argv = ["train-contrastive"]
        elif section == "survival":  # every command builds every section, synth too
            inputs = {}
            argv = ["synth"]
        else:
            inputs = {"expression": "expression.tsv", "coords": "coords.csv"}
            argv = ["preprocess"]
        argv += _flags(inputs, data)
        err = _config_error(tmp_path, capsys, {section: fields}, argv)
        assert err["error"] == "config" and err["message"].startswith(f"{section}: ")
        assert needle in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "row, needle",
        [
            ("subj0001,nan,1,subj0001_slide0", "time must be finite and > 0, got 'nan'"),
            ("subj0001,inf,0,subj0001_slide0", "time must be finite and > 0, got 'inf'"),
            ("subj0000,2.5,1,subj0000_slide0", "duplicate subject_id 'subj0000'"),
            (
                "subj0001,2.5,1,subj0001_slide0;subj0001_slide0",
                "subject 'subj0001' lists slide 'subj0001_slide0' twice",
            ),
            ("subj0001,2.5,1,", "subject 'subj0001' lists no slide"),
            (
                "subj0001,2.5,1,subj0001_slide0;subj0000_slide0",
                "subjects 'subj0000' and 'subj0001' both list slide 'subj0000_slide0'",
            ),
        ],
        ids=["nan_time", "inf_time", "repeated_subject", "repeated_slide", "no_slide",
             "shared_slide"],
    )
    @pytest.mark.parametrize("command", ["survival-train", "survival-eval"])
    def test_survival_table_refuses(
        self, pipeline, cox_checkpoint, tmp_path, capsys, command, row, needle
    ):
        _, data, _ = pipeline
        lines = (data / "survival.csv").read_text().splitlines()
        lines[2] = row  # the second subject, physical line 3
        table = tmp_path / "survival.csv"
        table.write_text("\n".join(lines) + "\n")
        argv = [command, "--survival", str(table)]
        argv += ["--embeddings", str(data / _SURVIVAL["embeddings"])]
        if command == "survival-eval":
            argv += ["--checkpoint", str(cox_checkpoint)]
        argv += ["--out-dir", str(tmp_path / "out")]
        capsys.readouterr()
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "data_format", "message": f"{table}: line 3: {needle}"}
        assert not (tmp_path / "out").exists()


class TestConfigSurface:
    def test_settable_fields_pinned(self):
        sections = cli._CONFIG_SECTIONS
        settable = {
            name: [f.name for f in fields(cls) if f.name not in cli.COMMAND_SET.get(name, ())]
            for name, cls in sections.items()
        }
        assert settable == SETTABLE
        assert sum(map(len, settable.values())) == 34
        refused = [f"{name}.{key}" for name, keys in cli.COMMAND_SET.items() for key in keys]
        assert sorted(refused) == sorted(COMMAND_SET)

    def test_every_settable_field_loads(self, tmp_path):
        defaults = cli.load_config(None)
        cfg = {name: {key: getattr(defaults[name], key) for key in keys}
               for name, keys in SETTABLE.items()}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert cli.load_config(str(path)) == defaults

    @pytest.mark.parametrize("dotted", COMMAND_SET)
    def test_command_set_field_refused(self, tmp_path, capsys, dotted):
        section, key = dotted.split(".")
        err = _config_error(tmp_path, capsys, {section: {key: 1}})
        assert err["error"] == "config"
        assert err["message"].startswith(f"{dotted} is set by ")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("synth", "n_spots", "x"),
            ("preprocess", "target_sum", "1e4"),
            ("ssgsea", "null_sets", 2.5),
            ("train", "batch_size", "x"),
            ("model", "n_heads", "x"),
            ("survival", "patience", True),
        ],
    )
    def test_wrong_type_named(self, tmp_path, capsys, section, key, value):
        err = _config_error(tmp_path, capsys, {section: {key: value}})
        assert err["error"] == "config"
        assert err["message"].startswith(f"{section}.{key} must be of type ")

    def test_seed_fills_each_seed_field(self):
        defaults = cli.load_config(None)
        for section, cfg in cli.load_config(None, seed=7).items():
            for f in fields(cfg):
                want = 7 if f.name == cli._SEEDS.get(section) else getattr(defaults[section], f.name)
                assert getattr(cfg, f.name) == want, f"{section}.{f.name}"

    def test_config_seed_refused_when_a_seed_is_passed(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"seed": 7}}))
        with pytest.raises(ConfigError, match=r"^train\.seed is set by the command"):
            cli.load_config(str(path), seed=7)

    def test_int_stands_for_float(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"lr": 1}, "ssgsea": {"weight_exponent": 0}}))
        cfg = cli.load_config(str(path))
        assert type(cfg["train"].lr) is float and cfg["train"].lr == 1.0
        assert type(cfg["ssgsea"].weight_exponent) is float

    def test_int_with_no_float_refused(self, tmp_path, capsys):
        # JSON integers have no size limit; 10**400 overflows a float
        err = _config_error(tmp_path, capsys, {"train": {"lr": 10**400}})
        assert err == {"error": "config",
                       "message": f"train.lr must be of type float, got {10**400}"}
        assert not (tmp_path / "out").exists()


class TestUsage:
    @pytest.mark.parametrize(
        "argv, needle",
        [
            ([], "command"),
            (["preprocess", "--coords", "c.csv"], "--expression"),
            (["score-pathways", "--threads", "x"], "--threads: invalid int value"),
            (["score-pathways", "--threads", "0", "--expression", "e.tsv", "--gene-sets", "g.gmt"],
             "--threads: must be >= 1"),
            (["synth", "--bogus"], "--bogus"),
            (["run-cv", "--folds", "1"], "--folds: must be >= 2"),
            (["run-cv", "--folds", "0"], "--folds: must be >= 2"),
            (["synth", "--seed", "-1"], "--seed: must be in [0, 18446744073709551616)"),
            (["score-pathways", "--seed", str(2**96), "--expression", "e.tsv",
              "--gene-sets", "g.gmt"], "--seed: must be in [0, 18446744073709551616)"),
        ],
        ids=["no_command", "missing_flag", "threads_not_int", "zero_threads", "unknown_flag",
             "one_fold", "zero_folds", "negative_seed", "seed_2_96"],
    )
    def test_usage_error_is_json(self, tmp_path, capsys, argv, needle):
        assert run([*argv, "--out-dir", str(tmp_path)] if argv else argv) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "usage" and needle in err["message"]
        assert captured.out == ""
        assert not any(tmp_path.iterdir())  # refused before anything ran

    def test_largest_seed_accepted(self, pipeline, tmp_path):
        _, data, cfg_path = pipeline
        argv = ["score-pathways", "--config", str(cfg_path), "--seed", str(2**64 - 1),
                "--expression", str(data / "normalized.tsv"),
                "--gene-sets", str(data / "gene_sets.gmt"), "--out-dir", str(tmp_path)]
        assert run(argv) == 0
        assert data_io.read_scores(tmp_path / "scores.tsv").scores.shape == (48, 3)

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pearl.cli", "score-pathways", "--threads", "x"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stderr)["error"] == "usage"

    def test_help_unchanged(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pearl.cli", "run-cv", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: pearl run-cv") and "--folds" in proc.stdout


# every flag each subcommand declares; each declares only the flags it reads
FLAGS = {
    "synth": {"--config", "--seed", "--out-dir"},
    "preprocess": {"--config", "--out-dir", "--expression", "--coords"},
    "score-pathways": {
        "--config", "--seed", "--threads", "--out-dir", "--expression", "--gene-sets"
    },
    "train-contrastive": {
        "--config", "--seed", "--out-dir", "--scores", "--coords", "--features", "--hvg"
    },
    "train-heads": {
        "--config", "--seed", "--out-dir",
        "--checkpoint", "--scores", "--coords", "--features", "--hvg",
    },
    "predict": {"--out-dir", "--checkpoint", "--features", "--coords", "--emit-embeddings"},
    "evaluate": {"--out-dir", "--pred", "--truth"},
    "survival-train": {"--config", "--seed", "--out-dir", "--embeddings", "--survival"},
    "survival-eval": {"--out-dir", "--checkpoint", "--embeddings", "--survival"},
    "gradcheck": set(),
    "run-cv": {
        "--config", "--seed", "--threads", "--out-dir", "--folds",
        "--expression", "--coords", "--gene-sets", "--features",
    },
}
SHARED = ("--config", "--seed", "--threads", "--out-dir")
# (command, shared flag) pairs a command does not read, so does not accept
DROPPED = [(c, f) for c, flags in FLAGS.items() for f in SHARED if f not in flags]


def _subparsers():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


class TestFlagSurface:
    def test_flags_pinned(self):
        declared = {
            name: {s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")}
            for name, p in _subparsers().items()
        }
        assert declared == FLAGS
        assert sum(map(len, declared.values())) == 54
        assert len(DROPPED) == 19

    @pytest.mark.parametrize("command, flag", DROPPED, ids=[f"{c}{f}" for c, f in DROPPED])
    def test_dropped_flag_refused(self, tmp_path, capsys, command, flag):
        cfg = tmp_path / "c.json"
        cfg.write_text("{}")
        out = str(tmp_path / "out")
        value = {"--config": str(cfg), "--seed": "4", "--threads": "3", "--out-dir": out}
        # the command's required flags, so that only the dropped flag is wrong
        argv = [command] + [
            x for a in _subparsers()[command]._actions if a.required
            for x in (a.option_strings[0], str(tmp_path / "absent"))
        ]
        if "--out-dir" in FLAGS[command]:
            argv += ["--out-dir", out]
        capsys.readouterr()
        assert run([*argv, flag, value[flag]]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)
        assert err["error"] == "usage"
        assert err["message"].endswith(f"unrecognized arguments: {flag} {value[flag]}")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


# each parser's usage line at 80 columns: it pins the flags' order, which are
# required, and which take a value, so --help and every usage error keep them
USAGE = {
    "pearl": "usage: pearl [-h]\n             {synth,preprocess,score-pathways,train-contrastive,"
             "train-heads,predict,evaluate,survival-train,survival-eval,gradcheck,run-cv}\n"
             "             ...\n",
    "synth": "usage: pearl synth [-h] [--config CONFIG] [--seed SEED] [--out-dir OUT_DIR]\n",
    "preprocess": "usage: pearl preprocess [-h] [--config CONFIG] [--out-dir OUT_DIR]\n"
                  "                        --expression EXPRESSION --coords COORDS\n",
    "score-pathways": "usage: pearl score-pathways [-h] [--config CONFIG] [--seed SEED]\n"
                      "                            [--threads THREADS] [--out-dir OUT_DIR]\n"
                      "                            --expression EXPRESSION --gene-sets GENE_SETS\n",
    "train-contrastive": "usage: pearl train-contrastive [-h] [--config CONFIG] [--seed SEED]\n"
                         "                               [--out-dir OUT_DIR] --scores SCORES"
                         " --coords\n"
                         "                               COORDS --features FEATURES --hvg HVG\n",
    "train-heads": "usage: pearl train-heads [-h] [--config CONFIG] [--seed SEED]\n"
                   "                         [--out-dir OUT_DIR] --checkpoint CHECKPOINT --scores\n"
                   "                         SCORES --coords COORDS --features FEATURES --hvg HVG\n",
    "predict": "usage: pearl predict [-h] [--out-dir OUT_DIR] --checkpoint CHECKPOINT\n"
               "                     --features FEATURES [--coords COORDS] [--emit-embeddings]\n",
    "evaluate": "usage: pearl evaluate [-h] [--out-dir OUT_DIR] --pred PRED --truth TRUTH\n",
    "survival-train": "usage: pearl survival-train [-h] [--config CONFIG] [--seed SEED]\n"
                      "                            [--out-dir OUT_DIR] --embeddings EMBEDDINGS\n"
                      "                            --survival SURVIVAL\n",
    "survival-eval": "usage: pearl survival-eval [-h] [--out-dir OUT_DIR] --checkpoint CHECKPOINT\n"
                     "                           --embeddings EMBEDDINGS --survival SURVIVAL\n",
    "gradcheck": "usage: pearl gradcheck [-h]\n",
    "run-cv": "usage: pearl run-cv [-h] [--config CONFIG] [--seed SEED] [--threads THREADS]\n"
              "                    [--out-dir OUT_DIR] --expression EXPRESSION --coords\n"
              "                    COORDS --gene-sets GENE_SETS --features FEATURES\n"
              "                    [--folds FOLDS]\n",
}


def test_usage_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    usage = {"pearl": cli.build_parser().format_usage()}
    usage.update((name, p.format_usage()) for name, p in _subparsers().items())
    assert usage == USAGE


class TestNumpyOnly:
    """No subcommand needs scipy: the package imports numpy only.  Nor does
    `import pearl.cli` load ssGSEA's thread pool, which only scoring needs."""

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, pearl.cli; print([m for m in sys.modules if m.split('.')[0] in "
                "('scipy', 'concurrent', 'logging')])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_expression_commands_run_with_scipy_blocked(self, pipeline, tmp_path):
        # a None entry in sys.modules makes every `import scipy...` raise
        _, data, cfg_path = pipeline
        out = tmp_path / "out"
        base = ["--config", str(cfg_path), "--seed", "0", "--out-dir", str(out)]
        calls = [
            ["synth", *base],
            ["preprocess", "--config", str(cfg_path), "--out-dir", str(out),
             "--expression", str(out / "expression.tsv"), "--coords", str(out / "coords.csv")],
            ["score-pathways", *base,
             "--expression", str(out / "normalized.tsv"),
             "--gene-sets", str(out / "gene_sets.gmt")],
            ["train-contrastive", *base,
             "--scores", str(out / "scores.tsv"), "--coords", str(out / "coords.csv"),
             "--features", str(out / "features.tsv"), "--hvg", str(out / "hvg.tsv")],
        ]
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from pearl.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv[0]} failed')\n"
            "    print(argv[0], 'concurrent.futures' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(calls)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        # scoring loads the thread pool's module, the first time it scores
        assert proc.stdout.splitlines() == ["synth False", "preprocess False",
                                            "score-pathways True", "train-contrastive True"]
        for name in ("expression.tsv", "coords.csv", "gene_sets.gmt", "features.tsv",
                     "survival.csv", "survival_embeddings.tsv", "normalized.tsv", "hvg.tsv",
                     "scores.tsv", "stage1.params.bin"):
            assert (out / name).read_bytes() == (data / name).read_bytes(), name


@pytest.mark.parametrize("command", ["predict", "survival-eval", "evaluate", "preprocess"])
def test_loading_a_checkpoint_draws_no_weights(pipeline, cox_checkpoint, tmp_path, command):
    # a checkpoint fills every parameter, so neither predict nor survival-eval
    # imports numpy.random, and evaluate and preprocess draw nothing either.
    # None of the four scores pathways, so none loads the thread pool's module.
    _, data, cfg_path = pipeline
    argv = {
        "predict": ["predict", "--out-dir", str(tmp_path), "--checkpoint", str(data / "final"),
                    "--features", str(data / "features.tsv")],
        "survival-eval": ["survival-eval", "--out-dir", str(tmp_path),
                          "--checkpoint", str(cox_checkpoint),
                          "--survival", str(data / "survival.csv"),
                          "--embeddings", str(data / "survival_embeddings.tsv")],
        "evaluate": ["evaluate", "--out-dir", str(tmp_path), "--pred",
                     str(data / "yhat_path.tsv"), "--truth", str(data / "scores.tsv")],
        "preprocess": ["preprocess", "--config", str(cfg_path), "--out-dir", str(tmp_path),
                       "--expression", str(data / "expression.tsv"),
                       "--coords", str(data / "coords.csv")],
    }[command]
    script = (
        "import json, sys\n"
        "from pearl.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
        "assert 'concurrent.futures' not in sys.modules, 'concurrent.futures imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def _readme_commands():
    """The argv of each `pearl ...` line of README's command block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1].replace("\\\n", " ")
    lines = [ln.split("#")[0] for ln in block.splitlines() if ln.startswith("pearl ")]
    return [shlex.split(ln)[1:] for ln in lines]


def _readme_command_table():
    """{command: (its shared flags, its outputs)}, as README's command table
    lists them in backquotes (a flag after an output names its condition)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("```", 1)[0]
    rows = [ln.strip("|").split("|") for ln in section.splitlines() if ln.startswith("|")][2:]
    return {
        command.strip(): (re.findall(r"`([^`]+)`", shared),
                          [n for n in re.findall(r"`([^`]+)`", outputs) if not n.startswith("--")])
        for command, shared, outputs in rows
    }


class TestReadme:
    def test_command_table_is_the_declaration(self):
        assert _readme_command_table() == {
            name: ([f"--{f.replace('_', '-')}" for f in c.shared], list(c.outputs))
            for name, c in cli.COMMANDS.items()
        }

    def test_command_block_covers_every_subcommand(self):
        assert [argv[0] for argv in _readme_commands()] == list(_subparsers())

    def test_quickstart_runs_as_written(self, tmp_path, monkeypatch):
        # synth, preprocess and score-pathways, with the config README shows
        synth, preprocess, score = _readme_commands()[:3]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        config = preprocess[preprocess.index("--config") + 1]
        (tmp_path / config).write_text(readme.split("```json", 1)[1].split("```", 1)[0])
        monkeypatch.chdir(tmp_path)
        for argv in (synth, preprocess, score):
            assert main(argv) == 0, argv
        out = Path(score[score.index("--out-dir") + 1])
        assert len(data_io.read_scores(out / "scores.tsv").spot_ids) == 1200

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
    def test_command_line_parses(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert args.fn.__name__ == "cmd_" + argv[0].replace("-", "_")
