import argparse
import json
import shlex
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from pearl import autodiff as ad
from pearl import cli, data_io, survival, trainer
from pearl.cli import _read_slide_embeddings, main
from pearl.encoders import load_model
from pearl.errors import DataFormatError

from conftest import MANIFEST_TAMPERS, significant_digits, tamper_manifest


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny synth -> preprocess -> score -> train -> predict chain."""
    root = tmp_path_factory.mktemp("cli")
    cfg = {
        "synth": {
            "n_spots": 48,
            "n_genes": 30,
            "n_pathways": 3,
            "n_slides": 2,
            "d_img": 6,
            "n_subjects": 12,
            "embed_dim": 8,
        },
        "preprocess": {"min_spots_per_gene": 2, "top_hvg": 10},
        "ssgsea": {"null_sets": 3},
        "train": {"batch_size": 8, "max_epochs": 2, "patience": 1},
        "model": {
            "n_heads": 1,
            "d_k": 2,
            "phi_hidden": 4,
            "proj_hidden": 8,
            "head_hidden": 8,
            "embed_dim": 8,
        },
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    data = root / "data"
    out = ["--out-dir", str(data)]
    base = ["--config", str(cfg_path), "--seed", "0", *out]
    assert run(["synth", *base]) == 0
    assert run(
        [
            "preprocess", "--config", str(cfg_path), *out,
            "--expression", str(data / "expression.tsv"),
            "--coords", str(data / "coords.csv"),
        ]
    ) == 0
    assert run(
        [
            "score-pathways", *base,
            "--expression", str(data / "normalized.tsv"),
            "--gene-sets", str(data / "gene_sets.gmt"),
        ]
    ) == 0
    assert run(
        [
            "train-contrastive", *base,
            "--scores", str(data / "scores.tsv"),
            "--coords", str(data / "coords.csv"),
            "--features", str(data / "features.tsv"),
            "--hvg", str(data / "hvg.tsv"),
        ]
    ) == 0
    assert run(
        [
            "train-heads", *base,
            "--checkpoint", str(data / "stage1"),
            "--scores", str(data / "scores.tsv"),
            "--coords", str(data / "coords.csv"),
            "--features", str(data / "features.tsv"),
            "--hvg", str(data / "hvg.tsv"),
        ]
    ) == 0
    assert run(
        [
            "predict", *out,
            "--checkpoint", str(data / "final"),
            "--features", str(data / "features.tsv"),
            "--coords", str(data / "coords.csv"),
            "--emit-embeddings",
        ]
    ) == 0
    return root, data, cfg_path


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
            "error": "data_format", "message": f"{coords}: no coordinates for feature spot {absent!r}"
        }
        assert not (tmp_path / "out").exists()

    def test_train_heads_keeps_the_stage1_normalizer(self, pipeline):
        _, data, _ = pipeline
        stage1, final = (
            json.loads((data / f"{name}.manifest.json").read_text())["extra"]
            for name in ("stage1", "final")
        )
        assert "coord_normalizer" in stage1
        assert final["coord_normalizer"] == stage1["coord_normalizer"]

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
        argv += [x for k, name in inputs.items() for x in (f"--{k}", str(data / name))]
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
                *_cv_inputs(data),
            ]
        ) == 0
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert agg["folds"] == 2
        for fold in range(2):
            rep = json.loads((tmp_path / f"fold_{fold}.json").read_text())
            assert rep["n_test_spots"] == 24


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
        "error": "error",
        "message": "no gene is nonzero in preprocess.min_spots_per_gene = 1000 spots: the "
                   f"matrix has 48 spots, and the most spots any gene is nonzero in is {most}",
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
                "--out-dir", str(tmp_path), "--folds", "2", *_cv_inputs(data)]
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


def _cv_inputs(data, **paths):
    """run-cv's input flags on the pipeline's files, or on the given `paths`."""
    paths = {k: str(data / name) for k, name in _CV_PATHS.items()} | paths
    return [x for k, v in paths.items() for x in (f"--{k.replace('_', '-')}", v)]


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

    @pytest.mark.parametrize(
        "listed, message",
        [
            (lambda i: (f"sl{i}", f"typo{i}"), "subject 'p0': no embeddings for slide 'typo0'"),
            (lambda i: (), "subject 'p0' lists no slide"),
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
        argv += [x for k, name in _SURVIVAL.items() for x in (f"--{k}", str(data / name))]
        capsys.readouterr()
        assert run([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "checkpoint_shape"
        if old == "kind":
            assert err["message"] == "unknown hyperparameter 'kind'"
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
        argv = [command, "--out-dir", str(tmp_path / "out")]
        argv += [x for k, v in paths.items() for x in (f"--{k.replace('_', '-')}", v)]
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

    def test_non_finite_coordinate_refused(self, pipeline, tmp_path):
        _, data, cfg_path = pipeline
        lines = (data / "coords.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[2] = "nan"
        lines[2] = ",".join(fields)
        coords = tmp_path / "coords.csv"
        coords.write_text("\n".join(lines) + "\n")
        inputs = {k: str(data / name) for k, name in _DATASET.items()} | {"coords": str(coords)}
        argv = [sys.executable, "-m", "pearl.cli", "train-contrastive", "--config", str(cfg_path),
                "--out-dir", str(tmp_path / "out")]
        argv += [x for k, v in inputs.items() for x in (f"--{k}", v)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 1
        # one JSON object and nothing else: no numpy warning from a NaN downstream
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {
            "error": "data_format",
            "message": f"{coords}: line 3: non-finite coordinate (nan, {fields[3]})",
        }
        assert not (tmp_path / "out").exists()

    def test_run_cv_spot_missing_from_features(self, pipeline, tmp_path, capsys):
        _, data, cfg_path = pipeline
        lines = (data / "features.tsv").read_text().splitlines()
        dropped = lines[5].split("\t")[0]
        features = tmp_path / "features.tsv"
        features.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        capsys.readouterr()
        argv = ["run-cv", "--config", str(cfg_path), "--out-dir", str(tmp_path), "--folds", "2",
                *_cv_inputs(data, features=str(features))]
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "error"
        assert repr(dropped) in err["message"]


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

    def test_non_utf8_config(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run(["synth", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "can't decode byte 0xff" in err["message"]
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

    def test_one_spot_validation_split_rejected(self, tmp_path, capsys):
        # one 12-spot slide at val_fraction 0.05: a single validation spot
        rng = np.random.default_rng(0)
        ids = [f"s{i}" for i in range(12)]
        data_io.write_coords(
            [data_io.SpotGeometry(s, "sl", float(i), 0.0, 0, i) for i, s in enumerate(ids)],
            tmp_path / "coords.csv",
        )
        data_io.write_scores(
            data_io.PathwayScoreMatrix(ids, ["A", "B"], rng.normal(size=(12, 2))),
            tmp_path / "scores.tsv",
        )
        data_io.write_features(
            data_io.PatchFeatureMatrix(ids, rng.normal(size=(12, 3))), tmp_path / "features.tsv"
        )
        data_io.write_expression(
            data_io.ExpressionMatrix(
                ids, ["g0", "g1"], rng.uniform(size=(12, 2)), data_io.NORMALIZED_LOG
            ),
            tmp_path / "hvg.tsv",
        )
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(
            {"train": {"batch_size": 4, "max_epochs": 2, "patience": 1, "val_fraction": 0.05}}
        ))
        argv = ["train-contrastive", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
        for name in ("scores.tsv", "coords.csv", "features.tsv", "hvg.tsv"):
            argv += [f"--{name.split('.')[0]}", str(tmp_path / name)]
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "error"
        assert "val_fraction" in err["message"]

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
        err = json.loads(capsys.readouterr().err)
        assert set(err) == {"error", "message"}
        assert "patience" in err["message"]

    def test_zero_embed_dim_rejected(self, pipeline, tmp_path, capsys):
        _, data, _ = pipeline
        argv = ["train-contrastive"] + [
            x for k, name in _DATASET.items() for x in (f"--{k}", str(data / name))
        ]
        err = _config_error(tmp_path, capsys, {"model": {"embed_dim": 0}}, argv)
        assert err["message"] == "model config: embed_dim must be >= 1"
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
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out


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
            ({"n_slides": 700}, "n_slides must be <= n_spots"),
            ({"noise_sigma": -1.0}, "noise_sigma must be finite and >= 0"),
            ({"noise_sigma": float("nan")}, "noise_sigma must be finite and >= 0"),
            ({"censor_rate": 1.5}, "censor_rate must be in [0, 1]"),
        ],
        ids=["negative_spots", "one_spot", "no_genes", "no_pathways", "no_slides", "no_d_img",
             "no_subjects", "no_embed_dim", "slides_above_spots", "negative_noise", "nan_noise",
             "censor_above_1"],
    )
    def test_synth_refuses(self, tmp_path, capsys, fields, needle):
        err = _config_error(tmp_path, capsys, {"synth": fields})
        assert err["error"] == "error" and err["message"] == f"synth config: {needle}"
        assert not (tmp_path / "out").exists()

    def test_synth_rate_overflow_refused(self, tmp_path, capsys):
        err = _config_error(tmp_path, capsys, {"synth": {"noise_sigma": 10.0}})
        assert err == {
            "error": "error", "message": "noise_sigma 10.0 makes a Poisson rate too large"
        }
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, fields, needle",
        [
            ("train", {"lr": -1.0}, "lr > 0"),
            ("train", {"lr": 0}, "lr > 0"),
            ("train", {"lr": float("nan")}, "lr > 0"),
            ("train", {"weight_decay": -1e-3}, "weight_decay >= 0"),
            ("train", {"patience": 0}, "1 <= patience"),
            ("preprocess", {"target_sum": float("nan")}, "target_sum must be finite"),
            ("preprocess", {"target_sum": float("inf")}, "target_sum must be finite"),
        ],
        ids=["negative_lr", "zero_lr", "nan_lr", "negative_decay", "no_patience",
             "nan_target_sum", "inf_target_sum"],
    )
    def test_training_sections_refuse(self, pipeline, tmp_path, capsys, section, fields, needle):
        _, data, _ = pipeline
        if section == "train":
            inputs = _DATASET
            argv = ["train-contrastive"]
        else:
            inputs = {"expression": "expression.tsv", "coords": "coords.csv"}
            argv = ["preprocess"]
        argv += [x for k, name in inputs.items() for x in (f"--{k}", str(data / name))]
        err = _config_error(tmp_path, capsys, {section: fields}, argv)
        assert err["error"] == "error" and needle in err["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "row, needle",
        [
            ("subj0001,nan,1,subj0001_slide0", "time must be finite and > 0, got 'nan'"),
            ("subj0001,inf,0,subj0001_slide0", "time must be finite and > 0, got 'inf'"),
            ("subj0000,2.5,1,subj0000_slide0", "duplicate subject_id 'subj0000'"),
        ],
        ids=["nan_time", "inf_time", "repeated_subject"],
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

    def test_int_stands_for_float(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"train": {"lr": 1}, "ssgsea": {"weight_exponent": 0}}))
        cfg = cli.load_config(str(path))
        assert type(cfg["train"].lr) is float and cfg["train"].lr == 1.0
        assert type(cfg["ssgsea"].weight_exponent) is float


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


class TestNumpyOnly:
    """No subcommand but synth needs scipy; synthgen imports it on call."""

    def test_cli_import_loads_no_scipy(self):
        code = "import sys, pearl.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_expression_commands_run_with_scipy_blocked(self, pipeline, tmp_path):
        # a None entry in sys.modules makes every `import scipy...` raise
        _, data, cfg_path = pipeline
        out = tmp_path / "out"
        base = ["--config", str(cfg_path), "--seed", "0", "--out-dir", str(out)]
        calls = [
            ["preprocess", "--config", str(cfg_path), "--out-dir", str(out),
             "--expression", str(data / "expression.tsv"), "--coords", str(data / "coords.csv")],
            ["score-pathways", *base,
             "--expression", str(out / "normalized.tsv"),
             "--gene-sets", str(data / "gene_sets.gmt")],
            ["train-contrastive", *base,
             "--scores", str(out / "scores.tsv"), "--coords", str(data / "coords.csv"),
             "--features", str(data / "features.tsv"), "--hvg", str(out / "hvg.tsv")],
        ]
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from pearl.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    if main(argv) != 0:\n"
            "        sys.exit(f'{argv[0]} failed')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(calls)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("normalized.tsv", "hvg.tsv", "scores.tsv", "stage1.params.bin"):
            assert (out / name).read_bytes() == (data / name).read_bytes(), name


def _readme_commands():
    """The argv of each `pearl ...` line of README's command block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1].replace("\\\n", " ")
    lines = [ln.split("#")[0] for ln in block.splitlines() if ln.startswith("pearl ")]
    return [shlex.split(ln)[1:] for ln in lines]


class TestReadme:
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
        assert len(data_io.read_scores(out / "scores.tsv").spot_ids) == 600

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: argv[0])
    def test_command_line_parses(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert args.fn.__name__ == "cmd_" + argv[0].replace("-", "_")
