import json
import subprocess
import sys

import numpy as np
import pytest

from pearl import data_io
from pearl.cli import _read_slide_embeddings, main
from pearl.errors import DataFormatError


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
    base = ["--config", str(cfg_path), "--seed", "0", "--out-dir", str(data)]
    assert run(["synth", *base]) == 0
    assert run(
        [
            "preprocess", *base,
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
            "predict", *base,
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

    def test_run_cv_two_folds(self, pipeline, tmp_path):
        root, data, cfg_path = pipeline
        cfg = json.loads(cfg_path.read_text())
        cfg["paths"] = {
            "expression": str(data / "expression.tsv"),
            "coords": str(data / "coords.csv"),
            "gene_sets": str(data / "gene_sets.gmt"),
            "features": str(data / "features.tsv"),
        }
        cv_cfg = tmp_path / "cv.json"
        cv_cfg.write_text(json.dumps(cfg))
        assert run(
            [
                "run-cv",
                "--config", str(cv_cfg),
                "--out-dir", str(tmp_path),
                "--folds", "2",
            ]
        ) == 0
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert agg["folds"] == 2
        for fold in range(2):
            rep = json.loads((tmp_path / f"fold_{fold}.json").read_text())
            assert rep["n_test_spots"] == 24


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
# every subcommand that reads files: its inputs (flag -> file in the pipeline's
# data directory; run-cv takes them as config paths), the table input that the
# failures are injected into, and the column of the cell made malformed
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
        cfg = {"train": {"bogus": 1}} if kind == "unknown_field" else {}
        argv = [command, "--out-dir", str(tmp_path / "out")]
        if command == "run-cv":
            cfg["paths"] = paths
            argv += ["--folds", "2"]
        else:
            argv += [x for k, v in paths.items() for x in (f"--{k.replace('_', '-')}", v)]
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
        elif kind == "unknown_field":
            assert err["error"] == "config" and "train.bogus" in err["message"]

    def test_run_cv_spot_missing_from_features(self, pipeline, tmp_path, capsys):
        _, data, cfg_path = pipeline
        lines = (data / "features.tsv").read_text().splitlines()
        dropped = lines[5].split("\t")[0]
        features = tmp_path / "features.tsv"
        features.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        paths = {k: str(data / name) for k, name in _CV_PATHS.items()}
        paths["features"] = str(features)
        cfg = tmp_path / "cv.json"
        cfg.write_text(json.dumps({**json.loads(cfg_path.read_text()), "paths": paths}))
        capsys.readouterr()
        argv = ["run-cv", "--config", str(cfg), "--out-dir", str(tmp_path), "--folds", "2"]
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
            ({"paths": ["x"]}, "config section 'paths' must be a JSON object"),
        ],
        ids=["unknown_section", "section_not_object", "paths_not_object"],
    )
    def test_bad_config_section_rejected(self, tmp_path, capsys, cfg, needle):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run(["synth", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "config", "message": needle}

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

    def test_missing_paths_field(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"paths": {"coords": "x"}}))
        proc = subprocess.run(
            [
                sys.executable, "-m", "pearl.cli",
                "run-cv", "--config", str(cfg), "--out-dir", str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        err = json.loads(proc.stderr)
        assert "paths.expression" in err["message"]

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
            ["preprocess", *base,
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
