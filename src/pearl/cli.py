"""Command-line orchestration of the pipeline.

Every subcommand reads the inputs and writes the outputs under --out-dir
that its `COMMANDS` entry declares (gradcheck prints its report); `main`
then exits 0.  Every failure, a usage error or a missing input (a
checkpoint's manifest too) included, prints a machine-readable JSON object
to stderr and exits 1.  A subcommand declares only the flags it reads, so
any other flag is a usage error.
Hyperparameters come from a single JSON config file, built into one
dataclass per section, with --seed in each seed field, before any subcommand
runs; a field filled in from --seed or the input tables is refused.  Paths
come from flags.  Tables are read and written through data_io, and per-spot
tables meet by spot id (in `evaluate` too, so --truth's order is free); the
command writes its own JSON reports, loss curves and id lists.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import asdict, fields, replace

import numpy as np

from . import data_io, preprocess, ssgsea, synthgen, survival, trainer
# perfbench's tracer wraps `cli._read_slide_embeddings`, so the name stays
from .data_io import read_slide_embeddings as _read_slide_embeddings
from .encoders import ModelConfig, PearlModel, load_model, save_model
from .errors import ConfigError, DataFormatError, PearlError, UsageError
from .metrics import evaluate_expression
from .preprocess import PreprocessConfig
from .ssgsea import SsgseaConfig
from .survival import SurvivalTrainConfig
from .synthgen import SynthConfig
from .trainer import SpotDataset, TrainConfig


_CONFIG_SECTIONS = {
    "synth": SynthConfig,
    "preprocess": PreprocessConfig,
    "ssgsea": SsgseaConfig,
    "train": TrainConfig,
    "model": ModelConfig,
    "survival": SurvivalTrainConfig,
}
# each section's field that --seed sets
_SEEDS = {"ssgsea": "rng_seed", "train": "seed", "model": "seed", "survival": "seed"}
# the model's sizes, each the width of one input table:
# {field: (that table's flag, its SpotDataset array)}
_SIZES = {"n_pathways": ("scores", "scores"), "n_genes": ("hvg", "y_gene"),
          "d_img": ("features", "features")}
# fields filled in from --seed or the input tables; a config may not set them
COMMAND_SET = {
    section: (*(_SIZES if section == "model" else ()), name) for section, name in _SEEDS.items()
}


def load_config(path, seed=0):
    """{section name: config dataclass} for every section, defaults where the
    file (or a missing `path`) gives none, and `seed` in each `_SEEDS` field.
    A field must be known, not set by a command, and `of_type` its default's
    type; a section that refuses its values is a ConfigError naming the
    section."""
    raw = {} if path is None else data_io.read_json(path, ConfigError, "config")
    if (unknown := next((s for s in raw if s not in _CONFIG_SECTIONS), None)) is not None:
        raise ConfigError(f"unknown config section {unknown!r}")
    config = {}
    for section, cls in _CONFIG_SECTIONS.items():
        defaults = {f.name: f.default for f in fields(cls)}
        if not isinstance(values := raw.get(section, {}), dict):
            raise ConfigError(f"config section {section!r} must be a JSON object")
        values = dict(values)
        for key, value in values.items():
            name = f"{section}.{key}"
            if key in COMMAND_SET.get(section, ()):
                raise ConfigError(f"{name} is set by the command from --seed or its inputs")
            if key not in defaults:
                raise ConfigError(f"unknown field {name}")
            if not data_io.of_type(value, kind := type(defaults[key])):
                raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
            values[key] = kind(value)  # an int given for a float becomes one
        if section in _SEEDS:
            values[_SEEDS[section]] = seed
        try:
            config[section] = cls(**values)
        except PearlError as exc:  # a value out of the section's range
            raise ConfigError(f"{section}: {exc}") from None
    return config


def _outpath(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_json(path, obj):
    """Write `obj` as JSON, a float with no finite value (an undefined metric,
    e.g. the PCC of a constant column) as null: RFC 8259 has no NaN."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_finite_or_null(obj), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_null(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _write_curve(path, columns):
    """CSV of per-epoch values: the epoch, then one column per key of `columns`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["epoch", *columns]) + "\n")
        for e, row in enumerate(zip(*columns.values())):
            fh.write(",".join([str(e), *map(repr, row)]) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_synth(args, cfg):
    # the section's fields are the generators' keyword arguments
    spatial = asdict(cfg["synth"])
    cohort = {k: spatial.pop(k) for k in ("n_subjects", "censor_rate", "embed_dim")}
    expr, geoms, sets, patch, _ = synthgen.gen_st_dataset(args.seed, **spatial)
    data_io.write_expression(expr, _outpath(args, "expression.tsv"))
    data_io.write_coords(geoms, _outpath(args, "coords.csv"))
    data_io.write_gmt(sets, _outpath(args, "gene_sets.gmt"))
    data_io.write_features(patch, _outpath(args, "features.tsv"))
    table, embeddings, _ = synthgen.gen_survival_cohort(args.seed, **cohort)
    data_io.write_survival(table, _outpath(args, "survival.csv"))
    slides = sorted(embeddings)
    data_io.write_embeddings(
        [f"{s}_s{i}" for s in slides for i in range(len(embeddings[s]))],
        [s for s in slides for _ in embeddings[s]],
        np.concatenate([embeddings[s] for s in slides]),
        _outpath(args, "survival_embeddings.tsv"),
    )


def _read_expression(path, value_kind=data_io.RAW_COUNTS):
    """The expression table `path`, which must hold a spot: a header-only file
    is a valid 0 x 0 matrix, but there is nothing in it to process."""
    m = data_io.parse_expression(path, value_kind=value_kind)
    if m.n_spots == 0:
        raise DataFormatError("expression matrix has no spots", path=path)
    return m


def _fault_of(path, fn, *args):
    """`fn(*args)`, a DataFormatError it raises named as a fault of the file
    `path`.  `ssgsea.score_matrix` raises one only for gene sets that share no
    gene with the matrix, and `trainer.train_stage1` only for a coordinate
    axis of the training split that its normalizer cannot scale."""
    try:
        return fn(*args)
    except DataFormatError as exc:
        raise DataFormatError(exc.detail, path=path) from None


def cmd_preprocess(args, cfg):
    m = _read_expression(args.expression)
    geoms = data_io.read_coords(args.coords)
    normed, hvg = preprocess.run_pipeline(m, geoms, cfg["preprocess"])
    data_io.write_expression(normed, _outpath(args, "normalized.tsv"))
    data_io.write_expression(hvg, _outpath(args, "hvg.tsv"))
    with open(_outpath(args, "hvg_genes.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(hvg.gene_ids) + "\n")


def cmd_score_pathways(args, cfg):
    m = _read_expression(args.expression, value_kind=data_io.NORMALIZED_LOG)
    sets = data_io.read_gmt(args.gene_sets)
    sm, dropped = _fault_of(args.gene_sets, ssgsea.score_matrix, m, sets, cfg["ssgsea"],
                            args.threads)
    data_io.write_scores(sm, _outpath(args, "scores.tsv"))
    with open(_outpath(args, "dropped_pathways.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(dropped) + ("\n" if dropped else ""))


def _load_dataset(args):
    scores = data_io.read_scores(args.scores)
    geoms = data_io.read_coords(args.coords)
    patch = data_io.read_features(args.features)
    hvg = data_io.parse_expression(args.hvg, value_kind=data_io.NORMALIZED_LOG)
    data_io.check_float32(args.scores, scores.spot_ids, scores.scores)
    data_io.check_float32(args.features, patch.spot_ids, patch.features)
    data_io.check_float32(args.hvg, hvg.spot_ids, hvg.dense())
    return SpotDataset.from_tables(scores, geoms, patch, hvg)


def _table_sizes(dataset):
    """{`_SIZES` field: (its table's flag, the width the dataset gives it)}."""
    return {n: (flag, getattr(dataset, a).shape[1]) for n, (flag, a) in _SIZES.items()}


def _refuse_misfit(args, held, widths):
    """Refuse a table that does not fit the checkpoint: `widths` maps a size of
    `held` (a model config or Cox head) to (the table's flag, its width)."""
    for name, (flag, width) in widths.items():
        if width != (fitted := getattr(held, name)):
            raise DataFormatError(
                f"{name} is {width} here but {fitted} in checkpoint {args.checkpoint}",
                path=getattr(args, flag),
            )


def _model_config(cfg, dataset, fold=0):
    sizes = {n: width for n, (_, width) in _table_sizes(dataset).items()}
    return replace(cfg["model"], **sizes, seed=cfg["model"].seed + fold)


def cmd_train_contrastive(args, cfg):
    dataset = _load_dataset(args)
    model = PearlModel(_model_config(cfg, dataset))
    model, history = _fault_of(args.coords, trainer.train_stage1, dataset, model, cfg["train"])
    save_model(model, _outpath(args, "stage1"))
    _write_curve(_outpath(args, "stage1_loss.csv"), history)


def cmd_train_heads(args, cfg):
    dataset = _load_dataset(args)
    model = load_model(args.checkpoint)
    _refuse_misfit(args, model.config, _table_sizes(dataset))
    model, history = trainer.train_stage2(dataset, model, cfg["train"])
    save_model(model, _outpath(args, "final"))
    _write_curve(_outpath(args, "stage2_loss.csv"), history)


def cmd_predict(args, cfg):
    if args.emit_embeddings != (args.coords is not None):
        raise UsageError("pearl predict: --emit-embeddings and --coords go together")
    model = load_model(args.checkpoint)
    patch = data_io.read_features(args.features)
    data_io.check_float32(args.features, patch.spot_ids, patch.features)
    _refuse_misfit(args, model.config, {"d_img": ("features", patch.d_img)})
    if args.emit_embeddings:
        geoms = data_io.read_coords(args.coords)
        rows = data_io.rows_of(patch.spot_ids, [g.spot_id for g in geoms], "coords", args.coords)
    h, yp, yg = trainer.predict(model, patch.features)
    for name, prefix, values in (("yhat_path.tsv", "p", yp), ("yhat_gene.tsv", "g", yg)):
        columns = [f"{prefix}{j}" for j in range(values.shape[1])]
        data_io.write_scores(
            data_io.PathwayScoreMatrix(patch.spot_ids, columns, values), _outpath(args, name)
        )
    if args.emit_embeddings:
        data_io.write_embeddings(
            patch.spot_ids,
            [geoms[i].slide_id for i in rows],
            h,
            _outpath(args, "embeddings.tsv"),
        )


def cmd_evaluate(args, cfg):
    pred = data_io.read_scores(args.pred)
    truth = data_io.read_scores(args.truth)
    rows = data_io.rows_of(pred.spot_ids, truth.spot_ids, "truth", args.truth)
    if (width := len(pred.pathway_names)) != len(truth.pathway_names):
        raise DataFormatError(
            f"{width} value columns here but {len(truth.pathway_names)} in --truth", path=args.pred
        )
    if (n := len(pred.spot_ids)) < 2:
        raise DataFormatError(f"a PCC needs at least 2 spots, but this table holds {n}",
                              path=args.pred)
    report = evaluate_expression(pred.scores, truth.scores[rows], truth.pathway_names)
    _write_json(_outpath(args, "report.json"), report.to_dict())
    with open(_outpath(args, "per_target_pcc.csv"), "w", encoding="utf-8") as fh:
        fh.write("target,pcc\n")
        for name, v in zip(report.target_names, report.per_target_pcc):
            fh.write(f"{name},{v!r}\n")


def _load_cohort(args):
    """(E, sizes, times, events): every subject's spot embeddings in one
    float32 (N, dim) array, subjects in survival-table order, each subject's
    slides in the order it lists them, and sizes[i] rows for subject i.  E is
    the file's table itself when its rows are in that order already, and a
    gathered copy otherwise.  Every slide a subject lists must have
    embeddings, and a cohort the Cox loss cannot score (under 2 subjects, or
    no event) is refused."""
    table = data_io.read_survival(args.survival)
    if len(table.rows) < 2:
        raise DataFormatError("the Cox loss needs at least 2 subjects", path=args.survival)
    if not any(r.event for r in table.rows):
        raise DataFormatError("the Cox loss needs at least one event", path=args.survival)
    rows, values = _read_slide_embeddings(args.embeddings)
    idx, sizes = [], []
    for r in table.rows:
        start = len(idx)
        for s in r.slide_ids:
            if s not in rows:
                raise DataFormatError(
                    f"subject {r.subject_id!r}: no embeddings for slide {s!r}", path=args.survival
                )
            idx += rows[s]
        sizes.append(len(idx) - start)
    times = np.array([r.time for r in table.rows])
    events = np.array([r.event for r in table.rows])
    E = values if idx == list(range(len(values))) else values[idx]
    return E, np.array(sizes), times, events


def cmd_survival_train(args, cfg):
    E, sizes, times, events = _load_cohort(args)
    head, history = survival.train_cox(E, sizes, times, events, cfg["survival"])
    survival.save_cox(head, _outpath(args, "cox"))
    _write_curve(_outpath(args, "cox_loss.csv"), {"loss": history})


def cmd_survival_eval(args, cfg):
    E, sizes, times, events = _load_cohort(args)
    head = survival.load_cox(args.checkpoint)
    _refuse_misfit(args, head, {"embed_dim": ("embeddings", E.shape[1])})
    risks = survival.predict_risks(head, E, sizes)
    try:
        ci = survival.c_index(risks, times, events)
    except PearlError as exc:  # no subject with an event is outlived
        raise DataFormatError(str(exc), path=args.survival) from None
    _write_json(_outpath(args, "survival_report.json"), {"c_index": ci, "n_subjects": len(times)})


def cmd_gradcheck(args, cfg):
    from . import gradsuite

    failed = []
    for name, err in gradsuite.run_all():
        ok = err <= gradsuite.REL_TOL
        if not ok:
            failed.append(name)
        print(f"{'PASS' if ok else 'FAIL'} {name}: rel err {err:.3e}")
    if failed:
        raise PearlError(
            f"gradient check over {gradsuite.REL_TOL:.0e} relative error: {', '.join(failed)}"
        )


def cmd_run_cv(args, cfg):
    tcfg = cfg["train"]
    m = _read_expression(args.expression)
    geoms = data_io.read_coords(args.coords)
    sets = data_io.read_gmt(args.gene_sets)
    patch = data_io.read_features(args.features)
    data_io.check_float32(args.features, patch.spot_ids, patch.features)
    # the folds, from the spots' slides before any is processed (which keeps their order)
    rows = data_io.rows_of(m.spot_ids, [g.spot_id for g in geoms], "coords")
    slide_ids = [geoms[i].slide_id for i in rows]
    slides = sorted(set(slide_ids))
    if len(slides) < args.folds:
        raise UsageError(
            f"--folds {args.folds}: the spots of {args.coords} lie on {len(slides)} slides, "
            f"which cannot form {args.folds} slide-disjoint folds"
        )
    fold_of = {s: i % args.folds for i, s in enumerate(slides)}
    spot_fold = np.array([fold_of[s] for s in slide_ids])
    # every fold holds a slide, so at least one spot; its PCC needs two
    if (sizes := np.bincount(spot_fold)).min() < 2:
        raise UsageError(
            f"--folds {args.folds}: fold {sizes.argmin()} is a single spot of {args.coords}, "
            "but scoring a fold needs at least 2"
        )
    normed, hvg = preprocess.run_pipeline(m, geoms, cfg["preprocess"])
    sm, _ = _fault_of(args.gene_sets, ssgsea.score_matrix, normed, sets, cfg["ssgsea"],
                      args.threads)
    dataset = SpotDataset.from_tables(sm, geoms, patch, hvg)
    fold_reports = []
    for fold in range(args.folds):
        train_ds = dataset.subset(np.flatnonzero(spot_fold != fold))
        test_ds = dataset.subset(np.flatnonzero(spot_fold == fold))
        model = PearlModel(_model_config(cfg, dataset, fold))
        model, _ = _fault_of(args.coords, trainer.train_stage1, train_ds, model, tcfg)
        model, _ = trainer.train_stage2(train_ds, model, tcfg)
        _, yp, yg = trainer.predict(model, test_ds.features, tcfg.batch_size)
        path_rep = evaluate_expression(yp, test_ds.scores)
        gene_rep = evaluate_expression(yg, test_ds.y_gene)
        top1 = trainer.retrieval_top1(model, test_ds, tcfg.batch_size, seed=tcfg.seed)
        report = {
            "fold": fold,
            "pathway": path_rep.to_dict(),
            "gene": gene_rep.to_dict(),
            "retrieval_top1": top1,
            "n_test_spots": test_ds.n_spots,
        }
        fold_reports.append(report)

    def agg(values):  # the parser refuses --folds < 2, so the sample std is defined
        vals = np.array(values, dtype=np.float64)
        return {"mean": float(vals.mean()), "std": float(vals.std(ddof=1))}

    metrics = ("mean_pcc", "mse", "mae")
    aggregate = {
        "folds": args.folds,
        "seed": args.seed,
        "pathway": {m: agg([r["pathway"][m] for r in fold_reports]) for m in metrics},
        "gene": {m: agg([r["gene"][m] for r in fold_reports]) for m in metrics},
        "retrieval_top1": agg([r["retrieval_top1"] for r in fold_reports]),
    }
    # written only now, so a fault in any fold leaves --out-dir as it was
    for report in fold_reports:
        _write_json(_outpath(args, f"fold_{report['fold']}.json"), report)
    _write_json(_outpath(args, "aggregate.json"), aggregate)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error instead of printing usage and exiting 2, so it
    leaves through main's JSON error boundary like every other failure."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _bounded_int(lo, hi=math.inf):
    """argparse type: an int in [lo, hi), else a usage error naming the flag."""

    def parse(text):
        value = int(text)  # argparse reports a ValueError as "invalid int value"
        if not lo <= value < hi:
            raise argparse.ArgumentTypeError(
                f"must be >= {lo}" if hi == math.inf else f"must be in [{lo}, {hi})"
            )
        return value

    parse.__name__ = "int"
    return parse


# the flags several subcommands share; each command declares only those it reads
_COMMON = {
    "config": {"default": None},
    "seed": {"type": _bounded_int(0, 2**64), "default": 0},  # numpy seeds and Philox keys
    "threads": {"type": _bounded_int(1), "default": 1},
    "out_dir": {"default": "."},
}
_SEEDED = ("config", "seed", "out_dir")
_THREADED = ("config", "seed", "threads", "out_dir")


def _inputs(*names):
    """{flag: keywords} of required input paths."""
    return {name: {"required": True} for name in names}


def _checkpoint(name):
    """The two files of the checkpoint `name`."""
    return data_io.manifest_of(name), data_io.blob_of(name)


# a subcommand: `fn(args, cfg)` runs it; it reads the `_COMMON` flags `shared`, then its own
# `flags` ({flag: argparse keywords}), and writes the files `outputs` under --out-dir
Command = namedtuple("Command", "fn shared flags outputs")
_DATASET = _inputs("scores", "coords", "features", "hvg")
_COHORT = _inputs("embeddings", "survival")
COMMANDS = {
    "synth": Command(cmd_synth, _SEEDED, {}, ("expression.tsv", "coords.csv", "gene_sets.gmt",
                     "features.tsv", "survival.csv", "survival_embeddings.tsv")),
    "preprocess": Command(cmd_preprocess, ("config", "out_dir"), _inputs("expression", "coords"),
                          ("normalized.tsv", "hvg.tsv", "hvg_genes.txt")),
    "score-pathways": Command(cmd_score_pathways, _THREADED, _inputs("expression", "gene_sets"),
                              ("scores.tsv", "dropped_pathways.txt")),
    "train-contrastive": Command(cmd_train_contrastive, _SEEDED, _DATASET,
                                 (*_checkpoint("stage1"), "stage1_loss.csv")),
    "train-heads": Command(cmd_train_heads, _SEEDED, {**_inputs("checkpoint"), **_DATASET},
                           (*_checkpoint("final"), "stage2_loss.csv")),
    "predict": Command(cmd_predict, ("out_dir",), {  # embeddings.tsv only with --emit-embeddings
        **_inputs("checkpoint", "features"), "coords": {"required": False},
        "emit_embeddings": {"action": "store_true"},
    }, ("yhat_path.tsv", "yhat_gene.tsv", "embeddings.tsv")),
    "evaluate": Command(cmd_evaluate, ("out_dir",), _inputs("pred", "truth"),
                        ("report.json", "per_target_pcc.csv")),
    "survival-train": Command(cmd_survival_train, _SEEDED, _COHORT,
                              (*_checkpoint("cox"), "cox_loss.csv")),
    "survival-eval": Command(cmd_survival_eval, ("out_dir",), {**_inputs("checkpoint"), **_COHORT},
                             ("survival_report.json",)),
    "gradcheck": Command(cmd_gradcheck, (), {}, ()),
    "run-cv": Command(cmd_run_cv, _THREADED, {  # 1 fold trains on no slide; <k> is a fold
        **_inputs("expression", "coords", "gene_sets", "features"),
        "folds": {"type": _bounded_int(2), "default": 5},
    }, ("fold_<k>.json", "aggregate.json")),
}


def build_parser():
    parser = _Parser(prog="pearl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=command.fn)
        for flag, keywords in [*((f, _COMMON[f]) for f in command.shared), *command.flags.items()]:
            p.add_argument(f"--{flag.replace('_', '-')}", **keywords)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.fn(args, load_config(getattr(args, "config", None), getattr(args, "seed", 0)))
    except PearlError as exc:
        return _fail(exc.code, exc)
    except OSError as exc:  # e.g. a missing, unreadable or directory path
        return _fail("io", exc)
    return 0


def _fail(code, exc):
    json.dump({"error": code, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
