"""Command-line orchestration of the pipeline.

Every subcommand reads declared inputs and writes declared outputs under
--out-dir (gradcheck prints its report); `main` then exits 0.  Every failure,
a usage error or a missing input (a checkpoint's manifest too) included,
prints a machine-readable JSON object to stderr and exits 1.  A subcommand
declares only the flags it reads, so any other flag is a usage error.
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
from dataclasses import asdict, fields, replace

import numpy as np

from . import data_io, preprocess, ssgsea, synthgen, survival, trainer
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


def _read_slide_embeddings(path):
    """({slide id: its row indices}, float32 (rows, dim) embeddings), slides
    and rows in file order.  Each block of lines is checked by
    `check_float32` and cast on its own, so no float64 array of the whole
    table is made; the first block holding a value float32 cannot hold is
    refused.  The float32 blocks are joined a MiB at a time: piled up whole,
    the small arrays grow the heap, whose pages the process keeps once they
    are freed (1 MB of survival-train's peak RSS)."""
    rows, n, joined, blocks = {}, 0, [], []
    for spot_ids, slide_ids, values in data_io.embedding_blocks(path):
        data_io.check_float32(path, spot_ids, values)
        for i, slide in enumerate(slide_ids, start=n):
            rows.setdefault(slide, []).append(i)
        n += len(values)
        blocks.append(values.astype(np.float32))
        if sum(b.nbytes for b in blocks) >= 1 << 20:
            joined.append(np.concatenate(blocks))
            blocks = []
    return rows, np.concatenate(joined + blocks)


def cmd_preprocess(args, cfg):
    m = data_io.parse_expression(args.expression)
    geoms = data_io.read_coords(args.coords)
    normed, hvg = preprocess.run_pipeline(m, geoms, cfg["preprocess"])
    data_io.write_expression(normed, _outpath(args, "normalized.tsv"))
    data_io.write_expression(hvg, _outpath(args, "hvg.tsv"))
    with open(_outpath(args, "hvg_genes.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(hvg.gene_ids) + "\n")


def cmd_score_pathways(args, cfg):
    m = data_io.parse_expression(args.expression, value_kind=data_io.NORMALIZED_LOG)
    sets = data_io.read_gmt(args.gene_sets)
    sm, dropped = ssgsea.score_matrix(m, sets, cfg["ssgsea"], threads=args.threads)
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
    model, history = trainer.train_stage1(dataset, model, cfg["train"])
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
    m = data_io.parse_expression(args.expression)
    geoms = data_io.read_coords(args.coords)
    sets = data_io.read_gmt(args.gene_sets)
    patch = data_io.read_features(args.features)
    data_io.check_float32(args.features, patch.spot_ids, patch.features)
    normed, hvg = preprocess.run_pipeline(m, geoms, cfg["preprocess"])
    sm, _ = ssgsea.score_matrix(normed, sets, cfg["ssgsea"], threads=args.threads)
    dataset = SpotDataset.from_tables(sm, geoms, patch, hvg)

    slides = sorted(set(dataset.slide_ids))
    if len(slides) < args.folds:
        raise UsageError(
            f"--folds {args.folds}: the spots of {args.coords} lie on {len(slides)} slides, "
            f"which cannot form {args.folds} slide-disjoint folds"
        )
    fold_of = {s: i % args.folds for i, s in enumerate(slides)}
    spot_fold = np.array([fold_of[s] for s in dataset.slide_ids])
    fold_reports = []
    for fold in range(args.folds):
        train_ds = dataset.subset(np.flatnonzero(spot_fold != fold))
        test_ds = dataset.subset(np.flatnonzero(spot_fold == fold))
        model = PearlModel(_model_config(cfg, dataset, fold))
        model, _ = trainer.train_stage1(train_ds, model, tcfg)
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
        _write_json(_outpath(args, f"fold_{fold}.json"), report)

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


def build_parser():
    parser = _Parser(prog="pearl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, common, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag in common:
            p.add_argument(f"--{flag.replace('_', '-')}", **_COMMON[flag])
        for flag, required in flags.items():
            p.add_argument(f"--{flag.replace('_', '-')}", required=required, default=None)
        return p

    dataset = {"scores": True, "coords": True, "features": True, "hvg": True}
    cohort = {"embeddings": True, "survival": True}
    add("synth", cmd_synth, _SEEDED)
    add("preprocess", cmd_preprocess, ("config", "out_dir"), expression=True, coords=True)
    add("score-pathways", cmd_score_pathways, _THREADED, expression=True, gene_sets=True)
    add("train-contrastive", cmd_train_contrastive, _SEEDED, **dataset)
    add("train-heads", cmd_train_heads, _SEEDED, checkpoint=True, **dataset)
    p = add("predict", cmd_predict, ("out_dir",), checkpoint=True, features=True, coords=False)
    p.add_argument("--emit-embeddings", action="store_true")
    add("evaluate", cmd_evaluate, ("out_dir",), pred=True, truth=True)
    add("survival-train", cmd_survival_train, _SEEDED, **cohort)
    add("survival-eval", cmd_survival_eval, ("out_dir",), checkpoint=True, **cohort)
    add("gradcheck", cmd_gradcheck, ())
    p = add("run-cv", cmd_run_cv, _THREADED, expression=True, coords=True, gene_sets=True,
            features=True)
    p.add_argument("--folds", type=_bounded_int(2), default=5)  # 1 fold trains on no slide
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
