"""Span tracer for pearl's layers, installed from outside the package.

`Tracer.installed()` replaces the module and class attributes that pearl's
callers look up (``pearl.autodiff.matmul``, ``pearl.cli.load_model``,
``AdamW.step``, ...) with timing wrappers, and wraps the backward closure of
every node an autodiff kernel returns.  Leaving the block puts every original
attribute back.  Spans (name, start, end, parent span) are kept in memory in
flat arrays and written out once by `dump`; `summarize` turns a dump into
per-name call counts, inclusive seconds and self seconds.
"""

from __future__ import annotations

from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

KERNELS = (
    "matmul", "gelu", "softmax_rows", "layer_norm", "add", "mul", "mul_scalar", "transpose",
    "concat_cols", "concat_rows", "l2_normalize_rows", "cross_entropy_index", "mse", "tanh", "exp",
)

# span names reported as <name>_s (inclusive seconds)
TIMED = (
    [f"data_io.{f}" for f in (
        "parse_expression", "write_expression", "read_scores", "write_scores",
        "read_features", "read_embeddings", "checkpoint")]
    + [f"preprocess.{f}" for f in (
        "run_pipeline", "filter_genes", "normalize_and_log", "smooth_8neighbor", "select_hvg")]
    + ["ssgsea.score_matrix", "ssgsea.null_masks"]
    + [f"autodiff.{k}.{p}" for k in KERNELS for p in ("fwd", "bwd")]
    + ["autodiff.backward", "autodiff.adamw_step"]
    + [f"encoders.{f}" for f in (
        "encode_pathways", "encode_images", "predict_heads", "save_model", "load_model")]
    + [f"trainer.{f}" for f in ("train_stage1", "contrastive_loss", "train_stage2", "embed_images")]
    + [f"survival.{f}" for f in (
        "train_cox", "subject_risks", "cox_loss", "cox_loss_bwd", "c_index", "predict_risks")]
    + ["metrics.evaluate_expression"]
)
# span names also reported as <name>_calls
COUNTED = (
    ["ssgsea.null_masks"]
    + [f"autodiff.{k}.{p}" for k in KERNELS for p in ("fwd", "bwd")]
    + ["autodiff.adamw_step"]
)
# counters kept by hooks, reported under their own names
COUNTERS = ("autodiff.backward_nodes", "trainer.stage1_epochs", "survival.train_cox_epochs")


def _graph_size(loss):
    """Number of nodes backward() visits: requires_grad ancestors of `loss`."""
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if t.requires_grad and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._span_name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, before=None, after=None):
        nid = self._intern(name)
        span_name, parent, start, end, stack = (
            self._span_name, self._parent, self._start, self._end, self._stack)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _node_hook(self, bwd_name):
        """After-hook that times the backward closure of a returned node."""

        def hook(node):
            if node._backward is not None:
                node._backward = self._wrap(node._backward, bwd_name)

        return hook

    def _count_hook(self, counter, measure):
        def hook(*args):
            self.counts[counter] += measure(*args)

        return hook

    def _targets(self):
        """(owner, attribute, span name, before hook, after hook) to wrap."""
        from pearl import autodiff, cli, data_io, encoders, preprocess, ssgsea, survival, trainer

        t = [(data_io, f, f"data_io.{f}", None, None) for f in (
            "parse_expression", "write_expression", "read_scores", "write_scores", "read_features")]
        t += [
            (cli, "_read_slide_embeddings", "data_io.read_embeddings", None, None),
            (data_io, "save_checkpoint", "data_io.checkpoint", None, None),
            (data_io, "load_checkpoint", "data_io.checkpoint", None, None),
        ]
        t += [(preprocess, f, f"preprocess.{f}", None, None) for f in (
            "run_pipeline", "filter_genes", "normalize_and_log", "smooth_8neighbor", "select_hvg")]
        t += [
            (ssgsea, "score_matrix", "ssgsea.score_matrix", None, None),
            (ssgsea, "_null_masks", "ssgsea.null_masks", None, None),
        ]
        t += [(autodiff, k, f"autodiff.{k}.fwd", None, self._node_hook(f"autodiff.{k}.bwd"))
              for k in KERNELS]
        t += [
            (autodiff, "backward", "autodiff.backward",
             self._count_hook("autodiff.backward_nodes", _graph_size), None),
            (autodiff.AdamW, "step", "autodiff.adamw_step", None, None),
        ]
        t += [(encoders.PearlModel, f, f"encoders.{f}", None, None)
              for f in ("encode_pathways", "encode_images", "predict_heads")]
        t += [(cli, f, f"encoders.{f}", None, None) for f in ("save_model", "load_model")]
        t += [(trainer, f, f"trainer.{f}", None, None)
              for f in ("contrastive_loss", "train_stage2", "embed_images")]
        t += [
            (trainer, "train_stage1", "trainer.train_stage1", None,
             self._count_hook("trainer.stage1_epochs", lambda out: len(out[1]["train_loss"]))),
            (survival, "train_cox", "survival.train_cox", None,
             self._count_hook("survival.train_cox_epochs", lambda out: len(out[1]))),
            (survival.CoxHead, "subject_risks", "survival.subject_risks", None, None),
            (survival, "cox_loss", "survival.cox_loss", None,
             self._node_hook("survival.cox_loss_bwd")),
        ]
        t += [(survival, f, f"survival.{f}", None, None) for f in ("c_index", "predict_risks")]
        t += [(cli, "evaluate_expression", "metrics.evaluate_expression", None, None)]
        return t

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, before, after in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path):
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            span_name=np.frombuffer(self._span_name, dtype=np.intc),
            parent=np.frombuffer(self._parent, dtype=np.intc),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
            counter_names=np.array(list(self.counts), dtype=str),
            counter_values=np.array(list(self.counts.values()), dtype=np.int64),
        )


def summarize(path):
    """{span name: (calls, inclusive s, self s)} and {counter: value} of a dump."""
    with np.load(path, allow_pickle=False) as z:
        names = list(z["names"])
        span_name, parent = z["span_name"], z["parent"]
        dur = z["end"] - z["start"]
        counters = dict(zip(z["counter_names"].tolist(), z["counter_values"].tolist()))
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    k = len(names)
    calls = np.bincount(span_name, minlength=k)
    total = np.bincount(span_name, weights=dur, minlength=k)
    own = np.bincount(span_name, weights=dur - child, minlength=k)
    spans = {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(names)}
    return spans, counters
