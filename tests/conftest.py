"""Shared pytest hooks and helpers.

The acceptance tests register one verdict line per criterion, the golden
chain one naming the mode it ran in, and each memory guard its measured
`tracemalloc` peak beside its bound; printing them from the terminal-summary
hook keeps the lines visible even though pytest captures test stdout at the
file-descriptor level.
"""

import gc
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from pearl.encoders import ModelConfig, PearlModel

acceptance_lines = []
golden_lines = []
memory_lines = []

# manifest corruptions that every checkpoint loader refuses with a
# CheckpointManifestError (both model and Cox checkpoints have an embed_dim)
MANIFEST_TAMPERS = ("invalid_json", "too_deep_to_decode", "not_utf8", "array_root",
                    "embed_dim_not_int", "no_params", "repeated_key")


def tamper_manifest(path, kind):
    """Corrupt the checkpoint manifest file `path` in the way `kind` names."""
    text = path.read_text()
    if kind == "invalid_json":
        path.write_text(text[: len(text) // 2])
        return
    if kind == "too_deep_to_decode":  # json.load raises RecursionError, not ValueError
        path.write_text("[" * 200000)
        return
    if kind == "not_utf8":
        path.write_bytes(b"\xff\xfe{}")
        return
    if kind == "array_root":
        path.write_text("[]")
        return
    if kind == "repeated_key":  # embed_dim twice among the hyperparameters
        path.write_text(text.replace('"hyperparams": {', '"hyperparams": {"embed_dim": 1,', 1))
        return
    manifest = json.loads(text)
    if kind == "embed_dim_not_int":
        manifest["hyperparams"]["embed_dim"] = "x"
    else:
        del manifest["params"]
    path.write_text(json.dumps(manifest))


BENCHMARK_SEED = 2  # its cohort trains on 160 subjects, 4216 x 256 embeddings


@pytest.fixture(scope="session")
def workloads():
    """perfbench's `workloads` module, the one `perfbench/test_perfbench.py`
    imports: the benchmark's input generators and sizes."""
    sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    return workloads


@pytest.fixture(scope="session")
def benchmark_inputs(workloads, tmp_path_factory):
    """`benchmark_inputs(name)`: the directory of the input files the benchmark
    workload `name` runs on at `BENCHMARK_SEED`, generated on first use."""
    generated = {}

    def inputs(name):
        if name not in generated:
            generated[name] = tmp_path_factory.mktemp(name)
            workloads.WORKLOADS[name].generate(BENCHMARK_SEED, str(generated[name]))
        return generated[name]

    return inputs


@pytest.fixture
def train_infer_model(workloads):
    """An untrained model of the sizes the benchmark's train-infer trains:
    2.75 MiB of float32 parameters, the largest 0.50 MiB (256 x 512)."""
    return PearlModel(ModelConfig(n_pathways=workloads.TI_PATHWAYS, n_genes=workloads.TI_HVG,
                                  d_img=workloads.TI_D_IMG))


@pytest.fixture
def no_gc():
    """The cyclic garbage collector off for the test, so only reference
    counting frees what it builds."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def graph_nodes(loss):
    """The number of nodes `autodiff.backward(loss)` visits: the requires_grad
    ancestors of `loss`, itself included."""
    seen, stack = set(), [loss]
    while stack:
        t = stack.pop()
        if t.requires_grad and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes `tracemalloc` traces while it runs warm).

    `fn(*args)` runs once untraced first, so one-time work (a module's first
    import, argparse's first `gettext` lookup) happens outside the traced
    call.  A full collection then resets the collector's counts, so the
    traced call's collections free its own cyclic garbage (argparse's
    parsers) at the same points whatever ran before it in the process.
    """
    fn(*args)
    gc.collect()
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def peak_bound(what, peak, mib):
    """`mib` MiB in bytes, the bound a memory guard holds `peak` bytes (its
    measured `tracemalloc` peak of `what`) under; both go to the summary."""
    memory_lines.append(f"{what}: peak {peak / 2**20:.2f} MiB, bound {mib} MiB "
                        f"({100 * (1 - peak / (mib * 2**20)):.0f}% headroom)")
    return mib * 2**20


def significant_digits(cell):
    """Significant digits of a number written as text, e.g. 3 for '-1.25e-07'."""
    return len(cell.lower().split("e")[0].lstrip("+-").replace(".", "").lstrip("0"))


def pytest_terminal_summary(terminalreporter):
    sections = {"acceptance criteria": acceptance_lines, "golden chain": golden_lines,
                "memory guards": memory_lines}
    for title, lines in sections.items():
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
