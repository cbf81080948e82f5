"""Shared pytest hooks and helpers.

The acceptance tests register one verdict line per criterion, and the golden
chain one naming the mode it ran in; printing them from the terminal-summary
hook keeps the lines visible even though pytest captures test stdout at the
file-descriptor level.
"""

import gc
import json

import pytest

acceptance_lines = []
golden_lines = []

# manifest corruptions that every checkpoint loader refuses with a
# CheckpointManifestError (both model and Cox checkpoints have an embed_dim)
MANIFEST_TAMPERS = ("invalid_json", "too_deep_to_decode", "not_utf8", "array_root",
                    "embed_dim_not_int", "no_params")


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
    manifest = json.loads(text)
    if kind == "embed_dim_not_int":
        manifest["hyperparams"]["embed_dim"] = "x"
    else:
        del manifest["params"]
    path.write_text(json.dumps(manifest))


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


def significant_digits(cell):
    """Significant digits of a number written as text, e.g. 3 for '-1.25e-07'."""
    return len(cell.lower().split("e")[0].lstrip("+-").replace(".", "").lstrip("0"))


def pytest_terminal_summary(terminalreporter):
    sections = {"acceptance criteria": acceptance_lines, "golden chain": golden_lines}
    for title, lines in sections.items():
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
