"""Tests of the benchmark itself: the tracer is passive, the oracle is right,
BENCHMARK.json names what run.py reports, and run.py refuses to run without
the program's sources.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

# sizes small enough for a test; the checks read the same constants
SMALL = {
    "PANEL_SPOTS": 80, "PANEL_GENES": 60, "PANEL_PATHWAYS": 4, "PANEL_MIN_SPOTS": 5,
    "PANEL_HVG": 20, "PANEL_DECOY_SIZES": [5, 9, 20], "PANEL_NULL_SETS": 4,
    "PANEL_ORACLE_SPOTS": 2,
    "TI_SLIDES": 3, "TI_SPOTS_PER_SLIDE": 60, "TI_GENES": 40, "TI_PATHWAYS": 4, "TI_HVG": 10,
    "TI_EPOCHS": 2, "PATH_PCC_FLOOR": -1.0,
    "COHORT_SUBJECTS": 24, "COHORT_EPOCHS": 3, "C_INDEX_FLOOR": 0.0,
}

# layers each workload must leave idle (zero calls when traced)
IDLE = {
    "score-panel": ("autodiff.matmul.fwd", "encoders.encode_pathways", "survival.train_cox"),
    "train-infer": ("ssgsea.score_matrix", "preprocess.run_pipeline", "survival.cox_loss"),
    "cohort": ("ssgsea.score_matrix", "encoders.encode_pathways", "trainer.train_stage1"),
}
BUSY = {
    "score-panel": ("ssgsea.score_matrix", "ssgsea.null_masks", "preprocess.run_pipeline"),
    "train-infer": ("autodiff.gelu.bwd", "trainer.train_stage1", "encoders.load_model"),
    "cohort": ("autodiff.tanh.bwd", "survival.cox_loss_bwd", "data_io.read_embeddings"),
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_outputs_match_untraced(name, small, tmp_path):
    w = workloads.WORKLOADS[name]
    bench = run.WorkloadRun(w, 3, tmp_path, run.Runner(time.perf_counter() + 170))
    os.makedirs(bench.inp)
    w.generate(3, bench.inp)
    plain = bench.iteration(thorough=True)
    traced = bench.iteration(traced=True, reference=plain)
    assert (bench.attempted, bench.failed) == (2 * len(plain), 0)
    spans = {}
    for rec in traced:
        for span, (calls, _, _) in rec["spans"].items():
            spans[span] = spans.get(span, 0) + calls
    assert all(spans.get(s, 0) == 0 for s in IDLE[name])
    assert all(spans.get(s, 0) > 0 for s in BUSY[name])


def test_traced_outputs_differ_is_a_failure(small, tmp_path):
    w = workloads.WORKLOADS["cohort"]
    bench = run.WorkloadRun(w, 3, tmp_path, run.Runner(time.perf_counter() + 170))
    os.makedirs(bench.inp)
    w.generate(3, bench.inp)
    plain = bench.iteration()
    plain[0]["produced"] = {"cox_loss.csv": (0, "not a digest")}
    bench.iteration(traced=True, reference=plain)
    assert bench.failed == 1


def test_tracer_restores_every_attribute():
    from pearl import autodiff, cli, survival

    t = tracer.Tracer()
    targets = t._targets()
    before = [vars(owner)[attr] for owner, attr, *_ in targets]
    with t.installed():
        assert autodiff.matmul is not before[[a for _, a, *_ in targets].index("matmul")]
        assert cli.load_model.__name__ == "traced"
        assert vars(autodiff.AdamW)["step"].__name__ == "traced"
    after = [vars(owner)[attr] for owner, attr, *_ in targets]
    assert all(a is b for a, b in zip(before, after))
    assert survival.CoxHead.subject_risks.__name__ == "subject_risks"


def test_tracer_records_nested_spans_and_backward(tmp_path):
    import numpy as np
    from pearl import autodiff as ad

    t = tracer.Tracer()
    with t.installed():
        x = ad.Tensor(np.ones((3, 2)), requires_grad=True)
        loss = ad.mse(ad.matmul(x, ad.transpose(x)), ad.Tensor(np.zeros((3, 3))))
        ad.backward(loss)
    t.dump(tmp_path / "s.npz")
    spans, counters = tracer.summarize(tmp_path / "s.npz")
    assert spans["autodiff.matmul.fwd"][0] == 1
    assert spans["autodiff.matmul.bwd"][0] == 1
    assert spans["autodiff.backward"][0] == 1
    # backward's children are the three bwd closures, so its self time is smaller
    assert spans["autodiff.backward"][2] < spans["autodiff.backward"][1]
    assert counters["autodiff.backward_nodes"] == 4  # x, transpose, matmul, mse


def test_oracle_hand_example():
    # ranks 4 > 3 > 2 > 1 with hits at positions 0 and 2, weights n - j
    es = workloads.oracle_es([4.0, 3.0, 2.0, 1.0], [True, False, True, False], 1.0)
    assert es == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_oracle_matches_pearl_on_random_spots():
    import numpy as np
    from pearl import ssgsea

    rng = np.random.default_rng(0)
    genes = [f"g{j:02d}" for j in range(30)]
    for _ in range(10):
        values = list(rng.normal(size=30) ** 2)
        member = list(rng.random(30) < 0.3)
        member[0] = True
        cfg = ssgsea.SsgseaConfig(null_sets=5, rng_seed=int(rng.integers(100)))
        null = ssgsea._null_masks(cfg.rng_seed, sum(member), 30, 5)
        got = ssgsea.nes(values, genes, [g for g, m in zip(genes, member) if m], cfg)
        assert abs(got - workloads.oracle_nes(values, member, null, 0.75)) <= 1e-12


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
