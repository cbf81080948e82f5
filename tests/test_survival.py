import json
import math

import numpy as np
import pytest

from pearl import autodiff as ad
from pearl import gradsuite
from pearl.autodiff import Tensor
from pearl.errors import (
    CheckpointManifestError,
    CheckpointShapeError,
    PearlError,
    TrainingDiverged,
)
from pearl.survival import (
    CoxHead,
    _segment_pool,
    SurvivalTrainConfig,
    c_index,
    cox_loss,
    load_cox,
    predict_risks,
    save_cox,
    train_cox,
)
from pearl.synthgen import gen_survival_cohort

from conftest import MANIFEST_TAMPERS, graph_nodes, tamper_manifest


def brute_force_cox(risks, times, events):
    """Scalar-loop negative log partial likelihood with Breslow tie handling."""
    n = len(risks)
    loss = 0.0
    for t in sorted({times[i] for i in range(n) if events[i]}):
        dead = [i for i in range(n) if events[i] and times[i] == t]
        at_risk = [j for j in range(n) if times[j] >= t]
        lse = math.log(sum(math.exp(risks[j]) for j in at_risk))
        loss += len(dead) * lse - sum(risks[i] for i in dead)
    return loss


def brute_force_cox_grad(risks, times, events):
    """Scalar-loop gradient of brute_force_cox with respect to each risk."""
    n = len(risks)
    grad = [-float(events[j]) for j in range(n)]
    for t in sorted({times[i] for i in range(n) if events[i]}):
        d = sum(1 for i in range(n) if events[i] and times[i] == t)
        at_risk = [j for j in range(n) if times[j] >= t]
        top = max(risks[j] for j in at_risk)
        den = sum(math.exp(risks[j] - top) for j in at_risk)
        for j in at_risk:
            grad[j] += d * math.exp(risks[j] - top) / den
    return grad


def brute_force_c_index(risks, times, events):
    num = 0.0
    den = 0
    n = len(times)
    for i in range(n):
        for j in range(n):
            if not (events[i] and times[i] < times[j]):
                continue
            den += 1
            if risks[i] > risks[j]:
                num += 1.0
            elif risks[i] == risks[j]:
                num += 0.5
    return num / den


def cohort_array(bags):
    """The (E, sizes) form of a list of per-subject (M_i, d) bags."""
    return np.concatenate(bags, axis=0), [len(b) for b in bags]


class TestCoxLoss:
    def test_two_equal_risks_ln2(self):
        loss = cox_loss(Tensor(np.zeros((2, 1))), [1.0, 2.0], [True, False])
        assert loss.values == pytest.approx(math.log(2.0), abs=1e-10)

    def test_dominant_risk_loss_to_zero(self):
        loss = cox_loss(
            Tensor(np.array([[50.0], [0.0]])), [1.0, 2.0], [True, False]
        )
        assert loss.values == pytest.approx(0.0, abs=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=(5, 1))
        times = rng.uniform(1, 10, size=5)
        events = [True, False, True, True, False]
        a = cox_loss(Tensor(r), times, events).values
        b = cox_loss(Tensor(r + 13.7), times, events).values
        assert a == pytest.approx(b, abs=1e-9)

    def test_breslow_tie_hand_case(self):
        # two events at the same time, one censored later
        r = [0.5, -0.3, 0.1]
        times = [1.0, 1.0, 2.0]
        events = [True, True, False]
        got = cox_loss(Tensor(np.array(r).reshape(-1, 1)), times, events).values
        assert got == pytest.approx(brute_force_cox(r, times, events), abs=1e-12)

    def test_oracle_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            r = rng.normal(size=n)
            # few distinct times so ties occur
            times = rng.choice([1.0, 2.0, 3.0], size=n)
            events = rng.random(size=n) < 0.7
            if not events.any():
                events[0] = True
            got = cox_loss(Tensor(r.reshape(-1, 1)), times, events).values
            expect = brute_force_cox(list(r), list(times), list(events))
            assert got == pytest.approx(expect, abs=1e-10)

    @pytest.mark.parametrize(
        "times, events, scale",
        [
            ([2.0, 1.0, 1.0, 3.0, 1.0, 2.0, 4.0], [1, 1, 0, 0, 0, 0, 1], 1.0),
            ([2.0] * 6, [1] * 6, 1.0),
            ([3.0, 1.0, 4.0, 2.0, 5.0], [0, 1, 0, 0, 0], 1.0),
            ([3.0, 1.0, 5.0, 2.0, 4.0], [0, 0, 1, 0, 0], 1.0),
            ([3.0, 1.0, 3.0, 2.0, 1.0, 4.0, 2.0], [1, 1, 0, 1, 0, 1, 1], 700.0),
        ],
        ids=["censored_tied_with_event", "all_events_tied", "one_event_earliest",
             "one_event_latest", "risks_700"],
    )
    def test_closed_form_matches_oracle(self, times, events, scale):
        rng = np.random.default_rng(len(times))
        r = rng.uniform(-scale, scale, size=len(times))
        if scale == 700.0:
            r[:2] = [700.0, -700.0]
        events = np.array(events, dtype=bool)
        loss = cox_loss(Tensor(r.reshape(-1, 1), requires_grad=True), times, events)
        (grad,) = loss._backward(np.ones(()))
        assert loss.item() == pytest.approx(brute_force_cox(r, times, events), abs=1e-10)
        np.testing.assert_allclose(
            grad.reshape(-1), brute_force_cox_grad(r, times, events), rtol=0, atol=1e-10
        )

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        r = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        times = np.array([1.0, 1.0, 2.0, 3.0, 3.0])
        events = np.array([True, False, True, True, False])
        assert ad.gradcheck(lambda x: cox_loss(x, times, events), [r]) < gradsuite.REL_TOL

    def test_no_events_rejected(self):
        with pytest.raises(PearlError):
            cox_loss(Tensor(np.zeros((2, 1))), [1.0, 2.0], [False, False])

    def test_single_subject_rejected(self):
        with pytest.raises(PearlError):
            cox_loss(Tensor(np.zeros((1, 1))), [1.0], [True])


class TestCIndex:
    def test_perfect_ranking(self):
        assert c_index([3.0, 2.0, 1.0], [1.0, 2.0, 3.0], [True, True, True]) == 1.0

    def test_reversed_ranking(self):
        assert c_index([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [True, True, True]) == 0.0

    def test_tied_risks_half_credit(self):
        assert c_index([1.0, 1.0], [1.0, 2.0], [True, False]) == 0.5

    def test_censored_subject_not_anchor(self):
        # only subject 1 (event) anchors pairs; subject 0 censored earlier is skipped
        v = c_index([0.0, 5.0, 1.0], [1.0, 2.0, 3.0], [False, True, True])
        assert v == 1.0

    def test_oracle_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 10))
            r = rng.normal(size=n)
            times = rng.choice([1.0, 2.0, 3.0, 4.0], size=n)
            events = rng.random(size=n) < 0.7
            if not (events & (times < times.max())).any():
                continue
            got = c_index(r, times, events)
            assert got == pytest.approx(
                brute_force_c_index(list(r), list(times), list(events)), abs=1e-12
            )

    def test_equals_pair_loop_exactly_with_tied_risks(self):
        # pair counts are integers, so the broadcast count is bit-identical
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 60))
            r = rng.choice([0.0, 0.5, 1.0], size=n)
            times = rng.choice([1.0, 2.0, 3.0, 4.0], size=n)
            events = rng.random(size=n) < 0.6
            events[np.argmin(times)] = True
            got = c_index(r, times, events)
            assert got == brute_force_c_index(list(r), list(times), list(events))

    def test_no_comparable_pairs(self):
        with pytest.raises(PearlError):
            c_index([1.0, 2.0], [5.0, 5.0], [True, True])


class TestCoxHead:
    def test_pool_weights_convex(self):
        head = CoxHead(embed_dim=4, attn_hidden=3, seed=0)
        rng = np.random.default_rng(4)
        E = rng.normal(size=(6, 4))
        pooled = head.pool(E, [6]).values
        assert pooled.shape == (1, 4)
        # convex combination stays inside the per-coordinate envelope
        assert np.all(pooled[0] <= E.max(axis=0) + 1e-6)
        assert np.all(pooled[0] >= E.min(axis=0) - 1e-6)

    def test_pool_single_spot_identity(self):
        head = CoxHead(embed_dim=4, attn_hidden=3, seed=0)
        E = np.random.default_rng(5).normal(size=(1, 4)).astype(np.float32)
        np.testing.assert_allclose(head.pool(E, [1]).values, E, atol=1e-6)

    def test_pool_constant_rows(self):
        head = CoxHead(embed_dim=4, attn_hidden=3, seed=0)
        E = np.tile(np.array([1.0, -2.0, 0.5, 3.0], dtype=np.float32), (5, 1))
        np.testing.assert_allclose(head.pool(E, [5]).values[0], E[0], atol=1e-6)

    def test_subject_risks_match_per_bag_reference(self):
        # the pooling formula applied bag by bag in float64, as one graph per
        # subject computed it; ragged bags, two of them a single spot
        head = CoxHead(embed_dim=5, attn_hidden=4, seed=2)
        rng = np.random.default_rng(6)
        bags = [rng.normal(size=(m, 5)) for m in (1, 7, 3, 1, 12, 2)]
        p = {n: t.values.astype(np.float64) for n, t in head.parameters()}
        expected = []
        for E in bags:
            E = E.astype(np.float32).astype(np.float64)  # what the head sees
            logits = (np.tanh(E @ p["attn.w1"] + p["attn.b1"]) @ p["attn.w2"])[:, 0]
            w = np.exp(logits - logits.max())
            expected.append((w / w.sum()) @ E @ p["risk.w"])
        got = head.subject_risks(*cohort_array(bags))
        assert got.shape == (6, 1) and got.dtype == np.float32
        np.testing.assert_allclose(got.values, np.array(expected), rtol=0, atol=1e-5)

    @pytest.mark.parametrize(
        "sizes",
        [[2000], [1] * 2000, [2] * 2000, np.random.default_rng(8).integers(4, 49, size=160)],
        ids=["one_2000_spot_bag", "2000_one_spot_bags", "2000_two_spot_bags", "cohort"],
    )
    def test_segment_pool_matches_float64_reference(self, sizes):
        # float32 pooling and its logits gradient against a per-bag float64
        # softmax; spots scatter around a per-bag centre, as slide embeddings do
        rng = np.random.default_rng(9)
        sizes = np.asarray(sizes)
        bag = np.repeat(np.arange(len(sizes)), sizes)
        E = (rng.normal(size=(len(sizes), 16))[bag]
             + 0.1 * rng.normal(size=(len(bag), 16))).astype(np.float32)
        z = (2.0 * rng.normal(size=(len(bag), 1))).astype(np.float32)
        g = rng.normal(size=(len(sizes), 16)).astype(np.float32)
        out = _segment_pool(Tensor(z, requires_grad=True), E, sizes)
        (grad,) = out._backward(g)
        assert out.dtype == grad.dtype == np.float32
        ref_out, ref_grad, grad_terms = [], [], []
        for i, rows in enumerate(np.split(np.arange(len(bag)), np.cumsum(sizes)[:-1])):
            Eb, zb = E[rows].astype(np.float64), z[rows, 0].astype(np.float64)
            w = np.exp(zb - zb.max())
            w /= w.sum()
            gw = Eb @ g[i].astype(np.float64)
            ref_out.append(w @ Eb)
            ref_grad.append(w * (gw - w @ gw))
            grad_terms.append(w * gw)
        ref_out, ref_grad = np.array(ref_out), np.concatenate(ref_grad)
        assert np.abs(out.values - ref_out).max() <= 1e-6 * np.abs(ref_out).max()
        # the gradient is a difference of two terms this size, each rounded to float32
        scale = np.abs(np.concatenate(grad_terms)).max()
        assert np.abs(grad[:, 0] - ref_grad).max() <= 1e-6 * scale

    def test_graph_size_independent_of_cohort_size(self):
        def n_nodes(n_subjects):
            rng = np.random.default_rng(n_subjects)
            bags = [rng.normal(size=(m, 4)) for m in rng.integers(1, 9, size=n_subjects)]
            risks = CoxHead(embed_dim=4, attn_hidden=3).subject_risks(*cohort_array(bags))
            return graph_nodes(
                cox_loss(risks, np.arange(n_subjects, dtype=float), np.ones(n_subjects, bool))
            )

        # 4 ops (row_blocks, the segment softmax, matmul, the Cox loss) and 4
        # parameters; 300 subjects have over 512 spots, so several row blocks
        assert n_nodes(3) == n_nodes(30) == n_nodes(300) == 8

    @pytest.mark.parametrize(
        "E, sizes",
        [
            (np.zeros((3, 4)), []),
            (np.zeros((3, 4)), [3, 0]),
            (np.zeros((3, 4)), [2]),
            (np.zeros((3, 4)), [1, 1, 2]),
            (np.zeros(4), [1]),
            (np.zeros((2, 3)), [2]),
        ],
        ids=["no_bags", "empty_bag", "sum_below_n", "sum_above_n", "one_dim", "wrong_width"],
    )
    def test_pool_rejects_bad_bags(self, E, sizes):
        with pytest.raises(PearlError):
            CoxHead(embed_dim=4, attn_hidden=3).pool(E, sizes)

    def test_checkpoint_roundtrip(self, tmp_path):
        head = CoxHead(embed_dim=4, attn_hidden=3, seed=1)
        path = str(tmp_path / "cox")
        save_cox(head, path)
        head2 = load_cox(path)
        for (n1, p1), (n2, p2) in zip(head.parameters(), head2.parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.values, p2.values)

    def test_checkpoint_resave_byte_identical(self, tmp_path):
        save_cox(CoxHead(embed_dim=4, attn_hidden=3, seed=1), str(tmp_path / "cox"))
        save_cox(load_cox(str(tmp_path / "cox")), str(tmp_path / "cox2"))
        for suffix in (".manifest.json", ".params.bin"):
            assert (tmp_path / f"cox{suffix}").read_bytes() == (
                tmp_path / f"cox2{suffix}"
            ).read_bytes()

    @pytest.mark.parametrize("tamper", ["renamed", "reshaped"])
    def test_checkpoint_tampered_manifest_rejected(self, tmp_path, tamper):
        path = str(tmp_path / "cox")
        save_cox(CoxHead(embed_dim=4, attn_hidden=3, seed=1), path)
        manifest_path = tmp_path / "cox.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        entry = next(p for p in manifest["params"] if p["name"] == "attn.w2")
        if tamper == "renamed":
            entry["name"] = "attn.w2_old"
        else:
            entry["shape"] = entry["shape"][::-1]  # (3, 1) -> (1, 3), same byte count
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointShapeError):
            load_cox(path)

    @pytest.mark.parametrize("tamper", ["unknown", "missing"])
    def test_checkpoint_bad_hyperparams_rejected(self, tmp_path, tamper):
        path = str(tmp_path / "cox")
        save_cox(CoxHead(embed_dim=4, attn_hidden=3, seed=1), path)
        manifest_path = tmp_path / "cox.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if tamper == "unknown":
            manifest["hyperparams"]["foo"] = 1
        else:
            del manifest["hyperparams"]["attn_hidden"]
        manifest_path.write_text(json.dumps(manifest))
        key = "foo" if tamper == "unknown" else "attn_hidden"
        with pytest.raises(CheckpointShapeError, match=f"{tamper} hyperparameter '{key}'"):
            load_cox(path)

    @pytest.mark.parametrize("tamper", MANIFEST_TAMPERS)
    def test_checkpoint_malformed_manifest_rejected(self, tmp_path, tamper):
        path = str(tmp_path / "cox")
        save_cox(CoxHead(embed_dim=4, attn_hidden=3, seed=1), path)
        tamper_manifest(tmp_path / "cox.manifest.json", tamper)
        with pytest.raises(CheckpointManifestError):
            load_cox(path)

    def test_checkpoint_duplicate_param_rejected(self, tmp_path):
        # a second risk.w entry whose bytes are appended, so the blob size matches
        path = str(tmp_path / "cox")
        save_cox(CoxHead(embed_dim=2, attn_hidden=3, seed=1), path)
        manifest_path = tmp_path / "cox.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["params"].append({"name": "risk.w", "shape": [2, 1]})
        manifest_path.write_text(json.dumps(manifest))
        with open(tmp_path / "cox.params.bin", "ab") as fh:
            fh.write(np.full(2, 7.0, dtype="<f4").tobytes())
        with pytest.raises(CheckpointManifestError, match="parameter 'risk.w' listed twice"):
            load_cox(path)

    def test_checkpoint_zero_size_rejected(self, tmp_path):
        path = str(tmp_path / "cox")
        save_cox(CoxHead(embed_dim=4, attn_hidden=3, seed=1), path)
        manifest_path = tmp_path / "cox.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["hyperparams"]["attn_hidden"] = 0
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointManifestError, match="attn_hidden"):
            load_cox(path)


class TestTrainCox:
    def _cohort(self, seed=1, n_subjects=12, **kwargs):
        table, embeddings, _ = gen_survival_cohort(seed=seed, n_subjects=n_subjects, **kwargs)
        times = np.array([r.time for r in table.rows])
        events = np.array([r.event for r in table.rows])
        return (*cohort_array([embeddings[r.slide_ids[0]] for r in table.rows]), times, events)

    def test_initial_weights_match_xavier_draws(self):
        head = CoxHead(embed_dim=6, attn_hidden=4, seed=3)
        rng = np.random.default_rng(3)
        for name, shape in (("attn.w1", (6, 4)), ("attn.w2", (4, 1)), ("risk.w", (6, 1))):
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            expected = rng.uniform(-limit, limit, size=shape).astype(np.float32)
            assert head.params[name].values.tobytes() == expected.tobytes()

    def test_non_finite_embedding_diverges(self):
        E, sizes, times, events = self._cohort()
        E[sum(sizes[:4]), 0] = np.nan  # the first spot of subject 4
        with pytest.raises(TrainingDiverged) as info:
            train_cox(E, sizes, times, events, SurvivalTrainConfig(max_epochs=3, patience=1))
        assert (info.value.epoch, info.value.batch) == (0, 0)

    def test_early_stop_restores_best_epoch(self):
        # an epoch's loss is taken before its step: the restored head is the
        # one that produced the best recorded loss, not the one a step later
        E, sizes, times, events = self._cohort(seed=0, n_subjects=160, embed_dim=16)
        cfg = SurvivalTrainConfig(max_epochs=300, patience=4, lr=0.3)
        head, history = train_cox(E, sizes, times, events, cfg)
        best = int(np.argmin(history))
        assert len(history) == best + 1 + cfg.patience < cfg.max_epochs
        assert cox_loss(head.subject_risks(E, sizes), times, events).item() == min(history)

    @pytest.mark.parametrize(
        "fields",
        [
            {"max_epochs": 0},
            {"patience": 0},
            {"max_epochs": 5, "patience": 6},
            {"lr": 0.0},
            {"lr": float("nan")},
            {"weight_decay": -1e-4},
        ],
        ids=["no_epochs", "no_patience", "patience_above_epochs", "zero_lr", "nan_lr",
             "negative_decay"],
    )
    def test_config_rejects(self, fields):
        # load_config names the section, so the message does not
        with pytest.raises(PearlError, match="^need "):
            SurvivalTrainConfig(**fields)

    def test_config_patience_may_equal_epochs(self):
        assert SurvivalTrainConfig(max_epochs=5, patience=5).patience == 5

    def test_planted_risk_high_c_index(self):
        table, embeddings, risks = gen_survival_cohort(
            seed=0, n_subjects=200, embed_dim=16, risk_strength=5.0
        )
        subjects = [r.subject_id for r in table.rows]
        times = np.array([r.time for r in table.rows])
        events = np.array([r.event for r in table.rows])
        embs = [embeddings[table.rows[i].slide_ids[0]] for i in range(len(subjects))]
        half = len(subjects) // 2
        cfg = SurvivalTrainConfig(
            max_epochs=200, patience=40, lr=1e-2, weight_decay=1e-2, seed=0
        )
        head, history = train_cox(*cohort_array(embs[:half]), times[:half], events[:half], cfg)
        held_r = predict_risks(head, *cohort_array(embs[half:]))
        ci = c_index(held_r, times[half:], events[half:])
        assert ci >= 0.85
        assert history[-1] <= history[0]

    def test_training_deterministic(self):
        table, embeddings, _ = gen_survival_cohort(seed=1, n_subjects=12)
        times = np.array([r.time for r in table.rows])
        events = np.array([r.event for r in table.rows])
        E, sizes = cohort_array([embeddings[r.slide_ids[0]] for r in table.rows])
        cfg = SurvivalTrainConfig(max_epochs=10, patience=5, seed=3)
        h1, hist1 = train_cox(E, sizes, times, events, cfg)
        h2, hist2 = train_cox(E, sizes, times, events, cfg)
        assert hist1 == hist2
        for (_, p1), (_, p2) in zip(h1.parameters(), h2.parameters()):
            np.testing.assert_array_equal(p1.values, p2.values)
