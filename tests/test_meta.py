import numpy as np
import pytest

from molmatch import encoder
from molmatch.cli import _trained_epochs
from molmatch.config import RunConfig
from molmatch.encoder import encode_frozen, encode_multilevel
from molmatch.episodes import EpisodeError, sample_episode_balanced
from molmatch.matcher import predict
from molmatch.meta import (
    NumericalError,
    episode_loss,
    finetune_and_predict,
    finetune_and_predict_detailed,
    init_model,
    inner_adapt,
    meta_train,
    split_support,
)
from molmatch.tensor import backward
from oracles import REL_TOL, fd_gradients, grad_rel_error
from helpers import chain_task, make_registry


def tiny_cfg(**train_overrides):
    cfg = RunConfig()
    cfg.encoder.layers = 2
    cfg.encoder.hidden = 8
    cfg.protocol.support_size = 4
    cfg.protocol.query_size = 8
    cfg.train.batch_tasks = 2
    cfg.train.max_epochs = 2
    cfg.train.inner_steps = 2
    cfg.train.seed = 5
    for key, value in train_overrides.items():
        setattr(cfg.train, key, value)
    return cfg


def labelled(task):
    return [(e.graph, e.label) for e in task.examples]


class TestSplitSupport:
    def test_three_per_class_at_half(self):
        # 0.5 * 3 = 1.5 per class: one base seat each, the leftover seat
        # goes to the lower class label on the remainder tie
        examples = [(i, 1) for i in range(3)] + [(i, 0) for i in range(3, 6)]
        support, query = split_support(examples, 0.5, seed=0)
        assert len(support) == 3 and len(query) == 3
        support_labels = sorted(y for _, y in support)
        assert support_labels == [0, 0, 1]

    def test_partition_is_exact(self):
        examples = [(f"item{i}", i % 2) for i in range(11)]
        support, query = split_support(examples, 0.4, seed=3)
        assert sorted(x for x, _ in support + query) == sorted(x for x, _ in examples)
        assert not {x for x, _ in support} & {x for x, _ in query}

    def test_deterministic_in_seed(self):
        examples = [(i, i % 2) for i in range(20)]
        a = split_support(examples, 0.5, seed=9)
        b = split_support(examples, 0.5, seed=9)
        assert a == b
        c = split_support(examples, 0.5, seed=10)
        assert a != c

    def test_single_member_class_goes_to_support(self):
        examples = [(0, 0), (1, 0), (2, 0), (3, 1)]
        support, query = split_support(examples, 0.5, seed=0)
        assert (3, 1) in support
        assert query and all(y == 0 for _, y in query)

    def test_two_member_classes_keep_one_on_each_side(self):
        # even at fraction 0.9 a 2-member class cannot give both to support
        examples = [(0, 0), (1, 0), (2, 1), (3, 1)]
        support, query = split_support(examples, 0.9, seed=1)
        assert sorted(y for _, y in support) == [0, 1]
        assert sorted(y for _, y in query) == [0, 1]

    def test_validation(self):
        examples = [(0, 0), (1, 1)]
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="fraction"):
                split_support(examples, bad, seed=0)
        with pytest.raises(ValueError, match="empty"):
            split_support([], 0.5, seed=0)


class TestInnerAdapt:
    def setup_method(self):
        self.cfg = tiny_cfg()
        self.model = init_model(self.cfg)
        task = chain_task("t", 12, 6)
        episode = sample_episode_balanced(task, 8, 20, seed=2)
        self.support, self.queries = split_support(episode.support, 0.5, seed=3)

    def test_alpha_zero_is_bitwise_identity(self):
        self.cfg.train.alpha = 0.0
        self.cfg.train.inner_steps = 3
        before = self.model.matcher.tensors()
        before["wq0"].values[0, 0] = -0.0  # sign of zero must survive too
        adapted = inner_adapt(
            self.model.encoder, self.model.matcher, self.support, self.queries, self.cfg.train
        )
        for name, t in adapted.w_tau.tensors().items():
            np.testing.assert_array_equal(t.values, before[name].values)
            assert np.signbit(adapted.w_tau.tensors()["wq0"].values[0, 0])
        assert len(adapted.loss_history) == 4
        assert all(v == adapted.loss_history[0] for v in adapted.loss_history)

    def test_encoder_params_bitwise_untouched(self):
        frozen = {k: t.values.copy() for k, t in self.model.encoder.tensors().items()}
        inner_adapt(
            self.model.encoder, self.model.matcher, self.support, self.queries, self.cfg.train
        )
        for name, t in self.model.encoder.tensors().items():
            np.testing.assert_array_equal(t.values, frozen[name])
            assert t.grad is None

    def test_single_step_matches_finite_differences(self):
        self.cfg.train.inner_steps = 1
        self.cfg.train.alpha = 0.05
        w0 = self.model.matcher
        frozen = self.model.encoder.detach()

        def build_loss():
            return episode_loss(self.support, self.queries, frozen, w0, training=False).item()

        numeric = fd_gradients(build_loss, w0.tensors())
        adapted = inner_adapt(
            self.model.encoder, self.model.matcher, self.support, self.queries, self.cfg.train
        )
        for name, t in w0.tensors().items():
            implied_grad = (t.values - adapted.w_tau.tensors()[name].values) / 0.05
            err = grad_rel_error(implied_grad, numeric[name])
            assert err < REL_TOL, f"{name}: rel err {err:.3e}"

    def test_loss_history_decreases(self):
        self.cfg.train.inner_steps = 5
        self.cfg.train.alpha = 0.05
        adapted = inner_adapt(
            self.model.encoder, self.model.matcher, self.support, self.queries, self.cfg.train
        )
        assert len(adapted.loss_history) == 6
        assert adapted.loss_history[-1] < adapted.loss_history[0]
        assert adapted.final_inner_loss == adapted.loss_history[-1]

    def test_zero_steps_returns_untouched_clone(self):
        self.cfg.train.inner_steps = 0
        adapted = inner_adapt(
            self.model.encoder, self.model.matcher, self.support, self.queries, self.cfg.train
        )
        for name, t in adapted.w_tau.tensors().items():
            assert t is not self.model.matcher.tensors()[name]
            np.testing.assert_array_equal(t.values, self.model.matcher.tensors()[name].values)
        assert len(adapted.loss_history) == 1

    def test_no_queries_skips_loop(self):
        adapted = inner_adapt(
            self.model.encoder, self.model.matcher, self.support, [], self.cfg.train
        )
        assert np.isnan(adapted.final_inner_loss)
        assert adapted.loss_history == []
        for name, t in adapted.w_tau.tensors().items():
            np.testing.assert_array_equal(t.values, self.model.matcher.tensors()[name].values)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty adaptation support"):
            inner_adapt(self.model.encoder, self.model.matcher, [], self.queries, self.cfg.train)

    def test_nonfinite_loss_raises(self):
        self.model.matcher.tensors()["wq0"].values[:] = np.nan
        with pytest.raises(NumericalError, match="non-finite inner loss"):
            inner_adapt(
                self.model.encoder, self.model.matcher, self.support, self.queries, self.cfg.train
            )


class TestEpisodeLoss:
    def test_zero_fusion_gives_ln2_per_query(self):
        cfg = tiny_cfg()
        model = init_model(cfg)
        matcher = model.matcher.replace_values(
            {"wo": np.zeros((2, 2)), "bias": np.zeros(2)}
        )
        task = chain_task("t", 10, 4)
        pairs = labelled(task)
        loss = episode_loss(pairs[:4], pairs[4:], model.encoder, matcher)
        assert loss.values.shape == ()
        np.testing.assert_allclose(loss.item(), 6 * np.log(2), rtol=1e-12)

    def test_empty_sides_rejected(self):
        cfg = tiny_cfg()
        model = init_model(cfg)
        pairs = labelled(chain_task("t", 4, 2))
        with pytest.raises(ValueError, match="non-empty"):
            episode_loss([], pairs, model.encoder, model.matcher)
        with pytest.raises(ValueError, match="non-empty"):
            episode_loss(pairs, [], model.encoder, model.matcher)


class TestMetaTrain:
    def registry(self):
        return make_registry(
            [chain_task("a", 10, 4), chain_task("b", 9, 5), chain_task("c", 8, 3)]
        )

    def test_meta_lr_zero_keeps_initial_parameters(self):
        cfg = tiny_cfg(meta_lr=0.0)
        model, logs = meta_train(self.registry(), cfg)
        init = init_model(cfg)
        for name, t in model.tensors().items():
            np.testing.assert_array_equal(t.values, init.tensors()[name].values)
        assert [entry.epoch for entry in logs] == [0, 1]
        assert all(np.isfinite(entry.mean_outer_loss) for entry in logs)

    def test_worker_count_does_not_change_results(self):
        a, _ = meta_train(self.registry(), tiny_cfg(workers=1))
        b, _ = meta_train(self.registry(), tiny_cfg(workers=4))
        for name, t in a.tensors().items():
            assert t.values.tobytes() == b.tensors()[name].values.tobytes(), name

    def test_one_epoch_matches_hand_stepped_oracle(self):
        # replay epoch 0 outside the trainer: sample the same batch and
        # episodes, adapt, take gradients at the adapted point and apply
        # one bias-corrected Adam update by hand
        cfg = tiny_cfg(max_epochs=1, meta_lr=0.01)
        cfg.validate()
        registry = self.registry()
        tasks = sorted(registry.split_tasks("train"), key=lambda t: t.task_id)
        seed = cfg.train.seed

        model = init_model(cfg)
        rng = np.random.default_rng([seed, 1, 0])
        batch = rng.choice(len(tasks), size=cfg.train.batch_tasks, replace=False)
        summed = {}
        for slot, idx in enumerate(batch):
            task = tasks[int(idx)]
            episode = sample_episode_balanced(
                task, cfg.protocol.support_size, cfg.protocol.query_size, [seed, 2, 0, slot]
            )
            s_adapt, q_adapt = split_support(
                episode.support, cfg.train.support_split_fraction, [seed, 3, 0, slot]
            )
            adapted = inner_adapt(
                model.encoder, model.matcher, s_adapt, q_adapt, cfg.train, task.task_id
            )
            loss = episode_loss(
                episode.support,
                episode.query,
                model.encoder,
                adapted.w_tau,
                training=True,
                matcher_dropout=cfg.matcher.dropout,
                encoder_dropout=cfg.encoder.dropout,
                rng=np.random.default_rng([seed, 4, 0, slot]),
            )
            watched = {f"encoder.{k}": t for k, t in model.encoder.tensors().items()}
            watched.update({f"matcher.{k}": t for k, t in adapted.w_tau.tensors().items()})
            grads = backward(loss, params=watched.values(), write_grad=False)
            for name, tensor in watched.items():
                if not tensor.requires_grad:
                    continue
                g = grads[tensor]
                summed[name] = summed[name] + g if name in summed else g

        expected = {}
        for name, tensor in model.tensors().items():
            if name not in summed:
                expected[name] = tensor.values
                continue
            g = summed[name]
            m = 0.1 * g
            v = 0.001 * g * g
            step = 0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
            expected[name] = tensor.values - step

        trained, logs = meta_train(registry, cfg)
        assert len(logs) == 1
        for name, t in trained.tensors().items():
            np.testing.assert_allclose(t.values, expected[name], rtol=1e-12, atol=0)

    def test_every_parameter_moves_under_training(self):
        cfg = tiny_cfg(max_epochs=1, meta_lr=0.01)
        model, _ = meta_train(self.registry(), cfg)
        init = init_model(cfg)
        for name, t in model.tensors().items():
            if t.requires_grad:
                assert not np.array_equal(t.values, init.tensors()[name].values), name

    def test_unsatisfiable_protocol_rejected(self):
        cfg = tiny_cfg()
        cfg.protocol.support_size = 40
        with pytest.raises(EpisodeError, match="no train task"):
            meta_train(self.registry(), cfg)

    def test_early_stopping_halts_before_max_epochs(self):
        cfg = tiny_cfg(meta_lr=0.0, early_stop=True, patience=2, max_epochs=30)
        registry = make_registry(
            [chain_task("a", 10, 4), chain_task("b", 9, 5)],
            valid=[chain_task("v", 10, 5)],
        )
        _, logs = meta_train(registry, cfg)
        assert 0 < len(logs) < 30
        assert all(entry.val_metric is not None for entry in logs)

    def test_early_stopping_returns_best_validation_snapshot(self):
        registry = make_registry(
            [chain_task("a", 10, 4), chain_task("b", 9, 5)],
            valid=[chain_task("v", 10, 5)],
        )
        stopped, logs = meta_train(
            registry, tiny_cfg(meta_lr=0.05, early_stop=True, patience=2, max_epochs=30)
        )
        scores = [entry.val_metric for entry in logs]
        best_epoch = scores.index(max(scores))
        assert best_epoch + 1 < len(logs) < 30  # stopped, and after the best epoch
        assert _trained_epochs(logs) == best_epoch + 1
        plain, _ = meta_train(registry, tiny_cfg(meta_lr=0.05, max_epochs=best_epoch + 1))
        for name, t in plain.tensors().items():
            assert stopped.tensors()[name].values.tobytes() == t.values.tobytes(), name

    def test_on_epoch_callback_sees_every_entry(self):
        cfg = tiny_cfg(meta_lr=0.0)
        seen = []
        _, logs = meta_train(self.registry(), cfg, on_epoch=seen.append)
        assert seen == logs


class TestFinetuneAndPredict:
    def setup_method(self):
        self.cfg = tiny_cfg()
        self.model = init_model(self.cfg)
        task = chain_task("t", 14, 6)
        pairs = labelled(task)
        self.support_set = pairs[:10]
        self.query_graphs = [g for g, _ in pairs[10:]]

    def test_output_is_probability_rows(self):
        probs = finetune_and_predict(
            self.model, self.support_set, self.query_graphs, self.cfg, seed=0
        )
        assert isinstance(probs, np.ndarray)
        assert probs.shape == (4, 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_model_parameters_bitwise_untouched(self):
        frozen = {k: t.values.copy() for k, t in self.model.tensors().items()}
        finetune_and_predict(self.model, self.support_set, self.query_graphs, self.cfg, seed=1)
        for name, t in self.model.tensors().items():
            np.testing.assert_array_equal(t.values, frozen[name])
            assert t.grad is None

    def test_zero_steps_equals_zero_shot(self):
        self.cfg.train.inner_steps = 0
        probs = finetune_and_predict(
            self.model, self.support_set, self.query_graphs, self.cfg, seed=2
        )
        direct = predict(
            [g for g, _ in self.support_set],
            [y for _, y in self.support_set],
            self.query_graphs,
            self.model.encoder,
            self.model.matcher,
        )
        np.testing.assert_array_equal(probs, direct.values)

    def test_seed_controls_finetune_split(self):
        a = finetune_and_predict(self.model, self.support_set, self.query_graphs, self.cfg, seed=3)
        b = finetune_and_predict(self.model, self.support_set, self.query_graphs, self.cfg, seed=3)
        np.testing.assert_array_equal(a, b)
        c = finetune_and_predict(self.model, self.support_set, self.query_graphs, self.cfg, seed=4)
        assert not np.array_equal(a, c)

    def test_encodes_once_without_autodiff_graph(self, monkeypatch):
        outputs = []

        def recording(graphs, params, **kwargs):
            levels = encode_multilevel(graphs, params, **kwargs)
            outputs.append((len(graphs), levels))
            return levels

        monkeypatch.setattr(encoder, "encode_multilevel", recording)
        finetune_and_predict(self.model, self.support_set, self.query_graphs, self.cfg, seed=0)
        assert [n for n, _ in outputs] == [len(self.support_set) + len(self.query_graphs)]
        for _, levels in outputs:
            assert all(not z.requires_grad for z in levels)

    def test_embeddings_must_cover_support_and_queries(self):
        graphs = [g for g, _ in self.support_set] + self.query_graphs
        levels = encode_frozen(graphs, self.model.encoder)
        supplied = finetune_and_predict(
            self.model, self.support_set, self.query_graphs, self.cfg, seed=0, embeddings=levels
        )
        encoded = finetune_and_predict(
            self.model, self.support_set, self.query_graphs, self.cfg, seed=0
        )
        np.testing.assert_array_equal(supplied, encoded)
        with pytest.raises(ValueError, match="embeddings must have 14 rows"):
            finetune_and_predict(
                self.model, self.support_set, self.query_graphs, self.cfg, seed=0,
                embeddings=[z[:-1] for z in levels],
            )

    def test_detailed_exposes_per_layer_predictions(self):
        probs, layer_preds = finetune_and_predict_detailed(
            self.model, self.support_set, self.query_graphs, self.cfg, seed=0
        )
        assert len(layer_preds) == self.cfg.encoder.layers
        for lp in layer_preds:
            assert lp.y_hat.shape == (4, 1)
            assert lp.attention.shape == (4, 10)
            np.testing.assert_allclose(lp.attention.values.sum(axis=1), 1.0, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty support"):
            finetune_and_predict(self.model, [], self.query_graphs, self.cfg, seed=0)
        with pytest.raises(ValueError, match="empty query"):
            finetune_and_predict(self.model, self.support_set, [], self.cfg, seed=0)
