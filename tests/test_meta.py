import threading
import time
import weakref

import numpy as np
import pytest

from molmatch import encoder, meta
from molmatch import matcher as matcher_module
from molmatch.config import RunConfig
from molmatch.encoder import encode_frozen, encode_multilevel
from molmatch.episodes import EpisodeError, sample_episode, sample_episode_balanced
from molmatch.matcher import predict_detailed
from molmatch.meta import (
    NumericalError,
    episode_loss,
    finetune_and_predict,
    finetune_and_predict_detailed,
    init_model,
    inner_adapt,
    meta_train,
    score_task,
    split_support,
)
from molmatch.tensor import Tensor, backward
from oracles import REL_TOL, fd_gradients, finetune_per_episode, grad_rel_error
from helpers import chain_task, make_registry, poison_first_gradient


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
        labels = [1, 1, 1, 0, 0, 0]
        support, query = split_support(labels, 0.5, seed=0)
        assert len(support) == 3 and len(query) == 3
        assert sorted(labels[i] for i in support) == [0, 0, 1]

    def test_partition_is_exact(self):
        support, query = split_support([i % 2 for i in range(11)], 0.4, seed=3)
        assert sorted(support + query) == list(range(11))
        assert support == sorted(support) and query == sorted(query)

    def test_deterministic_in_seed(self):
        labels = [i % 2 for i in range(20)]
        a = split_support(labels, 0.5, seed=9)
        b = split_support(labels, 0.5, seed=9)
        assert a == b
        c = split_support(labels, 0.5, seed=10)
        assert a != c

    def test_single_member_class_goes_to_support(self):
        labels = [0, 0, 0, 1]
        support, query = split_support(labels, 0.5, seed=0)
        assert 3 in support
        assert query and all(labels[i] == 0 for i in query)

    def test_two_member_classes_keep_one_on_each_side(self):
        # even at fraction 0.9 a 2-member class cannot give both to support
        labels = [0, 0, 1, 1]
        support, query = split_support(labels, 0.9, seed=1)
        assert sorted(labels[i] for i in support) == [0, 1]
        assert sorted(labels[i] for i in query) == [0, 1]

    def test_validation(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="fraction"):
                split_support([0, 1], bad, seed=0)
        with pytest.raises(ValueError, match="empty"):
            split_support([], 0.5, seed=0)


class TestInnerAdapt:
    def setup_method(self):
        self.cfg = tiny_cfg()
        self.model = init_model(self.cfg)
        task = chain_task("t", 12, 6)
        episode = sample_episode_balanced(task, 8, 20, seed=2)
        self.graphs = [g for g, _ in episode.support]
        self.labels = np.array([y for _, y in episode.support], dtype=np.float64)
        self.split = split_support(self.labels, 0.5, seed=3)
        self.stacked = encode_frozen(self.graphs, self.model.encoder)

    def adapt(self, splits=None, **kwargs):
        """``inner_adapt`` on the episode's support rows, by default on
        their one split."""
        splits = [self.split] if splits is None else splits
        return inner_adapt(
            self.model.matcher, self.stacked, self.labels, splits, self.cfg.train, **kwargs
        )

    def test_alpha_zero_is_bitwise_identity(self):
        self.cfg.train.alpha = 0.0
        self.cfg.train.inner_steps = 3
        before = self.model.matcher.tensors()
        before["wq0"].values[0, 0] = -0.0  # sign of zero must survive too
        w, (history,), errors = self.adapt()
        assert errors == {}
        for name, t in before.items():
            np.testing.assert_array_equal(w[name][0], t.values)
        assert np.signbit(w["wq0"][0, 0, 0])
        assert len(history) == 4
        assert all(v == history[0] for v in history)

    def test_encoder_params_bitwise_untouched(self):
        frozen = {k: t.values.copy() for k, t in self.model.encoder.tensors().items()}
        inner_adapt(
            self.model.matcher, encode_frozen(self.graphs, self.model.encoder), self.labels,
            [self.split], self.cfg.train,
        )
        for name, t in self.model.encoder.tensors().items():
            np.testing.assert_array_equal(t.values, frozen[name])
            assert not hasattr(t, "grad")

    def test_single_step_matches_finite_differences(self):
        self.cfg.train.inner_steps = 1
        self.cfg.train.alpha = 0.05
        w0 = self.model.matcher

        def build_loss():
            return episode_loss(Tensor(self.stacked), self.labels, *self.split, w0).item()

        numeric = fd_gradients(build_loss, w0.tensors())
        w, _, _ = self.adapt()
        for name, t in w0.tensors().items():
            implied_grad = (t.values - w[name][0]) / 0.05
            err = grad_rel_error(implied_grad, numeric[name])
            assert err < REL_TOL, f"{name}: rel err {err:.3e}"

    def test_loss_history_decreases(self):
        self.cfg.train.inner_steps = 5
        self.cfg.train.alpha = 0.05
        _, (history,), _ = self.adapt()
        assert len(history) == 6
        assert history[-1] < history[0]

    def test_zero_steps_returns_untouched_clone(self):
        self.cfg.train.inner_steps = 0
        w, (history,), _ = self.adapt()
        for name, t in self.model.matcher.tensors().items():
            assert not np.shares_memory(w[name], t.values)
            np.testing.assert_array_equal(w[name][0], t.values)
        assert len(history) == 1

    def test_no_queries_skips_loop(self):
        w, histories, errors = self.adapt([(self.split[0], [])])
        assert histories == [[]] and errors == {}
        for name, t in self.model.matcher.tensors().items():
            np.testing.assert_array_equal(w[name][0], t.values)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError, match="empty adaptation support"):
            self.adapt([([], self.split[1])])

    def test_nonfinite_loss_raises(self):
        # inner_adapt reports the failed episode; a training step raises it
        self.model.matcher.tensors()["wq0"].values[:] = np.nan
        _, (history,), errors = self.adapt(task_id="t")
        assert list(errors) == [0] and history == []
        assert str(errors[0]) == "task t: non-finite inner loss nan"
        with pytest.raises(NumericalError, match="^task t: non-finite inner loss nan$"):
            meta._outer_task_step(self.model, chain_task("t", 12, 6), self.cfg, 0, 0)

    def test_nonfinite_gradient_raises_before_update(self, monkeypatch):
        poison_first_gradient(monkeypatch)
        w, _, errors = self.adapt(task_id="t")
        assert str(errors[0]) == "task t: non-finite gradient for wq0"
        for name, t in self.model.matcher.tensors().items():
            assert w[name][0].tobytes() == t.values.tobytes(), name
        with pytest.raises(NumericalError, match="^task t: non-finite gradient for wq0$"):
            meta._outer_task_step(self.model, chain_task("t", 12, 6), self.cfg, 0, 0)


class TestOuterTaskStep:
    def setup_method(self):
        self.cfg = tiny_cfg()
        self.model = init_model(self.cfg)
        self.task = chain_task("t", 12, 6)
        seed = self.cfg.train.seed
        self.episode = sample_episode(self.task, self.cfg.protocol, [seed, meta.KEY_EPISODE, 0, 0])
        self.labels = np.array([y for _, y in self.episode.support], dtype=np.float64)
        self.split = split_support(
            self.labels, self.cfg.train.support_split_fraction, [seed, meta.KEY_SPLIT, 0, 0]
        )

    def test_encodes_the_episode_once(self, monkeypatch):
        counts = []

        def recording(graphs, params, **kwargs):
            counts.append(len(graphs))
            return encode_multilevel(graphs, params, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("encode_frozen called in a training step")

        for module in (encoder, matcher_module, meta):
            monkeypatch.setattr(module, "encode_multilevel", recording)
        monkeypatch.setattr(encoder, "encode_frozen", forbidden)
        monkeypatch.setattr(meta, "encode_frozen", forbidden)
        meta._outer_task_step(self.model, self.task, self.cfg, 0, 0)
        assert counts == [len(self.episode.support) + len(self.episode.query)]

    @pytest.mark.parametrize("encoder_dropout", [0.0, 0.3])
    def test_inner_loop_adapts_on_undropped_rows(self, monkeypatch, encoder_dropout):
        self.cfg.encoder.dropout = encoder_dropout
        adapted = []

        def recording(*args, **kwargs):
            adapted.append(inner_adapt(*args, **kwargs))
            return adapted[-1]

        monkeypatch.setattr(meta, "inner_adapt", recording)
        meta._outer_task_step(self.model, self.task, self.cfg, 0, 0)
        stacked = encode_frozen([g for g, _ in self.episode.support], self.model.encoder)
        _, (plain,), _ = inner_adapt(
            self.model.matcher, stacked, self.labels, [self.split], self.cfg.train, "t"
        )
        ((_, (step,), _),) = adapted
        if encoder_dropout > 0.0:  # the step encodes the support as the reference does
            assert step == plain
        else:  # the step reads the rows of its one graph-tracked encode
            np.testing.assert_allclose(step, plain, rtol=1e-12, atol=0)

    def test_undropped_step_equals_the_split_order_recipe(self):
        # without encoder dropout the step adapts on the support's rows of
        # the episode's own levels, read in place; this reference copies
        # them out in split order first, and the bits must not tell apart
        assert self.cfg.encoder.dropout == 0.0
        value, grads = meta._outer_task_step(self.model, self.task, self.cfg, 0, 0)
        pairs = self.episode.support + self.episode.query
        labels = np.array([y for _, y in pairs], dtype=np.float64)
        n_support = len(self.episode.support)
        rng = meta._rng(self.cfg.train.seed, meta.KEY_DROPOUT, 0, 0)
        levels = encode_multilevel([g for g, _ in pairs], self.model.encoder, dropout_rate=0.0, rng=rng)
        s, q = self.split
        w, _, _ = inner_adapt(
            self.model.matcher, levels.values[:, s + q], labels[s + q],
            [(np.arange(len(s)), np.arange(len(s), len(s + q)))], self.cfg.train, "t",
        )
        w_tau = self.model.matcher.replace_values({name: v[0] for name, v in w.items()})
        loss = episode_loss(
            levels, labels, np.arange(n_support), np.arange(n_support, len(pairs)), w_tau,
            matcher_dropout=self.cfg.matcher.dropout, rng=rng,
        )
        expected = meta._named_grads(loss, meta.ModelParams.join(self.model.encoder, w_tau), "t")
        assert np.float64(value).tobytes() == np.float64(loss.item()).tobytes()
        assert list(grads) == list(expected)
        for name, g in expected.items():
            assert grads[name].tobytes() == g.tobytes(), name


class TestEpisodeLoss:
    def episode(self):
        model = init_model(tiny_cfg())
        pairs = labelled(chain_task("t", 10, 4))
        levels = encode_multilevel([g for g, _ in pairs], model.encoder)
        return model, levels, [y for _, y in pairs]

    def test_zero_fusion_gives_ln2_per_query(self):
        model, levels, labels = self.episode()
        matcher = model.matcher.replace_values(
            {"wo": np.zeros((2, 2)), "bias": np.zeros(2)}
        )
        loss = episode_loss(levels, labels, np.arange(4), np.arange(4, 10), matcher)
        assert loss.values.shape == ()
        np.testing.assert_allclose(loss.item(), 6 * np.log(2), rtol=1e-12)

    def test_empty_sides_rejected(self):
        model, levels, labels = self.episode()
        with pytest.raises(ValueError, match="non-empty"):
            episode_loss(levels, labels, [], np.arange(4), model.matcher)
        with pytest.raises(ValueError, match="non-empty"):
            episode_loss(levels, labels, np.arange(4), [], model.matcher)


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tasks_follow_the_callers_error_state(self, workers):
        # a meta_lr of 1e100 leaves finite weights whose second-epoch
        # encoding overflows; pool threads must raise where the caller does
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            meta_train(self.registry(), tiny_cfg(meta_lr=1e100, workers=workers))

    @pytest.mark.parametrize("batch_tasks", [4, 8])
    def test_gradient_maps_are_summed_as_they_arrive(self, monkeypatch, batch_tasks):
        class GradientMap(dict):  # a plain dict cannot be weakly referenced
            pass

        returned, alive_at_start = [], []
        real = meta._outer_task_step

        def tracked(*args):
            alive_at_start.append(sum(ref() is not None for ref in returned))
            value, gmap = real(*args)
            gmap = GradientMap(gmap)
            returned.append(weakref.ref(gmap))
            return value, gmap

        monkeypatch.setattr(meta, "_outer_task_step", tracked)
        meta_train(self.registry(), tiny_cfg(batch_tasks=batch_tasks, max_epochs=1))
        assert len(alive_at_start) == batch_tasks
        assert max(alive_at_start) <= 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_gradient_map_outlives_its_sum(self, monkeypatch, workers):
        # when task k + 1's backward sweep starts, task k's gradient
        # arrays are freed; with 2 workers task k + 1 can get there before
        # task k is summed, so it waits, up to a bound, for that sum
        refs, where, left_alive = {}, threading.local(), []
        real_step, real_grads = meta._outer_task_step, meta._named_grads

        def step(model, task, cfg, epoch, slot):
            where.key = (epoch, slot)
            return real_step(model, task, cfg, epoch, slot)

        def named_grads(*args):
            epoch, slot = where.key
            if slot:
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and (
                    (epoch, slot - 1) not in refs
                    or any(ref() is not None for ref in refs[epoch, slot - 1])
                ):
                    time.sleep(0.005)
                left_alive.append(sum(ref() is not None for ref in refs.get((epoch, slot - 1), [])))
            gmap = real_grads(*args)
            # the eps gradients are numpy scalars, which take no weak reference
            refs[epoch, slot] = [weakref.ref(g) for g in gmap.values() if isinstance(g, np.ndarray)]
            return gmap

        monkeypatch.setattr(meta, "_outer_task_step", step)
        monkeypatch.setattr(meta, "_named_grads", named_grads)
        meta_train(self.registry(), tiny_cfg(batch_tasks=4, max_epochs=2, workers=workers))
        assert len(refs) == 8 and all(refs.values())
        assert left_alive == [0] * 6

    def test_running_sums_copy_gradients_that_alias(self):
        # add's VJP hands one array to both parents, so the sums that
        # meta_train adds into in place must start as copies
        shared = np.arange(4.0).reshape(2, 2)
        gmap = {"a": shared, "b": shared, "eps": np.array(1.5)}
        sums = meta._owned_sums(gmap)
        for name, g in gmap.items():
            assert sums[name].shape == g.shape and not np.shares_memory(sums[name], g)
            np.testing.assert_array_equal(sums[name], g)
        sums["a"] += 1.0
        np.testing.assert_array_equal(sums["b"], np.arange(4.0).reshape(2, 2))
        np.testing.assert_array_equal(shared, np.arange(4.0).reshape(2, 2))

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
            pairs = episode.support + episode.query
            labels = np.array([y for _, y in pairs], dtype=np.float64)
            n_s = len(episode.support)
            fraction = cfg.train.support_split_fraction
            split = split_support(labels[:n_s], fraction, [seed, 3, 0, slot])
            support = encode_frozen([g for g, _ in episode.support], model.encoder)
            w, _, _ = inner_adapt(
                model.matcher, support, labels[:n_s], [split], cfg.train, task.task_id
            )
            w_tau = model.matcher.replace_values({name: v[0] for name, v in w.items()})
            loss = episode_loss(
                encode_multilevel([g for g, _ in pairs], model.encoder),
                labels,
                np.arange(n_s),
                np.arange(n_s, len(pairs)),
                w_tau,
                matcher_dropout=cfg.matcher.dropout,
                rng=np.random.default_rng([seed, 4, 0, slot]),
            )
            watched = {f"encoder.{k}": t for k, t in model.encoder.tensors().items()}
            watched.update({f"matcher.{k}": t for k, t in w_tau.tensors().items()})
            grads = backward(loss, params=watched.values())
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
        assert meta.best_epoch(logs) == best_epoch
        plain, _ = meta_train(registry, tiny_cfg(meta_lr=0.05, max_epochs=best_epoch + 1))
        for name, t in plain.tensors().items():
            assert stopped.tensors()[name].values.tobytes() == t.values.tobytes(), name

    def test_early_stopping_without_validation_tasks_is_off(self):
        _, logs = meta_train(self.registry(), tiny_cfg(meta_lr=0.0, early_stop=True, patience=1))
        assert [entry.val_metric for entry in logs] == [None, None]

    def test_early_stopping_with_no_usable_validation_task_raises(self):
        cfg = tiny_cfg(early_stop=True)
        cfg.protocol.support_size = 20
        registry = make_registry([chain_task("a", 30, 12)], valid=[chain_task("v", 8, 4)])
        with pytest.raises(EpisodeError, match="no valid task can satisfy"):
            meta_train(registry, cfg)

    def test_single_class_validation_queries_are_never_finetuned(self, monkeypatch):
        # the balanced 4-example support takes both positives of "v", so
        # every query is negative: validation could never score an episode
        calls = []
        real = meta.adapt_labelled
        monkeypatch.setattr(
            meta, "adapt_labelled", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        registry = make_registry(self.registry().split_tasks("train"), valid=[chain_task("v", 10, 2)])
        cfg = tiny_cfg(meta_lr=0.0, early_stop=True, patience=2, max_epochs=30)
        with pytest.raises(EpisodeError, match="both classes in its queries"):
            meta_train(registry, cfg)
        assert calls == []

    def test_numerical_error_while_validating_propagates(self, monkeypatch):
        calls = []
        real = meta._match_rows

        def overflowing(*args):
            calls.append(args)
            probs, attention, ok = real(*args)
            return probs, attention, np.zeros_like(ok)

        monkeypatch.setattr(meta, "_match_rows", overflowing)
        registry = make_registry(self.registry().split_tasks("train"), valid=[chain_task("v", 10, 5)])
        with pytest.raises(NumericalError, match="non-finite prediction"):
            meta_train(registry, tiny_cfg(early_stop=True))
        assert len(calls) == 1  # the first validation, after epoch 0

    def test_nonfinite_outer_gradient_raises(self, monkeypatch):
        # no inner steps, so the outer step's sweep is the only one
        poison_first_gradient(monkeypatch)
        with pytest.raises(NumericalError, match=r"task \w+: non-finite gradient for encoder.input_w"):
            meta_train(self.registry(), tiny_cfg(inner_steps=0))

    def test_on_epoch_callback_sees_every_entry(self):
        cfg = tiny_cfg(meta_lr=0.0)
        seen = []
        _, logs = meta_train(self.registry(), cfg, on_epoch=seen.append)
        assert seen == logs


class TestBestEpoch:
    @staticmethod
    def logs(*metrics):
        return [meta.EpochLog(i, 0.0, 0.0, m) for i, m in enumerate(metrics)]

    def test_first_of_tied_best_epochs_wins(self):
        assert meta.best_epoch(self.logs(0.1, 0.3, 0.2, 0.3)) == 1

    def test_minus_infinity_and_none_never_win(self):
        assert meta.best_epoch(self.logs(-np.inf, None, -0.5, -np.inf)) == 2
        assert meta.best_epoch(self.logs(-np.inf, None)) is None

    def test_logs_without_validation_give_none(self):
        assert meta.best_epoch(self.logs(None, None)) is None
        assert meta.best_epoch([]) is None


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
            assert not hasattr(t, "grad")

    def test_zero_steps_equals_zero_shot(self):
        self.cfg.train.inner_steps = 0
        probs = finetune_and_predict(
            self.model, self.support_set, self.query_graphs, self.cfg, seed=2
        )
        direct = predict_detailed(
            [g for g, _ in self.support_set],
            [y for _, y in self.support_set],
            self.query_graphs,
            self.model.encoder,
            self.model.matcher,
        )[0]
        # the frozen encoder's folded layers round differently from the graph path
        np.testing.assert_allclose(probs, direct.values, rtol=0, atol=1e-12)

    def test_seed_controls_finetune_split(self):
        a = finetune_and_predict(self.model, self.support_set, self.query_graphs, self.cfg, seed=3)
        b = finetune_and_predict(self.model, self.support_set, self.query_graphs, self.cfg, seed=3)
        np.testing.assert_array_equal(a, b)
        c = finetune_and_predict(self.model, self.support_set, self.query_graphs, self.cfg, seed=4)
        assert not np.array_equal(a, c)

    def test_encodes_once_without_autodiff_graph(self, monkeypatch):
        outputs = []
        frozen_batch = encoder._frozen_batch

        def recording(graphs, folded):
            levels = frozen_batch(graphs, folded)
            outputs.append((len(graphs), levels))
            return levels

        monkeypatch.setattr(encoder, "_frozen_batch", recording)
        monkeypatch.setattr(encoder, "encode_multilevel", None)  # any call fails
        finetune_and_predict(self.model, self.support_set, self.query_graphs, self.cfg, seed=0)
        # the support alone, then the queries, which fit in one batch
        assert [n for n, _ in outputs] == [len(self.support_set), len(self.query_graphs)]
        for _, levels in outputs:
            assert isinstance(levels, np.ndarray)

    def test_detailed_exposes_per_layer_predictions(self):
        probs, attention = finetune_and_predict_detailed(
            self.model, self.support_set, self.query_graphs, self.cfg, seed=0
        )
        assert probs.shape == (4, 2)
        assert attention.shape == (self.cfg.encoder.layers, 4, 10)
        np.testing.assert_allclose(attention.sum(axis=2), 1.0, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty support"):
            finetune_and_predict(self.model, [], self.query_graphs, self.cfg, seed=0)
        with pytest.raises(ValueError, match="empty query"):
            finetune_and_predict(self.model, self.support_set, [], self.cfg, seed=0)

    def test_non_finite_prediction_raises(self):
        # weights of 1e30 are finite but overflow the forward pass; one
        # example per class leaves no adaptation queries, so the inner
        # loop's loss check never runs
        model = self.model.replace_values(
            {k: np.full(t.shape, 1e30) for k, t in self.model.tensors().items()}
        )
        support = [self.support_set[0], self.support_set[-1]]
        assert sorted(y for _, y in support) == [0, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="finetune: non-finite prediction"):
                finetune_and_predict(model, support, self.query_graphs, self.cfg, seed=0)


class TestScoreTask:
    def setup_method(self):
        self.cfg = tiny_cfg()
        self.model = init_model(self.cfg)
        self.task = chain_task("t", 30, 12)  # more molecules than one episode uses
        self.seeds = [[5, meta.KEY_EVAL, 0, rep] for rep in range(3)]

    def test_molecules_encoded_once_and_scores_match_graph_path(self, monkeypatch):
        batches = []
        frozen_batch = encoder._frozen_batch

        def counting(graphs, folded):
            batches.append(list(graphs))
            return frozen_batch(graphs, folded)

        monkeypatch.setattr(encoder, "_frozen_batch", counting)
        scored = score_task(self.model, self.task, self.cfg, self.seeds)
        monkeypatch.undo()
        seen = sum(batches, [])
        assert len({id(g) for g in seen}) == len(seen)
        assert all(
            len(b) == 1 or sum(g.n_atoms for g in b) <= encoder.FROZEN_BATCH_ATOMS for b in batches
        )
        assert len(scored) == len(self.seeds)
        used = set()
        for seed, (scores, labels) in zip(self.seeds, scored):
            episode = sample_episode(self.task, self.cfg.protocol, seed)
            used.update(np.r_[episode.support_idx, episode.query_idx].tolist())
            assert labels == [y for _, y in episode.query]
            probs = finetune_and_predict(
                self.model, episode.support, [g for g, _ in episode.query], self.cfg, seed + [1]
            )
            np.testing.assert_allclose(scores, probs[:, 0], rtol=0, atol=1e-12)
        assert sorted(id(g) for g in seen) == sorted(id(self.task.examples[i].graph) for i in used)

    def test_single_class_episodes_are_dropped_before_encoding(self, monkeypatch):
        task = chain_task("v", 10, 2)  # the balanced support takes both positives
        for name in ("encode_multilevel", "_frozen_batch"):  # any call fails
            monkeypatch.setattr(encoder, name, None)
        assert score_task(self.model, task, self.cfg, self.seeds) == []

    @staticmethod
    def captured_calls(monkeypatch):
        """Record the arguments of every ``adapt_labelled`` call, the
        split sizes of every ``inner_adapt`` call and every backward sweep."""
        calls, shapes, sweeps = [], [], []
        adapt_labelled, adapt, real_backward = meta.adapt_labelled, meta.inner_adapt, meta.backward

        def recording(*args):
            calls.append(args)
            return adapt_labelled(*args)

        def adapting(*args):
            shapes.append({(len(s), len(q)) for s, q in args[3]})
            return adapt(*args)

        monkeypatch.setattr(meta, "adapt_labelled", recording)
        monkeypatch.setattr(meta, "inner_adapt", adapting)
        monkeypatch.setattr(
            meta, "backward", lambda *a, **k: sweeps.append(a) or real_backward(*a, **k)
        )
        return calls, shapes, sweeps

    @pytest.mark.parametrize(
        "sampling, support_size",
        [("balanced", 4), ("unbalanced", 5), ("balanced", 2)],
        ids=["balanced", "unbalanced-split-shapes", "no-adaptation-queries"],
    )
    def test_stacked_episodes_equal_each_episode_alone(self, monkeypatch, sampling, support_size):
        cfg = tiny_cfg()
        cfg.protocol.sampling, cfg.protocol.support_size = sampling, support_size
        seeds = [[5, meta.KEY_EVAL, 0, rep] for rep in range(6)]
        calls, shapes, sweeps = self.captured_calls(monkeypatch)
        scored = score_task(self.model, self.task, cfg, seeds)
        monkeypatch.undo()
        ((_, levels, labels, support_rows, _, fine_seeds, task_id),) = calls
        (split_shapes,) = shapes
        assert task_id == self.task.task_id
        assert len(scored) == len(fine_seeds) >= 5
        if sampling == "unbalanced":
            assert len(split_shapes) >= 2  # adaptation splits of different shapes
        else:
            assert len(split_shapes) == 1
        if support_size == 2:
            assert split_shapes == {(2, 0)}  # one example per class: no adaptation queries
            assert sweeps == []
        elif sampling == "balanced":
            assert len(sweeps) == cfg.train.inner_steps  # one stacked pass for the whole task
        episodes = [sample_episode(self.task, cfg.protocol, seed[:-1]) for seed in fine_seeds]
        used = np.unique(np.concatenate([np.r_[e.support_idx, e.query_idx] for e in episodes]))
        for (scores, _), fine_seed, s_rows, episode in zip(scored, fine_seeds, support_rows, episodes):
            assert s_rows.tolist() == np.searchsorted(used, episode.support_idx).tolist()
            rows = levels[:, np.r_[s_rows, np.searchsorted(used, episode.query_idx)]]
            n_s = len(s_rows)
            w, _, errors = meta.adapt_labelled(
                self.model.matcher, rows, labels[s_rows], np.arange(n_s)[None], cfg, [fine_seed],
                task_id,
            )
            assert errors == {}
            alone = meta._match_rows(
                Tensor(rows[None, :, n_s:]), Tensor(rows[None, :, :n_s]),
                labels[s_rows][None, :, None], w,
            )[0][0]
            assert scores.tobytes() == alone[:, 0].tobytes()
            reference = finetune_per_episode(
                self.model.matcher, rows, [y for _, y in episode.support],
                cfg.train.support_split_fraction, fine_seed, cfg.train.inner_steps, cfg.train.alpha,
            )
            np.testing.assert_allclose(scores, reference[:, 0], rtol=0, atol=1e-12)

    def test_failed_episode_leaves_the_others_untouched(self):
        # episodes 0-2 hold four labelled rows and episode 3 six, so their
        # splits take two shapes; episode 1, in the middle of the first
        # stack, reads NaN rows and leaves that stack at its first step
        cfg = tiny_cfg()
        lengths = [4, 4, 4, 6]
        starts = np.cumsum([0] + lengths)
        rows = [np.arange(a, b) for a, b in zip(starts, starts[1:])]
        labels = np.concatenate([np.arange(n) % 2 for n in lengths]).astype(np.float64)
        stacked = np.random.default_rng(0).normal(
            size=(cfg.encoder.layers, starts[-1], cfg.encoder.hidden)
        )
        stacked[:, rows[1]] = np.nan
        seeds = [[7, e] for e in range(len(rows))]
        assert len({
            tuple(map(len, split_support(labels[r], cfg.train.support_split_fraction, seed)))
            for r, seed in zip(rows, seeds)
        }) == 2
        w, histories, errors = meta.adapt_labelled(
            self.model.matcher, stacked, labels, rows, cfg, seeds, "t"
        )
        assert list(errors) == [1]
        assert str(errors[1]) == "task t: non-finite inner loss nan"
        assert histories[1] == []
        for name, t in self.model.matcher.tensors().items():
            assert w[name][1].tobytes() == t.values.tobytes(), name
        for e in (0, 2, 3):
            w_alone, (history,), errors = meta.adapt_labelled(
                self.model.matcher, stacked, labels, [rows[e]], cfg, [seeds[e]], "t"
            )
            assert errors == {}
            assert len(history) == cfg.train.inner_steps + 1
            assert histories[e] == history, e
            for name, v in w_alone.items():
                assert w[name][e].tobytes() == v[0].tobytes(), (e, name)

    def test_repeats_share_each_backward_sweep(self, monkeypatch):
        sweeps = []
        real = meta.backward
        monkeypatch.setattr(meta, "backward", lambda *a, **k: sweeps.append(a) or real(*a, **k))
        seeds = [[5, meta.KEY_EVAL, 0, rep] for rep in range(4)]
        assert len(score_task(self.model, self.task, self.cfg, seeds)) == 4
        assert len(sweeps) == self.cfg.train.inner_steps  # not 4 x inner_steps

    def poison(self, monkeypatch, rows):
        """Make ``encode_frozen`` give NaN embeddings to the task's ``rows``."""
        poisoned = {id(self.task.examples[i].graph) for i in rows}
        real = meta.encode_frozen

        def poisoning(graphs, params):
            levels = real(graphs, params)
            levels[:, [id(g) in poisoned for g in graphs]] = np.nan
            return levels

        monkeypatch.setattr(meta, "encode_frozen", poisoning)

    def test_poisoned_episode_raises_its_own_error_first_in_seed_order(self, monkeypatch):
        seeds = [[5, meta.KEY_EVAL, 0, rep] for rep in range(5)]
        episodes = [sample_episode(self.task, self.cfg.protocol, seed) for seed in seeds]
        assert all(len({y for _, y in e.query}) == 2 for e in episodes)  # none is dropped
        earlier = {int(i) for e in episodes[:2] for i in np.r_[e.support_idx, e.query_idx]}
        candidates = sorted(set(episodes[2].support_idx.tolist()) - earlier)
        assert candidates
        self.poison(monkeypatch, [candidates[0]])
        with pytest.raises(NumericalError) as stacked:
            score_task(self.model, self.task, self.cfg, seeds)
        episode = episodes[2]
        with pytest.raises(NumericalError) as alone:
            finetune_and_predict(
                self.model, episode.support, [g for g, _ in episode.query], self.cfg, seeds[2] + [1]
            )
        assert str(stacked.value) == "task t: non-finite inner loss nan"
        assert str(alone.value) == "task finetune: non-finite inner loss nan"

    def test_prediction_failure_outranks_a_later_adaptation_failure(self, monkeypatch):
        # episode 1 fails only in the match, on a molecule that only its
        # queries use; episode 3 fails in adaptation, on a support molecule.
        # Adaptation runs first, yet the first failure in seed order wins.
        seeds = [[5, meta.KEY_EVAL, 0, rep] for rep in range(5)]
        episodes = [sample_episode(self.task, self.cfg.protocol, seed) for seed in seeds]
        assert all(len({y for _, y in e.query}) == 2 for e in episodes)  # none is dropped
        rows = [set(np.r_[e.support_idx, e.query_idx].tolist()) for e in episodes]
        supports = set().union(*(e.support_idx.tolist() for e in episodes))
        query_only = sorted(set(episodes[1].query_idx.tolist()) - supports - rows[0])
        late_support = sorted(set(episodes[3].support_idx.tolist()) - rows[0] - rows[1])
        assert query_only and late_support
        self.poison(monkeypatch, [query_only[0], late_support[0]])
        with pytest.raises(NumericalError, match="^task t: non-finite inner loss nan$"):
            score_task(self.model, self.task, self.cfg, [seeds[3]])
        with pytest.raises(NumericalError, match="^task t: non-finite prediction$"):
            score_task(self.model, self.task, self.cfg, seeds)
