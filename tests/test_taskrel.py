import numpy as np
import pytest

from molmatch import taskrel
from molmatch.config import MODES, RunConfig
from molmatch.encoder import encode_frozen
from molmatch.episodes import sample_episode
from molmatch.matcher import MatchParams
from molmatch.meta import KEY_EPISODE, KEY_SPLIT, adapt_labelled, init_model, inner_adapt, split_support
from molmatch.taskrel import (
    TaskVector,
    allocate_shadow_block,
    implicit_inference_update,
    implicit_inner_update,
    implicit_outer_update,
    relation_matrix,
    row_normalize,
    task_vector,
)
from helpers import chain_task
from oracles import (
    implicit_inference_per_tensor,
    implicit_inner_per_tensor,
    implicit_outer_per_tensor,
)


def vec(task_id, values):
    return TaskVector(task_id, np.asarray(values, dtype=np.float64), "adapted-w-delta")


def random_params(rng, n=3, layers=2, hidden=4):
    out = []
    for _ in range(n):
        base = MatchParams.init(layers, hidden, seed=int(rng.integers(1 << 30)))
        out.append(
            base.replace_values(
                {name: rng.normal(size=t.shape) for name, t in base.tensors().items()}
            )
        )
    return out


def flatten(params):
    return np.concatenate([t.values.reshape(-1) for _, t in sorted(params.tensors().items())])


class TestRelationMatrix:
    # v1 = [1, 0], v2 = [1, 1]: every kernel entry is checkable by hand
    def pair(self):
        return [vec("a", [1.0, 0.0]), vec("b", [1.0, 1.0])]

    def test_dot_kernel_by_hand(self):
        rel = relation_matrix(self.pair(), "dot")
        np.testing.assert_allclose(rel.matrix, [[1.0, 1.0], [1.0, 2.0]], rtol=1e-15)
        assert rel.task_ids == ["a", "b"]

    def test_cosine_kernel_by_hand(self):
        rel = relation_matrix(self.pair(), "cosine")
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(rel.matrix, [[1.0, r], [r, 1.0]], rtol=1e-15)

    def test_euclidean_kernel_by_hand(self):
        rel = relation_matrix(self.pair(), "euclidean")
        np.testing.assert_allclose(rel.matrix, [[0.0, -1.0], [-1.0, 0.0]], atol=1e-15)

    def test_symmetry_all_kernels(self):
        rng = np.random.default_rng(0)
        vectors = [vec(f"t{i}", rng.normal(size=17)) for i in range(6)]
        for metric in ("dot", "cosine", "euclidean"):
            m = relation_matrix(vectors, metric).matrix
            np.testing.assert_allclose(m, m.T, atol=1e-9)

    def test_cosine_diagonal_is_one(self):
        rng = np.random.default_rng(1)
        vectors = [vec(f"t{i}", rng.normal(size=9)) for i in range(4)]
        np.testing.assert_allclose(
            np.diag(relation_matrix(vectors, "cosine").matrix), 1.0, rtol=1e-12
        )

    def test_cosine_of_huge_vectors_is_their_direction(self):
        # the norm of a vector near 1e200 overflows to inf, which would
        # turn every unit vector into 0
        rel = relation_matrix([vec("a", [1e200, 0.0]), vec("b", [1e200, 1e200])], "cosine")
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(rel.matrix, [[1.0, r], [r, 1.0]], rtol=1e-15)

    @pytest.mark.parametrize("metric", ["dot", "cosine", "euclidean"])
    def test_tiny_vectors_are_not_zero(self, metric):
        # the norm of a vector near 1e-170 underflows to 0
        m = relation_matrix([vec("a", [1e-170, 0.0]), vec("b", [1e-170, 1e-170])], metric).matrix
        if metric == "cosine":
            r = 1.0 / np.sqrt(2.0)
            np.testing.assert_allclose(m, [[1.0, r], [r, 1.0]], rtol=1e-15)
        else:
            np.testing.assert_array_equal(m, np.zeros((2, 2)))  # the products underflow

    def test_cosine_rejects_zero_vector_naming_task(self):
        vectors = [vec("ok", [1.0, 2.0]), vec("null-task", [0.0, 0.0])]
        with pytest.raises(ValueError, match="null-task"):
            relation_matrix(vectors, "cosine")

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown metric"):
            relation_matrix(self.pair(), "manhattan")
        with pytest.raises(ValueError, match="at least two"):
            relation_matrix([vec("a", [1.0])], "dot")
        with pytest.raises(ValueError, match="disagree in length"):
            relation_matrix([vec("a", [1.0]), vec("b", [1.0, 2.0])], "dot")


class TestRowNormalize:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        m = row_normalize(rng.normal(size=(5, 5)) * 10)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(m > 0)

    def test_uniform_input_gives_uniform_rows(self):
        m = row_normalize(np.full((3, 3), 7.0))
        np.testing.assert_allclose(m, 1.0 / 3.0, rtol=1e-15)

    def test_large_scores_do_not_overflow(self):
        m = row_normalize(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
        assert np.all(np.isfinite(m))
        np.testing.assert_allclose(np.diag(m), 1.0, atol=1e-12)


class TestImplicitInnerUpdate:
    def test_two_task_hand_instance(self):
        rng = np.random.default_rng(3)
        w1, w2 = random_params(rng, n=2)
        m = np.array([[0.7, 0.3], [0.4, 0.6]])
        out = implicit_inner_update([w1, w2], m)
        for name, t in w1.tensors().items():
            a, b = t.values, w2.tensors()[name].values
            np.testing.assert_allclose(out[0].tensors()[name].values, a + 0.3 * (b - a), rtol=1e-15)
            np.testing.assert_allclose(out[1].tensors()[name].values, b + 0.4 * (a - b), rtol=1e-15)

    def test_equal_parameters_are_a_fixed_point(self):
        rng = np.random.default_rng(4)
        (w,) = random_params(rng, n=1)
        copies = [w.clone(), w.clone(), w.clone()]
        m = row_normalize(rng.normal(size=(3, 3)))
        out = implicit_inner_update(copies, m)
        for i in range(3):
            for name, t in out[i].tensors().items():
                np.testing.assert_array_equal(t.values, w.tensors()[name].values)

    def test_contraction_toward_coordinate_envelope(self):
        # with a row-normalized M the update is a convex mix, so every
        # coordinate stays inside the pre-update min/max envelope and
        # the spread never grows
        rng = np.random.default_rng(5)
        for trial in range(100):
            w_list = random_params(rng, n=3)
            m = row_normalize(rng.normal(size=(3, 3)))
            out = implicit_inner_update(w_list, m)
            before = np.stack([flatten(w) for w in w_list])
            after = np.stack([flatten(w) for w in out])
            lo, hi = before.min(axis=0), before.max(axis=0)
            assert np.all(after >= lo - 1e-12) and np.all(after <= hi + 1e-12)
            assert np.all(
                after.max(axis=0) - after.min(axis=0) <= (hi - lo) + 1e-12
            ), f"trial {trial}: coordinate spread grew"

    def test_reads_pre_update_values(self):
        # sequential (in-place) updating would give a different w2'
        a = MatchParams.init(1, 2, seed=0).replace_values(
            {"wq0": np.zeros((2, 2)), "wk0": np.zeros((2, 2)), "wo": np.zeros((1, 2)), "bias": np.zeros(2)}
        )
        b = a.replace_values({name: np.ones_like(t.values) for name, t in a.tensors().items()})
        m = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = implicit_inner_update([a, b], m)
        for name in a.tensors():
            np.testing.assert_array_equal(out[0].tensors()[name].values, np.ones_like(a.tensors()[name].values))
            np.testing.assert_array_equal(out[1].tensors()[name].values, np.zeros_like(a.tensors()[name].values))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        w_list = random_params(rng, n=2)
        with pytest.raises(ValueError, match="does not match 2"):
            implicit_inner_update(w_list, np.zeros((3, 3)))


class TestImplicitOuterUpdate:
    def test_eta_zero_is_identity(self):
        rng = np.random.default_rng(7)
        w_list = random_params(rng, n=2)
        shadow = allocate_shadow_block(w_list[0])
        out = implicit_outer_update(shadow, w_list, np.ones((2, 2)), eta=0.0)
        for name, t in out.tensors().items():
            np.testing.assert_array_equal(t.values, shadow.tensors()[name].values)

    def test_two_task_hand_instance(self):
        rng = np.random.default_rng(8)
        w1, w2 = random_params(rng, n=2)
        shadow = allocate_shadow_block(w1)
        m = np.array([[0.0, 0.25], [0.5, 0.0]])
        out = implicit_outer_update(shadow, [w1, w2], m, eta=0.1)
        for name, t in w1.tensors().items():
            d = w2.tensors()[name].values - t.values
            expected = 0.1 * (0.25 * d + 0.5 * (-d))
            np.testing.assert_allclose(out.tensors()[name].values, expected, rtol=1e-13, atol=1e-18)

    def test_missing_shadow_is_an_error(self):
        rng = np.random.default_rng(9)
        w_list = random_params(rng, n=2)
        with pytest.raises(ValueError, match="no shadow block"):
            implicit_outer_update(None, w_list, np.ones((2, 2)), eta=0.1)

    def test_shadow_block_is_zero_and_frozen(self):
        shadow = allocate_shadow_block(MatchParams.init(2, 4, seed=1))
        for t in shadow.tensors().values():
            np.testing.assert_array_equal(t.values, 0.0)
            assert not t.requires_grad


class TestImplicitInferenceUpdate:
    def test_restarts_from_shared_parameters(self):
        rng = np.random.default_rng(10)
        shared, w1, w2 = random_params(rng, n=3)
        m = np.array([[0.0, 0.6], [0.2, 0.0]])
        out = implicit_inference_update(shared, [w1, w2], m)
        for name, t in shared.tensors().items():
            d = w2.tensors()[name].values - w1.tensors()[name].values
            np.testing.assert_allclose(out[0].tensors()[name].values, t.values + 0.6 * d, rtol=1e-13)
            np.testing.assert_allclose(out[1].tensors()[name].values, t.values + 0.2 * (-d), rtol=1e-13)

    def test_equal_parameters_collapse_to_shared(self):
        rng = np.random.default_rng(11)
        shared, w = random_params(rng, n=2)
        out = implicit_inference_update(shared, [w.clone(), w.clone()], np.ones((2, 2)))
        for res in out:
            for name, t in res.tensors().items():
                np.testing.assert_array_equal(t.values, shared.tensors()[name].values)

    def test_linearity_in_parameter_scale(self):
        # zero shared block: output is linear in the task parameters
        rng = np.random.default_rng(12)
        w_list = random_params(rng, n=3)
        shared = allocate_shadow_block(w_list[0])
        m = row_normalize(rng.normal(size=(3, 3)))
        base = implicit_inference_update(shared, w_list, m)
        scaled_in = [
            w.replace_values({name: 3.0 * t.values for name, t in w.tensors().items()})
            for w in w_list
        ]
        scaled_out = implicit_inference_update(shared, scaled_in, m)
        for b, s in zip(base, scaled_out):
            for name in b.tensors():
                np.testing.assert_allclose(
                    s.tensors()[name].values, 3.0 * b.tensors()[name].values, rtol=1e-12, atol=1e-15
                )


def arrays(params):
    return {name: t.values for name, t in params.tensors().items()}


class TestMatchesPerTensorLoops:
    """The updates on stacked flat vectors equal the per-tensor loops bit
    for bit, and leave a frozen tensor frozen."""

    def assert_same(self, out, expected, like):
        assert list(out.tensors()) == list(expected)
        for name, t in out.tensors().items():
            assert t.values.tobytes() == expected[name].tobytes(), name
            assert t.requires_grad == like[name].requires_grad, name

    @pytest.mark.parametrize(
        "share_qk, learn_bias",
        [(True, True), (False, True), (True, False), (False, False)],
        ids=["shared", "per-layer-qk", "frozen-bias", "per-layer-frozen-bias"],
    )
    def test_random_shapes(self, share_qk, learn_bias):
        rng = np.random.default_rng([13, share_qk, learn_bias])
        for _ in range(20):
            layers, hidden, n = (int(rng.integers(lo, hi)) for lo, hi in ((1, 4), (1, 6), (2, 6)))
            base = MatchParams.init(layers, hidden, share_qk=share_qk, learn_bias=learn_bias)
            w_list = [
                base.replace_values({name: rng.normal(size=t.shape) for name, t in base.tensors().items()})
                for _ in range(n + 1)
            ]
            shared, w_list = w_list[0], w_list[1:]
            m = rng.normal(size=(n, n))
            eta = float(rng.normal())

            ref = [arrays(w) for w in w_list]
            inner = implicit_inner_update(w_list, m)
            for out, want, w in zip(inner, implicit_inner_per_tensor(ref, m), w_list):
                self.assert_same(out, want, w)
            outer = implicit_outer_update(shared, w_list, m, eta)
            self.assert_same(outer, implicit_outer_per_tensor(arrays(shared), ref, m, eta), shared)
            inference = implicit_inference_update(shared, w_list, m)
            for out, want, w in zip(inference, implicit_inference_per_tensor(arrays(shared), ref, m), w_list):
                self.assert_same(out, want, w)

    def test_mismatched_parameter_sets_rejected(self):
        shared = MatchParams.init(2, 3, seed=0)
        per_layer = MatchParams.init(2, 3, seed=0, share_qk=False)
        with pytest.raises(ValueError, match="mismatched tensors"):
            implicit_inner_update([shared, per_layer], np.ones((2, 2)))
        with pytest.raises(ValueError, match="shadow block shape"):
            implicit_outer_update(per_layer, [shared, shared], np.ones((2, 2)), eta=0.1)
        with pytest.raises(ValueError, match="shared w shape"):
            implicit_inference_update(per_layer, [shared, shared], np.ones((2, 2)))


class TestTaskVector:
    def cfg(self):
        cfg = RunConfig()
        cfg.encoder.layers = 2
        cfg.encoder.hidden = 8
        cfg.protocol.support_size = 4
        cfg.protocol.query_size = 8
        cfg.train.inner_steps = 2
        return cfg

    def test_adapted_delta_mode_length_and_determinism(self):
        cfg = self.cfg()
        model = init_model(cfg)
        task = chain_task("t", 12, 5)
        tv = task_vector(task, model, cfg, "adapted-w-delta", seed=[0])
        n_params = sum(t.values.size for t in model.matcher.tensors().values())
        assert tv.vector.shape == (n_params,)
        assert tv.task_id == "t" and tv.mode == "adapted-w-delta"
        again = task_vector(task, model, cfg, "adapted-w-delta", seed=[0])
        np.testing.assert_array_equal(tv.vector, again.vector)
        assert np.any(tv.vector != 0.0)  # adaptation actually moved w

    def test_embedding_mode_length(self):
        cfg = self.cfg()
        model = init_model(cfg)
        tv = task_vector(chain_task("t", 12, 5), model, cfg, "mean-support-embedding", seed=[1])
        assert tv.vector.shape == (cfg.encoder.layers * cfg.encoder.hidden,)

    def test_zero_steps_gives_zero_delta(self):
        cfg = self.cfg()
        cfg.train.inner_steps = 0
        model = init_model(cfg)
        tv = task_vector(chain_task("t", 12, 5), model, cfg, "adapted-w-delta", seed=[2])
        np.testing.assert_array_equal(tv.vector, 0.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_support_is_encoded_once(self, monkeypatch, mode):
        cfg = self.cfg()
        encoded = []
        real = taskrel.encode_frozen
        monkeypatch.setattr(
            taskrel, "encode_frozen", lambda graphs, params: encoded.append(graphs) or real(graphs, params)
        )
        task = chain_task("t", 12, 5)
        task_vector(task, init_model(cfg), cfg, mode, seed=[4])
        episode = sample_episode(task, cfg.protocol, [4, KEY_EPISODE])
        assert encoded == [[g for g, _ in episode.support]]  # once, in episode order

    def wide(self):
        """Paper width and a 20-example support, where a row's place in the
        encoder batch shows in the last bits: (cfg, model, task, the
        sampled episode, its support's labels and frozen rows in episode
        order)."""
        cfg = self.cfg()
        cfg.encoder.hidden, cfg.protocol.support_size = 300, 20
        model = init_model(cfg)
        task = chain_task("t", 40, 19)
        episode = sample_episode(task, cfg.protocol, [3, KEY_EPISODE])
        labels = np.array([y for _, y in episode.support], dtype=np.float64)
        stacked = encode_frozen([g for g, _ in episode.support], model.encoder)
        return cfg, model, task, episode, labels, stacked

    def test_adapted_delta_is_what_adapt_labelled_gives(self):
        cfg, model, task, _, labels, stacked = self.wide()
        tv = task_vector(task, model, cfg, "adapted-w-delta", seed=[3])
        w, _, errors = adapt_labelled(
            model.matcher, stacked, labels, np.arange(len(labels))[None], cfg, [[3, KEY_SPLIT]], "t"
        )
        assert errors == {}
        named = sorted(model.matcher.tensors().items())
        delta = np.concatenate([(w[name][0] - t.values).reshape(-1) for name, t in named])
        assert tv.vector.tobytes() == delta.tobytes()

    def test_adapted_delta_is_near_the_split_order_recipe(self):
        # the split's rows, encoded alone support side first, adapt to the
        # same w up to the rounding of their place in the encoder batch
        cfg, model, task, episode, labels, _ = self.wide()
        tv = task_vector(task, model, cfg, "adapted-w-delta", seed=[3])
        s, q = split_support(labels, cfg.train.support_split_fraction, [3, KEY_SPLIT])
        rows = encode_frozen([episode.support[i][0] for i in s + q], model.encoder)
        w, _, errors = inner_adapt(
            model.matcher, rows, labels[s + q], [(np.arange(len(s)), np.arange(len(s), len(s + q)))],
            cfg.train, "t",
        )
        assert errors == {}
        named = sorted(model.matcher.tensors().items())
        recipe = np.concatenate([(w[name][0] - t.values).reshape(-1) for name, t in named])
        np.testing.assert_allclose(tv.vector, recipe, rtol=0, atol=1e-12)

    def test_unknown_mode_rejected(self):
        cfg = self.cfg()
        model = init_model(cfg)
        with pytest.raises(ValueError, match="unknown task-vector mode"):
            task_vector(chain_task("t", 12, 5), model, cfg, "pca", seed=[0])
