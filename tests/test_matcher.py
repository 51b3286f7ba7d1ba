import numpy as np
import pytest

from molmatch.encoder import EncoderParams, encode_multilevel
from molmatch.matcher import (
    MatchParams,
    episode_rows,
    layer_predictions,
    match_levels,
    predict_detailed,
)
from molmatch.smiles import graph_from_smiles
from molmatch.tensor import Tensor, backward, cross_entropy, mul, reshape, stack, sum_all
from oracles import match_levels_unfused, match_per_layer

SUPPORT = ["CCO", "CC(=O)O", "c1ccccc1", "CCN"]
QUERIES = ["CCC", "c1ccncc1"]


def graphs(smiles):
    return [graph_from_smiles(s) for s in smiles]


class TestInit:
    def test_shared_projection_by_default(self):
        params = MatchParams.init(4, 8, seed=0)
        assert params.shared_qk and len(params.wq) == 1
        assert params.qk(0) == params.qk(3)
        assert params.wo.shape == (4, 2) and params.bias.shape == (2,)

    def test_per_layer_projections(self):
        params = MatchParams.init(3, 8, seed=0, share_qk=False)
        assert not params.shared_qk and len(params.wq) == 3
        assert params.qk(0) != params.qk(2)

    def test_bias_freeze(self):
        frozen = MatchParams.init(2, 4, learn_bias=False)
        assert not frozen.bias.requires_grad
        np.testing.assert_array_equal(frozen.bias.values, np.zeros(2))
        clone = frozen.clone()
        assert not clone.bias.requires_grad  # freezing survives functional updates

    def test_replace_values_preserves_untouched(self):
        params = MatchParams.init(2, 4, seed=5)
        new = params.replace_values({"wo": np.ones((2, 2))})
        np.testing.assert_array_equal(new.wo.values, np.ones((2, 2)))
        np.testing.assert_array_equal(new.wq[0].values, params.wq[0].values)


def match_episode(z_query, z_support, y_support, params, **kwargs):
    """``match_levels`` on one episode (E = 1) of [L, n, d] stacks, [n, 1]
    labels and unstacked weights, the episode axis added by reshape nodes
    as ``predict_detailed`` adds it, so gradients reach the inputs:
    (probs [n_query, 2], y_hat, attention)."""

    def one(t: Tensor) -> Tensor:
        return reshape(t, (1, *t.shape))

    probs, y_hat, attention = match_levels(
        one(z_query),
        one(z_support),
        y_support.values[None],
        MatchParams({name: one(t) for name, t in params.tensors().items()}),
        **kwargs,
    )
    return reshape(probs, probs.shape[1:]), y_hat[0], attention[0]


def match_one(z_query, z_support, y_support, params, **kwargs):
    """``match_levels`` on one episode of one layer (E = L = 1): the fused
    probabilities and the layer's prediction."""
    probs, y_hat, attention = match_episode(
        Tensor(np.asarray(z_query, dtype=float)[None]),
        Tensor(np.asarray(z_support, dtype=float)[None]),
        Tensor(y_support),
        params,
        **kwargs,
    )
    return probs, layer_predictions(y_hat, attention)[0]


class TestMatchLayer:
    """Attention matching at one layer."""

    def test_single_support_returns_its_label_exactly(self):
        params = MatchParams.init(1, 3, seed=0)
        z_q = np.random.default_rng(0).normal(size=(4, 3))
        z_s = np.random.default_rng(1).normal(size=(1, 3))
        for label in (0.0, 1.0):
            _, pred = match_one(z_q, z_s, [[label]], params)
            assert (pred.attention == 1.0).all()
            assert (pred.y_hat == label).all()

    def test_zero_projection_gives_uniform_attention(self):
        params = MatchParams.init(1, 3, seed=0).replace_values({"wq0": np.zeros((3, 3))})
        rng = np.random.default_rng(2)
        _, pred = match_one(
            rng.normal(size=(5, 3)),
            rng.normal(size=(7, 3)),
            rng.integers(0, 2, size=(7, 1)).astype(float),
            params,
        )
        np.testing.assert_allclose(pred.attention, np.full((5, 7), 1 / 7), rtol=0, atol=1e-15)

    def test_rows_sum_to_one_and_estimates_stay_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_s, n_q, d = int(rng.integers(1, 9)), int(rng.integers(1, 6)), 4
            params = MatchParams.init(1, d, seed=int(rng.integers(1000)))
            y_s = rng.integers(0, 2, size=(n_s, 1)).astype(float)
            _, pred = match_one(
                rng.normal(size=(n_q, d)) * 3, rng.normal(size=(n_s, d)) * 3, y_s, params
            )
            np.testing.assert_allclose(pred.attention.sum(axis=1), 1.0, atol=1e-12)
            assert (pred.y_hat >= 0.0).all() and (pred.y_hat <= 1.0).all()

    def test_hand_computed_scalar_attention(self):
        params = MatchParams.init(1, 1, seed=0).replace_values(
            {"wq0": [[3.0]], "wk0": [[1.0]]}
        )
        _, pred = match_one([[1.0]], [[2.0], [0.5]], [[1.0], [0.0]], params)
        scores = np.array([3.0 * 2.0, 3.0 * 0.5])  # (z_q wq)(z_s wk)^T / sqrt(1)
        expect = np.exp(scores - scores.max())
        expect /= expect.sum()
        np.testing.assert_allclose(pred.attention, expect[None, :], rtol=1e-14)
        np.testing.assert_allclose(pred.y_hat, [[expect[0]]], rtol=1e-14)

    def test_errors(self):
        params = MatchParams.init(1, 3, seed=0)
        z = np.ones((2, 3))
        with pytest.raises(ValueError, match=r"z_support \(1, 1, 0, 3\)"):
            match_one(z, np.ones((0, 3)), np.ones((0, 1)), params)
        with pytest.raises(ValueError, match=r"z_support \(1, 1, 2, 4\)"):
            match_one(z, np.ones((2, 4)), np.ones((2, 1)), params)
        with pytest.raises(ValueError, match=r"y_support \(1, 2\)"):
            match_one(z, np.ones((2, 3)), np.ones((2,)), params)


class TestFuse:
    """The affine fusion of the layer estimates into probabilities."""

    def test_zero_fusion_weights_give_even_odds(self):
        params = MatchParams.init(1, 3, seed=0).replace_values(
            {"wo": np.zeros((1, 2)), "bias": np.zeros(2)}
        )
        rng = np.random.default_rng(3)
        probs, _ = match_one(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)),
                             [[0.3], [0.9], [0.0], [1.0]], params)
        assert (probs.values == 0.5).all()

    def test_hand_computed_fusion(self):
        params = MatchParams.init(1, 1, seed=0).replace_values(
            {"wo": [[2.0, -1.0]], "bias": [0.5, -0.5]}
        )
        y_hat = 0.75
        # a single support row gets all the attention, so the layer
        # estimate is its label exactly
        probs, pred = match_one([[1.0]], [[1.0]], [[y_hat]], params)
        assert (pred.y_hat == y_hat).all()
        logits = np.array([y_hat * 2.0 + 0.5, y_hat * -1.0 - 0.5])
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        np.testing.assert_allclose(probs.values, expect[None, :], rtol=1e-14)

    def test_layer_count_mismatch(self):
        params = MatchParams.init(3, 2, seed=0)
        with pytest.raises(ValueError, match=r"wo \(1, 3, 2\)"):
            match_one(np.ones((1, 2)), np.ones((1, 2)), [[0.5]], params)


class TestPredict:
    def make_model(self, layers=2, hidden=6, seed=0):
        return (
            EncoderParams.init(layers, hidden, seed=seed),
            MatchParams.init(layers, hidden, seed=seed + 1),
        )

    def test_rows_are_probabilities(self):
        enc, match = self.make_model()
        probs = predict_detailed(graphs(SUPPORT), [1, 0, 1, 0], graphs(QUERIES), enc, match)[0]
        assert probs.shape == (2, 2)
        np.testing.assert_allclose(probs.values.sum(axis=1), 1.0, atol=1e-12)
        assert (probs.values > 0).all()

    def test_support_permutation_invariance(self):
        enc, match = self.make_model(seed=4)
        labels = [1, 0, 1, 0]
        base = predict_detailed(graphs(SUPPORT), labels, graphs(QUERIES), enc, match)[0]
        rng = np.random.default_rng(0)
        for _ in range(5):
            perm = rng.permutation(len(SUPPORT))
            shuffled = predict_detailed(
                [graphs(SUPPORT)[i] for i in perm],
                [labels[i] for i in perm],
                graphs(QUERIES),
                enc,
                match,
            )[0]
            np.testing.assert_allclose(shuffled.values, base.values, rtol=0, atol=1e-10)

    def test_detailed_returns_per_layer_attention(self):
        enc, match = self.make_model(layers=3)
        probs, preds = predict_detailed(graphs(SUPPORT), [1, 0, 0, 1], graphs(QUERIES), enc, match)
        assert len(preds) == 3
        for p in preds:
            assert p.attention.shape == (len(QUERIES), len(SUPPORT))
            np.testing.assert_allclose(p.attention.sum(axis=1), 1.0, atol=1e-12)

    def test_label_count_mismatch(self):
        enc, match = self.make_model()
        with pytest.raises(ValueError, match="labels"):
            predict_detailed(graphs(SUPPORT), [1, 0], graphs(QUERIES), enc, match)

    def test_empty_sets_rejected(self):
        enc, match = self.make_model()
        with pytest.raises(ValueError, match="empty support"):
            predict_detailed([], [], graphs(QUERIES), enc, match)
        with pytest.raises(ValueError, match="empty query"):
            predict_detailed(graphs(SUPPORT), [1, 0, 1, 0], [], enc, match)


MATCH_CASES = [
    pytest.param(True, True, 0.0, id="shared"),
    pytest.param(False, True, 0.0, id="per-layer-qk"),
    pytest.param(True, False, 0.0, id="frozen-bias"),
    pytest.param(True, True, 0.3, id="shared-dropout"),
    pytest.param(False, False, 0.3, id="per-layer-qk-frozen-bias-dropout"),
]


class TestStackedMatch:
    """``match_levels`` against the per-layer reference in ``oracles``."""

    @pytest.mark.parametrize("share_qk, learn_bias, rate", MATCH_CASES)
    def test_matches_per_layer_reference(self, share_qk, learn_bias, rate):
        for seed in range(4):
            rng = np.random.default_rng([31, seed])
            n_layers, d, n_s, n_q = 3, 5, 6, 4
            params = MatchParams.init(
                n_layers, d, seed=seed, share_qk=share_qk, learn_bias=learn_bias
            )
            zq = [Tensor(rng.normal(size=(n_q, d)), requires_grad=True) for _ in range(n_layers)]
            zs = [Tensor(rng.normal(size=(n_s, d)), requires_grad=True) for _ in range(n_layers)]
            y_s = Tensor(rng.integers(0, 2, size=(n_s, 1)).astype(float))
            target = Tensor(np.eye(2)[rng.integers(0, 2, size=n_q)])
            probs, y_hat, attention = match_episode(
                stack(zq), stack(zs), y_s, params, dropout_rate=rate, rng=np.random.default_rng(seed)
            )
            ref_probs, ref_y, ref_att = match_per_layer(
                zq, zs, y_s, params, dropout_rate=rate, rng=np.random.default_rng(seed)
            )
            np.testing.assert_allclose(probs.values, ref_probs.values, rtol=0, atol=1e-12)
            preds = layer_predictions(y_hat, attention)
            assert len(preds) == n_layers
            for pred, y, att in zip(preds, ref_y, ref_att):
                np.testing.assert_allclose(pred.y_hat, y.values, rtol=0, atol=1e-12)
                np.testing.assert_allclose(pred.attention, att.values, rtol=0, atol=1e-12)

            watched = list(params.tensors().values()) + zq + zs
            grads = backward(cross_entropy(probs, target), params=watched)
            ref = backward(cross_entropy(ref_probs, target), params=watched)
            for t in watched:
                if t.requires_grad:
                    np.testing.assert_allclose(grads[t], ref[t], rtol=0, atol=1e-12)

    def test_dropout_paths(self):
        enc, match = EncoderParams.init(2, 6, seed=6), MatchParams.init(2, 6, seed=7)
        levels = encode_multilevel(graphs(SUPPORT + QUERIES), enc).values
        n_s = len(SUPPORT)
        labels = Tensor(np.array([[1.0], [0.0], [1.0], [0.0]]))
        args = (Tensor(levels[:, n_s:]), Tensor(levels[:, :n_s]), labels, match)
        clean = match_episode(*args)[0]
        rate_zero = match_episode(*args, dropout_rate=0.0, rng=np.random.default_rng(0))[0]
        assert clean.values.tobytes() == rate_zero.values.tobytes()
        dropped, _, attention = match_episode(*args, dropout_rate=0.5, rng=np.random.default_rng(0))
        assert not np.array_equal(clean.values, dropped.values)
        # the reported attention is the pre-dropout distribution
        np.testing.assert_allclose(attention.sum(axis=-1), 1.0, atol=1e-12)

    def test_episode_rows_of_encoded_levels_match_reference(self):
        # the outer loss's path: one tracked encode, then the support and
        # query rows of the level stack matched with dropout
        enc = EncoderParams.init(3, 6, seed=2)
        match = MatchParams.init(3, 6, seed=3, share_qk=False)
        labels = [1, 0, 1, 0]
        n_s, n_rows = len(SUPPORT), len(SUPPORT) + len(QUERIES)
        # encoder dropout, then the matcher's per-layer and fusion masks,
        # all from one generator; the reference draws in the same order
        rng = np.random.default_rng(9)
        levels = encode_multilevel(graphs(SUPPORT + QUERIES), enc, dropout_rate=0.2, rng=rng)
        probs, y_hat, attention = match_levels(
            episode_rows(levels, np.arange(n_s, n_rows)[None]),
            episode_rows(levels, np.arange(n_s)[None]),
            np.asarray(labels, dtype=float).reshape(1, -1, 1),
            MatchParams({name: reshape(t, (1, *t.shape)) for name, t in match.tensors().items()}),
            dropout_rate=0.25,
            rng=rng,
        )
        preds = layer_predictions(y_hat[0], attention[0])
        rng = np.random.default_rng(9)
        levels = encode_multilevel(graphs(SUPPORT + QUERIES), enc, dropout_rate=0.2, rng=rng)
        ref_probs, ref_y, ref_att = match_per_layer(
            [Tensor(z[n_s:]) for z in levels.values],
            [Tensor(z[:n_s]) for z in levels.values],
            Tensor(np.asarray(labels, dtype=float).reshape(-1, 1)),
            match,
            dropout_rate=0.25,
            rng=rng,
        )
        np.testing.assert_allclose(probs.values[0], ref_probs.values, rtol=0, atol=1e-12)
        for pred, y, att in zip(preds, ref_y, ref_att):
            np.testing.assert_allclose(pred.y_hat, y.values, rtol=0, atol=1e-12)
            np.testing.assert_allclose(pred.attention, att.values, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("share_qk, learn_bias, rate", MATCH_CASES)
    def test_fused_op_is_bit_identical_to_unfused_composition(self, share_qk, learn_bias, rate):
        # the values and gradients of the parent's op-by-op block, bit for bit
        for seed in range(4):
            rng = np.random.default_rng([32, seed])
            n_layers, d, n_s, n_q = 3, 7, 5, 9
            params = MatchParams.init(
                n_layers, d, seed=seed, share_qk=share_qk, learn_bias=learn_bias
            )
            zq = Tensor(rng.normal(size=(n_layers, n_q, d)), requires_grad=True)
            zs = Tensor(rng.normal(size=(n_layers, n_s, d)), requires_grad=True)
            y_s = Tensor(rng.integers(0, 2, size=(n_s, 1)).astype(float))
            target = Tensor(np.eye(2)[rng.integers(0, 2, size=n_q)])
            runs = []
            for match in (match_episode, match_levels_unfused):
                probs, y_hat, attention = match(
                    zq, zs, y_s, params, dropout_rate=rate, rng=np.random.default_rng(seed)
                )
                watched = [zq, zs, *params.tensors().values()]
                grads = backward(cross_entropy(probs, target), params=watched)
                runs.append([probs.values, getattr(y_hat, "values", y_hat),
                             getattr(attention, "values", attention), *(grads[t] for t in watched)])
            fused, unfused = runs
            assert len(fused) == len(unfused)
            for got, want in zip(fused, unfused):
                assert got.tobytes() == want.tobytes()

    def test_episode_stack_is_bit_identical_to_episodes_alone(self):
        rng = np.random.default_rng(33)
        n_eps, n_layers, d, n_s, n_q = 4, 3, 6, 5, 7
        for share_qk in (True, False):
            params = MatchParams.init(n_layers, d, seed=1, share_qk=share_qk)
            zq = rng.normal(size=(n_eps, n_layers, n_q, d))
            zs = rng.normal(size=(n_eps, n_layers, n_s, d))
            y_s = rng.integers(0, 2, size=(n_eps, n_s, 1)).astype(float)
            weights = {
                name: rng.normal(size=(n_eps, *t.shape)) for name, t in params.tensors().items()
            }
            target = Tensor(np.eye(2)[rng.integers(0, 2, size=(n_eps, n_q))])

            def run(episodes):
                w = MatchParams({
                    name: Tensor(v[episodes], requires_grad=True) for name, v in weights.items()
                })
                probs, y_hat, attention = match_levels(
                    Tensor(zq[episodes]), Tensor(zs[episodes]), y_s[episodes], w
                )
                losses = cross_entropy(probs, Tensor(target.values[episodes]))
                watched = w.tensors().values()
                grads = backward(sum_all(losses), params=watched)
                return [probs.values, y_hat, attention, losses.values, *(grads[t] for t in watched)]

            stacked = run(np.arange(n_eps))
            for e in range(n_eps):
                alone = run(np.array([e]))
                for got, want in zip(stacked, alone):
                    assert got[e].tobytes() == want[0].tobytes()

    def test_two_episodes_equal_each_episode_matched_alone(self):
        # E = 2 stacked weights against each episode's own unstacked
        # weights, given the episode axis as predict_detailed gives it
        rng = np.random.default_rng(34)
        n_layers, d, n_s, n_q = 3, 5, 4, 6
        for share_qk in (True, False):
            episodes = [
                MatchParams.init(n_layers, d, seed=seed, share_qk=share_qk) for seed in (7, 8)
            ]
            zq = rng.normal(size=(2, n_layers, n_q, d))
            zs = rng.normal(size=(2, n_layers, n_s, d))
            y_s = rng.integers(0, 2, size=(2, n_s, 1)).astype(float)
            target = np.eye(2)[rng.integers(0, 2, size=(2, n_q))]
            w = MatchParams({
                name: Tensor(np.stack([p[name].values for p in episodes]), requires_grad=True)
                for name in episodes[0].tensors()
            })
            probs, y_hat, attention = match_levels(Tensor(zq), Tensor(zs), y_s, w)
            grads = backward(
                sum_all(cross_entropy(probs, Tensor(target))), params=w.tensors().values()
            )
            for e, params in enumerate(episodes):
                alone = match_episode(Tensor(zq[e]), Tensor(zs[e]), Tensor(y_s[e]), params)
                assert probs.values[e].tobytes() == alone[0].values.tobytes()
                assert y_hat[e].tobytes() == alone[1].tobytes()
                assert attention[e].tobytes() == alone[2].tobytes()
                ref = backward(
                    cross_entropy(alone[0], Tensor(target[e])),
                    params=params.tensors().values(),
                )
                for name, t in params.tensors().items():
                    assert grads[w[name]][e].tobytes() == ref[t].tobytes(), name

    def test_match_records_one_attention_node(self):
        params = MatchParams.init(2, 4, seed=0)
        w = MatchParams({n: Tensor(t.values[None], requires_grad=True)
                         for n, t in params.tensors().items()})
        zq = Tensor(np.ones((1, 2, 3, 4)), requires_grad=True)
        probs, _, _ = match_levels(zq, Tensor(np.ones((1, 2, 5, 4))), np.ones((1, 5, 1)), w)
        assert probs._vjp is not None and len(probs._parents) == 2 + 2 + 2

    def test_layer_count_must_match_fusion_rows(self):
        params = MatchParams.init(3, 2, seed=0)
        z = Tensor(np.ones((2, 4, 2)))
        with pytest.raises(ValueError, match=r"wo \(1, 3, 2\)"):
            match_episode(z, z, Tensor(np.ones((4, 1))), params)


class TestEpisodeRows:
    """``episode_rows`` slices an [L, n, d] level stack into episode rows."""

    def setup_method(self):
        rng = np.random.default_rng(35)
        self.stacked = rng.normal(size=(3, 9, 4))
        self.rows = np.array([[0, 4, 7], [4, 2, 8]])  # episodes may share rows

    def test_values_equal_numpy_fancy_index(self):
        got = episode_rows(Tensor(self.stacked), self.rows)
        want = np.swapaxes(self.stacked[:, self.rows], 0, 1)
        assert got.shape == (2, 3, 3, 4)
        assert got.values.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_constant_stack_records_no_node(self):
        got = episode_rows(Tensor(self.stacked), self.rows)
        assert not got.requires_grad and got._parents == () and got._vjp is None

    def test_tracked_stack_gradient_scatters_rows_back(self):
        levels = Tensor(self.stacked, requires_grad=True)
        upstream = np.random.default_rng(36).normal(size=(2, 3, 3, 4))
        got = episode_rows(levels, self.rows)
        grads = backward(sum_all(mul(got, Tensor(upstream))), params=[levels])
        want = np.zeros_like(self.stacked)
        for e, episode in enumerate(self.rows):
            for j, r in enumerate(episode):
                want[:, r] += upstream[e, :, j]
        np.testing.assert_allclose(grads[levels], want, rtol=0, atol=1e-12)
