from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from molmatch.config import RunConfig
from molmatch.encoder import EncoderParams
from molmatch.matcher import PROJECTION_GAIN, MatchParams
from molmatch.meta import ModelParams, init_model
from molmatch.smiles import D_ATOM, D_BOND

LAYER_NAMES = ("w1", "b1", "w2", "b2", "eps", "bond_embed")
CHECKPOINT_NAMES = (
    ["encoder.input_w", "encoder.input_b"]
    + [f"encoder.layer{i}.{name}" for i in range(2) for name in LAYER_NAMES]
    + ["matcher.wq0", "matcher.wk0", "matcher.wo", "matcher.bias"]
)


def two_layer_model(**matcher):
    cfg = RunConfig()
    cfg.encoder.layers = 2
    cfg.encoder.hidden = 4
    for key, value in matcher.items():
        setattr(cfg.matcher, key, value)
    return init_model(cfg)


def draw(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class TestNames:
    def test_model_names_are_the_checkpoint_names(self):
        assert list(two_layer_model().tensors()) == CHECKPOINT_NAMES

    def test_per_layer_projection_names(self):
        names = list(two_layer_model(share_qk=False).matcher.tensors())
        assert names == ["wq0", "wq1", "wk0", "wk1", "wo", "bias"]

    def test_views_hand_out_the_model_tensors(self):
        model = two_layer_model()
        tensors = model.tensors()
        for part, view in (("encoder", model.encoder), ("matcher", model.matcher)):
            for name, t in view.tensors().items():
                assert t is tensors[f"{part}.{name}"], name
        assert model.encoder.layer(1).bond_embed is tensors["encoder.layer1.bond_embed"]
        wq, wk = model.matcher.qk(1)
        assert wq is tensors["matcher.wq0"] and wk is tensors["matcher.wk0"]
        joined = ModelParams.join(model.encoder, model.matcher).tensors()
        assert list(joined) == list(tensors)
        assert all(joined[name] is t for name, t in tensors.items())


class TestStore:
    def test_flat_replace_values_reaches_the_views(self):
        model = two_layer_model(fusion_bias=False)
        new = model.replace_values({"matcher.bias": np.ones(2), "encoder.layer1.eps": 0.5})
        assert type(new) is ModelParams
        np.testing.assert_array_equal(new.matcher.bias.values, np.ones(2))
        assert new.encoder.layer(1).eps.item() == 0.5
        assert not new.matcher.bias.requires_grad  # frozen stays frozen
        for name, t in model.tensors().items():
            assert new.tensors()[name] is not t
            if name not in ("matcher.bias", "encoder.layer1.eps"):
                np.testing.assert_array_equal(new.tensors()[name].values, t.values)

    def test_clone_and_detach_keep_the_subclass(self):
        model = two_layer_model()
        for params in (model, model.encoder, model.matcher):
            assert type(params.clone()) is type(params)
            detached = params.detach()
            assert type(detached) is type(params)
            for name, t in params.tensors().items():
                assert detached[name].values is t.values
                assert not detached[name].requires_grad

    def test_layer_view_is_read_only(self):
        params = EncoderParams.init(1, 3, seed=0)
        with pytest.raises(FrozenInstanceError):
            params.layer(0).w1 = params["input_w"]


class TestSeededInit:
    # the draw order fixes the initial weights of every seed
    def test_encoder_draw_order(self):
        rng = np.random.default_rng(7)
        expected = {}
        for i in range(2):
            expected[f"layer{i}.w1"] = draw(rng, (3, 3), 3)
            expected[f"layer{i}.b1"] = draw(rng, (3,), 3)
            expected[f"layer{i}.w2"] = draw(rng, (3, 3), 3)
            expected[f"layer{i}.b2"] = draw(rng, (3,), 3)
            expected[f"layer{i}.eps"] = np.zeros(())
            expected[f"layer{i}.bond_embed"] = draw(rng, (D_BOND, 3), D_BOND)
        expected["input_w"] = draw(rng, (D_ATOM, 3), D_ATOM)
        expected["input_b"] = draw(rng, (3,), D_ATOM)
        params = EncoderParams.init(2, 3, seed=7)
        assert sorted(params.tensors()) == sorted(expected)
        for name, t in params.tensors().items():
            assert t.values.tobytes() == expected[name].tobytes(), name

    def test_matcher_draw_order(self):
        rng = np.random.default_rng(8)
        expected = {f"wq{i}": PROJECTION_GAIN * draw(rng, (3, 3), 3) for i in range(2)}
        expected.update({f"wk{i}": PROJECTION_GAIN * draw(rng, (3, 3), 3) for i in range(2)})
        params = MatchParams.init(2, 3, seed=8, share_qk=False)
        for name, values in expected.items():
            assert params[name].values.tobytes() == values.tobytes(), name
