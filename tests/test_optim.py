import math

import numpy as np
import pytest

from molmatch.config import OPTIMIZERS
from molmatch.optim import Adam, make_optimizer

LR, DECAY = 0.1, 0.1


def textbook_adam(x, grads, decoupled):
    """Two steps of Adam (beta1 0.9, beta2 0.999, eps 1e-8) on one scalar,
    written out step by step; ``grads`` are the loss gradients at each step."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        if not decoupled:
            g = g + DECAY * x  # L2: the decay joins the gradient
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1.0 - 0.9**t)
        v_hat = v / (1.0 - 0.999**t)
        step = LR * m_hat / (math.sqrt(v_hat) + 1e-8)
        if decoupled:
            step += LR * DECAY * x  # AdamW: decay applied to the weight
        x = x - step
    return x


@pytest.mark.parametrize("kind", ["adam", "adamw"])
def test_two_steps_match_hand_computed_updates(kind):
    x0 = np.array([1.0, -2.0, 0.5])
    grads = [np.array([0.5, 0.25, -3.0]), np.array([-0.5, 0.75, 1.0])]
    opt = make_optimizer(kind, LR, weight_decay=DECAY)
    values = {"w": x0}
    for g in grads:
        values = opt.step(values, {"w": g})
    expected = [
        textbook_adam(x0[i], [g[i] for g in grads], decoupled=kind == "adamw")
        for i in range(x0.size)
    ]
    np.testing.assert_allclose(values["w"], expected, rtol=1e-14, atol=0)
    assert opt.t == 2


def test_names_without_gradient_pass_through_unchanged():
    frozen = np.array([3.0, 4.0])
    opt = make_optimizer("adamw", LR, weight_decay=DECAY)
    out = opt.step({"w": np.ones(2), "frozen": frozen}, {"w": np.ones(2)})
    assert out["frozen"] is frozen
    assert not np.array_equal(out["w"], np.ones(2))


def test_unknown_name_raises_key_error():
    with pytest.raises(KeyError, match="'ghost'"):
        Adam(LR).step({"w": np.ones(2)}, {"ghost": np.ones(2)})


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_every_configured_name_builds_an_optimizer(kind):
    opt = make_optimizer(kind, LR, weight_decay=DECAY)
    assert isinstance(opt, Adam) and opt.decoupled == (kind == "adamw")


@pytest.mark.parametrize("kind", ["ADAM", "AdamW", "sgd", ""])
def test_names_the_config_refuses_are_refused(kind):
    # RunConfig.validate checks train.optimizer against OPTIMIZERS exactly
    with pytest.raises(ValueError, match="expected one of"):
        make_optimizer(kind, LR)


def read_only(arrays):
    arrays = {name: np.asarray(a) for name, a in arrays.items()}  # 0-d steps return scalars
    for a in arrays.values():
        a.flags.writeable = False
    return arrays


@pytest.mark.parametrize("kind", OPTIMIZERS)
def test_step_writes_into_neither_input_and_returns_fresh_arrays(kind):
    # meta_train keeps the best epoch's weights by reference, so a step
    # must never write into the values it is given or hand back an array
    # it will later update in place; the gradients belong to the caller
    rng = np.random.default_rng(5)
    values = read_only({"w": rng.normal(size=(3, 2)), "eps": np.array(0.5)})
    opt = make_optimizer(kind, LR, weight_decay=DECAY)
    seen = []
    for _ in range(3):
        grads = read_only({"w": rng.normal(size=(3, 2)), "eps": np.array(-1.0)})
        before = [{name: a.copy() for name, a in d.items()} for d in (values, grads)]
        out = opt.step(values, grads)
        for name in grads:
            np.testing.assert_array_equal(values[name], before[0][name])
            np.testing.assert_array_equal(grads[name], before[1][name])
            assert not np.shares_memory(out[name], values[name])
            assert not np.shares_memory(out[name], grads[name])
            assert all(not np.shares_memory(out[name], old) for old in seen), name
            seen.append(out[name])
        values = read_only(out)
