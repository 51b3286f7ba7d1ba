"""Per-layer attention matching of query molecules against a support set.

Every encoder layer yields support and query embeddings; the matcher
projects both, attends queries over the support rows and reads out a
label estimate as the attention-weighted mean of the support labels.
The per-layer estimates are fused by a learned affine map to two-class
probabilities.  Class index 0 is the positive class throughout.

The whole block -- projections, scaled scores, row softmax, label
read-out, fusion and the final softmax -- is one autodiff op,
``tensor.attention_match``, over [E, L, k, d] stacks of E episodes'
embeddings.  This module owns that episode layout: ``episode_rows``
slices an encoder's [L, n, d] level stack into episode rows and
``match_levels`` is the one caller of the op, so a match records one op
node whatever the depth, and the inner loop adapts many episodes of a
task in one stacked call per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import EncoderParams, encode_multilevel
from .params import Params, uniform_init
from .smiles import MolGraph
from .tensor import Tensor, attention_match, gather_rows, reshape

__all__ = [
    "MatchParams",
    "LayerPrediction",
    "episode_rows",
    "match_levels",
    "layer_predictions",
    "predict_detailed",
]


# Mean-pooled graph embeddings come out well below unit RMS, so unit-fan
# projections leave the scaled dot-product scores near zero and the
# attention indistinguishable from uniform.  The gain lifts initial score
# contrast to order one; validated on the synthetic end-to-end suite.
PROJECTION_GAIN = 8.0


class MatchParams(Params):
    """Task-adaptable parameters (the w side of the model): the query/key
    projections ``wq{i}``/``wk{i}``, the fusion rows ``wo`` [n_layers, 2]
    and the fusion ``bias`` [2].

    ``wq``/``wk`` hold a single shared projection pair by default; with
    ``share_qk=False`` at init they hold one pair per encoder layer.
    ``bias`` can be frozen at zero to keep the fusion map strictly
    linear.  ``match_levels`` reads E episodes' weights from one
    MatchParams whose tensors carry a leading episode axis.
    """

    @property
    def wq(self) -> list[Tensor]:
        return [t for name, t in self._tensors.items() if name.startswith("wq")]

    @property
    def wk(self) -> list[Tensor]:
        return [t for name, t in self._tensors.items() if name.startswith("wk")]

    @property
    def wo(self) -> Tensor:
        return self["wo"]

    @property
    def bias(self) -> Tensor:
        return self["bias"]

    @property
    def shared_qk(self) -> bool:
        return "wq1" not in self._tensors

    def qk(self, layer: int) -> tuple[Tensor, Tensor]:
        if self.shared_qk:
            return self["wq0"], self["wk0"]
        return self[f"wq{layer}"], self[f"wk{layer}"]

    @staticmethod
    def init(
        n_layers: int,
        hidden: int,
        seed=0,
        share_qk: bool = True,
        learn_bias: bool = True,
    ) -> "MatchParams":
        if n_layers < 1 or hidden < 1:
            raise ValueError("matcher needs n_layers >= 1 and hidden >= 1")
        rng = np.random.default_rng(seed)
        n_pairs = 1 if share_qk else n_layers
        projection = lambda: Tensor(
            PROJECTION_GAIN * uniform_init(rng, (hidden, hidden), hidden), requires_grad=True
        )
        tensors = {f"wq{i}": projection() for i in range(n_pairs)}
        tensors.update({f"wk{i}": projection() for i in range(n_pairs)})
        # Vote-averaging start: each layer contributes +y_hat to the positive
        # logit and -y_hat to the negative one.  The bias centres the fused
        # logit difference at zero when every layer predicts 0.5; a frozen
        # bias stays at zero (strict affine-map-only mode).
        tensors["wo"] = Tensor(np.tile([1.0, -1.0], (n_layers, 1)), requires_grad=True)
        if learn_bias:
            tensors["bias"] = Tensor(np.array([-0.5 * n_layers, 0.5 * n_layers]), requires_grad=True)
        else:
            tensors["bias"] = Tensor(np.zeros(2), requires_grad=False)
        return MatchParams(tensors)


@dataclass
class LayerPrediction:
    """One layer's attention matrix and label estimate for the queries,
    as plain arrays."""

    y_hat: np.ndarray  # [n_query, 1], convex combination of support labels
    attention: np.ndarray  # [n_query, n_support], rows sum to 1


def episode_rows(levels: Tensor, rows: np.ndarray) -> Tensor:
    """The rows of every layer of an [L, n, d] level stack for E episodes:
    ``rows`` is [E, k] and the result [E, L, k, d], ``levels[l, rows[e, j]]``
    at [e, l, j].

    One ``gather_rows`` on the flattened stack, so autodiff nodes are
    recorded only when ``levels`` is graph-tracked, and its gradient
    scatters the upstream rows back onto the stack.
    """
    n_layers, n, d = levels.shape
    flat = reshape(levels, (n_layers * n, d))
    index = n * np.arange(n_layers)[:, None] + rows[:, None, :]  # [E, L, k] rows of flat
    return reshape(gather_rows(flat, index.reshape(-1)), (*index.shape, d))


def match_levels(
    z_query: Tensor,
    z_support: Tensor,
    y_support: np.ndarray,
    params: MatchParams,
    *,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Match at every layer and combine the layers, for E episodes in one
    ``attention_match`` call.

    ``z_query`` [E, L, n_query, d] and ``z_support`` [E, L, n_support, d]
    stack each episode's layer embeddings, as ``episode_rows`` slices
    them; ``y_support`` [E, n_support, 1] holds the support labels and
    every tensor of ``params`` carries a leading episode axis.  Returns
    the fused [E, n_query, 2] probabilities, and as constants the label
    estimates [E, L, n_query, 1] and the attention
    [E, L, n_query, n_support]; ``layer_predictions`` splits one
    episode's.  Dropout with ``dropout_rate`` applies to the attention
    and to the fusion input when the rate is above 0; the attention's
    mask for the whole stack is drawn from ``rng`` before the fusion
    input's.
    """
    keep = None
    if dropout_rate > 0.0:
        n_eps, n_layers, n_query, _ = z_query.shape
        n_support = z_support.shape[2]
        # inverted-scaling factors, drawn as tensor.dropout draws them
        keep = tuple(
            (rng.random(shape) >= dropout_rate) / (1.0 - dropout_rate)
            for shape in ((n_eps, n_layers, n_query, n_support), (n_eps, n_query, n_layers))
        )
    return attention_match(
        z_query, z_support, y_support, params.wq, params.wk, params.wo, params.bias, keep
    )


def layer_predictions(y_hat: np.ndarray, attention: np.ndarray) -> list[LayerPrediction]:
    """Per-layer views of one episode's label estimates [L, n_query, 1]
    and attention [L, n_query, n_support] from ``match_levels``."""
    return [LayerPrediction(y_hat=y, attention=a) for y, a in zip(y_hat, attention)]


def predict_detailed(
    support_graphs: list[MolGraph],
    support_labels,
    query_graphs: list[MolGraph],
    encoder_params: EncoderParams,
    match_params: MatchParams,
    *,
    matcher_dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    levels: Tensor | None = None,
) -> tuple[Tensor, list[LayerPrediction]]:
    """Encode support and queries jointly, match at every layer, combine.

    ``levels`` supplies the encoding instead: the [L, n, d]
    ``encode_multilevel`` stack of the support graphs followed by the
    query graphs, so a caller that already ran the encoder (with or
    without dropout) does not run it again; ``encoder_params`` then goes
    unused.  Without ``levels`` the encoder runs without dropout.

    Returns the fused [n_query, 2] probabilities together with each
    layer's attention and label estimate.
    """
    if not support_graphs:
        raise ValueError("predict: empty support set")
    if not query_graphs:
        raise ValueError("predict: empty query set")
    n_s = len(support_graphs)
    n_rows = n_s + len(query_graphs)
    if levels is None:
        levels = encode_multilevel(list(support_graphs) + list(query_graphs), encoder_params)
    elif levels.shape[1] != n_rows:
        raise ValueError(f"predict: levels must have {n_rows} rows")
    y_s = np.asarray(support_labels, dtype=np.float64).reshape(1, -1, 1)
    if y_s.shape[1] != n_s:
        raise ValueError(f"predict: {y_s.shape[1]} labels for {n_s} support graphs")
    one = MatchParams({  # add the episode axis
        name: reshape(t, (1, *t.shape)) for name, t in match_params.tensors().items()
    })
    probs, y_hat, attention = match_levels(
        episode_rows(levels, np.arange(n_s, n_rows)[None]),
        episode_rows(levels, np.arange(n_s)[None]),
        y_s,
        one,
        dropout_rate=matcher_dropout,
        rng=rng,
    )
    return reshape(probs, (n_rows - n_s, 2)), layer_predictions(y_hat[0], attention[0])
