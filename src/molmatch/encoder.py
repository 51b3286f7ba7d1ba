"""Graph isomorphism network encoder with per-layer mean-pooled readouts.

Each layer computes h_v <- MLP_l((1 + eps_l) * h_v + sum_u (h_u + e_uv))
over the atom's neighbours, where e_uv embeds the bond's feature row.
The embedding is linear, so the bond half of the sum is taken per atom:
sum_u e_uv = (sum_u f_uv) @ bond_embed, with the summed bond features
f_uv computed once per batch, not embedded per edge in every layer.
After every layer the atom states are mean-pooled per molecule, so a
forward pass yields one [L, n_mols, hidden] stack of molecule embeddings.

Two paths compute that stack.  ``encode_multilevel`` records one
``gin_conv`` autodiff node per layer and serves training; it is the
reference.  With theta frozen, ``frozen_batches`` folds each layer's
``w2`` into the next layer's ``w1`` and pools before projecting, which
the linear end of the layer, the sum aggregation and the mean readout
allow: one atom-level product per layer instead of two, equal to the
reference within 1e-12 but not bitwise.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, fields

import numpy as np

from .params import Params, uniform_init
from .smiles import D_ATOM, D_BOND, MolGraph
from .tensor import SlotTable, Tensor, add, dropout, gin_conv, matmul, segment_mean, stack

__all__ = [
    "GinLayerParams",
    "EncoderParams",
    "GraphBatch",
    "gin_layer",
    "encode_multilevel",
    "frozen_batches",
    "encode_frozen",
]

# Atoms per GraphBatch when encoding with theta frozen.  A batch's
# per-atom arrays, not the pooled rows, set the peak memory of inference,
# so a fixed atom budget keeps that peak flat however many molecules one
# call encodes.
FROZEN_BATCH_ATOMS = 1024

@dataclass(frozen=True)
class GinLayerParams:
    """Read-only view of one layer's tensors in an ``EncoderParams``."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    eps: Tensor  # learnable scalar, starts at 0
    bond_embed: Tensor  # [D_BOND, d]


class EncoderParams(Params):
    """All learnable state of the encoder (the theta side of the model):
    ``input_w`` [D_ATOM, d], ``input_b`` [d] and per layer
    ``layer{i}.w1``/``b1``/``w2``/``b2``/``eps``/``bond_embed``."""

    @property
    def input_w(self) -> Tensor:
        return self["input_w"]

    @property
    def input_b(self) -> Tensor:
        return self["input_b"]

    @property
    def n_layers(self) -> int:
        return sum(name.endswith(".eps") for name in self._tensors)

    @property
    def hidden(self) -> int:
        return self.input_w.shape[1]

    def layer(self, i: int) -> GinLayerParams:
        return GinLayerParams(*(self[f"layer{i}.{f.name}"] for f in fields(GinLayerParams)))

    @staticmethod
    def init(n_layers: int, hidden: int, seed=0) -> "EncoderParams":
        """Seeded init: weights and biases uniform in +-1/sqrt(fan_in), eps at 0."""
        if n_layers < 1 or hidden < 1:
            raise ValueError("encoder needs n_layers >= 1 and hidden >= 1")
        rng = np.random.default_rng(seed)
        # the layers draw before the input projection; the draw order fixes
        # every seed's initial weights
        layers = {}
        for i in range(n_layers):
            layers[f"layer{i}.w1"] = uniform_init(rng, (hidden, hidden), hidden)
            layers[f"layer{i}.b1"] = uniform_init(rng, (hidden,), hidden)
            layers[f"layer{i}.w2"] = uniform_init(rng, (hidden, hidden), hidden)
            layers[f"layer{i}.b2"] = uniform_init(rng, (hidden,), hidden)
            layers[f"layer{i}.eps"] = 0.0
            layers[f"layer{i}.bond_embed"] = uniform_init(rng, (D_BOND, hidden), D_BOND)
        values = {
            "input_w": uniform_init(rng, (D_ATOM, hidden), D_ATOM),
            "input_b": uniform_init(rng, (hidden,), D_ATOM),
            **layers,
        }
        return EncoderParams({k: Tensor(v, requires_grad=True) for k, v in values.items()})


class GraphBatch:
    """A list of molecular graphs packed into flat arrays.

    Bonds are expanded to directed edges in both directions so a single
    grouped sum realises the neighbour sum for every atom at once.
    ``by_dst`` and ``by_src`` are the slot tables of the edge
    destinations and sources, built once here and shared by every
    layer's forward and backward.  ``bond_sums``, each atom's summed
    incoming bond features, is summed through ``by_dst`` straight from
    the bond rows (directed edge i carries bond i // 2).  ``atom_feats``
    and ``bond_sums`` are plain float64 numpy arrays: no op
    differentiates them.  This is the one place the graphs' compact bool
    rows and int32 bonds are widened.
    """

    def __init__(self, graphs: list[MolGraph]):
        if not graphs:
            raise ValueError("GraphBatch: need at least one graph")
        self.n_mols = len(graphs)
        sizes = np.array([g.n_atoms for g in graphs], dtype=np.int64)
        offsets = np.cumsum(sizes) - sizes
        self.n_atoms = int(sizes.sum())
        self.atom_feats = np.concatenate([g.atom_feats for g in graphs], dtype=np.float64)
        self.mol_ids = np.repeat(np.arange(self.n_mols, dtype=np.int64), sizes)
        # one (u, v) row per bond in batch atom numbers; each bond becomes
        # the directed edges u->v then v->u, in bond order
        bonds = np.concatenate([g.bonds for g in graphs], dtype=np.int64)
        bonds += np.repeat(offsets, [g.n_bonds for g in graphs])[:, None]
        self.edge_src = bonds.reshape(-1)
        self.edge_dst = bonds[:, ::-1].reshape(-1)
        self.n_edges = self.edge_src.size
        bond_rows = np.concatenate([g.bond_feats for g in graphs], dtype=np.float64)
        self.by_dst = SlotTable(self.edge_dst, self.n_atoms)
        self.by_src = SlotTable(self.edge_src, self.n_atoms)
        self.bond_sums = self.by_dst.sum(bond_rows, np.arange(self.n_edges) // 2)


def gin_layer(h: Tensor, batch: GraphBatch, params: EncoderParams, layer: int) -> Tensor:
    """One message-passing layer over the batched graph, recorded as one
    autodiff node (``tensor.gin_conv``)."""
    if not 0 <= layer < params.n_layers:
        raise ValueError(f"gin_layer: layer index {layer} out of range [0, {params.n_layers})")
    lp = params.layer(layer)
    return gin_conv(
        h, lp.eps, lp.bond_embed, lp.w1, lp.b1, lp.w2, lp.b2,
        batch.bond_sums, batch.by_dst, batch.by_src,
    )


def encode_multilevel(
    graphs: list[MolGraph],
    params: EncoderParams,
    *,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run all layers; return the [L, n_mols, hidden] stack of per-layer
    mean-pooled embeddings.

    Row ``[l, i]`` summarises molecule i after layer l+1.  Dropout with
    ``dropout_rate`` follows every layer when the rate is above 0.
    """
    batch = GraphBatch(graphs)
    h = add(matmul(Tensor(batch.atom_feats), params.input_w), params.input_b)
    levels = []
    for layer in range(params.n_layers):
        h = gin_layer(h, batch, params, layer)
        if dropout_rate > 0.0:
            h = dropout(h, dropout_rate, rng)
        levels.append(segment_mean(h, batch.mol_ids, batch.n_mols))
    return stack(levels)


def _fold(params: EncoderParams) -> list[tuple[np.ndarray, ...]]:
    """Per layer, the frozen layer's weights folded onto the previous
    layer's post-ReLU rows ``u`` (the atom features for layer 0).

    Layer l's input is ``u @ W + B``, with (W, B) the input projection for
    layer 0 and the previous layer's (w2, b2) after it.  The neighbour
    sum, the self term and ``@ w1`` are linear, so the pre-activation is
    ``x_u @ (W @ w1) + (1 + eps + deg) * (B @ w1) + b1 + bond_sums @
    (bond_embed @ w1)`` with ``x_u = (1 + eps) * u + sum_nbr u``.  The
    four maps are stacked as the rows of one ``k`` in that order, the
    order of ``_frozen_batch``'s columns, and returned as
    ``(k, 1 + eps, w2, b2)``.
    """
    v = {name: t.values for name, t in params.tensors().items()}
    w, b = v["input_w"], v["input_b"]
    folded = []
    for i in range(params.n_layers):
        w1 = v[f"layer{i}.w1"]
        k = np.concatenate([w @ w1, (b @ w1)[None], v[f"layer{i}.b1"][None],
                            v[f"layer{i}.bond_embed"] @ w1])
        w, b = v[f"layer{i}.w2"], v[f"layer{i}.b2"]
        folded.append((k, v[f"layer{i}.eps"] + 1.0, w, b))
    return folded


def _frozen_batch(graphs: list[MolGraph], folded: list[tuple[np.ndarray, ...]]) -> np.ndarray:
    """The [L, n_mols, hidden] stack of one batch through the ``_fold``
    weights: one atom-level product per layer, and each level pooled
    before its ``w2`` projection (a mean of rows commutes with ``@ w2 +
    b2``).  The ReLU maps NaN to 0, as ``gin_conv``'s does.  An overflow
    leaves non-finite rows, which every caller checks for.
    """
    batch = GraphBatch(graphs)
    n, edges = batch.n_atoms, batch.n_edges > 0
    pool = SlotTable(batch.mol_ids, batch.n_mols)
    sizes = np.bincount(batch.mol_ids, minlength=batch.n_mols)[:, None]
    degree = np.bincount(batch.edge_dst, minlength=n)
    u = batch.atom_feats
    levels = np.empty((len(folded), batch.n_mols, folded[0][2].shape[1]))
    for level, (k, e1, w2, b2) in zip(levels, folded):
        # columns [x_u | 1 + eps + deg | 1 | bond_sums] against k's rows;
        # without edges the bond term is absent, as in gin_conv
        d = u.shape[1]
        s = np.empty((n, d + 2 + D_BOND))
        np.multiply(u, e1, out=s[:, :d])
        if edges:
            s[:, :d] += batch.by_dst.sum(u, batch.by_src.index)
        s[:, d] = degree + e1
        s[:, d + 1] = 1.0
        s[:, d + 2 :] = batch.bond_sums
        z = s @ k if edges else s[:, : d + 2] @ k[: d + 2]
        np.fmax(z, 0.0, out=z)
        z += 0.0
        np.matmul(pool.sum(z) / sizes, w2, out=level)
        level += b2
        u = z
    return levels


def frozen_batches(graphs: list[MolGraph], params: EncoderParams) -> Iterator[np.ndarray]:
    """The ``encode_multilevel`` stack without dropout and with no
    autodiff graph, one batch at a time: ``graphs`` is cut, in order, into
    consecutive runs of at most ``FROZEN_BATCH_ATOMS`` atoms (a molecule
    larger than that is a batch of its own), and each run's
    [L, k, hidden] stack is yielded as a plain array.

    The weights are folded (``_fold``) once per call, so a layer costs one
    atom-level product where ``gin_conv`` takes two, and layer 0 none at
    the hidden width.  The folded products round differently from the
    graph-tracked layers, so the rows agree with ``encode_multilevel``
    within 1e-12, not bitwise.
    """
    folded = _fold(params)
    start, atoms = 0, 0
    for i, graph in enumerate(graphs):
        if i > start and atoms + graph.n_atoms > FROZEN_BATCH_ATOMS:
            yield _frozen_batch(graphs[start:i], folded)
            start, atoms = i, 0
        atoms += graph.n_atoms
    yield _frozen_batch(graphs[start:], folded)


def encode_frozen(graphs: list[MolGraph], params: EncoderParams) -> np.ndarray:
    """The [L, n_mols, hidden] stack of ``frozen_batches``, concatenated.

    Theta is frozen wherever only w adapts, so a molecule's rows depend on
    nothing but the molecule and can be reused.  They do not depend on the
    batch either, up to last-bit BLAS rounding, and they agree with the
    ``encode_multilevel`` stack of the same list within 1e-12.
    """
    return np.concatenate(list(frozen_batches(graphs, params)), axis=1)
