"""Graph isomorphism network encoder with per-layer mean-pooled readouts.

Each layer computes h_v <- MLP_l((1 + eps_l) * h_v + sum_u (h_u + e_uv))
over the atom's neighbours, where e_uv embeds the bond's feature row.
The embedding is linear, so the bond half of the sum is taken per atom:
sum_u e_uv = (sum_u f_uv) @ bond_embed, with the summed bond features
f_uv computed once per batch, not embedded per edge in every layer.
After every layer the atom states are mean-pooled per molecule, so a
forward pass yields one molecule embedding per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .smiles import DEFAULT_SCHEMA, MolGraph
from .tensor import (
    Tensor,
    add,
    dropout,
    gather_rows,
    matmul,
    mul,
    relu,
    scatter_add_rows,
    segment_mean,
)

__all__ = [
    "GinLayerParams",
    "EncoderParams",
    "GraphBatch",
    "gin_layer",
    "encode_multilevel",
    "encode_frozen",
]

_ONE = Tensor(1.0)


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


@dataclass
class GinLayerParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    eps: Tensor  # learnable scalar, starts at 0
    bond_embed: Tensor  # [d_bond, d]


@dataclass
class EncoderParams:
    """All learnable state of the encoder (the theta side of the model)."""

    input_w: Tensor  # [d_atom, d]
    input_b: Tensor  # [d]
    layers: list[GinLayerParams]

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def hidden(self) -> int:
        return self.input_w.shape[1]

    @staticmethod
    def init(
        n_layers: int,
        hidden: int,
        d_atom: int = DEFAULT_SCHEMA.d_atom,
        d_bond: int = DEFAULT_SCHEMA.d_bond,
        seed=0,
    ) -> "EncoderParams":
        """Seeded init: weights and biases uniform in +-1/sqrt(fan_in), eps at 0."""
        if n_layers < 1 or hidden < 1:
            raise ValueError("encoder needs n_layers >= 1 and hidden >= 1")
        rng = np.random.default_rng(seed)
        t = lambda arr: Tensor(arr, requires_grad=True)
        layers = []
        for _ in range(n_layers):
            layers.append(
                GinLayerParams(
                    w1=t(_uniform(rng, (hidden, hidden), hidden)),
                    b1=t(_uniform(rng, (hidden,), hidden)),
                    w2=t(_uniform(rng, (hidden, hidden), hidden)),
                    b2=t(_uniform(rng, (hidden,), hidden)),
                    eps=t(0.0),
                    bond_embed=t(_uniform(rng, (d_bond, hidden), d_bond)),
                )
            )
        return EncoderParams(
            input_w=t(_uniform(rng, (d_atom, hidden), d_atom)),
            input_b=t(_uniform(rng, (hidden,), d_atom)),
            layers=layers,
        )

    def tensors(self) -> dict[str, Tensor]:
        out = {"input_w": self.input_w, "input_b": self.input_b}
        for i, lp in enumerate(self.layers):
            out[f"layer{i}.w1"] = lp.w1
            out[f"layer{i}.b1"] = lp.b1
            out[f"layer{i}.w2"] = lp.w2
            out[f"layer{i}.b2"] = lp.b2
            out[f"layer{i}.eps"] = lp.eps
            out[f"layer{i}.bond_embed"] = lp.bond_embed
        return out

    def replace_values(self, values: dict[str, np.ndarray], requires_grad: bool = True) -> "EncoderParams":
        """Functional update: fresh tensors built from ``values`` by name."""
        current = self.tensors()
        new = {}
        for name, t in current.items():
            v = values.get(name, t.values)
            new[name] = Tensor(np.asarray(v, dtype=np.float64).reshape(t.shape),
                               requires_grad=requires_grad and t.requires_grad)
        layers = [
            GinLayerParams(
                w1=new[f"layer{i}.w1"],
                b1=new[f"layer{i}.b1"],
                w2=new[f"layer{i}.w2"],
                b2=new[f"layer{i}.b2"],
                eps=new[f"layer{i}.eps"],
                bond_embed=new[f"layer{i}.bond_embed"],
            )
            for i in range(self.n_layers)
        ]
        return EncoderParams(input_w=new["input_w"], input_b=new["input_b"], layers=layers)

    def clone(self, requires_grad: bool = True) -> "EncoderParams":
        return self.replace_values({}, requires_grad=requires_grad)

    def detach(self) -> "EncoderParams":
        """Gradient-free view sharing values; used for frozen-theta passes."""
        d = lambda t: t.detach()
        return EncoderParams(
            input_w=d(self.input_w),
            input_b=d(self.input_b),
            layers=[
                GinLayerParams(d(lp.w1), d(lp.b1), d(lp.w2), d(lp.b2), d(lp.eps), d(lp.bond_embed))
                for lp in self.layers
            ],
        )


class GraphBatch:
    """A list of molecular graphs packed into flat arrays.

    Bonds are expanded to directed edges in both directions so a single
    scatter-add realises the neighbour sum for every atom at once.
    ``bond_sums`` holds each atom's summed incoming bond features, a
    constant of the batch.
    """

    def __init__(self, graphs: list[MolGraph]):
        if not graphs:
            raise ValueError("GraphBatch: need at least one graph")
        self.n_mols = len(graphs)
        atom_blocks = []
        mol_ids = []
        src, dst, bond_rows = [], [], []
        offset = 0
        for i, g in enumerate(graphs):
            atom_blocks.append(g.atom_feats.values)
            mol_ids.extend([i] * g.n_atoms)
            for (u, v), row in zip(g.bonds, g.bond_feats.values):
                src.append(offset + u)
                dst.append(offset + v)
                bond_rows.append(row)
                src.append(offset + v)
                dst.append(offset + u)
                bond_rows.append(row)
            offset += g.n_atoms
        self.n_atoms = offset
        self.atom_feats = Tensor(np.concatenate(atom_blocks, axis=0))
        self.mol_ids = np.asarray(mol_ids, dtype=np.int64)
        self.n_edges = len(src)
        if self.n_edges:
            self.edge_src = np.asarray(src, dtype=np.int64)
            self.edge_dst = np.asarray(dst, dtype=np.int64)
            self.edge_feats = Tensor(np.stack(bond_rows))
            self.bond_sums = scatter_add_rows(self.edge_feats, self.edge_dst, self.n_atoms)
        else:
            self.edge_src = np.zeros(0, dtype=np.int64)
            self.edge_dst = np.zeros(0, dtype=np.int64)
            self.edge_feats = None
            self.bond_sums = None


def gin_layer(h: Tensor, batch: GraphBatch, params: EncoderParams, layer: int) -> Tensor:
    """One message-passing layer over the batched graph."""
    if not 0 <= layer < params.n_layers:
        raise ValueError(f"gin_layer: layer index {layer} out of range [0, {params.n_layers})")
    lp = params.layers[layer]
    self_term = mul(h, add(lp.eps, _ONE))
    if batch.n_edges:
        neighbours = scatter_add_rows(gather_rows(h, batch.edge_src), batch.edge_dst, batch.n_atoms)
        bonds = matmul(batch.bond_sums, lp.bond_embed)
        x = add(self_term, add(neighbours, bonds))
    else:
        x = self_term  # isolated atoms: empty neighbour sum
    x = relu(add(matmul(x, lp.w1), lp.b1))
    return add(matmul(x, lp.w2), lp.b2)


def encode_multilevel(
    graphs: list[MolGraph] | GraphBatch,
    params: EncoderParams,
    *,
    training: bool = False,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> list[Tensor]:
    """Run all layers; return one mean-pooled embedding matrix per layer.

    Output l has shape [n_mols, hidden] and row i summarises molecule i
    after layer l+1.
    """
    batch = graphs if isinstance(graphs, GraphBatch) else GraphBatch(graphs)
    h = add(matmul(batch.atom_feats, params.input_w), params.input_b)
    levels = []
    for layer in range(params.n_layers):
        h = gin_layer(h, batch, params, layer)
        if training and dropout_rate > 0.0:
            h = dropout(h, dropout_rate, rng)
        levels.append(segment_mean(h, batch.mol_ids, batch.n_mols))
    return levels


def encode_frozen(graphs: list[MolGraph] | GraphBatch, params: EncoderParams) -> list[np.ndarray]:
    """Inference-mode ``encode_multilevel`` through a detached copy of
    ``params``: the same per-layer rows as plain arrays, with no autodiff
    graph recorded.  Theta is frozen wherever only w adapts, so a
    molecule's rows depend on nothing but the molecule and can be reused.
    """
    return [z.values for z in encode_multilevel(graphs, params.detach())]
