import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from molmatch import encoder as encoder_module
from molmatch import tensor as tensor_module
from molmatch.config import RunConfig
from molmatch.encoder import (
    FROZEN_BATCH_ATOMS,
    EncoderParams,
    GinLayerParams,
    GraphBatch,
    encode_frozen,
    encode_multilevel,
    frozen_batches,
    gin_layer,
)
from molmatch.smiles import D_ATOM, D_BOND, MolGraph, graph_from_smiles
from molmatch.tensor import SlotTable, Tensor, backward, mul, scatter_add_rows, sum_all
from oracles import (
    assert_grads_match,
    backward_every_node,
    encode_unfused,
    fd_gradients,
    gin_layer_unfused,
    graph_batch_per_bond,
)

MOLS = ["CCO", "c1ccccc1", "CC(=O)O", "C", "N#Cc1ccccc1"]
CORPUS = Path(__file__).resolve().parents[1] / "src" / "molmatch" / "data" / "smiles_corpus.txt"


def corpus_graphs():
    """The parser corpus's 50 molecules, in file order."""
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    return [graph_from_smiles(line.split("\t")[0]) for line in lines if line and line[0] != "#"]


def small_params(seed=0, layers=2, hidden=5):
    return EncoderParams.init(layers, hidden, seed=seed)


def star_graph(n_leaves):
    """A hub atom bonded to ``n_leaves`` others: no molecule, but a valid
    graph whose hub collects more rows than one slot-table block holds."""
    atom_feats = np.zeros((n_leaves + 1, D_ATOM), dtype=bool)
    atom_feats[:, 0] = True
    atom_feats[0, 1] = True
    bond_feats = np.eye(D_BOND, dtype=bool)[np.arange(n_leaves) % D_BOND]
    bonds = np.array([(0, i) for i in range(1, n_leaves + 1)], dtype=np.int32)
    return MolGraph(atom_feats, bonds, bond_feats, "star")


class TestInit:
    def test_shapes_and_flags(self):
        params = small_params(hidden=7, layers=3)
        assert params.n_layers == 3 and params.hidden == 7
        tensors = params.tensors()
        assert tensors["input_w"].shape == (D_ATOM, 7)
        assert tensors["layer0.bond_embed"].shape == (D_BOND, 7)
        assert tensors["layer1.eps"].shape == ()
        assert all(t.requires_grad for t in tensors.values())

    def test_seeded_init_is_deterministic(self):
        a, b = small_params(seed=9), small_params(seed=9)
        for name, t in a.tensors().items():
            np.testing.assert_array_equal(t.values, b.tensors()[name].values)

    def test_eps_starts_at_zero(self):
        params = small_params()
        assert all(params.layer(i).eps.values == 0.0 for i in range(params.n_layers))

    def test_init_bounds_follow_fan_in(self):
        params = EncoderParams.init(1, 64, seed=0)
        w1 = params.layer(0).w1.values
        assert np.abs(w1).max() <= 1.0 / np.sqrt(64)

    def test_replace_values_is_functional(self):
        params = small_params()
        new = params.replace_values({"input_b": np.ones(5)})
        assert new.input_b is not params.input_b
        np.testing.assert_array_equal(new.input_b.values, np.ones(5))
        assert params.input_b.values.sum() != 5.0  # original untouched

    def test_detach_shares_values_without_grad(self):
        params = small_params()
        frozen = params.detach()
        assert frozen.input_w.values is params.input_w.values
        assert not any(t.requires_grad for t in frozen.tensors().values())

    def test_validation(self):
        with pytest.raises(ValueError):
            EncoderParams.init(0, 5)
        with pytest.raises(ValueError):
            EncoderParams.init(2, 0)


class TestGraphBatch:
    def test_directed_edge_expansion(self):
        batch = GraphBatch([graph_from_smiles("CCO")])
        assert batch.n_atoms == 3 and batch.n_edges == 4  # 2 bonds, both directions
        pairs = set(zip(batch.edge_src.tolist(), batch.edge_dst.tolist()))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_offsets_across_molecules(self):
        batch = GraphBatch([graph_from_smiles("CC"), graph_from_smiles("CC")])
        assert batch.mol_ids.tolist() == [0, 0, 1, 1]
        assert batch.edge_src.min() >= 0 and batch.edge_src.max() == 3

    def test_bond_free_batch(self):
        batch = GraphBatch([graph_from_smiles("C"), graph_from_smiles("[NH4+]")])
        assert batch.n_edges == 0 and not hasattr(batch, "edge_feats")
        np.testing.assert_array_equal(batch.bond_sums, np.zeros((2, D_BOND)))

    @pytest.mark.parametrize("which", ["corpus", "bond-free"])
    def test_arrays_equal_the_per_bond_reference(self, which):
        if which == "corpus":
            graphs = corpus_graphs()
            assert len(graphs) == 50
        else:
            graphs = [graph_from_smiles(s) for s in ("C", "[NH4+]", "O", "[Na+]")]
        batch = GraphBatch(graphs)
        expect = graph_batch_per_bond(graphs)
        got = {
            "edge_src": batch.edge_src,
            "edge_dst": batch.edge_dst,
            "bond_sums": batch.bond_sums,
            "atom_feats": batch.atom_feats,
            "mol_ids": batch.mol_ids,
        }
        for name, value in got.items():
            assert value.dtype == expect[name].dtype, name
            np.testing.assert_array_equal(value, expect[name], err_msg=name)
        assert batch.n_edges == len(expect["edge_src"])
        assert batch.n_atoms == sum(g.n_atoms for g in graphs)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            GraphBatch([])


def identity_mlp_params(hidden):
    """One layer whose MLP is the identity on positive inputs and whose
    input projection maps every atom to the all-ones vector."""
    params = EncoderParams.init(1, hidden, seed=0)
    eye = np.eye(hidden)
    return params.replace_values(
        {
            "input_w": np.zeros((D_ATOM, hidden)),
            "input_b": np.ones(hidden),
            "layer0.w1": eye,
            "layer0.b1": np.zeros(hidden),
            "layer0.w2": eye,
            "layer0.b2": np.zeros(hidden),
            "layer0.eps": np.array(0.5),
            "layer0.bond_embed": np.full((D_BOND, hidden), 0.25),
        }
    )


class TestGinLayer:
    def test_self_term_scales_by_one_plus_eps(self):
        # an isolated atom sees only (1 + eps) * h through the identity MLP
        params = identity_mlp_params(4)
        out = encode_multilevel([graph_from_smiles("C")], params).values[0]
        np.testing.assert_allclose(out, np.full((1, 4), 1.5), rtol=1e-14)

    def test_neighbour_sum_with_bond_vector(self):
        # two bonded atoms: each gets 1.5*1 + (1*1 + 0.25) = 2.75
        params = identity_mlp_params(4)
        out = encode_multilevel([graph_from_smiles("CC")], params).values[0]
        np.testing.assert_allclose(out, np.full((1, 4), 2.75), rtol=1e-14)

    def test_matches_per_edge_message_sum(self):
        # sum over incoming edges of (h_u + e_uv), each edge's bond
        # embedded on its own, against the per-atom bond-sum form
        params = small_params(seed=3, layers=1, hidden=6)
        graphs = [graph_from_smiles(s) for s in MOLS]
        batch = GraphBatch(graphs)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(batch.n_atoms, 6))
        lp = params.layer(0)
        x = (1.0 + lp.eps.values) * h
        edge_feats = graph_batch_per_bond(graphs)["edge_feats"]
        for src, dst, feats in zip(batch.edge_src, batch.edge_dst, edge_feats):
            x[dst] += h[src] + feats @ lp.bond_embed.values
        x = np.maximum(x @ lp.w1.values + lp.b1.values, 0.0)
        expect = x @ lp.w2.values + lp.b2.values
        out = gin_layer(Tensor(h), batch, params, 0)
        np.testing.assert_allclose(out.values, expect, rtol=0, atol=1e-12)

    def test_bond_sums_add_each_atoms_incoming_bonds(self):
        graphs = [graph_from_smiles("CC=O"), graph_from_smiles("C#N")]
        batch = GraphBatch(graphs)
        expect = np.zeros((batch.n_atoms, D_BOND))
        for dst, feats in zip(batch.edge_dst, graph_batch_per_bond(graphs)["edge_feats"]):
            expect[dst] += feats
        np.testing.assert_array_equal(batch.bond_sums, expect)
        assert isinstance(batch.bond_sums, np.ndarray)

    def test_zero_weights_zero_output(self):
        params = small_params()
        zeros = {name: np.zeros(t.shape) for name, t in params.tensors().items()}
        silenced = params.replace_values(zeros)
        levels = encode_multilevel([graph_from_smiles(s) for s in MOLS], silenced)
        np.testing.assert_array_equal(levels.values, np.zeros(levels.shape))

    def test_layer_index_range(self):
        params = small_params()
        batch = GraphBatch([graph_from_smiles("CC")])
        h = Tensor(np.zeros((2, 5)))
        with pytest.raises(ValueError, match="out of range"):
            gin_layer(h, batch, params, 2)


def assert_close_to_scale(got, want, name, tol=1e-12):
    """Every coordinate within ``tol`` of the reference's largest magnitude."""
    scale = max(float(np.abs(want).max(initial=0.0)), 1.0)
    assert np.abs(got - want).max(initial=0.0) <= tol * scale, name


class TestFusedGinLayer:
    """``gin_layer`` runs the fused ``tensor.gin_conv``; the unfused op
    composition in oracles.py is its reference."""

    @pytest.mark.parametrize("which", ["corpus", "bond-free", "hub"])
    def test_matches_unfused_reference(self, which):
        hidden = 8
        if which == "corpus":
            graphs = corpus_graphs()
        elif which == "bond-free":
            graphs = [graph_from_smiles(s) for s in ("C", "[NH4+]", "O", "[Na+]")]
        else:
            graphs, hidden = [star_graph(1200)], 64
            assert 1200 * hidden > tensor_module._BLOCK_ELEMENTS
        batch = GraphBatch(graphs)
        params = EncoderParams.init(1, hidden, seed=5).replace_values({"layer0.eps": np.array(0.3)})
        lp = params.layer(0)
        rng = np.random.default_rng(2)
        h = Tensor(rng.normal(size=(batch.n_atoms, hidden)), requires_grad=True)
        weights = Tensor(rng.normal(size=(batch.n_atoms, hidden)))
        edge_feats = graph_batch_per_bond(graphs)["edge_feats"]
        bond_sums = scatter_add_rows(Tensor(edge_feats), batch.edge_dst, batch.n_atoms)
        fused = gin_layer(h, batch, params, 0)
        ref = gin_layer_unfused(h, batch.edge_src, batch.edge_dst, bond_sums, lp)
        assert fused.values.tobytes() == ref.values.tobytes()

        watched = {"h": h, **{f.name: getattr(lp, f.name) for f in fields(GinLayerParams)}}
        got = backward(sum_all(mul(fused, weights)), params=watched.values())
        want = backward(sum_all(mul(ref, weights)), params=watched.values())
        for name, t in watched.items():
            assert got[t].shape == t.shape, name
            assert_close_to_scale(got[t], want[t], name)

    def test_relu_maps_nan_to_zero(self):
        # a NaN pre-activation leaves the layer as 0, as np.where does in relu
        params = small_params(layers=1)
        batch = GraphBatch([graph_from_smiles("CCO")])
        h = Tensor(np.where(np.arange(15).reshape(3, 5) == 4, np.nan, 1.0))
        ref = gin_layer_unfused(h, batch.edge_src, batch.edge_dst, Tensor(batch.bond_sums), params.layer(0))
        out = gin_layer(h, batch, params, 0)
        assert out.values.tobytes() == ref.values.tobytes()

    def test_gin_layer_records_one_node(self):
        params = small_params()
        batch = GraphBatch([graph_from_smiles(s) for s in MOLS])
        h = Tensor(np.ones((batch.n_atoms, 5)), requires_grad=True)
        out = gin_layer(h, batch, params, 1)
        lp = params.layer(1)
        assert out._vjp is not None
        assert out._parents == (h, lp.eps, lp.bond_embed, lp.w1, lp.b1, lp.w2, lp.b2)
        assert all(p._vjp is None for p in out._parents)

    def test_encode_builds_each_edge_table_once(self, monkeypatch):
        graphs = [graph_from_smiles(s) for s in MOLS]
        batch = GraphBatch(graphs)
        built = []
        build = SlotTable.__init__

        def counting_build(table, index, n):
            built.append(np.array(index))
            build(table, index, n)

        monkeypatch.setattr(SlotTable, "__init__", counting_build)
        params = small_params(layers=3)
        backward(sum_all(encode_multilevel(graphs, params)), params=params.tensors().values())
        for edges in (batch.edge_dst, batch.edge_src):
            assert sum(np.array_equal(index, edges) for index in built) == 1


@pytest.fixture(scope="module", params=[(5, 300), (2, 7)], ids=["full-width", "narrow"])
def corpus_oracle(request):
    """Encoder params and the unfused reference's levels for the corpus."""
    layers, hidden = request.param
    params = EncoderParams.init(layers, hidden, seed=0)
    return params, encode_unfused(corpus_graphs(), params.detach()).values


def test_frozen_corpus_equals_unfused_reference(corpus_oracle):
    # the folded frozen layers round differently from the reference
    params, want = corpus_oracle
    np.testing.assert_allclose(encode_frozen(corpus_graphs(), params), want, rtol=0, atol=1e-12)


class TestEncodeMultilevel:
    def test_output_shapes(self):
        params = small_params(layers=3, hidden=6)
        levels = encode_multilevel([graph_from_smiles(s) for s in MOLS], params)
        assert levels.shape == (3, len(MOLS), 6)
        assert np.isfinite(levels.values).all()

    def test_frozen_stack_is_the_multilevel_stack(self):
        params = small_params(layers=3, hidden=6, seed=4)
        graphs = corpus_graphs()
        assert sum(g.n_atoms for g in graphs) <= FROZEN_BATCH_ATOMS  # one batch
        frozen = encode_frozen(graphs, params)
        assert isinstance(frozen, np.ndarray)
        np.testing.assert_allclose(
            frozen, encode_multilevel(graphs, params).values, rtol=0, atol=1e-12
        )

    def test_batch_invariance(self):
        # joint encoding must match each molecule encoded alone
        params = small_params(layers=2, hidden=8, seed=3)
        graphs = [graph_from_smiles(s) for s in MOLS]
        joint = encode_multilevel(graphs, params)
        for i, g in enumerate(graphs):
            alone = encode_multilevel([g], params)
            np.testing.assert_allclose(
                joint.values[:, i], alone.values[:, 0], rtol=1e-12, atol=1e-12
            )

    def test_atom_order_invariance(self):
        # the same molecule written with different atom orders pools identically
        params = small_params(layers=2, hidden=8, seed=1)
        pairs = [("CCO", "OCC"), ("C(F)(Cl)Br", "FC(Cl)Br"), ("c1ccncc1", "n1ccccc1")]
        for left, right in pairs:
            za = encode_multilevel([graph_from_smiles(left)], params)
            zb = encode_multilevel([graph_from_smiles(right)], params)
            np.testing.assert_allclose(za.values, zb.values, rtol=1e-10, atol=1e-12)

    def test_dropout_only_in_training(self):
        params = small_params(seed=2)
        graphs = [graph_from_smiles("CCO")]
        clean = encode_multilevel(graphs, params)
        rate_zero = encode_multilevel(graphs, params, dropout_rate=0.0, rng=np.random.default_rng(0))
        dropped = encode_multilevel(graphs, params, dropout_rate=0.5, rng=np.random.default_rng(0))
        assert clean.values.tobytes() == rate_zero.values.tobytes()
        assert not np.array_equal(clean.values[0], dropped.values[0])


class TestFrozenBatches:
    @staticmethod
    def recorded_batches(monkeypatch, graphs, params):
        """``encode_frozen(graphs, params)`` and the graph list of every
        batch it encoded."""
        batches = []

        frozen_batch = encoder_module._frozen_batch

        def recording(batch, folded):
            batches.append(list(batch))
            return frozen_batch(batch, folded)

        monkeypatch.setattr(encoder_module, "_frozen_batch", recording)
        frozen = encode_frozen(graphs, params)
        monkeypatch.undo()
        return frozen, batches

    def test_batches_keep_input_order_under_the_budget(self, monkeypatch):
        graphs = corpus_graphs() * 4  # 1516 atoms
        params = small_params(layers=2, hidden=8, seed=5)
        frozen, batches = self.recorded_batches(monkeypatch, graphs, params)
        assert len(batches) == 2
        assert [id(g) for b in batches for g in b] == [id(g) for g in graphs]
        for batch, following in zip(batches, batches[1:]):
            atoms = sum(g.n_atoms for g in batch)
            assert atoms <= FROZEN_BATCH_ATOMS < atoms + following[0].n_atoms
        alone = [encode_multilevel([g], params).values[:, 0] for g in graphs[::37]]
        np.testing.assert_allclose(frozen[:, ::37], np.stack(alone, axis=1), rtol=0, atol=1e-12)

    def test_molecule_over_the_budget_is_a_batch_of_its_own(self, monkeypatch):
        small, big = graph_from_smiles("CCO"), star_graph(FROZEN_BATCH_ATOMS + 4)
        graphs = [small, big, small, small]
        params = small_params(layers=2, hidden=4, seed=6)
        frozen, batches = self.recorded_batches(monkeypatch, graphs, params)
        assert [[id(g) for g in b] for b in batches] == [[id(small)], [id(big)], [id(small)] * 2]
        assert frozen.shape == (2, 4, 4)

    def test_several_batches_match_one_batch_encoding(self):
        graphs = corpus_graphs() * 6
        params = small_params(layers=3, hidden=16, seed=8)
        assert len(list(frozen_batches(graphs, params))) == 3
        np.testing.assert_allclose(
            encode_frozen(graphs, params), encode_multilevel(graphs, params).values,
            rtol=0, atol=1e-12,
        )


def fold_params(layers, hidden):
    """Encoder params whose every layer has a non-zero eps and every bias
    is non-zero, so each folded term carries weight."""
    params = EncoderParams.init(layers, hidden, seed=9)
    rng = np.random.default_rng(4)
    values = {"input_b": rng.normal(size=hidden)}
    for i in range(layers):
        values[f"layer{i}.eps"] = np.array(rng.uniform(-0.4, 0.6))
        values[f"layer{i}.b1"] = rng.normal(size=hidden)
        values[f"layer{i}.b2"] = rng.normal(size=hidden)
    return params.replace_values(values)


def fold_graphs():
    """The corpus (one batch), a chain over the atom budget (its own
    batch) and two bond-free molecules (a batch without edges)."""
    chain = graph_from_smiles("C" * (FROZEN_BATCH_ATOMS + 16))
    return corpus_graphs() + [chain] + [graph_from_smiles(s) for s in ("C", "[Na+]")]


class TestFoldedFrozenEncoder:
    """``frozen_batches`` folds w2 into the next layer's w1 and pools before
    projecting; the graph-tracked ``encode_multilevel`` is its reference."""

    @pytest.mark.parametrize("layers, hidden", [(5, 300), (2, 7)], ids=["full-width", "narrow"])
    def test_matches_the_graph_tracked_stack(self, layers, hidden):
        params = fold_params(layers, hidden)
        assert all(params[f"layer{i}.eps"].values != 0 for i in range(layers))
        graphs = fold_graphs()
        assert [len(b) for b in frozen_batches(graphs, params)] == [layers] * 3
        assert [b.shape[1] for b in frozen_batches(graphs, params)] == [len(graphs) - 3, 1, 2]
        frozen = encode_frozen(graphs, params)
        want = encode_multilevel(graphs, params).values
        np.testing.assert_allclose(frozen, want, rtol=0, atol=1e-12)
        assert encode_frozen(graphs, params).tobytes() == frozen.tobytes()
        bond_free = graphs[-2:]
        np.testing.assert_allclose(
            encode_frozen(bond_free, params), encode_multilevel(bond_free, params).values,
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("name", list(fold_params(2, 7).tensors()))
    def test_nan_weight_is_non_finite_in_the_same_rows(self, name):
        params = fold_params(2, 7)
        poisoned = params[name].values.copy()
        poisoned.reshape(-1)[poisoned.size // 2] = np.nan
        params = params.replace_values({name: poisoned})
        graphs = fold_graphs()
        with np.errstate(invalid="ignore"):
            want = np.isfinite(encode_multilevel(graphs, params).values).all(axis=-1)
            alone = encode_multilevel(graphs[-2:], params).values
        got = np.isfinite(encode_frozen(graphs, params)).all(axis=-1)
        np.testing.assert_array_equal(got, want)
        # a batch without edges drops the bond term on both paths
        np.testing.assert_allclose(encode_frozen(graphs[-2:], params), alone, rtol=0, atol=1e-12)


class TestEncoderGradients:
    def test_full_encoder_gradcheck(self):
        rng = np.random.default_rng(7)
        params = EncoderParams.init(2, 3, seed=11)
        graphs = [graph_from_smiles(s) for s in ("CCO", "C", "C=C")]
        weights = Tensor(rng.normal(size=(2, 3, 3)))

        def build_loss():
            return sum_all(mul(encode_multilevel(graphs, params), weights))

        tensors = params.tensors()
        analytic = backward(build_loss(), params=tensors.values())
        named = {name: analytic[t] for name, t in tensors.items()}
        numeric = fd_gradients(lambda: build_loss().item(), tensors)
        assert_grads_match(named, numeric)

    def test_sweep_equals_the_keep_every_node_sweep_bitwise(self):
        # backward drops each op node's gradient once consumed; the leaf
        # gradients must be the very sums the keep-everything sweep adds
        params = EncoderParams.init(3, 16, seed=2)
        graphs = corpus_graphs()
        levels = encode_multilevel(graphs, params, dropout_rate=0.1, rng=np.random.default_rng(3))
        loss = sum_all(mul(levels, Tensor(np.random.default_rng(4).normal(size=levels.shape))))
        watched = list(params.tensors().values())
        want = backward_every_node(loss, watched)  # first: backward consumes the graph
        got = backward(loss, params=watched)
        assert set(got) == set(watched)
        for t in watched:
            assert got[t].tobytes() == want[t].tobytes()

    def test_sweep_frees_each_layers_saved_rows(self):
        # backward consumes the graph: with the loss still held, every
        # gin_conv node's saved rows (x and the post-ReLU r) are freed
        width = RunConfig().encoder
        params = EncoderParams.init(width.layers, width.hidden, seed=2)
        loss = sum_all(encode_multilevel(corpus_graphs(), params))
        saved, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack += node._parents
            if node._vjp is not None and node._vjp.__qualname__ == "gin_conv.<locals>.vjp":
                cells = dict(zip(node._vjp.__code__.co_freevars, node._vjp.__closure__))
                saved += [weakref.ref(cells[name].cell_contents) for name in ("x", "r")]
        assert len(saved) == 2 * width.layers
        del node, cells, seen
        assert all(ref() is not None for ref in saved)
        backward(loss, params=params.tensors().values())
        assert [ref() is None for ref in saved] == [True] * len(saved)
