"""Independent test oracles.

Everything here recomputes expected values from first principles with
plain numpy or pure Python, deliberately avoiding the package's own
code paths: central finite differences for gradients, O(n^2) pair
counting for ranking metrics, permutation search for graph isomorphism,
a dense eigendecomposition for PCA, per-tensor loops for the
task-relation updates, a per-bond loop for the batched graph, a
row-by-row one-hot featurizer, and the GIN layer and the attention
block as compositions of the ops criterion 1 checks one by one.
"""

from __future__ import annotations

import itertools

import numpy as np

FD_STEP = 1e-5
REL_TOL = 1e-4
# coordinates below this magnitude are compared absolutely; the floor
# keeps finite-difference roundoff (~1e-10 at h=1e-5) out of the ratio
REL_FLOOR = 1e-3


def fd_gradients(build_loss, tensors: dict, h: float = FD_STEP) -> dict:
    """Central finite differences of a scalar loss wrt named tensors.

    ``build_loss`` must rebuild the computation from the tensors'
    current ``values`` arrays and return the loss as a float; the
    arrays are perturbed in place one coordinate at a time.
    """
    out = {}
    for name, t in tensors.items():
        flat = t.values.reshape(-1)
        grad = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = build_loss()
            flat[i] = orig - h
            lo = build_loss()
            flat[i] = orig
            grad[i] = (hi - lo) / (2.0 * h)
        out[name] = grad.reshape(t.values.shape)
    return out


def grad_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst per-coordinate relative error with an absolute floor."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_FLOOR)
    return float((np.abs(a - n) / denom).max()) if a.size else 0.0


def assert_grads_match(analytic: dict, numeric: dict, tol: float = REL_TOL):
    for name, num in numeric.items():
        err = grad_rel_error(analytic[name], num)
        assert err < tol, f"{name}: relative gradient error {err:.3e} >= {tol}"


def add_at_rows(values, index, n: int) -> np.ndarray:
    """Row sums by bucket through ``np.add.at``: each input row added into
    a zero row in input order, the reference for the grouped-row ops."""
    values = np.asarray(values, dtype=np.float64)
    out = np.zeros((n, values.shape[1]), dtype=np.float64)
    np.add.at(out, np.asarray(index, dtype=np.int64), values)
    return out


def broadcast_batched_matmul(a, b, g):
    """Forward and both gradients of a stacked product with a shared 2-d
    second operand, through numpy's broadcast matmul: ``out[l] = a[l] @ b``,
    and the weight gradient as the L per-layer products ``a[l].T @ g[l]``
    added in layer order.  Returns (out, grad_a, grad_b) for the upstream
    gradient ``g``."""
    a, b, g = (np.asarray(x, dtype=np.float64) for x in (a, b, g))
    out = np.matmul(a, b)
    grad_a = np.matmul(g, b.T)
    grad_b = np.matmul(np.swapaxes(a, -1, -2), g).sum(axis=0)
    return out, grad_a, grad_b


def match_per_layer(z_query, z_support, y_support, params, *, dropout_rate=0.0, rng=None):
    """Per-layer reference for the stacked matcher: one attention block
    per layer on 2-d autodiff ops, then the fused probabilities.

    ``z_query``/``z_support`` are lists of per-layer [n, d] tensors.  The
    2-d ops are each checked against finite differences on their own, so
    gradients through this graph are an independent reference for the
    stacked ops.  Returns (probs, per-layer y_hat, per-layer attention).
    """
    from molmatch.tensor import add, concat_cols, dropout, matmul, scale, softmax_rows, transpose

    drop = dropout_rate > 0.0
    y_hats, attentions = [], []
    for layer, (zq, zs) in enumerate(zip(z_query, z_support)):
        wq, wk = params.qk(layer)
        scores = matmul(matmul(zq, wq), transpose(matmul(zs, wk)))
        attention = softmax_rows(scale(scores, 1.0 / np.sqrt(zq.shape[1])))
        used = dropout(attention, dropout_rate, rng) if drop else attention
        y_hat = matmul(used, y_support)
        if not drop:
            np.clip(y_hat.values, y_support.values.min(), y_support.values.max(), out=y_hat.values)
        y_hats.append(y_hat)
        attentions.append(attention)
    joint = concat_cols(y_hats)
    if drop:
        joint = dropout(joint, dropout_rate, rng)
    probs = softmax_rows(add(matmul(joint, params.wo), params.bias))
    return probs, y_hats, attentions


def match_levels_unfused(z_query, z_support, y_support, params, *, dropout_rate=0.0, rng=None):
    """The attention block as a composition of stacked autodiff ops, the
    reference for ``tensor.attention_match``: projections, scaled scores,
    row softmax, label read-out with its hull clip, fusion and the final
    softmax, one op each, on one episode's [L, n, d] stacks.  Dropout
    draws the attention's mask, then the fusion input's, from ``rng``.
    Returns (probs [n_query, 2], y_hat [L, n_query, 1], attention
    [L, n_query, n_support]) as Tensors."""
    from molmatch.tensor import (
        add, batched_matmul, dropout, matmul, reshape, scale, softmax_rows, stack, transpose,
    )

    n_layers, n_query, d = z_query.shape
    n_support = z_support.shape[1]
    if params.shared_qk:
        wq, wk = params.qk(0)
    else:
        wq, wk = stack(params.wq), stack(params.wk)
    scores = scale(
        batched_matmul(
            batched_matmul(z_query, wq), batched_matmul(z_support, wk), transpose_b=True
        ),
        1.0 / np.sqrt(d),
    )
    attention = reshape(
        softmax_rows(reshape(scores, (n_layers * n_query, n_support))),
        (n_layers, n_query, n_support),
    )
    used = attention
    if dropout_rate > 0.0:
        used = dropout(attention, dropout_rate, rng)
    y_hat = batched_matmul(used, y_support)
    if used is attention:
        np.clip(y_hat.values, y_support.values.min(), y_support.values.max(), out=y_hat.values)
    joint = transpose(reshape(y_hat, (n_layers, n_query)))
    if dropout_rate > 0.0:
        joint = dropout(joint, dropout_rate, rng)
    probs = softmax_rows(add(matmul(joint, params.wo), params.bias))
    return probs, y_hat, attention


def finetune_per_episode(matcher, levels, labels, fraction, seed, inner_steps, alpha):
    """One episode's fine-tune and prediction on its own, through
    ``match_levels_unfused``: split the labelled rows with
    ``split_support``, take ``inner_steps`` gradient steps of size
    ``alpha`` on the summed query cross-entropy, then match the queries
    against every labelled row.  ``levels`` is the episode's [L, n, d]
    stack, its first ``len(labels)`` rows labelled and the rest queries.
    Returns the [n_query, 2] probabilities."""
    from molmatch.meta import split_support
    from molmatch.tensor import Tensor, backward, cross_entropy

    n_s = len(labels)
    fine_s, fine_q = split_support(labels, fraction, seed)
    y = np.asarray(labels, dtype=float)

    def rows(picked):
        return Tensor(levels[:, picked])

    def column(picked):
        return Tensor(y[picked][:, None])

    w = matcher.clone()
    if fine_q:
        target = Tensor(np.stack([y[fine_q], 1.0 - y[fine_q]], axis=1))
        for _ in range(inner_steps):
            probs, _, _ = match_levels_unfused(rows(fine_q), rows(fine_s), column(fine_s), w)
            named = w.tensors()
            grads = backward(cross_entropy(probs, target), params=named.values())
            w = w.replace_values({
                name: t.values - alpha * grads[t] for name, t in named.items() if t.requires_grad
            })
    labelled = list(range(n_s))
    probs, _, _ = match_levels_unfused(
        Tensor(levels[:, n_s:]), rows(labelled), column(labelled), w.detach()
    )
    return probs.values


def featurize_by_rows(mol) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row reference for ``smiles.featurize``: the atom and bond
    one-hot rows of a parsed molecule, each row its own array, then
    stacked.  The "other" element bucket and the clamped degree, charge
    and H-count buckets sit at the end of their blocks."""
    from molmatch.smiles import (
        BOND_ORDERS, CHARGE_RANGE, D_ATOM, D_BOND, ELEMENTS, MAX_DEGREE, MAX_H,
    )

    n_charge = CHARGE_RANGE[1] - CHARGE_RANGE[0] + 1

    def atom_row(atom, degree):
        row = np.zeros(D_ATOM, dtype=np.float64)
        offset = 0
        try:
            row[offset + ELEMENTS.index(atom.element)] = 1.0
        except ValueError:
            row[offset + len(ELEMENTS)] = 1.0  # "other" bucket
        offset += len(ELEMENTS) + 1
        row[offset + min(degree, MAX_DEGREE)] = 1.0
        offset += MAX_DEGREE + 1
        charge = min(max(atom.charge, CHARGE_RANGE[0]), CHARGE_RANGE[1])
        row[offset + (charge - CHARGE_RANGE[0])] = 1.0
        offset += n_charge
        row[offset] = 1.0 if atom.aromatic else 0.0
        offset += 1
        row[offset + min(atom.h_count, MAX_H)] = 1.0
        return row

    def bond_row(order):
        row = np.zeros(D_BOND, dtype=np.float64)
        row[BOND_ORDERS.index(order)] = 1.0
        return row

    degrees = [0] * len(mol.atoms)
    for u, v, _ in mol.bonds:
        degrees[u] += 1
        degrees[v] += 1
    atom_rows = np.stack([atom_row(a, d) for a, d in zip(mol.atoms, degrees)])
    if mol.bonds:
        bond_rows = np.stack([bond_row(order) for _, _, order in mol.bonds])
    else:
        bond_rows = np.zeros((0, D_BOND), dtype=np.float64)
    return atom_rows, bond_rows


def graph_batch_per_bond(graphs) -> dict:
    """Per-bond loop reference for ``GraphBatch``'s flat arrays: each
    bond (u, v) becomes the edges u->v then v->u, both carrying the
    bond's feature row, and ``bond_sums`` adds every edge's row into its
    destination atom in edge order."""
    src, dst, rows, mol_ids = [], [], [], []
    offset = 0
    for i, g in enumerate(graphs):
        mol_ids.extend([i] * g.n_atoms)
        for (u, v), row in zip(g.bonds, g.bond_feats):
            src += [offset + u, offset + v]
            dst += [offset + v, offset + u]
            rows += [row, row]
        offset += g.n_atoms
    width = graphs[0].bond_feats.shape[1]
    edge_feats = np.array(rows, dtype=np.float64).reshape(-1, width)
    bond_sums = np.zeros((offset, width))
    for d, row in zip(dst, edge_feats):
        bond_sums[d] += row
    return {
        "edge_src": np.array(src, dtype=np.int64),
        "edge_dst": np.array(dst, dtype=np.int64),
        "edge_feats": edge_feats,
        "bond_sums": bond_sums,
        "mol_ids": np.array(mol_ids, dtype=np.int64),
    }


def gin_layer_unfused(h, edge_src, edge_dst, bond_sums, lp):
    """The GIN layer as a composition of 2-d autodiff ops, the reference
    for ``tensor.gin_conv``: the per-edge rows ``h[edge_src]`` scattered
    into their destinations, the bond term, the self term and the MLP,
    one op each.  ``bond_sums`` is a Tensor, ``lp`` a ``GinLayerParams``."""
    from molmatch.tensor import Tensor, add, gather_rows, matmul, mul, relu, scatter_add_rows

    self_term = mul(h, add(lp.eps, Tensor(1.0)))
    if len(edge_src):
        neighbours = scatter_add_rows(gather_rows(h, edge_src), edge_dst, h.shape[0])
        bonds = matmul(bond_sums, lp.bond_embed)
        x = add(self_term, add(neighbours, bonds))
    else:
        x = self_term  # isolated atoms: empty neighbour sum
    x = relu(add(matmul(x, lp.w1), lp.b1))
    return add(matmul(x, lp.w2), lp.b2)


def encode_unfused(graphs, params):
    """``encode_multilevel`` without dropout, through ``gin_layer_unfused``
    and bond sums scattered from the per-edge feature rows."""
    from molmatch.encoder import GraphBatch
    from molmatch.tensor import Tensor, add, matmul, scatter_add_rows, segment_mean, stack

    batch = GraphBatch(graphs)
    edge_feats = graph_batch_per_bond(graphs)["edge_feats"]
    bond_sums = scatter_add_rows(Tensor(edge_feats), batch.edge_dst, batch.n_atoms)
    h = add(matmul(Tensor(batch.atom_feats), params.input_w), params.input_b)
    levels = []
    for i in range(params.n_layers):
        h = gin_layer_unfused(h, batch.edge_src, batch.edge_dst, bond_sums, params.layer(i))
        levels.append(segment_mean(h, batch.mol_ids, batch.n_mols))
    return stack(levels)


def implicit_inner_per_tensor(w_list, m):
    """Per-tensor loop reference for the implicit inner update on dicts
    of name -> array: w_i + sum_{j != i} m[i, j] (w_j - w_i), terms
    added in ascending j from pre-update values."""
    out = []
    for i, w in enumerate(w_list):
        updated = {}
        for name, value in w.items():
            delta = np.zeros_like(value)
            for j in range(len(w_list)):
                if j != i:
                    delta = delta + m[i, j] * (w_list[j][name] - value)
            updated[name] = value + delta
        out.append(updated)
    return out


def implicit_outer_per_tensor(shadow, w_list, m, eta):
    """Per-tensor loop reference for the implicit outer update:
    shadow + eta * sum_{i != j} m[i, j] (w_j - w_i), pairs in (i, j) order."""
    out = {}
    for name, value in shadow.items():
        delta = np.zeros_like(value)
        for i in range(len(w_list)):
            for j in range(len(w_list)):
                if i != j:
                    delta = delta + m[i, j] * (w_list[j][name] - w_list[i][name])
        out[name] = value + eta * delta
    return out


def implicit_inference_per_tensor(shared, w_list, m):
    """Per-tensor loop reference for the implicit inference update:
    shared + sum_{k != j} m[j, k] (w_k - w_j), terms in ascending k."""
    out = []
    for j in range(len(w_list)):
        updated = {}
        for name, value in shared.items():
            delta = np.zeros_like(value)
            for k in range(len(w_list)):
                if k != j:
                    delta = delta + m[j, k] * (w_list[k][name] - w_list[j][name])
            updated[name] = value + delta
        out.append(updated)
    return out


def auroc_bruteforce(scores, labels) -> float:
    """Pairwise definition: P(pos outranks neg), ties counting 1/2."""
    s = [float(v) for v in scores]
    y = [int(v) for v in labels]
    pos = [si for si, yi in zip(s, y) if yi == 1]
    neg = [si for si, yi in zip(s, y) if yi == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def average_precision_bruteforce(scores, labels) -> float:
    """Precision sweep over the stable descending order, pure Python."""
    s = [float(v) for v in scores]
    y = [int(v) for v in labels]
    order = sorted(range(len(s)), key=lambda i: (-s[i], i))
    tp = 0
    precisions = []
    for k, i in enumerate(order, start=1):
        if y[i] == 1:
            tp += 1
            precisions.append(tp / k)
    return sum(precisions) / sum(y)


def pca_dense(data, k: int):
    """Top-k PCA via numpy's symmetric eigendecomposition.

    Applies the same sign convention as the implementation under test
    (largest-magnitude coordinate positive).  Returns (projections,
    explained-variance ratios, components).
    """
    x = np.asarray(data, dtype=np.float64)
    centered = x - x.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(x.shape[0] - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    comps = eigvecs[:, order].T.copy()
    for c in range(k):
        i = int(np.argmax(np.abs(comps[c])))
        if comps[c, i] < 0:
            comps[c] = -comps[c]
    eigs = np.maximum(eigvals[order], 0.0)
    total = float(np.trace(cov))
    ratios = eigs / total if total > 0 else np.zeros(k)
    return centered @ comps.T, ratios, comps


def find_isomorphism(graph_a, graph_b):
    """Search all atom relabelings mapping graph_a onto graph_b.

    Compares atom feature rows and the typed bond sets; returns the
    permutation (a-index -> b-index) or None.  Exponential, so only for
    small molecules.
    """
    n = graph_a.n_atoms
    if n != graph_b.n_atoms or graph_a.n_bonds != graph_b.n_bonds:
        return None
    rows_a = [tuple(r) for r in graph_a.atom_feats]
    rows_b = [tuple(r) for r in graph_b.atom_feats]
    bonds_b = {
        (u, v, tuple(f)) for (u, v), f in zip(graph_b.bonds, graph_b.bond_feats)
    }
    for perm in itertools.permutations(range(n)):
        if any(rows_a[i] != rows_b[perm[i]] for i in range(n)):
            continue
        mapped = {
            (min(perm[u], perm[v]), max(perm[u], perm[v]), tuple(f))
            for (u, v), f in zip(graph_a.bonds, graph_a.bond_feats)
        }
        if mapped == bonds_b:
            return perm
    return None
