"""Reverse-mode automatic differentiation over dense float64 arrays.

Only the operations the matching model actually needs: matrix products
(single and stacked), reshapes and stacking, row softmax, segment means,
gathers/scatters, elementwise arithmetic, ReLU, column concatenation,
inverted-scaling dropout, a summed cross-entropy, one fused GIN layer
and one fused attention-match block.  Op functions build the graph
implicitly; ``backward`` sweeps it once in reverse topological order
and consumes it: each op node lets go of its VJP, the arrays that VJP
saved and its parents as soon as the VJP has run, so a graph is swept
at most once and a second sweep raises ``ValueError``.

A tensor's values never change, so parameter updates always construct
fresh tensors and in-flight graphs keep reading a consistent snapshot.
A gradient lives only in the map that ``backward`` returns.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "SlotTable",
    "add",
    "mul",
    "scale",
    "matmul",
    "batched_matmul",
    "transpose",
    "reshape",
    "stack",
    "relu",
    "softmax_rows",
    "segment_mean",
    "gather_rows",
    "scatter_add_rows",
    "gin_conv",
    "attention_match",
    "concat_cols",
    "cross_entropy",
    "sum_all",
    "dropout",
    "backward",
]

LOG_CLAMP = 1e-12


class Tensor:
    """An autodiff node: a float64 array, never changed, plus the
    bookkeeping backward() needs, which a sweep consumes.

    ``requires_grad`` marks leaves whose gradient the caller wants; op
    outputs inherit it from their inputs.  A tensor holds no gradient;
    ``backward`` returns gradients in a map keyed by tensor.
    """

    __slots__ = ("values", "requires_grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad: bool = False):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self) -> tuple:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A gradient-free leaf sharing this tensor's values."""
        return Tensor(self.values)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _make(values: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Wrap an op result, recording the node only when a parent needs grad."""
    if any(p.requires_grad for p in parents):
        out = Tensor(values, requires_grad=True)
        out._parents = tuple(parents)
        out._vjp = vjp
        return out
    return Tensor(values)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    try:
        np.broadcast_shapes(av.shape, bv.shape)
    except ValueError:
        raise ValueError(f"add: incompatible shapes {av.shape} and {bv.shape}") from None
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g, av.shape) if na else None,
            _unbroadcast(g, bv.shape) if nb else None,
        )

    return _make(av + bv, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    av, bv = a.values, b.values
    try:
        np.broadcast_shapes(av.shape, bv.shape)
    except ValueError:
        raise ValueError(f"mul: incompatible shapes {av.shape} and {bv.shape}") from None
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g * bv, av.shape) if na else None,
            _unbroadcast(g * av, bv.shape) if nb else None,
        )

    return _make(av * bv, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g):
        return (g * c,)

    return _make(a.values * c, (a,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {av.shape} and {bv.shape}")
    na, nb = a.requires_grad, b.requires_grad

    def vjp(g):
        return (g @ bv.T if na else None, av.T @ g if nb else None)

    return _make(av @ bv, (a, b), vjp)


def batched_matmul(a: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """Stacked products ``out[l] = a[l] @ b[l]`` over a leading axis of L.

    ``a`` is [L, m, k].  ``b`` is either stacked, [L, k, n], or a 2-d
    [k, n] shared by all L products.  With ``transpose_b`` a stacked
    ``b`` is given as [L, n, k] and each product uses its transpose; the
    transposed copy is made once here, so each product runs on the same
    memory layout as ``matmul`` of a ``transpose`` output.

    A shared second operand makes the stack one product of the L*m
    stacked rows: the forward, the input gradient and the weight
    gradient each run as a single 2-d GEMM, and the weight gradient's
    sum over layers happens inside that GEMM.
    """
    av, bv = a.values, b.values
    shared = bv.ndim == 2
    if transpose_b and bv.ndim == 3:
        bv = np.ascontiguousarray(np.swapaxes(bv, 1, 2))
    if (
        av.ndim != 3
        or bv.ndim not in (2, 3)
        or (shared and transpose_b)
        or av.shape[-1] != bv.shape[-2]
        or (not shared and av.shape[0] != bv.shape[0])
    ):
        raise ValueError(f"batched_matmul: incompatible shapes {a.shape} and {b.shape}")
    na, nb = a.requires_grad, b.requires_grad
    if shared:
        (n_layers, m, k), n = av.shape, bv.shape[1]
        rows = av.reshape(n_layers * m, k)

        def shared_vjp(g):
            g_rows = g.reshape(n_layers * m, n)
            ga = (g_rows @ bv.T).reshape(av.shape) if na else None
            gb = rows.T @ g_rows if nb else None
            return ga, gb

        return _make((rows @ bv).reshape(n_layers, m, n), (a, b), shared_vjp)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(bv, -1, -2)) if na else None
        gb = None
        if nb:
            gb = np.matmul(np.swapaxes(av, -1, -2), g)
            if transpose_b:
                gb = np.swapaxes(gb, -1, -2)
        return ga, gb

    return _make(np.matmul(av, bv), (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.values.ndim != 2:
        raise ValueError(f"transpose: expected a 2-d tensor, got shape {a.shape}")

    def vjp(g):
        return (g.T,)

    return _make(a.values.T.copy(), (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    """The same values in C order under a new shape."""
    shape = tuple(int(n) for n in shape)
    if math.prod(shape) != a.values.size:
        raise ValueError(f"reshape: cannot view shape {a.shape} as {shape}")
    old = a.values.shape

    def vjp(g):
        return (g.reshape(old),)

    return _make(a.values.reshape(shape), (a,), vjp)


def stack(tensors: Sequence[Tensor]) -> Tensor:
    """Stack equal-shaped tensors along a new leading axis."""
    if not tensors:
        raise ValueError("stack: need at least one tensor")
    shape = tensors[0].values.shape
    if any(t.values.shape != shape for t in tensors):
        raise ValueError("stack: all tensors must have the same shape")

    def vjp(g):
        return tuple(g)

    return _make(np.stack([t.values for t in tensors]), tuple(tensors), vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0.0

    def vjp(g):
        return (g * mask,)

    return _make(np.where(mask, a.values, 0.0), (a,), vjp)


def softmax_rows(a: Tensor) -> Tensor:
    """Row-wise softmax of a 2-d tensor, stabilised by the row max."""
    if a.values.ndim != 2:
        raise ValueError(f"softmax_rows: expected a 2-d tensor, got shape {a.shape}")
    shifted = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return _make(out, (a,), vjp)


# Block size of SlotTable.sum in float64 elements: each block's
# accumulator and slot temporary hold at most this many (512 KB), so they
# stay in cache and the sum's extra memory does not grow with the input.
_BLOCK_ELEMENTS = 1 << 16


class SlotTable:
    """The rows of an index array grouped by bucket, built once and
    summed through any number of times.

    ``index`` puts input row ``i`` in bucket ``index[i]`` of ``n``.  The
    buckets are ranked by size, largest first, and each one lists its
    input rows in input order.  Slot ``k`` holds every bucket's k-th row,
    and the buckets that have one form a prefix of the ranking.
    """

    __slots__ = ("index", "n", "_by_bucket", "_rank", "_first", "_size", "_filled")

    def __init__(self, index, n: int):
        index = np.asarray(index, dtype=np.int64)
        if index.ndim != 1 or (index.size and (index.min() < 0 or index.max() >= n)):
            raise ValueError(f"SlotTable: index must be 1-d with entries in [0, {n})")
        self.index, self.n = index, int(n)
        counts = np.bincount(index, minlength=n)
        self._by_bucket = np.argsort(index, kind="stable")  # input rows grouped by bucket
        self._rank = np.argsort(-counts, kind="stable")  # buckets, largest first
        # each ranked bucket's start in _by_bucket
        self._first = (np.cumsum(counts) - counts)[self._rank]
        self._size = counts[self._rank]
        self._filled = int(np.count_nonzero(self._size))

    def sum(self, values: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """``out[j]`` = the sum of the rows ``values[rows[i]]`` with
        ``index[i] == j``.  ``rows`` has one entry per index entry and
        defaults to the identity; every row it names must exist in
        ``values`` (callers check their indices once, not per sum).

        Bit-identical to adding the rows into zeros one at a time, in input
        order (an unbuffered ufunc ``at``), without that path's per-element
        cost.  Adding slot after slot into zeros adds each bucket's rows in
        input order for any row width, which a reduction over a padded slot
        axis does not (numpy sums a contiguous axis pairwise).  Ranked
        buckets are summed a block of rows at a time.
        """
        d = values.shape[1]
        out = np.zeros((self.n, d), dtype=np.float64)
        order = self._by_bucket if rows is None else rows[self._by_bucket]
        step = max(1, _BLOCK_ELEMENTS // max(1, d))
        for lo in range(0, self._filled, step):
            hi = min(lo + step, self._filled)
            acc = np.zeros((hi - lo, d), dtype=np.float64)
            for k in range(int(self._size[lo])):
                m = int(np.count_nonzero(self._size[lo:hi] > k))
                # the rows are in range (see above); "clip" skips the bounds check
                acc[:m] += values.take(order[self._first[lo : lo + m] + k], axis=0, mode="clip")
            out[self._rank[lo:hi]] = acc
        return out


def segment_mean(a: Tensor, segment_ids, n_segments: int) -> Tensor:
    """Mean of the rows of ``a`` grouped by ``segment_ids``.

    Every segment in [0, n_segments) must receive at least one row.
    """
    ids = np.asarray(segment_ids, dtype=np.int64)
    if a.values.ndim != 2:
        raise ValueError(f"segment_mean: expected a 2-d tensor, got shape {a.shape}")
    if ids.ndim != 1 or ids.shape[0] != a.values.shape[0]:
        raise ValueError(
            f"segment_mean: ids length {ids.shape} does not match {a.values.shape[0]} rows"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= n_segments):
        raise ValueError("segment_mean: segment id out of range")
    counts = np.bincount(ids, minlength=n_segments).astype(np.float64)
    empty = np.nonzero(counts == 0)[0]
    if empty.size:
        raise ValueError(f"segment_mean: segment {int(empty[0])} is empty")
    out = SlotTable(ids, n_segments).sum(a.values)
    out /= counts[:, None]

    def vjp(g):
        return (g[ids] / counts[ids][:, None],)

    return _make(out, (a,), vjp)


def gather_rows(a: Tensor, index) -> Tensor:
    idx = np.asarray(index, dtype=np.int64)
    if a.values.ndim != 2 or idx.ndim != 1:
        raise ValueError("gather_rows: expected a 2-d tensor and a 1-d index")
    if idx.size and (idx.min() < 0 or idx.max() >= a.values.shape[0]):
        raise ValueError("gather_rows: index out of range")
    n_rows = a.values.shape[0]

    def vjp(g):
        return (SlotTable(idx, n_rows).sum(g),)

    return _make(a.values[idx], (a,), vjp)


def scatter_add_rows(a: Tensor, index, n_rows: int) -> Tensor:
    """Sum the rows of ``a`` into ``n_rows`` buckets chosen by ``index``."""
    idx = np.asarray(index, dtype=np.int64)
    if a.values.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.values.shape[0]:
        raise ValueError("scatter_add_rows: index must have one entry per row")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ValueError("scatter_add_rows: index out of range")

    def vjp(g):
        return (g[idx],)

    return _make(SlotTable(idx, n_rows).sum(a.values), (a,), vjp)


def gin_conv(
    h: Tensor,
    eps: Tensor,
    bond_embed: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    bond_sums: np.ndarray,
    by_dst: SlotTable,
    by_src: SlotTable,
) -> Tensor:
    """One GIN layer as a single op: ``relu(x @ w1 + b1) @ w2 + b2`` with
    ``x = (1 + eps) * h + (sum_{u->v} h_u + bond_sums @ bond_embed)``.

    The directed edges are given by their two slot tables, ``by_dst``
    over the destination atoms and ``by_src`` over the source atoms (so
    ``by_dst.index`` is the edge destinations).  The neighbour sum takes
    the rows of ``h`` at the edge sources straight through ``by_dst``,
    and the VJP sums the neighbour gradient through ``by_src`` the same
    way, so no per-edge array is formed.  ``bond_sums`` [n, k], each
    atom's summed bond features, is a constant.  The forward adds the same rows in the same order as the
    composition of mul/add/gather_rows/scatter_add_rows/matmul/relu, so
    its values are bit-identical to it; the ReLU maps NaN to 0.
    """
    hv, e1, bev = h.values, eps.values + 1.0, bond_embed.values
    w1v, b1v, w2v, b2v = w1.values, b1.values, w2.values, b2.values
    n, d = hv.shape if hv.ndim == 2 else (-1, -1)
    if (
        by_dst.n != n
        or by_src.n != n
        or by_dst.index.size != by_src.index.size
        or eps.values.size != 1
        or bond_sums.ndim != 2
        or bond_sums.shape[0] != n
        or bev.shape != (bond_sums.shape[1], d)
        or w1v.shape[:1] != (d,)
        or b1v.shape != w1v.shape[1:]
        or w2v.shape[:1] != b1v.shape
        or b2v.shape != w2v.shape[1:]
    ):
        raise ValueError(
            f"gin_conv: incompatible shapes h {h.shape}, bond_embed {bond_embed.shape}, "
            f"w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, b2 {b2.shape}, "
            f"bond_sums {bond_sums.shape}, tables over {by_dst.n} and {by_src.n} rows"
        )
    edges = by_dst.index.size > 0  # without edges the neighbour and bond terms are absent
    x = hv * e1
    if edges:
        neighbours = by_dst.sum(hv, by_src.index)
        neighbours += bond_sums @ bev
        x += neighbours
    r = x @ w1v
    r += b1v
    # relu with np.where(r > 0, r, 0)'s values: fmax maps NaN to 0, and
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    np.fmax(r, 0.0, out=r)
    r += 0.0
    out = r @ w2v
    out += b2v

    def vjp(g):
        gw2, gb2 = r.T @ g, g.sum(axis=0)
        gt = g @ w2v.T
        gt *= r > 0.0  # r > 0 exactly where the pre-activation was
        gw1, gb1 = x.T @ gt, gt.sum(axis=0)
        gx = gt @ w1v.T
        geps = np.einsum("ij,ij->", gx, hv).reshape(eps.values.shape)
        gbe = None
        if edges:
            gbe = bond_sums.T @ gx
            gh = by_src.sum(gx, by_dst.index)
            gh += np.multiply(gx, e1, out=gx)
        else:
            gh = np.multiply(gx, e1, out=gx)
        return gh, geps, gbe, gw1, gb1, gw2, gb2

    return _make(out, (h, eps, bond_embed, w1, b1, w2, b2), vjp)


def attention_match(
    z_query: Tensor,
    z_support: Tensor,
    y_support: np.ndarray,
    wq: Sequence[Tensor],
    wk: Sequence[Tensor],
    wo: Tensor,
    bias: Tensor,
    keep: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Attention matching at every layer and the fusion of the layers, for
    E episodes at once, as a single op.

    ``z_query`` [E, L, n_q, d] and ``z_support`` [E, L, n_s, d] stack each
    episode's per-layer embeddings; ``y_support`` [E, n_s, 1] holds its
    support labels, a constant.  The projections ``wq``/``wk`` are one
    [E, d, d] tensor shared by the layers, or L of them, one per layer;
    ``wo`` is [E, L, 2] and ``bias`` [E, 2].  Per episode and layer the
    attention is ``softmax_rows((z_q wq)(z_s wk)^T / sqrt(d))`` and the
    label estimate ``attention @ y_support``, clipped to the labels'
    hull; the [n_q, L] estimates are fused to ``softmax_rows(. @ wo +
    bias)``.  ``keep`` holds dropout factors (1 / (1 - rate) where kept,
    0 where dropped), [E, L, n_q, n_s] for the attention and [E, n_q, L]
    for the fusion input; with dropout the hull clip is off.

    Returns the probabilities [E, n_q, 2] and, as constants, the label
    estimates [E, L, n_q, 1] and the pre-dropout attention
    [E, L, n_q, n_s].  Every product is a numpy stacked matmul whose
    per-episode operands have the shapes and layouts of the composition
    of batched_matmul/scale/softmax_rows/dropout/transpose/matmul/add, so
    each episode's values and gradients are bit-identical to that
    composition's on the episode alone.  The VJP computes only the
    gradients of inputs that require one.
    """
    zq, zs = z_query.values, z_support.values
    n_eps, n_layers, n_q, d = zq.shape if zq.ndim == 4 else (-1, -1, -1, -1)
    n_s = zs.shape[2] if zs.ndim == 4 else -1
    w_shape = (n_eps, d, d)
    if (
        zs.shape != (n_eps, n_layers, n_s, d)
        or n_s < 1
        or y_support.shape != (n_eps, n_s, 1)
        or len(wk) != len(wq)
        or len(wq) not in (1, n_layers)
        or any(w.values.shape != w_shape for w in (*wq, *wk))
        or wo.values.shape != (n_eps, n_layers, 2)
        or bias.values.shape != (n_eps, 2)
        or (keep is not None and (
            keep[0].shape != (n_eps, n_layers, n_q, n_s) or keep[1].shape != (n_eps, n_q, n_layers)
        ))
    ):
        raise ValueError(
            f"attention_match: incompatible shapes z_query {z_query.shape}, "
            f"z_support {z_support.shape}, y_support {y_support.shape}, "
            f"{len(wq)}+{len(wk)} projections, wo {wo.shape}, bias {bias.shape}"
        )
    c = 1.0 / math.sqrt(d)
    # G projection groups [E, G, d, d]: a shared pair is one group of L * n
    # rows (one [L * n, d] @ [d, d] product per episode), per-layer pairs L
    # of n; a single projection is viewed as its group, not copied
    wqv, wkv = (
        ws[0].values[:, None] if len(ws) == 1 else np.stack([w.values for w in ws], axis=1)
        for ws in (wq, wk)
    )
    q = np.matmul(zq.reshape(n_eps, len(wq), -1, d), wqv).reshape(zq.shape)
    k = np.matmul(zs.reshape(n_eps, len(wk), -1, d), wkv).reshape(zs.shape)
    kt = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    scores = np.matmul(q, kt) * c
    scores -= scores.max(axis=-1, keepdims=True)
    attention = np.exp(scores)
    attention /= attention.sum(axis=-1, keepdims=True)
    used = attention if keep is None else attention * keep[0]
    y_hat = np.matmul(used.reshape(n_eps, -1, n_s), y_support).reshape(n_eps, n_layers, n_q, 1)
    if keep is None:
        # A convex combination of the labels lies in their hull exactly,
        # but softmax rows only sum to 1 up to rounding, so the product
        # can spill one ulp past the boundary.  Snap it back.  Dropout
        # rescaling leaves the simplex, so the dropout path is exempt.
        hull = y_support.reshape(n_eps, -1)
        np.clip(y_hat, hull.min(axis=1)[:, None, None, None], hull.max(axis=1)[:, None, None, None],
                out=y_hat)
    joint = np.ascontiguousarray(np.swapaxes(y_hat.reshape(n_eps, n_layers, n_q), 1, 2))
    if keep is not None:
        joint = joint * keep[1]
    logits = np.matmul(joint, wo.values)
    logits += bias.values[:, None, :]
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=-1, keepdims=True)

    need_q = z_query.requires_grad or any(w.requires_grad for w in wq)
    need_k = z_support.requires_grad or any(w.requires_grad for w in wk)

    def projection_grads(g, z, w, ws, need_z):
        """Gradients of the grouped projection ``z @ w`` for the embeddings
        and for each tensor in ``ws``."""
        z_rows, g_rows = z.reshape(n_eps, len(ws), -1, d), g.reshape(n_eps, len(ws), -1, d)
        gz = np.matmul(g_rows, np.swapaxes(w, -1, -2)).reshape(z.shape) if need_z else None
        gw = [None] * len(ws)
        if any(t.requires_grad for t in ws):
            per_group = np.matmul(np.swapaxes(z_rows, -1, -2), g_rows)
            gw = [per_group[:, i] if t.requires_grad else None for i, t in enumerate(ws)]
        return gz, gw

    def vjp(g):
        g_logits = probs * (g - (g * probs).sum(axis=-1, keepdims=True))
        g_bias = g_logits.sum(axis=1) if bias.requires_grad else None
        g_wo = np.matmul(np.swapaxes(joint, 1, 2), g_logits) if wo.requires_grad else None
        g_zq = g_zs = None
        g_wq, g_wk = [None] * len(wq), [None] * len(wk)
        if need_q or need_k:
            g_joint = np.matmul(g_logits, np.swapaxes(wo.values, 1, 2))
            if keep is not None:
                g_joint = g_joint * keep[1]
            g_y = np.swapaxes(g_joint, 1, 2).reshape(n_eps, -1, 1)
            g_att = np.matmul(g_y, np.swapaxes(y_support, 1, 2)).reshape(attention.shape)
            if keep is not None:
                g_att = g_att * keep[0]
            g_scores = attention * (g_att - (g_att * attention).sum(axis=-1, keepdims=True))
            g_scores *= c
            if need_q:
                g_q = np.matmul(g_scores, np.swapaxes(kt, -1, -2))
                g_zq, g_wq = projection_grads(g_q, zq, wqv, wq, z_query.requires_grad)
            if need_k:
                g_k = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_scores), -1, -2)
                g_zs, g_wk = projection_grads(g_k, zs, wkv, wk, z_support.requires_grad)
        return (g_zq, g_zs, *g_wq, *g_wk, g_wo, g_bias)

    out = _make(probs, (z_query, z_support, *wq, *wk, wo, bias), vjp)
    return out, y_hat, attention


def concat_cols(tensors: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-d tensors along the last axis."""
    if not tensors:
        raise ValueError("concat_cols: need at least one tensor")
    rows = tensors[0].values.shape[0]
    for t in tensors:
        if t.values.ndim != 2 or t.values.shape[0] != rows:
            raise ValueError("concat_cols: all tensors must be 2-d with matching row counts")
    widths = [t.values.shape[1] for t in tensors]
    splits = np.cumsum(widths)[:-1]
    out = np.concatenate([t.values for t in tensors], axis=1)

    def vjp(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=1))

    return _make(out, tuple(tensors), vjp)


def cross_entropy(pred: Tensor, onehot: Tensor) -> Tensor:
    """Summed cross-entropy between predicted rows and one-hot targets.

    ``pred`` and ``onehot`` are [..., n, 2] and the sum runs over the last
    two axes, so an [n, 2] pair gives a scalar and an [E, n, 2] stack of
    episodes gives one loss per episode.  Targets must be exact two-class
    one-hot rows ([1,0] or [0,1]).  The log argument is clamped below at
    ``LOG_CLAMP`` so zero probabilities stay finite.
    """
    p, y = pred.values, onehot.values
    if p.shape != y.shape or p.ndim < 2 or p.shape[-1] != 2:
        raise ValueError(
            f"cross_entropy: expected matching [..., n, 2] shapes, got {p.shape} and {y.shape}"
        )
    rows = y.reshape(-1, 2)
    is_onehot = np.all((rows == 0.0) | (rows == 1.0), axis=1) & (rows.sum(axis=1) == 1.0)
    if not np.all(is_onehot):
        bad = int(np.nonzero(~is_onehot)[0][0])
        raise ValueError(f"cross_entropy: row {bad} of the target is not one-hot: {rows[bad]}")
    clamped = np.maximum(p, LOG_CLAMP)
    out = -(y * np.log(clamped)).reshape(*p.shape[:-2], -1).sum(axis=-1)
    live = p >= LOG_CLAMP  # below the clamp the log is flat

    def vjp(g):
        return (g[..., None, None] * np.where(live, -y / clamped, 0.0), None)

    return _make(out, (pred, onehot), vjp)


def sum_all(a: Tensor) -> Tensor:
    shape = a.values.shape

    def vjp(g):
        return (np.full(shape, float(g)),)

    return _make(np.float64(a.values.sum()), (a,), vjp)


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-scaling dropout: keep with prob 1-rate, scale kept by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return a
    keep = rng.random(a.values.shape) >= rate
    factor = keep / (1.0 - rate)

    def vjp(g):
        return (g * factor,)

    return _make(a.values * factor, (a,), vjp)


def _swept(g):
    raise ValueError("backward: this graph was already swept; build it again to sweep it")


def backward(loss: Tensor, params: Iterable[Tensor] | None = None):
    """Single reverse sweep from a scalar loss, consuming its graph.

    Returns the sweep's one gradient map, keyed by tensor (tensors hash
    by identity).  It holds the gradient of every requires_grad leaf the
    sweep reaches and of every tensor in ``params``; tensors in
    ``params`` that the sweep never reaches get zero gradients.  An op
    node's gradient is dropped once its VJP has consumed it, so the map
    never holds an intermediate node's gradient unless that node is in
    ``params``.  Gradients may alias one another (``add``'s VJP hands
    the same array to both parents): copy one before writing into it.

    Every op node the sweep reaches keeps its values but drops its
    parents and its VJP, with the arrays the VJP saved, once the VJP has
    run, so the graph's memory is freed during the sweep even while the
    caller holds ``loss``.  The VJP's place is taken by one that raises
    ``ValueError``: sweeping the graph again, or any new graph through
    one of its op nodes, fails instead of returning zero gradients.
    Leaves are left untouched.
    """
    if loss.values.size != 1:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.shape}")

    # Iterative post-order over op nodes only; leaves collect gradients
    # when their consumers run.
    topo: list[Tensor] = []
    visited: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if node in visited:
            continue
        visited.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p._vjp is not None and p not in visited:
                stack.append((p, False))

    del visited  # topo alone holds the nodes still to run

    params = list(params or ())
    keep = set(params)
    grads = {loss: np.ones_like(loss.values)} if loss.requires_grad else {}
    while topo:
        node = topo.pop()
        vjp, parents = node._vjp, node._parents
        if vjp is None:  # a leaf loss keeps its gradient
            continue
        node._vjp, node._parents = _swept, ()
        g = grads.get(node) if node in keep else grads.pop(node, None)
        if g is None:
            continue
        for parent, pg in zip(parents, vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            grads[parent] = grads[parent] + pg if parent in grads else pg

    for p in params:
        if p not in grads:
            grads[p] = np.zeros_like(p.values)
    return grads
