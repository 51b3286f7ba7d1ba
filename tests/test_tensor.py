import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from molmatch import tensor as tensor_module
from molmatch.tensor import (
    SlotTable,
    Tensor,
    add,
    backward,
    batched_matmul,
    concat_cols,
    cross_entropy,
    dropout,
    gather_rows,
    gin_conv,
    matmul,
    mul,
    relu,
    reshape,
    scale,
    scatter_add_rows,
    segment_mean,
    softmax_rows,
    stack,
    sum_all,
    transpose,
)
from oracles import (
    add_at_rows,
    assert_grads_match,
    backward_every_node,
    broadcast_batched_matmul,
    fd_gradients,
)


def leaf(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def weighted_sum(t: Tensor, w: np.ndarray) -> Tensor:
    # random fixed weights turn any op output into a scalar with
    # nontrivial gradients flowing to every coordinate
    return sum_all(mul(t, Tensor(w)))


class TestForward:
    def test_add_mul_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 20.0])
        np.testing.assert_array_equal(add(a, b).values, [[11.0, 22.0], [13.0, 24.0]])
        np.testing.assert_array_equal(mul(a, b).values, [[10.0, 40.0], [30.0, 80.0]])

    def test_matmul_transpose(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(matmul(a, b).values, [[17.0], [39.0]])
        np.testing.assert_array_equal(transpose(a).values, [[1.0, 3.0], [2.0, 4.0]])

    def test_relu(self):
        x = Tensor([[-1.0, 0.0, 2.5]])
        np.testing.assert_array_equal(relu(x).values, [[0.0, 0.0, 2.5]])

    def test_softmax_known_row(self):
        out = softmax_rows(Tensor([[0.0, math.log(2.0)]]))
        np.testing.assert_allclose(out.values, [[1.0 / 3.0, 2.0 / 3.0]], rtol=0, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = softmax_rows(Tensor(rng.normal(size=(5, 7)) * 50.0))
            np.testing.assert_allclose(out.values.sum(axis=1), np.ones(5), rtol=0, atol=1e-12)
            assert (out.values > 0).all()

    def test_softmax_overflow_safe(self):
        out = softmax_rows(Tensor([[1e4, 1e4 + math.log(3.0)]]))
        np.testing.assert_allclose(out.values, [[0.25, 0.75]], atol=1e-12)

    def test_segment_mean(self):
        x = Tensor([[2.0], [4.0], [9.0]])
        out = segment_mean(x, [0, 0, 1], 2)
        np.testing.assert_array_equal(out.values, [[3.0], [9.0]])

    def test_gather_scatter(self):
        x = Tensor([[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(gather_rows(x, [2, 0, 2]).values, [[3.0], [1.0], [3.0]])
        out = scatter_add_rows(x, [1, 1, 0], 2)
        np.testing.assert_array_equal(out.values, [[3.0], [3.0]])

    def test_concat_cols(self):
        a = Tensor([[1.0], [2.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(concat_cols([a, b]).values, [[1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])

    def test_cross_entropy_values(self):
        pred = Tensor([[0.5, 0.5], [1.0, 0.0]])
        target = Tensor([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(cross_entropy(pred, target).values, math.log(2.0), rtol=1e-15)

    def test_cross_entropy_clamps_zero(self):
        pred = Tensor([[0.0, 1.0]])
        target = Tensor([[1.0, 0.0]])
        np.testing.assert_allclose(cross_entropy(pred, target).values, -math.log(1e-12), rtol=1e-12)

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_inverted_scaling(self):
        x = Tensor(np.ones((200, 50)))
        out = dropout(x, 0.4, np.random.default_rng(3))
        vals = np.unique(out.values)
        np.testing.assert_allclose(vals, [0.0, 1.0 / 0.6])
        assert abs(out.values.mean() - 1.0) < 0.05  # unbiased in expectation

    def test_batched_matmul_is_per_slice_matmul(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
        shared_b = rng.normal(size=(4, 5))
        cases = [
            (batched_matmul(Tensor(a), Tensor(b)), [a[l] @ b[l] for l in range(3)]),
            (batched_matmul(Tensor(a), Tensor(shared_b)), [a[l] @ shared_b for l in range(3)]),
            (
                batched_matmul(Tensor(a), Tensor(b.swapaxes(1, 2).copy()), transpose_b=True),
                [a[l] @ b[l] for l in range(3)],
            ),
        ]
        for out, expect in cases:
            np.testing.assert_allclose(out.values, np.stack(expect), rtol=1e-14, atol=1e-14)

    def test_reshape_and_stack(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(reshape(a, (3, 2)).values, [[0, 1], [2, 3], [4, 5]])
        out = stack([a, scale(a, 2.0)])
        assert out.shape == (2, 2, 3)
        np.testing.assert_array_equal(out.values[1], 2.0 * a.values)


class TestForwardErrors:
    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_matmul_shape_errors(self):
        z = lambda *shape: Tensor(np.zeros(shape))
        for a, b in [
            (z(2, 3), z(3, 4)),  # neither operand stacked
            (z(2, 2, 3), z(3, 2, 4)),  # stack lengths differ
            (z(2, 2, 3), z(2, 4, 4)),  # inner widths differ
            (z(2, 2, 2, 3), z(3, 4)),  # 4-d operand
            (z(2, 3), z(2, 3, 4)),  # shared first operand
        ]:
            with pytest.raises(ValueError, match="batched_matmul"):
                batched_matmul(a, b)
        for b in [
            z(2, 3, 4),  # stacked, not transposed
            z(4, 3),  # shared and transposed
        ]:
            with pytest.raises(ValueError, match="batched_matmul"):
                batched_matmul(z(2, 2, 3), b, transpose_b=True)

    def test_reshape_and_stack_errors(self):
        with pytest.raises(ValueError, match="reshape"):
            reshape(Tensor(np.zeros((2, 3))), (4, 2))
        with pytest.raises(ValueError, match="stack"):
            stack([])
        with pytest.raises(ValueError, match="same shape"):
            stack([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))])

    def test_add_incompatible_shapes(self):
        with pytest.raises(ValueError, match="incompatible"):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))

    def test_segment_mean_empty_segment(self):
        with pytest.raises(ValueError, match="segment 1 is empty"):
            segment_mean(Tensor(np.ones((2, 2))), [0, 2], 3)

    def test_segment_mean_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            segment_mean(Tensor(np.ones((2, 2))), [0, 5], 2)

    def test_gather_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            gather_rows(Tensor(np.ones((2, 2))), [3])

    def test_slot_table_index_range(self):
        for index in ([0, 3], [-1], [[0, 1]]):
            with pytest.raises(ValueError, match="SlotTable"):
                SlotTable(index, 3)

    def test_gin_conv_shape_errors(self):
        z = lambda *shape: Tensor(np.zeros(shape))
        tables = SlotTable([1, 0], 2), SlotTable([0, 1], 2)
        good = [z(2, 3), z(), z(4, 3), z(3, 5), z(5), z(5, 2), z(2)]
        assert gin_conv(*good, np.zeros((2, 4)), *tables).shape == (2, 2)
        wrong = [(0, z(3, 3)), (2, z(4, 2)), (3, z(2, 5)), (4, z(4)), (5, z(4, 2)), (6, z(3))]
        for i, bad in wrong:  # h, bond_embed, w1, b1, w2, b2 of a mismatched shape
            args = good[:i] + [bad] + good[i + 1 :]
            with pytest.raises(ValueError, match="gin_conv"):
                gin_conv(*args, np.zeros((2, 4)), *tables)
        with pytest.raises(ValueError, match="gin_conv"):
            gin_conv(*good, np.zeros((2, 3)), *tables)
        with pytest.raises(ValueError, match="gin_conv"):
            gin_conv(*good, np.zeros((2, 4)), SlotTable([0], 2), tables[1])

    def test_cross_entropy_rejects_soft_targets(self):
        with pytest.raises(ValueError, match="row 0.*not one-hot"):
            cross_entropy(Tensor([[0.5, 0.5]]), Tensor([[0.6, 0.4]]))

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError, match="cross_entropy"):
            cross_entropy(Tensor([[0.5, 0.5, 0.0]]), Tensor([[1.0, 0.0, 0.0]]))

    def test_dropout_rate_range(self):
        with pytest.raises(ValueError, match="rate"):
            dropout(Tensor([1.0]), 1.0, np.random.default_rng(0))

    def test_backward_needs_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(add(x, x))

    def test_item_needs_single_element(self):
        with pytest.raises(ValueError, match="single-element"):
            Tensor(np.ones(3)).item()


class TestGradients:
    """Every op against central finite differences, several seeds each."""

    def check(self, build_loss, tensors, tol=1e-4):
        loss = build_loss()
        analytic = backward(loss, params=tensors.values())
        named = {name: analytic[t] for name, t in tensors.items()}
        numeric = fd_gradients(lambda: build_loss().item(), tensors)
        assert_grads_match(named, numeric, tol)

    def test_add_broadcast(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            a, b = leaf(rng, 3, 4), leaf(rng, 4)
            w = rng.normal(size=(3, 4))
            self.check(lambda: weighted_sum(add(a, b), w), {"a": a, "b": b})

    def test_mul_broadcast(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            a, b = leaf(rng, 3, 4), leaf(rng, 3, 1)
            w = rng.normal(size=(3, 4))
            self.check(lambda: weighted_sum(mul(a, b), w), {"a": a, "b": b})

    def test_scale(self):
        rng = np.random.default_rng(0)
        a = leaf(rng, 2, 3)
        w = rng.normal(size=(2, 3))
        self.check(lambda: weighted_sum(scale(a, -1.7), w), {"a": a})

    def test_matmul(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            a, b = leaf(rng, 3, 5), leaf(rng, 5, 2)
            w = rng.normal(size=(3, 2))
            self.check(lambda: weighted_sum(matmul(a, b), w), {"a": a, "b": b})

    def test_transpose(self):
        rng = np.random.default_rng(0)
        a = leaf(rng, 3, 4)
        w = rng.normal(size=(4, 3))
        self.check(lambda: weighted_sum(transpose(a), w), {"a": a})

    def test_relu(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            vals = rng.normal(size=(4, 4))
            vals += 0.2 * np.sign(vals)  # keep coordinates away from the kink
            a = Tensor(vals, requires_grad=True)
            w = rng.normal(size=(4, 4))
            self.check(lambda: weighted_sum(relu(a), w), {"a": a})

    def test_softmax_rows(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            a = leaf(rng, 4, 6)
            w = rng.normal(size=(4, 6))
            self.check(lambda: weighted_sum(softmax_rows(a), w), {"a": a})

    def test_segment_mean(self):
        rng = np.random.default_rng(0)
        a = leaf(rng, 6, 3)
        ids = [0, 0, 1, 2, 2, 2]
        w = rng.normal(size=(3, 3))
        self.check(lambda: weighted_sum(segment_mean(a, ids, 3), w), {"a": a})

    def test_gather_rows(self):
        rng = np.random.default_rng(0)
        a = leaf(rng, 5, 3)
        idx = [4, 0, 0, 2]
        w = rng.normal(size=(4, 3))
        self.check(lambda: weighted_sum(gather_rows(a, idx), w), {"a": a})

    def test_scatter_add_rows(self):
        rng = np.random.default_rng(0)
        a = leaf(rng, 5, 3)
        idx = [1, 1, 0, 3, 3]
        w = rng.normal(size=(4, 3))
        self.check(lambda: weighted_sum(scatter_add_rows(a, idx, 4), w), {"a": a})

    @pytest.mark.parametrize(
        "a_shape, b_shape, transpose_b",
        [
            ((3, 2, 4), (3, 4, 5), False),
            ((1, 2, 4), (1, 4, 5), False),  # a stack of one slice
            ((3, 2, 4), (4, 5), False),  # shared second operand
            ((3, 2, 4), (3, 5, 4), True),
        ],
    )
    def test_batched_matmul(self, a_shape, b_shape, transpose_b):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            a, b = leaf(rng, *a_shape), leaf(rng, *b_shape)
            out_shape = batched_matmul(a, b, transpose_b=transpose_b).shape
            w = rng.normal(size=out_shape)
            self.check(
                lambda: weighted_sum(batched_matmul(a, b, transpose_b=transpose_b), w),
                {"a": a, "b": b},
            )

    def test_batched_matmul_shared_gradient_is_one_gemm(self):
        # the L layers' weight gradients are summed inside one product of
        # the stacked rows, not added layer by layer
        rng = np.random.default_rng(5)
        a, w = leaf(rng, 4, 3, 6), leaf(rng, 6, 2)
        g = rng.normal(size=(4, 3, 2))
        out = batched_matmul(a, w)
        grads = backward(weighted_sum(out, g), params=[w])
        expect = a.values.reshape(-1, 6).T @ g.reshape(-1, 2)
        np.testing.assert_array_equal(grads[w], expect)

    def test_batched_matmul_shared_matches_broadcast_reference(self):
        rng = np.random.default_rng(6)
        a, w = leaf(rng, 5, 7, 4), leaf(rng, 4, 3)
        g = rng.normal(size=(5, 7, 3))
        out = batched_matmul(a, w)
        grads = backward(weighted_sum(out, g), params=[a, w])
        ref_out, ref_a, ref_w = broadcast_batched_matmul(a.values, w.values, g)
        np.testing.assert_allclose(out.values, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[a], ref_a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[w], ref_w, rtol=0, atol=1e-12)

    def test_reshape(self):
        rng = np.random.default_rng(0)
        a = leaf(rng, 3, 4)
        w = rng.normal(size=(2, 2, 3))
        self.check(lambda: weighted_sum(reshape(a, (2, 2, 3)), w), {"a": a})

    def test_stack(self):
        rng = np.random.default_rng(0)
        a, b, c = leaf(rng, 2, 3), leaf(rng, 2, 3), leaf(rng, 2, 3)
        w = rng.normal(size=(3, 2, 3))
        self.check(lambda: weighted_sum(stack([a, b, c]), w), {"a": a, "b": b, "c": c})

    def test_concat_cols(self):
        rng = np.random.default_rng(0)
        a, b = leaf(rng, 3, 2), leaf(rng, 3, 4)
        w = rng.normal(size=(3, 6))
        self.check(lambda: weighted_sum(concat_cols([a, b]), w), {"a": a, "b": b})

    def test_cross_entropy_direct(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            pred = Tensor(rng.uniform(0.05, 0.95, size=(5, 2)), requires_grad=True)
            target = Tensor(np.eye(2)[rng.integers(0, 2, size=5)])
            self.check(lambda: cross_entropy(pred, target), {"pred": pred})

    def test_cross_entropy_through_softmax(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            logits = leaf(rng, 5, 2)
            target = Tensor(np.eye(2)[rng.integers(0, 2, size=5)])
            self.check(lambda: cross_entropy(softmax_rows(logits), target), {"logits": logits})

    def test_dropout(self):
        rng = np.random.default_rng(0)
        a = leaf(rng, 6, 6)
        w = rng.normal(size=(6, 6))
        # the mask must be identical across finite-difference evaluations
        self.check(
            lambda: weighted_sum(dropout(a, 0.3, np.random.default_rng(42)), w), {"a": a}
        )

    def test_square_at_three(self):
        x = Tensor(3.0, requires_grad=True)
        grads = backward(sum_all(mul(x, x)))
        np.testing.assert_allclose(grads[x], 6.0, rtol=0, atol=0)


class TestBackwardSemantics:
    def test_two_builds_sweep_identically(self):
        rng = np.random.default_rng(0)
        x = leaf(rng, 3, 3)
        first = backward(sum_all(mul(softmax_rows(x), x)))[x]
        second = backward(sum_all(mul(softmax_rows(x), x)))[x]
        assert first.tobytes() == second.tobytes()

    def test_a_swept_graph_cannot_be_swept_again(self):
        # backward consumes the graph; a swept node left looking like a
        # leaf would make the second sweep return zeros
        rng = np.random.default_rng(0)
        x = leaf(rng, 3, 3)
        inner = softmax_rows(x)
        loss = sum_all(mul(inner, x))
        backward(loss)
        with pytest.raises(ValueError, match="already swept"):
            backward(loss)
        with pytest.raises(ValueError, match="already swept"):
            backward(sum_all(inner))  # a new graph through a swept node
        np.testing.assert_array_equal(backward(sum_all(x))[x], np.ones((3, 3)))  # leaves live on

    def test_shared_input_accumulates_within_sweep(self):
        x = Tensor([[2.0]], requires_grad=True)
        loss = sum_all(add(mul(x, x), x))  # d/dx (x^2 + x) = 2x + 1
        np.testing.assert_array_equal(backward(loss)[x], [[5.0]])

    def test_unreached_params_get_zeros(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = Tensor(np.ones((2, 2)), requires_grad=True)
        grads = backward(sum_all(x), params=[x, z])
        np.testing.assert_array_equal(grads[z], np.zeros((2, 2)))

    def test_gradient_lives_only_in_the_returned_map(self):
        x = Tensor([1.0], requires_grad=True)
        grads = backward(sum_all(x))
        assert not hasattr(x, "grad")
        np.testing.assert_array_equal(grads[x], [1.0])

    def test_no_grad_leaves_are_excluded(self):
        x = Tensor([1.0, 2.0])
        y = Tensor([3.0, 4.0], requires_grad=True)
        grads = backward(sum_all(mul(x, y)))
        assert y in grads and x not in grads
        np.testing.assert_array_equal(grads[y], x.values)

    def test_constant_graph(self):
        z = Tensor(np.ones(3), requires_grad=True)
        grads = backward(sum_all(Tensor([2.0])), params=[z])
        np.testing.assert_array_equal(grads[z], np.zeros(3))

    def test_detach_blocks_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        grads = backward(sum_all(mul(x.detach(), x)))
        np.testing.assert_array_equal(grads[x], [2.0])  # only the live branch

    def test_map_holds_the_reached_leaves_and_params_only(self):
        # every op node's gradient is dropped once consumed, unless the
        # node is in params; add's VJP hands one array to both parents
        rng = np.random.default_rng(7)
        x, y, unreached = leaf(rng, 3, 3), leaf(rng, 3, 3), leaf(rng, 2)
        const = Tensor(rng.normal(size=(3, 3)))
        shared = add(x, x)
        watched = matmul(relu(shared), y)
        loss = sum_all(mul(add(watched, softmax_rows(add(shared, const))), watched))
        params = [y, watched, unreached]
        want = backward_every_node(loss, params)  # first: backward consumes the graph
        got = backward(loss, params=params)
        assert set(got) == {x, y, watched, unreached}
        for t in got:
            assert got[t].tobytes() == want[t].tobytes()

    def test_op_output_inherits_requires_grad(self):
        a = Tensor(np.ones(2))
        b = Tensor(np.ones(2), requires_grad=True)
        assert not add(a, a).requires_grad
        assert add(a, b).requires_grad


@st.composite
def grouped_rows(draw):
    """(values, index, n): rows in arbitrary bucket order, some buckets
    empty, ``n`` up to 3 past the largest index, zero-length allowed."""
    d = draw(st.integers(1, 4))
    index = draw(st.lists(st.integers(0, 9), max_size=60))
    n = (max(index) + 1 if index else 0) + draw(st.integers(0, 3))
    finite = st.floats(min_value=-1e300, max_value=1e300, width=64)  # 60-row sums stay finite
    values = draw(arrays(np.float64, (len(index), d), elements=finite))
    return values, np.asarray(index, dtype=np.int64), n


def _case(index, n, d, seed=0):
    index = np.asarray(index, dtype=np.int64)
    return np.random.default_rng(seed).normal(size=(index.size, d)), index, n


class TestGroupedRowSum:
    """The slot-table kernel behind scatter_add_rows, the gather_rows
    VJP and segment_mean must reproduce np.add.at bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(grouped_rows())
    @example(_case([], 0, 3))
    @example(_case([], 4, 2))
    @example(_case([3, 0, 3, 1, 0, 3], 7, 1))
    @example(_case([2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0], 5, 1))
    # 20 buckets of 12 rows, one column: numpy would sum such a padded slot axis pairwise
    @example(_case(np.random.default_rng(1).permutation(np.repeat(np.arange(20), 12)), 20, 1))
    def test_bitwise_equal_to_add_at(self, case):
        values, index, n = case
        ref = add_at_rows(values, index, n)
        # the default block, then blocks of one row and of a few rows
        # a row map reads values[rows[i]] for input row i
        rows = np.arange(len(index))[::-1]
        for block in (tensor_module._BLOCK_ELEMENTS, 1, 5):
            with mock.patch.object(tensor_module, "_BLOCK_ELEMENTS", block):
                out = SlotTable(index, n).sum(values)
                mapped = SlotTable(index, n).sum(values[::-1], rows)
            assert np.array_equal(out, ref)
            assert out.tobytes() == ref.tobytes()
            assert mapped.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("d", [1, 300])
    def test_long_buckets(self, d):
        # a hub bucket with thousands of rows next to small ones; at
        # d = 300 the 500 buckets span three blocks
        rng = np.random.default_rng(7)
        index = np.concatenate([np.zeros(3000, np.int64), rng.integers(0, 500, size=4000)])
        rng.shuffle(index)
        values = rng.normal(size=(index.size, d)) * 10.0 ** rng.integers(-8, 8, size=(index.size, 1))
        ref = add_at_rows(values, index, 520)
        assert SlotTable(index, 520).sum(values).tobytes() == ref.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(grouped_rows())
    def test_ops_equal_add_at_reference(self, case):
        values, index, n = case
        ref = add_at_rows(values, index, n)
        assert scatter_add_rows(Tensor(values), index, n).values.tobytes() == ref.tobytes()
        # sum_all and mul hand the gather VJP exactly ``values`` as its cotangent
        a = Tensor(np.zeros((n, values.shape[1])), requires_grad=True)
        grads = backward(weighted_sum(gather_rows(a, index), values), params=[a])
        assert grads[a].tobytes() == ref.tobytes()
        counts = np.bincount(index, minlength=n)
        if n and counts.min() > 0:
            mean = segment_mean(Tensor(values), index, n).values
            assert mean.tobytes() == (ref / counts[:, None]).tobytes()
