"""Tensor-core kernels, softmax/layer-norm, tape backward, grad_check."""

import numpy as np
import pytest

from treeformer.tensor import (
    _sum_to_suffix,
    MaskError,
    ShapeError,
    Tape,
    Tensor,
    add,
    check_param_grads,
    concat_last_dim,
    embedding_lookup,
    grad_check,
    layer_norm,
    layer_norm_forward,
    matmul,
    mul_elementwise,
    record_op,
    relu,
    reshape,
    scale,
    softmax_last_dim,
    sum_all,
    sum_rows,
    swap_axes,
)

from oracles import scalar_matmul, scalar_softmax


class TestKernels:
    def test_matmul_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_matmul_against_scalar_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((3, 2))
        out = matmul(Tensor(a), Tensor(b)).data
        ref = scalar_matmul(a, b)
        assert np.abs(out - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_matmul_shape_errors(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
        # the right operand is a weight matrix: a batched one is refused, not broadcast
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 4))))

    def test_relu_definition(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_concat_last_dim(self):
        out = concat_last_dim(Tensor([1.0, 2.0]), Tensor([3.0]))
        np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])

    def test_concat_shape_error(self):
        with pytest.raises(ShapeError):
            concat_last_dim(Tensor(np.ones((2, 2))), Tensor(np.ones((3, 2))))

    def test_add_leading_broadcast_only(self):
        out = add(Tensor(np.ones((2, 3, 4))), Tensor(np.ones(4)))
        assert out.shape == (2, 3, 4)
        with pytest.raises(ShapeError):
            add(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 3, 1))))

    def test_scale_and_mul(self):
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(scale(Tensor(x), -0.5).data, [-0.5, 1.0])
        np.testing.assert_array_equal(
            mul_elementwise(Tensor(x), Tensor(x)).data, [1.0, 4.0]
        )

    def test_embedding_lookup_and_range_check(self):
        table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = embedding_lookup(table, np.array([[0, 3], [1, 1]]))
        np.testing.assert_array_equal(out.data[0, 1], table.data[3])
        with pytest.raises(IndexError):
            embedding_lookup(table, np.array([4]))

    def test_transpose_and_reshape(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        np.testing.assert_array_equal(swap_axes(x, 0, 1).data, x.data.T)
        np.testing.assert_array_equal(
            swap_axes(Tensor(np.zeros((2, 3, 4))), 0, 1).data.shape, (3, 2, 4)
        )
        assert reshape(x, (3, 2)).shape == (3, 2)
        with pytest.raises(ShapeError):
            reshape(x, (4, 2))

    def test_int_input_becomes_default_float(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    @pytest.mark.parametrize("dtype, kept", [(np.int64, False), (np.int32, False), (np.bool_, False),
                                             (np.float16, True), (np.float32, True),
                                             (np.float64, True)])
    def test_non_float_data_becomes_float32_floats_kept(self, dtype, kept):
        data = np.array([[0, 1], [1, 0]], dtype=dtype)
        t = Tensor(data)
        assert t.dtype == (dtype if kept else np.float32)
        np.testing.assert_array_equal(t.data, data.astype(np.float32))

    def test_matmul_bias_shape_errors(self):
        x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
        with pytest.raises(ShapeError):
            matmul(x, w, Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((2, 3, 4))), Tensor(np.ones(4)))


class TestLeadingAxisSums:
    @pytest.mark.parametrize("shape", [(), (4,), (3, 4)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_sums_are_one_gemv_of_ones(self, shape, dtype):
        g = np.random.default_rng(len(shape)).standard_normal((5, 2) + shape).astype(dtype)
        rows = g.reshape(-1, int(np.prod(shape)))
        out = _sum_to_suffix(shape, g)
        assert out.shape == shape and out.dtype == dtype
        assert out.tobytes() == (np.ones(len(rows), dtype=dtype) @ rows).tobytes()
        np.testing.assert_allclose(out, g.sum(axis=tuple(range(g.ndim - len(shape)))), rtol=1e-5)

    def test_sum_rows_of_no_rows_is_zero(self):
        np.testing.assert_array_equal(sum_rows(np.zeros((0, 3), dtype=np.float32)), np.zeros(3))


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax_last_dim(Tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3] * 3, rtol=1e-6)

    def test_single_visible_key(self):
        out = softmax_last_dim(Tensor([5.0, 7.0]), mask=np.array([True, False]))
        np.testing.assert_array_equal(out.data, [1.0, 0.0])

    def test_against_direct_formula(self):
        out = softmax_last_dim(Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, scalar_softmax(np.array([1.0, 2.0, 3.0])), rtol=1e-6)

    def test_rows_sum_to_one_over_wide_range(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-50, 50, size=(4, 6))
            sums = softmax_last_dim(Tensor(x)).data.sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_masked_positions_exactly_zero(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-50, 50, size=(3, 5))
        mask = rng.random((3, 5)) > 0.4
        mask[:, 0] = True
        out = softmax_last_dim(Tensor(x), mask=mask).data
        assert (out[~mask] == 0.0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_fully_masked_row_raises(self):
        with pytest.raises(MaskError):
            softmax_last_dim(Tensor([[1.0, 2.0]]), mask=np.array([[False, False]]))


class TestLayerNorm:
    def test_zero_input(self):
        d = 4
        out = layer_norm(Tensor(np.zeros(d)), Tensor(np.ones(d)), Tensor(np.zeros(d)), 1e-5)
        np.testing.assert_array_equal(out.data, np.zeros(d))

    def test_constant_input_zero_normalized_part(self):
        d = 4
        gamma = Tensor(np.full(d, 3.0))
        out = layer_norm(Tensor(np.ones(d)), gamma, Tensor(np.zeros(d)), 1e-5)
        np.testing.assert_allclose(out.data, np.zeros(d), atol=1e-7)

    def test_hand_evaluation(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        eps = 1e-5
        expected = (x - x.mean()) / np.sqrt(x.var() + eps)
        out = layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), eps)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)), 1e-5)

    @pytest.mark.parametrize("shape", [(7,), (3, 16), (2, 5, 64)])
    def test_forward_bits_equal_mean_var_formula(self, shape):
        rng = np.random.default_rng(len(shape))
        x = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
        gamma = rng.standard_normal(shape[-1]).astype(np.float32)
        beta = rng.standard_normal(shape[-1]).astype(np.float32)
        eps = 1e-6
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
        expected = (x - x.mean(axis=-1, keepdims=True)) * inv * gamma + beta
        out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps).data
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("rows", ["first", "middle", "last", "permuted", "reversed"])
    @pytest.mark.parametrize("d", [8, 64])
    def test_forward_rows_are_batch_invariant(self, d, rows):
        # A row's statistics must not depend on the rows beside it: decoding runs one prefix
        # alone and then inside a beam, and criterion 4 holds beam search to exhaustive search at
        # 1e-9.  The row statistics were tried as sgemv GEMVs, whose results depended on the row
        # count and position: on seed 64 beam search scored -4.152928361867469 against exhaustive
        # -4.152928427672956, and criterion 4 failed.  So they stay numpy reductions.
        rng = np.random.default_rng(d)
        x = (rng.standard_normal((37, d)) * 3 + 1).astype(np.float32)
        gamma, beta = (rng.standard_normal(d).astype(np.float32) for _ in range(2))
        index = {"first": slice(0, 1), "middle": slice(5, 20), "last": slice(36, 37),
                 "permuted": rng.permutation(37), "reversed": slice(None, None, -1)}[rows]
        for full, part in zip(layer_norm_forward(x, gamma, beta, 1e-6),
                              layer_norm_forward(np.ascontiguousarray(x[index]), gamma, beta, 1e-6)):
            assert full[index].tobytes() == part.tobytes()

    @pytest.mark.parametrize("operand", ["x", "gamma", "beta"])
    @pytest.mark.parametrize("shape", [(1,), (64,), (5, 1), (5, 64), (2, 3, 1), (2, 3, 64)])
    def test_backward_grad_check(self, shape, operand):
        rng = np.random.default_rng(shape[-1] + len(shape))
        args = {"x": rng.standard_normal(shape) * 2 + 0.5, "gamma": rng.standard_normal(shape[-1]),
                "beta": rng.standard_normal(shape[-1])}

        def f(t):
            tensors = {name: Tensor(value) for name, value in args.items()}
            tensors[operand] = t
            return layer_norm(tensors["x"], tensors["gamma"], tensors["beta"], 1e-6)

        assert grad_check(f, Tensor(args[operand])) <= 1e-5

    @pytest.mark.parametrize("shape", [(64,), (5, 64), (2, 5, 64), (7, 48)])
    def test_float32_dx_near_float64_mean_formula(self, shape):
        # the backward's row means are GEMVs of 1/d; 1/48 is not exact in float32
        rng = np.random.default_rng(len(shape))
        x = (rng.standard_normal(shape) * 3 + 1).astype(np.float32)
        gamma = rng.standard_normal(shape[-1]).astype(np.float32)
        g = rng.standard_normal(shape).astype(np.float32)
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul_elementwise(layer_norm(xt, Tensor(gamma), Tensor(np.zeros_like(gamma)), 1e-6),
                                           Tensor(g)))
        tape.backward(loss)
        x64, dxhat = x.astype(np.float64), g.astype(np.float64) * gamma
        inv = 1.0 / np.sqrt(x64.var(axis=-1, keepdims=True) + 1e-6)
        xhat = (x64 - x64.mean(axis=-1, keepdims=True)) * inv
        expected = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        assert xt.grad.dtype == np.float32
        np.testing.assert_allclose(xt.grad, expected, rtol=0, atol=1e-6 * np.abs(expected).max())


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(mul_elementwise(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_fanout_accumulates(self):
        x = Tensor(np.array([1.0, 1.0]), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(add(x, x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = relu(x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError):
            Tape().backward(Tensor(np.float64(0.0)))

    def test_no_recording_without_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = relu(x)
        assert not y.requires_grad

    def test_broadcast_add_reduces_grad(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(add(x, b))
        tape.backward(loss)
        np.testing.assert_array_equal(b.grad, [2.0, 2.0, 2.0])

    def test_tape_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
            with Tape() as tape:
                y = softmax_last_dim(matmul(relu(x), w))
                loss = sum_all(mul_elementwise(y, y))
            tape.backward(loss)
            return y.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


class TestGradCheck:
    def test_identity(self):
        err = grad_check(lambda t: t, Tensor(np.linspace(-1, 1, 6)))
        assert err <= 1e-9

    def test_relu_away_from_kink(self):
        x = np.array([-0.8, -0.3, 0.4, 1.2])
        assert grad_check(relu, Tensor(x)) <= 1e-7

    def test_softmax(self):
        rng = np.random.default_rng(3)
        assert grad_check(softmax_last_dim, Tensor(rng.standard_normal((2, 5)))) <= 1e-6

    @pytest.mark.parametrize("seed", range(100))
    def test_primitives_many_seeds(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3))
        other = Tensor(rng.standard_normal((2, 3)))
        w = Tensor(rng.standard_normal((3, 4)))
        gamma = Tensor(rng.standard_normal(3))
        beta = Tensor(rng.standard_normal(3))
        safe = x + np.sign(x) * 0.05   # keep relu coordinates off the kink
        cases = [
            (lambda t: matmul(t, w), x),
            (lambda t: add(t, other), x),
            (lambda t: mul_elementwise(t, other), x),
            (lambda t: scale(t, -1.7), x),
            (relu, safe),
            (lambda t: concat_last_dim(t, other), x),
            (lambda t: swap_axes(t, 0, 1), x),
            (lambda t: reshape(t, (3, 2)), x),
            (softmax_last_dim, x),
            (lambda t: layer_norm(t, gamma, beta, 1e-6), x),
            (sum_all, x),
        ]
        for f, point in cases:
            assert grad_check(f, Tensor(point)) <= 1e-5

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("rows_shape", [(2, 3, 4), (2, 2, 3, 4)])
    def test_matmul_2d_weight_path(self, rows_shape, seed):
        # matmul is linear in each operand, so central differences have no
        # truncation error; a wide step keeps rounding noise off small
        # gradient coordinates
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal(rows_shape)
        weight = rng.standard_normal((4, 5))
        np.testing.assert_allclose(matmul(Tensor(rows), Tensor(weight)).data,
                                   np.einsum("...k,kn->...n", rows, weight), rtol=1e-12)
        assert grad_check(lambda t: matmul(t, Tensor(weight)), Tensor(rows), step=1e-2) <= 1e-8
        assert grad_check(lambda t: matmul(Tensor(rows), t), Tensor(weight), step=1e-2) <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rows_shape", [(3, 4), (2, 3, 4), (2, 2, 3, 4)])
    def test_matmul_with_bias(self, rows_shape, seed):
        # one tape record whose forward is matmul then add, bit for bit; the
        # op is linear in each operand, so the wide step of the 2-D test applies
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal(rows_shape)
        weight = rng.standard_normal((4, 5))
        bias = rng.standard_normal(5)
        with Tape() as tape:
            fused = matmul(Tensor(rows), Tensor(weight, requires_grad=True),
                           Tensor(bias, requires_grad=True))
        assert len(tape) == 1
        np.testing.assert_array_equal(
            fused.data, add(matmul(Tensor(rows), Tensor(weight)), Tensor(bias)).data)
        for f, point in [(lambda t: matmul(t, Tensor(weight), Tensor(bias)), rows),
                         (lambda t: matmul(Tensor(rows), t, Tensor(bias)), weight),
                         (lambda t: matmul(Tensor(rows), Tensor(weight), t), bias)]:
            assert grad_check(f, Tensor(point), step=1e-2) <= 1e-8

    # negative controls: the oracle must see a wrong or missing backward rule
    def test_gradient_one_percent_off_is_caught(self):
        def f(t):
            return record_op(np.sin(t.data), (t,), lambda g: (1.01 * g * np.cos(t.data),))

        # every coordinate reads 0.01 / 1.01
        assert 5e-3 <= grad_check(f, Tensor(np.linspace(-1, 1, 6))) <= 2e-2

    def test_missing_gradient_reads_one(self):
        def f(t):
            return record_op(np.sin(t.data), (t,), lambda g: (None,))

        assert grad_check(f, Tensor(np.linspace(-1, 1, 6))) == 1.0

    def test_param_check_names_the_tensor_without_gradient(self):
        a = Tensor(np.array([0.5, -1.5, 2.0]), requires_grad=True)
        b = Tensor(np.array([1.0, -0.75, 0.25]), requires_grad=True)

        def loss_fn():
            blind_b = record_op(b.data.copy(), (b,), lambda g: (None,))
            return sum_all(mul_elementwise(a, blind_b))

        errs = check_param_grads(loss_fn, {"a": a, "b": b})
        assert errs["b"] == 1.0
        assert errs["a"] <= 1e-8

    def test_embedding_table_gradient(self):
        ids = np.array([[0, 2], [2, 1]])
        err = grad_check(lambda t: embedding_lookup(t, ids), Tensor(np.random.default_rng(5).standard_normal((3, 4))))
        assert err <= 1e-6
