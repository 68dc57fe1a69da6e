"""Aggregation formulas, the residual tree, and the baseline structures."""

from functools import reduce

import numpy as np
import pytest

from treeformer.aggregation import (
    ConcatFfnFormula,
    EwpFfnFormula,
    IterativeCombination,
    LinearCombination,
    MeanFormula,
    TreeAggregator,
    aggregator_param_count,
    build_aggregator,
    formula_param_count,
    make_formula,
)
from treeformer.tensor import (ShapeError, Tape, Tensor, concat_last_dim, matmul, mul_elementwise,
                               reshape, softmax_last_dim, sum_all)

from oracles import np_formula, ref_tree_eval


def _param_size(obj) -> int:
    return sum(p.data.size for _, p in obj.named_parameters("x"))


class TestFormulas:
    def test_mean_arithmetic(self):
        out = MeanFormula().apply(Tensor([2.0, 4.0]), Tensor([6.0, 8.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mean_idempotent_on_equal_inputs(self):
        v = Tensor(np.random.default_rng(0).standard_normal(5))
        np.testing.assert_allclose(MeanFormula().apply(v, v).data, v.data, rtol=1e-7)

    def test_mean_against_scalar_loop(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal(6), rng.standard_normal(6)
        expected = np.array([0.5 * (a[i] + b[i]) for i in range(6)])
        np.testing.assert_allclose(MeanFormula().apply(Tensor(a), Tensor(b)).data, expected, rtol=1e-7)

    def test_concat_zero_inputs_zero_biases(self):
        f = ConcatFfnFormula(3, 4, np.random.default_rng(2))
        out = f.apply(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_concat_hand_set_weights(self):
        f = ConcatFfnFormula(1, 1, np.random.default_rng(3))
        f.lin1.weight.data = np.array([[1.0], [1.0]], dtype=np.float32)
        f.lin2.weight.data = np.array([[1.0]], dtype=np.float32)
        out = f.apply(Tensor([[2.0]]), Tensor([[3.0]]))
        np.testing.assert_array_equal(out.data, [[5.0]])

    def test_concat_against_composition(self):
        rng = np.random.default_rng(4)
        f = ConcatFfnFormula(4, 6, rng, dtype=np.float64)
        a, b = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        np.testing.assert_allclose(
            f.apply(Tensor(a), Tensor(b)).data, np_formula(f, a, b), rtol=1e-10)

    def test_ewp_zero_beta_zero_biases(self):
        f = EwpFfnFormula(3, 3, 0.0, 1e-6, np.random.default_rng(5))
        f.beta.data = np.asarray(0.0, dtype=np.float32)
        out = f.apply(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_ewp_zeroed_ffn_residual_only(self):
        f = EwpFfnFormula(3, 3, 0.0, 1e-6, np.random.default_rng(6))
        f.beta.data = np.asarray(0.5, dtype=np.float32)
        f.lin2.weight.data = np.zeros_like(f.lin2.weight.data)
        v = np.array([[1.0, -2.0, 0.5]], dtype=np.float32)
        out = f.apply(Tensor(v), Tensor(v))
        np.testing.assert_allclose(out.data, v, rtol=1e-6)

    def test_ewp_against_composition(self):
        rng = np.random.default_rng(7)
        f = EwpFfnFormula(4, 4, 0.0, 1e-6, rng, dtype=np.float64)
        a, b = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
        np.testing.assert_allclose(
            f.apply(Tensor(a), Tensor(b)).data, np_formula(f, a, b), rtol=1e-9)

    def test_unknown_formula_rejected(self):
        with pytest.raises(ValueError):
            make_formula("geometric", 4, 4, 0.0, 1e-6, np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["mean", "concat_ffn", "ewp_ffn"])
    def test_param_count_formula_exact(self, kind):
        f = make_formula(kind, 6, 5, 0.0, 1e-6, np.random.default_rng(8))
        assert _param_size(f) == formula_param_count(kind, 6, 5)


class TestTree:
    def test_zero_leaves_mean_gives_zero_root(self):
        tree = TreeAggregator(4, "mean", 3, 3, 0.0, 1e-6, np.random.default_rng(0))
        leaves = [Tensor(np.zeros(3)) for _ in range(4)]
        np.testing.assert_array_equal(tree.apply(leaves).data, np.zeros(3))

    def test_two_leaves_no_residual_at_root(self):
        tree = TreeAggregator(2, "mean", 2, 2, 0.0, 1e-6, np.random.default_rng(1))
        h1, h2 = Tensor([2.0, 0.0]), Tensor([0.0, 4.0])
        np.testing.assert_allclose(tree.apply([h1, h2]).data, [1.0, 2.0], rtol=1e-7)

    def test_four_unit_leaves_hand_evaluation(self):
        tree = TreeAggregator(4, "mean", 4, 4, 0.0, 1e-6, np.random.default_rng(2))
        leaves = [Tensor(np.eye(4)[i]) for i in range(4)]
        root = tree.apply(leaves).data
        np.testing.assert_allclose(root, [0.25, 0.75, 0.25, 0.75], rtol=1e-6)

    def test_non_power_of_two_rejected(self):
        for bad in (0, 1, 3, 6):
            with pytest.raises(ShapeError, match="2\\^n"):
                TreeAggregator(bad, "mean", 4, 4, 0.0, 1e-6, np.random.default_rng(0))

    def test_wrong_input_count_rejected(self):
        tree = TreeAggregator(4, "mean", 4, 4, 0.0, 1e-6, np.random.default_rng(0))
        with pytest.raises(ShapeError):
            tree.apply([Tensor(np.zeros(4))] * 2)

    @pytest.mark.parametrize("leaves", [2, 4, 8])
    def test_structure_counts(self, leaves):
        tree = TreeAggregator(leaves, "mean", 4, 4, 0.0, 1e-6, np.random.default_rng(3))
        assert len(tree.nodes) == leaves - 1
        assert sum(not n.residual for n in tree.nodes) == 1
        assert not tree.root.residual

    @pytest.mark.parametrize("leaves", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["mean", "concat_ffn", "ewp_ffn"])
    def test_matches_reference_recursive_evaluator(self, leaves, kind):
        rng = np.random.default_rng(leaves * 31 + len(kind))
        tree = TreeAggregator(leaves, kind, 4, 4, 0.0, 1e-6, rng, dtype=np.float64)
        for _ in range(5):
            values = [rng.standard_normal((2, 4)) for _ in range(leaves)]
            out = tree.apply([Tensor(v) for v in values]).data
            np.testing.assert_allclose(out, ref_tree_eval(tree, values), rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("kind", ["mean", "concat_ffn", "ewp_ffn"])
    def test_gradient_reaches_every_leaf(self, kind):
        rng = np.random.default_rng(9)
        tree = TreeAggregator(4, kind, 4, 4, 0.0, 1e-6, rng, dtype=np.float64)
        leaves = [Tensor(rng.standard_normal((2, 4)), requires_grad=True) for _ in range(4)]
        with Tape() as tape:
            loss = sum_all(tree.apply(leaves))
        tape.backward(loss)
        for leaf in leaves:
            assert leaf.grad is not None
            assert np.abs(leaf.grad).max() > 0

    def test_output_shape_matches_one_layer_output(self):
        rng = np.random.default_rng(10)
        shape = (3, 5, 4)
        for structure in ("rtal", "cnn_tree", "linear", "iterative"):
            agg = build_aggregator(structure, "ewp_ffn", 4, 4, 4, 0.0, 1e-6, rng)
            outs = [Tensor(rng.standard_normal(shape).astype(np.float32)) for _ in range(4)]
            assert agg.apply(outs).shape == shape

    @pytest.mark.parametrize("structure", ["rtal", "cnn_tree", "linear", "iterative"])
    @pytest.mark.parametrize("kind", ["mean", "concat_ffn", "ewp_ffn"])
    def test_aggregator_param_count_closed_form(self, structure, kind):
        agg = build_aggregator(structure, kind, 8, 6, 5, 0.0, 1e-6, np.random.default_rng(11))
        assert _param_size(agg) == aggregator_param_count(structure, kind, 8, 6, 5)


class TestBaselines:
    def test_linear_combination_softmax_saturation(self):
        agg = LinearCombination(3)
        agg.weights.data = np.array([-20.0, 20.0, -20.0], dtype=np.float32)
        outs = [Tensor(np.full((2, 2), float(i))) for i in range(3)]
        np.testing.assert_allclose(agg.apply(outs).data, np.ones((2, 2)), atol=1e-6)

    def test_linear_combination_uniform_at_init(self):
        agg = LinearCombination(4)
        outs = [Tensor(np.full((1, 2), float(i))) for i in range(4)]
        np.testing.assert_allclose(agg.apply(outs).data, np.full((1, 2), 1.5), rtol=1e-6)

    def test_iterative_single_layer_unchanged(self):
        agg = IterativeCombination(1, "ewp_ffn", 4, 4, 0.0, 1e-6, np.random.default_rng(0))
        h = Tensor(np.random.default_rng(1).standard_normal((2, 4)))
        assert agg.apply([h]) is h

    def test_iterative_fold_order(self):
        # with mean formula: y2 = 0.5(h2 + h1); y3 = 0.5(h3 + y2)
        agg = IterativeCombination(3, "mean", 2, 2, 0.0, 1e-6, np.random.default_rng(2))
        h = [Tensor(np.array([4.0, 0.0])), Tensor(np.array([0.0, 4.0])), Tensor(np.array([2.0, 2.0]))]
        np.testing.assert_allclose(agg.apply(h).data, [2.0, 2.0], rtol=1e-6)

    @pytest.mark.parametrize("inputs", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["mean", "concat_ffn", "ewp_ffn"])
    def test_iterative_matches_numpy_left_fold(self, inputs, kind):
        rng = np.random.default_rng(inputs * 17 + len(kind))
        agg = IterativeCombination(inputs, kind, 4, 4, 0.0, 1e-6, rng, dtype=np.float64)
        values = [rng.standard_normal((2, 4)) for _ in range(inputs)]
        assert len(agg.nodes) == inputs - 1
        expected = values[0]
        for h, node in zip(values[1:], agg.nodes):
            expected = np_formula(node.formula, h, expected)
        out = agg.apply([Tensor(v) for v in values]).data
        np.testing.assert_allclose(out, expected, rtol=1e-8, atol=1e-10)

    def test_cnn_tree_zero_leaves(self):
        agg = build_aggregator("cnn_tree", "mean", 4, 3, 3, 0.0, 1e-6, np.random.default_rng(3))
        np.testing.assert_array_equal(
            agg.apply([Tensor(np.zeros(3)) for _ in range(4)]).data, np.zeros(3))

    def test_cnn_tree_has_no_residuals(self):
        agg = build_aggregator("cnn_tree", "mean", 8, 3, 3, 0.0, 1e-6, np.random.default_rng(4))
        assert all(not n.residual for n in agg.nodes)

    def test_cnn_tree_non_power_of_two_rejected(self):
        with pytest.raises(ShapeError, match="2\\^n"):
            build_aggregator("cnn_tree", "mean", 5, 3, 3, 0.0, 1e-6, np.random.default_rng(5))

    def test_cnn_tree_differs_from_rtal_by_residuals(self):
        rng = np.random.default_rng(6)
        values = [rng.standard_normal((1, 3)) for _ in range(4)]
        rtal = TreeAggregator(4, "mean", 3, 3, 0.0, 1e-6, np.random.default_rng(7), residuals=True)
        plain = TreeAggregator(4, "mean", 3, 3, 0.0, 1e-6, np.random.default_rng(7), residuals=False)
        a = rtal.apply([Tensor(v) for v in values]).data
        b = plain.apply([Tensor(v) for v in values]).data
        assert not np.allclose(a, b)


def _linear_chain(agg, layer_outputs):
    """The taped chain a linear combination used to be: each output reshaped to a column,
    the columns concatenated, and a (..., d, L) @ (L, 1) product with the softmaxed weights."""
    shape = layer_outputs[0].shape
    stacked = reduce(concat_last_dim, [reshape(h, shape + (1,)) for h in layer_outputs])
    coeffs = reshape(softmax_last_dim(agg.weights), (agg.num_inputs, 1))
    return reshape(matmul(stacked, coeffs), shape)


class TestLinearCombinationOp:
    """LinearCombination.apply, one taped op, against the chain it replaces."""

    @pytest.mark.parametrize("lead", [(7,), (2, 3)], ids=["packed_rows", "batched"])
    @pytest.mark.parametrize("inputs", [1, 2, 4])
    def test_float32_output_and_gradients_equal_the_chain_bit_for_bit(self, inputs, lead):
        rng = np.random.default_rng(70 + inputs)
        agg = LinearCombination(inputs)
        agg.weights.data = rng.standard_normal(inputs).astype(np.float32)
        outs = [Tensor(rng.standard_normal(lead + (6,)).astype(np.float32), requires_grad=True)
                for _ in range(inputs)]
        results = []
        for op in (agg.apply, lambda hs: _linear_chain(agg, hs)):
            for t in [agg.weights] + outs:
                t.grad = None
            with Tape() as tape:
                out = op(outs)
                w = np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype)
                loss = sum_all(mul_elementwise(out, Tensor(w)))
            tape.backward(loss)
            results.append((len(tape), [out.data, agg.weights.grad] + [h.grad for h in outs]))
        (fused_records, fused), (chain_records, chain) = results
        assert fused_records == 3 and chain_records == 2 + 3 + 2 * inputs
        names = ["out", "weights"] + [f"h{i}" for i in range(inputs)]
        for name, a, b in zip(names, fused, chain):
            assert a.dtype == b.dtype == np.float32 and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_inputs_of_different_shapes_raise(self):
        with pytest.raises(ShapeError):
            LinearCombination(2).apply([Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4)))])
