"""Cross-layer fusion: pairwise formulas, the residual tree, and baselines.

Every pairwise structure is a binary fusion graph over the ordered layer
outputs, run by one engine (``TreeAggregator``) from a post-order plan of
nodes.  Each node fuses two slots with its own independently parameterized
formula and may add its right operand back as a residual.

- ``rtal``: a complete binary tree over 2^n layers (n >= 1); every node
  except the root adds its right child -- the one covering deeper layers --
  back as a residual.
- ``cnn_tree``: the same tree with every residual removed.
- ``iterative``: the left-deep fold y_l = AGG(h_l, y_{l-1}), no residuals.

The remaining baseline, ``linear``, is a softmax-weighted sum of all layers.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

import numpy as np

from .nn import FeedForward, LayerNorm, Module, NamedParams
from .tensor import ShapeError, Tensor, add, concat_last_dim, mul_elementwise, record_op, scale

FORMULAS = ("mean", "concat_ffn", "ewp_ffn")
STRUCTURES = ("none", "linear", "iterative", "cnn_tree", "rtal")
# Structures built on the complete binary tree, mapped to whether their
# nodes carry residuals; they fuse a span of 2^n layers.
TREES = {"cnn_tree": False, "rtal": True}


def tree_span(num_layers: int) -> int:
    """Layers covered by a tree aggregator: the largest 2^n <= num_layers."""
    return 1 << int(math.floor(math.log2(num_layers)))


def input_span(structure: str, num_layers: int) -> int:
    """Trailing layer outputs fused by ``structure`` in a stack of ``num_layers``."""
    if structure == "none":
        return 0
    return tree_span(num_layers) if structure in TREES else num_layers


class MeanFormula(Module):
    """Parameter-free elementwise average of the two inputs."""

    def apply(self, a: Tensor, b: Tensor, rng=None) -> Tensor:
        return scale(add(a, b), 0.5)


class ConcatFfnFormula(FeedForward):
    """Concatenate to 2d, then a single-hidden-layer network back to d."""

    def __init__(self, d_model: int, inner_dim: int, rng: np.random.Generator, dtype=np.float32):
        super().__init__(d_model, inner_dim, rng, dtype, in_dim=2 * d_model)

    def apply(self, a: Tensor, b: Tensor, rng=None) -> Tensor:
        return self(concat_last_dim(a, b))


class EwpFfnFormula(FeedForward):
    """Scale the elementwise sum by a trainable beta, then LN -> FFN -> residual.

    s = beta * (a + b); output = dropout(FFN(LN(s))) + s.
    """

    def __init__(self, d_model, inner_dim, dropout_rate, ln_eps, rng, dtype=np.float32):
        self.norm = LayerNorm(d_model, ln_eps, dtype)
        super().__init__(d_model, inner_dim, rng, dtype)
        self.beta = Tensor(np.asarray(1.0, dtype=dtype), requires_grad=True)
        self.dropout_rate = dropout_rate

    def apply(self, a: Tensor, b: Tensor, rng=None) -> Tensor:
        return self(mul_elementwise(add(a, b), self.beta), self.norm, self.dropout_rate, rng)


def make_formula(kind, d_model, inner_dim, dropout_rate, ln_eps, rng, dtype=np.float32):
    if kind == "mean":
        return MeanFormula()
    if kind == "concat_ffn":
        return ConcatFfnFormula(d_model, inner_dim, rng, dtype)
    if kind == "ewp_ffn":
        return EwpFfnFormula(d_model, inner_dim, dropout_rate, ln_eps, rng, dtype)
    raise ValueError(f"unknown aggregation formula {kind!r}, expected one of {FORMULAS}")


def formula_param_count(kind: str, d_model: int, inner_dim: int) -> int:
    """Trainable scalars added by one formula instance (one tree node)."""
    if kind == "mean":
        return 0
    if kind == "concat_ffn":
        return (2 * d_model * inner_dim + inner_dim) + (inner_dim * d_model + d_model)
    if kind == "ewp_ffn":
        return (d_model * inner_dim + inner_dim) + (inner_dim * d_model + d_model) + 2 * d_model + 1
    raise ValueError(f"unknown aggregation formula {kind!r}")


class FusionNode(NamedTuple):
    left: int        # slot of the left operand
    right: int       # slot of the right operand, added back when ``residual``
    formula: object
    residual: bool


def balanced_pairs(num_inputs: int) -> List[Tuple[int, int]]:
    """Post-order (left, right) slots of a complete binary tree over 2^n inputs."""
    if num_inputs < 2 or num_inputs & (num_inputs - 1):
        raise ShapeError(
            f"tree aggregation requires 2^n inputs with n >= 1, got {num_inputs}"
        )
    pairs: List[Tuple[int, int]] = []

    def build(lo: int, hi: int) -> int:
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        pairs.append((build(lo, mid), build(mid, hi)))
        return num_inputs + len(pairs) - 1

    build(0, num_inputs)
    return pairs


class TreeAggregator(Module):
    """Binary fusion graph over ordered inputs, evaluated from a post-order plan.

    Inputs fill slots 0..n-1 and node i writes slot n+i; the last slot is
    the output.  The default plan is the complete tree over 2^n inputs.
    With ``residuals=True`` every node except the root adds its right
    operand back after fusing; ``residuals=False`` gives the plain tree used
    as the no-residual baseline.
    """

    param_group = "nodes"

    def __init__(self, num_inputs, formula_kind, d_model, inner_dim, dropout_rate,
                 ln_eps, rng, dtype=np.float32, residuals=True):
        self._plant(num_inputs, balanced_pairs(num_inputs), residuals,
                    (formula_kind, d_model, inner_dim, dropout_rate, ln_eps, rng, dtype))

    def _plant(self, num_inputs, pairs, residuals, formula_args) -> None:
        # formulas are drawn in post-order, one per node; the root never
        # carries a residual
        self.num_inputs = num_inputs
        root = len(pairs) - 1
        self.nodes = [FusionNode(left, right, make_formula(*formula_args), residuals and i != root)
                      for i, (left, right) in enumerate(pairs)]

    @property
    def root(self) -> FusionNode:
        return self.nodes[-1]

    def apply(self, layer_outputs: List[Tensor], rng=None) -> Tensor:
        if len(layer_outputs) != self.num_inputs:
            raise ShapeError(
                f"{type(self).__name__} built for {self.num_inputs} inputs, got {len(layer_outputs)}"
            )
        slots = list(layer_outputs)
        for node in self.nodes:
            right = slots[node.right]
            value = node.formula.apply(slots[node.left], right, rng)
            slots.append(add(value, right) if node.residual else value)
        return slots[-1]

    def named_parameters(self, prefix: str) -> NamedParams:
        for i, node in enumerate(self.nodes):
            yield from node.formula.named_parameters(f"{prefix}.{self.param_group}.{i}")


def softmax_weighted_sum(layer_outputs: List[Tensor], weights: Tensor) -> Tensor:
    """sum_l softmax(weights)_l * h_l as one taped op, with the arithmetic of the chain it replaced
    (the h_l stacked on a new last axis, times the softmax column in one GEMM), so the output and
    every gradient are that chain's bit for bit."""
    shape, num = layer_outputs[0].data.shape, len(layer_outputs)
    if any(h.data.shape != shape for h in layer_outputs):
        raise ShapeError(f"linear combination inputs differ in shape: {[h.shape for h in layer_outputs]}")
    rows = np.stack([h.data for h in layer_outputs], axis=-1).reshape(-1, num)
    e = np.exp(weights.data - weights.data.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    col = p.reshape(num, 1)

    def rule(g):
        g2 = g.reshape(-1, 1)
        gh, gp = g2 @ col.T, (rows.T @ g2).reshape(num)
        gw = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        # each layer's gradient stays a strided column of gh, the layout the chain's concat gave
        return (gw, *(gh[:, i].reshape(shape) for i in range(num)))

    return record_op((rows @ col).reshape(shape), (weights, *layer_outputs), rule)


class LinearCombination(Module):
    """Softmax-normalized scalar weight per layer; weights start at zero."""

    def __init__(self, num_inputs: int, rng=None, dtype=np.float32):
        if num_inputs < 1:
            raise ShapeError("linear combination needs at least one input")
        self.num_inputs = num_inputs
        self.weights = Tensor(np.zeros(num_inputs, dtype=dtype), requires_grad=True)

    def apply(self, layer_outputs: List[Tensor], rng=None) -> Tensor:
        if len(layer_outputs) != self.num_inputs:
            raise ShapeError(
                f"linear combination built for {self.num_inputs} inputs, got {len(layer_outputs)}"
            )
        return softmax_weighted_sum(layer_outputs, self.weights)


class IterativeCombination(TreeAggregator):
    """Left fold y_l = AGG(h_l, y_{l-1}): the left-deep plan with no residuals."""

    param_group = "steps"

    def __init__(self, num_inputs, formula_kind, d_model, inner_dim, dropout_rate,
                 ln_eps, rng, dtype=np.float32):
        if num_inputs < 1:
            raise ShapeError("iterative combination needs at least one input")
        # step i fuses input i+1 with the previous step's slot (input 0 first)
        pairs = [(i + 1, num_inputs + i - 1 if i else 0) for i in range(num_inputs - 1)]
        self._plant(num_inputs, pairs, False,
                    (formula_kind, d_model, inner_dim, dropout_rate, ln_eps, rng, dtype))

    # Bound in this class body too, so per-class method wrappers (the span
    # tracer patches ``cls.__dict__["apply"]``) see it exactly once per class.
    apply = TreeAggregator.apply


def build_aggregator(structure, formula_kind, num_inputs, d_model, inner_dim,
                     dropout_rate, ln_eps, rng, dtype=np.float32):
    """Instantiate the aggregator for one stack, or None for structure 'none'."""
    if structure == "none":
        return None
    if structure == "linear":
        return LinearCombination(num_inputs, rng, dtype)
    if structure == "iterative":
        return IterativeCombination(num_inputs, formula_kind, d_model, inner_dim,
                                    dropout_rate, ln_eps, rng, dtype)
    if structure in TREES:
        return TreeAggregator(num_inputs, formula_kind, d_model, inner_dim,
                              dropout_rate, ln_eps, rng, dtype, residuals=TREES[structure])
    raise ValueError(f"unknown aggregation structure {structure!r}, expected one of {STRUCTURES}")


def aggregator_param_count(structure, formula_kind, num_inputs, d_model, inner_dim) -> int:
    """Closed-form trainable-scalar count for one stack's aggregator."""
    if structure == "none":
        return 0
    if structure == "linear":
        return num_inputs
    if structure == "iterative" or structure in TREES:
        return (num_inputs - 1) * formula_param_count(formula_kind, d_model, inner_dim)
    raise ValueError(f"unknown aggregation structure {structure!r}")
