"""Finite-difference gradient suite over blocks, formulas, and full paths.

Everything runs in double precision with dropout disabled; central
differences are compared against tape gradients coordinate by coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from . import aggregation
from .model import AggregationSpec, ModelConfig, build
from .nn import FeedForward, LayerNorm, MultiHeadAttention, label_smoothed_ce
from .tasks import make_batch
from .tensor import Tensor, check_param_grads, grad_check, projected, softmax_last_dim


@dataclass
class SuiteResult:
    name: str
    max_err: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.threshold


def _case_block(name, forward, params, x0, step, threshold, results):
    err_x = grad_check(forward, Tensor(x0), step)
    errs = check_param_grads(lambda: projected(forward(Tensor(x0)), 7), params, step)
    worst = max([err_x] + list(errs.values()))
    results.append(SuiteResult(name, worst, threshold))


def gradient_suite(step: float = 1e-5, threshold: float = 1e-5) -> List[SuiteResult]:
    rng = np.random.default_rng(11)
    results: List[SuiteResult] = []

    results.append(SuiteResult(
        "softmax", grad_check(softmax_last_dim, Tensor(rng.standard_normal((3, 5))), step), threshold))
    mask = np.array([[True, True, False, True, False]] * 3)
    results.append(SuiteResult(
        "softmax_masked",
        grad_check(lambda t: softmax_last_dim(t, mask), Tensor(rng.standard_normal((3, 5))), step),
        threshold))

    ln = LayerNorm(6, dtype=np.float64)
    ln.gamma.data = rng.standard_normal(6)
    ln.beta.data = rng.standard_normal(6)
    _case_block("layer_norm", ln, {"gamma": ln.gamma, "beta": ln.beta},
                rng.standard_normal((2, 6)), step, threshold, results)

    ffn = FeedForward(6, 12, rng, dtype=np.float64)
    # keep coordinates away from the relu kink
    _case_block("position_ffn", ffn, dict(ffn.named_parameters("ffn")),
                rng.standard_normal((2, 6)) + 3.0, step, threshold, results)

    mha = MultiHeadAttention(8, 2, rng, dtype=np.float64)
    attn_mask = np.array([[True, True, True], [True, True, False], [True, False, False]])
    _case_block("multi_head_attention", lambda t: mha(t, t, attn_mask),
                dict(mha.named_parameters("mha")), rng.standard_normal((1, 3, 8)),
                step, threshold, results)

    mean_other = Tensor(rng.standard_normal((2, 6)))
    results.append(SuiteResult(
        "agg_mean",
        grad_check(lambda t: aggregation.MeanFormula().apply(t, mean_other),
                   Tensor(rng.standard_normal((2, 6))), step),
        threshold))
    concat = aggregation.ConcatFfnFormula(6, 6, rng, dtype=np.float64)
    other = Tensor(rng.standard_normal((2, 6)))
    _case_block("agg_concat_ffn", lambda t: concat.apply(t, other),
                dict(concat.named_parameters("concat")), rng.standard_normal((2, 6)) + 2.0,
                step, threshold, results)
    ewp = aggregation.EwpFfnFormula(6, 6, 0.0, 1e-6, rng, dtype=np.float64)
    _case_block("agg_ewp_ffn", lambda t: ewp.apply(t, other),
                dict(ewp.named_parameters("ewp")), rng.standard_normal((2, 6)) + 2.0,
                step, threshold, results)

    tree = aggregation.TreeAggregator(4, "ewp_ffn", 4, 4, 0.0, 1e-6, rng, dtype=np.float64)
    leaves = [Tensor(rng.standard_normal((1, 2, 4)), requires_grad=True) for _ in range(4)]
    tree_params = dict(tree.named_parameters("tree"))
    tree_params.update({f"leaf.{i}": leaf for i, leaf in enumerate(leaves)})
    errs = check_param_grads(lambda: projected(tree.apply(leaves), 7), tree_params, step)
    results.append(SuiteResult("rtal_tree_4_leaves", max(errs.values()), threshold))

    results.append(_full_path_case(step, threshold))

    # its own generator, so the draws of the cases above do not move
    linear_rng = np.random.default_rng(12)
    linear = aggregation.LinearCombination(3, dtype=np.float64)
    linear.weights.data = linear_rng.standard_normal(3)
    layers = {f"layer.{i}": Tensor(linear_rng.standard_normal((2, 3, 4)), requires_grad=True) for i in range(3)}
    errs = check_param_grads(lambda: projected(linear.apply(list(layers.values())), 7),
                             {"weights": linear.weights, **layers}, step)
    results.append(SuiteResult("agg_linear", max(errs.values()), threshold))
    return results


def _full_path_case(step: float, threshold: float) -> SuiteResult:
    # seed chosen so every relu pre-activation sits far from its kink
    # relative to the finite-difference step
    config = ModelConfig(
        num_layers=2, d_model=8, num_heads=2, d_ff=16, vocab_size=9, max_len=16,
        dropout=0.0,
        aggregation=AggregationSpec(structure="rtal", formula="ewp_ffn", position="both"),
        seed=6,
    )
    model = build(config, dtype=np.float64)
    batch = make_batch([((3, 4, 5), (3, 4, 5)), ((6, 7), (6, 7))])

    def loss_fn():
        logits = model.forward_train(batch)
        return label_smoothed_ce(logits, batch.tgt_out, 0.1, batch.pad_id)

    errs = check_param_grads(loss_fn, model.parameters(), step)
    return SuiteResult("encoder_decoder_to_loss", max(errs.values()), threshold)
