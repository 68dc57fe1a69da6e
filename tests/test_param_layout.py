"""Pinned parameter layout and initial values of small fused models.

Checkpoints key parameters by name, and every parameter is drawn from a
seeded stream in construction order.  These pins catch a refactor that
renames, reshapes or reorders a parameter, or that draws the aggregator
weights in another order: each such change breaks old checkpoints or the
bit-exact reproduction of earlier runs.  The digests were recorded before
the fusion formulas became ``FeedForward`` networks.
"""

import hashlib

import numpy as np
import pytest

from treeformer.model import AggregationSpec, ModelConfig, build


def tiny_model(structure: str, formula: str):
    # agg_inner_dim differs from d_model, so an FFN built with the wrong width shows
    return build(ModelConfig(num_layers=3, d_model=4, num_heads=2, d_ff=8, vocab_size=8, max_len=8,
                             agg_inner_dim=6, aggregation=AggregationSpec(structure, formula, "both")))


def ffn(prefix, in_dim):
    return [(f"{prefix}.lin1.weight", (in_dim, 6)), (f"{prefix}.lin1.bias", (6,)),
            (f"{prefix}.lin2.weight", (6, 4)), (f"{prefix}.lin2.bias", (4,))]


def ewp(prefix):
    return ([(f"{prefix}.norm.gamma", (4,)), (f"{prefix}.norm.beta", (4,))]
            + ffn(prefix, 4) + [(f"{prefix}.beta", ())])


# (structure, formula): (encoder aggregator layout, parameter count,
#                        sha256 of the whole layout, sha256 of the initial state)
PINNED = {
    ("linear", "mean"): (
        [("encoder.agg.weights", (3,))], 124,
        "0d9889172edc98dbc440a33515ef7e949e198aaa2a6330ef7e30b9c563510858",
        "beb7bf62bd03906fa9a4874b18639293865ad3c7b6f4ea1f80b2197f259ee0fe"),
    ("iterative", "mean"): (
        [], 122,
        "f694dd9feea4b6a9686c9e8003614f17883d6baa6a9761a2879ef3670cf2fdb6",
        "f740958b5799538b4da1c05341efebee8552414d7dfe9e1c09cc75e69b74b2cd"),
    ("iterative", "concat_ffn"): (
        ffn("encoder.agg.steps.0", 8) + ffn("encoder.agg.steps.1", 8), 138,
        "0707f2757e3d6fac0162a8a6bdcd6de49ac728d325772e4d165e3326bb977aa0",
        "4a9cd2deb3c93a3a4bcba6938e9e849c43d9c4ea94e0b16e316c9b37dacdffc1"),
    ("iterative", "ewp_ffn"): (
        ewp("encoder.agg.steps.0") + ewp("encoder.agg.steps.1"), 150,
        "76685f3e5bf840bdd618239f518313f0f4727f5e780ba1796add3f5d6b02b523",
        "65c56d2ba9626d2b4adc5508035d9f7d7ae9035ef8240ede557cfaa1c77df0e8"),
    ("rtal", "mean"): (
        [], 122,
        "f694dd9feea4b6a9686c9e8003614f17883d6baa6a9761a2879ef3670cf2fdb6",
        "f740958b5799538b4da1c05341efebee8552414d7dfe9e1c09cc75e69b74b2cd"),
    ("rtal", "concat_ffn"): (
        ffn("encoder.agg.nodes.0", 8), 130,
        "3e689a83c016ae5b02c626c412a6c713d75bddc5607b9a966bb4644c33d1fef9",
        "c98b28ac480aceba1892b3a9c672e4b8e6bc12def0098eb2ee849541974d95de"),
    ("rtal", "ewp_ffn"): (
        ewp("encoder.agg.nodes.0"), 136,
        "0dac72a653d6316f99663add453310ea7760c6f9fdcd85fd86f75241124e33a2",
        "f1afdff21d65ac03f0176e7b0ce19dfe385eeedf82ff28e2c1dd167bf39b49f8"),
}


@pytest.mark.parametrize("structure,formula", sorted(PINNED))
def test_parameter_layout_and_initial_state_are_pinned(structure, formula):
    agg_layout, count, layout_sha, state_sha = PINNED[(structure, formula)]
    model = tiny_model(structure, formula)
    layout = [(name, tuple(p.data.shape)) for name, p in model.named_parameters()]
    assert [entry for entry in layout if entry[0].startswith("encoder.agg")] == agg_layout
    decoder_agg = [(name.replace("decoder.", "encoder.", 1), shape)
                   for name, shape in layout if name.startswith("decoder.agg")]
    assert decoder_agg == agg_layout
    assert len(layout) == count
    text = "".join(f"{name} {list(shape)}\n" for name, shape in layout)
    assert hashlib.sha256(text.encode()).hexdigest() == layout_sha
    state = hashlib.sha256()
    for name, value in model.state_dict().items():
        state.update(name.encode())
        state.update(np.ascontiguousarray(value).tobytes())
    assert state.hexdigest() == state_sha
