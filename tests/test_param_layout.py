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


def tiny_model(structure: str, formula: str, position: str = "both", num_layers: int = 3):
    # agg_inner_dim differs from d_model, so an FFN built with the wrong width shows
    return build(ModelConfig(num_layers=num_layers, d_model=4, num_heads=2, d_ff=8, vocab_size=8,
                             max_len=8, agg_inner_dim=6,
                             aggregation=AggregationSpec(structure, formula, position)))


def layout_and_state_sha(model):
    """The (name, shape) layout, and the sha256 of the layout text and of the initial state."""
    layout = [(name, tuple(p.data.shape)) for name, p in model.named_parameters()]
    text = "".join(f"{name} {list(shape)}\n" for name, shape in layout)
    state = hashlib.sha256()
    for name, value in model.state_dict().items():
        state.update(name.encode())
        state.update(np.ascontiguousarray(value).tobytes())
    return layout, hashlib.sha256(text.encode()).hexdigest(), state.hexdigest()


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
    layout, layout_digest, state_digest = layout_and_state_sha(tiny_model(structure, formula))
    assert [entry for entry in layout if entry[0].startswith("encoder.agg")] == agg_layout
    decoder_agg = [(name.replace("decoder.", "encoder.", 1), shape)
                   for name, shape in layout if name.startswith("decoder.agg")]
    assert decoder_agg == agg_layout
    assert len(layout) == count
    assert layout_digest == layout_sha
    assert state_digest == state_sha


# Layouts the table above leaves out: a tree without residuals over more than
# one node, and an aggregator on one stack only, where the other stack's
# names must not shift.  Recorded before the layers named their parameters
# through ``nn.Module``.
# (structure, formula, position, num_layers): (every aggregator layout, parameter count,
#                                               sha256 of the whole layout, sha256 of the initial state)
PINNED_MORE = {
    ("cnn_tree", "ewp_ffn", "both", 4): (
        [entry for stack in ("encoder", "decoder") for i in range(3)
         for entry in ewp(f"{stack}.agg.nodes.{i}")], 203,
        "f82402a4c724bd6a2c0fd856c9580177db117a66c5b16ba8c704835726336fd6",
        "a33f77156e1f8c3ad3cd798c21ab6f8a88625a9a41343f7c3972918b538742b7"),
    ("rtal", "ewp_ffn", "encoder", 3): (
        ewp("encoder.agg.nodes.0"), 129,
        "98d1a0ed5f60855312f99b7b71e5b37229099340154050898c826978b2200568",
        "4ff3802d991f73210e9b8d6958bbb0056af2199aa790f6be3b8227ac2e0f92e0"),
    ("rtal", "ewp_ffn", "decoder", 3): (
        ewp("decoder.agg.nodes.0"), 129,
        "f41a78c11db3ac57d273e2e8d3cbfd4724c9fc5ce3e7b5d2f8aa841dc1745ca2",
        "c4f767e4e9ab65b511dbb1aa6d132bcaf6d4cba21148a2cee3005dca33c89c15"),
}


@pytest.mark.parametrize("key", sorted(PINNED_MORE), ids=lambda key: "-".join(map(str, key)))
def test_more_layouts_and_initial_states_are_pinned(key):
    agg_layout, count, layout_sha, state_sha = PINNED_MORE[key]
    layout, layout_digest, state_digest = layout_and_state_sha(tiny_model(*key))
    assert [entry for entry in layout if ".agg." in entry[0]] == agg_layout
    assert (len(layout), layout_digest, state_digest) == (count, layout_sha, state_sha)
