"""Attention, FFN, embeddings, dropout, and the smoothed loss."""

import math

import numpy as np
import pytest

from treeformer.diagnostics import check_param_grads
from treeformer.model import AggregationSpec, ModelConfig, build
from treeformer.nn import (
    AttentionMask,
    EncoderLayer,
    DecoderLayer,
    FeedForward,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    Packing,
    dropout,
    dropout_mask,
    ffn_sublayer,
    label_smoothed_ce,
    scaled_dot_attention,
    sinusoidal_positions,
    tied_logits,
)
from treeformer.tasks import make_batch
from treeformer.tensor import (MaskError, ShapeError, Tape, Tensor, add, grad_check, matmul,
                               mul_elementwise, sum_all, swap_axes)

from oracles import scalar_attention, transposing_attention


def _zeros_like(x: Tensor) -> Tensor:   # a residual that leaves a sublayer's output as it is
    return Tensor(np.zeros_like(x.data))


def _identity(linear: Linear) -> None:
    linear.weight.data = np.eye(*linear.weight.data.shape, dtype=linear.weight.data.dtype)
    if linear.bias is not None:
        linear.bias.data = np.zeros_like(linear.bias.data)


class TestScaledDotAttention:
    def test_single_key_passthrough(self):
        q = Tensor([[1.0, 0.0]])
        out = scaled_dot_attention(q, q, q)
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-7)

    def test_equal_scores_average_values(self):
        q = Tensor([[1.0, 1.0]])
        k = Tensor([[1.0, 0.0], [0.0, 1.0]])   # both keys score identically
        v = Tensor([[2.0, 0.0], [0.0, 4.0]])
        out = scaled_dot_attention(q, k, v)
        np.testing.assert_allclose(out.data, [[1.0, 2.0]], atol=1e-6)

    def test_against_scalar_loop(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((2, 3))
        k = rng.standard_normal((4, 3))
        v = rng.standard_normal((4, 3))
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v)).data
        np.testing.assert_allclose(out, scalar_attention(q, k, v), rtol=1e-5, atol=1e-6)

    def test_output_in_convex_hull_of_values(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            q = rng.standard_normal((1, 3, 4))
            k = rng.standard_normal((1, 5, 4))
            v = rng.standard_normal((1, 5, 4))
            mask = rng.random((1, 3, 5)) > 0.3
            mask[..., 0] = True
            out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask).data
            assert (out <= v.max(axis=-2, keepdims=True) + 1e-6).all()
            assert (out >= v.min(axis=-2, keepdims=True) - 1e-6).all()


def _pad_mask(batch, tk):
    visible = np.ones((batch, 1, 1, tk), dtype=bool)
    visible[0, ..., tk - 2:] = False   # first row pads its last two keys
    return visible


def _causal_pad_mask(batch, t):
    return np.tril(np.ones((t, t), dtype=bool))[None, None] & _pad_mask(batch, t)


class TestFusedMultiHeadAttention:
    """scaled_dot_attention with num_heads > 1: heads split and merged inside one op."""

    @pytest.mark.parametrize("operand", [0, 1, 2])
    @pytest.mark.parametrize("case", ["cross_pad", "self_causal"])
    def test_grad_check_each_operand(self, case, operand):
        rng = np.random.default_rng(20 + operand)
        batch, tq, d = 2, 3, 6
        tk, mask = (5, _pad_mask(batch, 5)) if case == "cross_pad" else (tq, _causal_pad_mask(batch, tq))
        operands = [rng.standard_normal((batch, tq, d)), rng.standard_normal((batch, tk, d)),
                    rng.standard_normal((batch, tk, d))]

        def f(t):
            args = [Tensor(x) for x in operands]
            args[operand] = t
            return scaled_dot_attention(*args, mask=mask, num_heads=2)

        assert grad_check(f, Tensor(operands[operand])) <= 1e-5

    def test_heads_against_scalar_oracle_with_pad_mask(self):
        rng = np.random.default_rng(23)
        batch, tq, tk, heads, dh = 2, 3, 5, 2, 3
        q = rng.standard_normal((batch, tq, heads * dh))
        k = rng.standard_normal((batch, tk, heads * dh))
        v = rng.standard_normal((batch, tk, heads * dh))
        mask = _pad_mask(batch, tk)
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask, num_heads=heads).data
        np.testing.assert_allclose(out, _scalar_oracle(q, k, v, mask, heads), rtol=1e-10, atol=1e-12)

    def test_fully_masked_row_raises(self):
        x = Tensor(np.ones((2, 3, 4)))
        mask = np.ones((2, 1, 1, 3), dtype=bool)
        mask[1] = False
        with pytest.raises(MaskError):
            scaled_dot_attention(x, x, x, mask, num_heads=2)

    def test_heads_must_divide_model_dim(self):
        x = Tensor(np.ones((1, 3, 4)))
        with pytest.raises(ShapeError):
            scaled_dot_attention(x, x, x, num_heads=3)


def _layout_case(case):
    """(q, k, v), mask, heads and the keys a float64 reference should use."""
    rng = np.random.default_rng(40)
    heads, dh = 2, 3
    d = heads * dh
    if case == "rank2":            # no batch axis; a 2-D (Tq, Tk) mask
        q, k, v = (rng.standard_normal((t, d)) for t in (3, 5, 5))
        mask = rng.random((3, 5)) > 0.4
        mask[:, 0] = True
    elif case == "low_rank_mask":  # a (Tq, Tk) mask against (B, heads, Tq, Tk) scores
        q, k, v = (rng.standard_normal((2, t, d)) for t in (3, 4, 4))
        mask = np.tril(np.ones((3, 4), dtype=bool))
    elif case == "broadcast_kv":   # K, V and mask as forward_step passes them: read-only stride-0 views
        q = rng.standard_normal((3, 2, d))
        k, v = (np.broadcast_to(rng.standard_normal((1, 4, d)), (3, 4, d)) for _ in range(2))
        mask = np.broadcast_to(np.array([[True, True, True, False]]), (3, 4))[:, None, None, :]
    else:                          # scores about 1e4: a shared key part c, constant along each row
        q, k, v = (rng.standard_normal((2, t, d)) for t in (3, 4, 4))
        c = np.zeros(d)
        c[::dh] = math.sqrt(1e4 * math.sqrt(dh))
        q[..., ::dh] += c[::dh]
        mask = _pad_mask(2, 4)
        return (q, k + c, v), mask, heads, k   # softmax cancels q.c, so k stands in for k + c
    return (q, k, v), mask, heads, k


def _scalar_oracle(q, k, v, mask, heads):
    """Each (batch, head, query row) through scalar_attention over its visible keys."""
    dh = q.shape[-1] // heads
    mask = np.broadcast_to(mask, q.shape[:-2] + (heads, q.shape[-2], k.shape[-2]))
    out = np.zeros(q.shape)
    for lead in np.ndindex(q.shape[:-2]):
        for h in range(heads):
            sl = slice(h * dh, (h + 1) * dh)
            for i in range(q.shape[-2]):
                keys = mask[lead + (h, i)]
                out[lead + (i, sl)] = scalar_attention(q[lead + (slice(i, i + 1), sl)],
                                                       k[lead][keys, sl], v[lead][keys, sl])[0]
    return out


LAYOUTS = ["rank2", "low_rank_mask", "broadcast_kv", "large_scores"]


class TestAttentionLayouts:
    """Operand layouts the key-major softmax must handle: ranks, masks, views, dtypes, magnitudes."""

    @pytest.mark.parametrize("case", LAYOUTS)
    def test_against_scalar_oracle(self, case):
        (q, k, v), mask, heads, k_ref = _layout_case(case)
        out = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask, num_heads=heads).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, _scalar_oracle(q, k_ref, v, mask, heads), rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("operand", [0, 1, 2])
    @pytest.mark.parametrize("case", LAYOUTS)
    def test_grad_check_each_operand(self, case, operand):
        operands, mask, heads, _ = _layout_case(case)

        def f(t):
            args = [Tensor(x) for x in operands]
            args[operand] = t
            return scaled_dot_attention(*args, mask=mask, num_heads=heads)

        assert grad_check(f, Tensor(operands[operand])) <= 1e-5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["rank2", "low_rank_mask", "broadcast_kv"])
    def test_dtype_is_kept(self, case, dtype):
        (q, k, v), mask, heads, _ = _layout_case(case)
        operands = [Tensor(x.astype(dtype), requires_grad=True) for x in (q, k, v)]
        with Tape() as tape:
            out = scaled_dot_attention(*operands, mask=mask, num_heads=heads)
            loss = sum_all(out)
        tape.backward(loss)
        assert out.dtype == dtype and all(t.grad.dtype == dtype for t in operands)
        np.testing.assert_allclose(out.data, _scalar_oracle(q, k, v, mask, heads), rtol=1e-6, atol=1e-6)


class TestPacking:
    def test_identity_packing_leaves_arrays_alone(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        full = Packing.of(np.ones((2, 3), dtype=bool))
        assert full.rows is None
        assert full.gather(x) is x and full.scatter(x) is x
        t = Tensor(x)
        assert full.unpack(t) is t
        np.testing.assert_array_equal(full.positions, [0, 1, 2])

    def test_gather_scatter_round_trip(self):
        kept = np.array([[True, True, False], [True, False, False]])
        pack = Packing.of(kept)
        x = np.arange(24.0).reshape(2, 3, 4)
        rows = pack.gather(x)
        np.testing.assert_array_equal(rows, x[kept])
        np.testing.assert_array_equal(pack.positions, [0, 1, 0])
        np.testing.assert_array_equal(pack.scatter(rows), np.where(kept[..., None], x, 0.0))


def _packed_case(case, seed):
    """Operands with rows dropped on the query and key sides, hidden keys masked."""
    rng = np.random.default_rng(seed)
    batch, tq, d = 2, 4, 6
    q_kept = np.array([[True, True, True, False], [True, True, False, False]])
    if case == "cross":
        tk = 5
        kv_kept = np.array([[True, True, False, False, False], [True, True, True, True, False]])
        mask = kv_kept[:, None, None, :]
    else:   # decoder self-attention: one packing, causal mask over visible keys
        tk, kv_kept = tq, q_kept
        mask = np.tril(np.ones((tq, tq), dtype=bool))[None, None] & kv_kept[:, None, None, :]
    padded = [rng.standard_normal((batch, tq, d)), rng.standard_normal((batch, tk, d)),
              rng.standard_normal((batch, tk, d))]
    return padded, mask, (Packing.of(q_kept), Packing.of(kv_kept))


class TestPackedAttention:
    """scaled_dot_attention on packed rows: padding exists only inside the op."""

    @pytest.mark.parametrize("case", ["cross", "self_causal"])
    def test_forward_equals_padded_op_at_kept_rows(self, case):
        (q, k, v), mask, (qp, kvp) = _packed_case(case, 30)
        padded = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask, num_heads=2).data
        packed = scaled_dot_attention(Tensor(qp.gather(q)), Tensor(kvp.gather(k)),
                                      Tensor(kvp.gather(v)), mask, 2, (qp, kvp)).data
        assert packed.shape == (len(qp.rows), 6)
        np.testing.assert_allclose(packed, qp.gather(padded), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("operand", [0, 1, 2])
    @pytest.mark.parametrize("case", ["cross", "self_causal"])
    def test_grad_check_each_operand(self, case, operand):
        padded, mask, packs = _packed_case(case, 31 + operand)
        rows = [packs[0].gather(padded[0])] + [packs[1].gather(x) for x in padded[1:]]

        def f(t):
            args = [Tensor(x) for x in rows]
            args[operand] = t
            return scaled_dot_attention(*args, mask=mask, num_heads=2, packs=packs)

        assert grad_check(f, Tensor(rows[operand])) <= 1e-5

    def test_kept_row_without_visible_key_raises(self):
        (q, k, v), mask, (qp, kvp) = _packed_case("cross", 34)
        mask = mask.copy()
        mask[1] = False
        with pytest.raises(MaskError):
            scaled_dot_attention(Tensor(qp.gather(q)), Tensor(kvp.gather(k)), Tensor(kvp.gather(v)),
                                 mask, 2, (qp, kvp))


def _attention_case(mask_kind, dtype, seed):
    """(B, T, d) q, k and v with d = 12 (1 to 4 heads divide it), a pad or causal+pad mask, and
    the packings that drop the query and key slots no row needs."""
    rng = np.random.default_rng(seed)
    q_kept = np.array([[True, True, True, False], [True, True, False, False]])
    if mask_kind == "pad":
        kv_kept = np.array([[True, True, False, False, False], [True, True, True, True, False]])
        mask = kv_kept[:, None, None, :]
    else:
        kv_kept = q_kept
        mask = np.tril(np.ones((4, 4), dtype=bool))[None, None] & kv_kept[:, None, None, :]
    operands = [rng.standard_normal((2, t, 12)).astype(dtype) for t in (4, kv_kept.shape[1], kv_kept.shape[1])]
    return operands, mask, (Packing.of(q_kept), Packing.of(kv_kept))


def _attention_output_and_grads(operands, mask, heads, packs):
    qp, kvp = packs or (None, None)
    rows = operands if packs is None else [qp.gather(operands[0])] + [kvp.gather(x) for x in operands[1:]]
    inputs = [Tensor(x, requires_grad=True) for x in rows]
    with Tape() as tape:
        out = scaled_dot_attention(*inputs, mask, heads, packs)
        w = np.random.default_rng(3).standard_normal(out.shape).astype(out.dtype)
        loss = sum_all(mul_elementwise(out, Tensor(w)))
    tape.backward(loss)
    return [out.data] + [t.grad for t in inputs]


class TestAttentionMask:
    """A visibility mask checked and laid out once, then passed to every attention op."""

    def test_fully_masked_row_raises_when_built(self):
        mask = np.ones((2, 1, 3, 4), dtype=bool)
        mask[1, 0, 2, 1:] = False
        AttentionMask.of(mask)   # one visible key is enough
        mask[1, 0, 2, 0] = False
        with pytest.raises(MaskError):
            AttentionMask.of(mask)

    def test_key_major_additive_layout(self):
        mask = np.tril(np.ones((3, 3), dtype=bool))[None, None] & np.array([True, True, False])
        bias = AttentionMask.of(mask, np.float64).bias
        assert bias.shape == (3, 1, 1, 3) and bias.dtype == np.float64
        np.testing.assert_array_equal(bias, np.where(np.moveaxis(mask, -1, 0), -0.0, -np.inf))
        assert np.signbit(bias).all()   # -0.0 where visible: adding it leaves every score's bits

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    @pytest.mark.parametrize("mask_kind", ["pad", "causal"])
    @pytest.mark.parametrize("packed", [False, True], ids=["unpacked", "packed"])
    def test_prebuilt_equals_boolean_mask_bit_for_bit(self, packed, mask_kind, heads, dtype):
        operands, mask, packs = _attention_case(mask_kind, dtype, seed=heads)
        packs = packs if packed else None
        # built in float32 as the float32 model builds it, also against float64 scores
        prebuilt = AttentionMask.of(mask)
        for with_bool, with_prebuilt in zip(_attention_output_and_grads(operands, mask, heads, packs),
                                            _attention_output_and_grads(operands, prebuilt, heads, packs)):
            assert with_bool.dtype == with_prebuilt.dtype == dtype
            assert with_bool.tobytes() == with_prebuilt.tobytes()


class TestMultiHeadAttention:
    def test_single_head_identity_equals_scaled_dot(self):
        rng = np.random.default_rng(2)
        mha = MultiHeadAttention(4, 1, rng)
        for proj in (mha.q_proj, mha.k_proj, mha.v_proj, mha.out_proj):
            _identity(proj)
        x = Tensor(rng.standard_normal((1, 3, 4)).astype(np.float32))
        direct = scaled_dot_attention(x, x, x)
        np.testing.assert_allclose(mha(_zeros_like(x), x).data, direct.data, atol=1e-7)

    def test_identical_values_collapse_to_projected_row(self):
        rng = np.random.default_rng(3)
        mha = MultiHeadAttention(4, 2, rng)
        row = rng.standard_normal(4).astype(np.float32)
        memory = Tensor(np.tile(row, (1, 5, 1)))
        q = Tensor(rng.standard_normal((1, 3, 4)).astype(np.float32))
        out = mha(_zeros_like(q), q, memory=memory).data
        proj = (row @ mha.v_proj.weight.data + mha.v_proj.bias.data) \
            @ mha.out_proj.weight.data + mha.out_proj.bias.data
        np.testing.assert_allclose(out, np.tile(proj, (1, 3, 1)), rtol=1e-4, atol=1e-5)

    def test_two_heads_match_hand_assembly(self):
        rng = np.random.default_rng(4)
        d, h = 6, 2
        dh = d // h
        mha = MultiHeadAttention(d, h, rng, dtype=np.float64)
        x = rng.standard_normal((1, 4, d))
        q = x @ mha.q_proj.weight.data + mha.q_proj.bias.data
        k = x @ mha.k_proj.weight.data
        v = x @ mha.v_proj.weight.data + mha.v_proj.bias.data
        heads = []
        for i in range(h):
            sl = slice(i * dh, (i + 1) * dh)
            heads.append(scalar_attention(q[0, :, sl], k[0, :, sl], v[0, :, sl]))
        merged = np.concatenate(heads, axis=-1)
        expected = merged @ mha.out_proj.weight.data + mha.out_proj.bias.data
        np.testing.assert_allclose(mha(Tensor(np.zeros_like(x)), Tensor(x)).data[0], expected, rtol=1e-6)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(6, 4, np.random.default_rng(0))


class TestFeedForward:
    def test_zero_input_zero_biases(self):
        rng = np.random.default_rng(5)
        ffn = FeedForward(4, 8, rng)
        out = ffn(Tensor(np.zeros((2, 4), dtype=np.float32)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_identity_weights_relu_passthrough(self):
        rng = np.random.default_rng(6)
        ffn = FeedForward(2, 2, rng)
        _identity(ffn.lin1)
        _identity(ffn.lin2)
        out = ffn(Tensor([[-1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_against_direct_evaluation(self):
        rng = np.random.default_rng(7)
        ffn = FeedForward(4, 8, rng, dtype=np.float64)
        x = rng.standard_normal((2, 4))
        expected = np.maximum(x @ ffn.lin1.weight.data + ffn.lin1.bias.data, 0) \
            @ ffn.lin2.weight.data + ffn.lin2.bias.data
        np.testing.assert_allclose(ffn(Tensor(x)).data, expected, rtol=1e-10)


class TestEmbeddingPieces:
    def test_position_row_zero_pattern(self):
        table = sinusoidal_positions(8, 6)
        np.testing.assert_allclose(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0], atol=1e-12)

    def test_position_values(self):
        table = sinusoidal_positions(4, 4)
        assert table[2, 0] == pytest.approx(math.sin(2.0))
        assert table[2, 1] == pytest.approx(math.cos(2.0))
        assert table[2, 2] == pytest.approx(math.sin(2.0 / 100.0))

    def test_dropout_zero_rate_is_identity(self):
        x = Tensor(np.ones(5))
        assert dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_none_rng_is_identity(self):
        x = Tensor(np.ones(5))
        assert dropout(x, 0.5, None) is x

    def test_dropout_preserves_mean(self):
        rng = np.random.default_rng(8)
        out = dropout(Tensor(np.ones(100_000)), 0.5, rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_mask_is_drawn_from_float32_uniforms(self):
        # the stream every run's dropout draws from: a change here changes every training
        mask = dropout_mask((3, 4), np.float64, 0.25, np.random.default_rng(9))
        keep = np.random.default_rng(9).random((3, 4), dtype=np.float32) >= 0.25
        assert mask.dtype == np.float64
        np.testing.assert_array_equal(mask, np.where(keep, 1.0 / 0.75, 0.0))

    def test_dropout_deterministic_under_seed(self):
        a = dropout(Tensor(np.ones(64)), 0.3, np.random.default_rng(9)).data
        b = dropout(Tensor(np.ones(64)), 0.3, np.random.default_rng(9)).data
        np.testing.assert_array_equal(a, b)


class TestLabelSmoothedCE:
    def test_confident_gold_zero_loss(self):
        logits = np.full((1, 1, 4), -1e4, dtype=np.float32)
        logits[0, 0, 2] = 1e4
        loss = label_smoothed_ce(Tensor(logits), np.array([[2]]), 0.0, pad_id=0)
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_uniform_logits_log_vocab(self):
        vocab = 7
        loss = label_smoothed_ce(Tensor(np.zeros((1, 2, vocab))), np.array([[3, 4]]), 0.0, pad_id=0)
        assert loss.item() == pytest.approx(math.log(vocab), rel=1e-6)

    def test_hand_computed_smoothed_value(self):
        logits = np.array([[[0.5, -0.2, 1.0, 0.1]]])
        target = 2
        eps = 0.1
        z = logits[0, 0]
        logp = z - np.log(np.exp(z).sum())
        q = np.full(4, eps / 3)
        q[target] = 1.0 - eps
        expected = float((q * (np.log(q) - logp)).sum())
        loss = label_smoothed_ce(Tensor(logits), np.array([[target]]), eps, pad_id=0)
        assert loss.item() == pytest.approx(expected, rel=1e-5)

    def test_pad_positions_excluded(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal((1, 3, 5))
        targets = np.array([[3, 4, 0]])
        full = label_smoothed_ce(Tensor(logits), targets, 0.1, pad_id=0).item()
        trimmed = label_smoothed_ce(Tensor(logits[:, :2]), targets[:, :2], 0.1, pad_id=0).item()
        assert full == pytest.approx(trimmed, rel=1e-6)

    def test_all_pad_batch_rejected(self):
        with pytest.raises(ValueError):
            label_smoothed_ce(Tensor(np.zeros((1, 2, 4))), np.zeros((1, 2), dtype=int), 0.1, pad_id=0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = rng.standard_normal((2, 3, 5))
        targets = np.array([[3, 4, 0], [2, 0, 0]])
        probe = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            loss = label_smoothed_ce(probe, targets, 0.1, pad_id=0)
        tape.backward(loss)
        step = 1e-6
        flat = logits.reshape(-1)
        for idx in rng.choice(flat.size, size=10, replace=False):
            orig = flat[idx]
            flat[idx] = orig + step
            hi = label_smoothed_ce(Tensor(logits), targets, 0.1, pad_id=0).item()
            flat[idx] = orig - step
            lo = label_smoothed_ce(Tensor(logits), targets, 0.1, pad_id=0).item()
            flat[idx] = orig
            assert probe.grad.reshape(-1)[idx] == pytest.approx((hi - lo) / (2 * step), abs=1e-6)


class TestBlocks:
    def test_encoder_layer_eval_is_deterministic(self):
        rng = np.random.default_rng(12)
        layer = EncoderLayer(8, 2, 16, 0.5, 1e-6, rng)
        x = Tensor(rng.standard_normal((1, 4, 8)).astype(np.float32))
        mask = np.ones((1, 1, 1, 4), dtype=bool)
        np.testing.assert_array_equal(layer(x, mask).data, layer(x, mask).data)

    def test_dropout_changes_training_forward(self):
        rng = np.random.default_rng(13)
        layer = EncoderLayer(8, 2, 16, 0.5, 1e-6, rng)
        x = Tensor(rng.standard_normal((1, 4, 8)).astype(np.float32))
        mask = np.ones((1, 1, 1, 4), dtype=bool)
        trained = layer(x, mask, rng=np.random.default_rng(0)).data
        assert not np.array_equal(trained, layer(x, mask).data)

    def test_decoder_layer_causal_invariance(self):
        rng = np.random.default_rng(14)
        layer = DecoderLayer(8, 2, 16, 0.0, 1e-6, rng)
        t = 5
        x = rng.standard_normal((1, t, 8)).astype(np.float32)
        memory = Tensor(rng.standard_normal((1, 3, 8)).astype(np.float32))
        causal = np.tril(np.ones((t, t), dtype=bool))[None, None]
        cross = np.ones((1, 1, 1, 3), dtype=bool)
        base = layer(Tensor(x), memory, causal, cross).data
        x2 = x.copy()
        x2[0, 3:] += 10.0
        changed = layer(Tensor(x2), memory, causal, cross).data
        np.testing.assert_array_equal(base[0, :3], changed[0, :3])
        assert not np.array_equal(base[0, 3:], changed[0, 3:])

    def test_encoder_layer_every_param_gradient(self):
        # seed picked so no parameter coordinate has a vanishing true
        # gradient (dead relu unit), which would turn the relative-error
        # denominator into pure finite-difference noise
        rng = np.random.default_rng(36)
        layer = EncoderLayer(8, 2, 16, 0.0, 1e-6, rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((1, 3, 8)))
        mask = np.ones((1, 1, 1, 3), dtype=bool)
        w = Tensor(np.random.default_rng(0).standard_normal((1, 3, 8)))

        def loss_fn():
            return sum_all(mul_elementwise(layer(x, mask), w))

        errs = check_param_grads(loss_fn, dict(layer.named_parameters("enc")), step=1e-5)
        assert max(errs.values()) <= 1e-5

    def test_decoder_layer_every_param_gradient(self):
        rng = np.random.default_rng(0)   # same dead-unit consideration as above
        layer = DecoderLayer(8, 2, 16, 0.0, 1e-6, rng, dtype=np.float64)
        x = Tensor(rng.standard_normal((1, 3, 8)))
        memory = Tensor(rng.standard_normal((1, 4, 8)))
        causal = np.tril(np.ones((3, 3), dtype=bool))[None, None]
        cross = np.ones((1, 1, 1, 4), dtype=bool)
        w = Tensor(np.random.default_rng(0).standard_normal((1, 3, 8)))

        def loss_fn():
            return sum_all(mul_elementwise(layer(x, memory, causal, cross), w))

        errs = check_param_grads(loss_fn, dict(layer.named_parameters("dec")), step=1e-5)
        assert max(errs.values()) <= 1e-5


# (N, d) packed rows as training runs them, and (B, T, d) as decoding does
FUSED_LAYOUTS = {"packed_rows": (7,), "batched": (2, 3)}
DROPOUT_SEED = 17


def _ffn_case(layout, dtype):
    """The op's input x, its layer norm and FFN, with every parameter random; plus, per parameter
    name, the (object, attribute) that holds it."""
    rng = np.random.default_rng(50)
    d, inner = 6, 10

    def rand(*shape):
        return rng.standard_normal(shape).astype(dtype)

    x = Tensor(rand(*FUSED_LAYOUTS[layout], d), requires_grad=True)
    norm, ffn = LayerNorm(d, 1e-6, dtype), FeedForward(d, inner, rng, dtype)
    slots = {"gamma": (norm, "gamma"), "beta": (norm, "beta"), "w1": (ffn.lin1, "weight"),
             "b1": (ffn.lin1, "bias"), "w2": (ffn.lin2, "weight"), "b2": (ffn.lin2, "bias")}
    for obj, attr in slots.values():
        getattr(obj, attr).data = rand(*getattr(obj, attr).shape)
    return x, (norm, ffn), slots


def _ffn_chain(x, norm, ffn, rate, rng):
    """The taped chain ffn_sublayer replaces."""
    return add(x, dropout(ffn(norm(x)), rate, rng))


def _output_and_grads(op, x, layers, slots, rng_seed):
    inputs = [x] + [getattr(*slot) for slot in slots.values()]
    for t in inputs:
        t.grad = None
    rng = None if rng_seed is None else np.random.default_rng(rng_seed)
    with Tape() as tape:
        out = op(x, *layers, 0.3, rng)
        w = np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype)
        loss = sum_all(mul_elementwise(out, Tensor(w)))
    tape.backward(loss)
    return out.data, [t.grad for t in inputs]


class TestFusedSublayers:
    """ffn_sublayer against the taped chain it replaces, and the tape records of a training step."""

    @pytest.mark.parametrize("rng_seed", [DROPOUT_SEED, None], ids=["dropout", "no_rng"])
    @pytest.mark.parametrize("layout", list(FUSED_LAYOUTS))
    def test_float32_output_and_gradients_equal_the_chain_bit_for_bit(self, layout, rng_seed):
        x, layers, slots = _ffn_case(layout, np.float32)
        fused_out, fused_grads = _output_and_grads(ffn_sublayer, x, layers, slots, rng_seed)
        chain_out, chain_grads = _output_and_grads(_ffn_chain, x, layers, slots, rng_seed)
        if rng_seed is not None:   # dropout is active: some units are dropped
            assert not np.array_equal(chain_out, _ffn_chain(x, *layers, 0.3, None).data)
        names = ["out", "x", *slots]
        for name, fused, chain in zip(names, [fused_out] + fused_grads, [chain_out] + chain_grads):
            assert fused.dtype == chain.dtype == np.float32 and fused.shape == chain.shape, name
            assert fused.tobytes() == chain.tobytes(), name

    @pytest.mark.parametrize("layout", list(FUSED_LAYOUTS))
    @pytest.mark.parametrize("name", ["x", "gamma", "beta", "w1", "b1", "w2", "b2"])
    def test_float64_grad_check_of_every_input_with_dropout(self, name, layout):
        x, layers, slots = _ffn_case(layout, np.float64)
        slot = slots.get(name)   # None for x
        start = x if slot is None else getattr(*slot)

        def f(t):
            if slot is not None:
                setattr(*slot, t)
            # a fresh generator per evaluation, so every evaluation drops the same units
            return ffn_sublayer(t if slot is None else x, *layers, 0.3, np.random.default_rng(DROPOUT_SEED))

        assert grad_check(f, Tensor(start.data)) <= 1e-5

    @pytest.mark.parametrize("structure,formula,records",
                             [("rtal", "ewp_ffn", 67), ("none", "mean", 45), ("linear", "mean", 47)])
    def test_tape_records_of_one_training_step_are_pinned(self, structure, formula, records):
        # the acceptance config, on a batch with padding as training batches have
        model = build(ModelConfig(num_layers=4, d_model=64, num_heads=4, d_ff=256, vocab_size=16,
                                  max_len=32, dropout=0.1,
                                  aggregation=AggregationSpec(structure, formula, "both")))
        batch = make_batch([((3, 4, 5, 6), (6, 5, 4, 3)), ((7, 8), (8, 7))])
        with Tape() as tape:
            logits = model.forward_train(batch, np.random.default_rng(0))
            label_smoothed_ce(logits, batch.tgt_out, 0.1, batch.pad_id)
        assert len(tape) == records


SUBLAYER_INPUTS = {"self": ["x", "h"], "cross": ["x", "h", "memory"]}
PROJECTIONS = ["q_proj.weight", "q_proj.bias", "k_proj.weight", "v_proj.weight", "v_proj.bias",
               "out_proj.weight", "out_proj.bias"]


def _sublayer_case(kind, packed, dtype):
    """An attention layer with every parameter random, its inputs (the residual x, the queries'
    input h and, for cross-attention, the memory) as (B, T, d) arrays or packed rows, the mask
    and the packings (None for arrays)."""
    padded, mask, packs = _packed_case("cross" if kind == "cross" else "self_causal", 70)
    rng = np.random.default_rng(71)
    mha = MultiHeadAttention(6, 2, rng, dtype)
    for _, p in mha.named_parameters():
        p.data = rng.standard_normal(p.shape).astype(dtype)
    arrays = {"x": (rng.standard_normal(padded[0].shape), 0), "h": (padded[0], 0), "memory": (padded[1], 1)}
    inputs = {name: Tensor((packs[side].gather(a) if packed else a).astype(dtype), requires_grad=True)
              for name, (a, side) in arrays.items() if name in SUBLAYER_INPUTS[kind]}
    return mha, inputs, mask, packs if packed else None


def _sublayer(mha, inputs, mask, packs, rate, rng):
    return mha(inputs["x"], inputs["h"], mask, inputs.get("memory"), packs=packs, rate=rate, rng=rng)


def _sublayer_chain(mha, inputs, mask, packs, rate, rng):
    """The taped chain the attention sublayer op replaces."""
    h = inputs["h"]
    source = inputs.get("memory", h)
    heads = scaled_dot_attention(mha.q_proj(h), mha.k_proj(source), mha.v_proj(source), mask,
                                 mha.num_heads, packs)
    return add(inputs["x"], dropout(mha.out_proj(heads), rate, rng))


def _sublayer_output_and_grads(op, kind, packed, rng_seed):
    mha, inputs, mask, packs = _sublayer_case(kind, packed, np.float32)
    params = dict(mha.named_parameters())
    with Tape() as tape:
        out = op(mha, inputs, mask, packs, 0.3, None if rng_seed is None else np.random.default_rng(rng_seed))
        w = np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype)
        loss = sum_all(mul_elementwise(out, Tensor(w)))
    tape.backward(loss)
    return len(tape), {"out": out.data, **{n: t.grad for n, t in inputs.items()},
                       **{n: p.grad for n, p in params.items()}}


class TestAttentionSublayer:
    """MultiHeadAttention's one taped op against the chain of Linears, scaled_dot_attention,
    dropout and add that it replaces."""

    @pytest.mark.parametrize("rng_seed", [DROPOUT_SEED, None], ids=["dropout", "no_rng"])
    @pytest.mark.parametrize("packed", [True, False], ids=["packed_rows", "batched"])
    @pytest.mark.parametrize("kind", list(SUBLAYER_INPUTS))
    def test_float32_output_and_gradients_equal_the_chain(self, kind, packed, rng_seed):
        fused_records, fused = _sublayer_output_and_grads(_sublayer, kind, packed, rng_seed)
        chain_records, chain = _sublayer_output_and_grads(_sublayer_chain, kind, packed, rng_seed)
        assert (fused_records, chain_records) == (3, 9 if rng_seed is not None else 8)
        # h's gradient in self-attention and memory's in cross-attention come from one GEMM over
        # the concatenated weights, where the chain runs one per projection and adds the results:
        # they agree to float32 rounding.  Everything else is the chain's bit for bit.
        grouped = "h" if kind == "self" else "memory"
        assert list(fused) == list(chain) == ["out", *SUBLAYER_INPUTS[kind], *PROJECTIONS]
        for name, a in fused.items():
            b = chain[name]
            assert a.dtype == b.dtype == np.float32 and a.shape == b.shape, name
            if name == grouped:
                np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6 * np.abs(b).max(), err_msg=name)
            else:
                assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("packed", [True, False], ids=["packed_rows", "batched"])
    @pytest.mark.parametrize("kind,name", [(kind, name) for kind, inputs in SUBLAYER_INPUTS.items()
                                           for name in inputs + PROJECTIONS])
    def test_float64_grad_check_of_every_input_with_dropout(self, kind, name, packed):
        mha, inputs, mask, packs = _sublayer_case(kind, packed, np.float64)
        layer, _, attr = name.rpartition(".")
        start = inputs[name] if name in inputs else getattr(getattr(mha, layer), attr)

        def f(t):
            if name in inputs:
                inputs[name] = t
            else:
                setattr(getattr(mha, layer), attr, t)
            # a fresh generator per evaluation, so every evaluation drops the same units
            return _sublayer(mha, inputs, mask, packs, 0.3, np.random.default_rng(DROPOUT_SEED))

        assert grad_check(f, Tensor(start.data)) <= 1e-5

    def test_cached_keys_and_values_equal_projecting_memory(self):
        mha, inputs, mask, _ = _sublayer_case("cross", False, np.float32)
        memory = inputs.pop("memory")
        projected = _sublayer(mha, dict(inputs, memory=memory), mask, None, 0.0, None).data
        cached = mha(inputs["x"], inputs["h"], mask, kv=mha.project_kv(memory)).data
        assert cached.tobytes() == projected.tobytes()


def _core_case(case, dtype):
    """(q, k, v) with d = 64 and the boolean mask (None: no mask) of each layout the model runs
    attention in: training's padded batches, with the encoder's and the cross-attention's pad
    masks and the decoder's causal one, and decoding's one-query rows, against growing
    self-attention keys or broadcast cross-attention keys."""
    rng = np.random.default_rng(80)

    def rand(*lead):
        return rng.standard_normal(lead + (64,)).astype(dtype)

    visible = np.ones((3, 1, 1, 9), dtype=bool)
    visible[0, ..., 6:] = visible[1, ..., 4:] = False
    if case == "decode_cross":
        kv = [np.broadcast_to(rand(1, 9), (3, 9, 64)) for _ in range(2)]
        return (rand(3, 1), *kv), np.broadcast_to(visible[:1], visible.shape)
    (tq, tk), mask = {
        "pad": ((9, 9), visible),
        "causal": ((9, 9), np.tril(np.ones((9, 9), dtype=bool)) & visible),
        "cross": ((7, 9), visible),
        "no_mask": ((5, 6), None),
        "decode_self": ((1, 5), visible[..., :5]),
        "decode_first": ((1, 1), visible[..., :1]),
    }[case]
    return (rand(3, tq), rand(3, tk), rand(3, tk)), mask


class TestCopyFreeCore:
    """The attention core, through scaled_dot_attention, against the formulation it replaced,
    which copied K^T, V^T and the scores to other layouts (tests/oracles.py)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", ["pad", "causal", "cross", "no_mask", "decode_self",
                                      "decode_first", "decode_cross"])
    def test_output_and_gradients_equal_the_transposing_copies(self, case, dtype):
        (q, k, v), mask = _core_case(case, dtype)
        heads = 4
        g = np.random.default_rng(81).standard_normal(q.shape).astype(dtype)
        inputs = [Tensor(a, requires_grad=True) for a in (q, k, v)]
        with Tape() as tape:
            out = scaled_dot_attention(*inputs, mask, heads)
            loss = sum_all(mul_elementwise(out, Tensor(g)))
        tape.backward(loss)
        ours = [out.data] + [t.grad for t in inputs]
        reference = transposing_attention(q, k, v, mask, heads, g)
        # A GEMM gives the same bits whether BLAS reads an operand through a transposed view or
        # from a transposed copy.  Two cases run other kernels: a one-row query block makes the
        # scores and dP matrix-vector products, whose transposed and plain kernels sum in
        # different orders, and OpenBLAS runs float64 products this small in small-matrix
        # kernels that differ by transpose too.  Those agree to rounding.
        exact = dtype == np.float32 and q.shape[-2] > 1
        for name, a, b in zip(["out", "q", "k", "v"], ours, reference):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape, name
            if exact:
                assert a.tobytes() == b.tobytes(), name
            else:
                tol = 1e-5 if dtype == np.float32 else 1e-12
                np.testing.assert_allclose(a, b, rtol=tol, atol=tol * np.abs(b).max(), err_msg=name)


class TestTiedLogits:
    """tied_logits against the taped chain it replaces, matmul(y, swap_axes(table, 0, 1))."""

    @pytest.mark.parametrize("lead", [(7,), (3, 1)], ids=["packed_rows", "decode_rows"])
    def test_float32_output_and_gradients_equal_the_chain_bit_for_bit(self, lead):
        rng = np.random.default_rng(60)
        y = Tensor(rng.standard_normal(lead + (6,)).astype(np.float32), requires_grad=True)
        table = Tensor(rng.standard_normal((9, 6)).astype(np.float32), requires_grad=True)
        results = []
        for op in (tied_logits, lambda y, w: matmul(y, swap_axes(w, 0, 1))):
            y.grad = table.grad = None
            with Tape() as tape:
                out = op(y, table)
                w = np.random.default_rng(1).standard_normal(out.shape).astype(out.dtype)
                loss = sum_all(mul_elementwise(out, Tensor(w)))
            tape.backward(loss)
            results.append((len(tape), [out.data, y.grad, table.grad]))
        (fused_records, fused), (chain_records, chain) = results
        assert (fused_records, chain_records) == (3, 4)
        assert fused[0].shape == lead + (9,)
        for name, a, b in zip(["out", "y", "table"], fused, chain):
            assert a.dtype == b.dtype == np.float32 and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_width_mismatch_raises(self):
        with pytest.raises(ShapeError):
            tied_logits(Tensor(np.ones((2, 5))), Tensor(np.ones((9, 6))))
