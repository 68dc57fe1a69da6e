"""Transformer building blocks on the tape-autodiff tensor core.

Layers are ``Module``s that hold their parameters as attributes; evaluation
is a method call.
Passing an ``rng`` enables dropout (training mode); ``rng=None`` evaluates
deterministically with dropout disabled.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .tensor import (
    MaskError,
    ShapeError,
    Tensor,
    embedding_lookup,
    layer_norm,
    layer_norm_backward,
    layer_norm_forward,
    matmul,
    mul_elementwise,
    record_op,
    relu,
    sum_rows,
)

NamedParams = Iterator[Tuple[str, Tensor]]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


class Module:
    """A layer: its parameters are its trainable Tensor attributes and those of its sub-layers,
    named by attribute path; a list attribute holds sub-layers, item i named ``attr.{i}``.  Other
    attributes (None, numbers, arrays) are skipped.

    Attribute assignment order is the order of parameters, of Adam's moments and of checkpoint
    records; tests/test_param_layout.py pins it, so a layer must keep assigning in that order.
    """

    def named_parameters(self, prefix: str = "") -> NamedParams:
        for attr, value in vars(self).items():
            name = f"{prefix}.{attr}" if prefix else attr
            if isinstance(value, Module):
                yield from value.named_parameters(name)
            elif isinstance(value, list):
                for i, layer in enumerate(value):
                    yield from layer.named_parameters(f"{name}.{i}")
            elif isinstance(value, Tensor) and value.requires_grad:
                yield name, value


class Linear(Module):
    """Affine map over the last axis: x @ weight (+ bias)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, dtype=np.float32,
                 bias: bool = True):
        self.weight = Tensor(glorot_uniform(rng, in_dim, out_dim, dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-6, dtype=np.float32):
        self.gamma = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


class FeedForward(Module):
    """Position-wise two-layer network with a ReLU in between, from ``in_dim``
    (default ``d_model``) through ``d_ff`` to ``d_model``."""

    def __init__(self, d_model: int, d_ff: int, rng: np.random.Generator, dtype=np.float32,
                 in_dim: Optional[int] = None):
        self.lin1 = Linear(in_dim or d_model, d_ff, rng, dtype)
        self.lin2 = Linear(d_ff, d_model, rng, dtype)

    def __call__(self, x: Tensor, norm: Optional[LayerNorm] = None, rate: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> Tensor:
        """FFN(x); with ``norm``, the pre-norm residual sublayer x + dropout(FFN(norm(x))) as one
        taped op (``ffn_sublayer``)."""
        if norm is None:
            return self.lin2(relu(self.lin1(x)))
        return ffn_sublayer(x, norm, self, rate, rng)


def dropout_mask(shape, dtype, rate: float, rng: Optional[np.random.Generator]) -> Optional[np.ndarray]:
    """The inverted-dropout multiplier for an array of ``shape``: 0 where a unit is dropped,
    1 / (1 - rate) where it is kept; None when dropout is off (rate 0 or no rng)."""
    if rate == 0.0 or rng is None:
        return None
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = (rng.random(shape, dtype=np.float32) >= rate).astype(dtype)
    return keep * (1.0 / (1.0 - rate))


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout; identity when rate is 0 or no rng is supplied."""
    mask = dropout_mask(x.data.shape, x.data.dtype, rate, rng)
    return x if mask is None else mul_elementwise(x, Tensor(mask))


# The fused sublayer ops below do the arithmetic of the taped chains they replace in the same
# order (one dropout draw, after the last projection), so their outputs and gradients are the
# chains' bit for bit; they keep for backward only the arrays it reads.

def _residual_linear(x: Tensor, rows: np.ndarray, lin: Linear, rate: float, rng):
    """x + dropout(lin(rows)), the (n, in) ``rows`` mapped to x's (..., out) shape, and its
    backward: the map from the output gradient to the gradients of rows, weight and bias."""
    w, b = lin.weight.data, lin.bias.data
    f = rows @ w
    f += b
    f = f.reshape(x.data.shape)
    mask = dropout_mask(f.shape, f.dtype, rate, rng)
    if mask is not None:
        f *= mask

    def backward(g):
        gf = g if mask is None else g * mask
        g2 = gf.reshape(len(rows), -1)
        return g2 @ w.T, rows.T @ g2, sum_rows(g2)

    return x.data + f, backward


def attention_tail(x: Tensor, heads: Tensor, proj: Linear, rate: float, rng) -> Tensor:
    """x + dropout(proj(heads)) as one taped op: an attention sublayer after its merged heads.
    Backward keeps the heads' rows and the dropout mask."""
    out, tail = _residual_linear(x, heads.data.reshape(-1, heads.data.shape[-1]), proj, rate, rng)

    def rule(g):
        gheads, gw, gb = tail(g)
        return g, gheads.reshape(heads.data.shape), gw, gb

    return record_op(out, (x, heads, proj.weight, proj.bias), rule)


def ffn_sublayer(x: Tensor, norm: LayerNorm, ffn: FeedForward, rate: float, rng) -> Tensor:
    """x + dropout(W2 relu(W1 LN(x) + b1) + b2) as one taped op: a pre-norm FFN sublayer.
    Backward keeps the layer norm's xhat and 1/std, its output rows, the ReLU output (whose
    positives are the pre-activation's) and the dropout mask."""
    w1, b1, gamma = ffn.lin1.weight.data, ffn.lin1.bias.data, norm.gamma.data
    h, xhat, inv = layer_norm_forward(x.data, gamma, norm.beta.data, norm.eps)
    rows = h.reshape(-1, h.shape[-1])
    r = rows @ w1
    r += b1
    np.maximum(r, 0, out=r)
    out, tail = _residual_linear(x, r, ffn.lin2, rate, rng)

    def rule(g):
        gr, gw2, gb2 = tail(g)
        gr *= r > 0
        dx, dgamma, dbeta = layer_norm_backward((gr @ w1.T).reshape(xhat.shape), xhat, inv, gamma)
        return g + dx, dgamma, dbeta, rows.T @ gr, sum_rows(gr), gw2, gb2

    return record_op(out, (x, norm.gamma, norm.beta, ffn.lin1.weight, ffn.lin1.bias,
                           ffn.lin2.weight, ffn.lin2.bias), rule)


def tied_logits(x: Tensor, weight: Tensor) -> Tensor:
    """x @ weight.T as one taped op: the output projection tied to the (vocab, d) embedding table,
    whose gradient is the transpose of ``matmul``'s weight gradient."""
    w, shape = weight.data, x.data.shape
    if shape[-1] != w.shape[-1]:
        raise ShapeError(f"tied projection: rows {x.shape} do not fit table {weight.shape}")
    rows = x.data.reshape(-1, w.shape[-1])

    def rule(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ w).reshape(shape), (rows.T @ g2).T

    return record_op((rows @ w.T).reshape(shape[:-1] + w.shape[:1]), (x, weight), rule)


class Packing(NamedTuple):
    """The slots of a padded (B, T) batch that hold real rows, as a flat row index.

    Position-wise work runs on the (N, d) real rows only; attention scatters
    them into (B, T, d) and gathers its output back.  ``rows=None`` is the
    identity packing: every slot is a row, and arrays keep their (B, T, ...)
    layout untouched.
    """
    shape: Tuple[int, ...]
    rows: Optional[np.ndarray] = None

    @classmethod
    def of(cls, kept: np.ndarray) -> "Packing":
        return cls(kept.shape, None if kept.all() else np.flatnonzero(kept))

    @property
    def positions(self) -> np.ndarray:  # each row's position in its sequence
        t = self.shape[-1]
        return np.arange(t) if self.rows is None else self.rows % t

    def gather(self, x: np.ndarray) -> np.ndarray:  # (B, T, ...) -> (N, ...)
        return x if self.rows is None else np.take(x.reshape((-1,) + x.shape[2:]), self.rows, axis=0)

    def scatter(self, x: np.ndarray) -> np.ndarray:  # (N, d) -> (B, T, d), 0 at left-out slots
        if self.rows is None:
            return x
        out = np.zeros((self.shape[0] * self.shape[1], x.shape[-1]), dtype=x.dtype)
        out[self.rows] = x
        return out.reshape(self.shape + x.shape[-1:])

    def unpack(self, x: Tensor) -> Tensor:  # ``scatter`` as a taped op
        return x if self.rows is None else record_op(self.scatter(x.data), (x,), lambda g: (self.gather(g),))


class AttentionMask(NamedTuple):
    """A visibility mask checked once and laid out as the softmax reads it: key axis first, as an
    additive bias of -0.0 at a visible key (x + -0.0 is x, signed zeros included) and -inf at a
    hidden one.  A model builds one per batch and passes it to every attention op."""
    bias: np.ndarray

    @classmethod
    def of(cls, mask, dtype=np.float32) -> "AttentionMask":
        """``mask``: boolean, broadcastable to the scores' (..., num_heads, Tq, Tk), True at a
        visible key.  A query row with no visible key raises MaskError."""
        m = np.asarray(mask, dtype=bool)
        if not m.any(axis=-1).all():
            raise MaskError("softmax row is fully masked")
        visible, hidden = np.array([-0.0, -np.inf], dtype=dtype)
        return cls(np.where(np.moveaxis(m, -1, 0), visible, hidden))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor, mask=None, num_heads: int = 1,
                         packs: Optional[Tuple[Packing, Packing]] = None) -> Tensor:
    """Multi-head softmax(q k^T / sqrt(d_head)) v as one taped op.

    q is (..., Tq, d) and k, v are (..., Tk, d) with the same leading axes;
    the last axis is split into ``num_heads`` heads of d / num_heads, each
    head attends on its own, and the heads are merged back to (..., Tq, d).
    With ``packs`` (the query packing and the key/value packing), q, k and v
    are packed (N, d) rows: they are scattered into zero-filled (B, T, d)
    here, and the output and the gradients are gathered back to rows; without
    ``packs`` they are used as they are.
    ``mask`` is an ``AttentionMask`` or a boolean array broadcastable to
    (..., num_heads, Tq, Tk), True at a visible key, which is checked and
    laid out here.  A query row with no visible key raises MaskError.
    The backward rule is the closed form dS = P * (dP - rowsum(dP * P))
    (FlashAttention, Dao et al. 2022).
    """
    qp, kvp = packs or (None, None)
    qd, kd, vd = (q.data, k.data, v.data) if packs is None else \
        (qp.scatter(q.data), kvp.scatter(k.data), kvp.scatter(v.data))
    if qd.ndim < 2 or kd.shape != vd.shape or \
            (kd.shape[:-2], kd.shape[-1]) != (qd.shape[:-2], qd.shape[-1]):
        raise ShapeError(f"attention operands disagree: q {q.shape}, k {k.shape}, v {v.shape}")
    d = qd.shape[-1]
    if num_heads < 1 or d % num_heads != 0:
        raise ShapeError(f"model dim {d} is not divisible into {num_heads} heads")
    head_dim = d // num_heads

    def split(x):  # (..., T, d) -> (..., heads, T, head_dim)
        return x.reshape(x.shape[:-1] + (num_heads, head_dim)).swapaxes(-2, -3)

    def merge(x):  # (..., heads, T, head_dim) -> (..., T, d)
        x = x.swapaxes(-2, -3)
        return x.reshape(x.shape[:-2] + (d,))

    qh, kh, vh = split(qd), split(kd), split(vd)
    # The softmax runs key-major, on a (Tk, ..., heads, Tq) copy of the
    # scores: numpy reduces a short last axis one row at a time, but a
    # leading axis in a few whole-array passes.  Stacked matmul is fast only
    # on a C-ordered right operand, so K^T and V^T are copied once.
    n = qh.ndim
    to_keys, from_keys = (n - 1, *range(n - 1)), (*range(1, n), 0)
    pk = np.ascontiguousarray((qh @ np.ascontiguousarray(kh.swapaxes(-1, -2))).transpose(to_keys))
    # a Python float: a numpy float64 scalar would promote float32 scores
    factor = 1.0 / math.sqrt(head_dim)
    pk *= factor
    if mask is not None:
        bias = (mask if isinstance(mask, AttentionMask) else AttentionMask.of(mask, pk.dtype)).bias
        pk += bias.reshape(bias.shape[:1] + (1,) * (n - bias.ndim) + bias.shape[1:])
    pk -= pk.max(axis=0)
    np.exp(pk, out=pk)
    pk /= pk.sum(axis=0)
    p = np.ascontiguousarray(pk.transpose(from_keys))

    def rule(g):
        gh = split(g if packs is None else qp.scatter(g))
        dsk = np.ascontiguousarray((gh @ np.ascontiguousarray(vh.swapaxes(-1, -2))).transpose(to_keys))
        dsk -= (dsk * pk).sum(axis=0)
        dsk *= pk
        ds = np.ascontiguousarray(dsk.transpose(from_keys))
        ds *= factor
        dq, dk, dv = merge(ds @ kh), merge(ds.swapaxes(-1, -2) @ qh), merge(p.swapaxes(-1, -2) @ gh)
        return (dq, dk, dv) if packs is None else (qp.gather(dq), kvp.gather(dk), kvp.gather(dv))

    out = merge(p @ vh)
    return record_op(out if packs is None else qp.gather(out), (q, k, v), rule)


class MultiHeadAttention(Module):
    """Project into per-head subspaces, attend in parallel, merge and project."""

    def __init__(self, d_model: int, num_heads: int, rng: np.random.Generator, dtype=np.float32):
        if d_model % num_heads != 0:
            raise ValueError(f"d_model {d_model} is not divisible by num_heads {num_heads}")
        self.num_heads = num_heads
        self.q_proj = Linear(d_model, d_model, rng, dtype)
        # a key bias shifts every score in a row equally and softmax cancels
        # it, so the parameter could never train; leave it out
        self.k_proj = Linear(d_model, d_model, rng, dtype, bias=False)
        self.v_proj = Linear(d_model, d_model, rng, dtype)
        self.out_proj = Linear(d_model, d_model, rng, dtype)

    def project_kv(self, k_in: Tensor, v_in: Tensor) -> Tuple[Tensor, Tensor]:
        """Keys and values; cross-attention computes them once per source."""
        return self.k_proj(k_in), self.v_proj(v_in)

    def __call__(self, q_in: Tensor, k_in: Tensor, v_in: Tensor, mask=None, kv=None, packs=None,
                 residual: Optional[Tensor] = None, rate: float = 0.0, rng=None) -> Tensor:
        """``kv``: keys and values from ``project_kv``, used instead of k_in and v_in.  With
        ``residual`` x, the whole sublayer x + dropout(out_proj(attention)), whose tail after the
        attention is one taped op (``attention_tail``)."""
        q = self.q_proj(q_in)
        k, v = self.project_kv(k_in, v_in) if kv is None else kv
        heads = scaled_dot_attention(q, k, v, mask, self.num_heads, packs)
        if residual is None:
            return self.out_proj(heads)
        return attention_tail(residual, heads, self.out_proj, rate, rng)


class Embedding(Module):
    def __init__(self, vocab_size: int, d_model: int, rng: np.random.Generator, dtype=np.float32):
        self.weight = Tensor(glorot_uniform(rng, vocab_size, d_model, dtype), requires_grad=True)

    def __call__(self, ids) -> Tensor:
        return embedding_lookup(self.weight, ids)


def sinusoidal_positions(max_len: int, d_model: int) -> np.ndarray:
    """Interleaved sin/cos position table; row 0 is [0, 1, 0, 1, ...]."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    freqs = np.power(10000.0, -np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    table = np.zeros((max_len, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(pos * freqs)
    table[:, 1::2] = np.cos(pos * freqs[: d_model // 2])
    return table


class EncoderLayer(Module):
    """Pre-norm residual block: self-attention then position-wise FFN."""

    def __init__(self, d_model, num_heads, d_ff, dropout_rate, ln_eps, rng, dtype=np.float32):
        self.ln1 = LayerNorm(d_model, ln_eps, dtype)
        self.self_attn = MultiHeadAttention(d_model, num_heads, rng, dtype)
        self.ln2 = LayerNorm(d_model, ln_eps, dtype)
        self.ffn = FeedForward(d_model, d_ff, rng, dtype)
        self.dropout_rate = dropout_rate

    def __call__(self, x: Tensor, mask, rng: Optional[np.random.Generator] = None,
                 pack: Optional[Packing] = None) -> Tensor:
        h = self.ln1(x)
        x = self.self_attn(h, h, h, mask, packs=pack and (pack, pack), residual=x,
                           rate=self.dropout_rate, rng=rng)
        return self.ffn(x, self.ln2, self.dropout_rate, rng)


class DecoderLayer(Module):
    """Pre-norm residual block: causal self-attention, cross-attention, FFN."""

    def __init__(self, d_model, num_heads, d_ff, dropout_rate, ln_eps, rng, dtype=np.float32):
        self.ln1 = LayerNorm(d_model, ln_eps, dtype)
        self.self_attn = MultiHeadAttention(d_model, num_heads, rng, dtype)
        self.ln2 = LayerNorm(d_model, ln_eps, dtype)
        self.cross_attn = MultiHeadAttention(d_model, num_heads, rng, dtype)
        self.ln3 = LayerNorm(d_model, ln_eps, dtype)
        self.ffn = FeedForward(d_model, d_ff, rng, dtype)
        self.dropout_rate = dropout_rate

    def __call__(self, x, memory, self_mask, cross_mask, rng=None, cross_kv=None,
                 packs=None, past_kv=None) -> Tensor:
        """``packs``: the (target, source) packings when x and memory are packed rows.
        ``past_kv``: a [keys, values] list of the earlier positions' self-attention keys and
        values, (n, t - 1, d) arrays; x is then the newest position, (n, 1, d), and the list is
        extended in place with its keys and values.  This path is untaped (decoding only)."""
        h = self.ln1(x)
        kv = None
        if past_kv is not None:
            kv = [Tensor(np.concatenate((past, new.data), axis=-2))
                  for past, new in zip(past_kv, self.self_attn.project_kv(h, h))]
            past_kv[:] = [a.data for a in kv]
        x = self.self_attn(h, h, h, self_mask, kv, packs and (packs[0], packs[0]), residual=x,
                           rate=self.dropout_rate, rng=rng)
        h = self.ln2(x)
        x = self.cross_attn(h, memory, memory, cross_mask, cross_kv, packs, residual=x,
                            rate=self.dropout_rate, rng=rng)
        return self.ffn(x, self.ln3, self.dropout_rate, rng)


def label_smoothed_ce(logits: Tensor, targets, eps_ls: float, pad_id: int) -> Tensor:
    """Mean KL(smoothed one-hot || softmax(logits)) over non-pad positions.

    The smoothed target puts 1 - eps_ls on the gold class and
    eps_ls / (V - 1) on every other class.  Pad positions contribute
    neither to the loss nor to the normalization count.
    """
    z = logits.data
    targets = np.asarray(targets)
    if z.shape[:-1] != targets.shape:
        raise ShapeError(f"logits {z.shape} do not match targets {targets.shape}")
    vocab = z.shape[-1]
    if not 0.0 <= eps_ls < 1.0:
        raise ValueError(f"label smoothing must be in [0, 1), got {eps_ls}")
    nonpad = targets != pad_id
    n_tokens = int(nonpad.sum())
    if n_tokens == 0:
        raise ValueError("label_smoothed_ce on an all-pad batch")

    zmax = z.max(axis=-1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))
    logp = z - lse
    gold_logp = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]

    off = eps_ls / (vocab - 1)
    cross = -((1.0 - eps_ls - off) * gold_logp + off * logp.sum(axis=-1))
    if eps_ls > 0.0:
        neg_entropy = (1.0 - eps_ls) * math.log(1.0 - eps_ls) + eps_ls * math.log(off)
    else:
        neg_entropy = 0.0
    loss = (cross[nonpad].mean() + neg_entropy).astype(z.dtype)

    def rule(g):
        p = np.exp(logp)
        q = np.full_like(p, off)
        np.put_along_axis(q, targets[..., None], 1.0 - eps_ls, axis=-1)
        dz = (p - q) * nonpad[..., None] * (float(g) / n_tokens)
        return (dz,)

    return record_op(np.asarray(loss), (logits,), rule)
