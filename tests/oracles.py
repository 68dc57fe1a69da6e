"""Independent reference implementations used as test oracles.

Everything here is deliberately written against raw numpy (scalar loops
where feasible) and never calls back into the package's forward paths, so
agreement is evidence rather than tautology.
"""

import math

import numpy as np


def scalar_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop product of two matrices."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


def scalar_softmax(row: np.ndarray) -> np.ndarray:
    exps = [math.exp(float(v)) for v in row]
    total = sum(exps)
    return np.array([e / total for e in exps])


def scalar_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unmasked softmax(q k^T / sqrt(d)) v via per-row scalar loops."""
    n_q, d = q.shape
    n_k = k.shape[0]
    out = np.zeros((n_q, v.shape[1]), dtype=np.float64)
    for i in range(n_q):
        scores = np.array([
            sum(float(q[i, t]) * float(k[j, t]) for t in range(d)) / math.sqrt(d)
            for j in range(n_k)
        ])
        weights = scalar_softmax(scores)
        for j in range(n_k):
            out[i] += weights[j] * v[j]
    return out


def transposing_attention(q, k, v, mask, num_heads: int, g) -> list:
    """Multi-head attention's output and its q, k and v gradients for the output gradient g, as
    the package computed them before its core went copy-free: K^T and V^T copied C-ordered, the
    scores copied key-major for the softmax and back, and every merge of heads a copy.  ``mask``
    is boolean (None: every key visible), broadcastable to (..., num_heads, Tq, Tk)."""
    d = q.shape[-1]
    head_dim = d // num_heads

    def split(x):
        return x.reshape(x.shape[:-1] + (num_heads, head_dim)).swapaxes(-2, -3)

    def merge(x):
        x = x.swapaxes(-2, -3)
        return x.reshape(x.shape[:-2] + (d,))

    qh, kh, vh = split(q), split(k), split(v)
    n = qh.ndim
    to_keys, from_keys = (n - 1, *range(n - 1)), (*range(1, n), 0)
    pk = np.ascontiguousarray((qh @ np.ascontiguousarray(kh.swapaxes(-1, -2))).transpose(to_keys))
    factor = 1.0 / math.sqrt(head_dim)
    pk *= factor
    if mask is not None:
        bias = np.where(np.moveaxis(np.asarray(mask, dtype=bool), -1, 0),
                        *np.array([-0.0, -np.inf], dtype=pk.dtype))
        pk += bias.reshape(bias.shape[:1] + (1,) * (n - bias.ndim) + bias.shape[1:])
    pk -= pk.max(axis=0)
    np.exp(pk, out=pk)
    pk /= pk.sum(axis=0)
    p = np.ascontiguousarray(pk.transpose(from_keys))
    gh = split(g)
    dsk = np.ascontiguousarray((gh @ np.ascontiguousarray(vh.swapaxes(-1, -2))).transpose(to_keys))
    dsk -= (dsk * pk).sum(axis=0)
    dsk *= pk
    ds = np.ascontiguousarray(dsk.transpose(from_keys))
    ds *= factor
    return [merge(p @ vh), merge(ds @ kh), merge(ds.swapaxes(-1, -2) @ qh), merge(p.swapaxes(-1, -2) @ gh)]


def np_layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def _linear(x, lin):
    y = x @ lin.weight.data
    return y + lin.bias.data if lin.bias is not None else y


def np_formula(formula, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate one aggregation formula from its parameter arrays."""
    from treeformer.aggregation import ConcatFfnFormula, EwpFfnFormula, MeanFormula

    if isinstance(formula, MeanFormula):
        return 0.5 * (a + b)
    if isinstance(formula, ConcatFfnFormula):
        h = np.maximum(_linear(np.concatenate([a, b], axis=-1), formula.lin1), 0)
        return _linear(h, formula.lin2)
    if isinstance(formula, EwpFfnFormula):
        s = float(formula.beta.data) * (a + b)
        normed = np_layer_norm(s, formula.norm.gamma.data, formula.norm.beta.data, formula.norm.eps)
        return _linear(np.maximum(_linear(normed, formula.lin1), 0), formula.lin2) + s
    raise TypeError(f"unknown formula {formula!r}")


def ref_tree_eval(tree, leaves: list) -> np.ndarray:
    """Recursive reference evaluation of a built tree aggregator.

    Walks index ranges directly and pulls each node's parameters out of the
    aggregator in post-order, mirroring the construction convention but
    sharing no evaluation code with it.
    """
    counter = {"next": 0}

    def walk(lo: int, hi: int, is_root: bool) -> np.ndarray:
        if hi - lo == 1:
            return np.asarray(leaves[lo], dtype=np.float64)
        mid = (lo + hi) // 2
        left = walk(lo, mid, False)
        right = walk(mid, hi, False)
        node = tree.nodes[counter["next"]]
        counter["next"] += 1
        value = np_formula(node.formula, left, right)
        if node.residual:
            value = value + right
        return value

    out = walk(0, len(leaves), True)
    assert counter["next"] == len(tree.nodes)
    return out


def np_log_softmax(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    return z - zmax - np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True))


def exhaustive_search(model, source, alpha: float, max_len: int,
                      bos_id: int = 1, eos_id: int = 2, pad_id: int = 0):
    """Enumerate every decodable sequence and return the best-scoring one.

    Breadth-first over prefix length, scoring a whole depth level in one
    batched forward.  Finished sequences end with their first EOS within
    max_len tokens; length-max_len sequences with no EOS are unfinished
    fallbacks.  Scores divide by ((5 + len) / 6) ** alpha, mirroring the
    decoder's rule; ties prefer earlier finishes then smaller token tuples.
    """
    from treeformer.model import encode_source, forward_step

    cache = encode_source(model, source, pad_id)
    vocab = model.config.vocab_size
    finished = []
    unfinished = []

    def lp(length):
        return ((5.0 + length) / 6.0) ** alpha

    level = [((), 0.0)]   # EOS-free prefixes of the current length
    for depth in range(1, max_len + 1):
        prefixes = np.array([(bos_id,) + seq for seq, _ in level], dtype=np.int64)
        logp = forward_step(model, cache, prefixes)
        next_level = []
        for (seq, score), row in zip(level, logp):
            for tok in range(vocab):
                ext = seq + (tok,)
                ext_score = score + float(row[tok])
                if tok == eos_id:
                    finished.append((ext_score / lp(depth), depth, ext))
                elif depth == max_len:
                    unfinished.append((ext_score / lp(max_len), ext))
                else:
                    next_level.append((ext, ext_score))
        level = next_level

    if finished:
        best = min(finished, key=lambda item: (-item[0], item[1], item[2]))
        return list(best[2][:-1]), best[0], True
    best = min(unfinished, key=lambda item: (-item[0], item[1]))
    return list(best[1]), best[0], False


def np_vanilla_forward(model, batch) -> np.ndarray:
    """Plain-numpy teacher-forced forward of a structure='none' model.

    Re-derives the whole architecture from the parameter arrays: scaled
    tied embedding, sinusoidal positions, pre-norm blocks, final norms,
    transposed-embedding projection.
    """
    from treeformer.nn import sinusoidal_positions

    cfg = model.config
    emb = model.embedding.weight.data
    pe = sinusoidal_positions(cfg.max_len, cfg.d_model)

    def mha(block, q_in, k_in, v_in, visible):
        h = cfg.num_heads
        dh = cfg.d_model // h
        q = _linear(q_in, block.q_proj)
        k = _linear(k_in, block.k_proj)
        v = _linear(v_in, block.v_proj)
        b, tq, _ = q.shape
        tk = k.shape[1]
        out = np.zeros_like(q)
        for bi in range(b):
            for hi in range(h):
                sl = slice(hi * dh, (hi + 1) * dh)
                scores = q[bi, :, sl] @ k[bi, :, sl].T / math.sqrt(dh)
                scores = np.where(visible[bi], scores, -np.inf)
                zmax = scores.max(axis=-1, keepdims=True)
                w = np.exp(scores - zmax)
                w = w / w.sum(axis=-1, keepdims=True)
                out[bi, :, sl] = w @ v[bi, :, sl]
        return _linear(out, block.out_proj)

    def ln(x, norm):
        return np_layer_norm(x, norm.gamma.data, norm.beta.data, norm.eps)

    def ffn(x, block):
        return _linear(np.maximum(_linear(x, block.lin1), 0), block.lin2)

    src, tgt_in, pad = batch.src, batch.tgt_in, batch.pad_id
    x = emb[src] * math.sqrt(cfg.d_model) + pe[: src.shape[1]]
    src_vis = (src != pad)[:, None, :]
    for layer in model.encoder.layers:
        h = ln(x, layer.ln1)
        x = x + mha(layer.self_attn, h, h, h, src_vis)
        x = x + ffn(ln(x, layer.ln2), layer.ffn)
    memory = ln(x, model.encoder.norm)

    t = tgt_in.shape[1]
    causal = np.tril(np.ones((t, t), dtype=bool))
    tgt_vis = causal[None] & (tgt_in != pad)[:, None, :]
    y = emb[tgt_in] * math.sqrt(cfg.d_model) + pe[:t]
    for layer in model.decoder.layers:
        h = ln(y, layer.ln1)
        y = y + mha(layer.self_attn, h, h, h, tgt_vis)
        h = ln(y, layer.ln2)
        y = y + mha(layer.cross_attn, h, memory, memory, src_vis)
        y = y + ffn(ln(y, layer.ln3), layer.ffn)
    y = ln(y, model.decoder.norm)
    return y @ emb.T
