"""Dense tensors with reverse-mode automatic differentiation.

Operations execute eagerly on numpy arrays.  While a ``Tape`` is active and
any operand requires gradients, each operation also appends a backward rule
to the tape; ``Tape.backward`` replays the rules in reverse execution order,
which is a valid topological order by construction.

Elementwise broadcasting is deliberately restricted: the smaller operand's
shape must be a trailing suffix of the larger one (i.e. broadcasting happens
over leading batch dimensions only).  This keeps every backward rule a plain
sum over leading axes.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, Optional, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes do not conform to the operation's contract."""


class MaskError(ValueError):
    """An attention mask left a softmax row with no visible position."""


class NumericalError(ArithmeticError):
    """A non-finite value appeared where the computation requires finiteness."""


class Tensor:
    """Dense n-dimensional value, optionally participating in gradient taping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":  # the cheap form of np.issubdtype(..., np.floating)
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.data.shape}")
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class Tape:
    """Ordered record of executed operations for one backward pass.

    A tape is confined to the thread that opened it.  Records are
    (output, inputs, rule) triples where ``rule`` maps the output gradient
    to one gradient per input (``None`` for non-differentiable slots).
    """

    def __init__(self):
        self._records: list = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _tape_stack().pop()
        return False

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every requires_grad ancestor of ``loss``."""
        if loss.data.ndim != 0:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not self._records:
            raise ValueError("backward on an empty tape")
        loss.grad = np.ones_like(loss.data)
        for out, inputs, rule in reversed(self._records):
            gout = out.grad
            if gout is None:
                continue
            grads = rule(gout)
            for tensor, g in zip(inputs, grads):
                if g is None or not tensor.requires_grad:
                    continue
                tensor.grad = g if tensor.grad is None else tensor.grad + g


def _active_tape() -> Optional[Tape]:
    stack = _tape_stack()
    return stack[-1] if stack else None


def record_op(data: np.ndarray, inputs: Sequence[Tensor], rule: Callable) -> Tensor:
    """Wrap an op result, recording ``rule`` if a tape is active and needed.

    Exposed so composite operations (e.g. fused losses) can register a
    hand-derived backward rule instead of composing primitives.
    """
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out = Tensor(data, requires_grad=True)
        tape._records.append((out, tuple(inputs), rule))
        return out
    return Tensor(data)


def _check_suffix_broadcast(a_shape: tuple, b_shape: tuple) -> None:
    if a_shape == b_shape:
        return
    small, big = (a_shape, b_shape) if len(a_shape) < len(b_shape) else (b_shape, a_shape)
    if len(small) == len(big) or big[len(big) - len(small):] != small:
        raise ShapeError(
            f"shapes {a_shape} and {b_shape} do not conform: elementwise ops "
            "broadcast only over leading batch dimensions"
        )


# per dtype, a vector of ones that ``sum_rows`` slices, first 4096 long; it is never written, and
# a longer ``g`` replaces it with one twice that length
_ONES: Dict[np.dtype, np.ndarray] = {}


def sum_rows(g: np.ndarray) -> np.ndarray:
    """Column sums of the 2-D ``g`` as one ``ones @ g`` GEMV: numpy's sum over a leading axis
    runs several times slower on the short rows of a (tokens, d_model) gradient."""
    n = len(g)
    ones = _ONES.get(g.dtype)
    if ones is None or len(ones) < n:
        ones = _ONES[g.dtype] = np.ones(max(2 * n, 4096), dtype=g.dtype)
    return ones[:n] @ g


def _sum_to_suffix(shape: tuple, g: np.ndarray) -> np.ndarray:
    """Reduce a gradient to ``shape`` by summing broadcast leading axes."""
    extra = g.ndim - len(shape)
    if extra:
        g = sum_rows(g.reshape(math.prod(g.shape[:extra]), math.prod(shape))).reshape(shape)
    return g


# ---------------------------------------------------------------------------
# Primitive kernels
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """``a`` times the weight matrix ``b``: one 2-D GEMM over a's leading axes flattened into rows,
    in both directions.  ``bias`` (shape ``(n,)``) is added in the same taped op, as ``add`` would,
    so an affine layer is one tape record."""
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim != 2:
        raise ShapeError(f"matmul needs a rank >= 2 left and a 2-D right operand, got {a.shape} x {b.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if bias is not None and bias.data.shape != bd.shape[1:]:
        raise ShapeError(f"matmul bias {bias.shape} does not fit right operand {b.shape}")
    rows = ad.reshape(-1, ad.shape[-1])
    out = rows @ bd
    if bias is not None:
        out += bias.data
    out = out.reshape(ad.shape[:-1] + bd.shape[1:])

    def rule(g):
        g2 = g.reshape(-1, g.shape[-1])
        ga, gb = (g2 @ bd.T).reshape(ad.shape), rows.T @ g2
        return (ga, gb) if bias is None else (ga, gb, _sum_to_suffix(bd.shape[1:], g))

    return record_op(out, (a, b) if bias is None else (a, b, bias), rule)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_broadcast(a.data.shape, b.data.shape)
    a_shape, b_shape = a.data.shape, b.data.shape

    def rule(g):
        return _sum_to_suffix(a_shape, g), _sum_to_suffix(b_shape, g)

    return record_op(a.data + b.data, (a, b), rule)


def mul_elementwise(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_broadcast(a.data.shape, b.data.shape)
    ad, bd = a.data, b.data

    def rule(g):
        return _sum_to_suffix(ad.shape, g * bd), _sum_to_suffix(bd.shape, g * ad)

    return record_op(ad * bd, (a, b), rule)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)

    def rule(g):
        return (g * s,)

    return record_op(a.data * s, (a,), rule)


def relu(a: Tensor) -> Tensor:
    ad = a.data

    def rule(g):
        return (g * (ad > 0),)

    return record_op(np.maximum(ad, 0), (a,), rule)


def concat_last_dim(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != b.data.ndim or a.data.shape[:-1] != b.data.shape[:-1]:
        raise ShapeError(f"concat operands must agree on all but the last dim: {a.shape} vs {b.shape}")
    split = a.data.shape[-1]

    def rule(g):
        return g[..., :split], g[..., split:]

    return record_op(np.concatenate([a.data, b.data], axis=-1), (a, b), rule)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding ids must be integers")
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got shape {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"token id out of range [0, {table.data.shape[0]}) in embedding lookup"
        )
    vocab, dim = table.data.shape

    def rule(g):
        # one GEMM: one-hot rows (ids x vocab) transposed times the gradient rows
        flat = ids.reshape(-1)
        one_hot = (flat[:, None] == np.arange(vocab)).astype(g.dtype)
        return (one_hot.T @ g.reshape(-1, dim),)

    return record_op(table.data[ids], (table,), rule)


# kept for the benchmark's tracer, which wraps it by name (perfbench/spans.py PRIMITIVES)
def swap_axes(a: Tensor, axis1: int, axis2: int) -> Tensor:
    def rule(g):
        return (g.swapaxes(axis1, axis2),)

    return record_op(a.data.swapaxes(axis1, axis2), (a,), rule)


# kept for the benchmark's tracer, which wraps it by name (perfbench/spans.py PRIMITIVES)
def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} (size {a.data.size}) to {shape}")
    old = a.data.shape

    def rule(g):
        return (g.reshape(old),)

    return record_op(a.data.reshape(shape), (a,), rule)


def sum_all(a: Tensor) -> Tensor:
    ad = a.data

    def rule(g):
        return (g * np.ones_like(ad),)

    return record_op(np.asarray(ad.sum(), dtype=ad.dtype), (a,), rule)


def softmax_last_dim(x: Tensor, mask=None) -> Tensor:
    """Numerically stabilized softmax over the last axis.

    ``mask`` is a boolean array broadcastable to x's shape; True marks a
    visible position.  Masked positions come out exactly 0.  A row with no
    visible position signals a malformed attention mask and raises.
    """
    z = x.data
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), z.shape)
        if not m.any(axis=-1).all():
            raise MaskError("softmax row is fully masked")
        z = np.where(m, z, -np.inf)
    zmax = z.max(axis=-1, keepdims=True)
    e = np.exp(z - zmax)
    y = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return record_op(y, (x,), rule)


def layer_norm_forward(x: np.ndarray, gamma: np.ndarray, beta_shift: np.ndarray, eps: float):
    """Layer norm of the array ``x`` over its last axis: (output, xhat, inv), where xhat is the
    standardized input and inv the per-row 1 / std; ``layer_norm_backward`` takes the last two."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta_shift.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/shift must have shape ({d},), got {gamma.shape} and {beta_shift.shape}"
        )
    if eps <= 0:
        raise ValueError("layer_norm eps must be positive")
    # centre once; the same sums and divisions as x.mean and x.var, so the same bits
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=-1, keepdims=True) / d + eps)
    xhat = xc * inv
    return xhat * gamma + beta_shift, xhat, inv


def layer_norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gamma: np.ndarray):
    """(dx, dgamma, dbeta) of a layer norm given its output gradient ``g``."""
    d = g.shape[-1]
    dgamma = sum_rows((g * xhat).reshape(-1, d))
    dbeta = sum_rows(g.reshape(-1, d))
    dxhat = g * gamma
    # row means as (rows, d) @ (d, 1) GEMVs: numpy's mean over a short
    # last axis reduces one row at a time, about ten times slower
    mean_col = np.full((d, 1), 1.0 / d, dtype=dxhat.dtype)

    def row_mean(a):
        return (a.reshape(-1, d) @ mean_col).reshape(inv.shape)

    dx = inv * (dxhat - row_mean(dxhat) - xhat * row_mean(dxhat * xhat))
    return dx, dgamma, dbeta


def layer_norm(x: Tensor, gamma: Tensor, beta_shift: Tensor, eps: float = 1e-6) -> Tensor:
    """Standardize over the last axis, then apply learned scale and shift."""
    gdata = gamma.data
    out, xhat, inv = layer_norm_forward(x.data, gdata, beta_shift.data, eps)
    return record_op(out, (x, gamma, beta_shift), lambda g: layer_norm_backward(g, xhat, inv, gdata))


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def projected(y: Tensor, seed: int) -> Tensor:
    """``y`` contracted with a fixed standard-normal projection drawn from ``seed``, so the
    scalar's gradient exercises the full jacobian even where ``y`` has constant reductions
    (softmax rows, for instance)."""
    w = np.random.default_rng(seed).standard_normal(y.data.shape)
    return sum_all(mul_elementwise(y, Tensor(w)))


def check_param_grads(loss_fn, params: Dict[str, Tensor], step: float = 1e-5) -> Dict[str, float]:
    """Per-tensor max relative error of tape gradients against central differences.

    ``loss_fn()`` must be a deterministic scalar Tensor reading the live ``params``: one tape
    pass gives the analytic gradients, then each coordinate is perturbed in place by +-step.
    Returns, per name, max_i |analytic_i - numeric_i| / max(|analytic_i|, |numeric_i|, 1e-8).
    """
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    errors = {}
    for name, p in params.items():
        x = p.data
        analytic = p.grad if p.grad is not None else np.zeros_like(x)
        # indexed in place, not through reshape(-1), which copies an x that is not C-ordered
        # (np.array of a broadcast view is not): the copy's perturbations never reach loss_fn
        numeric = np.zeros(x.shape, dtype=x.dtype)
        for i in np.ndindex(x.shape):
            orig = x[i]
            x[i] = orig + step
            hi = loss_fn().item()
            x[i] = orig - step
            lo = loss_fn().item()
            x[i] = orig
            numeric[i] = (hi - lo) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        rel = np.abs(analytic - numeric) / denom
        errors[name] = float(rel.max()) if rel.size else 0.0
    return errors


def grad_check(f, x, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients of ``f`` at ``x``:
    ``check_param_grads`` of the seed-0 projection of the deterministic Tensor -> Tensor
    function ``f`` at a double-precision probe of ``x``."""
    probe = Tensor(np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64),
                   requires_grad=True)
    return check_param_grads(lambda: projected(f(probe), 0), {"x": probe}, step)["x"]
