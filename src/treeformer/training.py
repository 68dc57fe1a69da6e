"""Adam optimization, warmup schedule, and the training loop.

Every per-step random stream (batch sampling, dropout) is derived from
(seed, stream id, step), so a resumed run replays exactly the stream an
uninterrupted run would have seen and trajectories match bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, Dict, List, Optional

import numpy as np

from .checkpoint import Checkpoint, average_checkpoints, list_checkpoints, load_checkpoint, save_checkpoint
from .model import ConfigError, Seq2SeqModel, config_digest
from .nn import label_smoothed_ce
from .tasks import EOS, SyntheticTask, generate_task, make_batch, sample_batch
from .tensor import NumericalError, Tape, Tensor

_DATA_STREAM, _DROPOUT_STREAM = 101, 202

__all__ = [
    "AdamState",
    "TrainingSpec",
    "TrainResult",
    "adam_init",
    "adam_step",
    "average_checkpoints",
    "lr_schedule",
    "token_accuracy",
    "train",
]


# elements per in-place pass.  Whole-vector temporaries miss the cache: on a
# 2-core VM, Adam on the 518,150-scalar rtal model took 3.2 ms in one pass,
# 2.5 ms in 32K chunks, 2.1 ms in 64K and 2.2 ms in 128K
_CHUNK = 1 << 16


# glibc's <malloc.h> numbers for the two mallopt parameters ``_pin_heap`` sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _pin_heap() -> None:
    """Keep the memory one training step frees in the heap for the next, once per process.

    By default glibc serves blocks above a threshold with their own mmap and returns a free heap
    top to the system, so the next step faults those pages back in: at the acceptance config that
    was up to a few thousand minor faults per step.  Serving every block under 32 MiB from the heap
    and trimming it only above 1 GiB makes each step reuse what the last one freed; the cost is that
    the process keeps its high-water RSS.  Where the C library has no ``mallopt`` this does
    nothing."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


@dataclass
class AdamState:
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.98
    eps: ClassVar[float] = 1e-9
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    _flat: Optional["_FlatBuffers"] = field(default=None, init=False, repr=False, compare=False)


class _FlatBuffers:
    """The parameters, moments and gradients of one ``AdamState`` as four vectors.

    Every parameter's ``.data`` and every ``state.m[name]`` / ``state.v[name]``
    becomes a reshaped view into ``data``, ``m`` and ``v``; ``grads`` holds the
    same views of ``grad``, where ``adam_step`` gathers each step's gradients.
    """

    def __init__(self, state: AdamState, params: Dict[str, Tensor]):
        dtype = next(iter(params.values())).data.dtype if params else np.float32
        for name, p in params.items():
            if p.data.dtype != dtype:
                raise ValueError(f"parameter {name!r} is {p.data.dtype}, not {dtype} like "
                                 f"the others: Adam keeps all parameters in one vector")
        total = sum(p.data.size for p in params.values())
        self.data, self.m, self.v, self.grad = (np.empty(total, dtype) for _ in range(4))
        self.scratch = np.empty((2, min(total, _CHUNK)), dtype)
        self.views = []   # (data, m, v) views per parameter, in the order of params
        self.grads = []
        lo = 0
        for name, p in params.items():
            hi = lo + p.data.size
            d, m, v, g = (vec[lo:hi].reshape(p.data.shape) for vec in (self.data, self.m, self.v, self.grad))
            d[...] = p.data
            m[...] = state.m[name]
            v[...] = state.v[name]
            p.data, state.m[name], state.v[name] = d, m, v
            self.views.append((d, m, v))
            self.grads.append(g)
            lo = hi

    def current(self, state: AdamState, params: Dict[str, Tensor]) -> bool:
        """Whether every parameter's data and moments are still this object's views:
        a caller that rebinds one (``p.data = ...``, ``state.m[name] = ...``) detaches it."""
        return len(params) == len(self.views) and all(
            p.data is d and state.m[name] is m and state.v[name] is v
            for (name, p), (d, m, v) in zip(params.items(), self.views))


def adam_init(params: Dict[str, Tensor]) -> AdamState:
    state = AdamState()
    for name, p in params.items():
        # np.zeros, not the Python-level zeros_like: about 1.5 us less per call
        state.m[name] = np.zeros(p.data.shape, p.data.dtype)
        state.v[name] = np.zeros(p.data.shape, p.data.dtype)
    return state


def adam_step(state: AdamState, params: Dict[str, Tensor], lr: float) -> None:
    """One bias-corrected Adam update in place; missing grads count as zero.

    All or nothing: every gradient is checked before any state changes, so a
    non-finite gradient raises with the parameters, moments and step intact.

    The first call on a state moves the parameters and moments into one
    vector each (``_FlatBuffers``), and so does any call that finds one of
    them rebound since.  The update then runs as in-place passes over chunks
    of those vectors, in the per-tensor arithmetic order, bit for bit.
    All parameters must share one dtype, else ``ValueError`` names the first
    that does not.
    """
    flat = state._flat
    if flat is None or not flat.current(state, params):
        flat = state._flat = _FlatBuffers(state, params)
    for p, g in zip(params.values(), flat.grads):
        if p.grad is None:
            g.fill(0)
        else:
            g[...] = p.grad
    grad = flat.grad
    # one dot product screens every gradient: a NaN or inf entry makes it
    # non-finite.  So can finite entries whose squares overflow; they pass
    # the per-tensor scan and take the step
    with np.errstate(over="ignore", invalid="ignore"):
        screened = np.isfinite(grad @ grad)
    if not screened:
        for name, p in params.items():
            if p.grad is not None and not np.all(np.isfinite(p.grad)):
                raise NumericalError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps
    c1, c2 = 1.0 - b1, 1.0 - b2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for lo in range(0, grad.size, _CHUNK):
        g, m, v, data = (vec[lo:lo + _CHUNK] for vec in (grad, flat.m, flat.v, flat.data))
        num, den = flat.scratch[:, :g.size]
        # m = m*b1 + c1*g and v = v*b2 + (c2*g)*g
        m *= b1
        np.multiply(g, c1, out=num)
        m += num
        v *= b2
        np.multiply(g, c2, out=num)
        num *= g
        v += num
        # data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
        np.divide(m, bias1, out=num)
        num *= lr
        np.divide(v, bias2, out=den)
        np.sqrt(den, out=den)
        den += eps
        num /= den
        data -= num


def lr_schedule(step: int, d_model: int, warmup: int) -> float:
    """Inverse-sqrt schedule with linear warmup; continuous at the knee."""
    if step < 1 or warmup < 1:
        raise ValueError("lr_schedule needs step >= 1 and warmup >= 1")
    return d_model ** -0.5 * min(step ** -0.5, step * warmup ** -1.5)


def token_accuracy(logits: np.ndarray, targets: np.ndarray, pad_id: int) -> float:
    nonpad = targets != pad_id
    if not nonpad.any():
        return 0.0
    pred = logits.argmax(axis=-1)
    return float((pred == targets)[nonpad].mean())


@dataclass
class TrainingSpec:
    steps: int = 1000
    batch_tokens: int = 1024
    warmup: int = 400
    lr_factor: float = 1.0
    label_smoothing: float = 0.1
    checkpoint_every: int = 500
    log_every: int = 1

    def validate(self) -> None:
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_tokens < 4:
            raise ValueError(f"batch_tokens must be >= 4, got {self.batch_tokens}")
        if self.warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {self.warmup}")
        if not self.lr_factor > 0:
            raise ValueError(f"lr_factor must be > 0, got {self.lr_factor}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {self.checkpoint_every}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")


@dataclass
class TrainResult:
    final_step: int
    checkpoints: List[Path]
    metrics_path: Path
    final_loss: Optional[float]


def _step_rng(seed: int, stream: int, step: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream, step)))


def _checkpoint_path(ckpt_dir: Path, step: int) -> Path:
    return ckpt_dir / f"step_{step:06d}.ckpt"


def _optim_path(ckpt_dir: Path, step: int) -> Path:
    return ckpt_dir / f"step_{step:06d}.optim"


def _load_matching(path, digest: Optional[bytes]) -> Checkpoint:
    """Load a checkpoint, refusing one written under another model configuration."""
    ckpt = load_checkpoint(path)
    if digest is not None and ckpt.config_digest != digest:
        raise ConfigError(f"checkpoint {path} was produced by a different configuration")
    return ckpt


def _save_state(ckpt_dir: Path, model: Seq2SeqModel, state: AdamState, step: int, digest: bytes) -> Path:
    # the moments go first: resume picks the newest .ckpt, so every .ckpt
    # on disk must already have its .optim when a crash cuts the pair.  Step 0
    # has none: its moments are the zeros resume rebuilds with adam_init.
    if step:
        moments = {f"{kind}.{name}": getattr(state, kind)[name] for name in state.m for kind in "mv"}
        save_checkpoint(_optim_path(ckpt_dir, step), Checkpoint(params=moments, step=step, config_digest=digest))
    path = _checkpoint_path(ckpt_dir, step)
    save_checkpoint(path, Checkpoint(params=model.state_dict(), step=step, config_digest=digest))
    return path


def _metrics_up_to(path: Path, step: int) -> List[str]:
    """The lines of a metrics log up to ``step``: later steps are replayed on resume,
    and a torn last line (no newline) is dropped.  Any other unreadable line raises
    ``ConfigError`` naming the file and the line."""
    if not path.exists():
        return []
    kept = []
    for number, line in enumerate(path.read_bytes().splitlines(keepends=True), 1):
        if not line.endswith(b"\n"):
            continue
        try:
            if json.loads(line)["step"] <= step:
                kept.append(line.decode())
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{path} line {number} is not a metrics record: {exc}") from exc
    return kept


def train(model: Seq2SeqModel, task: SyntheticTask, spec: TrainingSpec, out_dir,
          seed: int = 0, resume: bool = False) -> TrainResult:
    """Train ``model`` on the task's train split, emitting run artifacts.

    Writes ``metrics.jsonl`` (one JSON object per logged step) and periodic
    checkpoints under ``checkpoints/``.  On loss divergence the run aborts
    with the last good checkpoint intact.
    """
    spec.validate()
    task.validate()
    _pin_heap()
    out_dir = Path(out_dir)
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.jsonl"
    digest = config_digest(model.config)
    params = model.parameters()

    state = adam_init(params)
    start_step = 0
    if resume:
        existing = list_checkpoints(ckpt_dir)
        if not existing:
            raise FileNotFoundError(f"no checkpoints to resume from in {ckpt_dir}")
        ckpt = _load_matching(existing[-1], digest)
        model.load_state(ckpt.params)
        if ckpt.step:
            optim = _load_matching(_optim_path(ckpt_dir, ckpt.step), digest)
            state.step = ckpt.step
            for name in params:
                state.m[name] = optim.params[f"m.{name}"].astype(model.dtype)
                state.v[name] = optim.params[f"v.{name}"].astype(model.dtype)
        start_step = ckpt.step
        kept = _metrics_up_to(metrics_path, start_step)
    else:
        _save_state(ckpt_dir, model, state, 0, digest)
        kept = []

    eps_ls = spec.label_smoothing
    final_loss = None
    with open(metrics_path, "w") as log:
        log.writelines(kept)
        for step in range(start_step + 1, spec.steps + 1):
            t0 = time.perf_counter()
            batch = sample_batch(task, "train", spec.batch_tokens, _step_rng(seed, _DATA_STREAM, step))
            drop_rng = _step_rng(seed, _DROPOUT_STREAM, step)
            with Tape() as tape:
                logits = model.forward_train(batch, rng=drop_rng)
                loss = label_smoothed_ce(logits, batch.tgt_out, eps_ls, batch.pad_id)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericalError(
                    f"training diverged at step {step}; last good checkpoint is preserved"
                )
            tape.backward(loss)
            lr = spec.lr_factor * lr_schedule(step, model.config.d_model, spec.warmup)
            adam_step(state, params, lr)
            for p in params.values():   # not model.zero_grad(), which walks the module tree
                p.grad = None
            final_loss = loss_value
            if step % spec.log_every == 0 or step == spec.steps:
                wall_ms = (time.perf_counter() - t0) * 1000.0
                log.write(json.dumps({
                    "step": step,
                    "loss": loss_value,
                    "token_accuracy": token_accuracy(logits.data, batch.tgt_out, batch.pad_id),
                    "lr": lr,
                    "wall_ms": round(wall_ms, 3),
                }) + "\n")
            if step % spec.checkpoint_every == 0 or step == spec.steps:
                _save_state(ckpt_dir, model, state, step, digest)

    return TrainResult(
        final_step=spec.steps,
        checkpoints=[Path(p) for p in list_checkpoints(ckpt_dir)],
        metrics_path=metrics_path,
        final_loss=final_loss,
    )


def evaluate_model(model: Seq2SeqModel, task: SyntheticTask, n_examples: int = 32,
                   beam_size: int = 4, alpha: float = 0.6, label_smoothing: float = 0.1,
                   seed: int = 0) -> Dict[str, float]:
    """Loss, token accuracy, BLEU, and exact-sequence accuracy on the task's valid split."""
    from .decoding import beam_search
    from .metrics import bleu, exact_match

    pairs = generate_task(task, "valid", n_examples, seed=seed)
    batch = make_batch(pairs)
    logits = model.forward_train(batch)
    loss = label_smoothed_ce(logits, batch.tgt_out, label_smoothing, batch.pad_id)
    max_len = min(model.config.max_len, task.max_len + 2)
    decoded = [
        beam_search(model, np.array(src + (EOS,)), beam_size=beam_size, alpha=alpha,
                    max_len=max_len).tokens
        for src, _ in pairs
    ]
    references = [list(tgt) for _, tgt in pairs]
    return {
        "loss": loss.item(),
        "token_accuracy": token_accuracy(logits.data, batch.tgt_out, batch.pad_id),
        "bleu": bleu(decoded, references),
        "exact_match": exact_match(decoded, references),
    }


def averaged_model_checkpoint(run_dir, k: int, strict: bool = True,
                              digest: Optional[bytes] = None) -> Checkpoint:
    """Average the last ``k`` checkpoints of a run directory.

    With ``strict=False``, the step-0 checkpoint (the random initialisation)
    is left out unless it is the only one, and fewer than k checkpoints are
    averaged instead of failing.  With ``digest``, every averaged checkpoint
    must carry that config digest, else ``ConfigError`` names it.  ``k`` must be >= 1.
    """
    if k < 1:
        raise ConfigError(f"must average the last k >= 1 checkpoints, got k = {k}")
    ckpt_dir = Path(run_dir) / "checkpoints"
    paths = list_checkpoints(ckpt_dir)
    if not paths:
        raise FileNotFoundError(f"no checkpoints in {run_dir}")
    if not strict and len(paths) > 1 and paths[0] == str(_checkpoint_path(ckpt_dir, 0)):
        paths = paths[1:]
    if len(paths) < k:
        if strict:
            raise ValueError(f"requested last {k} checkpoints but only {len(paths)} exist")
        k = len(paths)
    return average_checkpoints([_load_matching(p, digest) for p in paths[-k:]])
