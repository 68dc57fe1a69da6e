"""Sequence-to-sequence Transformer with pluggable cross-layer aggregation."""

import os as _os

# Honor the thread cap before numpy is first imported; has no effect if
# numpy was already loaded by the embedding process.
_threads = _os.environ.get("TREEFORMER_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .tensor import (
    MaskError,
    NumericalError,
    ShapeError,
    Tape,
    Tensor,
    grad_check,
)
from .model import (
    AggregationSpec,
    ConfigError,
    ModelConfig,
    Seq2SeqModel,
    build,
    count_params,
    forward_step,
    forward_train,
    param_report,
)
from .checkpoint import CheckpointError
from .tasks import Batch, SyntheticTask, generate_task
from .training import AdamState, TrainingSpec, adam_init, adam_step, average_checkpoints, lr_schedule, train
from .decoding import BeamResult, Hypothesis, beam_search
from .metrics import bleu

__all__ = [
    "AdamState",
    "AggregationSpec",
    "Batch",
    "BeamResult",
    "CheckpointError",
    "ConfigError",
    "Hypothesis",
    "MaskError",
    "ModelConfig",
    "NumericalError",
    "Seq2SeqModel",
    "ShapeError",
    "SyntheticTask",
    "Tape",
    "Tensor",
    "TrainingSpec",
    "adam_init",
    "adam_step",
    "average_checkpoints",
    "beam_search",
    "bleu",
    "build",
    "count_params",
    "forward_step",
    "forward_train",
    "generate_task",
    "grad_check",
    "lr_schedule",
    "param_report",
    "train",
]
