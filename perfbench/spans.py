"""Span recorder and outside-in wrappers for the traced benchmark run.

The library is traced without editing it: each public entry point of a
layer is replaced by a wrapper that opens a span, calls the original and
closes the span.  Modules import names directly (``from .tensor import
matmul``), so a function is rebound in every ``treeformer`` module that
holds it, not only where it is defined.  ``record_op`` is looked up each
time a primitive runs, so wrapping it lets every backward rule be timed and
charged to the module scope that recorded it.

Spans stay in memory as parallel arrays and are written out once at the end.
A span's self time is its duration minus the part of it that its children
cover (children may overlap each other; their union is subtracted).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

_MARK = "__perfbench_wrapper__"
PACKAGE = "treeformer"

# Primitive kernels whose forward calls are timed; label_smoothed_ce records
# its own backward rule through record_op and is timed as nn.loss.
PRIMITIVES = ("matmul", "add", "mul_elementwise", "scale", "relu", "concat_last_dim",
              "embedding_lookup", "swap_axes", "reshape", "softmax_last_dim", "layer_norm")
BACKWARD_OPS = PRIMITIVES + ("label_smoothed_ce",)
# Module scopes a backward rule can be charged to; "model" is everything
# recorded outside them (position add, embedding scale, output projection).
BWD_SCOPES = ("aggregation", "attention", "ffn", "layer_norm", "embedding", "loss", "dropout", "model")
_NN_SCOPES = {"nn.attention": "attention", "nn.ffn": "ffn", "nn.layer_norm": "layer_norm",
              "nn.embedding": "embedding", "nn.loss": "loss", "nn.dropout": "dropout"}


class SpanRecorder:
    """In-memory spans: name, start, end, parent index, unit id and a tag.

    ``unit`` is the step or sentence the span belongs to; run.py
    advances it at each unit boundary.  Counters are kept per unit too.
    Columns are compact arrays because a traced decode run records several
    hundred thousand spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.table: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.tag_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.units = array("q")
        self.stack: List[int] = []
        self.unit = -1
        self.counts: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))

    def intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.table)
            self.table.append(name)
        return ident

    def name(self, index: int) -> str:
        return self.table[self.name_ids[index]]

    def __len__(self) -> int:
        return len(self.name_ids)

    def open(self, name: str, tag: Optional[str] = None) -> int:
        return self.open_id(self.intern(name), -1 if tag is None else self.intern(tag))

    def open_id(self, ident: int, tag_id: int = -1) -> int:
        """Open a span by interned name id; wrappers intern their name once."""
        stack = self.stack
        index = len(self.name_ids)
        self.name_ids.append(ident)
        self.tag_ids.append(tag_id)
        self.parents.append(stack[-1] if stack else -1)
        self.units.append(self.unit)
        self.ends.append(math.nan)
        stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        if not self.stack or self.stack[-1] != index:
            raise RuntimeError(f"span {self.name(index)!r} closed out of order")
        self.stack.pop()

    def close_all(self) -> None:
        while self.stack:
            self.close(self.stack[-1])

    def add(self, name: str, start: float, end: float, parent: int = -1, unit: int = 0) -> int:
        """Append a finished span directly, e.g. one measured elsewhere."""
        self.name_ids.append(self.intern(name))
        self.tag_ids.append(-1)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.units.append(unit)
        return len(self.name_ids) - 1

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name][self.unit] += value

    def innermost(self, prefix: str) -> Optional[str]:
        for index in reversed(self.stack):
            name = self.name(index)
            if name.startswith(prefix):
                return name
        return None

    def self_times(self, names: Optional[Sequence[str]] = None) -> Dict[int, float]:
        """Duration minus the union of its children's intervals, per span.

        Limited to spans called one of ``names`` when given.  Children are
        clipped to the parent's interval, and overlapping children are
        counted once.
        """
        wanted = None if names is None else {self._ids[n] for n in names if n in self._ids}
        children: Dict[int, List[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent >= 0 and (wanted is None or self.name_ids[parent] in wanted):
                children[parent].append(index)
        out = {}
        for index in range(len(self.name_ids)):
            if wanted is not None and self.name_ids[index] not in wanted:
                continue
            start, end = self.starts[index], self.ends[index]
            covered = 0.0
            reach = start
            for lo, hi in sorted((self.starts[c], self.ends[c]) for c in children.get(index, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[index] = (end - start) - covered
        return out

    def save(self, path) -> None:
        """Write every span and counter to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.table),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            tag_id=np.frombuffer(self.tag_ids, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            unit=np.frombuffer(self.units, dtype=np.int64),
            counts=np.array(json.dumps({k: {str(u): v for u, v in d.items()}
                                        for k, d in self.counts.items()})),
        )


def mark(wrapper):
    """Tag a wrapper so ``leftover_wrappers`` can find it if it is not removed."""
    setattr(wrapper, _MARK, True)
    return wrapper


def _timed(rec: SpanRecorder, name: str, fn, counter=None):
    ident = rec.intern(name)

    def wrapper(*args, **kwargs):
        index = rec.open_id(ident)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if counter is not None:
            counter(rec, args, result)
        return result
    wrapper.__wrapped__ = fn
    return mark(wrapper)


def _counting(rec: SpanRecorder, name: str, fn):
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return mark(wrapper)


def _bwd_scope(rec: SpanRecorder) -> str:
    """Scope a backward rule is charged to: everything under an aggregator is
    "aggregation", else the innermost nn module, else "model"."""
    scope = "model"
    for index in reversed(rec.stack):
        name = rec.name(index)
        if name.startswith("aggregation."):
            return "aggregation"
        if scope == "model" and name in _NN_SCOPES:
            scope = _NN_SCOPES[name]
    return scope


def _traced_record_op(rec: SpanRecorder, original, active_tape):
    def record_op(data, inputs, rule):
        if active_tape() is None:  # nothing is recorded, so there is no rule to time
            return original(data, inputs, rule)
        top = rec.name(rec.stack[-1]) if rec.stack else ""
        # a primitive calls record_op inside its own span; a fused op such as
        # label_smoothed_ce calls it directly and is named by its function
        op = top[len("tensor.fwd."):] if top.startswith("tensor.fwd.") else sys._getframe(1).f_code.co_name
        ident = rec.intern("tensor.bwd." + op)
        scope = rec.intern(_bwd_scope(rec))

        def timed_rule(g):
            index = rec.open_id(ident, scope)
            try:
                return rule(g)
            finally:
                rec.close(index)

        return original(data, inputs, timed_rule)
    record_op.__wrapped__ = original
    return mark(record_op)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


class Tracer:
    """Installs span wrappers on the treeformer package and removes them.

    Every rebinding is remembered as (namespace, attribute, original) so
    ``remove`` restores exactly what was there.
    """

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._saved: list = []

    def _rebind(self, original, wrapper) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> "Tracer":
        import importlib
        tensor = importlib.import_module(PACKAGE + ".tensor")
        nn = importlib.import_module(PACKAGE + ".nn")
        aggregation = importlib.import_module(PACKAGE + ".aggregation")
        model = importlib.import_module(PACKAGE + ".model")
        checkpoint = importlib.import_module(PACKAGE + ".checkpoint")
        tasks = importlib.import_module(PACKAGE + ".tasks")
        training = importlib.import_module(PACKAGE + ".training")
        decoding = importlib.import_module(PACKAGE + ".decoding")
        rec = self.rec

        def fn(module, attr, name, counter=None):
            original = getattr(module, attr)
            self._rebind(original, _timed(rec, name, original, counter))

        def method(cls, attr, name, counter=None):
            self._patch_method(cls, attr, _timed(rec, name, cls.__dict__[attr], counter))

        for op in PRIMITIVES:
            fn(tensor, op, "tensor.fwd." + op)
        self._rebind(tensor.record_op, _traced_record_op(rec, tensor.record_op, tensor._active_tape))
        method(tensor.Tape, "backward", "tensor.backward",
               lambda r, a, _: r.count("tensor.records", len(a[0])))

        method(nn.MultiHeadAttention, "__call__", "nn.attention")
        method(nn.FeedForward, "__call__", "nn.ffn")
        method(nn.LayerNorm, "__call__", "nn.layer_norm")
        method(nn.Embedding, "__call__", "nn.embedding")
        fn(nn, "dropout", "nn.dropout")
        fn(nn, "label_smoothed_ce", "nn.loss")

        for cls in (aggregation.TreeAggregator, aggregation.LinearCombination,
                    aggregation.IterativeCombination):
            method(cls, "apply", "aggregation.apply")
        for cls in (aggregation.MeanFormula, aggregation.ConcatFfnFormula,
                    aggregation.EwpFfnFormula):
            method(cls, "apply", "aggregation.formula")

        method(model.Seq2SeqModel, "encode", "model.encode")
        method(model.Seq2SeqModel, "decode", "model.decode")
        method(model.Seq2SeqModel, "forward_train", "model.forward_train")
        fn(model, "encode_source", "model.encode_source")

        def count_step(r, args, logp):
            prefixes = np.atleast_2d(np.asarray(args[2]))
            r.count("model.forward_step.rows", prefixes.shape[0])
            r.count("model.forward_step.positions", prefixes.size)
            if r.innermost("decoding.beam_search"):
                r.count("decoding.steps")
                r.count("decoding.candidates", logp.size)
        fn(model, "forward_step", "model.forward_step", count_step)

        fn(checkpoint, "save_checkpoint", "checkpoint.save",
           lambda r, a, _: r.count("checkpoint.save.bytes", os.path.getsize(a[0])))
        for attr, name in (("sample_pair", "tasks.pairs"), ("split_of", "tasks.draws")):
            self._patch_method(tasks.SyntheticTask, attr,
                               _counting(rec, name, tasks.SyntheticTask.__dict__[attr]))
        fn(training, "adam_step", "training.adam_step",
           lambda r, a, _: r.count("training.adam_step.tensors", len(a[1])))
        fn(decoding, "beam_search", "decoding.beam_search")
        return self

    def remove(self) -> None:
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()


def leftover_wrappers() -> List[str]:
    """Names in the package (module globals and class attributes) still wrapped."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, _MARK, False):
                        found.append(f"{module.__name__}.{attr}.{cattr}")
    return found


def per_layer_table() -> List[tuple]:
    """(name, unit, better) of every per-layer metric, in output order."""
    rows = [
        ("tasks.sample_batch.ms", "ms", "lower"),
        ("tasks.batch_tokens", "count", "higher"),
        ("tasks.accept_ratio", "ratio", "higher"),
    ]
    rows += [(f"training.step.{p}_ms", "ms", "lower") for p in ("data", "fwd", "bwd", "optim", "other")]
    rows += [("training.adam_step.ms", "ms", "lower"), ("training.adam_step.tensors", "count", "lower"),
             ("checkpoint.save.ms", "ms", "lower"), ("checkpoint.save.calls", "count", "lower"),
             ("checkpoint.save.bytes", "B", "lower"),
             ("model.encode.ms", "ms", "lower"), ("model.decode.ms", "ms", "lower"),
             ("model.encode_source.ms", "ms", "lower"), ("model.forward_step.ms", "ms", "lower"),
             ("model.forward_step.calls", "count", "lower"), ("model.forward_step.rows", "count", "lower"),
             ("model.forward_step.positions", "count", "lower")]
    for scope in ("attention", "ffn", "layer_norm", "embedding", "loss", "dropout"):
        rows += [(f"nn.{scope}.fwd_ms", "ms", "lower"), (f"nn.{scope}.calls", "count", "lower")]
    rows += [("aggregation.apply.encoder.ms", "ms", "lower"), ("aggregation.apply.decoder.ms", "ms", "lower"),
             ("aggregation.formula.ms", "ms", "lower"), ("aggregation.formula.calls", "count", "lower"),
             ("tensor.records_per_step", "count", "lower"), ("tensor.backward.ms", "ms", "lower")]
    for op in PRIMITIVES:
        rows += [(f"tensor.fwd.{op}.ms", "ms", "lower"), (f"tensor.fwd.{op}.calls", "count", "lower")]
    rows += [(f"tensor.bwd.{op}.ms", "ms", "lower") for op in BACKWARD_OPS]
    rows += [(f"tensor.bwd_scope.{scope}.ms", "ms", "lower") for scope in BWD_SCOPES]
    rows += [("decoding.beam_search.ms", "ms", "lower"), ("decoding.self_ms", "ms", "lower"),
             ("decoding.steps", "count", "lower"), ("decoding.candidates", "count", "lower"),
             ("trace.unit_ms", "ms", "lower"), ("trace.untraced_unit_ms", "ms", "lower"),
             ("trace.overhead_ratio", "ratio", "lower")]
    return rows


def layer_metrics(rec: SpanRecorder, first_unit: int) -> Dict[str, float]:
    """Per-unit means of span time (ms) and counts over units >= first_unit.

    Units are steps or sentences; the ``trace.*`` entries are filled in by
    run.py, which also runs the untraced comparison.
    """
    units = np.frombuffer(rec.units, dtype=np.int64)
    n_units = int(units.max(initial=-1)) - first_unit + 1
    if n_units < 1:
        raise ValueError("traced run completed no unit after warm-up")
    kept = units >= first_unit
    name_ids = np.frombuffer(rec.name_ids, dtype=np.int32)
    parents = np.frombuffer(rec.parents, dtype=np.int64)
    dur = (np.frombuffer(rec.ends) - np.frombuffer(rec.starts)) * 1e3
    ids = {name: i for i, name in enumerate(rec.table)}
    # split aggregator time by stack: its parent span is model.encode or model.decode
    if "aggregation.apply" in ids:
        enc, dec = len(ids), len(ids) + 1
        ids["aggregation.apply.encoder"], ids["aggregation.apply.decoder"] = enc, dec
        rows = np.nonzero(name_ids == ids["aggregation.apply"])[0]
        name_ids = name_ids.copy()
        name_ids[rows] = np.where(name_ids[parents[rows]] == ids.get("model.encode", -2), enc, dec)
    size = len(ids)
    ms_by_id = np.bincount(name_ids[kept], weights=dur[kept], minlength=size)
    calls_by_id = np.bincount(name_ids[kept], minlength=size)
    tag_ids = np.frombuffer(rec.tag_ids, dtype=np.int32)
    tagged = kept & (tag_ids >= 0)
    scope_by_id = np.bincount(tag_ids[tagged], weights=dur[tagged], minlength=size)

    def ms(name: str) -> float:
        return float(ms_by_id[ids[name]]) if name in ids else 0.0

    def calls(name: str) -> int:
        return int(calls_by_id[ids[name]]) if name in ids else 0

    def count(name: str) -> float:
        return sum(v for u, v in rec.counts.get(name, {}).items() if u >= first_unit)

    self_ms = 0.0
    if "decoding.beam_search" in ids:
        selfs = rec.self_times(["decoding.beam_search"])
        self_ms = sum(v for i, v in selfs.items() if rec.units[i] >= first_unit) * 1e3

    step = {"data": ms("tasks.sample_batch"), "fwd": ms("model.forward_train") + ms("nn.loss"),
            "bwd": ms("tensor.backward"), "optim": ms("training.adam_step")}
    step["other"] = ms("training.step") - sum(step.values()) if ms("training.step") else 0.0
    totals = {
        "tasks.sample_batch.ms": ms("tasks.sample_batch"),
        "tasks.batch_tokens": count("tasks.batch_tokens"),
        "training.adam_step.ms": ms("training.adam_step"),
        "training.adam_step.tensors": count("training.adam_step.tensors"),
        "checkpoint.save.ms": ms("checkpoint.save"),
        "checkpoint.save.calls": calls("checkpoint.save"),
        "checkpoint.save.bytes": count("checkpoint.save.bytes"),
        "model.forward_step.calls": calls("model.forward_step"),
        "model.forward_step.rows": count("model.forward_step.rows"),
        "model.forward_step.positions": count("model.forward_step.positions"),
        "aggregation.formula.calls": calls("aggregation.formula"),
        "tensor.records_per_step": count("tensor.records"),
        "decoding.self_ms": self_ms,
        "decoding.steps": count("decoding.steps"),
        "decoding.candidates": count("decoding.candidates"),
    }
    totals.update({f"training.step.{k}_ms": v for k, v in step.items()})
    for name in ("model.encode", "model.decode", "model.encode_source", "model.forward_step",
                 "aggregation.apply.encoder", "aggregation.apply.decoder", "aggregation.formula",
                 "tensor.backward", "decoding.beam_search"):
        totals[f"{name}.ms"] = ms(name)
    for scope in ("attention", "ffn", "layer_norm", "embedding", "loss", "dropout"):
        totals[f"nn.{scope}.fwd_ms"] = ms(f"nn.{scope}")
        totals[f"nn.{scope}.calls"] = calls(f"nn.{scope}")
    for op in PRIMITIVES:
        totals[f"tensor.fwd.{op}.ms"] = ms(f"tensor.fwd.{op}")
        totals[f"tensor.fwd.{op}.calls"] = calls(f"tensor.fwd.{op}")
    for op in BACKWARD_OPS:
        totals[f"tensor.bwd.{op}.ms"] = ms(f"tensor.bwd.{op}")
    for scope in BWD_SCOPES:
        totals[f"tensor.bwd_scope.{scope}.ms"] = float(scope_by_id[ids[scope]]) if scope in ids else 0.0
    out = {name: value / n_units for name, value in totals.items()}
    draws = count("tasks.draws")
    out["tasks.accept_ratio"] = count("tasks.pairs") / draws if draws else 0.0
    return out
