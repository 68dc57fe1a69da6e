"""Encoder-decoder assembly with optional cross-layer aggregation.

The model is one ``Module`` tree (an embedding, an encoder ``Stack`` and a decoder ``Stack``), so
an attribute path names every parameter (``decoder.agg.nodes.2.beta``).  A stack runs its layers,
fuses their outputs and applies its final norm: with aggregation active, the aggregator root
replaces the top-layer output as the representation consumed downstream, so the fused encoder
state feeds every decoder layer's cross-attention and the fused decoder state feeds the output
projection.  Tree-shaped aggregators span the last 2^floor(log2(num_layers)) layers; the flat
baselines span all layers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import aggregation
from .aggregation import tree_span  # noqa: F401  (public here as model.tree_span)
from .nn import (
    DROPOUT_RATE_LIMIT,
    AttentionMask,
    DecoderLayer,
    Embedding,
    EncoderLayer,
    LayerNorm,
    Module,
    Packing,
    dropout,
    sinusoidal_positions,
    tied_logits,
)
from .tensor import Tensor, add, scale


class ConfigError(ValueError):
    """A model or experiment configuration violates its invariants."""


POSITIONS = ("encoder", "decoder", "both")
# The axes of an aggregation setting and the values each may take.
AXES = {"structure": aggregation.STRUCTURES, "formula": aggregation.FORMULAS, "position": POSITIONS}


# what a config value may be, by the type of its field's default (None: ``agg_inner_dim``)
_ACCEPTED = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string"),
             type(None): ((int, type(None)), "an integer or null")}


def check_type(value, default, name: str):
    """``value`` if the field ``name``, whose default is ``default``, accepts it (a bool is
    never a number, nor is NaN or an infinity); otherwise ``ConfigError`` names the field."""
    accepted, kind = _ACCEPTED[type(default)]
    if isinstance(value, bool) or not isinstance(value, accepted) or \
            (isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    return value


def from_section(cls, raw, name: str = ""):
    """Build the dataclass ``cls`` from the config section ``raw`` at the dotted path ``name``
    ("" for a whole experiment).  Unknown fields and values of the wrong type (``check_type``)
    are a ``ConfigError``; a nested dataclass field is built from its own section."""
    prefix = f"{name}." if name else ""
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = sorted(prefix + key for key in set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown field(s): {unknown}")
    values = {}
    for f in fields(cls):
        if f.name in raw:
            default = f.default_factory() if f.default is MISSING else f.default
            value, where = raw[f.name], prefix + f.name
            values[f.name] = (from_section(type(default), value, where) if is_dataclass(default)
                              else check_type(value, default, where))
    return cls(**values)


@dataclass
class AggregationSpec:
    structure: str = "none"   # none | linear | iterative | cnn_tree | rtal
    formula: str = "mean"     # mean | concat_ffn | ewp_ffn
    position: str = "both"    # encoder | decoder | both

    def validate(self) -> None:
        for axis, values in AXES.items():
            if getattr(self, axis) not in values:
                raise ConfigError(f"aggregation.{axis} must be one of {values}, got {getattr(self, axis)!r}")

    def active_on(self, side: str) -> bool:
        return self.structure != "none" and self.position in (side, "both")


@dataclass
class ModelConfig:
    num_layers: int = 4            # encoder depth == decoder depth
    d_model: int = 64
    num_heads: int = 4
    d_ff: int = 256
    vocab_size: int = 16           # includes pad/bos/eos
    max_len: int = 64
    dropout: float = 0.1
    aggregation: AggregationSpec = field(default_factory=AggregationSpec)
    agg_inner_dim: Optional[int] = None   # hidden width of aggregation FFNs; None -> d_model
    ln_eps: float = 1e-6
    seed: int = 0

    @property
    def inner_dim(self) -> int:
        return self.d_model if self.agg_inner_dim is None else self.agg_inner_dim

    def validate(self) -> None:
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.d_model < 1 or self.num_heads < 1 or self.d_model % self.num_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} must be a positive multiple of num_heads {self.num_heads}"
            )
        if self.d_ff < 1:
            raise ConfigError(f"d_ff must be >= 1, got {self.d_ff}")
        if self.vocab_size < 4:
            raise ConfigError(f"vocab_size must be >= 4 (pad/bos/eos plus symbols), got {self.vocab_size}")
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
        if not 0.0 <= self.dropout < DROPOUT_RATE_LIMIT:
            raise ConfigError(f"dropout must be in [0, 1 - 2**-17), got {self.dropout}")
        if self.inner_dim < 1:
            raise ConfigError(f"agg_inner_dim must be >= 1, got {self.agg_inner_dim}")
        if self.ln_eps <= 0:
            raise ConfigError(f"ln_eps must be positive, got {self.ln_eps}")
        if self.seed < 0:
            raise ConfigError(f"model.seed must be >= 0, got {self.seed}")
        self.aggregation.validate()
        span = _span_size(self)
        if self.aggregation.structure in aggregation.TREES and span < 2:
            raise ConfigError(
                "tree aggregation requires a 2^n layer span with n >= 1; "
                f"num_layers={self.num_layers} leaves a span of {span}"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        return from_section(cls, raw, "model")


def config_digest(config: ModelConfig) -> bytes:
    """Stable 32-byte digest of the architectural configuration."""
    payload = json.dumps(config.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(payload).digest()


def _span_size(config: ModelConfig) -> int:
    return aggregation.input_span(config.aggregation.structure, config.num_layers)


def aggregated_span(config: ModelConfig) -> Optional[Tuple[int, int]]:
    """1-based inclusive (first, last) layer range fed to the aggregator."""
    span = _span_size(config)
    return (config.num_layers - span + 1, config.num_layers) if span else None


class Stack(Module):
    """Layers, then a final ``norm`` of the top layer's output or, with an aggregator ``agg``, of
    its fusion of the top ``agg.num_inputs`` outputs: the fused root replaces the top output."""

    def __init__(self, layers: List[Module], norm: LayerNorm, agg: Optional[Module]):
        self.layers, self.norm, self.agg = layers, norm, agg

    def __call__(self, x: Tensor, run: Callable[[int, Module, Tensor], Tensor], rng=None) -> Tensor:
        """``run(i, layer, x)`` applies layer i to x."""
        outputs = [x]   # agg.num_inputs <= len(layers), so the input is never fused
        for i, layer in enumerate(self.layers):
            outputs.append(run(i, layer, outputs[-1]))
        top = outputs[-1] if self.agg is None else self.agg.apply(outputs[-self.agg.num_inputs:], rng)
        return self.norm(top)


class Seq2SeqModel(Module):
    """Tied-embedding Transformer: an embedding, an encoder ``Stack`` and a decoder ``Stack``.

    Core parameters (the embedding, every encoder layer, then every decoder layer) are drawn from
    one seed stream and aggregator parameters (encoder, then decoder) from a second, so builds that
    differ only in aggregation share bit-identical core initialization.
    """

    def __init__(self, config: ModelConfig, dtype=np.float32):
        config.validate()
        self.config = config
        self.dtype = dtype
        rng_core = np.random.default_rng(np.random.SeedSequence((config.seed, 0)))
        rng_agg = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))

        c = config
        self.embedding = Embedding(c.vocab_size, c.d_model, rng_core, dtype)
        self.positions = sinusoidal_positions(c.max_len, c.d_model).astype(dtype)
        layers = [[cls(c.d_model, c.num_heads, c.d_ff, c.dropout, c.ln_eps, rng_core, dtype)
                   for _ in range(c.num_layers)] for cls in (EncoderLayer, DecoderLayer)]
        spec = c.aggregation
        self.encoder, self.decoder = (
            Stack(side_layers, LayerNorm(c.d_model, c.ln_eps, dtype),
                  aggregation.build_aggregator(spec.structure, spec.formula, _span_size(c), c.d_model,
                                               c.inner_dim, c.dropout, c.ln_eps, rng_agg, dtype)
                  if spec.active_on(side) else None)
            for side, side_layers in zip(("encoder", "decoder"), layers))

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> Dict[str, Tensor]:
        return dict(self.named_parameters())

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.grad = None

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data for name, p in self.named_parameters()}

    def load_state(self, state: Dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if set(state) != set(params):
            missing = sorted(set(params) - set(state))
            extra = sorted(set(state) - set(params))
            raise ConfigError(f"state does not match model: missing={missing} extra={extra}")
        for name, value in state.items():
            p = params[name]
            if tuple(value.shape) != tuple(p.data.shape):
                raise ConfigError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs model {p.data.shape}"
                )
            p.data[...] = value   # into the live array: it may be a view of Adam's flat vector

    # -- forward passes -----------------------------------------------------

    def _check_length(self, seq_len: int) -> None:
        if seq_len > self.config.max_len:
            raise ConfigError(f"sequence length {seq_len} exceeds max_len {self.config.max_len}")

    def _embed(self, ids: np.ndarray, positions, rng) -> Tensor:
        """Scaled token embeddings plus ``positions`` (an index or a slice) of the position table."""
        x = scale(self.embedding(ids), math.sqrt(self.config.d_model))
        x = add(x, Tensor(self.positions[positions]))
        return dropout(x, self.config.dropout, rng)

    def encode(self, src: np.ndarray, pad_id: int, rng=None, pack=None) -> Tuple[Tensor, np.ndarray]:
        """Run the encoder on the rows of ``pack`` (by default every slot);
        returns (memory, source visibility mask)."""
        src = np.asarray(src)
        visible = src != pad_id                       # (B, S)
        attn_mask = AttentionMask.of(visible[:, None, None, :], self.dtype)
        pack = pack or Packing(src.shape)
        self._check_length(src.shape[-1])
        x = self._embed(pack.gather(src), pack.positions, rng)
        return self.encoder(x, lambda i, layer, x: layer(x, attn_mask, rng, pack), rng), visible

    def decode(self, tgt_in: np.ndarray, memory: Optional[Tensor], src_visible: np.ndarray,
               pad_id: int, rng=None, cross_kv=None, packs=None, self_kv=None) -> Tensor:
        """Run the decoder with causal+pad masking on the (target, source) ``packs`` (by default
        every slot); returns (B, T, vocab) logits, 0 at left-out slots.  ``cross_kv``, one (keys,
        values) pair per layer as ``encode_source`` caches them, replaces projecting ``memory``.

        ``self_kv``, one [keys, values] list per layer holding the self-attention keys and values
        of the first T - 1 positions, makes the call incremental: only position T - 1 runs, on
        every key of the prefix that is not PAD, each list is extended in place with its keys and
        values, and the (B, 1, vocab) logits of that position are returned."""
        tgt_in = np.asarray(tgt_in)
        t = tgt_in.shape[-1]
        self._check_length(t)
        self_mask = (tgt_in != pad_id)[:, None, None, :]
        if self_kv is None:
            packs = packs or (Packing(tgt_in.shape), Packing(src_visible.shape))
            self_mask = np.tril(np.ones((t, t), dtype=bool)) & self_mask
            y = self._embed(packs[0].gather(tgt_in), packs[0].positions, rng)
        else:
            y = self._embed(tgt_in[:, t - 1:], slice(t - 1, t), rng)
        self_mask = AttentionMask.of(self_mask, self.dtype)
        cross_mask = AttentionMask.of(src_visible[:, None, None, :], self.dtype)
        y = self.decoder(y, lambda i, layer, y: layer(
            y, memory, self_mask, cross_mask, rng, cross_kv and cross_kv[i], packs, self_kv and self_kv[i]), rng)
        logits = tied_logits(y, self.embedding.weight)
        return logits if self_kv is not None else packs[0].unpack(logits)

    def forward_train(self, batch, rng=None) -> Tensor:
        """Teacher-forced forward pass on real rows only (non-pad sources; targets with a
        non-pad input or output); returns (B, T, vocab) logits, 0 where the target is pad."""
        pad = batch.pad_id
        src_pack = Packing.of(batch.src != pad)
        tgt_pack = Packing.of((batch.tgt_in != pad) | (batch.tgt_out != pad))
        memory, src_visible = self.encode(batch.src, pad, rng, src_pack)
        return self.decode(batch.tgt_in, memory, src_visible, pad, rng, packs=(tgt_pack, src_pack))


def build(config: ModelConfig, dtype=np.float32) -> Seq2SeqModel:
    return Seq2SeqModel(config, dtype)


def forward_train(model: Seq2SeqModel, batch, rng=None) -> Tensor:
    return model.forward_train(batch, rng)


@dataclass
class EncodedSource:
    """What stepwise decoding needs of one source, computed once per sentence, plus the
    decoder self-attention keys and values of the prefixes of one length.

    ``forward_step`` on length-t prefixes runs only position t - 1 of each, on the keys and
    values cached for its length t - 1 parent, and then keeps the length-t ones in place of
    every other length: beam search and the exhaustive oracle extend every prefix by one
    token per step, so one length is all the next step reads.  If any parent is not cached,
    the step rebuilds every row from position 1 instead.
    """
    src_visible: np.ndarray   # (1, S)
    pad_id: int
    cross_kv: list            # per decoder layer: (K, V), each (1, S, d_model)
    depth: int = field(default=0, init=False)   # length of the prefixes in ``rows``
    rows: dict = field(default_factory=dict, init=False)     # prefix tuple -> its row in ``self_kv``
    self_kv: list = field(default_factory=list, init=False)  # per layer: [K, V], each (rows, depth, d_model)
    # per row count: ``cross_kv`` broadcast to that many rows
    _cross_rows: dict = field(default_factory=dict, init=False, repr=False)

    def cross_rows(self, n: int) -> list:
        kv = self._cross_rows.get(n)
        if kv is None:
            kv = self._cross_rows[n] = [tuple(np.broadcast_to(a, (n,) + a.shape[1:]) for a in pair)
                                        for pair in self.cross_kv]
        return kv


def encode_source(model: Seq2SeqModel, src, pad_id: int) -> EncodedSource:
    """Encode one source and project it through every layer's cross-attention keys and values."""
    src = np.atleast_2d(np.asarray(src))
    memory, visible = model.encode(src, pad_id)
    cross_kv = [layer.cross_attn.project_kv(memory) for layer in model.decoder.layers]
    return EncodedSource(visible, pad_id, cross_kv)


def forward_step(model: Seq2SeqModel, source_cache: EncodedSource, prefix_tokens) -> np.ndarray:
    """Next-token log-probabilities for each prefix row.

    If ``source_cache`` holds every row's parent (the prefix less its last token), only the
    newest position runs, on the parents' self-attention keys and values; otherwise positions
    1..t run in turn over all rows from an empty cache.  The result equals the matching
    teacher-forced slice up to rounding (its products have fewer rows, so they may round
    differently).
    """
    prefixes = np.atleast_2d(np.asarray(prefix_tokens))
    if prefixes.shape[-1] < 1:
        raise ValueError("prefix must contain the start symbol")
    model._check_length(prefixes.shape[-1])
    n, t = prefixes.shape
    keys = list(map(tuple, prefixes.tolist()))
    cache = source_cache
    if cache.depth == t - 1 and all(key[:-1] in cache.rows for key in keys):
        index = np.array([cache.rows[key[:-1]] for key in keys])
        past, first = [[k[index], v[index]] for k, v in cache.self_kv], t
    else:
        empty = np.empty((n, 0, model.config.d_model), dtype=model.dtype)
        past, first = [[empty, empty] for _ in model.decoder.layers], 1
    for s in range(first, t + 1):
        logits = model.decode(prefixes[:, :s], None, cache.src_visible, cache.pad_id,
                              cross_kv=cache.cross_rows(n), self_kv=past).data[:, 0, :]
    cache.depth, cache.self_kv, cache.rows = t, past, {key: i for i, key in enumerate(keys)}
    zmax = logits.max(axis=-1, keepdims=True)
    logp = logits - zmax - np.log(np.exp(logits - zmax).sum(axis=-1, keepdims=True))
    if np.asarray(prefix_tokens).ndim == 1:
        return logp[0]
    return logp


# -- parameter accounting ----------------------------------------------------

def param_report(config: ModelConfig) -> dict:
    """Closed-form itemized count of trainable scalars, straight from config."""
    config.validate()
    d, f, v = config.d_model, config.d_ff, config.vocab_size
    attn = 4 * d * d + 3 * d   # q/v/out projections carry biases, k does not
    ffn = d * f + f + f * d + d
    ln = 2 * d
    enc_layer = attn + ffn + 2 * ln
    dec_layer = 2 * attn + ffn + 3 * ln

    spec = config.aggregation
    per_stack_agg = aggregation.aggregator_param_count(
        spec.structure, spec.formula, _span_size(config), d, config.inner_dim)
    enc_agg = per_stack_agg if spec.active_on("encoder") else 0
    dec_agg = per_stack_agg if spec.active_on("decoder") else 0

    components = {
        "embedding": v * d,
        "encoder_layers": config.num_layers * enc_layer,
        "decoder_layers": config.num_layers * dec_layer,
        "final_norms": 2 * ln,
        "encoder_aggregation": enc_agg,
        "decoder_aggregation": dec_agg,
    }
    report = {
        "total": sum(components.values()),
        "components": components,
        "per_encoder_layer": enc_layer,
        "per_decoder_layer": dec_layer,
    }
    span_range = aggregated_span(config)
    if span_range is not None:
        report["aggregated_span"] = list(span_range)
    return report


def count_params(config: ModelConfig) -> int:
    return param_report(config)["total"]
