"""Encoder-decoder assembly with optional cross-layer aggregation.

With aggregation active, the aggregator root replaces the top-layer output
as the representation consumed downstream: the fused encoder state feeds
every decoder layer's cross-attention, and the fused decoder state feeds
the output projection.  Tree-shaped aggregators span the last
2^floor(log2(num_layers)) layers; the flat baselines span all layers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from . import aggregation
from .aggregation import tree_span  # noqa: F401  (public here as model.tree_span)
from .nn import (
    DecoderLayer,
    Embedding,
    EncoderLayer,
    LayerNorm,
    Packing,
    dropout,
    sinusoidal_positions,
)
from .tensor import Tensor, add, matmul, scale, transpose_last_two


class ConfigError(ValueError):
    """A model or experiment configuration violates its invariants."""


POSITIONS = ("encoder", "decoder", "both")


@dataclass
class AggregationSpec:
    structure: str = "none"   # none | linear | iterative | cnn_tree | rtal
    formula: str = "mean"     # mean | concat_ffn | ewp_ffn
    position: str = "both"    # encoder | decoder | both

    def validate(self) -> None:
        if self.structure not in aggregation.STRUCTURES:
            raise ConfigError(
                f"aggregation.structure must be one of {aggregation.STRUCTURES}, got {self.structure!r}"
            )
        if self.formula not in aggregation.FORMULAS:
            raise ConfigError(
                f"aggregation.formula must be one of {aggregation.FORMULAS}, got {self.formula!r}"
            )
        if self.position not in POSITIONS:
            raise ConfigError(
                f"aggregation.position must be one of {POSITIONS}, got {self.position!r}"
            )

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
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.inner_dim < 1:
            raise ConfigError(f"agg_inner_dim must be >= 1, got {self.agg_inner_dim}")
        if self.ln_eps <= 0:
            raise ConfigError(f"ln_eps must be positive, got {self.ln_eps}")
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
        raw = dict(raw)
        agg = raw.pop("aggregation", {})
        if isinstance(agg, dict):
            unknown = set(agg) - {"structure", "formula", "position"}
            if unknown:
                raise ConfigError(f"unknown aggregation field(s): {sorted(unknown)}")
            agg = AggregationSpec(**agg)
        unknown = set(raw) - {f for f in cls.__dataclass_fields__ if f != "aggregation"}
        if unknown:
            raise ConfigError(f"unknown model field(s): {sorted(unknown)}")
        return cls(aggregation=agg, **raw)


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


class Seq2SeqModel:
    """Tied-embedding Transformer with optional per-stack aggregators.

    Core parameters (embedding, layers, final norms) are initialized from
    one seed stream and aggregator parameters from a second, so builds that
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
        self.encoder_layers = [
            EncoderLayer(c.d_model, c.num_heads, c.d_ff, c.dropout, c.ln_eps, rng_core, dtype)
            for _ in range(c.num_layers)
        ]
        self.encoder_norm = LayerNorm(c.d_model, c.ln_eps, dtype)
        self.decoder_layers = [
            DecoderLayer(c.d_model, c.num_heads, c.d_ff, c.dropout, c.ln_eps, rng_core, dtype)
            for _ in range(c.num_layers)
        ]
        self.decoder_norm = LayerNorm(c.d_model, c.ln_eps, dtype)

        spec = c.aggregation
        span = _span_size(c)
        self.encoder_agg, self.decoder_agg = (
            aggregation.build_aggregator(spec.structure, spec.formula, span, c.d_model,
                                         c.inner_dim, c.dropout, c.ln_eps, rng_agg, dtype)
            if spec.active_on(side) else None
            for side in ("encoder", "decoder"))

    # -- parameters ---------------------------------------------------------

    def named_parameters(self) -> Iterator[Tuple[str, Tensor]]:
        yield "embedding.weight", self.embedding.weight
        for i, layer in enumerate(self.encoder_layers):
            yield from layer.named_parameters(f"encoder.layers.{i}")
        yield from self.encoder_norm.named_parameters("encoder.norm")
        if self.encoder_agg is not None:
            yield from self.encoder_agg.named_parameters("encoder.agg")
        for i, layer in enumerate(self.decoder_layers):
            yield from layer.named_parameters(f"decoder.layers.{i}")
        yield from self.decoder_norm.named_parameters("decoder.norm")
        if self.decoder_agg is not None:
            yield from self.decoder_agg.named_parameters("decoder.agg")

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
            p.data = np.asarray(value, dtype=self.dtype)

    # -- forward passes -----------------------------------------------------

    def _embed(self, ids: np.ndarray, pack: Packing, rng) -> Tensor:
        seq_len = ids.shape[-1]
        if seq_len > self.config.max_len:
            raise ConfigError(f"sequence length {seq_len} exceeds max_len {self.config.max_len}")
        x = scale(self.embedding(pack.gather(ids)), math.sqrt(self.config.d_model))
        x = add(x, Tensor(self.positions[pack.positions]))
        return dropout(x, self.config.dropout, rng)

    def _aggregate(self, agg, outputs, rng) -> Tensor:
        if agg is None:
            return outputs[-1]
        return agg.apply(outputs[-agg.num_inputs:], rng)

    def encode(self, src: np.ndarray, pad_id: int, rng=None, pack=None) -> Tuple[Tensor, np.ndarray]:
        """Run the encoder on the rows of ``pack`` (by default every slot);
        returns (memory, source visibility mask)."""
        src = np.asarray(src)
        visible = src != pad_id                       # (B, S)
        attn_mask = visible[:, None, None, :]         # (B, 1, 1, S)
        pack = pack or Packing(src.shape)
        x = self._embed(src, pack, rng)
        outputs = []
        for layer in self.encoder_layers:
            x = layer(x, attn_mask, rng, pack)
            outputs.append(x)
        top = self._aggregate(self.encoder_agg, outputs, rng)
        return self.encoder_norm(top), visible

    def decode(self, tgt_in: np.ndarray, memory: Optional[Tensor], src_visible: np.ndarray,
               pad_id: int, rng=None, cross_kv=None, packs=None) -> Tensor:
        """Run the decoder with causal+pad masking on the (target, source) ``packs`` (by default
        every slot); returns (B, T, vocab) logits, 0 at left-out slots.  ``cross_kv``, one (keys,
        values) pair per layer as ``encode_source`` caches them, replaces projecting ``memory``."""
        tgt_in = np.asarray(tgt_in)
        packs = packs or (Packing(tgt_in.shape), Packing(src_visible.shape))
        t = tgt_in.shape[-1]
        causal = np.tril(np.ones((t, t), dtype=bool))
        self_mask = causal[None, None, :, :] & (tgt_in != pad_id)[:, None, None, :]
        cross_mask = src_visible[:, None, None, :]
        y = self._embed(tgt_in, packs[0], rng)
        outputs = []
        for layer, kv in zip(self.decoder_layers, cross_kv or [None] * len(self.decoder_layers)):
            y = layer(y, memory, self_mask, cross_mask, rng, kv, packs)
            outputs.append(y)
        top = self._aggregate(self.decoder_agg, outputs, rng)
        y = self.decoder_norm(top)
        return packs[0].unpack(matmul(y, transpose_last_two(self.embedding.weight)))

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
    """What stepwise decoding needs of one source, computed once per sentence."""
    src_visible: np.ndarray   # (1, S)
    pad_id: int
    cross_kv: list            # per decoder layer: (K, V), each (1, S, d_model)


def encode_source(model: Seq2SeqModel, src, pad_id: int) -> EncodedSource:
    """Encode one source and project it through every layer's cross-attention keys and values."""
    src = np.atleast_2d(np.asarray(src))
    memory, visible = model.encode(src, pad_id)
    cross_kv = [tuple(t.data for t in layer.cross_attn.project_kv(memory, memory))
                for layer in model.decoder_layers]
    return EncodedSource(visible, pad_id, cross_kv)


def forward_step(model: Seq2SeqModel, source_cache: EncodedSource, prefix_tokens) -> np.ndarray:
    """Next-token log-probabilities for each prefix row.

    Re-runs the decoder over the whole prefix each call, on the cached
    cross-attention keys and values; with causal masking the last-position
    logits equal the matching teacher-forced slice.
    """
    prefixes = np.atleast_2d(np.asarray(prefix_tokens))
    if prefixes.shape[-1] < 1:
        raise ValueError("prefix must contain the start symbol")
    n = prefixes.shape[0]
    cross_kv = [tuple(Tensor(np.broadcast_to(a, (n,) + a.shape[1:])) for a in kv)
                for kv in source_cache.cross_kv]
    visible = np.broadcast_to(source_cache.src_visible, (n, source_cache.src_visible.shape[1]))
    logits = model.decode(prefixes, None, visible, source_cache.pad_id, cross_kv=cross_kv).data[:, -1, :]
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
