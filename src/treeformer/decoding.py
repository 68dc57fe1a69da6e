"""Beam-search decoding with length-penalty scoring.

At every step each live hypothesis is expanded over the full vocabulary and
the ``beam_size`` best candidates by cumulative log-probability survive;
candidates ending in EOS move to the finished pool.  Finished hypotheses
are ranked by log-probability divided by ((5 + length) / 6) ** alpha, with
ties broken by earlier finish and then by token order.  With beam width
covering every candidate this is exhaustive search; with beam width 1 it is
greedy decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .model import EncodedSource, Seq2SeqModel, encode_source, forward_step
from .tasks import BOS, EOS, PAD


@dataclass(frozen=True)
class Hypothesis:
    tokens: Tuple[int, ...]       # generated tokens, EOS included once finished
    log_prob: float
    finished: bool
    finish_step: Optional[int] = None


def length_penalty(length: int, alpha: float) -> float:
    return ((5.0 + length) / 6.0) ** alpha


@dataclass
class BeamResult:
    tokens: List[int]             # generated tokens without the EOS terminator
    score: float                  # normalized log-probability
    finished: bool


def _normalized(h: Hypothesis, alpha: float, max_len: int) -> float:
    length = len(h.tokens) if h.finished else max_len
    return h.log_prob / length_penalty(length, alpha)


def beam_search(model: Seq2SeqModel, source, beam_size: int = 4, alpha: float = 0.6,
                max_len: int = 32, cache: Optional[EncodedSource] = None) -> BeamResult:
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
    if alpha < 0:
        raise ValueError(f"length penalty alpha must be >= 0, got {alpha}")
    if cache is None:
        cache = encode_source(model, source, PAD)

    live: List[Hypothesis] = [Hypothesis(tokens=(), log_prob=0.0, finished=False)]
    finished: List[Hypothesis] = []
    for step in range(1, max_len + 1):
        prefixes = np.array([(BOS,) + h.tokens for h in live], dtype=np.int64)
        logp = forward_step(model, cache, prefixes)   # (n_live, vocab)
        n, vocab = logp.shape
        # every candidate scored at once (in float64, as adding Python floats would), then
        # one sort by (-score, tokens): live tuples share a length, so ordering by parent
        # tuple and then by the new token orders the candidates' token tuples
        scores = (np.array([h.log_prob for h in live])[:, None] + logp).ravel()
        parent, tok = np.divmod(np.arange(n * vocab), vocab)
        rank = np.empty(n, dtype=np.int64)
        rank[sorted(range(n), key=lambda i: live[i].tokens)] = np.arange(n)
        kept = np.lexsort((tok, rank[parent], -scores))[:beam_size]
        parents = live
        live = []
        for i in kept.tolist():
            h, t = parents[i // vocab], i % vocab
            done = t == EOS
            (finished if done else live).append(
                Hypothesis(h.tokens + (t,), float(scores[i]), done, step if done else None))
        if not live:
            break

    if finished:
        best = min(finished, key=lambda h: (-_normalized(h, alpha, max_len), h.finish_step, h.tokens))
        return BeamResult(tokens=list(best.tokens[:-1]), score=_normalized(best, alpha, max_len), finished=True)
    best = min(live, key=lambda h: (-_normalized(h, alpha, max_len), h.tokens))
    return BeamResult(tokens=list(best.tokens), score=_normalized(best, alpha, max_len), finished=False)
