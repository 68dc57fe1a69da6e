"""Synthetic sequence-to-sequence tasks and batch construction.

Split membership is a structural partition of the source space (a CRC of
the raw token bytes), so train/valid/test are disjoint by construction no
matter which seeds draw the samples: a source sequence belongs to exactly
one split, and sampling simply rejects draws that fall outside the
requested one.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

PAD, BOS, EOS = 0, 1, 2
N_SPECIAL = 3

KINDS = ("copy", "reverse", "sort")
_SPLIT_BUCKETS = 20   # test: bucket 0, valid: bucket 1, train: the rest
_SPLITS = ("train", "valid", "test")
_DRAWS_BEFORE_CHECK = 1000   # rejections in a row before sample_pair asks whether the split is reachable


@dataclass(frozen=True)
class SyntheticTask:
    kind: str = "copy"
    vocab_size: int = 16      # model vocabulary, specials included
    min_len: int = 3
    max_len: int = 12
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"task kind must be one of {KINDS}, got {self.kind!r}")
        if self.vocab_size < N_SPECIAL + 1:
            raise ValueError(f"vocab_size must leave room for payload symbols, got {self.vocab_size}")
        if self.vocab_size > 256:
            raise ValueError("vocab_size above 256 is not supported")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError(f"invalid length range [{self.min_len}, {self.max_len}]")
        if self.seed < 0:
            raise ValueError(f"task.seed must be >= 0, got {self.seed}")

    def target_for(self, src: Tuple[int, ...]) -> Tuple[int, ...]:
        if self.kind == "copy":
            return tuple(src)
        if self.kind == "reverse":
            return tuple(reversed(src))
        return tuple(sorted(src))

    def split_of(self, src: Tuple[int, ...]) -> str:
        bucket = zlib.crc32(bytes(src)) % _SPLIT_BUCKETS
        if bucket == 0:
            return "test"
        if bucket == 1:
            return "valid"
        return "train"

    def sample_pair(self, split: str, rng: np.random.Generator) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Draw one (source, target) pair belonging to ``split``."""
        if split not in _SPLITS:
            raise ValueError(f"split must be one of {_SPLITS}, got {split!r}")
        for draws in itertools.count(1):
            length = int(rng.integers(self.min_len, self.max_len + 1))
            src = tuple(int(t) for t in rng.integers(N_SPECIAL, self.vocab_size, size=length))
            if self.split_of(src) == split:
                return src, self.target_for(src)
            if draws % _DRAWS_BEFORE_CHECK == 0 and not _reachable(self, split):
                raise ValueError(f"{self} has no source in the {split!r} split")


def _reachable(task: SyntheticTask, split: str) -> bool:
    """Whether any source of ``task`` falls in ``split``.  The search stops at the first such
    source, which comes within a few dozen in all but a tiny source space."""
    return any(task.split_of(src) == split for length in range(task.min_len, task.max_len + 1)
               for src in itertools.product(range(N_SPECIAL, task.vocab_size), repeat=length))


def generate_task(task: SyntheticTask, split: str, count: int, seed=None) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Deterministic corpus of (source, target) pairs for one split."""
    task.validate()
    entropy = task.seed if seed is None else seed
    rng = np.random.default_rng(np.random.SeedSequence((entropy, _SPLITS.index(split))))
    return [task.sample_pair(split, rng) for _ in range(count)]


@dataclass
class Batch:
    """Padded token-id matrices plus the pad id the masks derive from."""
    src: np.ndarray       # (B, S) source tokens, EOS-terminated, pad-filled
    tgt_in: np.ndarray    # (B, T) BOS + target
    tgt_out: np.ndarray   # (B, T) target + EOS
    pad_id: int = PAD

    @property
    def num_target_tokens(self) -> int:
        return int((self.tgt_out != self.pad_id).sum())


def make_batch(pairs: List[Tuple[Tuple[int, ...], Tuple[int, ...]]], pad_id: int = PAD) -> Batch:
    if not pairs:
        raise ValueError("cannot build an empty batch")
    s_len = max(len(src) for src, _ in pairs) + 1   # room for EOS
    t_len = max(len(tgt) for _, tgt in pairs) + 1   # room for BOS / EOS
    n = len(pairs)
    src = np.full((n, s_len), pad_id, dtype=np.int64)
    tgt_in = np.full((n, t_len), pad_id, dtype=np.int64)
    tgt_out = np.full((n, t_len), pad_id, dtype=np.int64)
    for i, (s, t) in enumerate(pairs):
        src[i, : len(s)] = s
        src[i, len(s)] = EOS
        tgt_in[i, 0] = BOS
        tgt_in[i, 1 : len(t) + 1] = t
        tgt_out[i, : len(t)] = t
        tgt_out[i, len(t)] = EOS
    return Batch(src=src, tgt_in=tgt_in, tgt_out=tgt_out, pad_id=pad_id)


def sample_batch(task: SyntheticTask, split: str, token_budget: int, rng: np.random.Generator) -> Batch:
    """Accumulate pairs until the source+target token budget is reached."""
    pairs = []
    used = 0
    while True:
        src, tgt = task.sample_pair(split, rng)
        cost = len(src) + 1 + len(tgt) + 1
        if pairs and used + cost > token_budget:
            break
        pairs.append((src, tgt))
        used += cost
        if used >= token_budget:
            break
    return make_batch(pairs)
