"""Beam search against greedy and brute-force enumeration oracles."""

import numpy as np
import pytest

from treeformer import decoding
from treeformer.decoding import beam_search, length_penalty
from treeformer.model import AggregationSpec, ModelConfig, build, encode_source, forward_step
from treeformer.tasks import BOS, EOS

from oracles import exhaustive_search


def toy_model(seed, vocab=6, structure="none"):
    config = ModelConfig(num_layers=2, d_model=8, num_heads=2, d_ff=16, vocab_size=vocab,
                         max_len=12, dropout=0.0, seed=seed,
                         aggregation=AggregationSpec(structure, "ewp_ffn", "both"))
    return build(config)


def greedy_reference(model, source, max_len):
    """Plain argmax loop; independent of the beam machinery."""
    cache = encode_source(model, source, 0)
    tokens = []
    for _ in range(max_len):
        prefix = np.array([BOS] + tokens, dtype=np.int64)
        logp = forward_step(model, cache, prefix)
        nxt = int(np.argmax(logp))
        if nxt == EOS:
            return tokens, True
        tokens.append(nxt)
    return tokens, False


class TestLengthPenalty:
    def test_alpha_zero_is_one(self):
        assert length_penalty(7, 0.0) == 1.0

    def test_reference_value(self):
        assert length_penalty(7, 0.6) == pytest.approx(2.0 ** 0.6)


class TestBeamSearch:
    def test_log_probs_are_nonpositive(self):
        model = toy_model(0)
        cache = encode_source(model, np.array([3, 4, 2]), 0)
        logp = forward_step(model, cache, np.array([BOS, 3], dtype=np.int64))
        assert (logp <= 0).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_beam_one_equals_greedy(self, seed):
        model = toy_model(seed)
        source = np.array([3, 4, 5, 2])
        result = beam_search(model, source, beam_size=1, alpha=0.6, max_len=6)
        expected_tokens, expected_finished = greedy_reference(model, source, 6)
        assert result.tokens == expected_tokens
        assert result.finished == expected_finished

    def test_alpha_zero_score_is_raw_log_prob(self):
        model = toy_model(1)
        source = np.array([3, 4, 2])
        result = beam_search(model, source, beam_size=3, alpha=0.0, max_len=5)
        cache = encode_source(model, source, 0)
        total = 0.0
        seq = result.tokens + ([EOS] if result.finished else [])
        for t, tok in enumerate(seq):
            prefix = np.array([BOS] + seq[:t], dtype=np.int64)
            total += float(forward_step(model, cache, prefix)[tok])
        assert result.score == pytest.approx(total, rel=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_exhaustive_beam_equals_enumeration(self, seed):
        model = toy_model(seed, vocab=6)
        source = np.array([3, 4, 2])
        max_len = 4
        result = beam_search(model, source, beam_size=6 ** max_len, alpha=0.6, max_len=max_len)
        tokens, score, finished = exhaustive_search(model, source, alpha=0.6, max_len=max_len)
        assert result.tokens == tokens
        assert result.finished == finished
        assert result.score == pytest.approx(score, rel=1e-9)

    def test_tied_candidates_kept_in_token_order_across_parents(self, monkeypatch):
        # step 1 ranks the live hypotheses against their token order; from step 2 every
        # candidate scores the same, so the kept ones must follow their token tuples
        # across parents, as a Python sort by (-log_prob, tokens) orders them
        vocab, beam, max_len = 6, 8, 3

        def tied_step(prefixes):
            if prefixes.shape[1] == 1:
                return (np.arange(vocab) * 0.25 - 4.0)[None, :].astype(np.float32)
            first = prefixes[:, 1] * 0.25 - 4.0
            offset = -8.0 - first if prefixes.shape[1] == 2 else np.full(len(prefixes), -1.0)
            return np.repeat(offset[:, None], vocab, axis=1).astype(np.float32)

        seen = []
        monkeypatch.setattr(decoding, "forward_step",
                            lambda model, cache, prefixes: seen.append(prefixes.tolist()) or tied_step(prefixes))
        result = beam_search(None, None, beam_size=beam, alpha=0.0, max_len=max_len, cache=object())

        live, expected, finished = [((), 0.0)], [], []
        for step in range(1, max_len + 1):
            prefixes = np.array([(BOS,) + tokens for tokens, _ in live], dtype=np.int64)
            expected.append(prefixes.tolist())
            logp = tied_step(prefixes)
            candidates = sorted(((tokens + (tok,), lp + float(logp[i, tok]))
                                 for i, (tokens, lp) in enumerate(live) for tok in range(vocab)),
                                key=lambda c: (-c[1], c[0]))[:beam]
            live = [c for c in candidates if c[0][-1] != EOS]
            finished += [c for c in candidates if c[0][-1] == EOS]
        assert seen == expected
        assert [row[1] for row in seen[1]] == [5, 4, 3, 1, 0]
        assert [tuple(row[1:]) for row in seen[2]] == [(0, 0), (0, 1), (0, 3), (0, 4), (0, 5), (1, 0), (1, 1)]
        best = min(finished, key=lambda c: (-c[1], len(c[0]), c[0]))
        assert result.tokens == list(best[0][:-1]) and result.score == best[1]

    @pytest.mark.parametrize("beam", [1, 4])
    def test_every_step_extends_the_cached_prefixes(self, beam, monkeypatch):
        # forward_step rebuilds every position when a parent is not cached; beam search extends
        # the previous step's prefixes, so each of its steps is one decode call (encode_source
        # uses encode, not decode)
        model = toy_model(3, structure="rtal")
        decodes, steps = [], []
        real_decode = type(model).decode
        monkeypatch.setattr(type(model), "decode",
                            lambda *args, **kwargs: decodes.append(1) or real_decode(*args, **kwargs))
        monkeypatch.setattr(decoding, "forward_step", lambda *args: steps.append(1) or forward_step(*args))
        sources = ([3, 4, 2], [5, 2], [4, 4, 5, 3, 2])
        for source in sources:
            beam_search(model, np.array(source), beam_size=beam, alpha=0.6, max_len=8)
        assert len(steps) > len(sources)
        assert len(decodes) == len(steps)

    def test_unfinished_flag_when_eos_unreachable(self):
        # scan for a model/seed pair whose greedy path never emits EOS in 2 steps
        for seed in range(40):
            model = toy_model(seed)
            result = beam_search(model, np.array([3, 4, 2]), beam_size=1, alpha=0.6, max_len=2)
            if not result.finished:
                assert len(result.tokens) == 2
                return
        pytest.skip("every scanned seed finished within 2 steps")

    def test_invalid_arguments(self):
        model = toy_model(0)
        with pytest.raises(ValueError):
            beam_search(model, np.array([3, 2]), beam_size=0)
        with pytest.raises(ValueError):
            beam_search(model, np.array([3, 2]), alpha=-1.0)
