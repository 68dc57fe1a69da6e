"""Synthetic task generation, split discipline, batch layout."""

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from treeformer import tasks
from treeformer.tasks import BOS, EOS, PAD, Batch, SyntheticTask, generate_task, make_batch, sample_batch


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block after ``seconds``, so a sampling loop that never ends
    fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestGeneration:
    def test_copy_reverse_sort_targets(self):
        src = (3, 7, 2)
        assert SyntheticTask(kind="copy").target_for(src) == (3, 7, 2)
        assert SyntheticTask(kind="reverse").target_for(src) == (2, 7, 3)
        assert SyntheticTask(kind="sort").target_for(src) == (2, 3, 7)

    def test_same_seed_identical_corpus(self):
        task = SyntheticTask(kind="copy", vocab_size=16, min_len=3, max_len=8, seed=4)
        assert generate_task(task, "train", 50) == generate_task(task, "train", 50)

    def test_different_splits_disjoint_sources(self):
        task = SyntheticTask(kind="copy", vocab_size=10, min_len=3, max_len=5, seed=0)
        train = {src for src, _ in generate_task(task, "train", 400)}
        valid = {src for src, _ in generate_task(task, "valid", 200)}
        test = {src for src, _ in generate_task(task, "test", 200)}
        assert not train & test
        assert not train & valid
        assert not valid & test

    def test_split_partition_is_stable_across_seeds(self):
        task = SyntheticTask(kind="copy", vocab_size=10, min_len=3, max_len=5, seed=0)
        test = {src for src, _ in generate_task(task, "test", 200)}
        train_other_seed = {src for src, _ in generate_task(task, "train", 400, seed=999)}
        assert not test & train_other_seed

    def test_lengths_respect_range(self):
        task = SyntheticTask(vocab_size=16, min_len=4, max_len=6, seed=1)
        for src, _ in generate_task(task, "train", 100):
            assert 4 <= len(src) <= 6
            assert all(3 <= t < 16 for t in src)

    def test_split_without_sources_raises(self):
        # one symbol, lengths 1..2: both sources, (3,) and (3, 3), fall in the train split
        task = SyntheticTask(vocab_size=4, min_len=1, max_len=2)
        with deadline(20), pytest.raises(ValueError, match=r"SyntheticTask\(.*max_len=2.*'valid' split"):
            generate_task(task, "valid", 1)
        assert generate_task(task, "train", 2) == [((3, 3), (3, 3))] * 2

    def test_batch_from_split_without_sources_raises(self):
        # the one source, (3,) * 13, falls in the valid split
        task = SyntheticTask(vocab_size=4, min_len=13, max_len=13)
        with deadline(20), pytest.raises(ValueError, match="'train' split"):
            sample_batch(task, "train", 64, np.random.default_rng(0))

    def test_reachability_check_leaves_draws_unchanged(self, monkeypatch):
        task = SyntheticTask(kind="copy", vocab_size=6, min_len=1, max_len=3, seed=5)
        expected = generate_task(task, "valid", 30)
        monkeypatch.setattr(tasks, "_DRAWS_BEFORE_CHECK", 1)
        assert generate_task(task, "valid", 30) == expected

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTask(kind="shuffle").validate()


class TestBatches:
    def test_make_batch_layout(self):
        batch = make_batch([((5, 6), (6, 5)), ((7,), (7,))])
        np.testing.assert_array_equal(batch.src, [[5, 6, EOS], [7, EOS, PAD]])
        np.testing.assert_array_equal(batch.tgt_in, [[BOS, 6, 5], [BOS, 7, PAD]])
        np.testing.assert_array_equal(batch.tgt_out, [[6, 5, EOS], [7, EOS, PAD]])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            make_batch([])

    def test_sample_batch_respects_budget(self):
        task = SyntheticTask(vocab_size=16, min_len=3, max_len=8, seed=2)
        rng = np.random.default_rng(0)
        batch = sample_batch(task, "train", 128, rng)
        total = int((batch.src != PAD).sum() + (batch.tgt_out != PAD).sum())
        assert total <= 128 + 2 * (8 + 1)
        assert batch.num_target_tokens > 0

    def test_sample_batch_deterministic(self):
        task = SyntheticTask(vocab_size=16, min_len=3, max_len=8, seed=2)
        a = sample_batch(task, "train", 64, np.random.default_rng(3))
        b = sample_batch(task, "train", 64, np.random.default_rng(3))
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.tgt_out, b.tgt_out)
