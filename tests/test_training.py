"""Adam, the warmup schedule, checkpoint averaging, and the training loop."""

import json
import math
import platform
import sys

import numpy as np
import pytest

from treeformer.checkpoint import Checkpoint, average_checkpoints, list_checkpoints, load_checkpoint
from treeformer.model import AggregationSpec, ConfigError, ModelConfig, build, config_digest
from treeformer.tasks import SyntheticTask
from treeformer import training
from treeformer.tensor import NumericalError, Tensor
from treeformer.training import (
    TrainingSpec,
    adam_init,
    adam_step,
    averaged_model_checkpoint,
    lr_schedule,
    train,
)

DIGEST = b"\x00" * 32


def read_metrics(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def strip_wall(rows):
    return [{k: v for k, v in row.items() if k != "wall_ms"} for row in rows]


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(2, dtype=np.float32)
        params = {"p": p}
        state = adam_init(params)
        before = p.data.copy()
        adam_step(state, params, lr=0.5)
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_hand_value(self):
        p = Tensor(np.array(0.0, dtype=np.float64), requires_grad=True)
        p.grad = np.array(1.0)
        params = {"p": p}
        state = adam_init(params)
        adam_step(state, params, lr=0.1)
        assert float(p.data) == pytest.approx(-0.1, abs=1e-8)

    def test_nan_gradient_aborts_naming_parameter(self):
        p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        p.grad = np.array([np.nan, 0.0], dtype=np.float32)
        params = {"embedding.weight": p}
        with pytest.raises(NumericalError, match="embedding.weight"):
            adam_step(params=params, state=adam_init(params), lr=0.1)

    def test_nan_in_last_parameter_changes_no_state(self):
        rng = np.random.default_rng(4)
        params = {name: Tensor(rng.standard_normal(3).astype(np.float32), requires_grad=True)
                  for name in ("a", "b", "c")}
        state = adam_init(params)
        for p in params.values():
            p.grad = rng.standard_normal(3).astype(np.float32)
        adam_step(state, params, lr=0.1)   # non-zero moments to compare against
        params["c"].grad = np.array([0.0, np.nan, 0.0], dtype=np.float32)

        def snapshot():
            return {n: (p.data.copy(), state.m[n].copy(), state.v[n].copy()) for n, p in params.items()}

        before = snapshot()
        with pytest.raises(NumericalError, match="'c'"):
            adam_step(state, params, lr=0.1)
        assert state.step == 1
        after = snapshot()
        for name in params:
            for saved, live in zip(before[name], after[name]):
                np.testing.assert_array_equal(live, saved)

    def test_identical_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(5)
            p = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
            params = {"p": p}
            state = adam_init(params)
            for _ in range(20):
                p.grad = rng.standard_normal(4).astype(np.float32)
                adam_step(state, params, lr=0.01)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_update_magnitude_bound(self):
        rng = np.random.default_rng(6)
        p = Tensor(rng.standard_normal(8).astype(np.float64), requires_grad=True)
        params = {"p": p}
        state = adam_init(params)
        lr = 0.05
        for t in range(1, 40):
            p.grad = rng.standard_normal(8) * 10 ** rng.uniform(-2, 2)
            before = p.data.copy()
            adam_step(state, params, lr)
            correction = math.sqrt(1 - state.beta2 ** t) / (1 - state.beta1 ** t)
            assert np.abs(p.data - before).max() <= lr * (1 + correction)


def reference_adam_step(state, params, lr):
    """The per-tensor Adam loop, kept as the bit-for-bit reference for ``adam_step``."""
    for name, p in params.items():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            raise NumericalError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** t
    bias2 = 1.0 - b2 ** t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
        p.data = p.data - update.astype(p.data.dtype)


def _rtal_params():
    config, _ = _toy_setup(structure="rtal", formula="ewp_ffn")
    return build(config).parameters()


def _twin(params):
    """Copies of ``params`` and a fresh state for each, to run beside the reference."""
    ref = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}
    return adam_init(params), ref, adam_init(ref)


def _set_grads(rng, params, ref=None, none_rate=0.0):
    """Random gradients (``None`` at ``none_rate``) for ``params`` and copies for ``ref``."""
    for name, p in params.items():
        g = None if rng.random() < none_rate else rng.standard_normal(p.data.shape).astype(p.data.dtype)
        p.grad = g
        if ref is not None:
            ref[name].grad = None if g is None else g.copy()


def _assert_same(state, params, ref_state, ref):
    assert state.step == ref_state.step
    for name, p in params.items():
        np.testing.assert_array_equal(p.data, ref[name].data)
        np.testing.assert_array_equal(state.m[name], ref_state.m[name])
        np.testing.assert_array_equal(state.v[name], ref_state.v[name])


class TestFlatAdam:
    @pytest.mark.parametrize("make_params, none_rate", [
        (_rtal_params, 0.2),
        (lambda: {"w": Tensor(np.random.default_rng(8).standard_normal((5, 3)), requires_grad=True)}, 0.0),
    ], ids=["rtal-float32", "single-float64"])
    def test_matches_per_tensor_loop(self, make_params, none_rate):
        params = make_params()
        state, ref, ref_state = _twin(params)
        rng = np.random.default_rng(9)
        for step in range(1, 51):
            _set_grads(rng, params, ref, none_rate)
            lr = lr_schedule(step, 16, 10)
            adam_step(state, params, lr)
            reference_adam_step(ref_state, ref, lr)
            _assert_same(state, params, ref_state, ref)

    def test_parameters_and_moments_are_views_of_one_vector_each(self):
        params = _rtal_params()
        state = adam_init(params)
        _set_grads(np.random.default_rng(10), params)
        adam_step(state, params, 0.01)
        first = next(iter(params))
        vectors = [params[first].data.base, state.m[first].base, state.v[first].base]
        total = sum(p.data.size for p in params.values())
        assert [vec.shape for vec in vectors] == [(total,)] * 3
        assert not any(np.shares_memory(a, b) for i, a in enumerate(vectors) for b in vectors[i + 1:])
        for name, p in params.items():
            for array, vec in zip((p.data, state.m[name], state.v[name]), vectors):
                assert np.shares_memory(array, vec), name

    def test_rebound_arrays_are_flattened_again(self):
        params = _rtal_params()
        state, ref, ref_state = _twin(params)
        rng = np.random.default_rng(11)
        names = list(params)
        for step in range(1, 31):
            if step == 10:   # a caller rebinds one parameter to fresh values
                fresh = rng.standard_normal(params[names[3]].data.shape).astype(np.float32)
                params[names[3]].data, ref[names[3]].data = fresh, fresh.copy()
            if step == 20:   # and resume rebinds the moments
                fresh = rng.random(params[names[-1]].data.shape).astype(np.float32)
                state.v[names[-1]], ref_state.v[names[-1]] = fresh, fresh.copy()
            _set_grads(rng, params, ref, 0.1)
            adam_step(state, params, 0.01)
            reference_adam_step(ref_state, ref, 0.01)
            _assert_same(state, params, ref_state, ref)
        assert np.shares_memory(params[names[3]].data, params[names[0]].data.base)
        assert np.shares_memory(state.v[names[-1]], state.v[names[0]].base)

    def test_inf_pair_in_last_parameter_changes_no_state(self):
        params = _rtal_params()
        state = adam_init(params)
        rng = np.random.default_rng(12)
        _set_grads(rng, params)
        adam_step(state, params, 0.01)   # flattened, with non-zero moments
        _set_grads(rng, params)
        last = list(params)[-1]
        bad = params[last].grad.reshape(-1)
        bad[0], bad[-1] = np.inf, -np.inf
        before = {n: (p.data.copy(), state.m[n].copy(), state.v[n].copy()) for n, p in params.items()}
        with pytest.raises(NumericalError, match=f"'{last}'"):
            adam_step(state, params, 0.01)
        assert state.step == 1
        for name, p in params.items():
            for saved, live in zip(before[name], (p.data, state.m[name], state.v[name])):
                np.testing.assert_array_equal(live, saved)

    def test_finite_gradients_whose_sum_overflows_take_the_step(self):
        params = {n: Tensor(np.ones(3, np.float32), requires_grad=True) for n in "ab"}
        state, ref, ref_state = _twin(params)
        for p in (*params.values(), *ref.values()):
            p.grad = np.array([3e38, 0.5, 3e38], np.float32)
        with np.errstate(over="ignore"):   # g * g overflows v to inf, so those entries stay put
            adam_step(state, params, 0.01)
            reference_adam_step(ref_state, ref, 0.01)
        _assert_same(state, params, ref_state, ref)
        assert state.step == 1 and params["a"].data[1] < 1

    def test_mixed_dtypes_name_the_parameter(self):
        params = {"a": Tensor(np.zeros(2, np.float32), requires_grad=True),
                  "b": Tensor(np.zeros(2, np.float64), requires_grad=True)}
        with pytest.raises(ValueError, match="'b'"):
            adam_step(adam_init(params), params, 0.01)

    def test_load_state_copies_into_the_live_arrays(self):
        config, _ = _toy_setup(structure="rtal", formula="ewp_ffn")
        model = build(config)
        snapshot = {n: v.copy() for n, v in model.state_dict().items()}
        params = model.parameters()
        state = adam_init(params)
        _set_grads(np.random.default_rng(13), params)
        adam_step(state, params, 0.01)
        live = {n: p.data for n, p in params.items()}
        model.load_state(snapshot)
        for name, p in params.items():
            assert p.data is live[name]
            np.testing.assert_array_equal(p.data, snapshot[name])

class TestSchedule:
    def test_continuity_at_warmup_knee(self):
        warmup = 4000
        rising = lr_schedule(warmup, 512, warmup)
        falling = warmup ** -0.5 * 512 ** -0.5
        assert rising == pytest.approx(falling, rel=1e-12)

    def test_step_one_hand_value(self):
        assert lr_schedule(1, 512, 4000) == pytest.approx(512 ** -0.5 * 4000 ** -1.5, rel=1e-12)
        assert lr_schedule(1, 512, 4000) == pytest.approx(1.7469281074217108e-07, rel=1e-9)

    def test_monotone_before_and_after_warmup(self):
        values = [lr_schedule(s, 64, 100) for s in range(1, 300)]
        assert all(a < b for a, b in zip(values[:99], values[1:100]))
        assert all(a > b for a, b in zip(values[99:-1], values[100:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            lr_schedule(0, 64, 100)


class TestAveraging:
    @staticmethod
    def _random_ckpt(rng, step=0):
        params = {
            "a": rng.standard_normal((3, 2)).astype(np.float32),
            "b": rng.standard_normal(4).astype(np.float32),
        }
        return Checkpoint(params=params, step=step, config_digest=DIGEST)

    def test_identical_checkpoints_fixed_point(self):
        rng = np.random.default_rng(0)
        ckpt = self._random_ckpt(rng)
        avg = average_checkpoints([ckpt] * 5)
        for name in ckpt.params:
            np.testing.assert_array_equal(avg.params[name], ckpt.params[name])

    def test_two_point_mean(self):
        a = Checkpoint({"w": np.zeros(3, dtype=np.float32)}, 1, DIGEST)
        b = Checkpoint({"w": np.full(3, 2.0, dtype=np.float32)}, 2, DIGEST)
        avg = average_checkpoints([a, b])
        np.testing.assert_array_equal(avg.params["w"], np.ones(3))
        assert avg.step == 2

    def test_mean_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        ckpts = [self._random_ckpt(rng, step=i) for i in range(5)]
        avg = average_checkpoints(ckpts)
        for name in ckpts[0].params:
            flat = [c.params[name].reshape(-1) for c in ckpts]
            expected = np.array([
                sum(float(f[i]) for f in flat) / 5.0 for i in range(flat[0].size)
            ], dtype=np.float64).astype(np.float32).reshape(ckpts[0].params[name].shape)
            np.testing.assert_array_equal(avg.params[name], expected)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        ckpts = [self._random_ckpt(rng, step=i) for i in range(4)]
        forward = average_checkpoints(ckpts)
        backward = average_checkpoints(ckpts[::-1])
        for name in forward.params:
            np.testing.assert_array_equal(forward.params[name], backward.params[name])

    def test_mismatched_names_rejected(self):
        a = Checkpoint({"w": np.zeros(2, dtype=np.float32)}, 0, DIGEST)
        b = Checkpoint({"v": np.zeros(2, dtype=np.float32)}, 0, DIGEST)
        with pytest.raises(ValueError):
            average_checkpoints([a, b])
        c = Checkpoint({"w": np.zeros(3, dtype=np.float32)}, 0, DIGEST)
        with pytest.raises(ValueError):
            average_checkpoints([a, c])
        with pytest.raises(ValueError):
            average_checkpoints([])

    def test_list_checkpoints_sorts_by_step_number(self, tmp_path):
        names = ["step_999999.ckpt", "step_000007.ckpt.tmp", "notes.txt", "step_1000000.ckpt",
                 "step_000005.ckpt"]
        for name in names:
            (tmp_path / name).write_bytes(b"")
        assert list_checkpoints(tmp_path) == [
            str(tmp_path / n) for n in ("step_000005.ckpt", "step_999999.ckpt", "step_1000000.ckpt")]


def _toy_setup(structure="none", formula="mean", seed=0):
    config = ModelConfig(num_layers=2, d_model=16, num_heads=2, d_ff=32, vocab_size=12,
                         max_len=24, dropout=0.1, seed=seed,
                         aggregation=AggregationSpec(structure, formula, "both"))
    task = SyntheticTask(kind="copy", vocab_size=12, min_len=3, max_len=6, seed=seed)
    return config, task


class TestTrainLoop:
    def test_zero_steps_initial_checkpoint_only(self, tmp_path):
        config, task = _toy_setup()
        result = train(build(config), task, TrainingSpec(steps=0), tmp_path, seed=0)
        assert [p.name for p in result.checkpoints] == ["step_000000.ckpt"]
        assert read_metrics(result.metrics_path) == []
        ckpt = load_checkpoint(result.checkpoints[0])
        assert ckpt.step == 0
        assert ckpt.config_digest == config_digest(config)

    @pytest.mark.parametrize("structure", ["none", "rtal", "linear", "iterative", "cnn_tree"])
    def test_loss_decreases_for_every_structure(self, tmp_path, structure):
        config, task = _toy_setup(structure=structure, formula="ewp_ffn")
        spec = TrainingSpec(steps=150, batch_tokens=128, warmup=50, checkpoint_every=150)
        result = train(build(config), task, spec, tmp_path / structure, seed=0)
        rows = read_metrics(result.metrics_path)
        assert rows[-1]["loss"] < rows[0]["loss"]

    def test_gradients_are_cleared_after_every_step(self, tmp_path):
        config, task = _toy_setup(structure="rtal", formula="ewp_ffn")
        model = build(config)
        train(model, task, TrainingSpec(steps=2, batch_tokens=64, checkpoint_every=10), tmp_path, seed=0)
        assert all(p.grad is None for _, p in model.named_parameters())

    def test_metric_log_schema(self, tmp_path):
        config, task = _toy_setup()
        result = train(build(config), task,
                       TrainingSpec(steps=3, batch_tokens=64, checkpoint_every=10),
                       tmp_path, seed=0)
        rows = read_metrics(result.metrics_path)
        assert len(rows) == 3
        assert set(rows[0]) == {"step", "loss", "token_accuracy", "lr", "wall_ms"}
        assert [r["step"] for r in rows] == [1, 2, 3]

    def test_fixed_seed_reproduces_metrics(self, tmp_path):
        config, task = _toy_setup()
        spec = TrainingSpec(steps=20, batch_tokens=64, checkpoint_every=20)
        r1 = train(build(config), task, spec, tmp_path / "a", seed=7)
        r2 = train(build(config), task, spec, tmp_path / "b", seed=7)
        assert strip_wall(read_metrics(r1.metrics_path)) == strip_wall(read_metrics(r2.metrics_path))

    def test_different_seed_changes_metrics(self, tmp_path):
        config, task = _toy_setup()
        spec = TrainingSpec(steps=5, batch_tokens=64, checkpoint_every=5)
        r1 = train(build(config), task, spec, tmp_path / "a", seed=7)
        r2 = train(build(config), task, spec, tmp_path / "b", seed=8)
        assert strip_wall(read_metrics(r1.metrics_path)) != strip_wall(read_metrics(r2.metrics_path))

    def test_loose_average_leaves_out_random_init(self, tmp_path):
        config, task = _toy_setup()
        train(build(config), task, TrainingSpec(steps=2, batch_tokens=64, checkpoint_every=1),
              tmp_path, seed=0)
        averaged = averaged_model_checkpoint(tmp_path, 5, strict=False)
        expected = average_checkpoints(
            [load_checkpoint(tmp_path / "checkpoints" / f"step_{s:06d}.ckpt") for s in (1, 2)])
        for name in expected.params:
            np.testing.assert_array_equal(averaged.params[name], expected.params[name])
        assert averaged.step == 2

    def test_loose_average_of_init_only_run(self, tmp_path):
        config, task = _toy_setup()
        train(build(config), task, TrainingSpec(steps=0), tmp_path, seed=0)
        averaged = averaged_model_checkpoint(tmp_path, 5, strict=False)
        init = load_checkpoint(tmp_path / "checkpoints" / "step_000000.ckpt")
        assert averaged.step == 0
        for name in init.params:
            np.testing.assert_array_equal(averaged.params[name], init.params[name])

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        config, task = _toy_setup(structure="rtal", formula="ewp_ffn")
        full_spec = TrainingSpec(steps=30, batch_tokens=64, checkpoint_every=15)
        uninterrupted = train(build(config), task, full_spec, tmp_path / "full", seed=3)

        half_spec = TrainingSpec(steps=15, batch_tokens=64, checkpoint_every=15)
        train(build(config), task, half_spec, tmp_path / "split", seed=3)
        resumed = train(build(config), task, full_spec, tmp_path / "split", seed=3, resume=True)

        final_a = load_checkpoint(uninterrupted.checkpoints[-1])
        final_b = load_checkpoint(resumed.checkpoints[-1])
        assert final_a.step == final_b.step == 30
        for name in final_a.params:
            np.testing.assert_array_equal(final_a.params[name], final_b.params[name])
        assert strip_wall(read_metrics(uninterrupted.metrics_path)) == \
            strip_wall(read_metrics(resumed.metrics_path))

    def test_resume_after_flattening_is_byte_identical(self, tmp_path):
        # the first run's Adam flattened its parameters; the resumed one starts from load_state
        config, task = _toy_setup(structure="rtal", formula="ewp_ffn")
        full_spec = TrainingSpec(steps=8, batch_tokens=64, checkpoint_every=4)
        uninterrupted = train(build(config), task, full_spec, tmp_path / "full", seed=3)
        train(build(config), task, TrainingSpec(steps=4, batch_tokens=64, checkpoint_every=4),
              tmp_path / "split", seed=3)
        resumed = train(build(config), task, full_spec, tmp_path / "split", seed=3, resume=True)
        for name in ("step_000008.ckpt", "step_000008.optim"):
            assert (tmp_path / "full" / "checkpoints" / name).read_bytes() == \
                (tmp_path / "split" / "checkpoints" / name).read_bytes(), name
        assert strip_wall(read_metrics(uninterrupted.metrics_path)) == \
            strip_wall(read_metrics(resumed.metrics_path))

    def test_resume_after_lost_checkpoint_logs_each_step_once(self, tmp_path):
        config, task = _toy_setup(structure="rtal", formula="ewp_ffn")
        full_spec = TrainingSpec(steps=6, batch_tokens=64, checkpoint_every=2)
        uninterrupted = train(build(config), task, full_spec, tmp_path / "full", seed=3)

        part_spec = TrainingSpec(steps=4, batch_tokens=64, checkpoint_every=2)
        split = tmp_path / "split"
        train(build(config), task, part_spec, split, seed=3)
        (split / "checkpoints" / "step_000004.ckpt").unlink()   # resume falls back to step 2
        with open(split / "metrics.jsonl", "a") as log:         # and a line torn by a crash
            log.write('{"step": 5, "lo')
        resumed = train(build(config), task, full_spec, split, seed=3, resume=True)

        rows = read_metrics(resumed.metrics_path)
        assert [r["step"] for r in rows] == list(range(1, 7))
        assert strip_wall(rows) == strip_wall(read_metrics(uninterrupted.metrics_path))

    @pytest.mark.parametrize("suffix", [".ckpt", ".optim"])
    def test_crash_inside_checkpoint_pair_resumes_from_last_pair(self, tmp_path, monkeypatch, suffix):
        config, task = _toy_setup(structure="rtal", formula="ewp_ffn")
        spec = TrainingSpec(steps=6, batch_tokens=64, checkpoint_every=2)
        uninterrupted = train(build(config), task, spec, tmp_path / "full", seed=3)

        save = training.save_checkpoint

        def crash_at_step_4(path, ckpt):
            if str(path).endswith("step_000004" + suffix):
                raise OSError(f"simulated crash writing {path}")
            save(path, ckpt)

        split = tmp_path / "split"
        monkeypatch.setattr(training, "save_checkpoint", crash_at_step_4)
        with pytest.raises(OSError, match="simulated crash"):
            train(build(config), task, spec, split, seed=3)
        monkeypatch.undo()
        assert not (split / "checkpoints" / "step_000004.ckpt").exists()
        resumed = train(build(config), task, spec, split, seed=3, resume=True)

        final_a = load_checkpoint(uninterrupted.checkpoints[-1])
        final_b = load_checkpoint(resumed.checkpoints[-1])
        assert final_a.step == final_b.step == 6
        for name in final_a.params:
            np.testing.assert_array_equal(final_a.params[name], final_b.params[name])
        assert strip_wall(read_metrics(uninterrupted.metrics_path)) == \
            strip_wall(read_metrics(resumed.metrics_path))

    def test_zero_step_run_writes_no_optimizer_state(self, tmp_path):
        config, task = _toy_setup()
        train(build(config), task, TrainingSpec(steps=0), tmp_path, seed=0)
        assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == ["step_000000.ckpt"]

    def test_crash_in_first_pair_resumes_from_step_0(self, tmp_path, monkeypatch):
        # step 0 has no .optim: resume rebuilds its all-zero moments with adam_init
        config, task = _toy_setup(structure="rtal", formula="ewp_ffn")
        spec = TrainingSpec(steps=4, batch_tokens=64, checkpoint_every=2)
        uninterrupted = train(build(config), task, spec, tmp_path / "full", seed=3)

        save = training.save_checkpoint

        def crash_at_step_2(path, ckpt):
            if str(path).endswith("step_000002.optim"):
                raise OSError(f"simulated crash writing {path}")
            save(path, ckpt)

        split = tmp_path / "split"
        monkeypatch.setattr(training, "save_checkpoint", crash_at_step_2)
        with pytest.raises(OSError, match="simulated crash"):
            train(build(config), task, spec, split, seed=3)
        monkeypatch.undo()
        assert sorted(p.name for p in (split / "checkpoints").iterdir()) == ["step_000000.ckpt"]
        resumed = train(build(config), task, spec, split, seed=3, resume=True)

        final_a = load_checkpoint(uninterrupted.checkpoints[-1])
        final_b = load_checkpoint(resumed.checkpoints[-1])
        assert final_a.step == final_b.step == 4
        for name in final_a.params:
            np.testing.assert_array_equal(final_a.params[name], final_b.params[name])
        assert strip_wall(read_metrics(uninterrupted.metrics_path)) == \
            strip_wall(read_metrics(resumed.metrics_path))

    def test_resume_rejects_other_config(self, tmp_path):
        config, task = _toy_setup()
        train(build(config), task, TrainingSpec(steps=2, batch_tokens=64), tmp_path, seed=0)
        other, _ = _toy_setup(structure="rtal", formula="ewp_ffn")
        with pytest.raises(ConfigError, match="step_000002.ckpt"):
            train(build(other), task, TrainingSpec(steps=4, batch_tokens=64), tmp_path,
                  seed=0, resume=True)

    def test_divergence_aborts_preserving_checkpoint(self, tmp_path):
        config, task = _toy_setup()
        model = build(config)
        model.embedding.weight.data[0, 0] = np.nan
        with pytest.raises(NumericalError, match="diverged"):
            train(model, task, TrainingSpec(steps=5, batch_tokens=64), tmp_path, seed=0)
        ckpt = load_checkpoint(tmp_path / "checkpoints" / "step_000000.ckpt")
        assert ckpt.step == 0


GLIBC = sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc"


class TestHeapPin:
    @pytest.mark.skipif(not GLIBC, reason="the heap pin sets glibc's mallopt parameters")
    def test_steps_reuse_the_memory_earlier_steps_freed(self, tmp_path, monkeypatch):
        import resource   # POSIX only

        # the acceptance config; without the pin a step took about 2,100 minor faults here
        config = ModelConfig(num_layers=4, d_model=64, num_heads=4, d_ff=256, vocab_size=16,
                             max_len=32, dropout=0.1, seed=1,
                             aggregation=AggregationSpec("rtal", "ewp_ffn", "both"))
        task = SyntheticTask(kind="copy", vocab_size=16, min_len=3, max_len=12, seed=1)
        faults = []   # minor page faults so far, as each step starts and when training ends
        sample = training.sample_batch

        def counted(*args):
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            return sample(*args)

        monkeypatch.setattr(training, "sample_batch", counted)
        train(build(config), task, TrainingSpec(steps=30, checkpoint_every=25), tmp_path, seed=1)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        assert len(faults) == 31
        per_step = (faults[30] - faults[10]) / 20   # after 10 warm-up steps
        assert per_step < 500, per_step
