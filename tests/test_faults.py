"""Damaged run directories: every fault is a typed error that names the file.

Checkpoint files, the metrics log and the run's config are corrupted or
deleted the way a crash, a full disk or a stray edit would leave them.
Through the CLI each fault exits 1 with the path on stderr.
"""

import json
import struct

import pytest

from treeformer.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from treeformer.cli import main
from treeformer.model import AggregationSpec, ConfigError, ModelConfig, build, config_digest
from treeformer.tasks import SyntheticTask
from treeformer.training import TrainingSpec, train

HEADER = 4 + 32 + 12                        # version, digest, step and record count
NAME = "embedding.weight"                   # the first record
NAME_AT = HEADER + 4
RANK_AT = NAME_AT + len(NAME)
EXTENT_AT = RANK_AT + 4


def _corrupt(path, offset, raw: bytes):
    data = bytearray(path.read_bytes())
    data[offset:offset + len(raw)] = raw
    path.write_bytes(bytes(data))


@pytest.fixture()
def ckpt_path(tmp_path):
    model = build(ModelConfig(num_layers=1, d_model=4, num_heads=2, d_ff=8, vocab_size=6, max_len=8))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Checkpoint(model.state_dict(), 3, config_digest(model.config)))
    assert path.read_bytes()[NAME_AT:RANK_AT] == NAME.encode()
    return path


class TestCorruptCheckpoint:
    def test_name_that_is_not_utf8_names_the_file(self, ckpt_path):
        _corrupt(ckpt_path, NAME_AT + 2, b"\xa5")
        with pytest.raises(CheckpointError, match=f"{ckpt_path.name}.*not UTF-8"):
            load_checkpoint(ckpt_path)

    @pytest.mark.parametrize("offset,raw", [
        (HEADER, struct.pack("<I", 0xFFFFFFFF)),
        (RANK_AT, struct.pack("<I", 0xFFFFFFFF)),
        (EXTENT_AT, struct.pack("<Q", 1 << 62)),
        (EXTENT_AT, struct.pack("<QQ", 1 << 32, 1 << 32)),   # a product that wraps int64 to 0
    ], ids=["name_length", "rank", "extent", "extent_product"])
    def test_length_past_the_end_names_the_file(self, ckpt_path, offset, raw):
        _corrupt(ckpt_path, offset, raw)
        with pytest.raises(CheckpointError, match=f"{ckpt_path.name}.*truncated"):
            load_checkpoint(ckpt_path)


def _train_run():
    config = ModelConfig(num_layers=2, d_model=8, num_heads=2, d_ff=16, vocab_size=12, max_len=16,
                         aggregation=AggregationSpec("rtal", "ewp_ffn", "both"))
    task = SyntheticTask(kind="copy", vocab_size=12, min_len=3, max_len=6)
    spec = TrainingSpec(steps=4, batch_tokens=48, checkpoint_every=2)
    return config, task, spec


class TestCorruptMetricsLog:
    def test_complete_line_that_is_not_json_names_file_and_line(self, tmp_path):
        config, task, spec = _train_run()
        train(build(config), task, spec, tmp_path, seed=1)
        log = tmp_path / "metrics.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        lines[1] = '{"step": 2, "loss\n'
        log.write_text("".join(lines))
        with pytest.raises(ConfigError, match="metrics.jsonl line 2"):
            train(build(config), task, TrainingSpec(steps=6, batch_tokens=48, checkpoint_every=2),
                  tmp_path, seed=1, resume=True)

    def test_line_without_a_step_names_file_and_line(self, tmp_path):
        config, task, spec = _train_run()
        train(build(config), task, spec, tmp_path, seed=1)
        log = tmp_path / "metrics.jsonl"
        log.write_text(log.read_text() + "[4]\n")
        with pytest.raises(ConfigError, match="metrics.jsonl line 5"):
            train(build(config), task, spec, tmp_path, seed=1, resume=True)


@pytest.fixture()
def run_dir(tmp_path):
    config = {
        "seed": 0,
        "out_dir": str(tmp_path / "run"),
        "model": {"num_layers": 2, "d_model": 8, "num_heads": 2, "d_ff": 16, "vocab_size": 12,
                  "max_len": 16,
                  "aggregation": {"structure": "rtal", "formula": "ewp_ffn", "position": "both"}},
        "task": {"kind": "copy", "vocab_size": 12, "min_len": 3, "max_len": 6},
        "training": {"steps": 4, "batch_tokens": 48, "checkpoint_every": 2},
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    assert main(["train", str(path)]) == 0
    (tmp_path / "inputs.txt").write_text("3 4 5\n")
    return tmp_path / "run"


class TestCliFaults:
    def _decode(self, run_dir):
        inputs = run_dir.parent / "inputs.txt"
        return main(["decode", str(run_dir), str(inputs), "--output", str(run_dir.parent / "out.txt")])

    def test_decode_without_config(self, run_dir, capsys):
        (run_dir / "config.json").unlink()
        assert self._decode(run_dir) == 1
        assert str(run_dir / "config.json") in capsys.readouterr().err

    def test_decode_with_garbled_config(self, run_dir, capsys):
        path = run_dir / "config.json"
        path.write_text(path.read_text()[:40])
        assert self._decode(run_dir) == 1
        assert str(path) in capsys.readouterr().err

    def test_decode_with_corrupt_record_name(self, run_dir, capsys):
        newest = run_dir / "checkpoints" / "step_000004.ckpt"
        _corrupt(newest, NAME_AT, b"\xff")
        assert self._decode(run_dir) == 1
        assert str(newest) in capsys.readouterr().err

    def test_resume_without_newest_optimizer_state(self, run_dir, capsys):
        optim = run_dir / "checkpoints" / "step_000004.optim"
        optim.unlink()
        assert main(["train", str(run_dir / "config.json"), "--resume", "--set", "training.steps=6"]) == 1
        assert str(optim) in capsys.readouterr().err

    def test_resume_with_corrupt_metrics_line(self, run_dir, capsys):
        log = run_dir / "metrics.jsonl"
        lines = log.read_text().splitlines(keepends=True)
        lines[2] = "not json\n"
        log.write_text("".join(lines))
        assert main(["train", str(run_dir / "config.json"), "--resume", "--set", "training.steps=6"]) == 1
        err = capsys.readouterr().err
        assert f"{log} line 3" in err
