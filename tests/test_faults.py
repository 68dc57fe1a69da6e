"""Damaged run directories: every fault is a typed error that names the file.

Checkpoint files, the metrics log and the run's config are corrupted or
deleted the way a crash, a full disk or a stray edit would leave them.
Through the CLI each fault exits 1 with the path on stderr.
"""

import json
import os
import struct

import numpy as np
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
PAYLOAD_AT = EXTENT_AT + 16                 # the first record is a matrix


def _corrupt(path, offset, raw: bytes):
    data = bytearray(path.read_bytes())
    data[offset:offset + len(raw)] = raw
    path.write_bytes(bytes(data))


def _flip(path, offset):
    _corrupt(path, offset, bytes([path.read_bytes()[offset] ^ 0x01]))


def _as_format_1(path):
    """Rewrite a checkpoint in format 1: the same header and records, no CRC32 footer."""
    path.write_bytes(struct.pack("<I", 1) + path.read_bytes()[4:-4])


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

    def test_flipped_payload_byte_fails_the_crc(self, ckpt_path):
        _flip(ckpt_path, PAYLOAD_AT + 5)
        with pytest.raises(CheckpointError, match=f"{ckpt_path.name}.*CRC32"):
            load_checkpoint(ckpt_path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_trailing_bytes_name_the_file(self, ckpt_path, version):
        if version == 1:
            _as_format_1(ckpt_path)
        ckpt_path.write_bytes(ckpt_path.read_bytes() + b"\0" * 4)
        with pytest.raises(CheckpointError, match=f"{ckpt_path.name}.*4 bytes after its last record"):
            load_checkpoint(ckpt_path)

    def test_format_1_without_crc_still_loads(self, ckpt_path):
        expected = load_checkpoint(ckpt_path)
        _as_format_1(ckpt_path)
        loaded = load_checkpoint(ckpt_path)
        assert (loaded.step, loaded.config_digest) == (expected.step, expected.config_digest)
        assert loaded.params.keys() == expected.params.keys()
        for name, value in expected.params.items():
            np.testing.assert_array_equal(loaded.params[name], value)



class TestFailedSave:
    def test_failed_rename_removes_the_temp_file(self, ckpt_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(f"simulated rename failure {src} -> {dst}")

        ckpt = load_checkpoint(ckpt_path)
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="simulated rename failure"):
            save_checkpoint(ckpt_path.parent / "next.ckpt", ckpt)
        monkeypatch.undo()
        assert sorted(p.name for p in ckpt_path.parent.iterdir()) == [ckpt_path.name]


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

    def test_decode_with_flipped_payload_byte(self, run_dir, capsys):
        newest = run_dir / "checkpoints" / "step_000004.ckpt"
        _flip(newest, PAYLOAD_AT + 5)
        assert self._decode(run_dir) == 1
        assert str(newest) in capsys.readouterr().err

    def test_average_onto_a_directory_leaves_no_temp_file(self, run_dir, capsys):
        target = run_dir.parent / "averaged"
        target.mkdir()
        before = sorted(run_dir.parent.rglob("*"))
        assert main(["average", str(run_dir), "--k", "1", "--output", f"{target}/"]) == 1
        assert str(target) in capsys.readouterr().err
        assert sorted(run_dir.parent.rglob("*")) == before

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
