"""End-to-end CLI behavior through main(argv)."""

import csv
import json

import numpy as np
import pytest

from treeformer.checkpoint import load_checkpoint
from treeformer.cli import load_experiment, main
from treeformer.decoding import beam_search
from treeformer.model import build
from treeformer.tasks import EOS


def write_config(path, **overrides):
    config = {
        "seed": 0,
        "out_dir": str(path.parent / "run"),
        "model": {
            "num_layers": 2, "d_model": 16, "num_heads": 2, "d_ff": 32,
            "vocab_size": 12, "max_len": 24, "dropout": 0.1,
            "aggregation": {"structure": "rtal", "formula": "ewp_ffn", "position": "both"},
        },
        "task": {"kind": "copy", "vocab_size": 12, "min_len": 3, "max_len": 6},
        "training": {"steps": 6, "batch_tokens": 64, "warmup": 10, "checkpoint_every": 2},
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            config[section][field] = value
        else:
            config[section] = value
    path.write_text(json.dumps(config))
    return path


def files_under(root):
    return sorted(root.rglob("*"))


def assert_one_error_line_naming(capsys, path):
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(path) in lines[0], lines


class TestParams:
    def test_reports_toy_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json")
        json_out = tmp_path / "params.json"
        assert main(["params", str(cfg), "--json", str(json_out)]) == 0
        out = capsys.readouterr().out
        assert "total" in out
        report = json.loads(json_out.read_text())
        assert report["total"] > 0
        assert report["components"]["encoder_aggregation"] > 0

    def test_bare_model_config_accepted(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"num_layers": 2, "d_model": 16, "num_heads": 2,
                                    "d_ff": 32, "vocab_size": 12, "max_len": 24}))
        assert main(["params", str(path)]) == 0
        assert "embedding" in capsys.readouterr().out

    def test_invalid_field_exit_one(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": {"num_heads": 5, "d_model": 16}}))
        assert main(["params", str(path)]) == 1
        assert "num_heads" in capsys.readouterr().err

    def test_aggregation_not_an_object_exit_one(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"model": {"num_layers": 2, "aggregation": "rtal"}}))
        json_out = tmp_path / "params.json"
        assert main(["params", str(path), "--json", str(json_out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: section 'model.aggregation' must be an object\n"
        assert not json_out.exists()

    def test_directory_as_config_exit_one(self, tmp_path, capsys):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        before = files_under(tmp_path)
        assert main(["params", f"{config_dir}/"]) == 1
        assert_one_error_line_naming(capsys, config_dir)
        assert files_under(tmp_path) == before


class TestTrain:
    def test_run_directory_contract(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json")
        assert main(["train", str(cfg)]) == 0
        out_dir = tmp_path / "run"
        assert (out_dir / "config.json").exists()
        assert (out_dir / "metrics.jsonl").exists()
        assert (out_dir / "run.log").exists()
        ckpts = sorted(p.name for p in (out_dir / "checkpoints").glob("*.ckpt"))
        assert len(ckpts) >= 2   # initial plus periodic
        stdout = capsys.readouterr().out
        assert "aggregated span: layers 1..2" in stdout

    def test_six_layer_span_log_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", **{
            "model.num_layers": 6, "model.d_model": 8, "model.d_ff": 16,
            "training.steps": 1, "training.checkpoint_every": 1,
            "out_dir": str(tmp_path / "run6"),
        })
        assert main(["train", str(cfg)]) == 0
        assert "aggregated span: layers 3..6" in capsys.readouterr().out

    def test_same_seed_identical_metric_logs(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json")
        assert main(["train", str(cfg), "--out-dir", str(tmp_path / "a")]) == 0
        assert main(["train", str(cfg), "--out-dir", str(tmp_path / "b")]) == 0

        def rows(p):
            lines = [json.loads(l) for l in (p / "metrics.jsonl").read_text().splitlines()]
            return [{k: v for k, v in row.items() if k != "wall_ms"} for row in lines]

        assert rows(tmp_path / "a") == rows(tmp_path / "b")

    def test_config_error_names_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", **{"model.vocab_size": 2})
        assert main(["train", str(cfg)]) == 1
        assert "vocab_size" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", **{"model.n_layer": 4})
        assert main(["train", str(cfg)]) == 1
        assert "n_layer" in capsys.readouterr().err

    @pytest.mark.parametrize("option,named", [
        ("training.steps=2.5", "training.steps must be an integer, got 2.5"),
        ('model.num_layers="4"', "model.num_layers must be an integer, got '4'"),
        ('model.aggregation="rtal"', "section 'model.aggregation' must be an object"),
        ("model.dropout=true", "model.dropout must be a number, got True"),
        ('model.agg_inner_dim="8"', "model.agg_inner_dim must be an integer or null"),
        ("out_dir=5", "out_dir must be a string, got 5"),
        ('seed="3"', "seed must be an integer, got '3'"),
    ], ids=["float_steps", "string_layers", "string_aggregation", "bool_dropout", "string_inner_dim",
            "number_out_dir", "string_seed"])
    def test_wrongly_typed_value_exit_one_before_any_file(self, tmp_path, capsys, option, named):
        cfg = write_config(tmp_path / "exp.json")
        out = tmp_path / "typed"
        assert main(["train", str(cfg), "--out-dir", str(out), "--set", option]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and named in err
        assert not out.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("option,message", [
        ("seed=-1", "seed must be >= 0, got -1"),
        ("model.seed=-2", "model.seed must be >= 0, got -2"),
        ("task.seed=-3", "task.seed must be >= 0, got -3"),
        ("training.lr_factor=-1", "lr_factor must be > 0, got -1"),
        ("training.lr_factor=0", "lr_factor must be > 0, got 0"),
        ("model.dropout=1.5", "dropout must be in [0, 1 - 2**-17), got 1.5"),
        ("model.dropout=0.999995", "dropout must be in [0, 1 - 2**-17), got 0.999995"),
    ], ids=["seed", "model_seed", "task_seed", "negative_lr_factor", "zero_lr_factor",
            "dropout_above_one", "dropout_threshold_rounds_to_65536"])
    def test_out_of_range_value_exit_one_before_any_file(self, tmp_path, capsys, option, message):
        cfg = write_config(tmp_path / "exp.json")
        out = tmp_path / "ranged"
        assert main(["train", str(cfg), "--out-dir", str(out), "--set", option]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not (tmp_path / "run").exists()

    @pytest.mark.parametrize("option,message", [
        ("model.ln_eps=NaN", "model.ln_eps must be a number, got nan"),
        ("training.lr_factor=Infinity", "training.lr_factor must be a number, got inf"),
        ("model.ln_eps=Infinity", "model.ln_eps must be a number, got inf"),
        ("model.dropout=-Infinity", "model.dropout must be a number, got -inf"),
    ], ids=["nan_ln_eps", "infinite_lr_factor", "infinite_ln_eps", "negative_infinite_dropout"])
    def test_non_finite_number_exit_one_before_any_file(self, tmp_path, capsys, option, message):
        cfg = write_config(tmp_path / "exp.json")
        out = tmp_path / "finite"
        assert main(["train", str(cfg), "--out-dir", str(out), "--set", option]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not (tmp_path / "run").exists()

    def test_wrongly_typed_values_in_the_file_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json", **{"model.aggregation": "rtal"})
        assert main(["train", str(cfg)]) == 1
        assert "section 'model.aggregation' must be an object" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_config_exit_one(self, capsys):
        assert main(["train", "/nonexistent/exp.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_out_dir_under_a_file_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json")
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        before = files_under(tmp_path)
        assert main(["train", str(cfg), "--out-dir", str(blocker / "sub")]) == 1
        assert_one_error_line_naming(capsys, blocker / "sub")
        assert files_under(tmp_path) == before

    def test_task_without_train_sources_exit_one(self, tmp_path, capsys):
        # one symbol and one length: the only source, (3,) * 13, falls in the valid split
        cfg = write_config(tmp_path / "exp.json", **{
            "model.vocab_size": 4, "task.vocab_size": 4, "task.min_len": 13, "task.max_len": 13})
        assert main(["train", str(cfg)]) == 1
        assert "no source in the 'train' split" in capsys.readouterr().err

    def test_set_override_applies(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json")
        out = tmp_path / "override"
        assert main(["train", str(cfg), "--out-dir", str(out),
                     "--set", "training.steps=3"]) == 0
        saved = json.loads((out / "config.json").read_text())
        assert saved["training"]["steps"] == 3

    def test_resume_continues_run(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", **{"training.steps": 4})
        out = tmp_path / "resumable"
        assert main(["train", str(cfg), "--out-dir", str(out)]) == 0
        cfg = write_config(tmp_path / "exp.json", **{"training.steps": 6})
        assert main(["train", str(cfg), "--out-dir", str(out), "--resume"]) == 0
        ckpts = sorted(p.name for p in (out / "checkpoints").glob("*.ckpt"))
        assert "step_000006.ckpt" in ckpts
        steps = [json.loads(l)["step"] for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert steps == list(range(1, 7))


class TestDecodeAverage:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json")
        assert main(["train", str(cfg)]) == 0
        return tmp_path / "run"

    def test_average_k1_equals_last_checkpoint(self, run_dir):
        assert main(["average", str(run_dir), "--k", "1"]) == 0
        averaged = load_checkpoint(run_dir / "averaged_last1.ckpt")
        last = load_checkpoint(sorted((run_dir / "checkpoints").glob("*.ckpt"))[-1])
        for name in last.params:
            np.testing.assert_array_equal(averaged.params[name], last.params[name])

    def test_average_too_few_checkpoints_exit_one(self, run_dir, capsys):
        assert main(["average", str(run_dir), "--k", "99"]) == 1
        assert "99" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, -1])
    def test_average_fewer_than_one_checkpoint_exit_one(self, run_dir, capsys, k):
        assert main(["average", str(run_dir), "--k", str(k)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: must average the last k >= 1 checkpoints, got k = {k}\n"
        assert not list(run_dir.glob("averaged_*"))

    @pytest.mark.parametrize("k", [0, -1])
    def test_decode_last_k_below_one_exit_one(self, run_dir, tmp_path, capsys, k):
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("3 4 5\n")
        out = tmp_path / "k.out"
        assert main(["decode", str(run_dir), str(inputs), "--last-k", str(k), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: must average the last k >= 1 checkpoints, got k = {k}\n"
        assert not out.exists()

    # the run's model has max_len 24
    @pytest.mark.parametrize("max_len", [25, 40, 0, -1])
    def test_decode_max_len_outside_model_range_exit_one(self, run_dir, tmp_path, capsys, max_len):
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("3 4 5\n")
        out = tmp_path / "m.out"
        assert main(["decode", str(run_dir), str(inputs), "--max-len", str(max_len),
                     "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --max-len must be in [1, 24] (the model's max_len), got {max_len}\n"
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["--beam", "0"], "--beam must be >= 1, got 0"),
        (["--beam", "-2"], "--beam must be >= 1, got -2"),
        (["--alpha", "-1"], "--alpha must be >= 0, got -1.0"),
        (["--alpha", "nan"], "--alpha must be >= 0, got nan"),
    ], ids=["zero_beam", "negative_beam", "negative_alpha", "nan_alpha"])
    def test_decode_search_option_out_of_range_exit_one(self, run_dir, tmp_path, capsys, option, message):
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("3 4 5\n")
        out = tmp_path / "s.out"
        assert main(["decode", str(run_dir), str(inputs), *option, "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists() and not inputs.with_suffix(".decoded").exists()

    @pytest.mark.parametrize("max_len", [1, 24])
    def test_decode_max_len_at_the_range_ends(self, run_dir, tmp_path, max_len):
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("3 4 5\n")
        out = tmp_path / "m.out"
        assert main(["decode", str(run_dir), str(inputs), "--beam", "1", "--max-len", str(max_len),
                     "--output", str(out)]) == 0
        assert len(out.read_text().split()) <= max_len

    def test_decode_beam_one_matches_greedy_and_is_stable(self, run_dir, tmp_path):
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("3 4 5\n6 7\n")
        out1 = tmp_path / "a.out"
        out2 = tmp_path / "b.out"
        assert main(["decode", str(run_dir), str(inputs), "--beam", "1",
                     "--output", str(out1)]) == 0
        assert main(["decode", str(run_dir), str(inputs), "--beam", "1",
                     "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

        config = load_experiment(run_dir / "config.json")
        model = build(config.model)
        from treeformer.training import averaged_model_checkpoint
        model.load_state(averaged_model_checkpoint(run_dir, 5, strict=False).params)
        expected = []
        for line in ("3 4 5", "6 7"):
            src = np.array([int(t) for t in line.split()] + [EOS])
            result = beam_search(model, src, beam_size=1, alpha=0.6,
                                 max_len=min(config.model.max_len, config.task.max_len + 2))
            expected.append(" ".join(str(t) for t in result.tokens))
        assert out1.read_text().splitlines() == expected

    def test_decode_beam_four_runs(self, run_dir, tmp_path):
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("3 4 5\n")
        assert main(["decode", str(run_dir), str(inputs), "--beam", "4",
                     "--output", str(tmp_path / "c.out")]) == 0
        assert (tmp_path / "c.out").exists()

    def test_decode_rejects_checkpoints_of_edited_config(self, run_dir, tmp_path, capsys):
        config_path = run_dir / "config.json"
        config = json.loads(config_path.read_text())
        config["model"]["ln_eps"] = 1e-5   # same parameter shapes, different model
        config_path.write_text(json.dumps(config))
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("3 4 5\n")
        assert main(["decode", str(run_dir), str(inputs), "--output", str(tmp_path / "d.out")]) == 1
        err = capsys.readouterr().err
        assert str(run_dir / "checkpoints" / "step_") in err and "different configuration" in err

    def test_decode_truncated_checkpoint_exit_one_names_file(self, run_dir, tmp_path, capsys):
        newest = run_dir / "checkpoints" / "step_000006.ckpt"
        newest.write_bytes(newest.read_bytes()[:30])
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("3 4 5\n")
        assert main(["decode", str(run_dir), str(inputs), "--output", str(tmp_path / "e.out")]) == 1
        err = capsys.readouterr().err
        assert str(newest) in err and "truncated" in err

    def test_decode_directory_as_input_exit_one(self, run_dir, tmp_path, capsys):
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        capsys.readouterr()   # the fixture's training output
        before = files_under(tmp_path)
        assert main(["decode", str(run_dir), f"{inputs}/"]) == 1
        assert_one_error_line_naming(capsys, inputs)
        assert files_under(tmp_path) == before


    # the run's model has vocab_size 12 and max_len 24
    @pytest.mark.parametrize("line,reason", [
        ("3 12 5", "token 12 is not a symbol id in [3, 12)"),
        ("3 0 5", "token 0 is not a symbol id"),      # PAD
        ("3 -4", "token -4 is not a symbol id"),
        ("3 x 5", "tokens must be integers, got '3 x 5'"),
        ("4.0", "tokens must be integers"),
        (" ".join(["3"] * 24), "24 tokens plus EOS exceed max_len 24"),
    ], ids=["vocab_size", "pad", "negative", "word", "float", "too_long"])
    def test_decode_rejects_bad_line_naming_file_and_line(self, run_dir, tmp_path, capsys, line, reason):
        inputs = tmp_path / "inputs.txt"
        inputs.write_text(f"3 4 5\n\n{line}\n6 7\n")
        out = tmp_path / "bad.out"
        assert main(["decode", str(run_dir), str(inputs), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{inputs} line 3: {reason}" in err
        assert not out.exists()   # nothing is decoded before every line is checked

    def test_decode_accepts_the_largest_symbol_and_longest_source(self, run_dir, tmp_path):
        inputs = tmp_path / "inputs.txt"
        inputs.write_text("11 3\n" + " ".join(["3"] * 23) + "\n")
        out = tmp_path / "edge.out"
        assert main(["decode", str(run_dir), str(inputs), "--beam", "1", "--output", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2


class TestAblate:
    def test_empty_grid_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.json")
        assert main(["ablate", str(cfg)]) == 1
        assert "axis" in capsys.readouterr().err

    @pytest.mark.parametrize("option,message", [
        (["--beam", "0"], "--beam must be >= 1, got 0"),
        (["--alpha", "-1"], "--alpha must be >= 0, got -1.0"),
        (["--eval-samples", "0"], "--eval-samples must be >= 1, got 0"),
    ], ids=["zero_beam", "negative_alpha", "zero_eval_samples"])
    def test_option_out_of_range_exit_one_before_any_cell(self, tmp_path, capsys, option, message):
        cfg = write_config(tmp_path / "exp.json", **{
            "training.steps": 1, "training.checkpoint_every": 1,
            "out_dir": str(tmp_path / "ablation"),
        })
        assert main(["ablate", str(cfg), "--axis", "formula", *option]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not (tmp_path / "ablation").exists()

    def test_formula_axis_produces_table_shaped_report(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", **{
            "training.steps": 2, "training.checkpoint_every": 2,
            "out_dir": str(tmp_path / "ablation"),
        })
        assert main(["ablate", str(cfg), "--axis", "formula",
                     "--eval-samples", "3", "--beam", "1"]) == 0
        with open(tmp_path / "ablation" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["formula"] for r in rows] == ["mean", "concat_ffn", "ewp_ffn"]
        assert all(r["status"] == "ok" for r in rows)
        assert all(int(r["params"]) > 0 for r in rows)
        report = json.loads((tmp_path / "ablation" / "report.json").read_text())
        assert len(report) == 3

    def test_position_axis_rows(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", **{
            "training.steps": 1, "training.checkpoint_every": 1,
            "out_dir": str(tmp_path / "ablation"),
        })
        assert main(["ablate", str(cfg), "--axis", "position",
                     "--eval-samples", "2", "--beam", "1"]) == 0
        with open(tmp_path / "ablation" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["position"] for r in rows] == ["encoder", "decoder", "both"]

    def test_structure_axis_rows(self, tmp_path):
        cfg = write_config(tmp_path / "exp.json", **{
            "training.steps": 1, "training.checkpoint_every": 1,
            "out_dir": str(tmp_path / "ablation"),
        })
        assert main(["ablate", str(cfg), "--axis", "structure",
                     "--eval-samples", "2", "--beam", "1"]) == 0
        with open(tmp_path / "ablation" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["structure"] for r in rows] == \
            ["none", "linear", "iterative", "cnn_tree", "rtal"]
        params = [int(r["params"]) for r in rows]
        assert params[4] > params[0]   # rtal adds parameters over the baseline


class TestGradcheckCommand:
    def test_suite_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "encoder_decoder_to_loss" in out
        assert "FAIL" not in out
