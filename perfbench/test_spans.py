"""Tests of the span recorder and of the traced run's wrappers.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (imports treeformer from this checkout)
from spans import SpanRecorder, Tracer, leftover_wrappers, per_layer_table  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_nested_and_overlapping_children():
    rec = SpanRecorder()
    parent = rec.add("parent", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, parent)
    rec.add("b", 3.0, 6.0, parent)         # overlaps a: [1, 6] is covered once
    rec.add("c", 8.0, 12.0, parent)        # runs past the parent: clipped to [8, 10]
    rec.add("a.inner", 1.5, 2.0, a)        # grandchild: charged to a, not to parent
    selfs = rec.self_times()
    assert selfs[parent] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[a] == pytest.approx(3.0 - 0.5)
    assert [selfs[i] for i in range(2, 5)] == pytest.approx([3.0, 4.0, 0.5])
    assert rec.self_times(["a"]) == {a: pytest.approx(2.5)}


def test_open_close_builds_parents_and_units():
    rec = SpanRecorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 9.0]))
    rec.unit = 7
    outer = rec.open("outer")
    first = rec.open("inner")
    rec.close(first)
    second = rec.open("inner", tag="scope")
    rec.close(second)
    rec.close(outer)
    assert list(rec.parents) == [-1, outer, outer]
    assert list(rec.units) == [7, 7, 7]
    assert rec.self_times()[outer] == pytest.approx(9.0 - 2.0)
    assert rec.table[rec.tag_ids[second]] == "scope"
    with pytest.raises(RuntimeError):
        rec2 = SpanRecorder()
        x = rec2.open("x")
        rec2.open("y")
        rec2.close(x)


def _snapshot():
    """Every attribute of every treeformer module and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "treeformer" or name.startswith("treeformer."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


TINY_MODEL = {"num_layers": 2, "d_model": 8, "num_heads": 2, "d_ff": 16, "vocab_size": 8,
              "max_len": 16, "dropout": 0.1}


def _tiny_train(structure):
    return {"kind": "train",
            "model": dict(TINY_MODEL, aggregation={"structure": structure, "formula": "ewp_ffn",
                                                    "position": "both"}),
            "task": {"kind": "copy", "vocab_size": 8, "min_len": 2, "max_len": 5},
            "training": {"batch_tokens": 64, "warmup": 10, "checkpoint_every": 5, "log_every": 1}}


def test_tracer_installs_and_removes_every_wrapper():
    before = _snapshot()
    tracer = Tracer(SpanRecorder()).install()
    try:
        installed = leftover_wrappers()
        assert "treeformer.nn.matmul" in installed
        assert "treeformer.tensor.record_op" in installed
        assert "treeformer.model.Seq2SeqModel.decode" in installed
    finally:
        tracer.remove()
    assert leftover_wrappers() == []
    assert _snapshot() == before


@pytest.mark.parametrize("structure", ["none", "rtal"])
def test_traced_train_run_reports_layers_and_restores(tmp_path, monkeypatch, structure):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    before = _snapshot()
    result, metrics = run.traced(_tiny_train(structure), 3, 1.0, tmp_path / "run", "tiny")
    assert leftover_wrappers() == []
    assert _snapshot() == before
    assert result["failed"] == 0
    values = {name: value for name, (value, _) in metrics.items()}
    assert set(values) == {name for name, _, _ in per_layer_table()}
    aggregation = [v for k, v in values.items() if k.startswith("aggregation.")]
    if structure == "none":
        assert aggregation == [0.0] * 4 and values["tensor.bwd_scope.aggregation.ms"] == 0.0
    else:
        assert all(v > 0 for v in aggregation)
    for name in ("model.forward_step.ms", "model.forward_step.calls", "decoding.steps",
                 "decoding.beam_search.ms"):
        assert values[name] == 0.0
    parts = sum(values[f"training.step.{p}_ms"] for p in ("data", "fwd", "bwd", "optim", "other"))
    assert parts == pytest.approx(values["trace.unit_ms"], rel=0.05)
    assert values["tensor.records_per_step"] > 0
    assert (tmp_path / "tiny-seed3.spans.npz").is_file()


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_table()
    assert [w["name"] for w in spec["workloads"]] == list(run.SPEC["workloads"])
