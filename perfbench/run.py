#!/usr/bin/env python3
"""Benchmark of treeformer's training and decoding paths, driven from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are defined in workloads.json next
to this file; the library under ``src/`` is imported as users import it and
called through its public functions (``train``, ``encode_source``,
``beam_search``), never edited.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
Their times are scaled to a nominal machine speed by a fixed probe kernel
timed between units (see SpeedProbe); the raw times are in the detail line.
``--trace 1`` runs the same workload untraced for half the time, then with
span wrappers installed (spans.py) for the other half, and reports per-layer
metrics plus the tracing overhead; the wrappers are removed afterwards.

stdout ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}.  The line before it holds the details: machine block, sample
counts, output checks and the decode digests.  Spans of a traced run are
written to .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text())
OUT_DIR = ROOT / ".perfbench_out"


def load_package():
    """Import treeformer from this checkout's sources, capped to the thread limit."""
    src = ROOT / "src"
    if not (src / "treeformer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no treeformer sources under {src}")
    # the package copies this into the BLAS thread variables before numpy loads
    os.environ["TREEFORMER_THREADS"] = str(SPEC["thread_cap"])
    sys.path.insert(0, str(src))
    import treeformer
    if Path(treeformer.__file__).resolve().parent != src / "treeformer":
        raise SystemExit(f"perfbench: imported treeformer from {treeformer.__file__}, not {src}")
    return treeformer


tf = load_package()
import numpy as np  # noqa: E402  (after the thread cap is in place)
from treeformer import decoding, model as model_mod, tasks, training  # noqa: E402

sys.path.insert(0, str(HERE))
from spans import SpanRecorder, Tracer, layer_metrics, leftover_wrappers, mark, per_layer_table  # noqa: E402

WARMUP = SPEC["warmup_units"]
# every end-to-end metric with its unit; workloads.json says what each means.
# ms_p90 is printed in the detail line only: it does not repeat within a tenth
END_TO_END = {"setup_s": "s", "ms_p50": "ms", "cpu_ms_p50": "ms", "tokens_per_s": "1/s",
              "peak_rss_mb": "MB"}


class Deadline(Exception):
    """Raised at a step boundary to end train() when the measuring time is over."""


class SpeedProbe:
    """A fixed numpy transformer layer and a candidate sort, timed between units.

    The machines this runs on drift for minutes at a time between speeds
    20-50% apart, so the raw times of one run say more about the machine's
    state than about the program.  The probe does the same kind of work as
    the program (small matmuls, softmax, layer norm, Python tuples) but none
    of its code, so scaling a run's times by nominal / median probe time
    cancels the drift and no change to treeformer moves the probe.  Unit i
    is scaled by the median of the probes around it, since the speed can
    also change within a run.  The raw values stay in the detail line.
    """

    def __init__(self):
        rng = np.random.default_rng(0)

        def weights(*shape):
            return (rng.standard_normal(shape) * 0.1).astype(np.float32)

        self.x = weights(4, 12, 64)
        self.qkv = [weights(64, 64) for _ in range(3)]
        self.out, self.ffn_in, self.ffn_out = weights(64, 64), weights(64, 256), weights(256, 64)
        self.times = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        x = self.x
        for _ in range(6):
            h = (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-6)
            q, k, v = ((h @ w).reshape(4, 12, 4, 16).swapaxes(1, 2) for w in self.qkv)
            scores = np.exp(q @ k.swapaxes(-1, -2) * 0.25)
            scores /= scores.sum(-1, keepdims=True)
            x = x + (scores @ v).swapaxes(1, 2).reshape(4, 12, 64) @ self.out
            x = x + np.maximum(x @ self.ffn_in, 0) @ self.ffn_out
        sorted((-((i * 7919) % 104729) / 1e5, (i % 16, i % 7)) for i in range(1500))
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Nominal over measured probe time, from the median of every probe so far."""
        return SPEC["probe_nominal_ms"] / (statistics.median(self.times) * 1e3)

    def scales(self, first: int, count: int) -> np.ndarray:
        """Scale of each unit first..first+count-1 from a rolling median of its probes.

        Probe i runs next to unit i, outside its timing.
        """
        half = SPEC["probe_window"] // 2
        return np.array([SPEC["probe_nominal_ms"] / (statistics.median(self.times[max(0, i - half):i + half + 1]) * 1e3)
                         for i in range(first, first + count)])


class StepClock:
    """Timestamps every train() step where it calls sample_batch.

    Step k runs from the k-th sample_batch call to the next one; a speed
    probe, if given, runs at each boundary outside both steps.  With a
    recorder, each step also becomes a ``training.step`` span and a unit.
    """

    def __init__(self, deadline: float, min_steps: int, rec: SpanRecorder = None,
                 probe: SpeedProbe = None):
        self.deadline, self.min_steps, self.rec, self.probe = deadline, min_steps, rec, probe
        self.starts, self.ends, self.tokens = [], [], []
        self.span = None

    def __enter__(self):
        self.original = training.sample_batch
        training.sample_batch = mark(lambda *args: self.hook(*args))
        return self

    def __exit__(self, *exc):
        training.sample_batch = self.original
        if self.rec is not None:
            self.rec.close_all()
        return False

    def steps(self):
        """(wall, cpu) seconds of every completed step."""
        return [(end[0] - start[0], end[1] - start[1])
                for start, end in zip(self.starts, self.ends[1:])]

    def hook(self, *args):
        self.ends.append((time.perf_counter(), time.process_time()))
        rec = self.rec
        if rec is not None and self.span is not None:
            rec.close(self.span)
            self.span = None
        if len(self.ends) > self.min_steps and self.ends[-1][0] >= self.deadline:
            raise Deadline
        if self.probe is not None:
            self.probe()
        self.starts.append((time.perf_counter(), time.process_time()))
        if rec is None:
            batch = self.original(*args)
        else:
            rec.unit += 1
            self.span = rec.open("training.step")
            index = rec.open("tasks.sample_batch")
            try:
                batch = self.original(*args)
            finally:
                rec.close(index)
            rec.count("tasks.batch_tokens", batch.num_target_tokens)
        self.tokens.append(batch.num_target_tokens)
        return batch


def model_config(raw: dict, seed: int):
    raw = dict(raw)
    raw.setdefault("seed", seed)
    return tf.ModelConfig.from_dict(raw)


def train_setup(w: dict, seed: int):
    model = tf.build(model_config(w["model"], seed))
    task = tf.SyntheticTask(**w["task"], seed=seed)
    return model, task


def run_train(w: dict, seed: int, seconds: float, run_dir: Path, rec=None, probe=None) -> dict:
    """Train until the deadline; return per-step times, tokens and output checks."""
    model, task = train_setup(w, seed)
    spec = tf.TrainingSpec(steps=10 ** 9, **w["training"])
    clock = StepClock(time.perf_counter() + seconds, SPEC["min_train_steps"], rec, probe)
    error = None
    with clock:
        try:
            training.train(model, task, spec, run_dir, seed=seed)
        except Deadline:
            pass
        except Exception:  # a failed step is reported, not fatal to the benchmark
            error = traceback.format_exc()
    steps = clock.steps()
    done = len(steps)
    with open(run_dir / "metrics.jsonl") as fh:
        losses = [json.loads(line)["loss"] for line in fh][:done]
    nonfinite = sum(1 for x in losses if not math.isfinite(x))
    trend_ok = len(losses) >= 20 and statistics.fmean(losses[-10:]) < statistics.fmean(losses[:10])
    return {
        "wall": [w for w, _ in steps[WARMUP:]], "cpu": [c for _, c in steps[WARMUP:]],
        "tokens": clock.tokens[WARMUP:done],
        "attempted": done + (error is not None),
        # a falling loss is checked over the last 10 steps, so they fail together
        "failed": nonfinite + (error is not None) + (0 if trend_ok else 10),
        "checks": {"steps": done, "loss_first10": statistics.fmean(losses[:10]) if losses else None,
                   "loss_last10": statistics.fmean(losses[-10:]) if losses else None,
                   "loss_falls": trend_ok, "nonfinite_losses": nonfinite, "error": error},
    }


def decode_inputs(w: dict, seed: int) -> list:
    """Test-split copy sources, the same number at every length, interleaved by length."""
    t = w["task"]
    by_length = [
        tasks.generate_task(tf.SyntheticTask(kind=t["kind"], vocab_size=t["vocab_size"],
                                             min_len=n, max_len=n),
                            t["split"], t["sentences_per_length"], seed=seed * 1000 + n)
        for n in range(t["min_len"], t["max_len"] + 1)
    ]
    return [pairs[r][0] for r in range(t["sentences_per_length"]) for pairs in by_length]


def decode_setup(w: dict, seed: int):
    return tf.build(model_config(w["model"], seed)), decode_inputs(w, seed)


def run_decode(w: dict, seed: int, seconds: float, rec=None, probe=None) -> dict:
    """Decode the sentence pool in passes until the deadline; check every result."""
    model, pool = decode_setup(w, seed)
    vocab = model.config.vocab_size
    deadline = time.perf_counter() + seconds
    wall, cpu, emitted, digests = [], [], [], []
    attempted = failed = 0
    errors = []
    while len(digests) < SPEC["min_decode_passes"] or time.perf_counter() < deadline:
        # tokens alone rarely change (the untrained model emits BOS to max_len),
        # so the exact bits of each score are hashed too
        digest, score_digest = hashlib.sha256(), hashlib.sha256()
        for src in pool:
            source = np.array(src + (tasks.EOS,), dtype=np.int64)
            max_len = len(src) + 2
            attempted += 1
            if rec is not None:
                rec.unit += 1
                span = rec.open("decode.sentence")
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                cache = model_mod.encode_source(model, source, tasks.PAD)
                result = decoding.beam_search(model, source, beam_size=w["beam_size"],
                                              alpha=w["alpha"], max_len=max_len, cache=cache)
            except Exception:  # a failed sentence is reported, not fatal to the benchmark
                errors.append(traceback.format_exc())
                failed += 1
                continue
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                if rec is not None:
                    rec.close(span)
            tokens = [int(x) for x in result.tokens]
            if len(tokens) > max_len or any(not 0 <= x < vocab for x in tokens):
                failed += 1
            wall.append(t1 - t0)
            cpu.append(c1 - c0)
            if probe is not None:
                probe()
            emitted.append(len(tokens) + result.finished)
            digest.update(len(tokens).to_bytes(4, "little") + np.asarray(tokens, dtype="<i8").tobytes())
            score_digest.update(np.float64(result.score).tobytes())
        digests.append((digest.hexdigest()[:16], score_digest.hexdigest()[:16]))
    repeat_ok = len(set(digests)) == 1
    if not repeat_ok:
        failed += len(pool)  # the last pass disagrees with an earlier one
    return {
        "wall": wall[WARMUP:], "cpu": cpu[WARMUP:], "tokens": emitted[WARMUP:],
        "attempted": attempted, "failed": failed,
        "checks": {"sentences": len(pool), "passes": len(digests), "tokens_digest": digests[0][0],
                   "score_digest": digests[0][1],
                   "digest_repeats": repeat_ok, "error": errors[0] if errors else None},
    }


def median_setup_s(w: dict, seed: int, run_dir: Path, probe: SpeedProbe) -> float:
    """Median time to set a workload up: build the model, then prepare its inputs."""
    times = []
    for i in range(SPEC["setup_repeats"]):
        t0 = time.perf_counter()
        if w["kind"] == "train":
            model, task = train_setup(w, seed)
            spec = tf.TrainingSpec(steps=0, **w["training"])
            training.train(model, task, spec, run_dir / f"setup{i}", seed=seed)
        else:
            decode_setup(w, seed)
        times.append(time.perf_counter() - t0)
        probe()
    return statistics.median(times)


def run_workload(w: dict, seed: int, seconds: float, run_dir: Path, rec=None, probe=None) -> dict:
    if w["kind"] == "train":
        return run_train(w, seed, seconds, run_dir, rec, probe)
    return run_decode(w, seed, seconds, rec, probe)


def timings(setup_s: float, wall_ms: np.ndarray, cpu_ms: np.ndarray, tokens: list) -> dict:
    return {
        "setup_s": setup_s,
        "ms_p50": float(np.median(wall_ms)),
        "ms_p90": float(np.percentile(wall_ms, 90)),
        "cpu_ms_p50": float(np.median(cpu_ms)),
        "tokens_per_s": sum(tokens) * 1e3 / float(np.sum(wall_ms)),
    }


def end_to_end(w: dict, seed: int, seconds: float, run_dir: Path):
    setup_probe, probe = SpeedProbe(), SpeedProbe()
    setup_s = median_setup_s(w, seed, run_dir, setup_probe)
    r = run_workload(w, seed, seconds, run_dir / "run", probe=probe)
    wall_ms, cpu_ms = np.array(r["wall"]) * 1e3, np.array(r["cpu"]) * 1e3
    scales = probe.scales(WARMUP, len(wall_ms))
    raw = timings(setup_s, wall_ms, cpu_ms, r["tokens"])
    values = timings(setup_s * setup_probe.scale(), wall_ms * scales, cpu_ms * scales, r["tokens"])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    r["checks"]["timed_units"] = len(wall_ms)
    r["checks"]["ms_p90"] = values["ms_p90"]
    r["checks"]["speed"] = {"probe_ms": statistics.median(probe.times) * 1e3,
                            "scale_p50": float(np.median(scales)), "probes": len(probe.times),
                            "raw": raw}
    return r, metrics


def traced(w: dict, seed: int, seconds: float, run_dir: Path, workload: str):
    plain = run_workload(w, seed, seconds / 2, run_dir / "untraced")
    rec = SpanRecorder()
    tracer = Tracer(rec).install()
    try:
        r = run_workload(w, seed, seconds / 2, run_dir / "traced", rec)
    finally:
        tracer.remove()
    left = leftover_wrappers()
    if left:
        raise RuntimeError(f"wrappers left installed after the traced run: {left}")
    rec.save(OUT_DIR / f"{workload}-seed{seed}.spans.npz")
    values = layer_metrics(rec, WARMUP)
    values["trace.unit_ms"] = statistics.fmean(r["wall"]) * 1e3
    values["trace.untraced_unit_ms"] = statistics.fmean(plain["wall"]) * 1e3
    # both halves see the same inputs in the same order, so compare unit for unit
    n = min(len(plain["wall"]), len(r["wall"]))
    values["trace.overhead_ratio"] = sum(r["wall"][:n]) / sum(plain["wall"][:n]) - 1
    units = {name: unit for name, unit, _ in per_layer_table()}
    metrics = {name: (values[name], units[name]) for name in units}
    r["attempted"] += plain["attempted"]
    r["failed"] += plain["failed"]
    r["checks"] = {"untraced": plain["checks"], "traced": r["checks"], "spans": len(rec),
                   "compared_units": n}
    return r, metrics


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_block(load_start) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "treeformer").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_cap": {k: os.environ.get(k) for k in ("TREEFORMER_THREADS", "OPENBLAS_NUM_THREADS",
                                                      "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_start = list(os.getloadavg())
    w = SPEC["workloads"][args.workload]
    run_dir = OUT_DIR / f"tmp-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            r, metrics = traced(w, args.seed, args.seconds, run_dir, args.workload)
        else:
            r, metrics = end_to_end(w, args.seed, args.seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "failed_ratio": r["failed"] / max(r["attempted"], 1),
              "checks": r["checks"], "machine": machine_block(load_start)}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": r["failed"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
