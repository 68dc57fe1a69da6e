"""Command-line interface: train, ablate, params, decode, average, gradcheck.

Experiment configs are flat JSON files with ``model``, ``task``, ``training``
sections plus ``seed`` and ``out_dir``; ``--set dotted.key=value`` overrides
any field.  Exit codes: 0 success, 1 usage/config error (a path that cannot be
read or written included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import list_checkpoints, save_checkpoint
from .decoding import beam_search
from .diagnostics import gradient_suite
from .model import (
    AXES,
    ConfigError,
    ModelConfig,
    aggregated_span,
    build,
    check_type,
    config_digest,
    from_section,
    param_report,
)
from .tasks import EOS, N_SPECIAL, SyntheticTask
from .tensor import NumericalError
from .training import TrainingSpec, averaged_model_checkpoint, evaluate_model, train


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    task: SyntheticTask = field(default_factory=SyntheticTask)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    out_dir: str = "runs/run"
    seed: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def validate(self) -> None:
        if self.seed < 0:   # before the sections, which inherit it
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.model.validate()
        try:
            self.task.validate()
            self.training.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.task.vocab_size != self.model.vocab_size:
            raise ConfigError(
                f"task.vocab_size {self.task.vocab_size} must equal model.vocab_size {self.model.vocab_size}"
            )
        if self.task.max_len + 2 > self.model.max_len:
            raise ConfigError(
                f"model.max_len {self.model.max_len} too small for task.max_len {self.task.max_len}"
            )


def _with_seed(section, seed: int):
    """A task or model section with ``seed`` filled in unless it sets its own."""
    return {"seed": seed, **section} if isinstance(section, dict) else section


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def load_experiment(path, overrides=()) -> ExperimentConfig:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("experiment config must be a JSON object")
    for key, value in overrides:
        _apply_override(raw, key, value)
    seed = check_type(raw.get("seed", 0), 0, "seed")
    config = from_section(ExperimentConfig, {
        **raw,
        "model": _with_seed(raw.get("model", {}), seed),
        "task": _with_seed(raw.get("task", {}), seed),
    })
    config.validate()
    return config


def _apply_override(raw: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = raw
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object field {part!r}")
    node[parts[-1]] = value


def _parse_set(pairs) -> list:
    out = []
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, text = item.partition("=")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        out.append((key, value))
    return out


def _check_search(args) -> None:
    """``--beam`` and ``--alpha`` in the ranges ``beam_search`` accepts, before any work."""
    if args.beam < 1:
        raise ConfigError(f"--beam must be >= 1, got {args.beam}")
    if not args.alpha >= 0:
        raise ConfigError(f"--alpha must be >= 0, got {args.alpha}")


def _span_line(config: ModelConfig) -> str:
    span = aggregated_span(config)
    return f"aggregated span: layers {span[0]}..{span[1]}" if span else ""


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    config = load_experiment(args.config, _parse_set(args.set))
    if args.out_dir:
        config.out_dir = args.out_dir
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(config.to_dict(), indent=2) + "\n")

    lines = [f"run directory: {out_dir}"]
    span = _span_line(config.model)
    if span:
        lines.append(span)
    for line in lines:
        print(line)
    model = build(config.model)
    result = train(model, config.task, config.training, out_dir, seed=config.seed,
                   resume=args.resume)
    lines.append(f"finished at step {result.final_step}; "
                 f"{len(result.checkpoints)} checkpoint(s); final loss {result.final_loss}")
    print(lines[-1])
    with open(out_dir / "run.log", "a") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def cmd_params(args) -> int:
    raw = _read_json(args.config)
    model_raw = raw.get("model", raw) if isinstance(raw, dict) else None
    if model_raw is None:
        raise ConfigError("params expects a model or experiment config")
    config = ModelConfig.from_dict(model_raw)
    report = param_report(config)
    print(f"{'component':<24}{'parameters':>14}")
    for name, value in report["components"].items():
        print(f"{name:<24}{value:>14,}")
    print(f"{'total':<24}{report['total']:>14,}")
    if "aggregated_span" in report:
        lo, hi = report["aggregated_span"]
        print(f"aggregated span: layers {lo}..{hi}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


def _source(line: str, where: str, config: ModelConfig):
    """One line of a decode input as an EOS-terminated source, None for a blank line.  Every
    token must be a symbol id in [N_SPECIAL, vocab_size) and the source plus EOS must fit
    max_len; otherwise ``ConfigError`` names ``where`` (the file and line)."""
    try:
        tokens = [int(t) for t in line.split()]
    except ValueError:
        raise ConfigError(f"{where}: tokens must be integers, got {line.strip()!r}") from None
    bad = [t for t in tokens if not N_SPECIAL <= t < config.vocab_size]
    if bad:
        raise ConfigError(f"{where}: token {bad[0]} is not a symbol id in [{N_SPECIAL}, {config.vocab_size})")
    if len(tokens) + 1 > config.max_len:
        raise ConfigError(f"{where}: {len(tokens)} tokens plus EOS exceed max_len {config.max_len}")
    return np.array(tokens + [EOS], dtype=np.int64) if tokens else None


def cmd_decode(args) -> int:
    _check_search(args)
    run_dir = Path(args.run_dir)
    config = load_experiment(run_dir / "config.json")
    limit = config.model.max_len
    max_len = min(limit, config.task.max_len + 2) if args.max_len is None else args.max_len
    if not 1 <= max_len <= limit:
        raise ConfigError(f"--max-len must be in [1, {limit}] (the model's max_len), got {max_len}")
    with open(args.input) as fh:   # every line is checked before any is decoded
        sources = [_source(line, f"{args.input} line {number}", config.model)
                   for number, line in enumerate(fh, 1)]
    model = build(config.model)
    ckpt = averaged_model_checkpoint(run_dir, args.last_k, strict=False,
                                     digest=config_digest(config.model))
    model.load_state(ckpt.params)

    out_path = Path(args.output) if args.output else Path(args.input).with_suffix(".decoded")
    with open(out_path, "w") as out:
        for source in sources:
            if source is not None:
                result = beam_search(model, source, beam_size=args.beam, alpha=args.alpha,
                                     max_len=max_len)
                out.write(" ".join(str(t) for t in result.tokens))
            out.write("\n")
    print(f"decoded to {out_path}")
    return 0


def cmd_average(args) -> int:
    run_dir = Path(args.run_dir)
    n_available = len(list_checkpoints(run_dir / "checkpoints"))
    ckpt = averaged_model_checkpoint(run_dir, args.k, strict=True)
    out_path = Path(args.output) if args.output else run_dir / f"averaged_last{args.k}.ckpt"
    save_checkpoint(out_path, ckpt)
    print(f"averaged last {args.k} of {n_available} checkpoints -> {out_path}")
    return 0


def cmd_ablate(args) -> int:
    if not args.axis:
        raise ConfigError(f"ablate needs at least one --axis ({', '.join(AXES)})")
    _check_search(args)
    if args.eval_samples < 1:
        raise ConfigError(f"--eval-samples must be >= 1, got {args.eval_samples}")
    config = load_experiment(args.config, _parse_set(args.set))
    out_dir = Path(args.out_dir or config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    axes = [[(axis, value) for value in AXES[axis]] for axis in args.axis]

    rows = []
    for cell in itertools.product(*axes):
        spec = dataclasses.replace(config.model.aggregation,
                                   **{axis: value for axis, value in cell})
        cell_name = "_".join(value for _, value in cell)
        cell_model = dataclasses.replace(config.model, aggregation=spec)
        row = {"cell": cell_name, **dataclasses.asdict(spec), "status": "ok",
               **dict.fromkeys(("params", "final_loss", "token_accuracy", "bleu", "exact_match"), "")}
        try:
            cell_model.validate()
            row["params"] = param_report(cell_model)["total"]
            model = build(cell_model)
            train(model, config.task, config.training, out_dir / "cells" / cell_name,
                  seed=config.seed)
            metrics = evaluate_model(
                model, config.task, n_examples=args.eval_samples,
                beam_size=args.beam, alpha=args.alpha,
                label_smoothing=config.training.label_smoothing, seed=config.seed)
            row.update(
                final_loss=metrics["loss"],
                token_accuracy=metrics["token_accuracy"],
                bleu=metrics["bleu"],
                exact_match=metrics["exact_match"],
            )
        except Exception as exc:  # a failed cell must not sink the report
            row["status"] = f"failed: {exc}"
        rows.append(row)
        print(f"[{row['status']}] {cell_name}: loss={row['final_loss']} "
              f"bleu={row['bleu']} params={row['params']}")

    with open(out_dir / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    (out_dir / "report.json").write_text(json.dumps(rows, indent=2) + "\n")
    print(f"report written to {out_dir / 'report.csv'}")
    return 0


def cmd_gradcheck(args) -> int:
    results = gradient_suite(step=args.step, threshold=args.threshold)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += not res.passed
        print(f"[{status}] {res.name}: max rel err {res.max_err:.3e} (threshold {res.threshold:.1e})")
    if failed:
        print(f"{failed} gradient check(s) failed")
        return 2
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="treeformer",
                     description="Train and inspect Transformers with cross-layer aggregation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from an experiment config")
    p.add_argument("config")
    p.add_argument("--out-dir")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="train a grid of aggregation variants and report")
    p.add_argument("config")
    p.add_argument("--axis", action="append", choices=sorted(AXES))
    p.add_argument("--out-dir")
    p.add_argument("--eval-samples", type=int, default=32)
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("params", help="itemized trainable-parameter counts")
    p.add_argument("config")
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("decode", help="beam-decode a file of token-id lines")
    p.add_argument("run_dir")
    p.add_argument("input")
    p.add_argument("--output")
    p.add_argument("--beam", type=int, default=4)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--last-k", type=int, default=5,
                   help="average up to this many trailing checkpoints; the step-0 "
                        "initialisation only when it is the only one")
    p.add_argument("--max-len", type=int)
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("average", help="average the last k checkpoints of a run")
    p.add_argument("run_dir")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_average)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--threshold", type=float, default=1e-5)
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    raise SystemExit(main())
