"""Command-line entry point.

Subcommands: gen (synthetic dataset), train, eval, sweep, selfcheck.
Each setting is one field of a config dataclass (``SynthConfig``;
``TrainConfig`` with its nested ``LossWeights``). From the fields come
the flat ``key = value`` config-file keys and their parsers (by
annotation), the flag overrides (a flag whose dest is a key wins), the
checks (a rejected value is a ConfigError before any work) and the
manifest's echo of the resolved configuration (``asdict``).

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
a diverged training run (OptimizationError), a checkpoint whose
forward pass overflows on the dataset, a pool worker that died or an
output that cannot be written (an OSError); 130 when SIGINT ends it.

``OPENBLAS_NUM_THREADS`` defaults to 1 here, before anything imports
numpy, because OpenBLAS reads it once, when it loads: a sweep can then
fork its pool workers, which inherit the dataset and the loaded modules,
instead of spawning interpreters that import numpy and unpickle the
dataset again (see ``evaluation``). A value set by the user wins.
"""

from __future__ import annotations

import os

# Before the imports below load numpy; see the module docstring.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import sys
import time
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .data import LabeledDataset, load_dataset, save_dataset
from .errors import (ConfigError, NonFiniteError, OptimizationError, VerificationError,
                     WorkerDiedError)
from .evaluation import (PROTOCOLS, evaluate_checkpoint, lambda_grid_cells, loss_set_cells,
                         sweep)
from .losses import LossBreakdown
from .manifest import atomic_write, write_json, write_manifest
from .model import Model, forward_values, load_model, save_model
from .selfcheck import run_all
from .synth import SynthConfig, generate_dataset, save_ground_truth
from .training import TrainConfig, train


def _list_of(parse):
    """A parser of comma-separated items; blank items are skipped."""
    def parse_list(v: str) -> tuple:
        return tuple(parse(p) for p in v.split(",") if p.strip() != "")
    return parse_list


def _parser(hint):
    """The parser of a value annotated ``hint``: int, float and str parse
    as themselves, a tuple as a comma list of its item type, and an
    optional value as its non-None type."""
    args = [a for a in get_args(hint) if a is not type(None)]
    if get_origin(hint) is tuple:
        return _list_of(args[0])
    return _parser(args[0]) if args else hint


def _settings(cls):
    """(name, annotation) of every field of a config dataclass."""
    hints = get_type_hints(cls)
    return [(f.name, hints[f.name]) for f in fields(cls)]


def _schema(cls) -> dict:
    """Config-file key -> parser for every field of a config dataclass; a
    nested config dataclass contributes its fields as keys of their own."""
    schema = {}
    for name, hint in _settings(cls):
        schema.update(_schema(hint) if is_dataclass(hint) else {name: _parser(hint)})
    return schema


def _build(cls, resolved: dict):
    """cls from the resolved keys; a field without a key keeps its default."""
    kwargs = {}
    for name, hint in _settings(cls):
        if is_dataclass(hint):
            kwargs[name] = _build(hint, resolved)
        elif name in resolved:
            kwargs[name] = resolved[name]
    return cls(**kwargs)


GEN_SCHEMA = _schema(SynthConfig)
TRAIN_SCHEMA = _schema(TrainConfig)


def parse_config_file(path: Path) -> dict[str, str]:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path}: byte {exc.start} is not UTF-8 text") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_config(schema: dict, file_values: dict[str, str],
                   flag_values: dict) -> dict:
    """Typed merge of config file keys and flag overrides."""
    resolved: dict = {}
    for key, raw in file_values.items():
        if key not in schema:
            raise ConfigError(
                f"unknown config key {key!r}; allowed keys: {', '.join(sorted(schema))}")
        try:
            resolved[key] = schema[key](raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    for key, value in flag_values.items():
        if value is not None:
            resolved[key] = value
    return resolved


def _require_out_dir(out: str) -> Path:
    path = Path(out)
    if not path.is_dir():
        raise ConfigError(f"output directory does not exist: {path}")
    return path


def _require_at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ConfigError(f"{flag} must be >= {minimum}, got {value}")


def _load_checkpoint(path: str, ds: LabeledDataset) -> Model:
    """The checkpoint at path, which must fit the dataset's sidecar."""
    try:
        model = load_model(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc}") from exc
    for key, expected in (("input_dim", ds.input_dim), ("num_ages", ds.num_ages)):
        got = getattr(model.config, key)
        if got != expected:
            raise ConfigError(
                f"checkpoint {path} has {key} = {got}, but the dataset has {expected}")
    return model


def _checked(build, *args):
    """build(*args), with a value a config dataclass rejects as a ConfigError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _config(cls, schema: dict, args):
    """cls from the config file's keys, each overridden by the flag whose
    dest is that key."""
    file_values = parse_config_file(Path(args.config)) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if key in schema}
    return _checked(_build, cls, resolve_config(schema, file_values, flags))


def _train_config(args, ds: LabeledDataset) -> TrainConfig:
    """The train/sweep config, with the network it builds on ds checked too."""
    cfg = _config(TrainConfig, TRAIN_SCHEMA, args)
    _checked(cfg.model_config, ds)
    return cfg


def cmd_gen(args) -> int:
    # The output directory is validated before anything is generated or
    # written, so a bad invocation leaves no partial files.
    out = _require_out_dir(args.out)
    cfg = _config(SynthConfig, GEN_SCHEMA, args)
    started = time.perf_counter()
    ds, truth = generate_dataset(cfg, cfg.seed)

    csv_path = out / "dataset.csv"
    save_dataset(ds, csv_path)  # also writes dataset.meta.json and dataset.cache.npy
    truth_path = out / "dataset.truth.json"
    save_ground_truth(truth, truth_path)
    outputs = [csv_path, out / "dataset.meta.json", out / "dataset.cache.npy", truth_path]
    write_manifest(
        out, "gen", asdict(cfg), {"seed": cfg.seed}, [], outputs, time.perf_counter() - started)
    print(f"wrote {len(ds)} samples to {csv_path}")
    return 0


def cmd_train(args) -> int:
    out = _require_out_dir(args.out)
    ds = load_dataset(args.dataset)
    cfg = _train_config(args, ds)

    started = time.perf_counter()
    model, history = train(ds, cfg)
    # The last Adam step can leave finite weights (about 1e300) whose
    # forward overflows; eval would reject that checkpoint, so none is written.
    try:
        forward_values(model, ds.inputs)
    except NonFiniteError as exc:
        raise OptimizationError(f"training diverged at its last step: {exc}") from exc

    ckpt = out / "checkpoint.json"
    save_model(model, ckpt)
    log_path = out / "train_log.csv"
    with atomic_write(log_path) as fh:
        fh.write("epoch," + ",".join(LossBreakdown.FIELDS) + "\n")
        fh.writelines(f"{epoch}," + ",".join(repr(v) for v in b.as_row()) + "\n"
                      for epoch, b in enumerate(history))

    write_manifest(
        out, "train", asdict(cfg), {"seed": cfg.seed}, [Path(args.dataset)],
        [ckpt, log_path], time.perf_counter() - started)
    print(f"trained {cfg.epochs} epochs; checkpoint at {ckpt}")
    return 0


def cmd_eval(args) -> int:
    out = _require_out_dir(args.out)
    _require_at_least("--k", args.k, 2)
    _require_at_least("--seed", args.seed, 0)
    ds = load_dataset(args.dataset)
    model = _load_checkpoint(args.checkpoint, ds)
    started = time.perf_counter()
    try:
        report = evaluate_checkpoint(model, ds, args.protocol, k=args.k, seed=args.seed)
    except NonFiniteError as exc:
        raise ConfigError(
            f"checkpoint {args.checkpoint} overflows on {args.dataset}: {exc}") from exc

    report_path = out / "eval_report.json"
    write_json(report_path, report.to_dict())
    csv_path = out / "eval_folds.csv"
    with atomic_write(csv_path) as fh:
        fh.write("fold,test_size,mae\n")
        fh.writelines(f"{i},{size},{mae!r}\n"
                      for i, (mae, size) in enumerate(zip(report.fold_maes, report.fold_sizes)))

    write_manifest(
        out, "eval", {"protocol": args.protocol, "k": args.k, "seed": args.seed},
        {"seed": args.seed}, [Path(args.dataset), Path(args.checkpoint)],
        [report_path, csv_path], time.perf_counter() - started)
    print(f"mean MAE {report.mean_mae:.4f} over {report.k} folds "
          f"(mu_vf {report.mu_vf:.4f}, mu_vs {report.mu_vs:.4f})")
    return 0


def cmd_sweep(args) -> int:
    out = _require_out_dir(args.out)
    _require_at_least("--k", args.k, 2)
    _require_at_least("--jobs", args.jobs, 1)
    ds = load_dataset(args.dataset)
    base_cfg = _train_config(args, ds)
    if args.loss_sets:
        cells = loss_set_cells(base_cfg.weights.lambda_c, base_cfg.weights.lambda_t)
    elif args.grid_lambda_c and args.grid_lambda_t:
        cells = lambda_grid_cells(args.grid_lambda_c, args.grid_lambda_t)
    else:
        raise ConfigError("sweep needs --loss-sets or both --grid-lambda-c and --grid-lambda-t")
    for cell in cells:
        _checked(cell.config, base_cfg)

    started = time.perf_counter()
    reports, pool = sweep(ds, base_cfg, cells, protocol=args.protocol, k=args.k, jobs=args.jobs)

    rows_path = out / "sweep_rows.jsonl"
    with atomic_write(rows_path) as fh:
        fh.writelines(json.dumps({
            **asdict(c), "fold_maes": r.fold_maes, "mean_mae": r.mean_mae, "mu_vf": r.mu_vf,
            "mu_vs": r.mu_vs}) + "\n" for c, r in zip(cells, reports))
    csv_path = out / "sweep.csv"
    with atomic_write(csv_path) as fh:
        fh.write("label,lambda_c,lambda_t,pair_loss,mean_mae,mu_vf,mu_vs\n")
        fh.writelines(f"{c.label},{c.lambda_c!r},{c.lambda_t!r},{c.pair_loss},"
                      f"{r.mean_mae!r},{r.mu_vf!r},{r.mu_vs!r}\n" for c, r in zip(cells, reports))

    write_manifest(
        out, "sweep", {**asdict(base_cfg), "protocol": args.protocol, "k": args.k,
                       "cells": [c.label for c in cells]},
        {"seed": base_cfg.seed}, [Path(args.dataset)], [rows_path, csv_path],
        time.perf_counter() - started,
        # A pool that could not fork says so here, with the thread count it saw.
        pool={**pool, "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")})
    print(f"swept {len(cells)} cells; table at {csv_path}")
    return 0


def cmd_selfcheck(args) -> int:
    _require_at_least("--gradient-points", args.gradient_points, 1)
    results = run_all(gradient_points=args.gradient_points)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        print(f"{status} {r.name}{detail}")
    if failed:
        raise VerificationError(f"{len(failed)} of {len(results)} checks failed")
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agecontrast",
        description="Contrastive age estimation on labeled vectors")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--config", help="flat key=value config file")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True, help="existing output directory")
    gen.set_defaults(func=cmd_gen)

    def add_train_flags(p):
        p.add_argument("--dataset", required=True)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--lambda-c", dest="lambda_c", type=float, default=None)
        p.add_argument("--lambda-t", dest="lambda_t", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
        p.add_argument("--lr", dest="learning_rate", type=float, default=None)
        p.add_argument("--out", required=True)

    tr = sub.add_parser("train", help="train a model on a dataset CSV")
    add_train_flags(tr)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint under a protocol")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--protocol", choices=PROTOCOLS, default="rs")
    ev.add_argument("--k", type=int, default=5)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="train/evaluate a weight grid or loss-set table")
    add_train_flags(sw)
    sw.add_argument("--protocol", choices=PROTOCOLS, default="se")
    sw.add_argument("--k", type=int, default=5)
    sw.add_argument("--jobs", type=int, default=1)
    sw.add_argument("--grid-lambda-c", dest="grid_lambda_c", type=_list_of(float), default=None)
    sw.add_argument("--grid-lambda-t", dest="grid_lambda_t", type=_list_of(float), default=None)
    sw.add_argument("--loss-sets", dest="loss_sets", action="store_true",
                    help="emit the six loss-combination rows instead of a grid")
    sw.set_defaults(func=cmd_sweep)

    sc = sub.add_parser("selfcheck", help="run the built-in verification suites")
    sc.add_argument("--gradient-points", dest="gradient_points", type=int, default=100)
    sc.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow is detected where it matters (softmax logits, Adam
        # gradients) and reported as one error line; numpy's warnings
        # would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OptimizationError, NonFiniteError, WorkerDiedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:  # 130, as a shell reports a command that SIGINT ended
        print("error: interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    sys.exit(main())
