"""The benchmark's workloads: set-up, one timed operation, output checks.

Each workload makes the layer one ROADMAP item will optimise dominant,
and has a partner workload where that layer is absent or minor:

- train-triplet-10k: triplet sampling is about half of train() time and
  grows O(N^2) per epoch, so a linear sampler shows here.
- train-triplet-1k: sampling falls to about a quarter; tape backward and
  loss composition carry the step, so a batched loss path, a fused
  log-softmax or per-step telemetry shows here. Paired with the 10k
  workload it exposes per-anchor scaling in N.
- sweep-loss-sets-1k: the only workload with process-pool orchestration
  (a pool per cell, the dataset pickled with every fold job, subset()
  rebuilding sample lists) and the KL pair-loss path.
- gen-eval-lopo-20k: CSV writes and reads and forward-only evaluation; no
  tape and no sampler, so sampler and tape changes must read "no change".
  It runs at 20k samples, not 40k: the lopo split keeps a train-index
  array per identity, which peaks at 2.6 GB per eval at 40k.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import tracing

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "launch.py"

# The triplet workloads' training configuration.
BATCH_SIZE = 64
LAMBDA_C = 10.0
LAMBDA_T = 1.0
# Held-out data for the learning check comes from another seed.
HELDOUT_SEED_OFFSET = 7919
# Anchors in the sampler-constraint check.
ORACLE_ANCHORS = 1024
SWEEP_EPOCHS = 5
SWEEP_FOLDS = 5
SWEEP_JOBS = 2
SWEEP_CELLS = 6
GEN_IDENTITIES = 4000
# Epochs for the gen-eval checkpoint made during set-up.
CHECKPOINT_EPOCHS = 5
COMMAND_TIMEOUT_S = 120


class OpError(Exception):
    """A timed operation failed: non-zero exit, timeout or exception."""


@dataclass
class Context:
    seed: int
    work: Path
    env: dict


@dataclass
class OpResult:
    """Wall time of each command or call in one operation, the samples
    it processed, and the spans of a traced operation."""

    parts: dict[str, float]
    samples: float
    spans: list = field(default_factory=list)


def run_cli(ctx: Context, args: list[str], trace_dir: Path | None = None) -> float:
    """Run one agecontrast command in the work directory; returns its wall
    time. Traced commands go through the launcher that installs spans."""
    if trace_dir is None:
        cmd = [sys.executable, "-m", "agecontrast", *args]
    else:
        cmd = [sys.executable, str(LAUNCHER), str(trace_dir), *args]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ctx.work, env=ctx.env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise OpError(f"{args[0]}: no exit within {COMMAND_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
        raise OpError(f"{args[0]} exited {proc.returncode}: {' | '.join(tail)}")
    return wall


class TrainTriplet:
    """In-process training.train with the cosine and triplet terms on."""

    def __init__(self, num_identities: int, epochs: int):
        self.num_identities = num_identities
        self.epochs = epochs

    def setup(self, ctx: Context) -> None:
        from agecontrast.losses import LossWeights
        from agecontrast.synth import SynthConfig, generate_dataset
        from agecontrast.training import TrainConfig
        self.ds, self.truth = generate_dataset(
            SynthConfig(num_identities=self.num_identities), ctx.seed)
        self.heldout, self.heldout_truth = generate_dataset(
            SynthConfig(), ctx.seed + HELDOUT_SEED_OFFSET)
        self.cfg = TrainConfig(epochs=self.epochs, batch_size=BATCH_SIZE, seed=ctx.seed,
                               weights=LossWeights(lambda_c=LAMBDA_C, lambda_t=LAMBDA_T))
        self.first_params = None
        self.same_params = True
        self.histories = []

    def run_once(self, ctx: Context, trace_dir: Path | None) -> OpResult:
        from agecontrast import training
        tracer = tracing.Tracer() if trace_dir is not None else None
        undo = tracing.install(tracer)[1] if tracer else None
        try:
            started = time.perf_counter()
            model, history = training.train(self.ds, self.cfg)
            wall = time.perf_counter() - started
        finally:
            if undo:
                undo()
        params = [p.copy() for p in model.parameters()]
        if self.first_params is None:
            self.first_params, self.model = params, model
        elif not all(np.array_equal(a, b) for a, b in zip(params, self.first_params)):
            self.same_params = False
        self.histories.append([b.as_row() for b in history])
        return OpResult({"train_s": wall}, len(self.ds) * self.epochs,
                        tracer.spans if tracer else [])

    def check(self, ctx: Context) -> dict[str, list[str]]:
        from agecontrast.data import sample_triplet_batch
        batch = sample_triplet_batch(self.ds, ORACLE_ANCHORS, ctx.seed)
        mae, baseline, learn = oracles.check_beats_median(
            oracles.mlp_ages(self.model.weights, self.model.biases, self.heldout.inputs),
            self.heldout_truth.sample_ages, self.truth.sample_ages)
        self.notes = {"heldout_mae": mae, "median_baseline_mae": baseline}
        return {
            "sampler_constraints": oracles.check_triplets(
                self.truth.sample_ages, self.truth.sample_identities,
                [(t.a, t.p, t.n) for t in batch]),
            "finite_loss_history": [f for h in self.histories
                                    for f in oracles.check_finite_history(h)],
            "same_model_every_repeat": [] if self.same_params else [
                "train() with one seed gave different parameters across repeats"],
            "heldout_beats_median": learn,
        }


class SweepLossSets:
    """CLI `sweep --loss-sets` (six cells x se folds, a process pool)."""

    def setup(self, ctx: Context) -> None:
        from agecontrast.data import save_dataset
        from agecontrast.synth import SynthConfig, generate_dataset
        ds, _ = generate_dataset(SynthConfig(), ctx.seed)
        save_dataset(ds, ctx.work / "dataset.csv")
        (ctx.work / "sweep").mkdir(exist_ok=True)
        self.samples = SWEEP_CELLS * (SWEEP_FOLDS - 1) * len(ds) * SWEEP_EPOCHS
        self.tables: list[bytes] = []

    def run_once(self, ctx: Context, trace_dir: Path | None) -> OpResult:
        wall = run_cli(ctx, [
            "sweep", "--dataset", "dataset.csv", "--loss-sets", "--protocol", "se",
            "--k", str(SWEEP_FOLDS), "--jobs", str(SWEEP_JOBS), "--epochs", str(SWEEP_EPOCHS),
            "--seed", str(ctx.seed), "--out", "sweep"], trace_dir)
        self.tables.append((ctx.work / "sweep" / "sweep.csv").read_bytes())
        spans = tracing.read_spans(trace_dir) if trace_dir else []
        return OpResult({"sweep_s": wall}, self.samples, spans)

    def check(self, ctx: Context) -> dict[str, list[str]]:
        return {
            "sweep_rows_and_repeats": oracles.check_sweep(self.tables, SWEEP_CELLS),
            "sweep_manifest": oracles.check_manifest(ctx.work / "sweep" / "manifest.json",
                                                     ctx.work),
        }


class GenEvalLopo:
    """CLI `gen` at 20k samples, then CLI `eval --protocol lopo` on it."""

    def setup(self, ctx: Context) -> None:
        from agecontrast.model import save_model
        from agecontrast.synth import SynthConfig, generate_dataset
        from agecontrast.training import TrainConfig, train
        (ctx.work / "gen.cfg").write_text(f"num_identities = {GEN_IDENTITIES}\n",
                                          encoding="utf-8")
        ds, _ = generate_dataset(SynthConfig(), ctx.seed)
        model, _ = train(ds, TrainConfig(epochs=CHECKPOINT_EPOCHS, seed=ctx.seed))
        save_model(model, ctx.work / "checkpoint.json")
        for sub in ("gen", "eval"):
            (ctx.work / sub).mkdir(exist_ok=True)
        self.samples = 2 * GEN_IDENTITIES * SynthConfig().samples_per_identity
        self.outputs: list[tuple[str, str]] = []

    def run_once(self, ctx: Context, trace_dir: Path | None) -> OpResult:
        gen_s = run_cli(ctx, ["gen", "--config", "gen.cfg", "--seed", str(ctx.seed),
                              "--out", "gen"], trace_dir)
        eval_s = run_cli(ctx, ["eval", "--checkpoint", "checkpoint.json",
                               "--dataset", "gen/dataset.csv", "--protocol", "lopo",
                               "--seed", str(ctx.seed), "--out", "eval"], trace_dir)
        self.outputs.append((oracles.sha256(ctx.work / "gen" / "dataset.csv"),
                             oracles.sha256(ctx.work / "eval" / "eval_folds.csv")))
        spans = tracing.read_spans(trace_dir) if trace_dir else []
        return OpResult({"gen_s": gen_s, "eval_s": eval_s}, self.samples, spans)

    def check(self, ctx: Context) -> dict[str, list[str]]:
        w = ctx.work
        return {
            "same_outputs_every_repeat": [] if len(set(self.outputs)) == 1 else [
                "gen or eval output changed across repeats of one seed"],
            "lopo_eval_matches_numpy": oracles.check_lopo_eval(
                w / "gen" / "dataset.csv", w / "checkpoint.json",
                w / "eval" / "eval_folds.csv", w / "eval" / "eval_report.json"),
            "gen_manifest": oracles.check_manifest(w / "gen" / "manifest.json", w),
            "eval_manifest": oracles.check_manifest(w / "eval" / "manifest.json", w),
        }


WORKLOADS = {
    # One epoch per call at 10k gives about twenty calls per run.
    "train-triplet-10k": lambda: TrainTriplet(2000, epochs=1),
    "train-triplet-1k": lambda: TrainTriplet(200, epochs=3),
    "sweep-loss-sets-1k": SweepLossSets,
    "gen-eval-lopo-20k": GenEvalLopo,
}
