"""Evaluation protocols, MAE, the identity-variance diagnostic, sweeps.

Three fold protocols are supported: random split (rs), subject-exclusive
k-fold (se, identities never cross the train/test boundary) and
leave-one-person-out (lopo). The identity-variance diagnostic reports
the within-identity variance of features f and of the softmax output s
(scaled by 100), averaged per coordinate and then per identity; higher
values mean the representation depends less on who the person is.
``evaluate_mae`` and ``identity_variance`` take the rows of one forward
over the whole dataset; ``evaluate_checkpoint`` and each sweep fold job
score their model from one such forward, so a fold's MAE in a sweep is
bit for bit the one ``eval`` reports for that model and fold.

A sweep runs all its (cell, fold) jobs on ``data.dataset_pool``, with
one OpenBLAS thread a worker. It forks the workers when this process's
BLAS runs one thread, as under the CLI, so they inherit the dataset and
the loaded modules; forked workers that inherit two OpenBLAS threads
each made a sweep three to five times slower on two cores. Otherwise it
spawns them.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import LabeledDataset, dataset_pool
from .errors import IncompatibleDataError
from .losses import LossBreakdown
from .model import Model, forward_values, predict_ages
from .training import TrainConfig, train

Array = np.ndarray

PROTOCOLS = ("rs", "se", "lopo")

# Softmax outputs are scaled by this factor before the variance is taken,
# so their diagnostic lands on a comparable magnitude to the features'.
S_VARIANCE_SCALE = 100.0

_VARIANCE_CHUNK_ROWS = 4096  # about the most rows identity_variance gathers at once

ESTIMATOR_NOTES = {
    "variance": "population (ddof=0), averaged per coordinate then per identity",
    "s_scale": S_VARIANCE_SCALE,
    "learning_rate_schedule": "constant",
}


@dataclass(frozen=True)
class Fold:
    """Sorted test indices of one fold over n samples; train is the rest."""

    test: Array
    n: int

    @property
    def train(self) -> Array:
        mask = np.ones(self.n, dtype=bool)
        mask[self.test] = False
        return np.flatnonzero(mask)


def split_random(ds: LabeledDataset, k: int, seed: int) -> list[Fold]:
    """Seeded permutation chunked into k near-equal test folds
    (larger folds first when N % k != 0)."""
    n = len(ds)
    if k < 2:
        raise ValueError(f"split_random: k must be >= 2, got {k}")
    if k > n:
        raise IncompatibleDataError(f"random split needs >= {k} samples, dataset has {n}")
    perm = np.random.default_rng(seed).permutation(n)
    return _folds_from_chunks(np.array_split(perm, k), n)


def split_subject_exclusive(ds: LabeledDataset, k: int, seed: int) -> list[Fold]:
    """Identities (not samples) are partitioned into k folds; every
    sample of an identity lands in that identity's fold."""
    identities = ds.unique_identities()
    if k < 2:
        raise ValueError(f"split_subject_exclusive: k must be >= 2, got {k}")
    if k > len(identities):
        raise IncompatibleDataError(
            f"subject-exclusive split needs >= {k} identities, dataset has {len(identities)}")
    order = np.random.default_rng(seed).permutation(len(identities))
    chunks = [np.concatenate([ds.indices_of_identity(identities[i]) for i in ident_ids])
              for ident_ids in np.array_split(order, k)]
    return _folds_from_chunks(chunks, len(ds))


def split_lopo(ds: LabeledDataset) -> list[Fold]:
    """One fold per identity; the fold's test set is that identity's samples."""
    identities = ds.unique_identities()
    if len(identities) < 2:
        raise IncompatibleDataError("leave-one-person-out needs at least 2 identities")
    chunks = [ds.indices_of_identity(ident) for ident in identities]
    return _folds_from_chunks(chunks, len(ds))


def _folds_from_chunks(test_chunks, n: int) -> list[Fold]:
    return [Fold(np.sort(np.asarray(test, dtype=np.int64)), n) for test in test_chunks]


def split_protocol(ds: LabeledDataset, protocol: str, k: int = 5, seed: int = 0) -> list[Fold]:
    if protocol == "rs":
        return split_random(ds, k, seed)
    if protocol == "se":
        return split_subject_exclusive(ds, k, seed)
    if protocol == "lopo":
        return split_lopo(ds)
    raise ValueError(f"unknown protocol {protocol!r}, expected one of {PROTOCOLS}")


def mean_absolute_error(predicted, actual) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape or predicted.size == 0:
        raise ValueError(f"mean_absolute_error: bad shapes {predicted.shape} vs {actual.shape}")
    return float(np.mean(np.abs(predicted - actual)))


def evaluate_mae(s_rows: Array, ds: LabeledDataset, folds: list[Fold]) -> list[float]:
    """Each fold's MAE of the age estimates of s_rows, the distributions
    of a forward over every sample of ds."""
    predicted = predict_ages(s_rows)
    return [mean_absolute_error(predicted[fold.test], ds.ages[fold.test]) for fold in folds]


def identity_variance(f_rows: Array, s_rows: Array, ds: LabeledDataset) -> tuple[float, float]:
    """Within-identity variance of f and of s*S_VARIANCE_SCALE, the rows
    of a forward over every sample of ds.

    Per identity with >= 2 samples: population variance per coordinate
    across that identity's samples, averaged over coordinates; the
    result is averaged over those identities.
    """
    # Identities with one sample count are gathered as (identities, count,
    # width); np.var over axis 1 gives each the bits of np.var of its rows.
    groups = [ds.indices_of_identity(ident) for ident in ds.unique_identities()]
    sizes = np.array([g.size for g in groups])
    kept = sizes >= 2
    if not kept.any():
        raise IncompatibleDataError("identity_variance needs an identity with >= 2 samples")
    vf, vs = np.zeros((2, len(groups)))
    for count in np.unique(sizes[kept]):
        members = np.flatnonzero(sizes == count)
        step = max(1, _VARIANCE_CHUNK_ROWS // count)
        for ids in np.split(members, range(step, members.size, step)):
            take = np.stack([groups[i] for i in ids])
            vf[ids] = np.mean(np.var(f_rows[take], axis=1), axis=1)
            vs[ids] = np.mean(np.var(s_rows[take] * S_VARIANCE_SCALE, axis=1), axis=1)
    return float(np.mean(vf[kept])), float(np.mean(vs[kept]))


def _scores(model: Model, ds: LabeledDataset,
            folds: list[Fold]) -> tuple[list[float], float, float]:
    """Each fold's MAE and the identity-variance pair of a model, all from
    one forward over the whole dataset."""
    f_rows, s_rows = forward_values(model, ds.inputs)
    return evaluate_mae(s_rows, ds, folds), *identity_variance(f_rows, s_rows, ds)


@dataclass
class EvalReport:
    protocol: str
    k: int
    seed: int
    fold_maes: list[float]
    fold_sizes: list[int]
    mean_mae: float
    mu_vf: float
    mu_vs: float
    histories: list[list[LossBreakdown]]
    config: dict
    notes: dict = field(default_factory=lambda: dict(ESTIMATOR_NOTES))

    def to_dict(self) -> dict:
        # fold_sizes goes to the per-fold CSV, not into the report.
        report = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "fold_sizes"}
        return {**report, "histories": [[b.as_row() for b in h] for h in self.histories]}


def evaluate_checkpoint(model: Model, ds: LabeledDataset, protocol: str,
                        k: int = 5, seed: int = 0) -> EvalReport:
    """Per-fold MAE of a fixed model plus its identity-variance pair."""
    folds = split_protocol(ds, protocol, k, seed)
    fold_maes, mu_vf, mu_vs = _scores(model, ds, folds)
    return EvalReport(
        protocol=protocol, k=len(folds), seed=seed,
        fold_maes=fold_maes, fold_sizes=[len(fold.test) for fold in folds],
        mean_mae=float(np.mean(fold_maes)),
        mu_vf=mu_vf, mu_vs=mu_vs, histories=[],
        config={"checkpoint": asdict(model.config), "predict_mode": "mean"},
    )


def _fold_config(cfg: TrainConfig, fold_index: int) -> TrainConfig:
    state = np.random.SeedSequence([int(cfg.seed), int(fold_index)]).generate_state(1)
    return replace(cfg, seed=int(state[0]))


def _fold_job(ds: LabeledDataset, task: tuple[TrainConfig, Fold]) -> tuple[float, float, float, list]:
    cfg, fold = task
    model, history = train(ds.subset(fold.train), cfg)
    [mae], mu_vf, mu_vs = _scores(model, ds, [fold])
    return mae, mu_vf, mu_vs, history


def _report(cfg: TrainConfig, protocol: str, folds: list[Fold], results) -> EvalReport:
    maes, vfs, vss, histories = (list(column) for column in zip(*results))
    return EvalReport(
        protocol=protocol, k=len(folds), seed=cfg.seed, fold_maes=maes,
        fold_sizes=[len(fold.test) for fold in folds], mean_mae=float(np.mean(maes)),
        mu_vf=float(np.mean(vfs)), mu_vs=float(np.mean(vss)), histories=histories,
        config=asdict(cfg))


# ---------------------------------------------------------------------------
# Sweeps

@dataclass(frozen=True)
class SweepCell:
    label: str
    lambda_c: float
    lambda_t: float
    pair_loss: str = "cosine"

    def config(self, base_cfg: TrainConfig) -> TrainConfig:
        """base_cfg with this cell's pair weights; rejects invalid weights."""
        return replace(base_cfg, weights=replace(
            base_cfg.weights, lambda_c=self.lambda_c, lambda_t=self.lambda_t,
            pair_loss=self.pair_loss))


def lambda_grid_cells(lambda_cs, lambda_ts) -> list[SweepCell]:
    """Cartesian grid, ordered lambda_c-major."""
    return [SweepCell(f"lc{lc:g}_lt{lt:g}", float(lc), float(lt))
            for lc in lambda_cs for lt in lambda_ts]


def loss_set_cells(lambda_c: float = 0.0, lambda_t: float = 0.0) -> list[SweepCell]:
    """The six loss-combination rows of the ablation table; a zero weight
    falls back to the table's lambda_c = 10 or lambda_t = 1."""
    lambda_c, lambda_t = lambda_c or 10.0, lambda_t or 1.0
    return [
        SweepCell("MV", 0.0, 0.0),
        SweepCell("MV+KLD", lambda_c, 0.0, pair_loss="kld"),
        SweepCell("MV+Cosine", lambda_c, 0.0),
        SweepCell("MV+Triplet", 0.0, lambda_t),
        SweepCell("MV+KLD+Triplet", lambda_c, lambda_t, pair_loss="kld"),
        SweepCell("MV+Cosine+Triplet", lambda_c, lambda_t),
    ]


def sweep(ds: LabeledDataset, base_cfg: TrainConfig, cells: list[SweepCell],
          protocol: str = "se", k: int = 5, jobs: int = 1) -> tuple[list[EvalReport], dict]:
    """Retrain and evaluate every cell under shared seeds; one report per
    cell, in cell order, and how the jobs ran (see ``_run_jobs``). The
    folds split with base_cfg's seed. Each fold's model is scored like
    ``evaluate_checkpoint`` scores a model: its MAE on that fold's test
    split and its identity variance over the whole dataset, which is
    averaged."""
    if not cells:
        raise ValueError("sweep: empty grid")
    configs = [cell.config(base_cfg) for cell in cells]  # all checked before any training
    folds = split_protocol(ds, protocol, k, base_cfg.seed)
    tasks = [(_fold_config(cfg, i), fold) for cfg in configs for i, fold in enumerate(folds)]
    # Longest first: cells with a triplet term, then with a pair term, then MV.
    order = sorted(range(len(tasks)), reverse=True, key=lambda i: (
        tasks[i][0].weights.lambda_t > 0, tasks[i][0].weights.lambda_c > 0))
    ordered, pool = _run_jobs(ds, [tasks[i] for i in order], jobs)
    results = dict(zip(order, ordered))
    n = len(folds)
    return [_report(cfg, protocol, folds, [results[c * n + j] for j in range(n)])
            for c, cfg in enumerate(configs)], pool


def _pool_start_method() -> str:
    """"fork" when this process's BLAS runs one thread, else "spawn".

    Any fork, even an earlier one in this process, stops OpenBLAS's
    threads until a product big enough to split runs again (512 x 64 by
    64 x 64 is; a train step's 192 x 64 is not), so one such product runs
    before the threads are counted. Any other thread also makes fork
    unsafe.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return "spawn"
    np.ones((512, 64)) @ np.ones((64, 64))
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        return "spawn"
    return "fork" if threads == 1 else "spawn"


def _run_jobs(ds: LabeledDataset, tasks, jobs: int) -> tuple[list, dict]:
    """Results in task order, and how the jobs ran (start method and
    worker count); the first failure raises and cancels the rest."""
    workers = min(jobs, len(tasks))
    method = _pool_start_method() if workers > 1 else "in-process"
    with dataset_pool(ds, workers, method) as (run, workers):  # 1 in a daemonic process
        results = list(run(_fold_job, tasks))
    return results, {"start_method": method if workers > 1 else "in-process", "workers": workers}
